"""The run checker: each protocol run judged against the direct value.

`demo` runs all three protocols once on a random triple; `verify_lemma1`,
`verify_quantum` and `verify_classical` are verify's exact-law and exhaustive
sections. Each fills a `cli.Report`. The first demo or verify in a process
loads this module, and with it the protocol and quantum-simulation layers;
search, replay and verify's cases section never do. This module never loads
`lowerbound`.

Every call into bitcore, protocols and qsim goes through the module object,
so a wrapper set on a module attribute sees each call.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from . import bitcore, protocols, qsim

if TYPE_CHECKING:
    from .cli import Report

def _attempt(compute, *args) -> tuple[Any, dict]:
    """compute(*args) and {}, or None and an "error" naming the fault that stopped it."""
    try:
        return compute(*args), {}
    except bitcore.InvariantViolation as exc:  # a package law failed: the check names it
        return None, {"error": f"{type(exc).__name__}: {exc}"}


def _judge(expected: int, cost: int, run, *args) -> tuple[Any, dict[str, Any]]:
    """Run the protocol once and audit it once: the result (None if a fault stopped
    it) and the verdict, each failed part's reason in the order stopped, output,
    cost, audit. A stopped run fails every part: it has no output and no cost, and
    its one audit failure names the fault.
    """
    result, error = _attempt(run, *args)
    if error:
        fault = error["error"]
        return None, {"stopped": fault, "output": None, "cost": None,
                      "audit": (f"stopped by {fault}",)}
    verdict: dict[str, Any] = {}
    if result.output != expected:
        verdict["output"] = f"output {result.output}, expected {expected}"
    if result.cost != cost:
        verdict["cost"] = f"cost {result.cost}, expected {cost}"
    if failures := protocols.audit_run(result).failures:
        verdict["audit"] = failures
    return result, verdict


def _quantum(t, rng):
    """Deal the shared triples, then run the quantum protocol on that dealing."""
    return protocols.run_quantum_two_bit(t, protocols.deal_quantum(t, rng))


def _witness(t, result, verdict: dict[str, Any]) -> dict | None:
    """t, the first failed part's reason and the transcript; None if the run passed."""
    if not verdict:
        return None
    part, reason = next(iter(verdict.items()))
    if part == "audit":
        reason = "audit: " + "; ".join(reason)
    return {"triple": str(t), "reason": reason,
            "transcript": result.transcript if result else None}


def _check(report: Report, name: str, witness: dict | None, **detail: Any) -> None:
    """A check over many runs: it fails with the first failing run as witness."""
    if witness:
        detail["witness"] = witness
    report.check(name, witness is None, **detail)


def demo(report: Report, n: int, seed: int) -> None:
    """Random promise triple through all three protocols; each check reads a verdict."""
    rng = random.Random(seed)
    t = bitcore.random_promise_triple(n, rng)
    direct = bitcore.f_ghz(t)
    report.note("input", x=str(t.x), y=str(t.y), z=str(t.z), direct_value=direct)

    width = n.bit_length()
    judged = (
        ("quantum", "quantum_two_bit", "quantum_cost_two", {},
         _judge(direct, 2, _quantum, t, rng)),
        ("three_bit", "classical_three_bit", "three_bit_cost_three", {},
         _judge(direct, 3, protocols.run_classical_three_bit, t)),
        ("count", "classical_count", "count_cost_formula", {"width": width},
         _judge(direct, 2 * width, protocols.run_classical_count, t)),
    )
    failures = []
    for check, name, _, _, (run, verdict) in judged:
        failures += [f"{name}: {failure}" for failure in verdict.get("audit", ())]
        if run is None:
            report.note("run", protocol=name, error=verdict["stopped"])
            report.check(f"{check}_matches_direct", "output" not in verdict, triple=str(t),
                         error=verdict["stopped"])
            continue
        report.note("run", protocol=name, output=run.output, cost=run.cost,
                    transcript=run.transcript, audit="fail" if "audit" in verdict else "pass")
        report.check(f"{check}_matches_direct", "output" not in verdict)
    for _, _, cost_check, detail, (run, verdict) in judged:
        report.check(cost_check, "cost" not in verdict, cost=run.cost if run else None, **detail)
    _check(report, "audits_pass", failures or None)


def verify_lemma1(report: Report) -> None:
    # Lemma 1: after each party's conditional Hadamard, every outcome of a legal column's
    # law (its `weights`, which the quantum protocol draws from) has parity AND(column).
    for column in bitcore.LEGAL_COLUMNS:
        product = column[0] & column[1] & column[2]
        weights, detail = _attempt(lambda: qsim.transformed_state(column).weights)
        support = [b for b, w in zip(qsim.BASIS, weights or ()) if w]
        wrong = [b for b in support if b.count("1") & 1 != product]
        if wrong:
            detail["wrong_parity"] = wrong
        report.check(f"lemma1_column_{''.join(map(str, column))}", not detail, product=product,
                     support=support, **detail)
    # The 001 column must transform to the four-term state with support
    # {000, 011, 101, 110} and a minus sign only on 110.
    expected = {0b000: (1, 0), 0b011: (1, 0), 0b101: (1, 0), 0b110: (-1, 0)}
    amps, error = _attempt(lambda: qsim.transformed_state((0, 0, 1)).amps)
    report.check("lemma1_001_exact_amplitudes",
                 amps == tuple(expected.get(i, (0, 0)) for i in range(8)), **error)

    def involution() -> bool:
        state = qsim.mermin_state()
        return all(qsim.apply_hadamard(qsim.apply_hadamard(state, p), p) == state
                   for p in qsim.PARTIES)

    holds, error = _attempt(involution)
    report.check("hadamard_involution", holds, **error)


def verify_quantum(report: Report, n_max: int, seed: int) -> None:
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        witness = None
        for t in bitcore.enumerate_promise(n):
            expected = bitcore.f_ghz(t)
            for _ in range(2):
                judged = _judge(expected, 2, _quantum, t, rng)
                witness = witness or _witness(t, *judged)
        _check(report, f"quantum_exhaustive_n{n}", witness, triples=4**n, runs=2 * 4**n)


def verify_classical(report: Report, n_max: int) -> None:
    for n in range(1, n_max + 1):
        width = n.bit_length()
        three = count = None
        for t in bitcore.enumerate_promise(n):
            expected = bitcore.f_ghz(t)
            judged = _judge(expected, 3, protocols.run_classical_three_bit, t)
            three = three or _witness(t, *judged)
            judged = _judge(expected, 2 * width, protocols.run_classical_count, t)
            count = count or _witness(t, *judged)
        _check(report, f"classical_three_bit_n{n}", three, triples=4**n)
        _check(report, f"classical_count_n{n}", count, triples=4**n, cost=2 * width)
