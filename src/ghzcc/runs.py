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

# A law of the package failing at run time: the check it hits fails and names it.
_FAULTS = (bitcore.InvariantViolation, qsim.ExactnessError)


def _attempt(compute, *args) -> tuple[Any, dict]:
    """compute(*args) and {}, or None and an "error" naming the fault that stopped it."""
    try:
        return compute(*args), {}
    except _FAULTS as exc:
        return None, {"error": f"{type(exc).__name__}: {exc}"}


def _judge(t, expected: int, cost: int, run, *args) -> tuple[Any, dict, tuple, dict | None]:
    """Run the protocol once and audit it once.

    Returns the result (None if a fault stopped it), _attempt's error, its
    audit failures (a stopped run's one failure names the fault), and a
    witness naming t and why, or None if the run outputs `expected` at `cost`
    bits and passes audit_run.
    """
    result, error = _attempt(run, *args)
    failures = (f"stopped by {error['error']}",) if error else protocols.audit_run(result).failures
    if error:
        reason = error["error"]
    elif result.output != expected:
        reason = f"output {result.output}, expected {expected}"
    elif result.cost != cost:
        reason = f"cost {result.cost}, expected {cost}"
    elif failures:
        reason = "audit: " + "; ".join(failures)
    else:
        return result, error, failures, None
    return result, error, failures, {"triple": str(t), "reason": reason,
                                     "transcript": result.transcript if result else None}


def _check(report: Report, name: str, witness: dict | None, **detail: Any) -> None:
    """A check over many runs: it fails with the first failing run as witness."""
    if witness:
        detail["witness"] = witness
    report.check(name, witness is None, **detail)


def demo(report: Report, n: int, seed: int) -> None:
    """Random promise triple through all three protocols, transcripts shown."""
    rng = random.Random(seed)
    t = bitcore.random_promise_triple(n, rng)
    direct = bitcore.f_ghz(t)
    report.note("input", x=str(t.x), y=str(t.y), z=str(t.z), direct_value=direct)

    width = n.bit_length()
    runs = {
        "quantum_two_bit": _judge(t, direct, 2, protocols.run_quantum_two_bit, t, rng),
        "classical_three_bit": _judge(t, direct, 3, protocols.run_classical_three_bit, t),
        "classical_count": _judge(t, direct, 2 * width, protocols.run_classical_count, t),
    }
    failures = []
    for check, (name, (run, error, audit, _)) in zip(("quantum", "three_bit", "count"),
                                                     runs.items()):
        failures += [f"{name}: {failure}" for failure in audit]
        # A stopped run has no output and no cost.
        if run is None:
            report.note("run", protocol=name, **error)
            report.check(f"{check}_matches_direct", False, triple=str(t), **error)
            continue
        report.note("run", protocol=name, output=run.output, cost=run.cost,
                    transcript=run.transcript, audit="fail" if audit else "pass")
        report.check(f"{check}_matches_direct", run.output == direct)
    quantum, three, count = (run.cost if run else None for run, _, _, _ in runs.values())
    report.check("quantum_cost_two", quantum == 2, cost=quantum)
    report.check("three_bit_cost_three", three == 3, cost=three)
    report.check("count_cost_formula", count == 2 * width, cost=count, width=width)
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
                fault = _judge(t, expected, 2, protocols.run_quantum_two_bit, t, rng)[3]
                witness = witness or fault
        _check(report, f"quantum_exhaustive_n{n}", witness, triples=4**n, runs=2 * 4**n)


def verify_classical(report: Report, n_max: int) -> None:
    for n in range(1, n_max + 1):
        width = n.bit_length()
        three = count = None
        for t in bitcore.enumerate_promise(n):
            expected = bitcore.f_ghz(t)
            fault = _judge(t, expected, 3, protocols.run_classical_three_bit, t)[3]
            three = three or fault
            fault = _judge(t, expected, 2 * width, protocols.run_classical_count, t)[3]
            count = count or fault
        _check(report, f"classical_three_bit_n{n}", three, triples=4**n)
        _check(report, f"classical_count_n{n}", count, triples=4**n, cost=2 * width)
