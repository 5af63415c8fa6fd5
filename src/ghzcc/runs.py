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


def _fault_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _judge(t, expected: int, cost: int, run, *args) -> tuple[Any, tuple[str, ...], dict | None]:
    """Run the protocol once and audit it once.

    Returns the result (or the fault that stopped it), its audit failures (a
    stopped run's one failure names the fault), and a witness naming t and
    why, or None if the run outputs `expected` at `cost` bits and passes
    audit_run.
    """
    try:
        result = run(*args)
    except _FAULTS as exc:
        reason = _fault_text(exc)
        return exc, (f"stopped by {reason}",), {"triple": str(t), "transcript": None,
                                                "reason": reason}
    failures = protocols.audit_run(result).failures
    if result.output != expected:
        reason = f"output {result.output}, expected {expected}"
    elif result.cost != cost:
        reason = f"cost {result.cost}, expected {cost}"
    elif failures:
        reason = "audit: " + "; ".join(failures)
    else:
        return result, failures, None
    return result, failures, {"triple": str(t), "transcript": result.transcript,
                              "reason": reason}


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
    for check, (name, (run, audit, _)) in zip(("quantum", "three_bit", "count"), runs.items()):
        failures += [f"{name}: {failure}" for failure in audit]
        # A stopped run is the exception itself: it has no output and no cost.
        if isinstance(run, Exception):
            report.note("run", protocol=name, error=_fault_text(run))
            report.check(f"{check}_matches_direct", False, triple=str(t), error=_fault_text(run))
            continue
        report.note("run", protocol=name, output=run.output, cost=run.cost,
                    transcript=run.transcript, audit="fail" if audit else "pass")
        report.check(f"{check}_matches_direct", run.output == direct)
    quantum, three, count = (getattr(run, "cost", None) for run, _, _ in runs.values())
    report.check("quantum_cost_two", quantum == 2, cost=quantum)
    report.check("three_bit_cost_three", three == 3, cost=three)
    report.check("count_cost_formula", count == 2 * width, cost=count, width=width)
    _check(report, "audits_pass", failures or None)


def verify_lemma1(report: Report) -> None:
    for column in bitcore.LEGAL_COLUMNS:
        label = "".join(str(b) for b in column)
        try:
            product = qsim.check_lemma1(column)
            support, error = sorted(qsim.support(qsim.transformed_state(column))), {}
        except _FAULTS as exc:
            product, support, error = -1, [], {"error": _fault_text(exc)}
        report.check(f"lemma1_column_{label}", not error, product=product, support=support,
                     **error)
    # The 001 column must transform to the four-term state with support
    # {000, 011, 101, 110} and a minus sign only on 110.
    expected = {0b000: (1, 0), 0b011: (1, 0), 0b101: (1, 0), 0b110: (-1, 0)}
    try:
        state = qsim.transformed_state((0, 0, 1))
        exact, error = all(state.amps[i] == expected.get(i, (0, 0)) for i in range(8)), {}
    except _FAULTS as exc:
        exact, error = False, {"error": _fault_text(exc)}
    report.check("lemma1_001_exact_amplitudes", exact, **error)
    try:
        state = qsim.mermin_state()
        involution, error = all(
            qsim.apply_hadamard(qsim.apply_hadamard(state, p), p) == state for p in qsim.PARTIES
        ), {}
    except _FAULTS as exc:
        involution, error = False, {"error": _fault_text(exc)}
    report.check("hadamard_involution", involution, **error)


def verify_quantum(report: Report, n_max: int, seed: int) -> None:
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        witness = None
        for t in bitcore.enumerate_promise(n):
            expected = bitcore.f_ghz(t)
            for _ in range(2):
                fault = _judge(t, expected, 2, protocols.run_quantum_two_bit, t, rng)[2]
                witness = witness or fault
        _check(report, f"quantum_exhaustive_n{n}", witness, triples=4**n, runs=2 * 4**n)


def verify_classical(report: Report, n_max: int) -> None:
    for n in range(1, n_max + 1):
        width = n.bit_length()
        three = count = None
        for t in bitcore.enumerate_promise(n):
            expected = bitcore.f_ghz(t)
            fault = _judge(t, expected, 3, protocols.run_classical_three_bit, t)[2]
            three = three or fault
            fault = _judge(t, expected, 2 * width, protocols.run_classical_count, t)[2]
            count = count or fault
        _check(report, f"classical_three_bit_n{n}", three, triples=4**n)
        _check(report, f"classical_count_n{n}", count, triples=4**n, cost=2 * width)
