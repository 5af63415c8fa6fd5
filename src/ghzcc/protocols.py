"""One-way protocol engine, the concrete protocols, and the run checker.

Every protocol is one round of single-bit sends to Alice ("A"). A protocol
names one view, an int computed from a party's own input, and each send step
is one bit position of its sender's view; Alice's output is a function of her
input plus those bits. A run records its inputs, view, schedule and bits, so
audit_run can re-derive both: the information-locality contract.

The run checker judges each protocol run against the direct value: `demo`
runs all three protocols once on a random triple; `verify_lemma1`,
`verify_quantum` and `verify_classical` are verify's exact-law and exhaustive
sections. Each fills a `cli.Report`. The first demo or verify in a process
loads this module, and with it `qsim`; search, replay and verify's cases
section never do. This module never loads `lowerbound`.

A wrapper set on a module attribute sees each call: calls within this module
read its globals, and bitcore.random_promise_triple, bitcore.enumerate_promise,
the verify sweeps' bitcore.f_ghz and verify_lemma1's qsim.transformed_state are
read from their own modules, where perfbench and the tests wrap them.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Sequence

from . import bitcore, qsim
from .bitcore import LEGAL_COLUMNS, BitString, InvariantViolation, PromiseTriple, f_ghz
from .qsim import sample_outcome, transformed_state

if TYPE_CHECKING:
    from .cli import Report


class SendStep(NamedTuple):
    """One bit to Alice: bit pos of the sender's view of its own input."""

    sender: str
    pos: int


class RunResult(NamedTuple):
    """Outcome of one protocol run: bits[i] is the bit steps[i] sent to Alice."""

    output: int
    bits: tuple[int, ...]
    inputs: Mapping[str, Any]
    view: Callable[[Any], int]
    steps: tuple[SendStep, ...]
    output_fn: Callable[[Any, tuple[int, ...]], int]

    @property
    def cost(self) -> int:
        return len(self.bits)

    @property
    def transcript(self) -> str:
        """Every bit as "S->A:b"; a bit no step scheduled shows "?" as its sender."""
        return _transcript_format(self.steps, len(self.bits)).format(*self.bits)


@lru_cache(maxsize=None)
def _transcript_format(steps: tuple[SendStep, ...], count: int) -> str:
    senders = [step.sender for step in steps[:count]] + ["?"] * (count - len(steps))
    return " ".join(f"{sender}->A:{{}}" for sender in senders)


class AuditReport(NamedTuple):
    passed: bool
    failures: tuple[str, ...] = ()


def run_protocol(
    inputs: Mapping[str, Any],
    view: Callable[[Any], int],
    steps: Sequence[SendStep],
    output_fn: Callable[[Any, tuple[int, ...]], int],
) -> RunResult:
    bits = tuple([view(inputs[step.sender]) >> step.pos & 1 for step in steps])
    output = output_fn(inputs["A"], bits)
    if output not in (0, 1):
        raise InvariantViolation(f"A produced a non-bit output {output!r}")
    return RunResult(output, bits, dict(inputs), view, tuple(steps), output_fn)


def audit_run(result: RunResult) -> AuditReport:
    """Re-derive every sent bit and the output from local views only.

    A mismatch names the offending record, or the output. This loop stays
    apart from run_protocol so that a fault in the engine cannot replay
    itself into a pass.
    """
    bits = result.bits
    failures: list[str] = []
    if len(bits) != len(result.steps):
        failures.append(f"{len(bits)} records for {len(result.steps)} scheduled steps")
    for i, (step, bit) in enumerate(zip(result.steps, bits)):
        try:
            expected = result.view(result.inputs[step.sender]) >> step.pos & 1
        except Exception as exc:
            failures.append(f"record {i}: replay from {step.sender}'s view failed: {exc!r}")
            expected = None
        if expected != bit:
            failures.append(
                f"record {i}: bit {bit} is not reproducible from "
                f"{step.sender}'s local view (expected {expected})"
            )
    try:
        expected_out = result.output_fn(result.inputs["A"], bits)
    except Exception as exc:
        expected_out = None
        failures.append(f"output replay from A's view failed: {exc!r}")
    if expected_out != result.output:
        failures.append(
            f"output {result.output} is not reproducible from "
            f"A's local view (expected {expected_out})"
        )
    return AuditReport(not failures, tuple(failures))


def _outcome_parity(local) -> int:
    """The quantum view: the parity of a party's dealt outcome bits."""
    return sum(local[1]) & 1


def _quantum_output(local, received):
    return (sum(local[1]) + sum(received)) & 1


_QUANTUM_STEPS = (SendStep("B", 0), SendStep("C", 0))


def deal_quantum(t: PromiseTriple, rng) -> tuple[tuple[int, ...], ...]:
    """Measure the shared triples: the outcome tuples (a, b, c) dealt to A, B and C.

    Each party applies a Hadamard where its input bit is 0. Column i's joint outcome is
    one sample_outcome draw from its exact law, in column order; sample_outcome is read
    from the module on every call, where perfbench/spans.py wraps it.
    """
    # The four column states, indexed like LEGAL_COLUMNS by the code (x_i << 1) | y_i.
    states = [transformed_state(column) for column in LEGAL_COLUMNS]
    x, y = t.x.bits, t.y.bits
    # Unpacked: tuple(zip(...)) would size its result for ten items, then shrink it.
    a, b, c = zip(*[sample_outcome(states[(x >> i & 1) << 1 | y >> i & 1], rng)
                    for i in range(t.length)])
    return a, b, c


@lru_cache(maxsize=None)
def _dealable() -> frozenset:
    """Each (x_i, y_i, a, b, c) a measurement can deal: (a, b, c) in the slot table of column
    (x_i, y_i)'s law, x_i and y_i as str(word) prints them. Built on a process's first run.
    """
    return frozenset((str(x), str(y), *outcome) for x, y, z in LEGAL_COLUMNS
                     for outcome in transformed_state((x, y, z))._slots)


def run_quantum_two_bit(t: PromiseTriple, dealing) -> RunResult:
    """Entanglement-assisted protocol on a dealing: two bits, both to Alice.

    Bob and Carol send the parity of their dealt outcomes, which count as local input. A
    column that no measurement can deal raises InvariantViolation, and a dealing of another
    length ValueError. run_protocol is read from the module, where perfbench wraps it.
    """
    a, b, c = dealing
    if not _dealable().issuperset(zip(str(t.x), str(t.y), a, b, c, strict=True)):
        columns = list(zip(str(t.x), str(t.y), a, b, c))
        i = next(i for i, column in enumerate(columns) if column not in _dealable())
        raise InvariantViolation(f"column {i + 1} cannot deal {columns[i][2:]}")
    inputs = {"A": (t.x, a), "B": (t.y, b), "C": (t.z, c)}
    return run_protocol(inputs, _outcome_parity, _QUANTUM_STEPS, _quantum_output)


@lru_cache(maxsize=None)
def _count_schedule(width: int, carol_drops_low: bool = False) -> tuple:
    """Send steps and Alice's output for zero counts sent as width-bit big-endian fields.

    Each step is one bit of its sender's zero count. With carol_drops_low Carol
    omits her low bit, which r_A + r_B + r_C = 2k forces to (r_A + r_B) mod 2.
    Exact or mod 2**width (width >= 2), half the total has k's parity, and
    Alice outputs (n - k) mod 2.
    """

    def alice_output(word, received):
        r_a = word.count_zeros()
        r_b = r_c = 0
        for bit in received[:width]:
            r_b = (r_b << 1) | bit
        for bit in received[width:]:
            r_c = (r_c << 1) | bit
        if carol_drops_low:
            r_c = (r_c << 1) | ((r_a + r_b) & 1)
        total = r_a + r_b + r_c
        if total % 2:
            raise InvariantViolation(f"zero-count total {total} is odd")
        return (word.length - total // 2) & 1

    steps = tuple(SendStep("B", pos) for pos in range(width - 1, -1, -1))
    steps += tuple(SendStep("C", pos) for pos in range(width - 1, carol_drops_low - 1, -1))
    return steps, alice_output


def _run_counts(t: PromiseTriple, schedule: tuple) -> RunResult:
    # r_A + r_B + r_C = 2k: 2k of the zeros come from the k AND-zero columns.
    r_a, r_b, r_c = t.x.count_zeros(), t.y.count_zeros(), t.z.count_zeros()
    k = t.length - (t.x.bits & t.y.bits & t.z.bits).bit_count()
    if r_a + r_b + r_c != 2 * k:
        raise InvariantViolation(f"zero counts {r_a}+{r_b}+{r_c} != 2*{k}")
    steps, alice_output = schedule
    inputs = {"A": t.x, "B": t.y, "C": t.z}
    return run_protocol(inputs, BitString.count_zeros, steps, alice_output)


def run_classical_three_bit(t: PromiseTriple) -> RunResult:
    """Three-bit classical protocol: the zero counts mod 4, Carol's forced low bit dropped.

    Bob sends r_B mod 4 and Carol the high bit of r_C mod 4; from the sum
    mod 4 Alice gets the parity of the AND-zero column count k.
    """
    return _run_counts(t, _count_schedule(2, True))


def run_classical_count(t: PromiseTriple) -> RunResult:
    """Full-count protocol: Bob and Carol each send their exact zero count.

    The fields are ceil(log2(n+1)) bits wide, so the cost is 2*ceil(log2(n+1)).
    """
    return _run_counts(t, _count_schedule(t.length.bit_length()))


def _attempt(compute, *args) -> tuple[Any, dict]:
    """compute(*args) and {}, or None and an "error" naming the fault that stopped it."""
    try:
        return compute(*args), {}
    except InvariantViolation as exc:  # a package law failed: the check names it
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
    if failures := audit_run(result).failures:
        verdict["audit"] = failures
    return result, verdict


def _quantum(t, rng):
    """Deal the shared triples, then run the quantum protocol on that dealing."""
    return run_quantum_two_bit(t, deal_quantum(t, rng))


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
    direct = f_ghz(t)
    report.note("input", x=str(t.x), y=str(t.y), z=str(t.z), direct_value=direct)

    width = n.bit_length()
    judged = (
        ("quantum", "quantum_two_bit", "quantum_cost_two", {},
         _judge(direct, 2, _quantum, t, rng)),
        ("three_bit", "classical_three_bit", "three_bit_cost_three", {},
         _judge(direct, 3, run_classical_three_bit, t)),
        ("count", "classical_count", "count_cost_formula", {"width": width},
         _judge(direct, 2 * width, run_classical_count, t)),
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
    for column in LEGAL_COLUMNS:
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


# The sweeps read bitcore.f_ghz: perfbench/spans.py's traced CLI process imports this
# module after it wraps bitcore.f_ghz, so this module's f_ghz would count each call twice.
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
            judged = _judge(expected, 3, run_classical_three_bit, t)
            three = three or _witness(t, *judged)
            judged = _judge(expected, 2 * width, run_classical_count, t)
            count = count or _witness(t, *judged)
        _check(report, f"classical_three_bit_n{n}", three, triples=4**n)
        _check(report, f"classical_count_n{n}", count, triples=4**n, cost=2 * width)
