"""One-way protocol engine and the concrete protocols.

Every protocol is one round of single-bit sends to Alice ("A"). A protocol
names one view, an int computed from a party's own input, and each send step
is one bit position of its sender's view; Alice's output is a function of her
input plus those bits. A run records its inputs, view, schedule and bits, so
audit_run can re-derive both: the information-locality contract.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Mapping, NamedTuple, Sequence

# f_ghz is unused here, but perfbench/spans.py traces ghzcc.protocols.f_ghz.
from .bitcore import LEGAL_COLUMNS, BitString, InvariantViolation, PromiseTriple, f_ghz
from .qsim import sample_outcome, transformed_state


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

