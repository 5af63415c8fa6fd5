"""One-way protocol engine and the concrete protocols.

Every protocol is one round of single-bit sends to Alice ("A"), each bit a
function of its sender's own input only; Alice's output is a function of her
input plus those bits. A run records its inputs, schedule and bits, so
audit_run can re-derive both: the information-locality contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

# f_ghz is unused here, but perfbench/spans.py traces ghzcc.protocols.f_ghz.
from .bitcore import (
    BitString, InvariantViolation, PromiseTriple, _check_equal_lengths, f_ghz, f_inner_product
)
from .qsim import sample_outcome, transformed_state


@dataclass(frozen=True)
class SendStep:
    """One bit to Alice, computed by fn from the sender's own input."""

    sender: str
    fn: Callable[[Any], int]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one protocol run: bits[i] is the bit steps[i] sent to Alice."""

    output: int
    bits: tuple[int, ...]
    inputs: Mapping[str, Any]
    steps: tuple[SendStep, ...]
    output_fn: Callable[[Any, tuple[int, ...]], int] | None

    @property
    def cost(self) -> int:
        return len(self.bits)

    @property
    def transcript(self) -> str:
        """Every bit as "S->A:b"; a bit no step scheduled shows "?" as its sender."""
        scheduled = [f"{step.sender}->A:{bit}" for step, bit in zip(self.steps, self.bits)]
        return " ".join(scheduled + [f"?->A:{bit}" for bit in self.bits[len(self.steps):]])


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    cost: int
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class CountSummary:
    """Per-party zero counts; 2k of those zeros come from the k AND-zero columns."""

    r_a: int
    r_b: int
    r_c: int
    k: int

    def __post_init__(self) -> None:
        _check_zero_counts(self.r_a, self.r_b, self.r_c, self.k)


def _check_zero_counts(r_a: int, r_b: int, r_c: int, k: int) -> None:
    if r_a + r_b + r_c != 2 * k:
        raise InvariantViolation(f"zero counts {r_a}+{r_b}+{r_c} != 2*{k}")


def _zero_counts(t: PromiseTriple) -> tuple[int, int, int, int]:
    """(r_A, r_B, r_C, k): each party's zeros, and k = the number of AND-zero columns."""
    k = t.length - (t.x.bits & t.y.bits & t.z.bits).bit_count()
    return t.x.count_zeros(), t.y.count_zeros(), t.z.count_zeros(), k


def count_summary(t: PromiseTriple) -> CountSummary:
    return CountSummary(*_zero_counts(t))


def run_protocol(
    inputs: Mapping[str, Any],
    steps: Sequence[SendStep],
    output_fn: Callable[[Any, tuple[int, ...]], int],
) -> RunResult:
    bits = []
    for step in steps:
        bit = step.fn(inputs[step.sender])
        if bit not in (0, 1):
            raise InvariantViolation(f"{step.sender} produced a non-bit {bit!r}")
        bits.append(bit)
    bits = tuple(bits)
    output = output_fn(inputs["A"], bits)
    if output not in (0, 1):
        raise InvariantViolation(f"A produced a non-bit output {output!r}")
    return RunResult(output, bits, dict(inputs), tuple(steps), output_fn)


def audit_run(result: RunResult) -> AuditReport:
    """Re-derive every sent bit and the output from local views only.

    A mismatch names the offending record, or the output. This loop stays
    apart from run_protocol so that a fault in the engine cannot replay
    itself into a pass.
    """
    bits = result.bits
    if result.output_fn is None:
        return AuditReport(False, len(bits), ("run carries no replayable steps",))
    failures: list[str] = []
    if len(bits) != len(result.steps):
        failures.append(f"{len(bits)} records for {len(result.steps)} scheduled steps")
    for i, (step, bit) in enumerate(zip(result.steps, bits)):
        try:
            expected = step.fn(result.inputs[step.sender])
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
    return AuditReport(not failures, len(bits), tuple(failures))


def _xor(bits: Sequence[int]) -> int:
    """Parity of a sequence of 0/1 bits."""
    return sum(bits) & 1


def _send_measured_parity(local):
    return _xor(local[1])


def _quantum_output(local, received):
    return _xor(local[1]) ^ _xor(received)


_QUANTUM_STEPS = (
    SendStep("B", _send_measured_parity),
    SendStep("C", _send_measured_parity),
)


def run_quantum_two_bit(t: PromiseTriple, rng) -> RunResult:
    """Entanglement-assisted protocol: two bits, both to Alice.

    Each party measures its half of every shared triple (after a Hadamard on
    the columns where its input bit is 0) and XORs its outcomes into a single
    bit. The joint outcome of column i is drawn once from the exact
    distribution and its three bits are dealt to the three parties, which is
    the measurement of an entangled triple; the dealt bits then count as part
    of each party's local input.
    """
    a, b, c = zip(*[sample_outcome(transformed_state(col), rng).bits for col in t.columns()])
    inputs = {"A": (t.x, a), "B": (t.y, b), "C": (t.z, c)}
    return run_protocol(inputs, _QUANTUM_STEPS, _quantum_output)


def _count_bit(pos: int):
    def fn(word):
        return (word.count_zeros() >> pos) & 1

    return fn


@lru_cache(maxsize=None)
def _count_schedule(width: int, carol_drops_low: bool = False) -> tuple:
    """Send steps and Alice's output for zero counts sent as width-bit big-endian fields.

    Every bit reads only its sender's zero count. With carol_drops_low Carol
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

    steps = tuple(SendStep("B", _count_bit(pos)) for pos in range(width - 1, -1, -1))
    steps += tuple(
        SendStep("C", _count_bit(pos)) for pos in range(width - 1, carol_drops_low - 1, -1)
    )
    return steps, alice_output


def _run_counts(t: PromiseTriple, schedule: tuple) -> RunResult:
    # count_summary's check, without building a CountSummary on every run.
    _check_zero_counts(*_zero_counts(t))
    steps, alice_output = schedule
    return run_protocol({"A": t.x, "B": t.y, "C": t.z}, steps, alice_output)


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


def _parity_output(word, received):
    return word.parity() ^ received[0]


_PARITY_STEPS = (SendStep("B", BitString.parity),)


def run_parity_one_bit(x: BitString, y: BitString) -> RunResult:
    """Two-party parity: Bob's single bit is the XOR of his word."""
    _check_equal_lengths(x, y)
    return run_protocol({"A": x, "B": y}, _PARITY_STEPS, _parity_output)


def _word_bit(i: int):
    def fn(word):
        return word.bit(i)

    return fn


@lru_cache(maxsize=None)
def _word_steps(length: int) -> tuple[SendStep, ...]:
    """Bob sends his word bit by bit, position 1 first."""
    return tuple(SendStep("B", _word_bit(i)) for i in range(1, length + 1))


def _ip_output(word, received):
    other = sum(bit << i for i, bit in enumerate(received))
    return f_inner_product(word, BitString(len(received), other))


def run_ip_trivial(x: BitString, y: BitString) -> RunResult:
    """Two-party inner product the blunt way: Bob sends his whole word."""
    _check_equal_lengths(x, y)
    return run_protocol({"A": x, "B": y}, _word_steps(y.length), _ip_output)
