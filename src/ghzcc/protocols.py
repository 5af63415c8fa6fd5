"""One-way protocol engine and the concrete protocols.

Every protocol is one round of single-bit sends to Alice ("A"), each bit a
function of its sender's own input only; Alice's output is a function of her
input plus those bits. A run records its inputs, schedule and bits, so
audit_run can re-derive both: the information-locality contract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

# f_ghz is unused here, but perfbench/spans.py traces ghzcc.protocols.f_ghz.
from .bitcore import BitString, InvariantViolation, PromiseTriple, f_ghz, f_inner_product
from .qsim import outcome_distribution, sample_outcome, transformed_state


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
        if self.r_a + self.r_b + self.r_c != 2 * self.k:
            raise InvariantViolation(
                f"zero counts {self.r_a}+{self.r_b}+{self.r_c} != 2*{self.k}"
            )


def count_summary(t: PromiseTriple) -> CountSummary:
    k = t.length - (t.x.bits & t.y.bits & t.z.bits).bit_count()
    return CountSummary(t.x.count_zeros(), t.y.count_zeros(), t.z.count_zeros(), k)


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


def _high_count_bit(word):
    return (word.count_zeros() >> 1) & 1


def _low_count_bit(word):
    return word.count_zeros() & 1


def _three_bit_output(word, received):
    n = word.length
    r_a = word.count_zeros()
    rb_mod4 = (received[0] << 1) | received[1]
    rc_low = (r_a + rb_mod4) & 1
    rc_mod4 = (received[2] << 1) | rc_low
    doubled_k_mod4 = (r_a + rb_mod4 + rc_mod4) & 3
    if doubled_k_mod4 & 1:
        raise InvariantViolation("zero-count total must be even on the promise")
    k_parity = doubled_k_mod4 >> 1
    return (n - k_parity) & 1


_THREE_BIT_STEPS = (
    SendStep("B", _high_count_bit),
    SendStep("B", _low_count_bit),
    SendStep("C", _high_count_bit),
)


def run_classical_three_bit(t: PromiseTriple) -> RunResult:
    """Three-bit classical protocol.

    Bob sends his zero count mod 4 (high bit then low bit). Carol sends only
    the high bit of hers: the low bit is forced, because the three zero
    counts sum to an even number, so Alice recovers it as (r_A + r_B) mod 2.
    From the sum mod 4 Alice gets the parity of the AND-zero column count k
    and outputs (n - k) mod 2.
    """
    count_summary(t)  # checks r_A + r_B + r_C = 2k
    inputs = {"A": t.x, "B": t.y, "C": t.z}
    return run_protocol(inputs, _THREE_BIT_STEPS, _three_bit_output)


@lru_cache(maxsize=None)
def _count_schedule(width: int) -> tuple:
    """Send steps and Alice's output for counts sent as width-bit big-endian fields."""

    def count_bit(pos: int):
        def fn(word):
            return (word.count_zeros() >> pos) & 1

        return fn

    def alice_output(word, received):
        r_b = 0
        r_c = 0
        for bit in received[:width]:
            r_b = (r_b << 1) | bit
        for bit in received[width:]:
            r_c = (r_c << 1) | bit
        total = word.count_zeros() + r_b + r_c
        if total % 2:
            raise InvariantViolation(f"zero-count total {total} is odd")
        k = total // 2
        return (word.length - k) & 1

    steps = tuple(
        SendStep(party, count_bit(pos))
        for party in ("B", "C")
        for pos in range(width - 1, -1, -1)
    )
    return steps, alice_output


def run_classical_count(t: PromiseTriple) -> RunResult:
    """Full-count protocol: Bob and Carol each send their zero count.

    Counts go as fixed-width big-endian fields of ceil(log2(n+1)) bits, so
    the cost is 2*ceil(log2(n+1)). Alice reconstructs k exactly and outputs
    (n - k) mod 2.
    """
    count_summary(t)  # checks r_A + r_B + r_C = 2k
    steps, alice_output = _count_schedule(t.length.bit_length())
    inputs = {"A": t.x, "B": t.y, "C": t.z}
    return run_protocol(inputs, steps, alice_output)


def run_parity_one_bit(x: BitString, y: BitString) -> RunResult:
    """Two-party parity: Bob's single bit is the XOR of his word."""
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} vs {y.length}")
    inputs = {"A": x, "B": y}

    def bob_parity(word):
        return word.parity()

    def alice_output(word, received):
        return word.parity() ^ received[0]

    return run_protocol(inputs, (SendStep("B", bob_parity),), alice_output)


def run_ip_trivial(x: BitString, y: BitString) -> RunResult:
    """Two-party inner product the blunt way: Bob sends his whole word."""
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} vs {y.length}")
    inputs = {"A": x, "B": y}

    def word_bit(i: int):
        def fn(word):
            return word.bit(i)

        return fn

    def alice_output(word, received):
        other = BitString.from_str("".join(str(b) for b in received))
        return f_inner_product(word, other)

    steps = tuple(SendStep("B", word_bit(i)) for i in range(1, y.length + 1))
    return run_protocol(inputs, steps, alice_output)


def quantum_output_support(t: PromiseTriple) -> set[int]:
    """Every output value the quantum protocol can produce on t.

    Enumerates the full product of per-column outcome supports instead of
    sampling; the set must be the singleton {f_ghz(t)}. Exponential in n,
    intended for small n.
    """
    per_column = [
        [outcome.bits for outcome in outcome_distribution(transformed_state(col))]
        for col in t.columns()
    ]
    # s_A ^ s_B ^ s_C is the parity of every bit of the joint outcome.
    return {sum(map(sum, combo)) & 1 for combo in itertools.product(*per_column)}

