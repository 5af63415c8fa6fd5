"""Exact three-qubit statevector simulation for one entangled triple.

Amplitudes are kept in the ring of integer pairs (p, q) standing for
p/2 + q/(2*sqrt(2)). The shared state and every state reachable from it by
per-party Hadamards stay inside this representation, so "amplitude is zero"
and "squared norm is one" are exact integer statements, not tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .bitcore import LEGAL_COLUMNS, ExactnessError, InvariantViolation

PARTIES = ("A", "B", "C")
# Basis strings are read b_A b_B b_C, so party A owns the high bit.
_PARTY_BIT = {"A": 4, "B": 2, "C": 1}
BASIS = tuple(format(i, "03b") for i in range(8))

Amp = tuple[int, int]


def _amp_sq(amp: Amp) -> Fraction:
    p, q = amp
    if p and q:
        # |p/2 + q/(2*sqrt(2))|^2 has an irrational cross term.
        raise ExactnessError(f"amplitude {amp} has no rational squared magnitude")
    return Fraction(p * p, 4) + Fraction(q * q, 8)


@dataclass(frozen=True)
class TripleState:
    """Exact 3-qubit state: 8 (p, q) amplitude pairs indexed by basis string."""

    amps: tuple[Amp, ...]

    def __post_init__(self) -> None:
        if len(self.amps) != 8:
            raise ValueError(f"need 8 amplitudes, got {len(self.amps)}")
        # Exact norm: sum p^2/4 + q^2/8 must be 1 and the sqrt(2) coefficient
        # sum p_i*q_i must vanish.
        cross = sum(p * q for p, q in self.amps)
        rational = sum(2 * p * p + q * q for p, q in self.amps)
        if cross != 0 or rational != 8:
            raise ExactnessError(
                f"squared norm is {rational}/8 + {cross}/(2*sqrt(2))*..., not exactly 1"
            )

    @cached_property
    def _sampling_table(self) -> tuple[tuple[float, Outcome], ...]:
        """Cumulative outcome probabilities, built once per state for sample_outcome."""
        # Exact probabilities here are dyadic (p^2/4 + q^2/8), so the float
        # cumulative sums are themselves exact.
        acc = Fraction(0)
        table = []
        for outcome in outcome_distribution(self):
            acc += outcome.probability
            table.append((float(acc), outcome))
        return tuple(table)

    @classmethod
    def basis_state(cls, b: int | str) -> "TripleState":
        i = _basis_index(b)
        return cls(tuple((2, 0) if j == i else (0, 0) for j in range(8)))

    def amplitude(self, b: int | str) -> Amp:
        return self.amps[_basis_index(b)]

    def probability(self, b: int | str) -> Fraction:
        return _amp_sq(self.amplitude(b))


def _basis_index(b: int | str) -> int:
    if isinstance(b, str):
        if b not in BASIS:
            raise ValueError(f"not a 3-bit basis string: {b!r}")
        return int(b, 2)
    if not 0 <= b <= 7:
        raise ValueError(f"basis index {b} outside 0..7")
    return b


@dataclass(frozen=True)
class Outcome:
    """One joint measurement: a bit per party plus its exact probability."""

    bits: tuple[int, int, int]
    probability: Fraction

    def __post_init__(self) -> None:
        if self.probability <= 0:
            raise ValueError(f"outcome with probability {self.probability}")

    @property
    def basis(self) -> str:
        return "".join(str(b) for b in self.bits)


def mermin_state() -> TripleState:
    """The shared entangled triple: (|001> + |010> + |100> - |111>) / 2."""
    amps = [(0, 0)] * 8
    amps[0b001] = (1, 0)
    amps[0b010] = (1, 0)
    amps[0b100] = (1, 0)
    amps[0b111] = (-1, 0)
    return TripleState(tuple(amps))


def apply_hadamard(state: TripleState, party: str) -> TripleState:
    """Hadamard on one party's qubit: |0> -> (|0>+|1>)/sqrt(2), |1> -> (|0>-|1>)/sqrt(2)."""
    try:
        mask = _PARTY_BIT[party]
    except KeyError:
        raise ValueError(f"party must be one of {PARTIES}, got {party!r}") from None
    new: list[Amp] = [(0, 0)] * 8
    for i in range(8):
        if i & mask:
            continue
        j = i | mask
        pa, qa = state.amps[i]
        pb, qb = state.amps[j]
        # (a +- b)/sqrt(2) in the (p, q) ring: p' = (q_a +- q_b)/2, q' = p_a +- p_b.
        if (qa + qb) & 1:
            raise ExactnessError(f"Hadamard on {party} leaves the exact representation")
        new[i] = ((qa + qb) // 2, pa + pb)
        new[j] = ((qa - qb) // 2, pa - pb)
    return TripleState(tuple(new))


@lru_cache(maxsize=None)
def transformed_state(column: tuple[int, int, int]) -> TripleState:
    """State of one triple after each party with input bit 0 applies a Hadamard."""
    state = mermin_state()
    for party, bit in zip(PARTIES, column):
        if bit not in (0, 1):
            raise ValueError(f"column bits must be 0/1, got {column}")
        if bit == 0:
            state = apply_hadamard(state, party)
    return state


def support(state: TripleState) -> set[str]:
    """Basis strings with exactly nonzero amplitude."""
    return {BASIS[i] for i, amp in enumerate(state.amps) if amp != (0, 0)}


def check_lemma1(column: tuple[int, int, int]) -> int:
    """Verify the joint-outcome parity law for one legal column.

    Every basis string that can be measured (nonzero amplitude) after the
    conditional Hadamards has bit-XOR equal to the AND of the column. Returns
    that AND; an InvariantViolation means the simulator itself is broken.
    """
    xa, xb, xc = column
    if column not in LEGAL_COLUMNS:
        raise ValueError(f"column {column} violates the promise")
    target = xa & xb & xc
    for b in support(transformed_state(column)):
        got = b.count("1") & 1
        if got != target:
            raise InvariantViolation(
                f"support string {b} has parity {got}, expected {target} for column {column}"
            )
    return target


def outcome_distribution(state: TripleState) -> tuple[Outcome, ...]:
    """All nonzero outcomes with exact probabilities, in basis order."""
    outcomes = []
    for i in range(8):
        prob = _amp_sq(state.amps[i])
        if prob > 0:
            bits = ((i >> 2) & 1, (i >> 1) & 1, i & 1)
            outcomes.append(Outcome(bits, prob))
    total = sum(o.probability for o in outcomes)
    if total != 1:
        raise InvariantViolation(f"outcome probabilities sum to {total}, not 1")
    return tuple(outcomes)


def sample_outcome(state: TripleState, rng) -> Outcome:
    """Draw one joint outcome with probability = squared amplitude magnitude."""
    u = rng.random()
    table = state._sampling_table
    for threshold, outcome in table:
        if u < threshold:
            return outcome
    return table[-1][1]
