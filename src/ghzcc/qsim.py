"""Exact three-qubit statevector simulation for one entangled triple.

Amplitudes are kept in the ring of integer pairs (p, q) standing for
p/2 + q/(2*sqrt(2)). The shared state and every state reachable from it by
per-party Hadamards stay inside this representation, so "amplitude is zero"
and "squared norm is one" are exact integer statements, not tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .bitcore import LEGAL_COLUMNS, InvariantViolation

PARTIES = ("A", "B", "C")
# Basis strings are read b_A b_B b_C, so party A owns the high bit.
_PARTY_BIT = {"A": 4, "B": 2, "C": 1}
BASIS = tuple(format(i, "03b") for i in range(8))
# The outcome at basis index i as bits (a, b, c), party A first.
_BITS = tuple((i >> 2, i >> 1 & 1, i & 1) for i in range(8))

Amp = tuple[int, int]


class ExactnessError(ArithmeticError):
    """A state left the exact (p, q) representation; caller bug."""


def _weight(amp: Amp) -> int:
    """8 |amp|^2 = 2p^2 + q^2: the outcome's probability in eighths."""
    p, q = amp
    if p and q:
        # |p/2 + q/(2*sqrt(2))|^2 has an irrational cross term.
        raise ExactnessError(f"amplitude {amp} has no rational squared magnitude")
    return 2 * p * p + q * q


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

    @property
    def weights(self) -> tuple[int, ...]:
        """The outcome law in eighths: basis outcome i has probability weights[i]/8."""
        return tuple(map(_weight, self.amps))

    @cached_property
    def _slots(self) -> tuple[tuple[int, int, int], ...]:
        """Eight equally likely slots for sample_outcome, built on the first draw.

        Outcome i fills weights[i] slots, in basis order. The norm check above
        makes them total 8; a table of any other length is refused.
        """
        weights = self.weights
        slots = tuple(bits for bits, w in zip(_BITS, weights) for _ in range(w))
        if len(slots) != 8:
            raise InvariantViolation(f"outcome weights {weights} fill {len(slots)} slots, not 8")
        return slots


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


def sample_outcome(state: TripleState, rng) -> tuple[int, int, int]:
    """Draw one joint outcome (a, b, c) with probability = squared amplitude magnitude.

    random() is k/2**53 with k < 2**53, so 8*u is exact and below 8, and its
    floor picks slot k exactly when k/8 <= u < (k+1)/8.
    """
    return state._slots[int(rng.random() * 8)]
