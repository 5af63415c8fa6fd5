"""Exact three-qubit statevector simulation for one entangled triple.

Amplitudes are kept in the ring of integer pairs (p, q) standing for
p/2 + q/(2*sqrt(2)). The shared state and every state reachable from it by
per-party Hadamards stay inside this representation, so "amplitude is zero"
and "squared norm is one" are exact integer statements, not tolerances.

A TripleState is a bitcore.FrozenValue, so no command imports dataclasses. It
is checked, and its sampling table built, once: an inexact state raises
InvariantViolation, the package's one fault type, when built, never at a draw.
"""

from __future__ import annotations

from functools import lru_cache

from .bitcore import FrozenValue, InvariantViolation

PARTIES = ("A", "B", "C")
# Basis strings are read b_A b_B b_C, so party A owns the high bit.
_PARTY_BIT = {"A": 4, "B": 2, "C": 1}
BASIS = tuple(format(i, "03b") for i in range(8))
# The outcome at basis index i as bits (a, b, c), party A first.
_BITS = tuple((i >> 2, i >> 1 & 1, i & 1) for i in range(8))

Amp = tuple[int, int]


def _weight(amp: Amp) -> int:
    """8 |amp|^2 = 2p^2 + q^2: the outcome's probability in eighths."""
    p, q = amp
    if p and q:
        # |p/2 + q/(2*sqrt(2))|^2 has an irrational cross term.
        raise InvariantViolation(f"amplitude {amp} has no rational squared magnitude")
    return 2 * p * p + q * q


class TripleState(FrozenValue):
    """Exact 3-qubit state: 8 (p, q) amplitude pairs indexed by basis string.

    _slots is eight equally likely outcomes: i fills weights[i], in basis order.
    """

    __slots__ = ("amps", "_slots")

    def __init__(self, amps: tuple[Amp, ...]) -> None:
        if len(amps) != 8:
            raise ValueError(f"need 8 amplitudes, got {len(amps)}")
        # Stored as tuples, so a state built from lists is still a hashable value.
        object.__setattr__(self, "amps", tuple(map(tuple, amps)))
        # weights raises InvariantViolation on a mixed amplitude, so the squared norm
        # is exactly total/8. It is checked first, so no table holds more than 8 slots.
        weights = self.weights
        total = sum(weights)
        if total != 8:
            raise InvariantViolation(f"squared norm is {total}/8, not exactly 1")
        slots = tuple(bits for bits, w in zip(_BITS, weights) for _ in range(w))
        object.__setattr__(self, "_slots", slots)

    @property
    def weights(self) -> tuple[int, ...]:
        """The outcome law in eighths: basis outcome i has probability weights[i]/8."""
        return tuple(map(_weight, self.amps))


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
            raise InvariantViolation(f"Hadamard on {party} leaves the exact representation")
        new[i] = ((qa + qb) // 2, pa + pb)
        new[j] = ((qa - qb) // 2, pa - pb)
    return TripleState(tuple(new))


@lru_cache(maxsize=None)
def transformed_state(column: tuple[int, int, int]) -> TripleState:
    """State of one triple after each party with input bit 0 applies a Hadamard."""
    if len(column) != 3 or set(column) - {0, 1}:
        raise ValueError(f"a column is three 0/1 bits, got {column}")
    state = mermin_state()
    for party, bit in zip(PARTIES, column):
        if bit == 0:
            state = apply_hadamard(state, party)
    return state


def sample_outcome(state: TripleState, rng) -> tuple[int, int, int]:
    """Draw one joint outcome (a, b, c) with probability = squared amplitude magnitude.

    random() is k/2**53 with k < 2**53, so 8*u is exact and below 8, and its
    floor picks slot k exactly when k/8 <= u < (k+1)/8.
    """
    return state._slots[int(rng.random() * 8)]
