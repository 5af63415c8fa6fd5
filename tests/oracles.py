"""Reference code that only the tests call.

Each function here is an independent oracle for something the package
computes another way: explicit candidates against the search counts, a
per-class response count against the 2-coloring check, the two-party
reduction behind the imported inner-product fact, and a cross-protocol
agreement check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ghzcc.bitcore import BitString, PromiseTriple, f_ghz
from ghzcc.lowerbound import _SPEAKERS, _as_value, _fibers_constant, _ghz_game, f3, third_word
from ghzcc.protocols import run_classical_count, run_classical_three_bit, run_quantum_two_bit


def reduce_to_inner_product(t: PromiseTriple) -> tuple[BitString, BitString]:
    """Drop z from a length-3 promise triple; the game value becomes x.y.

    On the promise, z_i = 1 + x_i + y_i, so each AND column collapses to
    x_i AND y_i and the target equals the two-party inner product of (x, y).
    """
    if t.length != 3:
        raise ValueError(f"reduction is defined for length 3, got {t.length}")
    return t.x, t.y


def protocol_agreement(t: PromiseTriple, rng) -> dict[str, int]:
    """Run all three protocols on t and return their outputs plus the direct value."""
    return {
        "direct": f_ghz(t),
        "quantum_two_bit": run_quantum_two_bit(t, rng).output,
        "classical_three_bit": run_classical_three_bit(t).output,
        "classical_count": run_classical_count(t).output,
    }


def carol_response_count(y_class: Iterable[int]) -> int:
    """How many one-bit z-message functions serve a fixed broadcast class.

    Counts masks m over z such that, for every receiver input x, the game
    value is constant on both fibers of the class under z -> m-bit. This is
    the enumeration-side counterpart of the 2-coloring feasibility check.
    """
    class_mask = 0
    for y in y_class:
        class_mask |= 1 << _as_value(y)
    return _ghz_game().branch_counts((class_mask,) * 8, ("C",))[0]


@dataclass(frozen=True)
class ProtocolCandidate:
    """One explicit two-bit blackboard protocol, for spot checks against the search.

    first_fn and the second_fns are subset masks over the respective
    speaker's 3-bit word (bit v set means the speaker writes 1 on input v);
    the second speaker and function are chosen by the first bit's value.
    """

    first_speaker: str
    first_fn: int
    second_speakers: tuple[str, str]
    second_fns: tuple[int, int]

    def __post_init__(self) -> None:
        for sp in (self.first_speaker, *self.second_speakers):
            if sp not in _SPEAKERS:
                raise ValueError(f"unknown speaker {sp!r}")
        for fn in (self.first_fn, *self.second_fns):
            if not 0 <= fn <= 255:
                raise ValueError(f"message function mask {fn} outside 0..255")


def candidate_feasible(candidate: ProtocolCandidate) -> bool:
    """Direct fiber check for one explicit candidate (no bitmask machinery).

    Used as an independent oracle against the packed search counting.
    """

    def transcript(x: int, y: int) -> tuple[int, int]:
        words = {"A": x, "B": y, "C": third_word(x, y)}
        b1 = (candidate.first_fn >> words[candidate.first_speaker]) & 1
        sp2 = candidate.second_speakers[b1]
        return b1, (candidate.second_fns[b1] >> words[sp2]) & 1

    return _fibers_constant(8, f3, transcript)
