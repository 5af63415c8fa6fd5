"""Reference code that only the tests call.

Each function here is an independent oracle for something the package
computes another way: explicit candidates against the search counts, a
per-class response count against the 2-coloring check, the two-party
reduction behind the imported inner-product fact, a cross-protocol
agreement check, the quantum protocol's full output support, the string
form of the bit-position permutation, and the machine renderer that walks
every value before encoding each record with a new encoder.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, Iterable

from ghzcc.bitcore import BitString, PromiseTriple, f_ghz
from ghzcc.cli import Report
from ghzcc.lowerbound import (
    _SPEAKERS, _as_value, _fibers_constant, _ghz_game, _s, f3, third_word
)
from ghzcc.protocols import run_classical_count, run_classical_three_bit, run_quantum_two_bit
from ghzcc.qsim import outcome_distribution, transformed_state


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


def permute_val(v: int, perm: tuple[int, int, int]) -> int:
    """Word v with its three binary digits reordered: digit i of the result is digit perm[i]."""
    s = _s(v)
    return int("".join(s[perm[i]] for i in range(3)), 2)


def permute_set(values: Iterable[int], perm: tuple[int, int, int]) -> frozenset[int]:
    return frozenset(permute_val(v, perm) for v in values)


_SCALARS = (str, int, float, bool, type(None))


def jsonable(value: Any) -> Any:
    """value with str keys, sets as lists sorted by str, and unknown objects as str."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {
            str(k): v if isinstance(v, _SCALARS) else jsonable(v) for k, v in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in items]
    return str(value)


def render_machine_reference(report: Report) -> str:
    """The machine rendering, each record walked by jsonable and encoded by a new encoder."""
    encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode
    records = [{"type": "header", "schema": report.schema, "command": report.command,
                "params": jsonable(report.params)}]
    records += ({"type": "info", **jsonable(entry)} for entry in report.info)
    records += ({"type": "check", **jsonable(entry)} for entry in report.checks)
    failed = sum(1 for c in report.checks if not c["passed"])
    records.append({"type": "summary", "passed": report.passed,
                    "checks": len(report.checks), "failed": failed})
    timing = json.dumps({"type": "timing", "elapsed_s": round(report.elapsed_s, 6)})
    return "\n".join([*map(encode, records), timing]) + "\n"
