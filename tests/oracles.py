"""Reference code that only the tests call.

Each function here is an independent oracle for something the package
computes another way: explicit candidates against the search counts, a
per-class response count against the 2-coloring check, a two-bit count
that evaluates both branches of every first message apart, the two-party
reduction behind the imported inner-product fact, a cross-protocol
agreement check, each 3-qubit state's exact outcome law and its support
read from its amplitudes against qsim's integer weights, the quantum
protocol's full output support, an exact simulator of the whole 3n-qubit
state the parties share, the float threshold scan that the eight-slot
sampler is checked against, the string form of the bit-position permutation
and a partition coverage check built on it, the forced-apart pairs of an
elimination case recomputed from strings with every 2-coloring of them
tried, and the machine renderer that walks every value before encoding
each record with a new encoder.

It also holds code that no command runs: a triple's column list and
per-party zero counts, and the two-party parity and inner-product
functions with their one-way protocols (one bit, and Bob's whole word),
which the row tables and the engine are checked against.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, NamedTuple

from ghzcc.bitcore import BitString, PromiseTriple, f_ghz
from ghzcc.cli import Report
from ghzcc.lowerbound import CASES, _ghz_game
from ghzcc.protocols import (
    RunResult, SendStep, deal_quantum, run_classical_count, run_classical_three_bit,
    run_protocol, run_quantum_two_bit,
)
from ghzcc.qsim import TripleState, transformed_state


def columns(t: PromiseTriple) -> list[tuple[int, int, int]]:
    """The columns (x_i, y_i, z_i) of t, position 1 first."""
    x, y, z = t.x.bits, t.y.bits, t.z.bits
    return [((x >> i) & 1, (y >> i) & 1, (z >> i) & 1) for i in range(t.length)]


class CountSummary(NamedTuple):
    """Per-party zero counts; 2k of those zeros come from the k AND-zero columns."""

    r_a: int
    r_b: int
    r_c: int
    k: int


def count_summary(t: PromiseTriple) -> CountSummary:
    """Zero counts tallied column by column, apart from the protocols' word counts."""
    cols = columns(t)
    r_a, r_b, r_c = (sum(1 - col[i] for col in cols) for i in range(3))
    return CountSummary(r_a, r_b, r_c, sum(col != (1, 1, 1) for col in cols))


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
        "quantum_two_bit": run_quantum_two_bit(t, deal_quantum(t, rng)).output,
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
        class_mask |= 1 << y
    return _ghz_game().branch_counts((class_mask,) * 8, ("C",))[0]


def two_branch_breakdown(game, first, second) -> dict[tuple[str, str, str], int]:
    """Correct two-bit protocols per (first, second if 0, second if 1) pattern.

    The reference for the engine's branch-once count: each first message's
    two branches are counted apart, with no count shared between messages,
    and the bit-0 branch is the complement of the bit-1 branch in y-space.
    """
    breakdown = {(a, b, c): 0 for a in first for b in second for c in second}
    for sp1 in first:
        for m1 in range(game.full + 1):
            ones = game.class_masks(sp1, m1)
            counts0 = game.branch_counts(tuple(s ^ game.full for s in ones), second)
            counts1 = game.branch_counts(ones, second)
            for sp2_0, n0 in zip(second, counts0):
                for sp2_1, n1 in zip(second, counts1):
                    breakdown[sp1, sp2_0, sp2_1] += n0 * n1
    return breakdown


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
            if sp not in ("A", "B", "C"):
                raise ValueError(f"unknown speaker {sp!r}")
        for fn in (self.first_fn, *self.second_fns):
            if not 0 <= fn <= 255:
                raise ValueError(f"message function mask {fn} outside 0..255")


def candidate_feasible(candidate: ProtocolCandidate) -> bool:
    """Direct fiber check for one explicit candidate (no bitmask machinery).

    Used as an independent oracle against the packed search counting: the
    game value must be constant on every (x, transcript) fiber.
    """
    for x in range(8):
        seen: dict[tuple[int, int], int] = {}
        for y in range(8):
            z = 7 - (x ^ y)  # each column of (x, y, z) holds an odd number of ones
            words = {"A": x, "B": y, "C": z}
            b1 = (candidate.first_fn >> words[candidate.first_speaker]) & 1
            sp2 = candidate.second_speakers[b1]
            b2 = (candidate.second_fns[b1] >> words[sp2]) & 1
            value = bin(x & y & z).count("1") % 2
            if seen.setdefault((b1, b2), value) != value:
                return False
    return True


Bits = tuple[int, int, int]


def outcome_law(state: TripleState) -> tuple[tuple[Bits, Fraction], ...]:
    """Each measurable outcome (a, b, c) of state with its exact probability, in basis order.

    p/2 + q/(2*sqrt(2)) squares to p^2/4 + q^2/8 plus an irrational cross term
    pq/(2*sqrt(2)), so an amplitude with both p and q nonzero is refused.
    """
    law = []
    for i, (p, q) in enumerate(state.amps):
        if p and q:
            raise ValueError(f"amplitude {(p, q)} has no rational squared magnitude")
        probability = Fraction(p * p, 4) + Fraction(q * q, 8)
        if probability:
            law.append(((i >> 2 & 1, i >> 1 & 1, i & 1), probability))
    return tuple(law)


def support(state: TripleState) -> set[str]:
    """Basis strings with an exactly nonzero amplitude, read from amps, not weights."""
    return {format(i, "03b") for i, amp in enumerate(state.amps) if amp != (0, 0)}


def quantum_output_support(t: PromiseTriple) -> set[int]:
    """Every output value the quantum protocol can produce on t.

    Enumerates the full product of per-column outcome supports instead of
    sampling; the set must be the singleton {f_ghz(t)}. Exponential in n,
    intended for small n.
    """
    per_column = [[bits for bits, _ in outcome_law(transformed_state(col))]
                  for col in columns(t)]
    # s_A ^ s_B ^ s_C is the parity of every bit of the joint outcome.
    return {sum(map(sum, combo)) & 1 for combo in itertools.product(*per_column)}


@lru_cache(maxsize=None)
def _thresholds(state: TripleState) -> tuple[tuple[float, Bits], ...]:
    law = outcome_law(state)
    sums = itertools.accumulate(probability for _, probability in law)
    return tuple((float(acc), bits) for acc, (bits, _) in zip(sums, law))


def sample_by_thresholds(state: TripleState, rng) -> Bits:
    """One draw by scanning float cumulative probabilities, for u = rng.random().

    The first outcome whose running sum exceeds u is drawn. Every running sum
    is a multiple of 1/8, so each float threshold is exact.
    """
    u = rng.random()
    for threshold, bits in _thresholds(state):
        if u < threshold:
            return bits
    raise ValueError(f"draw {u} lies past the last threshold of {state}")


_MERMIN_TERMS = tuple(
    (a, b, c, -1 if a & b & c else 1)
    for a, b, c in itertools.product((0, 1), repeat=3) if a ^ b ^ c
)


def joint_state(t: PromiseTriple) -> tuple[list[int], int]:
    """The 3n-qubit state the parties share on t, after each one's Hadamards.

    Qubit i of party A is bit i of a basis index, B's is bit n + i and C's
    bit 2n + i. Each column starts as (|001> + |010> + |100> - |111>) / 2,
    and a party applies a Hadamard to qubit i when its input bit i is 0.
    Returns (m, h): the amplitude at index s is m[s] / (2^n * sqrt(2)^h).
    """
    n = t.length
    m = [0] * (1 << 3 * n)
    for terms in itertools.product(_MERMIN_TERMS, repeat=n):
        index, sign = 0, 1
        for i, (a, b, c, term_sign) in enumerate(terms):
            index |= a << i | b << n + i | c << 2 * n + i
            sign *= term_sign
        m[index] = sign
    h = 0
    for party, word in enumerate((t.x.bits, t.y.bits, t.z.bits)):
        for i in range(n):
            if word >> i & 1:
                continue
            bit = 1 << party * n + i
            for s in range(len(m)):
                if not s & bit:
                    m[s], m[s | bit] = m[s] + m[s | bit], m[s] - m[s | bit]
            h += 1
    return m, h


def joint_outcomes(t: PromiseTriple) -> dict[tuple[int, int, int], Fraction]:
    """Every measurable (A, B, C) outcome word of t's joint state, with its probability.

    Bit i of a party's outcome word is its outcome on column i.
    """
    m, h = joint_state(t)
    n, norm = t.length, 4 ** t.length * 2 ** h
    if sum(v * v for v in m) != norm:
        raise ValueError(f"joint state of {t} is not normalized")
    low = (1 << n) - 1
    return {(s & low, s >> n & low, s >> 2 * n): Fraction(v * v, norm)
            for s, v in enumerate(m) if v}


def permute_val(v: int, perm: tuple[int, int, int]) -> int:
    """Word v with its three binary digits reordered: digit i of the result is digit perm[i]."""
    s = format(v, "03b")
    return int("".join(s[perm[i]] for i in range(3)), 2)


def permute_set(values: Iterable[int], perm: tuple[int, int, int]) -> frozenset[int]:
    return frozenset(permute_val(v, perm) for v in values)


def uncovered(coverage) -> list[int]:
    """Partitions whose assignment in a case_cover_check report does not hold.

    An assignment holds when some bit-position permutation maps its case's
    class_members into the partition's class_side class.
    """
    bad = []
    for assignment in coverage.assignments:
        witness = CASES[assignment.case_id]
        members = [int(m, 2) for m in witness.class_members]
        side = {y for y in range(8) if (assignment.partition >> y) & 1 == witness.class_side}
        if not any(permute_set(members, perm) <= side
                   for perm in itertools.permutations(range(3))):
            bad.append(assignment.partition)
    return bad


def forced_apart(xs: Iterable[str], class_members: Iterable[str]) -> tuple[tuple[str, str], ...]:
    """The z pairs a one-bit split of Carol's words must separate, from strings alone.

    For each receiver input x and each y in Bob's class, z is the word whose
    columns (x_i, y_i, z_i) hold an odd number of ones. Two such z must be
    split when their triples' game values differ.
    """
    pairs = set()
    for x in xs:
        completions = []
        for y in class_members:
            z = "".join("1" if a == b else "0" for a, b in zip(x, y))
            value = sum(a == b == c == "1" for a, b, c in zip(x, y, z)) % 2
            completions.append((z, value))
        pairs |= {tuple(sorted((z1, z2)))
                  for (z1, v1), (z2, v2) in itertools.combinations(completions, 2) if v1 != v2}
    return tuple(sorted(pairs))


def proper_two_colorings(pairs: Iterable[tuple[str, str]]) -> list[dict[str, int]]:
    """Every 2-coloring of the words in pairs that gives the two words of each pair
    different colors, found by trying all of them."""
    pairs = list(pairs)
    words = sorted({w for pair in pairs for w in pair})
    colorings = (dict(zip(words, colors))
                 for colors in itertools.product((0, 1), repeat=len(words)))
    return [c for c in colorings if all(c[u] != c[v] for u, v in pairs)]


def jsonable(value: Any) -> Any:
    """value with str keys and tuples as lists; anything else is left to the encoder."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


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


def basis(bits: Bits) -> str:
    """An outcome's bits as a basis string, party A first."""
    return "".join(map(str, bits))


def _check_equal_lengths(x: BitString, y: BitString) -> None:
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} vs {y.length}")


def f_parity(x: BitString, y: BitString) -> int:
    """XOR of all bits of both words."""
    _check_equal_lengths(x, y)
    return (x.bits ^ y.bits).bit_count() & 1


def f_inner_product(x: BitString, y: BitString) -> int:
    """XOR over i of x_i AND y_i."""
    _check_equal_lengths(x, y)
    return (x.bits & y.bits).bit_count() & 1


def parity(word: BitString) -> int:
    """XOR of the word's bits."""
    return word.bits.bit_count() & 1


def _parity_output(word, received):
    return parity(word) ^ received[0]


_PARITY_STEPS = (SendStep("B", 0),)


def run_parity_one_bit(x: BitString, y: BitString) -> RunResult:
    """Two-party parity: Bob's single bit is the XOR of his word."""
    _check_equal_lengths(x, y)
    return run_protocol({"A": x, "B": y}, parity, _PARITY_STEPS, _parity_output)


def _word_value(word: BitString) -> int:
    """The word as an int: bit i - 1 is the word's position i."""
    return word.bits


@lru_cache(maxsize=None)
def _word_steps(length: int) -> tuple[SendStep, ...]:
    """Bob sends his word bit by bit, position 1 (bit 0 of its value) first."""
    return tuple(SendStep("B", pos) for pos in range(length))


def _ip_output(word, received):
    other = sum(bit << i for i, bit in enumerate(received))
    return f_inner_product(word, BitString(len(received), other))


def run_ip_trivial(x: BitString, y: BitString) -> RunResult:
    """Two-party inner product the blunt way: Bob sends his whole word."""
    _check_equal_lengths(x, y)
    return run_protocol({"A": x, "B": y}, _word_value, _word_steps(y.length), _ip_output)
