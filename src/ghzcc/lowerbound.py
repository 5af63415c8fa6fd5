"""Impossibility of two-bit classical protocols for the length-3 promise game.

Two independent routes to the same fact:

* replay of the seven named elimination cases ("1", "2.1.1".."2.1.4",
  "2.2.1", "2.2.2"), each a pair of receiver inputs whose forced-apart pairs
  of the third party's words no one-bit split of those words separates (all
  are tried), plus a coverage check mapping all 128 normalized broadcast
  partitions onto those cases under bit-position symmetry;

* exhaustive searches over the deterministic protocol spaces (broadcast +
  response, full adaptive two-bit blackboard, its Carol-free slice, which
  is the two-party inner product because f = x.y on the promise, and the
  one-bit two-party space for the imported parity fact), all counted by
  one in-process engine whose valid-message bitmaps have a closed form, so
  the whole space is decided exactly at desk scale. The three-bit
  protocol's messages pass the same validity test. The engine-free oracles
  are in the tests.

Length-3 words are handled as ints 0..7 whose binary digits read position 1
first ("011" <-> 3); the constraint z = x XOR y XOR 111 and the target
f = XOR_i (x_i AND y_i AND z_i) are bitwise, so the packing is free.

The lower-bound checker at the end reports both routes as checks: `search`
runs one search scope, `replay` replays the elimination cases, and
`verify_cases` is verify's cases section. Each fills a `cli.Report`. Search,
replay and verify's cases section load this module; a demo or verify without
cases never does. This module never loads `protocols` or `qsim`.

Calls within this module read its globals, so a wrapper set on a module
attribute sees each call.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple, Sequence

from .bitcore import (PromiseTriple, PromiseViolation, _two_party_rows, f_ghz,
                      inner_product_table, parity_table)

if TYPE_CHECKING:
    from .cli import Report

ALL3 = 7  # all-ones word of length 3
_PERMS = tuple(itertools.permutations((0, 1, 2)))


def _as_value(v: str) -> int:
    """The word of a '010'-style string."""
    if len(v) != 3 or set(v) - {"0", "1"}:
        raise ValueError(f"not a 3-bit string: {v!r}")
    return int(v, 2)


def _s(v: int) -> str:
    return format(v, "03b")


def third_word(x: int, y: int) -> int:
    """The unique z completing (x, y) to a promise triple."""
    return x ^ y ^ ALL3


def f3(x: int, y: int) -> int:
    """Game value of the promise triple determined by (x, y)."""
    z = third_word(x, y)
    return (x & y & z).bit_count() & 1


# _PERMUTED[perm][v]: word v with digit i (from the left) taken from digit perm[i].
_PERMUTED = {perm: tuple(sum(((v >> (2 - p)) & 1) << (2 - i) for i, p in enumerate(perm))
                         for v in range(8)) for perm in _PERMS}


def _permute_set(values: Iterable[int], perm: tuple[int, int, int]) -> frozenset[int]:
    return frozenset(map(_PERMUTED[perm].__getitem__, values))


# ---------------------------------------------------------------------------
# Broadcast partitions and Carol's one-bit splits (the case route)
# ---------------------------------------------------------------------------


def _side(mask: int, b: int) -> frozenset[int]:
    """Words y Bob announces as bit b; a partition is its mask (even: 000 in class 0)."""
    return frozenset(y for y in range(8) if (mask >> y) & 1 == b)


class CarolFeasibility(NamedTuple):
    """What a correct one-bit split of z-space is forced to do.

    candidates: each receiver input's (y, z, f) completions. apart: z pairs
    whose answer values differ for some receiver input, so they can never
    share a class. feasible: some one-bit split of z separates every apart pair.
    """

    candidates: Mapping[str, tuple[tuple[str, str, int], ...]]
    apart: tuple[tuple[str, str], ...]
    feasible: bool


def _two_colorable(edges: set[tuple[int, int]]) -> bool:
    """Does one of the 2^k splits of the k words the pairs name (Carol's one-bit
    message on them, bit i for words[i]) give the two words of every pair different bits?"""
    words = sorted({w for edge in edges for w in edge})
    pairs = [(words.index(u), words.index(v)) for u, v in edges]
    return any(all((split >> i ^ split >> j) & 1 for i, j in pairs)
               for split in range(1 << len(words)))


def carol_partition_feasible(xs: Sequence[str], bob_class: Iterable[str]) -> CarolFeasibility:
    """Constraints Carol's one-bit partition must satisfy, and whether any exists.

    For each receiver input x, the consistent completions are (y, z) with y
    in Bob's announced class and z forced by the promise; a one-bit split of
    z works for x exactly when the answer value is constant inside each
    class. Pairs with different answers must therefore be split; joint
    feasibility asks for one split of the words in play that separates the
    pairs of all supplied x values, and tries every split.
    """
    x_vals = [_as_value(x) for x in xs]
    class_vals = sorted({_as_value(y) for y in bob_class})
    candidates: dict[str, tuple[tuple[str, str, int], ...]] = {}
    joint_edges: set[tuple[int, int]] = set()
    for x in x_vals:
        cands = [(y, third_word(x, y), f3(x, y)) for y in class_vals]
        candidates[_s(x)] = tuple((_s(y), _s(z), f) for y, z, f in cands)
        joint_edges |= {
            (min(z1, z2), max(z1, z2))
            for (_, z1, f1), (_, z2, f2) in itertools.combinations(cands, 2)
            if f1 != f2
        }
    apart = tuple((_s(u), _s(v)) for u, v in sorted(joint_edges))
    return CarolFeasibility(candidates, apart, _two_colorable(joint_edges))


# ---------------------------------------------------------------------------
# The seven named elimination cases
# ---------------------------------------------------------------------------


class CaseProbe(NamedTuple):
    """One receiver input and the game values the paper lists for it, one per
    class member in ascending order; each (x, y, z) is forced by the promise."""

    x: str
    f_values: tuple[int, ...]


class CaseWitness(NamedTuple):
    case_id: str
    header: str
    class_side: int  # which broadcast class the witness inputs sit in
    class_members: tuple[str, ...]
    probes: tuple[CaseProbe, ...]


CASES: dict[str, CaseWitness] = {
    w.case_id: w
    for w in (
        CaseWitness("1", "class 0 has at most 2 elements",
                    class_side=1, class_members=("001", "010", "011"),
                    probes=(CaseProbe("001", (1, 0, 1)), CaseProbe("011", (1, 1, 0)))),
        CaseWitness("2.1.1", "000, 001, 010 in class 0",
                    class_side=0, class_members=("000", "001", "010"),
                    probes=(CaseProbe("001", (0, 1, 0)), CaseProbe("011", (0, 1, 1)))),
        CaseWitness("2.1.2", "000, 001, 011 in class 0",
                    class_side=0, class_members=("000", "001", "011"),
                    probes=(CaseProbe("001", (0, 1, 1)), CaseProbe("011", (0, 1, 0)))),
        CaseWitness("2.1.3", "000, 001, 110 in class 0",
                    class_side=0, class_members=("000", "001", "110"),
                    probes=(CaseProbe("010", (0, 0, 1)), CaseProbe("011", (0, 1, 1)))),
        CaseWitness("2.1.4", "000, 001, 111 in class 0",
                    class_side=0, class_members=("000", "001", "111"),
                    probes=(CaseProbe("010", (0, 0, 1)), CaseProbe("011", (0, 1, 0)))),
        CaseWitness("2.2.1", "class 0 of size >= 3, no weight-1 element, 111 not in it",
                    class_side=1, class_members=("001", "010", "100", "111"),
                    probes=(CaseProbe("001", (1, 0, 0, 1)), CaseProbe("010", (0, 1, 0, 1)))),
        CaseWitness("2.2.2", "class 0 of size >= 3, no weight-1 element, 111 in it",
                    class_side=0, class_members=("000", "011", "111"),
                    probes=(CaseProbe("010", (0, 1, 1)), CaseProbe("110", (0, 1, 0)))),
    )
}


class CaseReport(NamedTuple):
    case_id: str
    header: str
    tuple_checks: tuple[tuple[str, int, int, bool], ...]  # ((x,y,z), expected, got, ok)
    feasibility: CarolFeasibility
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def replay_case(case_id: str) -> CaseReport:
    """Re-derive one elimination case's witness values and its infeasibility.

    Each probe's completions (x, y, z) over the case's class come from the
    promise; each must be a promise triple, its listed game value must be
    re-derivable (both through the triple evaluation and the packed form),
    and no split of Carol's words may separate all their forced-apart pairs.
    """
    try:
        witness = CASES[case_id]
    except KeyError:
        raise ValueError(f"unknown case id {case_id!r}; know {sorted(CASES)}") from None
    feas = carol_partition_feasible([p.x for p in witness.probes], witness.class_members)
    failures: list[str] = []
    tuple_checks: list[tuple[str, int, int, bool]] = []
    for probe in witness.probes:
        completions = feas.candidates[probe.x]
        if len(completions) != len(probe.f_values):
            failures.append(f"x={probe.x}: {len(completions)} completions, "
                            f"{len(probe.f_values)} listed values")
        for (y, z, packed), expected in zip(completions, probe.f_values):
            label = f"({probe.x},{y},{z})"
            try:
                triple = PromiseTriple.from_strs(probe.x, y, z)
            except PromiseViolation as exc:
                failures.append(f"{label}: {exc}")
                tuple_checks.append((label, expected, -1, False))
                continue
            got = f_ghz(triple)
            ok = got == expected == packed
            if not ok:
                failures.append(
                    f"{label}: listed value {expected}, re-derived {got} (packed {packed})"
                )
            tuple_checks.append((label, expected, got, ok))
    if feas.feasible:
        failures.append("joint constraints are 2-colorable; case does not eliminate")
    return CaseReport(case_id, witness.header, tuple(tuple_checks), feas, tuple(failures))


class CoverageAssignment(NamedTuple):
    partition: int  # broadcast mask
    case_id: str


class CoverageReport(NamedTuple):
    total: int
    assignments: tuple[CoverageAssignment, ...]
    unmapped: tuple[int, ...]
    counts: Mapping[str, int]

    @property
    def passed(self) -> bool:
        return not self.unmapped


def case_cover_check() -> CoverageReport:
    """Map all 128 normalized partitions onto the seven cases.

    The paper's branch order names the candidate cases for a partition: "1"
    when class 0 has at most 2 words; else "2.1.1".."2.1.4" in order when it
    holds a weight-1 word; else "2.2.1" or "2.2.2" as 111 lies outside or
    inside it. The first candidate that covers the partition takes it. A case
    covers a partition when a permutation of the three bit positions, which
    preserves the promise and the game value, maps the case's class_members
    into the partition's class_side class. The case classes come only from
    CASES.
    """
    members = {case_id: [_as_value(m) for m in w.class_members] for case_id, w in CASES.items()}
    assignments: list[CoverageAssignment] = []
    unmapped: list[int] = []
    counts: dict[str, int] = {case_id: 0 for case_id in CASES}
    for partition in range(0, 256, 2):
        s0 = _side(partition, 0)
        if len(s0) <= 2:
            candidates: Sequence[str] = ("1",)
        elif any(v.bit_count() == 1 for v in s0):
            candidates = ("2.1.1", "2.1.2", "2.1.3", "2.1.4")
        else:
            candidates = ("2.2.2",) if ALL3 in s0 else ("2.2.1",)
        for case_id in candidates:
            side = _side(partition, CASES[case_id].class_side)
            if any(_permute_set(members[case_id], perm) <= side for perm in _PERMS):
                assignments.append(CoverageAssignment(partition, case_id))
                counts[case_id] += 1
                break
        else:
            unmapped.append(partition)
    return CoverageReport(128, tuple(assignments), tuple(unmapped), counts)


# ---------------------------------------------------------------------------
# Exhaustive searches: one fiber-counting engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _submask_bitmap(free: int) -> int:
    """Bitmap with bit u set for every submask u of `free`."""
    if not free:
        return 1
    low = free & -free
    rest = _submask_bitmap(free ^ low)
    return rest | rest << low


@lru_cache(maxsize=None)
def _split_bitmap(row: int, s: int, full: int) -> int:
    """Bitmap over message masks m <= full that split s into two f-constant fibers.

    If f is constant on s, every message works. Otherwise m is valid exactly
    when m & s is s & row or s minus row; the bits of m outside s are free.
    """
    hits = s & row
    if hits in (0, s):
        return (1 << (full + 1)) - 1
    free = _submask_bitmap(full & ~s)
    return free << hits | free << (s ^ hits)


class _Game:
    """A promise game as the receiver A sees it, packed for fiber counting.

    The receiver holds x; y indexes the rest of the input, and rows[x] is the
    y-mask on which f = 1. Every party writes subset masks over its own word:
    pulls[speaker][x][m] is the y-subset on which the speaker writes 1 under
    mask m, given x. The receiver's pull is None, because her bit depends on
    x alone. More parties mean more pulls; the counting does not change.
    full is the all-y mask: message masks run over 0..full.
    """

    def __init__(
        self,
        rows: tuple[int, ...],
        pulls: Mapping[str, tuple[Sequence[int], ...] | None],
        full: int,
    ) -> None:
        self.rows = rows
        self.pulls = pulls
        self.full = full

    def class_masks(self, speaker: str, mask: int) -> tuple[int, ...]:
        """Per-x y-subsets on which `speaker` writes 1 under `mask`."""
        pull = self.pulls[speaker]
        if pull is None:
            return tuple(self.full if (mask >> x) & 1 else 0 for x in range(len(self.rows)))
        return tuple(p[mask] for p in pull)

    def valid_bitmap(self, speaker: str, x: int, s: int) -> int:
        """Second messages of `speaker` leaving f constant on both fibers of s at x."""
        row = self.rows[x]
        pull = self.pulls[speaker]
        if pull is None:  # one fiber, s itself: valid on all messages or none
            return (1 << (self.full + 1)) - 1 if (s & row) in (0, s) else 0
        # The pull is a bijection of points, so split in the speaker's own terms.
        return _split_bitmap(pull[x][row], pull[x][s], self.full)

    def branch_counts(self, ys: tuple[int, ...], speakers: Sequence[str]) -> tuple[int, ...]:
        """Valid second-message counts per speaker, given per-x consistent sets."""
        counts = []
        for speaker in speakers:
            bitmap = -1
            for x, s in enumerate(ys):
                bitmap &= self.valid_bitmap(speaker, x, s)
                if not bitmap:
                    break
            counts.append(bitmap.bit_count())
        return tuple(counts)


def _xor_pull(t: int) -> tuple[int, ...]:
    """pull[m] = {v ^ t : v in m} for every subset mask m of 3-bit words."""
    pull = [0] * 256
    for m in range(1, 256):
        low = m & -m
        pull[m] = pull[m ^ low] | 1 << ((low.bit_length() - 1) ^ t)
    return tuple(pull)


@lru_cache(maxsize=None)
def _ghz_game() -> _Game:
    # Carol's word is z = x ^ y ^ 111, so her pull is an involution.
    carol = tuple(_xor_pull(x ^ ALL3) for x in range(8))
    return _Game(_two_party_rows(3, f3), {"A": None, "B": (range(256),) * 8, "C": carol}, 255)


def _two_party_game(rows: Sequence[int]) -> _Game:
    """The receiver holds the first word; rows[x] masks the second words with f = 1."""
    size = len(rows)
    if size < 2 or size & (size - 1):
        raise ValueError(f"need 2^n rows for some n >= 1, got {size}")
    full = (1 << size) - 1
    for x, row in enumerate(rows):
        if type(row) is not int or not 0 <= row <= full:
            raise ValueError(f"row {x} is not a mask over {size} words: {row!r}")
    return _Game(tuple(rows), {"A": None, "B": (range(1 << size),) * size}, full)


class SearchResult(NamedTuple):
    name: str
    feasible: int
    candidates: int
    breakdown: Mapping[tuple[str, str, str], int]


def _count_protocols(
    name: str, game: _Game, first: Sequence[str], second: Sequence[str], workers: int
) -> SearchResult:
    """Count correct two-bit protocols, per (first, second if 0, second if 1).

    A `first` speaker writes bit one; the second writer (from `second`) and
    its message may depend on that bit. The two branches constrain disjoint
    transcripts, so for a fixed first message the count is the product of
    the branches' valid-second-message counts. The bit-0 branch of mask m is
    the bit-1 branch of m ^ full, so each branch is counted once.
    `workers` is checked only: the pass runs in this process.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    full = game.full
    fn_count = full + 1
    breakdown = {(a, b, c): 0 for a in first for b in second for c in second}
    for sp1 in first:
        counts = [game.branch_counts(game.class_masks(sp1, m), second) for m in range(fn_count)]
        for m1, counts1 in enumerate(counts):
            for sp2_0, n0 in zip(second, counts[m1 ^ full]):
                if n0:
                    for sp2_1, n1 in zip(second, counts1):
                        breakdown[sp1, sp2_0, sp2_1] += n0 * n1
    return SearchResult(
        name=name,
        feasible=sum(breakdown.values()),
        candidates=len(first) * fn_count * (len(second) * fn_count) ** 2,
        breakdown=breakdown,
    )


def search_bob_broadcast_carol(workers: int = 1) -> SearchResult:
    """Count correct (broadcast, response) pairs: 256 phi x 65536 psi.

    Bob broadcasts phi(y); Carol answers psi(z, broadcast bit). A pair is
    correct when for every receiver input and transcript the game value is
    constant over the consistent completions. This is the B-C/C pattern of
    the blackboard count.
    """
    return _count_protocols("bob_broadcast_carol", _ghz_game(), ("B",), ("C",), workers)


_SPEAKERS = ("A", "B", "C")


def search_blackboard_two_bit(workers: int = 1) -> SearchResult:
    """Count correct protocols in the full adaptive two-bit blackboard model.

    Any party may write the first bit (a function of its own word); the
    second writer and its function may depend on the first bit's value; the
    receiver outputs from her word plus both public bits. This model
    subsumes every two-bit point-to-point pattern, so a zero count retires
    them all at once. The breakdown reports the count per
    (first speaker, second speaker if 0, second speaker if 1) pattern.
    """
    return _count_protocols("blackboard_two_bit", _ghz_game(), _SPEAKERS, _SPEAKERS, workers)


def search_two_party_ip3(workers: int = 1) -> SearchResult:
    """Two-bit search for the length-3 inner product (expected count: 0).

    On the promise z = x ^ y ^ 111, so f = x.y: a two-party protocol for the
    inner product is a GHZ-game protocol in which Carol never writes, and
    this count is the Carol-free slice of the blackboard count.
    """
    return _count_protocols("two_party_ip3", _ghz_game(), ("A", "B"), ("A", "B"), workers)


def _three_bit_masks() -> tuple[int, int, int]:
    """The three-bit protocol's bits as sent, each a mask over its sender's words:
    Bob's zero count mod 4, high bit then low bit, then Carol's high bit."""
    high, low = (sum(((3 - v.bit_count()) >> b & 1) << v for v in range(8)) for b in (1, 0))
    return high, low, high


def three_bit_messages_feasible() -> bool:
    """Does the engine validate the three-bit protocol's messages?

    Bob's two masks split y into four classes s; at every receiver input x,
    Carol's mask must leave f constant on both fibers of each s. The searches
    count with this test, so an engine that empties its valid sets fails it.
    """
    game = _ghz_game()
    high, low, carol = _three_bit_masks()
    classes = [b1 & b0 for b1 in (high, 255 ^ high) for b0 in (low, 255 ^ low)]
    return all(game.valid_bitmap("C", x, s) >> carol & 1 for x in range(8) for s in classes)


# ---------------------------------------------------------------------------
# Two-party checks (the imported parity and inner-product facts)
# ---------------------------------------------------------------------------


def search_two_party_one_bit(rows: Sequence[int]) -> int:
    """Count correct one-bit two-party protocols for f given as row masks.

    The one bit is a second message after nothing: sender B must split every
    row into f-constant fibers, and sender A only works (with any of her
    masks) if f is already determined by her own word.
    """
    if len(rows) > 16:
        raise ValueError(f"one-bit search supports length <= 4, got {len(rows)} rows")
    game = _two_party_game(rows)
    return sum(game.branch_counts((game.full,) * len(game.rows), ("A", "B")))


def send_y_computes_f3(rows: Sequence[int]) -> bool:
    """Is the three-bit protocol "Bob sends y; Alice outputs rows[x] >> y & 1" correct?

    It is when that output is f3(x, y) on all 64 inputs, i.e. when rows is the
    game as Alice sees it. On the promise f3 = x.y, so the length-3 inner-product
    table passes and a table of any other function fails.
    """
    return _two_party_game(rows).rows == _ghz_game().rows


def verify_cases(report: Report) -> None:
    """Verify's cases section: each elimination case, then the partition coverage."""
    for case_id in sorted(CASES):
        case = replay_case(case_id)
        report.check(
            f"case_{case_id}",
            case.passed,
            tuples=len(case.tuple_checks),
            joint_feasible=case.feasibility.feasible,
            **({"failures": list(case.failures)} if case.failures else {}),
        )
    coverage = case_cover_check()
    _check_cover(report, coverage, mapped=len(coverage.assignments),
                 unmapped=len(coverage.unmapped))


def _check_cover(report: Report, coverage: CoverageReport, **tallies: int) -> None:
    """The coverage check: a failing one names its unmapped masks."""
    report.check("case_cover", coverage.passed, partitions=coverage.total, **tallies,
                 counts=dict(sorted(coverage.counts.items())),
                 **({"unmapped_masks": list(coverage.unmapped)} if coverage.unmapped else {}))


def _search_zero(report: Report, result: SearchResult, check: str, **note: Any) -> None:
    """Note a search result and check that no candidate is feasible."""
    feasible, candidates = result.feasible, result.candidates
    report.note("search", name=result.name, candidates=candidates, feasible=feasible, **note)
    report.check(check, feasible == 0, feasible=feasible, candidates=candidates)


def search(report: Report, scope: str, workers: int) -> None:
    """Run the lower-bound search of one scope, as `cli.SEARCH_SCOPES` names it.

    An unknown scope raises ValueError, with nothing written to the report.
    """
    if scope == "paper":
        result = search_bob_broadcast_carol(workers=workers)
        _search_zero(report, result, "broadcast_response_zero_feasible")
        report.check("three_bit_messages_feasible", three_bit_messages_feasible())
    elif scope == "blackboard":
        result = search_blackboard_two_bit(workers=workers)
        breakdown = result.breakdown
        _search_zero(report, result, "blackboard_zero_feasible",
                     breakdown={"{}-{}/{}".format(*k): v for k, v in breakdown.items()})
        alice_first = sum(v for k, v in breakdown.items() if k[0] == "A")
        report.check("alice_first_zero_feasible", alice_first == 0)
        report.check("relay_b_then_c_zero_feasible", breakdown["B", "C", "C"] == 0)
    elif scope == "ip3":
        result = search_two_party_ip3(workers=workers)
        _search_zero(report, result, "ip3_two_bit_zero_feasible")
        report.check("ip3_three_bit_feasible", send_y_computes_f3(inner_product_table(3)))
        for n in range(1, 5):
            feasible = search_two_party_one_bit(parity_table(n))
            report.check(f"parity_one_bit_feasible_n{n}", feasible >= 1, feasible=feasible)
    else:
        raise ValueError(f"unknown search scope {scope!r}")


def replay(report: Report, case: str | None) -> None:
    """Replay one elimination case, or all seven plus the coverage check if None."""
    ids = sorted(CASES) if case is None else [case]
    for case_id in ids:
        result = replay_case(case_id)
        report.note(
            "case",
            id=result.case_id,
            header=result.header,
            tuples=[list(check) for check in result.tuple_checks],
            apart=[list(p) for p in result.feasibility.apart],
            joint_feasible=result.feasibility.feasible,
        )
        report.check(f"case_{case_id}", result.passed, failures=list(result.failures))
    if case is None:
        _check_cover(report, case_cover_check())
