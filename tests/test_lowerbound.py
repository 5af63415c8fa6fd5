"""Case replay, partition coverage, and the exhaustive protocol searches.

The searches count with packed bitmaps, so every count asserted here is also
cross-checked against an independent direct enumeration somewhere: the
2-coloring route against the response-mask enumeration partition by
partition, and the factorized two-party counting against a plain brute force
on instances with nonzero counts.
"""

import itertools
import multiprocessing
import random

import pytest

from ghzcc.bitcore import (
    BitString,
    PromiseTriple,
    enumerate_promise,
    f_ghz,
    inner_product_table,
    parity_table,
)
from ghzcc.cli import EXIT_CHECK_FAILED, SEARCH_SCOPES, cmd_replay, cmd_search, main
from ghzcc import lowerbound
from ghzcc.lowerbound import (
    _PERMS,
    _PERMUTED,
    CASES,
    _as_value,
    _count_protocols,
    _ghz_game,
    _s,
    _side,
    _three_bit_masks,
    _two_party_game,
    _xor_pull,
    carol_partition_feasible,
    case_cover_check,
    f3,
    replay_case,
    search_blackboard_two_bit,
    search_bob_broadcast_carol,
    search_two_party_ip3,
    search_two_party_one_bit,
    send_y_computes_f3,
    third_word,
    three_bit_messages_feasible,
)
from ghzcc.protocols import run_classical_three_bit
from oracles import (
    ProtocolCandidate,
    candidate_feasible,
    carol_response_count,
    f_inner_product,
    f_parity,
    forced_apart,
    permute_set,
    permute_val,
    proper_two_colorings,
    two_branch_breakdown,
    uncovered,
)

# All 128 normalized broadcast partitions as masks (even: 000 in class 0).
PARTITIONS = range(0, 256, 2)


def ref_ghz(x: str, y: str, z: str) -> int:
    return sum(int(a) * int(b) * int(c) for a, b, c in zip(x, y, z)) % 2


class TestPackedForm:
    def test_third_word_completes_the_promise(self):
        for x in range(8):
            for y in range(8):
                z = third_word(x, y)
                PromiseTriple.from_strs(
                    format(x, "03b"), format(y, "03b"), format(z, "03b")
                )

    def test_f3_matches_triple_evaluation(self):
        for x in range(8):
            for y in range(8):
                t = PromiseTriple.from_strs(
                    format(x, "03b"),
                    format(y, "03b"),
                    format(third_word(x, y), "03b"),
                )
                assert f3(x, y) == f_ghz(t)


class TestCarolPartition:
    def test_single_x_constraints(self):
        report = carol_partition_feasible(["001"], {"001", "010", "011"})
        assert report.candidates["001"] == (
            ("001", "111", 1),
            ("010", "100", 0),
            ("011", "101", 1),
        )
        assert report.feasible
        # 100 is the only f = 0 completion, so it is split from both others.
        assert report.apart == (("100", "101"), ("100", "111"))

    def test_second_x_makes_it_infeasible(self):
        report = carol_partition_feasible(["001", "011"], {"001", "010", "011"})
        assert carol_partition_feasible(["001"], {"001", "010", "011"}).feasible
        assert carol_partition_feasible(["011"], {"001", "010", "011"}).feasible
        assert not report.feasible

    def test_one_receiver_input_is_always_feasible(self):
        # For one x the apart graph is complete bipartite between the f = 0
        # and f = 1 completions, so only a second x can eliminate.
        for x in range(8):
            for mask in range(1, 256):
                report = carol_partition_feasible(
                    [_s(x)], [_s(y) for y in range(8) if mask >> y & 1]
                )
                assert report.feasible

    def test_single_candidate_always_feasible(self):
        for x in range(8):
            report = carol_partition_feasible([_s(x)], {"010"})
            assert report.feasible
            assert report.apart == ()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            carol_partition_feasible(["0011"], {"000"})
        with pytest.raises(ValueError):
            carol_partition_feasible(["011"], {"1000"})

    def test_takes_only_lists_of_strings(self):
        # A bare string is read as its characters, none of them a 3-bit word.
        with pytest.raises(ValueError):
            carol_partition_feasible("001", {"001", "010"})
        with pytest.raises(TypeError):
            carol_partition_feasible([1], {"001", "010"})
        with pytest.raises(TypeError):
            carol_partition_feasible(["001"], {1, 2})


class TestCaseReplay:
    def test_every_case_passes(self):
        for case_id in CASES:
            report = replay_case(case_id)
            assert report.passed, (case_id, report.failures)
            assert not report.feasibility.feasible

    def test_full_replay_colors_one_graph_per_case(self, monkeypatch):
        calls = []
        two_colorable = lowerbound._two_colorable

        def counted(edges):
            calls.append(edges)
            return two_colorable(edges)

        monkeypatch.setattr(lowerbound, "_two_colorable", counted)
        assert cmd_replay(None).passed
        assert len(calls) == 7

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            replay_case("2.3")

    @pytest.mark.parametrize(
        "case_id,values",
        [
            ("1", ((1, 0, 1), (1, 1, 0))),
            ("2.1.1", ((0, 1, 0), (0, 1, 1))),
            ("2.1.2", ((0, 1, 1), (0, 1, 0))),
            ("2.1.3", ((0, 0, 1), (0, 1, 1))),
            ("2.1.4", ((0, 0, 1), (0, 1, 0))),
            ("2.2.1", ((1, 0, 0, 1), (0, 1, 0, 1))),
            ("2.2.2", ((0, 1, 1), (0, 1, 0))),
        ],
    )
    def test_listed_value_sequences(self, case_id, values):
        witness = CASES[case_id]
        assert tuple(p.f_values for p in witness.probes) == values
        report = replay_case(case_id)
        assert all(ok for _, _, _, ok in report.tuple_checks)

    def test_witness_tuples_satisfy_promise_and_values(self):
        # Independent route: string-level evaluation, no packed arithmetic.
        for witness in CASES.values():
            labels = []
            for probe in witness.probes:
                x = probe.x
                assert len(probe.f_values) == len(witness.class_members)
                for y, expected in zip(witness.class_members, probe.f_values):
                    z = "".join("1" if a == b else "0" for a, b in zip(x, y))
                    PromiseTriple.from_strs(x, y, z)
                    assert ref_ghz(x, y, z) == expected, (witness.case_id, x, y, z)
                    labels.append(f"({x},{y},{z})")
            checks = replay_case(witness.case_id).tuple_checks
            assert [label for label, *_ in checks] == labels

    def test_apart_is_every_forced_pair_and_no_two_coloring_splits_them(self):
        # The certificate, rebuilt apart from the package: the pairs come from
        # string-level evaluation, and every 2-coloring of their words is tried.
        for witness in CASES.values():
            xs = [p.x for p in witness.probes]
            pairs = forced_apart(xs, witness.class_members)
            feasibility = replay_case(witness.case_id).feasibility
            assert feasibility.apart == pairs, witness.case_id
            assert proper_two_colorings(pairs) == [], witness.case_id
            # One receiver input alone leaves a split, and the package finds it.
            for x in xs:
                single = carol_partition_feasible([x], witness.class_members)
                assert single.apart == forced_apart([x], witness.class_members)
                assert single.feasible and proper_two_colorings(single.apart)

    def test_case_221_forces_four_words_pairwise_apart(self):
        words = ("001", "010", "100", "111")
        apart = replay_case("2.2.1").feasibility.apart
        assert apart == tuple(itertools.combinations(words, 2))

    @pytest.mark.parametrize(
        "case_id,edit,failure",
        [
            ("2.1.1", lambda p: (p[0]._replace(f_values=(0, 0, 0)), p[1]),
             "(001,001,111): listed value 0, re-derived 1 (packed 1)"),
            ("2.2.1", lambda p: (p[0]._replace(f_values=(1, 0, 0)), p[1]),
             "x=001: 4 completions, 3 listed values"),
            ("1", lambda p: p[:1],
             "joint constraints are 2-colorable; case does not eliminate"),
        ],
        ids=["flipped_value", "dropped_value", "single_probe"],
    )
    def test_mutated_case_fails_replay(self, case_id, edit, failure, monkeypatch, capsys):
        witness = CASES[case_id]
        mutated = witness._replace(probes=edit(witness.probes))
        monkeypatch.setattr(lowerbound, "CASES", {**CASES, case_id: mutated})
        assert replay_case(case_id).failures == (failure,)
        assert main(["replay"]) == EXIT_CHECK_FAILED
        assert f"check case_{case_id}: FAIL" in capsys.readouterr().out

    def test_seven_cases_exactly(self):
        assert sorted(CASES) == ["1", "2.1.1", "2.1.2", "2.1.3", "2.1.4", "2.2.1", "2.2.2"]


class TestPartitions:
    def test_enumeration_yields_128_distinct(self):
        # Every even mask once: each split of the cube with 000 in class 0.
        masks = [a.partition for a in case_cover_check().assignments]
        assert masks == list(range(0, 256, 2))

    def test_classes_partition_the_cube(self):
        for p in PARTITIONS:
            assert _side(p, 0) | _side(p, 1) == frozenset(range(8))
            assert not _side(p, 0) & _side(p, 1)
            assert 0 in _side(p, 0)


class TestCoverage:
    def test_all_partitions_mapped_and_verified(self):
        report = case_cover_check()
        assert report.total == 128
        assert report.unmapped == ()
        assert len(report.assignments) == 128
        assert uncovered(report) == []
        assert sum(report.counts.values()) == 128
        assert report.passed

    def test_smallest_class_goes_to_case_1(self):
        report = case_cover_check()
        by_mask = {a.partition: a for a in report.assignments}
        assert by_mask[0b11111110].case_id == "1"  # S0 = {000}

    def test_weight_one_third_element_goes_to_case_21x(self):
        report = case_cover_check()
        by_mask = {a.partition: a for a in report.assignments}
        # S0 = {000, 001, 010}: mask has bits for everything else.
        mask = 0b11111000
        assert by_mask[mask].case_id.startswith("2.1")

    def test_full_cube_class_goes_to_222(self):
        report = case_cover_check()
        by_mask = {a.partition: a for a in report.assignments}
        # S0 = {000, 011, 111}: complement mask selects the rest.
        mask = 0b01110110
        assert by_mask[mask].case_id == "2.2.2"

    def test_permutation_table_matches_string_oracle(self):
        assert len(_PERMUTED) == 6
        for perm in _PERMS:
            assert _PERMUTED[perm] == tuple(permute_val(v, perm) for v in range(8))

    def test_report_unchanged_under_string_oracle(self, monkeypatch):
        packed = case_cover_check()
        monkeypatch.setattr(lowerbound, "_permute_set", permute_set)
        assert case_cover_check() == packed


class TestBroadcastSearch:
    def test_zero_feasible_over_full_space(self):
        result = search_bob_broadcast_carol()
        assert result.feasible == 0
        assert result.candidates == 256 * 65536

    def test_agrees_with_coloring_partition_by_partition(self):
        # Independent routes: mask enumeration vs constraint-graph 2-coloring.
        all_x = [_s(x) for x in range(8)]
        for partition in PARTITIONS:
            for side in (0, 1):
                y_class = _side(partition, side)
                by_masks = carol_response_count(y_class) > 0
                if y_class:
                    by_coloring = carol_partition_feasible(all_x, map(_s, y_class)).feasible
                else:
                    by_coloring = True  # empty class never occurs; any response works
                assert by_masks == by_coloring, (partition, side)

    def test_every_partition_has_a_bad_side(self):
        for partition in PARTITIONS:
            counts = [carol_response_count(_side(partition, b)) for b in (0, 1)]
            assert 0 in counts, partition

    def test_constant_broadcast_is_infeasible(self):
        assert carol_response_count(range(8)) == 0

    def test_worker_counts_agree(self):
        assert (
            search_bob_broadcast_carol(workers=1).feasible
            == search_bob_broadcast_carol(workers=3).feasible
        )

    def test_three_bit_messages_pass_the_same_fiber_check(self):
        assert three_bit_messages_feasible()

    def test_three_bit_messages_match_the_protocol(self):
        # The engine check reads the protocol's bits as masks over each sender's
        # word: they must send the protocol's bits on every triple. The engine-free
        # reference: f is constant on every (x, three bits) fiber of the printed words.
        high, low, carol = _three_bit_masks()
        fibers = {}
        for t in enumerate_promise(3):
            y, z = _as_value(str(t.y)), _as_value(str(t.z))
            bits = (high >> y & 1, low >> y & 1, carol >> z & 1)
            assert run_classical_three_bit(t).bits == bits, t
            assert fibers.setdefault((str(t.x), bits), f_ghz(t)) == f_ghz(t), t


class TestBlackboardSearch:
    def test_zero_feasible_over_adaptive_space(self):
        result = search_blackboard_two_bit()
        assert result.feasible == 0
        assert result.candidates == 768 * 768 * 768

    def test_breakdown_covers_all_patterns_with_zero(self):
        result = search_blackboard_two_bit()
        assert set(result.breakdown) == {
            (a, b, c) for a in "ABC" for b in "ABC" for c in "ABC"
        }
        assert all(v == 0 for v in result.breakdown.values())

    def test_named_patterns(self):
        result = search_blackboard_two_bit()
        alice_first = sum(v for k, v in result.breakdown.items() if k[0] == "A")
        assert alice_first == 0
        assert result.breakdown[("B", "C", "C")] == 0

    def test_worker_counts_agree(self):
        counts = {search_blackboard_two_bit(workers=w).feasible for w in (1, 2, 5)}
        assert counts == {0}

    @pytest.mark.parametrize(
        "search, first, second",
        [(search_bob_broadcast_carol, "B", "C"), (search_blackboard_two_bit, "ABC", "ABC"),
         (search_two_party_ip3, "AB", "AB")],
        ids=["paper", "blackboard", "ip3"],
    )
    def test_breakdown_matches_two_branch_oracle(self, search, first, second):
        assert search().breakdown == two_branch_breakdown(_ghz_game(), first, second)

    def test_random_candidates_are_individually_infeasible(self):
        rng = random.Random(31)
        for _ in range(400):
            candidate = ProtocolCandidate(
                first_speaker=rng.choice("ABC"),
                first_fn=rng.randrange(256),
                second_speakers=(rng.choice("ABC"), rng.choice("ABC")),
                second_fns=(rng.randrange(256), rng.randrange(256)),
            )
            assert not candidate_feasible(candidate)

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            ProtocolCandidate("D", 0, ("B", "C"), (0, 0))
        with pytest.raises(ValueError):
            ProtocolCandidate("B", 300, ("B", "C"), (0, 0))

    def test_branch_counts_match_naive_enumeration(self):
        # The search multiplies per-branch valid-second-message counts, which
        # are usually nonzero even though the products always vanish. Check a
        # sample of branches against a naive loop with no bitmap tables.
        game = _ghz_game()
        rng = random.Random(17)
        branch_totals = []
        for _ in range(20):
            sp1 = rng.choice("ABC")
            m1 = rng.randrange(256)
            b = rng.randrange(2)
            ys = game.class_masks(sp1, m1 if b else m1 ^ 255)
            packed = game.branch_counts(ys, ("A", "B", "C"))
            naive = _naive_second_counts(sp1, m1, b)
            assert packed == naive, (sp1, m1, b)
            branch_totals.append(sum(naive))
        # Individual branches are frequently satisfiable; only the product
        # over both branches is always zero.
        assert any(total > 0 for total in branch_totals)


def _naive_second_counts(sp1: str, m1: int, b: int) -> tuple[int, int, int]:
    counts = []
    for sp2 in "ABC":
        valid = 0
        for m2 in range(256):
            ok = True
            for x in range(8):
                seen = {}
                for y in range(8):
                    z = third_word(x, y)
                    words = {"A": x, "B": y, "C": z}
                    if (m1 >> words[sp1]) & 1 != b:
                        continue
                    b2 = (m2 >> words[sp2]) & 1
                    if seen.setdefault(b2, f3(x, y)) != f3(x, y):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                valid += 1
        counts.append(valid)
    return tuple(counts)


class TestTwoPartySearches:
    def test_ip3_two_bit_zero(self):
        result = search_two_party_ip3()
        assert result.name == "two_party_ip3"
        assert result.feasible == 0
        assert result.candidates == 512 * 512 * 512

    def test_ip3_is_the_carol_free_blackboard_slice(self):
        # On the promise f = x.y, so the two-party inner-product game is the
        # GHZ game as Alice sees it, and ip3 protocols are those where Carol
        # never writes.
        assert _two_party_game(inner_product_table(3)).rows == _ghz_game().rows
        ip3 = search_two_party_ip3()
        carol_free = {k: v for k, v in search_blackboard_two_bit().breakdown.items()
                      if "C" not in k}
        assert len(carol_free) == 8
        assert ip3.breakdown == carol_free
        two_party = _two_party_two_bit(inner_product_table(3))
        assert two_party.breakdown == carol_free
        assert ip3.candidates == two_party.candidates == 2 * 256 * (2 * 256) ** 2 == 2**27

    def test_ip3_three_bit_exists(self):
        # Bob sends his three bits and Alice reads the inner product off her row;
        # on the promise that is the game value of the completed triple.
        rows = inner_product_table(3)
        assert send_y_computes_f3(rows)
        for t in enumerate_promise(3):
            assert (rows[t.x.bits] >> t.y.bits) & 1 == f_ghz(t)

    def test_ip3_three_bit_fails_on_any_other_table(self):
        rows = inner_product_table(3)
        for x in range(8):
            for y in range(8):
                flipped = rows[:x] + (rows[x] ^ 1 << y,) + rows[x + 1:]
                assert not send_y_computes_f3(flipped), (x, y)
        union = tuple(sum(((x | y).bit_count() & 1) << y for y in range(8)) for x in range(8))
        for other in (union, parity_table(3), inner_product_table(2), inner_product_table(4)):
            assert not send_y_computes_f3(other)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_parity_one_bit_exists(self, n):
        # Exactly the parity mask and its complement split every row purely.
        assert search_two_party_one_bit(parity_table(n)) == 2

    def test_ip3_needs_more_than_one_bit(self):
        assert search_two_party_one_bit(inner_product_table(3)) == 0

    def test_factorized_count_matches_brute_force_nonzero(self):
        # Parity on 2-bit words is solvable with two bits, so the counts are
        # positive and the product decomposition is exercised for real.
        rows = parity_table(2)
        fast = _two_party_two_bit(rows).feasible
        assert fast == _brute_force_two_party_two_bit(rows)
        assert fast > 0

    def test_factorized_count_matches_brute_force_n1(self):
        for rows in (parity_table(1), inner_product_table(1)):
            assert _two_party_two_bit(rows).feasible == _brute_force_two_party_two_bit(rows)

    @pytest.mark.parametrize(
        "make_rows, n, total",
        [(parity_table, 1, 200), (parity_table, 2, 3640), (parity_table, 3, 992248),
         (inner_product_table, 1, 224), (inner_product_table, 2, 384),
         (inner_product_table, 3, 0)],
        ids=["parity1", "parity2", "parity3", "ip1", "ip2", "ip3"],
    )
    def test_two_party_breakdown_matches_two_branch_oracle(self, make_rows, n, total):
        # The engine counts each branch once and reads the bit-0 branch of
        # mask m as the bit-1 branch of m ^ full; the oracle counts both apart.
        rows = make_rows(n)
        result = _two_party_two_bit(rows)
        assert result.breakdown == two_branch_breakdown(_two_party_game(rows), "AB", "AB")
        assert result.feasible == total

    def test_length_limits(self, monkeypatch):
        with pytest.raises(ValueError):
            search_two_party_one_bit(parity_table(5))
        # The length is refused before the game is built.
        monkeypatch.setattr(lowerbound, "_two_party_game",
                            lambda rows: pytest.fail("built the game"))
        with pytest.raises(ValueError, match="length <= 4, got 32 rows"):
            search_two_party_one_bit(parity_table(5))

    @pytest.mark.parametrize(
        "rows",
        [(), (0,), (0, 1, 1), (0,) * 6, (0, 4), (0, 0, 0, 16), (0, -1), (0, 1.0), (0, True)],
        ids=["none", "one", "three", "six", "bit_2", "bit_4", "negative", "float", "bool"],
    )
    def test_malformed_rows_rejected(self, rows):
        for check in (search_two_party_one_bit, send_y_computes_f3):
            with pytest.raises(ValueError):
                check(rows)


def _two_party_two_bit(rows):
    """The engine's adaptive two-bit two-party count; the receiver holds the first word."""
    return _count_protocols("two_party_two_bit", _two_party_game(rows), ("A", "B"),
                            ("A", "B"), 1)


def _brute_force_two_party_two_bit(rows) -> int:
    """Plain candidate enumeration; no bitmaps, no factorization."""
    size = len(rows)
    fn_count = 1 << size

    def feasible(sp1, m1, plan) -> bool:
        for vx in range(size):
            seen = {}
            for vy in range(size):
                b1 = (m1 >> (vx if sp1 == 0 else vy)) & 1
                sp2, m2 = plan[b1]
                b2 = (m2 >> (vx if sp2 == 0 else vy)) & 1
                value = rows[vx] >> vy & 1
                if seen.setdefault((b1, b2), value) != value:
                    return False
        return True

    count = 0
    for sp1 in (0, 1):
        for m1 in range(fn_count):
            for sp2_0 in (0, 1):
                for m2_0 in range(fn_count):
                    for sp2_1 in (0, 1):
                        for m2_1 in range(fn_count):
                            plan = ((sp2_0, m2_0), (sp2_1, m2_1))
                            if feasible(sp1, m1, plan):
                                count += 1
    return count


def _pair(vx: int, vy: int, n: int):
    """Words whose binary digits, position 1 first, read vx and vy."""
    return BitString.from_str(format(vx, f"0{n}b")), BitString.from_str(format(vy, f"0{n}b"))


def _reference_valid_bitmap(row: int, pull, s: int) -> int:
    """The nested-loop definition of a valid second message, with no closed form.

    Bit m is set when both fibers of the y-subset s under message m are
    f-constant; pull[m] is the y-subset on which message m writes 1, and f = 1
    exactly on the y-mask `row`.
    """
    constant = [(sub & row) in (0, sub) for sub in range(256)]
    bitmap = 0
    for m in range(256):
        ones = pull[m]
        if constant[s & ones] and constant[s & ~ones & 255]:
            bitmap |= 1 << m
    return bitmap


class TestClosedFormBitmaps:
    def test_xor_pull_is_its_docstring(self):
        # pull[m] = {v ^ t : v in m} for every t and every subset mask m of 3-bit words.
        for t in range(8):
            expected = tuple(sum(1 << (v ^ t) for v in range(8) if m >> v & 1)
                             for m in range(256))
            assert _xor_pull(t) == expected, t

    def test_three_party_views(self):
        game = _ghz_game()
        for x in range(8):
            row = sum(f3(x, y) << y for y in range(8))
            carol_pull = [
                sum(1 << y for y in range(8) if (zmask >> third_word(x, y)) & 1)
                for zmask in range(256)
            ]
            for speaker, pull in (("B", range(256)), ("C", carol_pull)):
                for s in range(256):
                    expected = _reference_valid_bitmap(row, pull, s)
                    assert game.valid_bitmap(speaker, x, s) == expected, (speaker, x, s)

    @pytest.mark.parametrize(
        "make_rows,f",
        [(inner_product_table, f_inner_product), (parity_table, f_parity)],
        ids=["inner_product_table", "parity_table"],
    )
    def test_two_party_rows(self, make_rows, f):
        game = _two_party_game(make_rows(3))
        for vx in range(8):
            row = sum(f(*_pair(vx, vy, 3)) << vy for vy in range(8))
            for s in range(256):
                expected = _reference_valid_bitmap(row, range(256), s)
                assert game.valid_bitmap("B", vx, s) == expected, (vx, s)


class TestNoProcessPool:
    def test_searches_and_cli_start_no_processes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("a search tried to start a worker process")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        assert search_bob_broadcast_carol(workers=4).feasible == 0
        assert search_blackboard_two_bit(workers=4).feasible == 0
        assert search_two_party_ip3(workers=4).feasible == 0
        for scope in SEARCH_SCOPES:
            report = cmd_search(scope, workers=4, seed=0)
            assert report.passed, scope
            assert report.params["workers"] == 4

    def test_workers_below_one_rejected(self):
        for search in (search_bob_broadcast_carol, search_blackboard_two_bit,
                       search_two_party_ip3):
            with pytest.raises(ValueError):
                search(workers=0)
