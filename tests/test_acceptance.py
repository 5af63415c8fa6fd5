"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s or -v to see
them) and enforces the stated runtime budget where one applies.
"""

import random
import time
from contextlib import contextmanager

from ghzcc.bitcore import (
    enumerate_promise,
    f_ghz,
    inner_product_table,
    parity_table,
    random_promise_triple,
)
from ghzcc.lowerbound import (
    CASES,
    carol_partition_feasible,
    case_cover_check,
    replay_case,
    search_blackboard_two_bit,
    search_bob_broadcast_carol,
    search_two_party_ip3,
    search_two_party_one_bit,
    send_y_computes_f3,
)
from ghzcc.protocols import (
    deal_quantum,
    run_classical_count,
    run_classical_three_bit,
    run_quantum_two_bit,
)
from ghzcc.qsim import transformed_state
from oracles import count_summary, support, uncovered

SEEDS = list(range(10))
RANDOM_LENGTHS = range(4, 11)
TRIPLES_PER_SEED = 100  # x 10 seeds = 1000 random triples per length


@contextmanager
def criterion(num: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS [{time.perf_counter() - start:.2f}s]")


def test_criterion_1_quantum_upper_bound():
    with criterion(1, "quantum two-bit protocol is correct with cost 2"):
        start = time.perf_counter()
        for seed in SEEDS:
            rng = random.Random(seed)
            for t in enumerate_promise(3):
                result = run_quantum_two_bit(t, deal_quantum(t, rng))
                assert result.output == f_ghz(t)
                assert result.cost == 2
            for n in RANDOM_LENGTHS:
                for _ in range(TRIPLES_PER_SEED):
                    t = random_promise_triple(n, rng)
                    result = run_quantum_two_bit(t, deal_quantum(t, rng))
                    assert result.output == f_ghz(t)
                    assert result.cost == 2
        assert time.perf_counter() - start < 10.0


def test_criterion_2_lemma1_exact():
    with criterion(2, "per-column outcome parity law, exact amplitudes"):
        start = time.perf_counter()
        for column in ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)):
            target = column[0] & column[1] & column[2]
            strings = support(transformed_state(column))
            assert strings, column
            assert {b.count("1") & 1 for b in strings} == {target}
        state = transformed_state((0, 0, 1))
        expected = {
            0b000: (1, 0),
            0b011: (1, 0),
            0b101: (1, 0),
            0b110: (-1, 0),
        }
        for i in range(8):
            assert state.amps[i] == expected.get(i, (0, 0)), i
        assert time.perf_counter() - start < 1.0


def test_criterion_3_classical_upper_bound():
    with criterion(3, "three-bit and count protocols match on all inputs"):
        start = time.perf_counter()
        for n in range(1, 8):
            width = n.bit_length()
            for t in enumerate_promise(n):
                expected = f_ghz(t)
                three = run_classical_three_bit(t)
                assert three.output == expected
                assert three.cost == 3
                count = run_classical_count(t)
                assert count.output == expected
                assert count.cost == 2 * width
        assert time.perf_counter() - start < 30.0


def test_criterion_4_lower_bound_broadcast_response():
    with criterion(4, "broadcast+response search finds zero protocols"):
        start = time.perf_counter()
        result = search_bob_broadcast_carol(workers=1)
        assert result.candidates == 256 * 65536
        assert result.feasible == 0
        assert time.perf_counter() - start < 120.0


def test_criterion_5_lower_bound_blackboard():
    with criterion(5, "adaptive blackboard search finds zero protocols"):
        start = time.perf_counter()
        single = search_blackboard_two_bit(workers=1)
        single_elapsed = time.perf_counter() - start
        assert single.feasible == 0
        assert single.candidates == 768 * 768 * 768
        assert single_elapsed < 30 * 60
        start = time.perf_counter()
        pooled = search_blackboard_two_bit(workers=8)
        pooled_elapsed = time.perf_counter() - start
        assert pooled_elapsed < 5 * 60
        assert pooled.feasible == single.feasible == 0
        assert pooled.breakdown == single.breakdown


def test_criterion_6_case_replay_fidelity():
    with criterion(6, "seven-case replay and 128-partition coverage"):
        start = time.perf_counter()
        listed = {
            "1": ((1, 0, 1), (1, 1, 0)),
            "2.1.1": ((0, 1, 0), (0, 1, 1)),
            "2.1.2": ((0, 1, 1), (0, 1, 0)),
            "2.1.3": ((0, 0, 1), (0, 1, 1)),
            "2.1.4": ((0, 0, 1), (0, 1, 0)),
            "2.2.1": ((1, 0, 0, 1), (0, 1, 0, 1)),
            "2.2.2": ((0, 1, 1), (0, 1, 0)),
        }
        assert sorted(listed) == sorted(CASES)
        for case_id, value_lists in listed.items():
            witness = CASES[case_id]
            assert tuple(p.f_values for p in witness.probes) == value_lists
            report = replay_case(case_id)
            assert report.passed, report.failures
            assert all(got == exp for _, exp, got, _ in report.tuple_checks)
            feas = carol_partition_feasible(
                [p.x for p in witness.probes], witness.class_members
            )
            assert not feas.feasible
        coverage = case_cover_check()
        assert coverage.total == 128
        assert not coverage.unmapped
        assert [a.partition for a in coverage.assignments] == list(range(0, 256, 2))
        assert uncovered(coverage) == []
        assert time.perf_counter() - start < 1.0


def test_criterion_7_cited_two_party_facts():
    with criterion(7, "inner-product and parity two-party facts"):
        ip3 = search_two_party_ip3()
        assert ip3.feasible == 0
        assert send_y_computes_f3(inner_product_table(3))
        assert not send_y_computes_f3(parity_table(3))
        for n in range(1, 5):
            assert search_two_party_one_bit(parity_table(n)) >= 1


def test_criterion_8_counting_identity():
    with criterion(8, "zero counts satisfy r_A + r_B + r_C = 2k"):
        # The classical protocols assert the identity internally on every
        # run; this re-asserts it explicitly over the same input sets as
        # criteria 1 and 3.
        for n in range(1, 8):
            for t in enumerate_promise(n):
                counts = count_summary(t)
                assert counts.r_a + counts.r_b + counts.r_c == 2 * counts.k
        for seed in SEEDS:
            rng = random.Random(seed)
            for n in RANDOM_LENGTHS:
                for _ in range(TRIPLES_PER_SEED):
                    counts = count_summary(random_promise_triple(n, rng))
                    assert counts.r_a + counts.r_b + counts.r_c == 2 * counts.k
