"""Protocol runs: correctness against direct evaluation, costs, and audits."""

import ast
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import ghzcc
from ghzcc import cli, qsim
from ghzcc.bitcore import (
    BitString,
    InvariantViolation,
    PromiseTriple,
    enumerate_promise,
    f_ghz,
    random_promise_triple,
)
from ghzcc.protocols import (
    audit_run,
    deal_quantum,
    run_classical_count,
    run_classical_three_bit,
    run_quantum_two_bit,
)
from ghzcc.cli import cmd_demo
from oracles import (
    columns,
    count_summary,
    f_inner_product,
    f_parity,
    joint_outcomes,
    protocol_agreement,
    quantum_output_support,
    run_ip_trivial,
    run_parity_one_bit,
)


def bs(text: str) -> BitString:
    return BitString.from_str(text)


def quantum(t: PromiseTriple, rng):
    """The quantum protocol on t, on a dealing drawn from rng."""
    return run_quantum_two_bit(t, deal_quantum(t, rng))


class TestQuantumTwoBit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_64_triples(self, seed):
        rng = random.Random(seed)
        for t in enumerate_promise(3):
            result = quantum(t, rng)
            assert result.output == f_ghz(t)
            assert result.cost == 2

    def test_transcript_routing(self):
        t = PromiseTriple.from_strs("111", "111", "111")
        result = quantum(t, random.Random(0))
        assert [s.sender for s in result.steps] == ["B", "C"]
        assert result.transcript == "B->A:{} C->A:{}".format(*result.bits)
        assert result.output == 1  # 3 mod 2

    def test_random_inputs_n8(self):
        rng = random.Random(77)
        for _ in range(1000):
            t = random_promise_triple(8, rng)
            result = quantum(t, rng)
            assert result.output == f_ghz(t)
            assert result.cost == 2

    def test_audit_passes(self):
        rng = random.Random(3)
        for t in enumerate_promise(2):
            assert audit_run(quantum(t, rng)).passed

    def test_output_constant_over_product_support(self):
        # Enumerates every joint outcome with nonzero probability instead of
        # sampling: the XOR of the three announced parities never varies.
        for t in enumerate_promise(3):
            assert quantum_output_support(t) == {f_ghz(t)}

    def test_output_constant_for_longer_inputs(self):
        rng = random.Random(6)
        for _ in range(5):
            t = random_promise_triple(6, rng)
            assert quantum_output_support(t) == {f_ghz(t)}

    def test_sent_bits_are_the_parity_of_the_dealt_outcomes(self):
        rng = random.Random(12)
        for n in (1, 2, 7, 32):
            for _ in range(50):
                result = quantum(random_promise_triple(n, rng), rng)
                assert result.bits == tuple(sum(result.inputs[p][1]) & 1 for p in "BC")

    def test_local_data_carries_measured_bits(self):
        t = PromiseTriple.from_strs("001", "010", "100")
        result = quantum(t, random.Random(5))
        sampled = {p: result.inputs[p][1] for p in "ABC"}
        assert sum(map(sum, sampled.values())) & 1 == f_ghz(t)
        assert all(len(sampled[p]) == 3 for p in "ABC")


def _dealt(word: int, n: int) -> tuple[int, ...]:
    """A party's outcome word as the per-column bits the protocol deals it."""
    return tuple(word >> i & 1 for i in range(n))


class TestJointState:
    """The quantum protocol against the whole 3n-qubit state, simulated apart from qsim."""

    def test_every_joint_outcome_decodes_to_f(self):
        # The measurable joint outcomes are the dealings the run must accept: each one,
        # run and audited, costs 2 bits and outputs f.
        checked = 0
        for n in (1, 2, 3):
            for t in enumerate_promise(n):
                for a, b, c in joint_outcomes(t):
                    result = run_quantum_two_bit(t, (_dealt(a, n), _dealt(b, n), _dealt(c, n)))
                    assert (result.output, result.cost) == (f_ghz(t), 2), (t, a, b, c)
                    assert audit_run(result).passed, (t, a, b, c)
                    checked += 1
        # 4^n triples of length n, each with 4^n measurable outcomes.
        assert checked == sum(16 ** n for n in (1, 2, 3))

    def test_a_dealing_no_measurement_gives_is_refused_at_each_column(self):
        # Flipping any of column i's three dealt bits in a measurable dealing gives a
        # dealing that the joint state either gives or not; the run must refuse exactly
        # the latter, naming column i and its dealt bits.
        refused = [0, 0, 0]
        for t in enumerate_promise(3):
            outcomes = joint_outcomes(t)
            words = next(iter(outcomes))
            for i in range(3):
                for flip in range(1, 8):
                    moved = tuple(w ^ (flip >> (2 - p) & 1) << i for p, w in enumerate(words))
                    dealing = tuple(_dealt(w, 3) for w in moved)
                    if moved in outcomes:
                        assert run_quantum_two_bit(t, dealing).output == f_ghz(t)
                        continue
                    bits = ", ".join(str(w >> i & 1) for w in moved)
                    with pytest.raises(InvariantViolation,
                                       match=rf"^column {i + 1} cannot deal \({bits}\)$"):
                        run_quantum_two_bit(t, dealing)
                    refused[i] += 1
        # Each column's law gives 4 of the 8 outcomes, so 4 of the 7 flips leave its support.
        assert refused == [64 * 4] * 3

    def test_a_dealing_of_another_length_is_refused(self):
        t = PromiseTriple.from_strs("001", "010", "100")
        a, b, c = deal_quantum(t, random.Random(0))
        assert len(a) == len(b) == len(c) == 3
        for dealing in ((a[:2], b[:2], c[:2]), (a + (0,), b + (0,), c + (1,)), (a, b[:2], c)):
            with pytest.raises(ValueError, match=r"^zip\(\) argument"):
                run_quantum_two_bit(t, dealing)

    def test_the_run_draws_nothing(self):
        # The dealing is the run's only source of outcomes: one dealing, one result.
        t = PromiseTriple.from_strs("0110", "0101", "1100")
        dealing = deal_quantum(t, random.Random(3))
        first, second = run_quantum_two_bit(t, dealing), run_quantum_two_bit(t, dealing)
        assert (first.bits, first.output) == (second.bits, second.output)
        assert {p: first.inputs[p][1] for p in "ABC"} == dict(zip("ABC", dealing))

    def test_joint_law_is_the_product_of_the_column_laws(self):
        # The protocol draws each column from its own 3-qubit law, its weights in eighths.
        for n in (1, 2, 3):
            for t in enumerate_promise(n):
                laws = [[(tuple(map(int, b)), Fraction(w, 8))
                         for b, w in zip(qsim.BASIS, qsim.transformed_state(column).weights) if w]
                        for column in columns(t)]
                product = {}
                for combo in itertools.product(*laws):
                    words = tuple(sum(bits[p] << i for i, (bits, _) in enumerate(combo))
                                  for p in range(3))
                    product[words] = math.prod(probability for _, probability in combo)
                assert joint_outcomes(t) == product, t


class TestClassicalThreeBit:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive(self, n):
        for t in enumerate_promise(n):
            result = run_classical_three_bit(t)
            assert result.output == f_ghz(t)
            assert result.cost == 3

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 14])
    def test_all_ones_outputs_n_mod_2(self, n):
        ones = "1" * n
        t = PromiseTriple.from_strs(ones, ones, ones)
        result = run_classical_three_bit(t)
        assert result.output == n % 2
        counts = count_summary(t)
        assert (counts.r_b, counts.r_c) == (0, 0)

    def test_message_schedule(self):
        t = PromiseTriple.from_strs("001", "010", "100")
        result = run_classical_three_bit(t)
        assert [s.sender for s in result.steps] == ["B", "B", "C"]
        # y and z have two zeros each: Bob sends 10, Carol the high bit 1.
        assert result.transcript == "B->A:1 B->A:0 C->A:1"

    def test_bob_sends_count_mod4_high_then_low(self):
        # y = 01111: one zero, so Bob's two bits read 0 then 1.
        t = PromiseTriple.from_strs("10111", "01111", "00111")
        result = run_classical_three_bit(t)
        assert list(result.bits[:2]) == [0, 1]

    def test_audit_passes(self):
        for t in enumerate_promise(2):
            assert audit_run(run_classical_three_bit(t)).passed


class TestClassicalCount:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_three_bit_protocol(self, n):
        width = n.bit_length()
        for t in enumerate_promise(n):
            result = run_classical_count(t)
            assert result.output == run_classical_three_bit(t).output == f_ghz(t)
            assert result.cost == 2 * width

    def test_n1_costs_two(self):
        t = PromiseTriple.from_strs("1", "1", "1")
        assert run_classical_count(t).cost == 2

    def test_counts_sent_big_endian(self):
        # y = 0000111 has four zeros: width 3, bits 100.
        t = PromiseTriple.from_strs("1111111", "0000111", "0000111")
        result = run_classical_count(t)
        bob_bits = list(result.bits[:3])
        assert bob_bits == [1, 0, 0]

    def test_audit_passes(self):
        rng = random.Random(2)
        for n in (1, 4, 13):
            t = random_promise_triple(n, rng)
            assert audit_run(run_classical_count(t)).passed


class TestColumnPermutationInvariance:
    # Every classical bit and Alice's decoder read only zero counts and the
    # length, which no reordering of the columns can change.
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("run", [run_classical_three_bit, run_classical_count])
    def test_bits_and_output_survive_every_column_permutation(self, run, n):
        for t in enumerate_promise(n):
            expected = run(t)
            words = [str(w) for w in (t.x, t.y, t.z)]
            for perm in itertools.permutations(range(n)):
                moved = PromiseTriple.from_strs(*("".join(w[i] for i in perm) for w in words))
                result = run(moved)
                assert (result.bits, result.output) == (expected.bits, expected.output)


class TestCountingIdentity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive(self, n):
        for t in enumerate_promise(n):
            counts = count_summary(t)
            assert counts.r_a + counts.r_b + counts.r_c == 2 * counts.k

    def test_random_large(self):
        rng = random.Random(10)
        for _ in range(300):
            counts = count_summary(random_promise_triple(32, rng))
            assert counts.r_a + counts.r_b + counts.r_c == 2 * counts.k

    def test_oracle_matches_word_counts(self):
        # Column tallies against the packed words the protocols count.
        for n in range(1, 5):
            for t in enumerate_promise(n):
                counts = count_summary(t)
                assert (counts.r_a, counts.r_b, counts.r_c) == (
                    t.x.count_zeros(), t.y.count_zeros(), t.z.count_zeros()
                )
                assert counts.k == n - (t.x.bits & t.y.bits & t.z.bits).bit_count()

    @pytest.mark.parametrize("run", [run_classical_three_bit, run_classical_count])
    def test_run_path_rejects_broken_identity(self, run):
        # Three one-bit words 0, 0, 0 break the promise: r_A + r_B + r_C = 3, 2k = 2.
        # A namespace stands in for the triple, since PromiseTriple rejects it.
        zero = bs("0")
        forged = SimpleNamespace(x=zero, y=zero, z=zero, length=1)
        with pytest.raises(InvariantViolation, match=r"^zero counts 1\+1\+1 != 2\*1$"):
            run(forged)

    def test_run_path_check_survives_optimized_mode(self):
        src = os.path.dirname(os.path.dirname(ghzcc.__file__))
        code = (
            "from types import SimpleNamespace\n"
            "from ghzcc.bitcore import BitString, InvariantViolation\n"
            "from ghzcc.protocols import run_classical_three_bit\n"
            "zero = BitString(1, 0)\n"
            "try:\n"
            "    run_classical_three_bit(SimpleNamespace(x=zero, y=zero, z=zero, length=1))\n"
            "except InvariantViolation as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "zero counts 1+1+1 != 2*1\n"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check in the package may rest on one.
    package = Path(ghzcc.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


class TestTwoPartyBaselines:
    def test_parity_trivial_case(self):
        result = run_parity_one_bit(bs("000"), bs("000"))
        assert result.output == 0
        assert result.cost == 1

    def test_parity_direct_value(self):
        assert run_parity_one_bit(bs("101"), bs("110")).output == 0

    def test_parity_exhaustive_n3(self):
        for a in range(8):
            for b in range(8):
                x, y = bs(format(a, "03b")), bs(format(b, "03b"))
                result = run_parity_one_bit(x, y)
                assert result.output == f_parity(x, y)
                assert result.cost == 1
                assert audit_run(result).passed

    def test_parity_length_mismatch(self):
        with pytest.raises(ValueError):
            run_parity_one_bit(bs("01"), bs("011"))

    def test_ip_direct_value(self):
        result = run_ip_trivial(bs("011"), bs("101"))
        assert result.output == 1
        assert result.cost == 3

    def test_ip_zero(self):
        assert run_ip_trivial(bs("000"), bs("000")).output == 0

    def test_ip_exhaustive_n3(self):
        for a in range(8):
            for b in range(8):
                x, y = bs(format(a, "03b")), bs(format(b, "03b"))
                result = run_ip_trivial(x, y)
                assert result.output == f_inner_product(x, y)
                assert result.cost == 3
                assert audit_run(result).passed

    def test_ip_length_mismatch(self):
        with pytest.raises(ValueError):
            run_ip_trivial(bs("0110"), bs("011"))


def _words(n: int) -> list[BitString]:
    return [bs(format(v, f"0{n}b")) for v in range(2**n)]


# Every input of each protocol at a small length, as a fresh list of runs.
ALL_RUNS = {
    "quantum": lambda: [quantum(t, random.Random(9)) for t in enumerate_promise(2)],
    "three_bit": lambda: [run_classical_three_bit(t) for t in enumerate_promise(3)],
    "count": lambda: [run_classical_count(t) for t in enumerate_promise(3)],
    "parity": lambda: [run_parity_one_bit(x, y) for x in _words(3) for y in _words(3)],
    "inner_product": lambda: [run_ip_trivial(x, y) for x in _words(3) for y in _words(3)],
}


class TestAudit:
    def test_flipped_output_detected(self):
        t = PromiseTriple.from_strs("001", "001", "111")
        result = run_classical_three_bit(t)
        corrupted = result._replace(output=result.output ^ 1)
        report = audit_run(corrupted)
        assert not report.passed
        assert any("output" in f for f in report.failures)

    def test_corrupted_transcript_bit_names_the_record(self):
        t = PromiseTriple.from_strs("001", "001", "111")
        result = run_classical_three_bit(t)
        bits = list(result.bits)
        bits[1] ^= 1
        report = audit_run(result._replace(bits=tuple(bits)))
        assert not report.passed
        assert any("record 1" in f for f in report.failures)

    @pytest.mark.parametrize("protocol", sorted(ALL_RUNS))
    def test_tampering_with_any_record_is_named(self, protocol):
        for result in ALL_RUNS[protocol]():
            cost = len(result.steps)
            report = audit_run(result)
            assert report.passed and result.cost == cost
            for i in range(cost):
                bits = list(result.bits)
                bits[i] ^= 1
                report = audit_run(result._replace(bits=tuple(bits)))
                records = [f for f in report.failures if f.startswith("record ")]
                assert not report.passed
                assert records and all(f.startswith(f"record {i}: ") for f in records)
            report = audit_run(result._replace(output=result.output ^ 1))
            assert not report.passed
            assert any(f.startswith("output ") for f in report.failures)
            report = audit_run(result._replace(bits=result.bits[:-1]))
            assert not report.passed
            assert f"{cost - 1} records for {cost} scheduled steps" in report.failures

    def test_transcript_shows_an_unscheduled_bit(self):
        result = run_classical_three_bit(PromiseTriple.from_strs("001", "001", "111"))
        assert result.transcript == "B->A:1 B->A:0 C->A:0"
        smuggled = result._replace(bits=result.bits + (1,))
        assert smuggled.cost == 4
        assert smuggled.transcript == "B->A:1 B->A:0 C->A:0 ?->A:1"
        assert result._replace(bits=result.bits[:2]).transcript == "B->A:1 B->A:0"
        assert "4 records for 3 scheduled steps" in audit_run(smuggled).failures

    @pytest.mark.parametrize("protocol", sorted(ALL_RUNS))
    def test_swapped_view_names_the_records_it_changes(self, protocol):
        for result in ALL_RUNS[protocol]():
            report = audit_run(result._replace(view=lambda local: 0))
            named = {int(f.split(":")[0].split()[1]) for f in report.failures}
            assert named == {i for i, bit in enumerate(result.bits) if bit}
            assert report.passed == (not any(result.bits))

    def test_result_without_replay_data_fails_closed(self):
        result = run_classical_three_bit(PromiseTriple.from_strs("1", "1", "1"))
        bare = result._replace(output_fn=None)
        assert not audit_run(bare).passed


class TestAgreement:
    def test_all_protocols_agree(self):
        rng = random.Random(8)
        for n in (1, 3, 6, 17):
            for _ in range(20):
                t = random_promise_triple(n, rng)
                outputs = protocol_agreement(t, rng)
                assert len(set(outputs.values())) == 1


class TestSchedulesBuiltOnce:
    def test_quantum_and_three_bit_steps_are_shared(self):
        rng = random.Random(4)
        a, b = random_promise_triple(9, rng), random_promise_triple(9, rng)
        assert quantum(a, rng).steps is quantum(b, rng).steps
        assert run_classical_three_bit(a).steps is run_classical_three_bit(b).steps

    def test_count_steps_built_once_per_width(self):
        rng = random.Random(4)
        # n = 4..7 share width 3; n = 8 has width 4.
        runs = [run_classical_count(random_promise_triple(n, rng)) for n in (4, 5, 7, 8)]
        assert runs[0].steps is runs[1].steps is runs[2].steps
        assert runs[0].output_fn is runs[2].output_fn
        assert runs[3].steps is not runs[0].steps
        assert len(runs[3].steps) == 8

    def test_quantum_draws_reuse_the_sampling_tables(self, monkeypatch):
        rng = random.Random(6)
        quantum(random_promise_triple(8, rng), rng)
        calls = []
        weight = qsim._weight

        def counted(amp):
            calls.append(amp)
            return weight(amp)

        # A sampling table is built from weights, once per state.
        monkeypatch.setattr(qsim, "_weight", counted)
        for n in (1, 8, 32):
            for _ in range(20):
                assert quantum(random_promise_triple(n, rng), rng).cost == 2
        assert calls == []

    def test_reports_render_with_one_encoder(self, monkeypatch):
        reports = [cmd_demo(n, seed) for n in (1, 7, 32) for seed in range(34)]
        cli.render_machine(reports[0])
        made = []

        def counted(*args):
            made.append(args)
            return make_encoder(*args)

        make_encoder = json.encoder.c_make_encoder
        monkeypatch.setattr(json.encoder, "c_make_encoder", counted)
        for report in reports[1:101]:
            cli.render_machine(report)
        assert made == []
