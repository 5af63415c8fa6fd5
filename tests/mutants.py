"""A seeded mutation catalogue: each entry breaks the package on purpose and
names the tests that must catch it.

    python tests/mutants.py

copies src, tests and pyproject.toml into a temporary directory (all three:
pyproject.toml's pythonpath = ["src"] would otherwise put the unmutated src
first). For each entry it applies the one replacement there, runs
`python -m pytest -q -x -p no:cacheprovider <test ids>`, and restores the
file. A run that fails a test (exit 1) or stops on a collection error (exit 2)
kills the mutant. The script exits 1 naming every mutant whose run exits 0,
and every entry whose snippet does not occur exactly once or whose run exits
with any other code (an unknown test id exits 4).

tests/test_mutants.py checks, without running any mutant, that each snippet
occurs exactly once and that each test id names an existing test function.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

JOINT_LAW = ("tests/test_protocols.py::TestJointState::"
             "test_joint_law_is_the_product_of_the_column_laws")

REPLAY_CERTIFICATE = ("tests/test_lowerbound.py::TestCaseReplay::"
                      "test_apart_is_every_forced_pair_and_no_two_coloring_splits_them")

# (file, exact snippet, replacement, test ids that must fail).
MUTANTS = (
    # 8|amp|^2 read as p^2 + q^2: the shared triple's norm becomes 4/8.
    ("src/ghzcc/qsim.py", "return 2 * p * p + q * q", "return p * p + q * q",
     ["tests/test_cli.py::TestVerify::test_lemma1_scope"]),
    # The shared triple without its one minus sign.
    ("src/ghzcc/qsim.py", "amps[0b111] = (-1, 0)", "amps[0b111] = (1, 0)",
     [JOINT_LAW]),
    # Each party applies its Hadamard on input 1 instead of 0.
    ("src/ghzcc/qsim.py", "if bit == 0:", "if bit == 1:",
     [JOINT_LAW]),
    # The slot table lists the outcomes from basis index 7 down.
    ("src/ghzcc/qsim.py", "zip(_BITS, weights)", "zip(_BITS[::-1], weights[::-1])",
     ["tests/test_qsim.py::TestSampling::test_slot_table_is_the_exact_distribution"]),
    # A mixed amplitude gets a weight instead of being refused.
    ("src/ghzcc/qsim.py", "if p and q:", "if False:",
     ["tests/test_qsim.py::TestExactRepresentation::"
      "test_mixed_amplitude_has_no_rational_probability"]),
    # A column of two or four bits is read as far as three parties reach.
    ("src/ghzcc/qsim.py", "if len(column) != 3 or set(column)", "if set(column)",
     ["tests/test_qsim.py::TestTransformedState::test_bad_bits_rejected"]),
    # A draw rounds into 7 slots instead of flooring into 8.
    ("src/ghzcc/qsim.py", "int(rng.random() * 8)", "round(rng.random() * 7)",
     ["tests/test_qsim.py::TestSampling::test_slots_draw_as_the_threshold_scan"]),
    # The audit no longer counts records against scheduled steps.
    ("src/ghzcc/protocols.py", "if len(bits) != len(result.steps):", "if False:",
     ["tests/test_protocols.py::TestAudit::test_transcript_shows_an_unscheduled_bit"]),
    # Alice flips the parity she decodes.
    ("src/ghzcc/protocols.py", "return (sum(local[1]) + sum(received)) & 1",
     "return (sum(local[1]) + sum(received) + 1) & 1",
     ["tests/test_protocols.py::TestJointState::test_every_joint_outcome_decodes_to_f"]),
    # A party sends the parity of its input word, not of its outcomes.
    ("src/ghzcc/protocols.py", "return sum(local[1]) & 1", "return local[0].bits.bit_count() & 1",
     ["tests/test_protocols.py::TestJointState::test_every_joint_outcome_decodes_to_f"]),
    # The quantum run takes any dealing, one no measurement can give included.
    ("src/ghzcc/protocols.py",
     "if not _dealable().issuperset(zip(str(t.x), str(t.y), a, b, c, strict=True)):",
     "if False:",
     ["tests/test_protocols.py::TestJointState::"
      "test_a_dealing_no_measurement_gives_is_refused_at_each_column"]),
    # The quantum run checks every column against the 001 column's law.
    ("src/ghzcc/protocols.py", "transformed_state((x, y, z))._slots",
     "transformed_state((0, 0, 1))._slots",
     ["tests/test_protocols.py::TestJointState::test_every_joint_outcome_decodes_to_f"]),
    # The quantum run reads the dealing only as far as t's length.
    ("src/ghzcc/protocols.py", "a, b, c, strict=True)", "a, b, c)",
     ["tests/test_protocols.py::TestJointState::test_a_dealing_of_another_length_is_refused"]),
    # A column code byte's x_i is read from bit 5 too, so every x copies y.
    ("src/ghzcc/bitcore.py", "for bit in (6, 5))", "for bit in (5, 5))",
     ["tests/test_bitcore.py::TestPackedHelpersMatchPerBitOracle::"
      "test_random_triple_and_rng_state_match_per_column_loop"]),
    # The counting protocols run on without the zero-count identity.
    ("src/ghzcc/protocols.py", "if r_a + r_b + r_c != 2 * k:", "if False:",
     ["tests/test_protocols.py::TestCountingIdentity::test_run_path_rejects_broken_identity"]),
    # Demo expects its quantum run to cost 5 bits: its cost check must read the judge.
    ("src/ghzcc/runs.py", "_judge(direct, 2, _quantum", "_judge(direct, 5, _quantum",
     ["tests/test_cli.py::TestDemo::test_outputs_agree_and_pass"]),
    # A fault outside the one package fault type escapes the run checker.
    ("src/ghzcc/runs.py", "except bitcore.InvariantViolation as exc:",
     "except ValueError as exc:",
     ["tests/test_cli.py::test_lemma1_state_fault_is_a_failed_check",
      "tests/test_cli.py::test_an_inexact_law_fails_every_lemma1_check"]),
    # Every listed case value passes replay.
    ("src/ghzcc/lowerbound.py", "ok = got == expected == packed", "ok = True",
     ["tests/test_lowerbound.py::TestCaseReplay::test_mutated_case_fails_replay"]),
    # Two words of one color never conflict: every apart graph looks 2-colorable.
    ("src/ghzcc/lowerbound.py", "elif color[w] == color[u]:", "elif color[w] != color[u]:",
     [REPLAY_CERTIFICATE]),
    # The apart pairs are the completions with equal answers.
    ("src/ghzcc/lowerbound.py", "if f1 != f2", "if f1 == f2",
     [REPLAY_CERTIFICATE]),
    # A bool row counts as a mask.
    ("src/ghzcc/lowerbound.py", "if type(row) is not int or", "if not isinstance(row, int) or",
     ["tests/test_lowerbound.py::TestTwoPartySearches::test_malformed_rows_rejected"]),
    # Carol's mask-1 set is left empty: no zero count can see it.
    ("src/ghzcc/lowerbound.py", "for m in range(1, 256):", "for m in range(2, 256):",
     ["tests/test_lowerbound.py::TestClosedFormBitmaps::test_xor_pull_is_its_docstring"]),
    # Every class without a weight-1 word goes to case 2.2.1, 111 or not.
    ("src/ghzcc/lowerbound.py", 'candidates = ("2.2.2",) if ALL3 in s0 else ("2.2.1",)',
     'candidates = ("2.2.1",)',
     ["tests/test_lowerbound.py::TestCoverage::test_all_partitions_mapped_and_verified"]),
    # The bit-1 branch's counts stand in for the bit-0 branch too.
    ("src/ghzcc/lowerbound.py", "zip(second, counts[m1 ^ full])", "zip(second, counts[m1])",
     ["tests/test_lowerbound.py::TestBlackboardSearch::test_breakdown_matches_two_branch_oracle"]),
    # Carol sends the low bit of her zero count, not the high one.
    ("src/ghzcc/lowerbound.py", "return high, low, high", "return high, low, low",
     ["tests/test_lowerbound.py::TestBroadcastSearch::"
      "test_three_bit_messages_match_the_protocol"]),
    # Bob's two bits join into the union of their classes, not the intersection.
    ("src/ghzcc/lowerbound.py", "b1 & b0 for b1", "b1 | b0 for b1",
     ["tests/test_lowerbound.py::TestBroadcastSearch::"
      "test_three_bit_messages_pass_the_same_fiber_check"]),
    # A message splitting s as "s minus row" is never valid.
    ("src/ghzcc/lowerbound.py", "return free << hits | free << (s ^ hits)",
     "return free << hits",
     ["tests/test_cli.py::TestSearch::test_paper_scope"]),
    # The third word without the promise's all-ones column.
    ("src/ghzcc/lowerbound.py", "return x ^ y ^ ALL3", "return x ^ y",
     ["tests/test_lowerbound.py::TestTwoPartySearches::"
      "test_ip3_is_the_carol_free_blackboard_slice"]),
    # A failing case check in verify no longer names its failures.
    ("src/ghzcc/bounds.py",
     '            **({"failures": list(case.failures)} if case.failures else {}),\n', "",
     ["tests/test_cli.py::test_a_failing_case_check_names_its_failures"]),
    # An in-process demo compiles the lower-bound code.
    ("src/ghzcc/cli.py", "from . import bitcore\n", "from . import bitcore, lowerbound\n",
     ["tests/test_package.py::test_demo_and_verify_without_cases_load_no_lowerbound"]),
    # A failed check exits like a usage error.
    ("src/ghzcc/cli.py", "EXIT_CHECK_FAILED = 1", "EXIT_CHECK_FAILED = 2",
     ["tests/test_cli.py::TestMainEntry::test_exit_statuses_are_the_readme_literals"]),
    # A refused argument escapes main as a traceback, not a usage error.
    ("src/ghzcc/cli.py", "if isinstance(exc, ValueError):", "if False:",
     ["tests/test_cli.py::TestMainEntry::test_main_exits_2_exactly_when_its_command_raises"]),
    # The report clock is never read at the end.
    ("src/ghzcc/cli.py", "self.elapsed_s = time.perf_counter() - self._start",
     "self.elapsed_s = 0.0",
     ["tests/test_cli.py::test_elapsed_is_the_report_clock_from_creation_to_finish"]),
    # The timing record loses a decimal place.
    ("src/ghzcc/cli.py", "round(report.elapsed_s, 6)", "round(report.elapsed_s, 5)",
     ["tests/test_cli.py::TestRenderOracle::test_timing_line_is_json_dumps"]),
    # Seed -1 slips past the in-process check.
    ("src/ghzcc/cli.py", "if seed < 0:", "if seed < -1:",
     ["tests/test_cli.py::test_negative_seed_raises_before_any_work"]),
    # A bool or float worker count heads a search report.
    ("src/ghzcc/cli.py", '_check_ints(seed, workers, "workers")',
     '_check_ints(seed, 1, "workers")',
     ["tests/test_cli.py::test_non_int_seed_or_length_raises_before_any_work"]),
    # The parser reads the case ids again, so every CLI process compiles lowerbound.
    ("src/ghzcc/cli.py", "def _build_parser() -> argparse.ArgumentParser:\n",
     "def _build_parser() -> argparse.ArgumentParser:\n    from . import lowerbound\n",
     ["tests/test_package.py::test_demo_and_verify_without_cases_load_no_lowerbound",
      "tests/test_package.py::test_each_module_imports_only_its_listed_modules"]),
    # A bool length builds a word that cannot be printed.
    ("src/ghzcc/bitcore.py", "if type(length) is not int or not 1 <= length",
     "if not 1 <= length",
     ["tests/test_bitcore.py::test_a_length_that_is_not_an_int_is_refused"]),
    # A float or bool bits builds a word that cannot be printed.
    ("src/ghzcc/bitcore.py", "if type(bits) is not int:", "if False:",
     ["tests/test_bitcore.py::TestValueTypes::test_validation_error_texts"]),
    # A bool or float table length passes the range check.
    ("src/ghzcc/bitcore.py", "if type(n) is not int or not 1 <= n <= MAX_TABLE_LENGTH:",
     "if not 1 <= n <= MAX_TABLE_LENGTH:",
     ["tests/test_bitcore.py::test_a_length_that_is_not_an_int_is_refused"]),
    # A derived slot counts as a field.
    ("src/ghzcc/bitcore.py", 'for name in self.__slots__ if name[0] != "_"}',
     "for name in self.__slots__}",
     ["tests/test_bitcore.py::TestValueTypes::test_derived_slots_are_not_fields"]),
    # A field can be assigned after __init__.
    ("src/ghzcc/bitcore.py", 'raise AttributeError(f"cannot assign to field {name!r}")',
     "_set(self, name, value)",
     ["tests/test_bitcore.py::TestValueTypes::test_fields_refuse_assignment_and_deletion"]),
    # An off-promise triple inside a command is reported as a refused argument.
    ("src/ghzcc/bitcore.py", "class PromiseViolation(InvariantViolation):",
     "class PromiseViolation(ValueError):",
     ["tests/test_cli.py::TestMainEntry::test_promise_fault_in_a_command_is_not_a_usage_error"]),
    # The column promise is never checked.
    ("src/ghzcc/bitcore.py", "bad = (x.bits ^ y.bits ^ z.bits) ^ all_ones", "bad = 0",
     ["tests/test_bitcore.py::TestPromiseTriple::test_bad_columns_rejected"]),
    # The column promise accepts 011 and 101.
    ("src/ghzcc/bitcore.py", "bad = (x.bits ^ y.bits ^ z.bits) ^ all_ones",
     "bad = ((x.bits ^ y.bits) | z.bits) ^ all_ones",
     ["tests/test_bitcore.py::TestPromiseTriple::"
      "test_each_illegal_column_refused_at_each_position"]),
    # The inner-product table reads x OR y, so sending y no longer computes the game.
    ("src/ghzcc/bitcore.py", "lambda x, y: (x & y).bit_count() & 1",
     "lambda x, y: (x | y).bit_count() & 1",
     ["tests/test_cli.py::TestMainEntry::test_exit_statuses_are_the_readme_literals"]),
    # The target function reads x AND y OR z.
    ("src/ghzcc/bitcore.py", "(t.x.bits & t.y.bits & t.z.bits)",
     "(t.x.bits & t.y.bits | t.z.bits)",
     ["tests/test_bitcore.py::TestGhzFunction::test_matches_string_oracle_n3"]),
)


def main() -> int:
    faults = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        # No bytecode: a restored file of the mutant's size, written in the same
        # second, would otherwise load the mutant's cached .pyc.
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(work / "src")}
        for path, snippet, replacement, tests in MUTANTS:
            label = f"{path}: {snippet.strip()!r} -> {replacement.strip()!r}"
            target = work / path
            original = target.read_text()
            if original.count(snippet) != 1:
                faults.append(f"snippet occurs {original.count(snippet)} times: {label}")
                continue
            target.write_text(original.replace(snippet, replacement))
            try:
                code = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                    cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                ).returncode
            finally:
                target.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(code, f"pytest exit {code}")
            print(f"{verdict}: {label}", flush=True)
            if verdict != "killed":
                faults.append(f"{verdict}: {label}")
    killed = len(MUTANTS) - len(faults)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f}s")
    for fault in faults:
        print(f"FAIL {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
