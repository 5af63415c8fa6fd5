"""CLI commands, report formats, and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ghzcc import cli, qsim
from ghzcc.bitcore import InvariantViolation
from ghzcc.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    cmd_demo,
    cmd_replay,
    cmd_search,
    cmd_verify,
    main,
    render_machine,
    render_text,
)


class TestDemo:
    def test_outputs_agree_and_pass(self):
        report = cmd_demo(3, seed=1)
        assert report.passed
        runs = [e for e in report.info if e["kind"] == "run"]
        assert len(runs) == 3
        assert len({e["output"] for e in runs}) == 1

    def test_minimal_length(self):
        assert cmd_demo(1, seed=0).passed

    def test_max_length_runs_without_enumeration(self):
        report = cmd_demo(32, seed=4)
        assert report.passed
        counts = {e["protocol"]: e["cost"] for e in report.info if e["kind"] == "run"}
        assert counts["classical_count"] == 2 * (32).bit_length()

    def test_seed_changes_input(self):
        a = cmd_demo(6, seed=1)
        b = cmd_demo(6, seed=2)
        input_a = next(e for e in a.info if e["kind"] == "input")
        input_b = next(e for e in b.info if e["kind"] == "input")
        assert input_a != input_b


class TestVerify:
    def test_lemma1_scope(self):
        report = cmd_verify("lemma1", n=3, seed=0)
        assert report.passed
        names = {c["name"] for c in report.checks}
        assert {
            "lemma1_column_001",
            "lemma1_column_010",
            "lemma1_column_100",
            "lemma1_column_111",
            "lemma1_001_exact_amplitudes",
            "hadamard_involution",
        } <= names

    def test_cases_scope(self):
        report = cmd_verify("cases", n=3, seed=0)
        assert report.passed
        case_checks = [c for c in report.checks if c["name"].startswith("case_")]
        assert len(case_checks) == 8  # seven cases + coverage

    def test_quantum_and_classical_scopes(self):
        assert cmd_verify("quantum", n=2, seed=0).passed
        assert cmd_verify("classical", n=3, seed=0).passed

    def test_all_scope(self):
        report = cmd_verify("all", n=2, seed=0)
        assert report.passed
        assert len(report.checks) > 10


class TestSearch:
    def test_paper_scope(self):
        report = cmd_search("paper", workers=1, seed=0)
        assert report.passed
        check = next(c for c in report.checks if c["name"].endswith("zero_feasible"))
        assert check["candidates"] == 16777216

    def test_ip3_scope(self):
        report = cmd_search("ip3", workers=1, seed=0)
        assert report.passed
        names = {c["name"] for c in report.checks}
        assert "ip3_two_bit_zero_feasible" in names
        assert "parity_one_bit_feasible_n4" in names

    def test_blackboard_scope(self):
        report = cmd_search("blackboard", workers=1, seed=0)
        assert report.passed
        names = {c["name"] for c in report.checks}
        assert "alice_first_zero_feasible" in names
        assert "relay_b_then_c_zero_feasible" in names


class TestReplay:
    def test_all_cases(self):
        report = cmd_replay(None)
        assert report.passed
        assert len(report.checks) == 8
        case_notes = [e for e in report.info if e["kind"] == "case"]
        assert len(case_notes) == 7

    def test_single_case(self):
        report = cmd_replay("2.2.1")
        assert report.passed
        assert len(report.checks) == 1


class TestReportFormats:
    def test_machine_format_is_json_lines(self):
        text = render_machine(cmd_demo(3, seed=1))
        lines = text.strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "header"
        assert records[0]["schema"] == cli.SCHEMA_VERSION
        assert records[-2]["type"] == "summary"
        assert records[-1]["type"] == "timing"
        checks = [r for r in records if r["type"] == "check"]
        assert all(isinstance(r["passed"], bool) for r in checks)

    def test_reports_byte_identical_apart_from_timing(self):
        def stripped(report) -> list[str]:
            return [
                line
                for line in render_machine(report).splitlines()
                if '"timing"' not in line
            ]

        assert stripped(cmd_demo(5, seed=9)) == stripped(cmd_demo(5, seed=9))
        assert stripped(cmd_verify("cases", 3, 0)) == stripped(cmd_verify("cases", 3, 0))

    def test_text_format_shape(self):
        text = render_text(cmd_demo(2, seed=0))
        lines = text.strip().split("\n")
        assert lines[0].startswith("# ghzcc demo")
        assert lines[1].startswith("params: ")
        assert any(line.startswith("summary: PASS") for line in lines)
        assert lines[-1].startswith("timing: ")


class TestMainEntry:
    def test_exit_ok(self, capsys):
        assert main(["demo", "--n", "3", "--seed", "1"]) == EXIT_OK
        assert "summary: PASS" in capsys.readouterr().out

    def test_machine_flag(self, capsys):
        assert main(["replay", "--case", "1", "--format", "machine"]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["command"] == "replay"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.jsonl"
        code = main(
            ["verify", "--scope", "lemma1", "--format", "machine", "--out", str(target)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        lines = target.read_text().strip().split("\n")
        assert json.loads(lines[-2])["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "--n", "0"],
            ["demo", "--n", "33"],
            ["verify", "--n", "9"],
            ["search", "--workers", "0"],
            ["verify", "--scope", "bogus"],
            ["nonsense"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE

    def test_verification_failure_exits_1(self, monkeypatch, capsys):
        def broken(column):
            raise InvariantViolation("forced failure for the exit-code contract")

        monkeypatch.setattr(qsim, "check_lemma1", broken)
        assert main(["verify", "--scope", "lemma1"]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghzcc", "demo", "--n", "2", "--seed", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "summary: PASS" in proc.stdout


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["search", "--scope", "paper", "--workers", "1", "--seed", "0"], "search_paper.jsonl"),
        (
            ["search", "--scope", "blackboard", "--workers", "1", "--seed", "0"],
            "search_blackboard.jsonl",
        ),
        (["search", "--scope", "ip3", "--workers", "1", "--seed", "0"], "search_ip3.jsonl"),
        (["replay"], "replay.jsonl"),
    ],
)
def test_machine_report_matches_golden(argv, golden, capsys):
    # Every line but the trailing timing record is fixed by the parameters.
    assert main(argv + ["--format", "machine"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert json.loads(lines[-1])["type"] == "timing"
    assert "".join(lines[:-1]) == (GOLDEN / golden).read_text(encoding="utf-8")
