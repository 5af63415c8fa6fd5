"""CLI commands, report formats, and exit codes."""

import errno
import io
import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from ghzcc import bitcore, cli, lowerbound, protocols, qsim
from ghzcc.bitcore import BitString, InvariantViolation
from ghzcc.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    cmd_demo,
    cmd_replay,
    cmd_search,
    cmd_verify,
    main,
    render_machine,
    render_text,
)
from ghzcc.lowerbound import CASES
from oracles import render_machine_reference


def child_env(*paths: Path) -> dict[str, str]:
    """os.environ with paths put before the caller's PYTHONPATH, if it has one."""
    inherited = os.environ.get("PYTHONPATH")
    entries = [*map(str, paths), *([inherited] if inherited else [])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


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

    @pytest.mark.parametrize(
        "scope, n",
        [("qauntum", 3), ("lemma1", 99), ("lemma1", 0), ("classical", 0), ("cases", -1)],
    )
    def test_bad_scope_or_length_raises_before_any_check(self, scope, n, monkeypatch):
        # main's choices and range check do not guard an in-process caller.
        monkeypatch.setattr(cli, "Report", lambda *args: pytest.fail("command ran"))
        with pytest.raises(ValueError, match=repr(scope) if n == 3 else f"got {n}"):
            cmd_verify(scope, n, 0)


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

    def test_unknown_scope_raises_before_any_search(self, monkeypatch):
        # lowerbound.search alone refuses the scope, before it counts anything.
        for name in dir(lowerbound):
            if name.startswith("search_"):
                monkeypatch.setattr(lowerbound, name, lambda *a, **k: pytest.fail("searched"))
        with pytest.raises(ValueError, match="'blackbord'"):
            cmd_search("blackbord", 1, 0)

    def test_checker_refuses_an_unknown_scope(self):
        # The checker must not pass a report with nothing checked.
        report = cli.Report("search", {})
        with pytest.raises(ValueError, match="'bogus'"):
            lowerbound.search(report, "bogus", 1)
        assert (report.info, report.checks) == ([], [])

    def test_an_engine_that_validates_nothing_fails_the_three_bit_check(self, monkeypatch):
        # The zero may still read 0; the three-bit line asks the same engine and fails.
        monkeypatch.setattr(lowerbound, "_split_bitmap", lambda row, s, full: 0)
        checks = {c["name"]: c["passed"] for c in cmd_search("paper", 1, 0).checks}
        assert checks["three_bit_messages_feasible"] is False


@pytest.mark.parametrize(
    "command, args",
    [(cmd_demo, (5, -5)), (cmd_verify, ("quantum", 2, -3)), (cmd_search, ("paper", 1, -1))],
    ids=["demo", "verify", "search"],
)
def test_negative_seed_raises_before_any_work(command, args, monkeypatch):
    # main rejects --seed < 0, but an in-process caller skips main, and
    # random.Random(-5) would print seed 5's report under a "seed -5" header.
    monkeypatch.setattr(cli, "Report", lambda *a: pytest.fail("command ran"))
    with pytest.raises(ValueError, match=f"seed must be >= 0, got {args[-1]}"):
        command(*args)


@pytest.mark.parametrize(
    "command, args, name",
    [(cmd_demo, (5, True), "seed"), (cmd_demo, (5, 1.0), "seed"), (cmd_demo, (5.0, 1), "n"),
     (cmd_verify, ("lemma1", 2, True), "seed"), (cmd_verify, ("lemma1", 2.0, 0), "n"),
     (cmd_verify, ("lemma1", True, 0), "n"), (cmd_search, ("paper", 1, 1.0), "seed"),
     (cmd_search, ("paper", 1, False), "seed"), (cmd_search, ("ip3", True, 0), "workers"),
     (cmd_search, ("ip3", 2.5, 0), "workers")],
    ids=["demo-bool-seed", "demo-float-seed", "demo-float-n", "verify-bool-seed",
         "verify-float-n", "verify-bool-n", "search-float-seed", "search-bool-seed",
         "search-bool-workers", "search-float-workers"],
)
def test_non_int_seed_or_length_raises_before_any_work(command, args, name, monkeypatch):
    # main's argparse passes only ints, but an in-process caller could head
    # seed 1's report with "seed": true or 1.0, or a search's with "workers": true.
    monkeypatch.setattr(cli, "Report", lambda *a: pytest.fail("command ran"))
    with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
        command(*args)


@pytest.mark.parametrize(
    "command, args",
    [(cmd_demo, (3, 0)), (cmd_verify, ("lemma1", 1, 0)), (cmd_search, ("ip3", 1, 0)),
     (cmd_replay, ("2.2.1",))],
    ids=["demo", "verify", "search", "replay"],
)
def test_elapsed_is_the_report_clock_from_creation_to_finish(command, args, monkeypatch):
    # Reading k of the fake clock is k * k seconds, so each pair of readings has
    # its own difference.
    readings = []

    def clock():
        readings.append(len(readings) ** 2)
        return float(readings[-1])

    stamps = {}

    class Stamped(cli.Report):
        # Each clock reading taken inside __init__ and finish, by method name.
        def __init__(self, *args):
            before = len(readings)
            super().__init__(*args)
            stamps["__init__"] = readings[before:]

        def finish(self):
            before = len(readings)
            report = super().finish()
            stamps["finish"] = readings[before:]
            return report

    monkeypatch.setattr(time, "perf_counter", clock)
    monkeypatch.setattr(cli, "Report", Stamped)
    report = command(*args)
    assert report.passed
    [start], [end] = stamps["__init__"], stamps["finish"]
    assert end > start
    assert report.elapsed_s == end - start


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

    def test_empty_case_id_is_unknown(self):
        # Only None means all cases; "" must not replay all seven as "case: all".
        with pytest.raises(ValueError, match="unknown case id ''"):
            cmd_replay("")


def test_a_failing_case_check_names_its_failures(monkeypatch):
    # Case 1's first listed value flipped: verify names the failure replay prints.
    witness = CASES["1"]
    probes = (witness.probes[0]._replace(f_values=(0, 0, 1)), *witness.probes[1:])
    monkeypatch.setattr(lowerbound, "CASES", {**CASES, "1": witness._replace(probes=probes)})
    failures = ["(001,001,111): listed value 0, re-derived 1 (packed 1)"]
    verify = {c["name"]: c for c in cmd_verify("cases", 1, 0).checks}
    replay = {c["name"]: c for c in cmd_replay(None).checks}
    assert verify["case_1"]["failures"] == replay["case_1"]["failures"] == failures
    assert not verify["case_1"]["passed"] and "failures" not in verify["case_2.1.1"]


def _without_the_2_2_2_class(monkeypatch):
    # Side 1 never holds 000, so no partition is mapped onto case 2.2.2.
    monkeypatch.setattr(lowerbound, "CASES",
                        {**CASES, "2.2.2": CASES["2.2.2"]._replace(class_side=1)})


def _no_permutation_fits(monkeypatch):
    # Each permuted class holds 8, a word no side has, so no partition is mapped.
    monkeypatch.setattr(lowerbound, "_permute_set", lambda values, perm: frozenset({8}))


@pytest.mark.parametrize(
    "patch, unmapped",
    [(_without_the_2_2_2_class, [a.partition for a in lowerbound.case_cover_check().assignments
                                 if a.case_id == "2.2.2"]),
     (_no_permutation_fits, list(range(0, 256, 2)))],
    ids=["class_side", "permute_set"],
)
def test_a_failing_case_cover_names_its_unmapped_masks(patch, unmapped, monkeypatch):
    patch(monkeypatch)
    for report in (cmd_verify("cases", 1, 0), cmd_replay(None)):
        cover = next(c for c in report.checks if c["name"] == "case_cover")
        assert not cover["passed"] and cover["unmapped_masks"] == unmapped


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

    def test_timing_record_leads_with_its_type(self):
        # Readers strip the timing record by this prefix; its keys are not sorted.
        last = render_machine(cmd_demo(3, seed=1)).splitlines()[-1]
        assert last.startswith('{"type": "timing", "elapsed_s": ')

    def test_text_format_shape(self):
        text = render_text(cmd_demo(2, seed=0))
        lines = text.strip().split("\n")
        assert lines[0].startswith("# ghzcc demo")
        assert lines[1].startswith("params: ")
        assert any(line.startswith("summary: PASS") for line in lines)
        assert lines[-1].startswith("timing: ")


def _keys_are_str(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(k, str) and _keys_are_str(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return all(_keys_are_str(v) for v in value)
    return True


class _Labelled:
    def __str__(self) -> str:
        return "labelled \u00e9"


def _reference_reports():
    for n in range(1, 33):
        for seed in range(5):
            yield cmd_demo(n, seed)
    yield cmd_verify("all", 3, 0)
    for scope in cli.SEARCH_SCOPES:
        yield cmd_search(scope, 1, 0)
    yield cmd_replay(None)


def _odd_report():
    report = cli.Report("demo", {"seed": 3, "tags": ("b", "a", 10)})
    report.note("mixed", pair=(1, "x"), nested={"z": {"y": [None, 0.5]}, "a": ()},
                text="gr\u00fc\u00dfe \u2192 \u2713", ratio=1 / 3, missing=None,
                cells=[((1, 2), (0, 5)), []])
    report.check("odd", True, value=2.5e-7, scores={"s": [3, 1, 2]})
    report.check("failing", False)
    return report


def _report_holding(place: str, value):
    """A report with value in its params, a note or a check."""
    report = cli.Report("demo", {"tags": value} if place == "params" else {})
    if place == "note":
        report.note("mixed", nested={"z": [value]})
    if place == "check":
        report.check("odd", True, obj=value)
    return report


# Values json has no rule for, in the places the encoder's hook used to reach.
_NOT_JSON = [
    ("params", {"b", "a", 10}),
    ("note", frozenset({(1, 2), (0, 5)})),
    ("note", _Labelled()),
    ("check", {"s": {3, 1, 2}}),
    ("check", _Labelled()),
]


class TestRenderOracle:
    """render_machine against the walk-then-encode renderer it replaced."""

    def test_command_reports_render_as_the_reference(self):
        for report in _reference_reports():
            # A non-str key is where the encoder's own key handling and str(key) part.
            assert _keys_are_str([report.params, report.info, report.checks])
            assert render_machine(report) == render_machine_reference(report)

    def test_odd_values_render_as_the_reference(self):
        report = _odd_report()
        assert _keys_are_str([report.params, report.info, report.checks])
        assert render_machine(report) == render_machine_reference(report)

    @pytest.mark.parametrize("place,value", _NOT_JSON)
    def test_non_json_values_raise(self, place, value, monkeypatch):
        report = _report_holding(place, value)
        with pytest.raises(TypeError):
            render_machine(report)
        with pytest.raises(TypeError):
            render_machine_reference(report)
        # json's pure-Python encoder, the fallback without the C one, raises too.
        monkeypatch.setattr(cli, "_encode", cli._json.encode)
        with pytest.raises(TypeError):
            render_machine(report)

    def test_timing_line_is_json_dumps(self):
        report = cli.Report("demo", {})
        for elapsed in (0.0, 4e-7, 2.5e-6, 0.1234565, 1 / 3, 7.0, 12345.678901234, 1e16, 3):
            report.elapsed_s = elapsed
            assert render_machine(report) == render_machine_reference(report)

    def test_fallback_without_c_encoder_renders_the_same(self, monkeypatch):
        # Without json's C encoder, _encode is _json.encode, which then runs
        # json's pure-Python encoder: it must give the same bytes.
        reports = [*_reference_reports(), _odd_report()]
        fast = [render_machine(report) for report in reports]
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        monkeypatch.setattr(cli, "_encode", cli._json.encode)
        assert [render_machine(report) for report in reports] == fast


# Each CLI bound beside the in-process check behind it, as (argv, command,
# its arguments, rejected). main has no rules of its own: it turns the command's
# ValueError into exit 2, so the two agree by construction, and this table is
# the regression test of that.
_SEED_COMMANDS = (
    (["demo"], "cmd_demo", (3,)),
    (["verify", "--scope", "lemma1"], "cmd_verify", ("lemma1", 3)),
    (["search"], "cmd_search", ("paper", 1)),
)
ARGUMENT_BOUNDS = [
    *((["demo", "--n", str(n)], "cmd_demo", (n, 0), n in (0, 33)) for n in (0, 1, 32, 33)),
    *((["verify", "--scope", "lemma1", "--n", str(n)], "cmd_verify", ("lemma1", n, 0), n in (0, 9))
      for n in (0, 1, 8, 9)),
    *((["search", "--workers", str(w)], "cmd_search", ("paper", w, 0), w == 0) for w in (0, 1)),
    *(([*argv, "--seed", str(seed)], command, (*args, seed), seed < 0)
      for argv, command, args in _SEED_COMMANDS for seed in (-1, 0)),
    *((["replay", "--case", case], "cmd_replay", (case,), case in ("9", ""))
      for case in ("1", "2.2.2", "9", "")),
]


class TestMainEntry:
    @pytest.mark.parametrize("argv, command, args, rejected", ARGUMENT_BOUNDS,
                             ids=[" ".join(bound[0]) for bound in ARGUMENT_BOUNDS])
    def test_main_exits_2_exactly_when_its_command_raises(self, argv, command, args,
                                                          rejected, capsys):
        try:
            getattr(cli, command)(*args)
            raised = False
        except ValueError:
            raised = True
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (raised, code) == (rejected, 2 if rejected else EXIT_OK)

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
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [[], ["demo"], ["verify"], ["search"], ["replay"]])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"usage: {' '.join(['ghzcc', *command])} ")
        if command == ["replay"]:
            # The parser lists no case ids: replay_case alone decides them.
            assert "--case CASE" in out and "every case if left out" in out

    def test_demo_help_reads_the_length_bound(self, monkeypatch, capsys):
        monkeypatch.setattr(bitcore, "MAX_LENGTH", 16)
        with pytest.raises(SystemExit):
            main(["demo", "--help"])
        assert "input length (1..16)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["demo", "--n", "40"], "n must be in 1..32, got 40"),
            (["verify", "--n", "9"], "verify n must be in 1..8, got 9"),
            (["search", "--workers", "0"], "workers must be >= 1, got 0"),
            (["demo", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["replay", "--case", "9"], f"unknown case id '9'; know {sorted(CASES)}"),
        ],
        ids=["demo-n", "verify-n", "search-workers", "demo-seed", "replay-case"],
    )
    def test_rejected_arguments_never_touch_out(self, argv, message, tmp_path, capsys):
        # The command refuses after the --out pre-open, and main removes the file
        # that the pre-open created.
        target = tmp_path / "new.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(target)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"ghzcc: error: {message}"
        assert not target.exists()

    def test_unwritable_out_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # The path is checked before the command runs, so the command never starts.
        monkeypatch.setattr(cli, "cmd_replay", lambda case: pytest.fail("command ran"))
        target = tmp_path / "missing" / "report.txt"
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--out", str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("ghzcc: error: cannot write --out ")
        assert not target.parent.exists()

    def test_existing_out_survives_an_interrupted_command(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "report.txt"
        old = "OLD REPORT\n" * 1000
        target.write_text(old)

        def interrupted(case):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(cli, "cmd_replay", interrupted)
            with pytest.raises(KeyboardInterrupt):
                main(["replay", "--out", str(target)])
        assert target.read_text() == old
        # A command that finishes replaces the whole file, however long it was.
        assert main(["replay", "--case", "1", "--out", str(target)]) == EXIT_OK
        report = target.read_text()
        assert report.startswith("# ghzcc replay") and "OLD REPORT" not in report

    def test_existing_out_survives_a_refused_argument(self, tmp_path, capsys):
        # The mode-"a" pre-open writes nothing, so a refusal leaves the old bytes.
        target = tmp_path / "report.txt"
        old = b"OLD REPORT\r\n\x00" * 1000
        target.write_bytes(old)
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--n", "40", "--out", str(target)])
        assert exc.value.code == 2
        assert target.read_bytes() == old

    def test_new_out_is_removed_after_an_interrupted_command(self, tmp_path, monkeypatch):
        target = tmp_path / "report.txt"

        def interrupted(case):
            assert target.exists()  # the pre-open made it
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_replay", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["replay", "--out", str(target)])
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "--n", "3", "--seed", "-5"],
            ["verify", "--scope", "quantum", "--n", "2", "--seed", "-5"],
            ["search", "--scope", "ip3", "--seed", "-5"],
        ],
        ids=["demo", "verify", "search"],
    )
    def test_negative_seed_is_a_usage_error(self, argv, monkeypatch, capsys):
        # random.Random seeds with abs(seed), so -5 would print seed 5's body. The
        # command refuses before it makes its report, so no work starts.
        monkeypatch.setattr(cli, "Report", lambda *args: pytest.fail("command ran"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "ghzcc: error: seed must be >= 0, got -5"

    def test_failed_out_write_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # The path opens, but the report's write fails after every check passed.
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        target = tmp_path / "report.txt"
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--out", str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"ghzcc: error: cannot write --out {target}: No space left on device"

    def test_promise_fault_in_a_command_is_not_a_usage_error(self, monkeypatch):
        # An off-promise triple is a package fault: it escapes main, not as exit 2.
        def off_promise(n, rng):
            return bitcore.PromiseTriple.from_strs("0" * n, "0" * n, "0" * n)

        monkeypatch.setattr(bitcore, "random_promise_triple", off_promise)
        with pytest.raises(bitcore.PromiseViolation, match="column 3 is 000"):
            main(["demo", "--n", "3"])

    def test_verification_failure_exits_1(self, monkeypatch, capsys):
        def broken(column):
            raise InvariantViolation("forced failure for the exit-code contract")

        monkeypatch.setattr(qsim, "transformed_state", broken)
        assert main(["verify", "--scope", "lemma1"]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_exit_statuses_are_the_readme_literals(self, monkeypatch, capsys):
        # README: "Exit status is 0 when every check in the report passed, 1 when any
        # failed, and 2 for usage errors". The other tests compare against the names, and
        # against the 2 that argparse's parser.error exits with; this one pins the names
        # and what main returns to the documented literals.
        assert (EXIT_OK, EXIT_CHECK_FAILED) == (0, 1)
        assert main(["search", "--scope", "ip3"]) == 0

        def broken(column):
            raise InvariantViolation("forced failure for the exit-status literals")

        monkeypatch.setattr(qsim, "transformed_state", broken)
        assert main(["verify", "--scope", "lemma1"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--n", "0"])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        env = child_env(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ghzcc", "demo", "--n", "2", "--seed", "3"],
            capture_output=True,
            text=True,
            env=env,
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
        (["demo", "--n", "1", "--seed", "0"], "demo_n1_seed0.jsonl"),
        (["demo", "--n", "1", "--seed", "7"], "demo_n1_seed7.jsonl"),
        (["demo", "--n", "3", "--seed", "0"], "demo_n3_seed0.jsonl"),
        (["demo", "--n", "3", "--seed", "7"], "demo_n3_seed7.jsonl"),
        (["demo", "--n", "32", "--seed", "0"], "demo_n32_seed0.jsonl"),
        (["demo", "--n", "32", "--seed", "7"], "demo_n32_seed7.jsonl"),
        (["verify", "--scope", "all", "--n", "3", "--seed", "0"], "verify_all_n3_seed0.jsonl"),
        (["demo", "--n", "5", "--seed", "0"], "demo_n5_seed0.jsonl"),
        (["demo", "--n", "12", "--seed", "0"], "demo_n12_seed0.jsonl"),
        (["demo", "--n", "20", "--seed", "0"], "demo_n20_seed0.jsonl"),
    ],
)
def test_machine_report_matches_golden(argv, golden, capsys):
    # Every line but the trailing timing record is fixed by the parameters.
    assert main(argv + ["--format", "machine"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert json.loads(lines[-1])["type"] == "timing"
    assert "".join(lines[:-1]) == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["replay"], "replay.txt"),
        (["replay", "--case", "2.2.1"], "replay_case_2.2.1.txt"),
        (["verify", "--scope", "cases"], "verify_cases.txt"),
        (["demo", "--n", "5", "--seed", "0"], "demo_n5_seed0.txt"),
        (
            ["search", "--scope", "blackboard", "--workers", "1", "--seed", "0"],
            "search_blackboard.txt",
        ),
    ],
)
def test_text_report_matches_golden(argv, golden, capsys):
    # Every line but the trailing timing line is fixed by the parameters.
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[-1].startswith("timing: ")
    assert "".join(lines[:-1]) == (GOLDEN / golden).read_text(encoding="utf-8")


def machine_checks(text: str) -> dict[str, dict]:
    return {r["name"]: r for r in map(json.loads, text.splitlines()) if r["type"] == "check"}


def test_demo_audits_each_run_once(monkeypatch):
    calls = []
    real = protocols.audit_run

    def counting(result):
        calls.append(result)
        return real(result)

    monkeypatch.setattr(protocols, "audit_run", counting)
    report = cmd_demo(32, seed=11)
    assert report.passed
    assert len(calls) == 3
    assert len({id(result) for result in calls}) == 3


def test_lemma1_state_fault_is_a_failed_check(monkeypatch, capsys):
    def broken(column):
        raise InvariantViolation(f"forced fault for {column}")

    monkeypatch.setattr(qsim, "transformed_state", broken)
    assert main(["verify", "--scope", "lemma1", "--format", "machine"]) == EXIT_CHECK_FAILED
    checks = machine_checks(capsys.readouterr().out)
    for label in ("001", "010", "100", "111"):
        check = checks[f"lemma1_column_{label}"]
        assert not check["passed"]
        assert check["error"].startswith("InvariantViolation: forced fault")
    assert not checks["lemma1_001_exact_amplitudes"]["passed"]
    assert checks["hadamard_involution"]["passed"]


def test_a_wrong_parity_outcome_is_named(monkeypatch, capsys):
    # Every column left as the shared triple: its odd-parity outcomes are
    # wrong for the three columns whose AND is 0, and right for 111.
    monkeypatch.setattr(qsim, "transformed_state", lambda column: qsim.mermin_state())
    assert main(["verify", "--scope", "lemma1", "--format", "machine"]) == EXIT_CHECK_FAILED
    checks = machine_checks(capsys.readouterr().out)
    odd = ["001", "010", "100", "111"]
    for label in ("001", "010", "100"):
        check = checks[f"lemma1_column_{label}"]
        assert not check["passed"]
        assert (check["product"], check["support"], check["wrong_parity"]) == (0, odd, odd)
        assert "error" not in check
    assert checks["lemma1_column_111"] == {"name": "lemma1_column_111", "passed": True,
                                           "product": 1, "support": odd, "type": "check"}


# Fault injection. Each fault wraps the real transcript engine, so the
# injected protocol differs from the real one in exactly one place.
def non_bit_output(monkeypatch):
    # A sent bit is always a bit of a view; Alice's decoder is the one place
    # a non-bit can still arise.
    real = protocols.run_protocol

    def run(inputs, view, steps, output_fn):
        return real(inputs, view, steps, lambda word, received: 2)

    monkeypatch.setattr(protocols, "run_protocol", run)


def wrong_bit_on_the_wire(monkeypatch):
    real = protocols.run_protocol

    def run(*args, **kwargs):
        result = real(*args, **kwargs)
        first, *rest = result.bits
        return result._replace(bits=(first ^ 1, *rest))

    monkeypatch.setattr(protocols, "run_protocol", run)


def miscounting_bob(monkeypatch):
    # Bob reads his input through count_zeros() ^ 1, which flips his low count
    # bit; the run records that view, so its audit replays the same miscount.
    real = protocols.run_protocol

    def run(inputs, view, steps, output_fn):
        if view is BitString.count_zeros:
            bob = inputs["B"]
            view = lambda word: word.count_zeros() ^ (word is bob)
        return real(inputs, view, steps, output_fn)

    monkeypatch.setattr(protocols, "run_protocol", run)


def flipped_output(monkeypatch):
    # Alice's recorded output is flipped after her decoder ran.
    real = protocols.run_protocol

    def run(*args, **kwargs):
        result = real(*args, **kwargs)
        return result._replace(output=result.output ^ 1)

    monkeypatch.setattr(protocols, "run_protocol", run)


def extra_bit(monkeypatch):
    real = protocols.run_protocol

    def run(*args, **kwargs):
        result = real(*args, **kwargs)
        return result._replace(bits=(*result.bits, 0))

    monkeypatch.setattr(protocols, "run_protocol", run)


FIRST_TRIPLE = "(x=0, y=0, z=1)"  # enumerate_promise(1) starts with column 001
NON_BIT = "InvariantViolation: A produced a non-bit output 2"
ODD_TOTAL = "InvariantViolation: zero-count total"


@pytest.mark.parametrize(
    "inject,scope,check,reason",
    [
        (non_bit_output, "quantum", "quantum_exhaustive_n1", NON_BIT),
        (non_bit_output, "classical", "classical_three_bit_n1", NON_BIT),
        (non_bit_output, "classical", "classical_count_n1", NON_BIT),
        (wrong_bit_on_the_wire, "quantum", "quantum_exhaustive_n1", "audit: record 0: bit"),
        (wrong_bit_on_the_wire, "classical", "classical_three_bit_n1", "audit: record 0: bit"),
        (wrong_bit_on_the_wire, "classical", "classical_count_n1", "audit: record 0: bit"),
        (miscounting_bob, "classical", "classical_count_n1", ODD_TOTAL),
    ],
    ids=["non_bit-quantum", "non_bit-three_bit", "non_bit-count", "wrong_bit",
         "wrong_bit-three_bit", "wrong_bit-count", "miscount"],
)
def test_injected_fault_fails_verify_with_witness(
    inject, scope, check, reason, monkeypatch, capsys
):
    inject(monkeypatch)
    argv = ["verify", "--scope", scope, "--n", "2", "--seed", "0", "--format", "machine"]
    assert main(argv) == EXIT_CHECK_FAILED
    failed = machine_checks(capsys.readouterr().out)[check]
    assert not failed["passed"]
    assert failed["witness"]["triple"] == FIRST_TRIPLE
    assert failed["witness"]["reason"].startswith(reason)


def test_an_inexact_law_fails_every_lemma1_check(monkeypatch, capsys):
    # p^2 + q^2 puts the shared triple's norm at 4/8, so no state can be built;
    # each check names the fault instead of the command raising it.
    monkeypatch.setattr(qsim, "_weight", lambda amp: amp[0] ** 2 + amp[1] ** 2)
    # A cache of its own, so no state built before or during the patch is reused.
    monkeypatch.setattr(qsim, "transformed_state", lru_cache(qsim.transformed_state.__wrapped__))
    assert main(["verify", "--scope", "lemma1", "--format", "machine"]) == EXIT_CHECK_FAILED
    checks = machine_checks(capsys.readouterr().out)
    assert len(checks) == 6
    for check in checks.values():
        assert not check["passed"]
        assert check["error"] == "InvariantViolation: squared norm is 4/8, not exactly 1"


def test_miscount_reaches_the_three_bit_protocol(monkeypatch, capsys):
    # Both classical protocols share the count schedule, so flipping Bob's low
    # count bit also corrupts the three-bit run. Its even total still decodes,
    # to the wrong parity of k.
    miscounting_bob(monkeypatch)
    argv = ["verify", "--scope", "classical", "--n", "1", "--format", "machine"]
    assert main(argv) == EXIT_CHECK_FAILED
    witness = machine_checks(capsys.readouterr().out)["classical_three_bit_n1"]["witness"]
    assert witness["triple"] == "(x=1, y=0, z=0)"
    assert witness["reason"] == "output 1, expected 0"


def test_wrong_bit_witness_carries_transcript_and_audit_failures(monkeypatch):
    wrong_bit_on_the_wire(monkeypatch)
    report = cmd_verify("quantum", 1, 0)
    witness = report.checks[0]["witness"]
    assert witness["transcript"].startswith("B->A:")
    assert "not reproducible from B's local view" in witness["reason"]


def test_verify_audits_every_run_once(monkeypatch):
    # Runs whose output is already wrong are audited too, each exactly once.
    flipped_output(monkeypatch)
    calls = []
    real = protocols.audit_run

    def counting(result):
        calls.append(result)
        return real(result)

    monkeypatch.setattr(protocols, "audit_run", counting)
    report = cmd_verify("all", 2, 0)
    runs = 2 * (4 + 16) + 2 * (4 + 16)  # quantum: two runs per triple; classical: two protocols
    assert len(calls) == runs
    assert len({id(result) for result in calls}) == runs
    witnesses = [c["witness"] for c in report.checks if "witness" in c]
    assert len(witnesses) == 6
    assert all(w["reason"].startswith("output ") for w in witnesses)


@pytest.mark.parametrize(
    "injects,reasons",
    [
        ((wrong_bit_on_the_wire, flipped_output),
         {"quantum_exhaustive_n1": "output 1, expected 0",
          "classical_three_bit_n1": "output 1, expected 0",
          "classical_count_n1": "output 1, expected 0"}),
        ((extra_bit,),
         {"quantum_exhaustive_n1": "cost 3, expected 2",
          "classical_three_bit_n1": "cost 4, expected 3",
          "classical_count_n1": "cost 3, expected 2"}),
    ],
    ids=["output-before-audit", "cost-before-audit"],
)
def test_witness_reason_order(injects, reasons, monkeypatch):
    # A run that fails several ways is named by its output, then its cost,
    # then its audit.
    for inject in injects:
        inject(monkeypatch)
    report = cmd_verify("all", 1, 0)
    witnesses = {c["name"]: c["witness"] for c in report.checks if "witness" in c}
    assert {name: w["reason"] for name, w in witnesses.items()} == reasons
    assert all(w["triple"] == FIRST_TRIPLE for w in witnesses.values())


@pytest.mark.parametrize(
    "inject,failing",
    [
        (non_bit_output, {"quantum_matches_direct", "three_bit_matches_direct",
                          "count_matches_direct", "quantum_cost_two", "three_bit_cost_three",
                          "count_cost_formula", "audits_pass"}),
        (wrong_bit_on_the_wire, {"audits_pass"}),
        (miscounting_bob, {"count_matches_direct", "count_cost_formula", "audits_pass"}),
    ],
    ids=["non_bit", "wrong_bit", "miscount"],
)
def test_injected_fault_fails_demo_with_witness(inject, failing, monkeypatch, capsys):
    inject(monkeypatch)
    assert main(["demo", "--n", "5", "--seed", "3", "--format", "machine"]) == EXIT_CHECK_FAILED
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    checks = {r["name"]: r for r in records if r["type"] == "check"}
    assert {name for name, c in checks.items() if not c["passed"]} == failing
    triple = next(r for r in records if r.get("kind") == "input")
    for name in failing & {"quantum_matches_direct", "count_matches_direct"}:
        assert checks[name]["triple"] == f"(x={triple['x']}, y={triple['y']}, z={triple['z']})"
        assert checks[name]["error"].startswith("InvariantViolation: ")
    assert checks["audits_pass"]["witness"]


def test_injected_fault_fails_under_optimized_python():
    # python -O strips asserts; the fault must still surface as a failed check.
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, pytest\n"
        "from ghzcc import cli\n"
        "from test_cli import miscounting_bob\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    miscounting_bob(mp)\n"
        "    argv = ['verify', '--scope', 'classical', '--n', '2', '--format', 'machine']\n"
        "    sys.exit(cli.main(argv))\n"
    )
    env = child_env(src, Path(__file__).parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == EXIT_CHECK_FAILED, proc.stderr
    witness = machine_checks(proc.stdout)["classical_count_n1"]["witness"]
    assert witness["triple"] == FIRST_TRIPLE
    assert witness["reason"].startswith(ODD_TOTAL)
