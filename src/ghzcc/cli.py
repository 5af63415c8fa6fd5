"""Command-line front end: demos, exhaustive verification, searches, case replay.

Reports carry a schema version and come in two renderings: human text and a
line-delimited JSON document. Timing is isolated in a dedicated trailing
record so that reports with identical parameters and seeds are byte-identical
everywhere else.

A command loads only the layers it runs. `cmd_demo` and verify's lemma1,
quantum and classical sections run in `runs`, loaded on first use with the
protocol and quantum-simulation layers. `cmd_search`, `cmd_replay`, verify's
cases section and the argument parser load `lowerbound`, so an in-process
demo or verify without cases never compiles it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import TYPE_CHECKING, Any

from . import bitcore

if TYPE_CHECKING:
    from . import lowerbound

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

VERIFY_SCOPES = ("lemma1", "quantum", "classical", "cases", "all")
SEARCH_SCOPES = ("paper", "blackboard", "ip3")
MAX_VERIFY_N = 8


@functools.cache
def _runs():
    """The run checker (`runs`), imported by the first demo or verify.

    Search and replay never load it, nor the protocol and quantum-simulation
    layers it imports. A cached call costs less per demo request than an
    import statement.
    """
    from . import runs

    return runs


class Report:
    """One command's checks and notes, rendered by render_machine or render_text.

    Each entry is held as its final machine record, "type" key included.
    """

    def __init__(self, command: str, params: dict[str, Any]) -> None:
        self.command = command
        self.params = params
        self.checks: list[dict[str, Any]] = []
        self.info: list[dict[str, Any]] = []
        self.elapsed_s = 0.0
        self.schema = SCHEMA_VERSION

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c["passed"])

    @property
    def passed(self) -> bool:
        return not self.failed

    def check(self, name: str, passed: bool, **detail: Any) -> bool:
        self.checks.append({"type": "check", "name": name, "passed": bool(passed), **detail})
        return passed

    def note(self, kind: str, **detail: Any) -> None:
        self.info.append({"type": "info", "kind": kind, **detail})


# json.dumps(..., sort_keys=True) with no cycle check and one C encoder per
# process: JSONEncoder.encode builds a new one on every call. A value json has
# no rule for raises TypeError through JSONEncoder.default.
_json = json.JSONEncoder(sort_keys=True, check_circular=False)
_encode = (_json.encode if json.encoder.c_make_encoder is None else
           lambda record, _iterencode=json.encoder.c_make_encoder(
               None, _json.default, json.encoder.encode_basestring_ascii, _json.indent,
               _json.key_separator, _json.item_separator, _json.sort_keys,
               _json.skipkeys, _json.allow_nan): "".join(_iterencode(record, 0)))


def render_machine(report: Report) -> str:
    records = [{"type": "header", "schema": report.schema, "command": report.command,
                "params": report.params}]
    records += report.info
    records += report.checks
    failed = report.failed
    records.append({"type": "summary", "passed": not failed,
                    "checks": len(report.checks), "failed": failed})
    # json writes a float as its repr, so this is json.dumps of the timing record.
    timing = f'{{"type": "timing", "elapsed_s": {round(report.elapsed_s, 6)!r}}}'
    return "\n".join([*map(_encode, records), timing]) + "\n"


def render_text(report: Report) -> str:
    lines = [f"# ghzcc {report.command} (schema {report.schema})"]
    lines.append(
        "params: " + " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    )
    for entry in report.info:
        kind = entry["kind"]
        rest = " ".join(
            f"{k}={_compact(v)}" for k, v in entry.items() if k not in ("type", "kind")
        )
        lines.append(f"  {kind}: {rest}")
    for entry in report.checks:
        status = "PASS" if entry["passed"] else "FAIL"
        rest = " ".join(
            f"{k}={_compact(v)}"
            for k, v in entry.items()
            if k not in ("type", "name", "passed")
        )
        lines.append(f"check {entry['name']}: {status}" + (f" ({rest})" if rest else ""))
    failed = report.failed
    overall = "FAIL" if failed else "PASS"
    lines.append(f"summary: {overall} ({len(report.checks)} checks, {failed} failed)")
    lines.append(f"timing: {report.elapsed_s:.3f}s")
    return "\n".join(lines) + "\n"


def _compact(value: Any) -> str:
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_compact(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_compact(v) for v in value) + "]"
    return str(value)


def _check_seed(seed: int) -> None:
    # random.Random(-s) replays seed s, so a negative seed would head s's report.
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def cmd_demo(n: int, seed: int) -> Report:
    """Random promise triple through all three protocols, transcripts shown.

    A negative seed raises ValueError before any run.
    """
    _check_seed(seed)
    start = time.perf_counter()
    report = Report("demo", {"n": n, "seed": seed})
    _runs().demo(report, n, seed)
    report.elapsed_s = time.perf_counter() - start
    return report


def _verify_cases(report: Report) -> None:
    from . import lowerbound

    for case_id in sorted(lowerbound.CASES):
        case = lowerbound.replay_case(case_id)
        report.check(
            f"case_{case_id}",
            case.passed,
            tuples=len(case.tuple_checks),
            joint_feasible=case.feasibility.feasible,
        )
    coverage = lowerbound.case_cover_check()
    report.check(
        "case_cover",
        coverage.passed,
        partitions=coverage.total,
        mapped=len(coverage.assignments),
        unmapped=len(coverage.unmapped),
        counts={k: v for k, v in sorted(coverage.counts.items())},
    )


def cmd_verify(scope: str, n: int, seed: int) -> Report:
    """Exhaustive checks for the chosen scope; any failure flips the exit code.

    An unknown scope, n outside 1..MAX_VERIFY_N or a negative seed raises
    ValueError before any check runs.
    """
    if scope not in VERIFY_SCOPES:
        raise ValueError(f"unknown verify scope {scope!r}; know {list(VERIFY_SCOPES)}")
    if not 1 <= n <= MAX_VERIFY_N:
        raise ValueError(f"verify n must be in 1..{MAX_VERIFY_N}, got {n}")
    _check_seed(seed)
    start = time.perf_counter()
    report = Report("verify", {"scope": scope, "n": n, "seed": seed})
    if scope in ("lemma1", "all"):
        _runs().verify_lemma1(report)
    if scope in ("quantum", "all"):
        _runs().verify_quantum(report, n, seed)
    if scope in ("classical", "all"):
        _runs().verify_classical(report, n)
    if scope in ("cases", "all"):
        _verify_cases(report)
    report.elapsed_s = time.perf_counter() - start
    return report


def _pattern_label(key: tuple[str, str, str]) -> str:
    first, when0, when1 = key
    return f"{first}-{when0}/{when1}"


def _search_zero(report: Report, result: lowerbound.SearchResult, check: str, **note: Any) -> None:
    """Note a search result and check that no candidate is feasible."""
    feasible, candidates = result.feasible, result.candidates
    report.note("search", name=result.name, candidates=candidates, feasible=feasible, **note)
    report.check(check, feasible == 0, feasible=feasible, candidates=candidates)


def cmd_search(scope: str, workers: int, seed: int) -> Report:
    """Run the selected lower-bound search and report the feasible count.

    An unknown scope or a negative seed raises ValueError before any search
    runs.
    """
    if scope not in SEARCH_SCOPES:
        raise ValueError(f"unknown search scope {scope!r}; know {list(SEARCH_SCOPES)}")
    _check_seed(seed)
    from . import lowerbound

    start = time.perf_counter()
    report = Report("search", {"scope": scope, "workers": workers, "seed": seed})
    if scope == "paper":
        result = lowerbound.search_bob_broadcast_carol(workers=workers)
        _search_zero(report, result, "broadcast_response_zero_feasible")
        report.check(
            "three_bit_messages_feasible", lowerbound.three_bit_messages_feasible()
        )
    elif scope == "blackboard":
        result = lowerbound.search_blackboard_two_bit(workers=workers)
        breakdown = result.breakdown
        _search_zero(report, result, "blackboard_zero_feasible",
                     breakdown={_pattern_label(k): v for k, v in breakdown.items()})
        alice_first = sum(v for k, v in breakdown.items() if k[0] == "A")
        report.check("alice_first_zero_feasible", alice_first == 0)
        report.check("relay_b_then_c_zero_feasible", breakdown["B", "C", "C"] == 0)
    elif scope == "ip3":
        result = lowerbound.search_two_party_ip3(workers=workers)
        _search_zero(report, result, "ip3_two_bit_zero_feasible")
        report.check(
            "ip3_three_bit_feasible",
            lowerbound.send_all_bits_feasible(bitcore.inner_product_table(3)),
        )
        for n in range(1, 5):
            one_bit = lowerbound.search_two_party_one_bit(bitcore.parity_table(n))
            report.check(
                f"parity_one_bit_feasible_n{n}",
                one_bit.feasible >= 1,
                feasible=one_bit.feasible,
            )
    report.elapsed_s = time.perf_counter() - start
    return report


def cmd_replay(case: str | None) -> Report:
    """Replay one elimination case, or all seven plus the coverage check."""
    from . import lowerbound

    start = time.perf_counter()
    report = Report("replay", {"case": case or "all", "seed": 0})
    ids = [case] if case else sorted(lowerbound.CASES)
    for case_id in ids:
        result = lowerbound.replay_case(case_id)
        report.note(
            "case",
            id=result.case_id,
            header=result.header,
            tuples=[list(check) for check in result.tuple_checks],
            apart=[list(p) for p in result.feasibility.apart],
            together=[list(p) for p in result.feasibility.together],
            joint_feasible=result.feasibility.feasible,
        )
        report.check(f"case_{case_id}", result.passed, failures=list(result.failures))
    if not case:
        coverage = lowerbound.case_cover_check()
        report.check(
            "case_cover",
            coverage.passed,
            partitions=coverage.total,
            counts={k: v for k, v in sorted(coverage.counts.items())},
        )
    report.elapsed_s = time.perf_counter() - start
    return report


def _build_parser() -> argparse.ArgumentParser:
    # replay --case takes its choices from the cases, so every CLI process
    # loads lowerbound; an in-process demo or verify does not.
    from . import lowerbound

    parser = argparse.ArgumentParser(
        prog="ghzcc",
        description=(
            "Three-party promise-game toolkit: run the entanglement-assisted "
            "two-bit protocol and the classical protocols, verify the exact "
            "outcome laws, and search the two-bit classical protocol spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run all protocols on a random input")
    demo.add_argument("--n", type=int, default=3, help="input length (1..32)")
    demo.add_argument("--seed", type=int, default=0)

    verify = sub.add_parser("verify", help="exhaustive verification suites")
    verify.add_argument("--scope", choices=VERIFY_SCOPES, default="all")
    verify.add_argument(
        "--n", type=int, default=3, help=f"max input length to sweep (1..{MAX_VERIFY_N})"
    )
    verify.add_argument("--seed", type=int, default=0)

    search = sub.add_parser("search", help="exhaustive protocol-space searches")
    search.add_argument(
        "--scope",
        choices=SEARCH_SCOPES,
        default="paper",
        help=(
            "paper: broadcast+response space (256 x 65536); blackboard: full "
            "adaptive two-bit space; ip3: two-party inner-product and parity facts"
        ),
    )
    search.add_argument(
        "--workers", type=int, default=1, help="accepted and echoed; searches run in-process"
    )
    search.add_argument("--seed", type=int, default=0)

    replay = sub.add_parser("replay", help="replay the elimination cases")
    replay.add_argument("--case", choices=sorted(lowerbound.CASES), default=None)

    for p in (demo, verify, search, replay):
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "demo" and not 1 <= args.n <= bitcore.MAX_LENGTH:
        parser.error(f"--n must be in 1..{bitcore.MAX_LENGTH}")
    if args.command == "verify" and not 1 <= args.n <= MAX_VERIFY_N:
        parser.error(f"--n must be in 1..{MAX_VERIFY_N}")
    if args.command == "search" and args.workers < 1:
        parser.error("--workers must be >= 1")
    if getattr(args, "seed", 0) < 0:  # random.Random(-s) would replay seed s
        parser.error("--seed must be >= 0")
    if args.out:
        # An unwritable report path is a usage error, found before the command runs.
        # Mode "a" leaves an existing report whole until the final write.
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"cannot write --out {args.out}: {exc.strerror or exc}")

    if args.command == "demo":
        report = cmd_demo(args.n, args.seed)
    elif args.command == "verify":
        report = cmd_verify(args.scope, args.n, args.seed)
    elif args.command == "search":
        report = cmd_search(args.scope, args.workers, args.seed)
    else:
        report = cmd_replay(args.case)

    rendered = (
        render_machine(report) if args.format == "machine" else render_text(report)
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            parser.error(f"cannot write --out {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
