"""Command-line front end: demos, exhaustive verification, searches, case replay.

Reports carry a schema version and come in two renderings: human text and a
line-delimited JSON document. Timing is isolated in a dedicated trailing
record so that reports with identical parameters and seeds are byte-identical
everywhere else.

A command loads only the checker it runs: `runs` (with the protocol and
quantum layers) for `cmd_demo` and verify's lemma1, quantum and classical
sections; `bounds` (with `lowerbound`) for `cmd_search`, `cmd_replay` and
verify's cases section. `lowerbound.replay_case` alone refuses an unknown
case id, so a demo or verify without cases compiles no lower-bound code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Any

from . import bitcore

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1

VERIFY_SCOPES = ("lemma1", "quantum", "classical", "cases", "all")
SEARCH_SCOPES = ("paper", "blackboard", "ip3")
MAX_VERIFY_N = 8


@functools.cache
def _runs():
    """The run checker (`runs`), imported by the first demo or verify.

    Search and replay never load it or the layers it imports. A cached call
    costs less per demo request than an import statement.
    """
    from . import runs

    return runs


class Report:
    """One command's checks and notes, rendered by render_machine or render_text.

    Each entry is held as its final machine record, "type" key included. The
    report's clock starts when it is made, and finish() stops it.
    """

    def __init__(self, command: str, params: dict[str, Any]) -> None:
        self._start = time.perf_counter()
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

    def check(self, name: str, passed: bool, **detail: Any) -> None:
        self.checks.append({"type": "check", "name": name, "passed": bool(passed), **detail})

    def note(self, kind: str, **detail: Any) -> None:
        self.info.append({"type": "info", "kind": kind, **detail})

    def finish(self) -> Report:
        """Store the seconds since this report was made as elapsed_s, and return it."""
        self.elapsed_s = time.perf_counter() - self._start
        return self


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


def _check_ints(seed: int, n: int, n_name: str = "n") -> None:
    # A bool or float would head the report of the int it equals, and random.Random(-s)
    # replays seed s, so each is refused before any work. n is a length, or search's
    # worker count (n_name "workers").
    if type(n) is not int or type(seed) is not int:
        name, value = (n_name, n) if type(n) is not int else ("seed", seed)
        raise TypeError(f"{name} must be an int, got {value!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def cmd_demo(n: int, seed: int) -> Report:
    """Random promise triple through all three protocols, transcripts shown.

    An n or seed that is not an int raises TypeError, and a negative seed or an
    n outside 1..bitcore.MAX_LENGTH ValueError, before any run.
    """
    _check_ints(seed, n)
    report = Report("demo", {"n": n, "seed": seed})
    _runs().demo(report, n, seed)
    return report.finish()


def cmd_verify(scope: str, n: int, seed: int) -> Report:
    """Exhaustive checks for the chosen scope; any failure flips the exit code.

    An unknown scope, n outside 1..MAX_VERIFY_N or a negative seed raises
    ValueError, and an n or seed that is not an int TypeError, before any
    check runs.
    """
    if scope not in VERIFY_SCOPES:
        raise ValueError(f"unknown verify scope {scope!r}; know {list(VERIFY_SCOPES)}")
    _check_ints(seed, n)
    if not 1 <= n <= MAX_VERIFY_N:
        raise ValueError(f"verify n must be in 1..{MAX_VERIFY_N}, got {n}")
    report = Report("verify", {"scope": scope, "n": n, "seed": seed})
    if scope in ("lemma1", "all"):
        _runs().verify_lemma1(report)
    if scope in ("quantum", "all"):
        _runs().verify_quantum(report, n, seed)
    if scope in ("classical", "all"):
        _runs().verify_classical(report, n)
    if scope in ("cases", "all"):
        from . import bounds

        bounds.verify_cases(report)
    return report.finish()


def cmd_search(scope: str, workers: int, seed: int) -> Report:
    """Run the selected lower-bound search and report the feasible count.

    An unknown scope, a worker count below 1 or a negative seed raises ValueError,
    and a seed or worker count that is not an int TypeError, before any count.
    """
    _check_ints(seed, workers, "workers")
    from . import bounds

    report = Report("search", {"scope": scope, "workers": workers, "seed": seed})
    bounds.search(report, scope, workers)
    return report.finish()


def cmd_replay(case: str | None) -> Report:
    """Replay one elimination case, or all seven plus the coverage check if None.

    An unknown case id, the empty one included, raises ValueError.
    """
    from . import bounds

    report = Report("replay", {"case": "all" if case is None else case, "seed": 0})
    bounds.replay(report, case)
    return report.finish()


def _build_parser() -> argparse.ArgumentParser:
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
    demo.add_argument("--n", type=int, default=3, help=f"input length (1..{bitcore.MAX_LENGTH})")
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
    replay.add_argument("--case", default=None, help="the case id; every case if left out")

    demo.set_defaults(run=lambda args: cmd_demo(args.n, args.seed))
    verify.set_defaults(run=lambda args: cmd_verify(args.scope, args.n, args.seed))
    search.set_defaults(run=lambda args: cmd_search(args.scope, args.workers, args.seed))
    replay.set_defaults(run=lambda args: cmd_replay(args.case))
    for p in (demo, verify, search, replay):
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    created = bool(args.out) and not os.path.exists(args.out)
    if args.out:
        # An unwritable report path is a usage error, found before the command runs.
        # Mode "a" leaves an existing report whole until the final write.
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"cannot write --out {args.out}: {exc.strerror or exc}")

    try:
        report = args.run(args)
    except BaseException as exc:
        # An unfinished command leaves no empty report. A command raises ValueError only
        # to refuse an argument; a package fault is InvariantViolation, a failed check.
        if created:
            os.remove(args.out)
        if isinstance(exc, ValueError):
            parser.error(str(exc))
        raise

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
