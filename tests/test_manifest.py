"""The report manifest: one SHA-256 per command family over a fixed corpus.

Each family's digest covers every line but the trailing timing line of each
report in its corpus, machine rendering then text rendering, in corpus order.
A change meant to alter a report regenerates the manifest with

    PYTHONPATH=src python tests/test_manifest.py

and names the family that changed, and why, in CHANGES.md.
"""

import hashlib
import sys
from pathlib import Path

from ghzcc.cli import (
    SEARCH_SCOPES,
    VERIFY_SCOPES,
    cmd_demo,
    cmd_replay,
    cmd_search,
    cmd_verify,
    render_machine,
    render_text,
)
from ghzcc.lowerbound import CASES

MANIFEST = Path(__file__).parent / "golden" / "manifest.sha256"

CORPUS = {
    "demo": [(cmd_demo, (n, seed)) for n in (1, 2, 3, 5, 7, 16, 31, 32) for seed in range(50)],
    "verify": [(cmd_verify, (scope, n, seed))
               for scope in VERIFY_SCOPES for n in range(1, 6) for seed in (0, 7)],
    "search": [(cmd_search, (scope, 1, 0)) for scope in SEARCH_SCOPES],
    "replay": [(cmd_replay, (case,)) for case in (None, *sorted(CASES))],
}


def _digest(reports) -> str:
    sha = hashlib.sha256()
    for command, args in reports:
        report = command(*args)
        for rendered in (render_machine(report), render_text(report)):
            # The timing record or line is always the last line.
            body = rendered[:rendered.rindex("\n", 0, -1) + 1]
            sha.update(body.encode())
    return sha.hexdigest()


def digests() -> dict[str, str]:
    return {family: _digest(reports) for family, reports in CORPUS.items()}


def _lines(table: dict[str, str]) -> str:
    return "".join(f"{digest}  {family}\n" for family, digest in table.items())


def test_reports_match_manifest():
    assert _lines(digests()) == MANIFEST.read_text(encoding="utf-8")


if __name__ == "__main__":
    MANIFEST.write_text(_lines(digests()), encoding="utf-8")
    sys.stdout.write(MANIFEST.read_text(encoding="utf-8"))
