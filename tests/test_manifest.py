"""The report manifest: one SHA-256 per command family over a fixed corpus,
then one per report.

Each family's digest covers every line but the trailing timing line of each
report in its corpus, machine rendering then text rendering, in corpus order.
Each report's own digest, keyed by its command and arguments (`demo 32 7`),
covers the same lines of that report alone, so a failure names the reports
that changed. A change meant to alter a report regenerates the manifest with

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


def _body(report) -> bytes:
    body = ""
    for rendered in (render_machine(report), render_text(report)):
        # The timing record or line is always the last line.
        body += rendered[:rendered.rindex("\n", 0, -1) + 1]
    return body.encode()


def digests() -> dict[str, str]:
    """Each family's digest, in corpus order, then each report's, keyed by its call."""
    families, reports = {}, {}
    for family, corpus in CORPUS.items():
        sha = hashlib.sha256()
        for command, args in corpus:
            body = _body(command(*args))
            sha.update(body)
            reports[" ".join(map(str, (family, *args)))] = hashlib.sha256(body).hexdigest()
        families[family] = sha.hexdigest()
    return {**families, **reports}


def _lines(table: dict[str, str]) -> str:
    return "".join(f"{digest}  {key}\n" for key, digest in table.items())


def test_reports_match_manifest():
    manifest = MANIFEST.read_text(encoding="utf-8")
    recorded = dict(line.split("  ", 1)[::-1] for line in manifest.splitlines())
    table = digests()
    changed = [key for key in {**table, **recorded} if table.get(key) != recorded.get(key)]
    assert changed == []
    assert _lines(table) == manifest


if __name__ == "__main__":
    MANIFEST.write_text(_lines(digests()), encoding="utf-8")
    sys.stdout.write(MANIFEST.read_text(encoding="utf-8"))
