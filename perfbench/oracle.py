"""Independent correctness oracle for ghzcc machine reports.

Each checker takes the text a command printed (``--format machine``) and its
exit code, and returns a list of problems; an empty list means the op passed.
The checks do not trust the report's own verdicts: expected counts are fixed
here from the paper's statements, and demo outputs are recomputed from the
printed words.
"""

from __future__ import annotations

import json

PAPER_CANDIDATES = 256 * 65536
BLACKBOARD_CANDIDATES = 768**3
IP3_CANDIDATES = 512**3
BLACKBOARD_PATTERNS = 27
CASE_IDS = ("1", "2.1.1", "2.1.2", "2.1.3", "2.1.4", "2.2.1", "2.2.2")
CASE_COVER_COUNTS = {
    "1": 8, "2.1.1": 64, "2.1.2": 36, "2.1.3": 6, "2.1.4": 3, "2.2.1": 4, "2.2.2": 7,
}
LEMMA1_CHECKS = (
    "lemma1_column_001",
    "lemma1_column_010",
    "lemma1_column_100",
    "lemma1_column_111",
    "lemma1_001_exact_amplitudes",
)
DEMO_PROTOCOLS = ("quantum_two_bit", "classical_three_bit", "classical_count")


def non_timing_lines(text: str) -> tuple[str, ...]:
    """Report lines other than the trailing timing record (byte-identity contract)."""
    lines = text.splitlines()
    if lines and lines[-1].startswith('{"type": "timing"'):
        lines = lines[:-1]
    return tuple(lines)


def elapsed_s(text: str) -> float | None:
    """The report's own ``timing.elapsed_s``, or None when it is missing."""
    lines = text.splitlines()
    if not lines:
        return None
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(record, dict) or record.get("type") != "timing":
        return None
    value = record.get("elapsed_s")
    return float(value) if isinstance(value, (int, float)) else None


class _Report:
    """Parsed records of one machine report plus the problems found so far."""

    def __init__(self, text: str, exit_code: int, command: str, params: dict):
        self.problems: list[str] = []
        self.records: list[dict] = []
        if exit_code != 0:
            self.problems.append(f"exit code {exit_code}")
        for number, line in enumerate(text.splitlines(), 1):
            try:
                record = json.loads(line)
            except ValueError:
                self.problems.append(f"line {number} is not JSON: {line[:80]!r}")
                continue
            if not isinstance(record, dict):
                self.problems.append(f"line {number} is not an object")
                continue
            self.records.append(record)
        if not self.records:
            self.problems.append("empty report")
            return
        header = self.records[0]
        if header.get("type") != "header" or header.get("command") != command:
            self.problems.append(f"header is not a {command} header: {header}")
        elif header.get("params") != params:
            self.problems.append(f"params {header.get('params')} != expected {params}")
        if self.records[-1].get("type") != "timing" or elapsed_s(text) is None:
            self.problems.append("last line is not a timing record with elapsed_s")
        checks = self.of_type("check")
        for check in checks:
            if check.get("passed") is not True:
                self.problems.append(f"check {check.get('name')} failed")
        summaries = self.of_type("summary")
        if len(summaries) != 1:
            self.problems.append(f"{len(summaries)} summary records")
        else:
            summary = summaries[0]
            if (
                summary.get("passed") is not True
                or summary.get("failed") != 0
                or summary.get("checks") != len(checks)
            ):
                self.problems.append(f"summary {summary} disagrees with {len(checks)} checks")

    def of_type(self, kind: str) -> list[dict]:
        return [r for r in self.records if r.get("type") == kind]

    def check(self, name: str) -> dict:
        for record in self.of_type("check"):
            if record.get("name") == name:
                return record
        self.problems.append(f"check {name} missing")
        return {}

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{what} is {got!r}, expected {want!r}")


def check_verify(text: str, exit_code: int, n: int, seed: int) -> list[str]:
    """``verify --scope all --n n``: every named check present, 4^n triples each."""
    r = _Report(text, exit_code, "verify", {"scope": "all", "n": n, "seed": seed})
    for name in LEMMA1_CHECKS:
        r.check(name)
    for k in range(1, n + 1):
        quantum = r.check(f"quantum_exhaustive_n{k}")
        r.expect(f"quantum_exhaustive_n{k}.triples", quantum.get("triples"), 4**k)
        for family in ("three_bit", "count"):
            name = f"classical_{family}_n{k}"
            r.expect(f"{name}.triples", r.check(name).get("triples"), 4**k)
    for case_id in CASE_IDS:
        r.expect(f"case_{case_id}.joint_feasible",
                 r.check(f"case_{case_id}").get("joint_feasible"), False)
    cover = r.check("case_cover")
    r.expect("case_cover.partitions", cover.get("partitions"), 128)
    r.expect("case_cover.counts", cover.get("counts"), CASE_COVER_COUNTS)
    return r.problems


def _search_info(r: _Report) -> dict:
    infos = [i for i in r.of_type("info") if i.get("kind") == "search"]
    if len(infos) != 1:
        r.problems.append(f"{len(infos)} search info records")
        return {}
    return infos[0]


def check_search(text: str, exit_code: int, scope: str, seed: int) -> list[str]:
    """``search --scope scope --workers 1``: zero feasible out of the full space."""
    r = _Report(text, exit_code, "search", {"scope": scope, "workers": 1, "seed": seed})
    info = _search_info(r)
    r.expect("feasible", info.get("feasible"), 0)
    if scope == "paper":
        r.expect("candidates", info.get("candidates"), PAPER_CANDIDATES)
        r.check("broadcast_response_zero_feasible")
    elif scope == "blackboard":
        r.expect("candidates", info.get("candidates"), BLACKBOARD_CANDIDATES)
        breakdown = info.get("breakdown")
        if not isinstance(breakdown, dict) or len(breakdown) != BLACKBOARD_PATTERNS:
            r.problems.append(f"breakdown has not {BLACKBOARD_PATTERNS} entries")
        elif any(v != 0 for v in breakdown.values()):
            r.problems.append(f"breakdown has feasible entries: {breakdown}")
        r.check("blackboard_zero_feasible")
    elif scope == "ip3":
        r.expect("candidates", info.get("candidates"), IP3_CANDIDATES)
        r.check("ip3_two_bit_zero_feasible")
        r.check("ip3_three_bit_feasible")
        for k in range(1, 5):
            r.check(f"parity_one_bit_feasible_n{k}")
    else:
        r.problems.append(f"unknown search scope {scope!r}")
    return r.problems


def check_replay(text: str, exit_code: int) -> list[str]:
    """``replay``: seven eliminating cases and 128 partitions split per case."""
    r = _Report(text, exit_code, "replay", {"case": "all", "seed": 0})
    cases = [i for i in r.of_type("info") if i.get("kind") == "case"]
    r.expect("case ids", tuple(c.get("id") for c in cases), CASE_IDS)
    for case in cases:
        r.expect(f"case {case.get('id')} joint_feasible", case.get("joint_feasible"), False)
    for case_id in CASE_IDS:
        r.check(f"case_{case_id}")
    cover = r.check("case_cover")
    r.expect("case_cover.partitions", cover.get("partitions"), 128)
    r.expect("case_cover.counts", cover.get("counts"), CASE_COVER_COUNTS)
    return r.problems


def ghz_parity(x: str, y: str, z: str) -> int:
    """Parity of x AND y AND z over the printed words."""
    return sum(a == b == c == "1" for a, b, c in zip(x, y, z)) & 1


def check_demo(text: str, exit_code: int, n: int, seed: int) -> list[str]:
    """``demo``: the direct value and every protocol output equal the recomputed parity."""
    r = _Report(text, exit_code, "demo", {"n": n, "seed": seed})
    inputs = [i for i in r.of_type("info") if i.get("kind") == "input"]
    if len(inputs) != 1:
        r.problems.append(f"{len(inputs)} input records")
        return r.problems
    words = [inputs[0].get(k) for k in "xyz"]
    if not all(isinstance(w, str) and len(w) == n and set(w) <= {"0", "1"} for w in words):
        r.problems.append(f"input words are not {n}-bit strings: {words}")
        return r.problems
    x, y, z = words
    if any((a + b + c).count("1") & 1 == 0 for a, b, c in zip(x, y, z)):
        r.problems.append("input breaks the column promise")
    value = ghz_parity(x, y, z)
    r.expect("direct_value", inputs[0].get("direct_value"), value)
    runs = {i.get("protocol"): i for i in r.of_type("info") if i.get("kind") == "run"}
    r.expect("protocols", tuple(sorted(runs)), tuple(sorted(DEMO_PROTOCOLS)))
    for name, run in runs.items():
        r.expect(f"{name}.output", run.get("output"), value)
        r.expect(f"{name}.audit", run.get("audit"), "pass")
    return r.problems
