"""The lower-bound checker: searches and elimination cases reported as checks.

`search` runs one lower-bound search scope, `replay` replays the elimination
cases, and `verify_cases` is verify's cases section. Each fills a
`cli.Report` from `lowerbound` results. Search, replay and verify's cases
section load this module, and with it `lowerbound`; a demo or verify without
cases never does. This module never loads `protocols`, `qsim` or `runs`.

Every call into lowerbound goes through the module object, so a wrapper set
on a module attribute sees each call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from . import bitcore, lowerbound

if TYPE_CHECKING:
    from .cli import Report


def verify_cases(report: Report) -> None:
    """Verify's cases section: each elimination case, then the partition coverage."""
    for case_id in sorted(lowerbound.CASES):
        case = lowerbound.replay_case(case_id)
        report.check(
            f"case_{case_id}",
            case.passed,
            tuples=len(case.tuple_checks),
            joint_feasible=case.feasibility.feasible,
            **({"failures": list(case.failures)} if case.failures else {}),
        )
    coverage = lowerbound.case_cover_check()
    _check_cover(report, coverage, mapped=len(coverage.assignments),
                 unmapped=len(coverage.unmapped))


def _check_cover(report: Report, coverage: lowerbound.CoverageReport, **tallies: int) -> None:
    """The coverage check: a failing one names its unmapped masks."""
    report.check("case_cover", coverage.passed, partitions=coverage.total, **tallies,
                 counts=dict(sorted(coverage.counts.items())),
                 **({"unmapped_masks": list(coverage.unmapped)} if coverage.unmapped else {}))


def _search_zero(report: Report, result: lowerbound.SearchResult, check: str, **note: Any) -> None:
    """Note a search result and check that no candidate is feasible."""
    feasible, candidates = result.feasible, result.candidates
    report.note("search", name=result.name, candidates=candidates, feasible=feasible, **note)
    report.check(check, feasible == 0, feasible=feasible, candidates=candidates)


def search(report: Report, scope: str, workers: int) -> None:
    """Run the lower-bound search of one scope, as `cli.SEARCH_SCOPES` names it.

    An unknown scope raises ValueError, with nothing written to the report.
    """
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
                     breakdown={"{}-{}/{}".format(*k): v for k, v in breakdown.items()})
        alice_first = sum(v for k, v in breakdown.items() if k[0] == "A")
        report.check("alice_first_zero_feasible", alice_first == 0)
        report.check("relay_b_then_c_zero_feasible", breakdown["B", "C", "C"] == 0)
    elif scope == "ip3":
        result = lowerbound.search_two_party_ip3(workers=workers)
        _search_zero(report, result, "ip3_two_bit_zero_feasible")
        report.check(
            "ip3_three_bit_feasible",
            lowerbound.send_y_computes_f3(bitcore.inner_product_table(3)),
        )
        for n in range(1, 5):
            feasible = lowerbound.search_two_party_one_bit(bitcore.parity_table(n))
            report.check(f"parity_one_bit_feasible_n{n}", feasible >= 1, feasible=feasible)
    else:
        raise ValueError(f"unknown search scope {scope!r}")


def replay(report: Report, case: str | None) -> None:
    """Replay one elimination case, or all seven plus the coverage check if None."""
    ids = sorted(lowerbound.CASES) if case is None else [case]
    for case_id in ids:
        result = lowerbound.replay_case(case_id)
        report.note(
            "case",
            id=result.case_id,
            header=result.header,
            tuples=[list(check) for check in result.tuple_checks],
            apart=[list(p) for p in result.feasibility.apart],
            joint_feasible=result.feasibility.feasible,
        )
        report.check(f"case_{case_id}", result.passed, failures=list(result.failures))
    if case is None:
        _check_cover(report, lowerbound.case_cover_check())
