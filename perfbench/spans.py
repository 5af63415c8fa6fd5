"""Layer tracing for the ghzcc benchmark, without editing the package.

The tracer replaces the public functions each module takes from the layer
below, at the importing module's binding (``ghzcc.protocols.sample_outcome``,
``ghzcc.cli.cmd_verify`` and so on), with wrappers that time each call. Calls
nest on a stack, so each span knows its parent and a layer's self time is its
span time minus the time of the spans it caused. Spans are aggregated per
name as they close, so a run of a million spans keeps a few numbers in
memory.

Run as a script it is the child process of the traced subprocess workloads:

    python perfbench/spans.py cli verify --scope all --n 7 --seed 1 --format machine
        runs ``ghzcc.cli.main`` traced and prints, after the report, one
        ``TRACE <json>`` line with the aggregated spans.
    python perfbench/spans.py coldwarm search_blackboard_two_bit
        calls the lowerbound search twice in this fresh process and prints
        the two wall times as JSON.

``src`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import importlib
import json
import sys
import time

TRACE_PREFIX = "TRACE "

# (importing module, attribute, span name). Modules bind lower layers either
# by name (``from .qsim import sample_outcome``) or through the module object
# (``cli`` calls ``protocols.run_quantum_two_bit``); wrapping the attribute
# the importer reads covers both. Several bindings may feed one span name.
BINDINGS = (
    ("ghzcc.cli", "cmd_verify", "cli.cmd_verify"),
    ("ghzcc.cli", "cmd_search", "cli.cmd_search"),
    ("ghzcc.cli", "cmd_replay", "cli.cmd_replay"),
    ("ghzcc.cli", "cmd_demo", "cli.cmd_demo"),
    ("ghzcc.cli", "render_machine", "cli.render_machine"),
    ("ghzcc.bitcore", "enumerate_promise", "bitcore.enumerate_promise"),
    ("ghzcc.bitcore", "random_promise_triple", "bitcore.random_promise_triple"),
    ("ghzcc.bitcore", "f_ghz", "bitcore.f_ghz"),
    ("ghzcc.protocols", "f_ghz", "bitcore.f_ghz"),
    ("ghzcc.lowerbound", "f_ghz", "bitcore.f_ghz"),
    ("ghzcc.protocols", "sample_outcome", "qsim.sample_outcome"),
    ("ghzcc.protocols", "run_quantum_two_bit", "protocols.run_quantum_two_bit"),
    ("ghzcc.protocols", "run_classical_three_bit", "protocols.run_classical_three_bit"),
    ("ghzcc.protocols", "run_classical_count", "protocols.run_classical_count"),
    ("ghzcc.protocols", "run_protocol", "protocols.run_protocol"),
    ("ghzcc.protocols", "audit_run", "protocols.audit_run"),
    ("ghzcc.lowerbound", "search_blackboard_two_bit", "lowerbound.search_blackboard_two_bit"),
    ("ghzcc.lowerbound", "search_bob_broadcast_carol", "lowerbound.search_bob_broadcast_carol"),
    ("ghzcc.lowerbound", "search_two_party_ip3", "lowerbound.search_two_party_ip3"),
    ("ghzcc.lowerbound", "search_two_party_one_bit", "lowerbound.search_two_party_one_bit"),
    ("ghzcc.lowerbound", "replay_case", "lowerbound.replay_case"),
    ("ghzcc.lowerbound", "case_cover_check", "lowerbound.case_cover_check"),
)
# Generator functions: a span covers each resumption, and items are counted.
GENERATORS = {"bitcore.enumerate_promise"}


class Tracer:
    """Installs span wrappers at the bindings and aggregates closed spans.

    ``stats[name]`` holds ``{"s", "self_s", "calls", "items", "failed"}``:
    total span time, time not covered by child spans, calls, generator items
    yielded, and audit reports that did not pass.
    """

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self._open: list[float] = []  # child time of each open span
        self._saved: list[tuple[object, str, object]] = []
        self._cache_start = (0, 0)

    def install(self) -> "Tracer":
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            setattr(module, attr, wrap(original, name))
        self._cache_start = self._cache_counts()
        return self

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _entry(self, name: str) -> dict[str, float]:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = {
                "s": 0.0, "self_s": 0.0, "calls": 0, "items": 0, "failed": 0,
            }
        return entry

    def _close(self, entry: dict[str, float], start: float) -> None:
        span = time.perf_counter() - start
        children = self._open.pop()
        entry["s"] += span
        entry["self_s"] += span - children
        if self._open:
            self._open[-1] += span

    def _wrap(self, fn, name: str):
        entry = self._entry(name)
        is_audit = name == "protocols.audit_run"

        def traced(*args, **kwargs):
            entry["calls"] += 1
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(entry, start)
            if is_audit and not result.passed:
                entry["failed"] += 1
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        entry = self._entry(name)

        def traced(*args, **kwargs):
            entry["calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                self._open.append(0.0)
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(entry, start)
                entry["items"] += 1
                yield item

        return traced

    @staticmethod
    def _cache_counts() -> tuple[int, int]:
        info = importlib.import_module("ghzcc.qsim").transformed_state.cache_info()
        return info.hits, info.misses

    def summary(self) -> dict:
        """Aggregated spans plus the transformed_state cache hits and misses since install."""
        hits, misses = self._cache_counts()
        return {
            "spans": self.stats,
            "transformed_state": {
                "hits": hits - self._cache_start[0],
                "misses": misses - self._cache_start[1],
            },
        }


def _traced_cli(argv: list[str]) -> int:
    from ghzcc import cli

    tracer = Tracer().install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    sys.stdout.write(TRACE_PREFIX + json.dumps(tracer.summary()) + "\n")
    return code


def _cold_warm(function: str) -> int:
    from ghzcc import lowerbound

    if function not in ("search_blackboard_two_bit", "search_bob_broadcast_carol"):
        raise SystemExit(f"unknown search {function!r}")
    search = getattr(lowerbound, function)
    times = []
    feasible = []
    for _ in range(2):
        start = time.perf_counter()
        result = search(workers=1)
        times.append(time.perf_counter() - start)
        feasible.append(result.feasible)
    print(json.dumps({"function": function, "cold_s": times[0], "warm_s": times[1],
                      "feasible": feasible, "candidates": result.candidates}))
    return 0


if __name__ == "__main__":
    if len(sys.argv) >= 2 and sys.argv[1] == "cli":
        raise SystemExit(_traced_cli(sys.argv[2:]))
    if len(sys.argv) == 3 and sys.argv[1] == "coldwarm":
        raise SystemExit(_cold_warm(sys.argv[2]))
    raise SystemExit(__doc__)
