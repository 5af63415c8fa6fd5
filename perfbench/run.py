"""Benchmark for ghzcc: how long users wait for its certificates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this directory,
never from an installed copy. Workloads (one closed-loop caller, at most one
child process at a time, ``--workers 1`` wherever the option exists):

* ``verify_sweep``: each op is a fresh ``python -m ghzcc verify --scope all
  --n 7`` process. Time goes to bitcore, protocols and qsim over the 21 844
  promise triples of lengths 1..7.
* ``search_suite``: each op is a fresh process; ops cycle through ``search
  --scope paper``, ``blackboard``, ``ip3`` and ``replay``. Time goes to the
  lowerbound tables, rebuilt in every process, and to interpreter set-up.
* ``demo_stream``: an in-process loop of ``cli.cmd_demo(32, seed)`` plus
  ``cli.render_machine``, one random length-32 triple per request and no
  process start.

``BENCHMARK.json`` lists ``search_suite`` and ``demo_stream`` only: a verify
op is a 2.5 to 5 s sample, and on a shared 2-vCPU host slow spells of a
minute or more can push its ten-run spread past 0.25, the largest bound the
benchmark may set (see README). ``verify_sweep`` runs on request, and every
traced run covers it.

Per-op seeds are drawn from ``--seed``; each command runs twice in a row
with the same seed, and the two reports must agree outside the timing record.
Every report is checked by ``oracle.py``. With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` a traced pass over all
three workloads (``spans.py``) gives the per-layer metrics. The line before it
is a ``detail`` record with the environment, sample counts and problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Iterator

import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("verify_sweep", "search_suite", "demo_stream")
VERIFY_N = 7
DEMO_N = 32
SETUP_REPEATS = 9
DEMO_BATCH = 200
DEMO_WARMUP_S = 1.0
# The whole run must end within 180 s; no child may outlive this.
HARD_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("cmd_p10_s", "s"),
    ("peak_rss_mb", "MB"),
)

_PROTOCOL_LAYERS = (
    ("qsim.sample_outcome", ("s", "calls")),
    ("protocols.run_quantum_two_bit", ("s", "self_s", "calls")),
    ("protocols.run_classical_three_bit", ("s", "self_s", "calls")),
    ("protocols.run_classical_count", ("s", "self_s", "calls")),
    ("protocols.run_protocol", ("s", "self_s", "calls")),
    ("protocols.audit_run", ("s", "calls", "failed")),
)
# Span statistics reported per workload, per traced unit (one verify process,
# one search-suite cycle of four processes, one demo request).
LAYERS = {
    "verify_sweep": (
        ("bitcore.enumerate_promise", ("s", "triples")),
        ("bitcore.f_ghz", ("s", "calls")),
        *_PROTOCOL_LAYERS,
        ("lowerbound.replay_case", ("s", "calls")),
        ("lowerbound.case_cover_check", ("s",)),
        ("cli.cmd_verify", ("s", "self_s")),
        ("cli.render_machine", ("s",)),
    ),
    "search_suite": (
        ("lowerbound.search_two_party_ip3", ("s",)),
        ("lowerbound.search_two_party_one_bit", ("s",)),
        ("lowerbound.replay_case", ("s", "calls")),
        ("lowerbound.case_cover_check", ("s",)),
        ("cli.cmd_search", ("s", "self_s")),
        ("cli.cmd_replay", ("s", "self_s")),
        ("cli.render_machine", ("s",)),
    ),
    "demo_stream": (
        ("bitcore.random_promise_triple", ("s", "calls")),
        ("bitcore.f_ghz", ("s", "calls")),
        *_PROTOCOL_LAYERS,
        ("cli.cmd_demo", ("s", "self_s")),
        ("cli.render_machine", ("s",)),
    ),
}
COLD_WARM = ("search_blackboard_two_bit", "search_bob_broadcast_carol")
_STAT_FIELD = {"s": "s", "self_s": "self_s", "calls": "calls", "triples": "items",
               "failed": "failed"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    names = []
    for workload in WORKLOADS:
        for layer, stats in LAYERS[workload]:
            for stat in stats:
                unit = "s" if stat in ("s", "self_s") else "count"
                names.append((f"{workload}.{layer}.{stat}", unit))
        if workload != "search_suite":
            names.append((f"{workload}.qsim.transformed_state.hit_ratio", "ratio"))
        else:
            for function in COLD_WARM:
                names.append((f"{workload}.lowerbound.{function}.cold_s", "s"))
                names.append((f"{workload}.lowerbound.{function}.warm_s", "s"))
            names.append((f"{workload}.lowerbound.tables_build_s", "s"))
        if workload != "demo_stream":
            names.append((f"{workload}.cli.process_overhead_s", "s"))
        names.append((f"{workload}.trace_overhead", "ratio"))
    return names


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Command:
    """One CLI invocation and the oracle that judges its report."""

    args: tuple[str, ...]
    check: Callable[[str, int], list[str]]


@dataclasses.dataclass
class Op:
    wall_s: float
    elapsed_s: float | None
    problems: list[str]
    lines: tuple[str, ...]
    trace: dict | None = None


def _verify_command(seed: int, n: int) -> Command:
    args = ("verify", "--scope", "all", "--n", str(n), "--seed", str(seed),
            "--format", "machine")
    return Command(args, lambda text, code: oracle.check_verify(text, code, n, seed))


def _search_cycle(seed: int) -> list[Command]:
    cycle = []
    for scope in ("paper", "blackboard", "ip3"):
        args = ("search", "--scope", scope, "--workers", "1", "--seed", str(seed),
                "--format", "machine")
        cycle.append(Command(args, lambda text, code, scope=scope:
                             oracle.check_search(text, code, scope, seed)))
    cycle.append(Command(("replay", "--format", "machine"), oracle.check_replay))
    return cycle


def units(workload: str, seed: int, verify_n: int) -> Iterator[list[Command]]:
    """The endless op schedule of a subprocess workload, in units run whole.

    Each unit comes twice in a row with the same seeds, for the determinism
    check.
    """
    rng = random.Random(seed)
    while True:
        op_seed = rng.randrange(2**31)
        if workload == "verify_sweep":
            unit = [_verify_command(op_seed, verify_n)]
        else:
            unit = _search_cycle(op_seed)
        yield unit
        yield unit


def demo_seeds(seed: int) -> Iterator[int]:
    """Demo request seeds, each twice in a row."""
    rng = random.Random(seed)
    while True:
        demo_seed = rng.randrange(2**31)
        yield demo_seed
        yield demo_seed


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


class Runner:
    """Spawns children one at a time and enforces the run's hard deadline."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.env = child_env()

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, argv: list[str]) -> tuple[float, int, str]:
        """Run argv to exit: wall seconds, exit code, stdout+stderr."""
        limit = self.remaining()
        if limit <= 0:
            raise TimeoutError("hard time limit reached")
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=limit)
        wall = time.perf_counter() - start
        return wall, proc.returncode, proc.stdout.decode("utf-8", "replace")

    def run(self, command: Command, traced: bool = False) -> Op:
        if traced:
            argv = [sys.executable, str(HERE / "spans.py"), "cli", *command.args]
        else:
            argv = [sys.executable, "-m", "ghzcc", *command.args]
        wall, code, out = self.spawn(argv)
        trace = None
        if traced:
            report_lines = []
            for line in out.splitlines(keepends=True):
                if line.startswith(spans.TRACE_PREFIX):
                    trace = json.loads(line[len(spans.TRACE_PREFIX):])
                else:
                    report_lines.append(line)
            out = "".join(report_lines)
        problems = command.check(out, code)
        if traced and trace is None:
            problems.append("traced child printed no trace")
        return Op(wall, oracle.elapsed_s(out), problems,
                  oracle.non_timing_lines(out), trace)

    def setup_s(self) -> float:
        """Fresh interpreter until ``import ghzcc`` returns, in seconds."""
        code = "import time, ghzcc; print(time.monotonic(), ghzcc.__file__)"
        start = time.monotonic()
        _, exit_code, out = self.spawn([sys.executable, "-c", code])
        stamp, _, where = out.strip().partition(" ")
        if exit_code != 0 or not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child failed or imported ghzcc from elsewhere: {out!r}")
        return float(stamp) - start


def demo_request(cli, demo_seed: int, n: int) -> tuple[float, str, int]:
    """One demo request: wall seconds, rendered report, exit code equivalent.

    An exception counts as a failed request (exit code 1, no report), so one
    broken request does not end the run.
    """
    start = time.perf_counter()
    try:
        report = cli.cmd_demo(n, demo_seed)
        text = cli.render_machine(report)
        code = 0 if report.passed else 1
    except Exception as exc:  # boundary: the oracle reports the empty report
        text, code = "", 1
        print(f"demo seed {demo_seed}: {exc!r}", file=sys.stderr)
    return time.perf_counter() - start, text, code


def demo_batch(cli, seeds: list[int], tally: "Tally") -> tuple[float, list[float], list[float]]:
    """Run demo requests back to back, then check them all.

    Checking after the batch keeps the oracle's work out of the timed loop.
    Returns the batch's wall seconds, each request's wall seconds and each
    report's own elapsed_s.
    """
    results = []
    start = time.perf_counter()
    for demo_seed in seeds:
        results.append((demo_seed, *demo_request(cli, demo_seed, DEMO_N)))
    batch_s = time.perf_counter() - start
    walls, elapsed = [], []
    for demo_seed, wall, text, code in results:
        walls.append(wall)
        reported = oracle.elapsed_s(text)
        if reported is not None:
            elapsed.append(reported)
        tally.record(("demo", demo_seed), oracle.check_demo(text, code, DEMO_N, demo_seed),
                     oracle.non_timing_lines(text))
    return batch_s, walls, elapsed


def import_cli():
    """ghzcc.cli from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ghzcc import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported ghzcc from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). With fewer than eleven samples
    no percentile has ten beyond it; the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    index = n - 11
    return ordered[index], 100.0 * index / (n - 1), n


class Tally:
    """Attempted and failed ops, the determinism check, and the first problems.

    An op whose key was recorded before must reproduce that report outside
    the timing record; repeats come right after the first run, so a key is
    dropped once compared.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.pairs = 0
        self.problems: list[str] = []
        self._pending: dict[tuple, tuple[str, ...]] = {}

    def record(self, key: tuple, problems: list[str], lines: tuple[str, ...]) -> None:
        problems = list(problems)
        first = self._pending.pop(key, None)
        if first is None:
            self._pending[key] = lines
        else:
            self.pairs += 1
            if first != lines:
                problems.append("report differs from the same command's earlier report")
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{' '.join(map(str, key))}: {'; '.join(problems[:3])}")


# ---------------------------------------------------------------------------
# Untraced measurement: end-to-end metrics
# ---------------------------------------------------------------------------


def tenth_percentile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def unit_percentile(by_command: dict[int, list[float]],
                    percentile: Callable[[list[float]], float]) -> float:
    """A unit's percentile: the sum of its commands' own percentiles.

    Each command is a sample of its own, so a short command can fall inside a
    quiet spell of the host that a whole unit would overrun.
    """
    return sum(percentile(values) for values in by_command.values())


def measure(workload: str, seed: int, seconds: float, verify_n: int = VERIFY_N,
            setup_repeats: int = SETUP_REPEATS) -> tuple[dict, Tally, dict]:
    """Untraced closed loop for ``seconds``: end-to-end metrics and a detail record.

    Latency samples are one demo request or one process. A search-suite
    cycle runs four different commands, so its percentiles are the sums of
    the four commands' percentiles; its tail is taken over whole cycles.
    """
    runner = Runner()
    tally = Tally()
    runner.setup_s()  # warm-up: writes bytecode caches on a fresh checkout
    setups: list[float] = []
    walls: list[float] = []  # one per unit (search cycle) or demo request
    # Per command position in the unit: process or request walls, report times.
    op_walls: dict[int, list[float]] = {}
    op_elapsed: dict[int, list[float]] = {}
    ops = 0
    busy_s = 0.0

    def sample_setup(at: float) -> None:
        # Set-ups are spread over the run: host load comes in bursts of seconds.
        if len(setups) < setup_repeats and at >= len(setups) * seconds / setup_repeats:
            setups.append(runner.setup_s())

    if workload == "demo_stream":
        cli = import_cli()
        seeds = demo_seeds(seed)
        warm = time.perf_counter()
        while time.perf_counter() - warm < DEMO_WARMUP_S:
            demo_batch(cli, [next(seeds) for _ in range(DEMO_BATCH)], tally)
        # Read before any latency sample is kept: the sample lists grow with
        # throughput and would otherwise count as the program's memory.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        while (at := time.perf_counter() - start) < seconds:
            sample_setup(at)
            batch_s, batch_walls, batch_elapsed = demo_batch(
                cli, [next(seeds) for _ in range(DEMO_BATCH)], tally)
            busy_s += batch_s
            walls += batch_walls
            op_elapsed.setdefault(0, []).extend(batch_elapsed)
        op_walls[0] = walls
        ops = len(walls)
    else:
        unit_s = 0.0
        start = time.perf_counter()
        for unit in units(workload, seed, verify_n):
            # Start no unit expected to end after the deadline.
            unit_start = time.perf_counter()
            if unit_start - start + unit_s > seconds:
                break
            sample_setup(unit_start - start)
            unit_wall = 0.0
            for position, command in enumerate(unit):
                op = runner.run(command)
                unit_wall += op.wall_s
                op_walls.setdefault(position, []).append(op.wall_s)
                if op.elapsed_s is not None:
                    op_elapsed.setdefault(position, []).append(op.elapsed_s)
                tally.record(command.args, op.problems, op.lines)
            ops += len(unit)
            busy_s += unit_wall
            walls.append(unit_wall)
            unit_s = time.perf_counter() - unit_start
    while len(setups) < setup_repeats:
        setups.append(runner.setup_s())
    if workload != "demo_stream":
        # The op children are the largest: set-up children only import ghzcc.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    metrics = {
        "setup_s": statistics.median(setups),
        "cmd_p10_s": unit_percentile(op_walls, tenth_percentile),
        "peak_rss_mb": peak_rss_kb / 1024,  # ru_maxrss is in kilobytes on Linux
    }
    tail_value, tail_pct, samples = tail(walls)
    detail = {
        "ops": ops,
        "ops_per_s": ops / busy_s,
        "latency_samples": samples,
        "cmd_p50_s": unit_percentile(op_walls, statistics.median),
        "cmd_tail_s": {"value": tail_value, "percentile": tail_pct, "samples": samples},
        "reported_p10_s": unit_percentile(op_elapsed, tenth_percentile) if op_elapsed else None,
        "reported_p50_s": unit_percentile(op_elapsed, statistics.median) if op_elapsed else None,
        "setup_samples_s": setups,
        "determinism_pairs": tally.pairs,
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, tally, detail


# ---------------------------------------------------------------------------
# Traced pass: per-layer metrics
# ---------------------------------------------------------------------------


def merge(summaries: list[dict]) -> dict:
    """Sum span statistics and cache counts over traced ops."""
    total: dict = {"spans": {}, "transformed_state": {"hits": 0, "misses": 0}}
    for summary in summaries:
        for name, stats in summary["spans"].items():
            into = total["spans"].setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
        for key in ("hits", "misses"):
            total["transformed_state"][key] += summary["transformed_state"][key]
    return total


def layer_values(workload: str, merged: dict, units_traced: int) -> dict[str, float]:
    values = {}
    for layer, stats in LAYERS[workload]:
        entry = merged["spans"].get(layer, {})
        for stat in stats:
            values[f"{workload}.{layer}.{stat}"] = entry.get(_STAT_FIELD[stat], 0) / units_traced
    cache = merged["transformed_state"]
    lookups = cache["hits"] + cache["misses"]
    if workload != "search_suite":
        values[f"{workload}.qsim.transformed_state.hit_ratio"] = (
            cache["hits"] / lookups if lookups else 0.0
        )
    return values


def _trace_subprocess(workload: str, seed: int, budget: float, verify_n: int,
                      runner: Runner, tally: Tally) -> dict[str, float]:
    summaries = []
    plain_s = traced_s = 0.0
    overheads = []
    traced_units = 0
    unit_s = 0.0
    start = time.perf_counter()
    for unit in units(workload, seed, verify_n):
        unit_start = time.perf_counter()
        if traced_units and unit_start - start + unit_s > budget:
            break
        for command in unit:
            plain = runner.run(command)
            tally.record(command.args, plain.problems, plain.lines)
            traced = runner.run(command, traced=True)
            tally.record(command.args, traced.problems, traced.lines)
            plain_s += plain.wall_s
            traced_s += traced.wall_s
            if plain.elapsed_s is not None:
                overheads.append(plain.wall_s - plain.elapsed_s)
            if traced.trace is not None:
                summaries.append(traced.trace)
        traced_units += 1
        unit_s = time.perf_counter() - unit_start
    values = layer_values(workload, merge(summaries), traced_units)
    if workload == "search_suite":
        for function in COLD_WARM:
            _, code, out = runner.spawn([sys.executable, str(HERE / "spans.py"),
                                            "coldwarm", function])
            problems = [f"exit code {code}"] if code else []
            try:
                probe = json.loads(out.splitlines()[-1])
            except (ValueError, IndexError):
                probe = {"cold_s": 0.0, "warm_s": 0.0}
                problems.append(f"unreadable probe output {out[-200:]!r}")
            if probe.get("feasible") != [0, 0]:
                problems.append(f"feasible {probe.get('feasible')}, expected [0, 0]")
            tally.record(("coldwarm", function), problems, ())
            values[f"{workload}.lowerbound.{function}.cold_s"] = probe["cold_s"]
            values[f"{workload}.lowerbound.{function}.warm_s"] = probe["warm_s"]
        values[f"{workload}.lowerbound.tables_build_s"] = (
            values[f"{workload}.lowerbound.search_blackboard_two_bit.cold_s"]
            - values[f"{workload}.lowerbound.search_blackboard_two_bit.warm_s"]
        )
    values[f"{workload}.cli.process_overhead_s"] = statistics.median(overheads) if overheads else 0.0
    values[f"{workload}.trace_overhead"] = traced_s / plain_s
    return values


def _trace_demo(seed: int, budget: float, tally: Tally) -> dict[str, float]:
    cli = import_cli()
    summaries = []
    plain_s = traced_s = 0.0
    requests = 0
    rng = random.Random(seed)
    start = time.perf_counter()
    while not requests or time.perf_counter() - start < budget:
        # Each seed runs untraced, then traced: the reports must agree.
        batch = [rng.randrange(2**31) for _ in range(DEMO_BATCH)]
        plain_s += demo_batch(cli, batch, tally)[0]
        tracer = spans.Tracer().install()
        try:
            traced_s += demo_batch(cli, batch, tally)[0]
        finally:
            tracer.restore()
        summaries.append(tracer.summary())
        requests += len(batch)
    values = layer_values("demo_stream", merge(summaries), requests)
    values["demo_stream.trace_overhead"] = traced_s / plain_s
    return values


def trace_pass(seed: int, seconds: float, verify_n: int = VERIFY_N) -> tuple[dict, Tally, dict]:
    """Traced and untraced ops of every workload, seconds split evenly."""
    runner = Runner()
    tally = Tally()
    runner.setup_s()  # warm-up: writes bytecode caches on a fresh checkout
    budget = seconds / len(WORKLOADS)
    values: dict[str, float] = {}
    for workload in WORKLOADS:
        if workload == "demo_stream":
            values.update(_trace_demo(seed, budget, tally))
        else:
            values.update(_trace_subprocess(workload, seed, budget, verify_n, runner, tally))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    return metrics, tally, {"determinism_pairs": tally.pairs}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    sources = sorted((SRC / "ghzcc").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ghzcc" / "__init__.py").is_file():
        print(f"no ghzcc sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")

    if args.trace:
        metrics, tally, detail = trace_pass(args.seed, args.seconds)
    else:
        metrics, tally, detail = measure(args.workload, args.seed, args.seconds)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fail_share": tally.failed / tally.attempted,
        "problems": tally.problems,
        "env": environment(),
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
