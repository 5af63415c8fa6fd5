"""The package surface: lazy exports, per-command imports, and perfbench's bindings."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ghzcc

ROOT = Path(__file__).resolve().parents[1]

# Every name `import ghzcc` offered before its exports became lazy, by module.
EXPORTS = {
    "bitcore": (
        "BitString", "InvariantViolation", "PromiseTriple", "PromiseViolation",
        "enumerate_promise", "f_ghz", "f_inner_product", "f_parity", "random_promise_triple",
    ),
    "protocols": (
        "audit_run", "run_classical_count", "run_classical_three_bit", "run_ip_trivial",
        "run_parity_one_bit", "run_quantum_two_bit",
    ),
    "qsim": (
        "TripleState", "apply_hadamard", "check_lemma1", "mermin_state", "sample_outcome",
        "support", "transformed_state",
    ),
    "lowerbound": (
        "carol_partition_feasible", "case_cover_check", "replay_case",
        "search_blackboard_two_bit", "search_bob_broadcast_carol", "search_two_party_ip3",
    ),
}

# The layers that search and replay must never load.
HEAVY = ("ghzcc.protocols", "ghzcc.qsim", "dataclasses")
LIGHT_COMMANDS = (
    ["search", "--scope", "paper"],
    ["search", "--scope", "blackboard"],
    ["search", "--scope", "ip3"],
    ["replay"],
)

# A fresh interpreter without site (-S), so nothing but this script imports:
# it records which HEAVY modules are loaded after each step, cumulatively.
ISOLATION_CHILD = f"""
import contextlib, io, json, sys
def heavy():
    return [m for m in {HEAVY!r} if m in sys.modules]
import ghzcc
seen = {{"import ghzcc": [0, heavy()]}}
from ghzcc import cli
for argv in {list(LIGHT_COMMANDS)!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--format", "machine"])
    seen[" ".join(argv)] = [code, heavy()]
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def isolation():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", ISOLATION_CHILD], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("step", ["import ghzcc", *(" ".join(a) for a in LIGHT_COMMANDS)])
def test_search_and_replay_load_no_protocol_layer(isolation, step):
    code, loaded = isolation[step]
    assert code == 0
    assert loaded == []


def test_every_export_resolves_to_its_module_attribute():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"ghzcc.{module_name}")
        assert getattr(ghzcc, module_name) is module
        for name in names:
            assert getattr(ghzcc, name) is getattr(module, name), name
    assert sorted(ghzcc.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_dir_lists_exports_and_unknown_names_raise():
    listed = dir(ghzcc)
    for module_name, names in EXPORTS.items():
        assert module_name in listed
        assert set(names) <= set(listed)
    for name in ("no_such_name", "reduce_to_inner_product"):
        with pytest.raises(AttributeError, match=name):
            getattr(ghzcc, name)


def test_perfbench_bindings_resolve():
    # perfbench/spans.py wraps each (module, attribute) of BINDINGS in place.
    # Load it from source, so no bytecode is written under perfbench/.
    path = ROOT / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans.__dict__)
    assert spans.BINDINGS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.BINDINGS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
