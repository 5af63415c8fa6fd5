"""The package surface: per-command imports, perfbench's bindings, and a
package reader for every public name."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Introspection, which no command needs: dataclasses loads inspect.
REFLECTION = ("dataclasses", "inspect")
# The layers that search and replay must never load.
HEAVY = ("ghzcc.protocols", "ghzcc.qsim", *REFLECTION)
# The lower-bound layer and its checker, which demo and verify without cases
# must never load.
LOWER = ("ghzcc.lowerbound",)
# Exact rational arithmetic: qsim states each outcome law in integer eighths,
# so no demo or verify run needs it.
RATIONAL = ("fractions", "decimal")
WATCHED = (*HEAVY, *LOWER, *RATIONAL)
LIGHT_COMMANDS = (
    ["search", "--scope", "paper"],
    ["search", "--scope", "blackboard"],
    ["search", "--scope", "ip3"],
    ["replay"],
)

# A fresh interpreter without site (-S), so nothing but this script imports.
# It runs each step, an expression over `cli`, and records the step's value
# and which WATCHED modules are loaded after it, cumulatively.
ISOLATION_CHILD = """
import contextlib, io, json, sys
steps = json.loads(sys.argv[1])
def watched():
    return [m for m in {watched!r} if m in sys.modules]
import ghzcc
assert not [m for m in sys.modules if m.startswith("ghzcc.")] and not hasattr(ghzcc, "f_ghz")
seen = {{"import ghzcc": [0, watched()]}}
from ghzcc import cli
seen["import ghzcc.cli"] = [0, watched()]
for step in steps:
    with contextlib.redirect_stdout(io.StringIO()):
        value = eval(step)
    seen[step] = [value, watched()]
print(json.dumps(seen))
""".format(watched=WATCHED)


def isolated(steps: list[str]) -> dict[str, list]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", ISOLATION_CHILD, json.dumps(steps)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def main_step(argv: list[str]) -> str:
    return f"cli.main({argv + ['--format', 'machine']!r})"


@pytest.fixture(scope="module")
def isolation():
    return isolated([main_step(argv) for argv in LIGHT_COMMANDS])


@pytest.mark.parametrize(
    "step",
    ["import ghzcc", *map(main_step, LIGHT_COMMANDS)],
    ids=["import ghzcc", *(" ".join(a) for a in LIGHT_COMMANDS)],
)
def test_search_and_replay_load_no_protocol_layer(isolation, step):
    code, loaded = isolation[step]
    assert code == 0
    assert [m for m in loaded if m in HEAVY] == []
    if step != "import ghzcc":
        assert set(LOWER) <= set(loaded)


# Runs in one process, in order: none before the cases section may load
# lowerbound, whether called in-process or through main and its parser.
RUN_STEPS = [
    "cli.cmd_demo(32, 0).passed",
    *(f"cli.cmd_verify({scope!r}, 2, 0).passed" for scope in ("lemma1", "quantum", "classical")),
    f"{main_step(['demo', '--n', '3'])} == 0",
    f"{main_step(['verify', '--scope', 'quantum', '--n', '2'])} == 0",
    "cli.cmd_verify('cases', 2, 0).passed",
]
ALL_STEP = "cli.cmd_verify('all', 2, 0).passed"


@pytest.fixture(scope="module")
def run_isolation():
    return isolated(RUN_STEPS), isolated([ALL_STEP])


def test_demo_and_verify_without_cases_load_no_lowerbound(run_isolation):
    seen, _ = run_isolation
    assert seen["import ghzcc.cli"][1] == []
    assert {"ghzcc.protocols", "ghzcc.qsim"} <= set(seen[RUN_STEPS[0]][1])
    for step in RUN_STEPS[:-1]:
        passed, loaded = seen[step]
        assert passed is True, step
        assert [m for m in loaded if m in LOWER] == [], step


def test_demo_and_verify_without_cases_load_no_rational_arithmetic(run_isolation):
    seen, _ = run_isolation
    for step in ["import ghzcc.cli", *RUN_STEPS[:-1]]:
        assert [m for m in seen[step][1] if m in RATIONAL] == [], step


def test_demo_and_verify_without_cases_load_no_reflection(run_isolation):
    seen, _ = run_isolation
    for step in ["import ghzcc.cli", *RUN_STEPS[:-1]]:
        assert [m for m in seen[step][1] if m in REFLECTION] == [], step


def test_cases_and_all_load_lowerbound(run_isolation):
    seen, alone = run_isolation
    for passed, loaded in (seen[RUN_STEPS[-1]], alone[ALL_STEP]):
        assert passed is True
        assert set(LOWER) <= set(loaded)


# The relative imports of each module, outside TYPE_CHECKING blocks: protocols
# and lowerbound never meet.
IMPORTS = {
    "__init__": set(),
    "__main__": {"cli"},
    "cli": {"bitcore", "protocols", "lowerbound"},
    "protocols": {"bitcore", "qsim"},
    "qsim": {"bitcore"},
    "lowerbound": {"bitcore"},
    "bitcore": set(),
}


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports relatively, outside TYPE_CHECKING blocks."""
    typing_only = {id(inner) for node in ast.walk(tree)
                   if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
                   for inner in ast.walk(node)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in typing_only:
            found.update([node.module] if node.module else (alias.name for alias in node.names))
    return found


def test_each_module_imports_only_its_listed_modules():
    found = {path.stem: package_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in (ROOT / "src" / "ghzcc").glob("*.py")}
    assert found == IMPORTS


def test_no_check_rests_on_assert():
    # python -O strips assert statements, so the package raises its faults instead.
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "ghzcc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def perfbench_bindings():
    # perfbench/spans.py wraps each (module, attribute) of BINDINGS in place.
    # Load it from source, so no bytecode is written under perfbench/.
    path = ROOT / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans.__dict__)
    return spans.BINDINGS


def test_perfbench_bindings_resolve():
    bindings = perfbench_bindings()
    assert bindings
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in bindings
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_perfbench_pinned_counts(monkeypatch):
    # The counts perfbench/selftest.py's Smoke.test_traced pins, wrapped at the
    # same (module, attribute) bindings as perfbench/spans.py. A count here
    # moves only with ROADMAP item 1, which re-baselines the benchmark.
    from ghzcc import bitcore, cli, lowerbound, protocols, qsim

    calls = {}
    enumerate_promise = bitcore.enumerate_promise

    def counting(key, fn):
        def wrapper(*args):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args)

        return wrapper

    def triples(n):
        for t in enumerate_promise(n):
            calls["triples"] = calls.get("triples", 0) + 1
            yield t

    for module, name in ((protocols, "sample_outcome"), (lowerbound, "replay_case"),
                         (bitcore, "random_promise_triple"), (protocols, "run_protocol"),
                         (protocols, "audit_run")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(bitcore, "enumerate_promise", triples)
    demo_calls = {"random_promise_triple": 1, "sample_outcome": 32, "run_protocol": 3,
                  "audit_run": 3}
    hits = qsim.transformed_state.cache_info().hits
    for seed in (0, 1, 7):
        calls.clear()
        assert cli.cmd_demo(32, seed).passed
        assert calls == demo_calls, seed
    # perfbench's transformed_state.hit_ratio, over a batch of demo requests.
    assert qsim.transformed_state.cache_info().hits > hits
    calls.clear()
    assert cli.cmd_verify("all", 3, 0).passed
    assert calls["triples"] == sum(4**k for k in range(1, 4)) * 2 == 168
    calls.clear()
    assert cli.cmd_replay(None).passed
    assert calls == {"replay_case": 7}


def test_demo_reads_f_ghz_at_its_perfbench_binding(monkeypatch):
    # perfbench/spans.py counts bitcore.f_ghz at ("ghzcc.protocols", "f_ghz") too:
    # a demo reads its direct value once, through that binding.
    from ghzcc import cli, protocols

    calls = []
    f_ghz = protocols.f_ghz

    def counting(t):
        calls.append(t)
        return f_ghz(t)

    monkeypatch.setattr(protocols, "f_ghz", counting)
    for seed in (0, 1, 7):
        calls.clear()
        assert cli.cmd_demo(32, seed).passed
        assert len(calls) == 1, seed


# Public names that no package code reads, each with the reason it stays.
UNREAD_BY_PACKAGE: dict[str, str] = {}


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_package_reader():
    # A read is a loaded name or an attribute access anywhere in the package
    # outside the definition itself; import lines do not count.
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "ghzcc").glob("*.py"))
    ]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    bound = {attr for _, attr, _ in perfbench_bindings()}
    unread = []
    for tree in trees:
        for qualname, definition in public_definitions(tree):
            name = definition.name
            inside = {id(node) for node in ast.walk(definition)}
            read = any(
                id(node) not in inside
                and (
                    isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute) and node.attr == name
                )
                for node in nodes
            )
            if not read and name not in bound and name not in UNREAD_BY_PACKAGE:
                unread.append(qualname)
    assert unread == []


def record_fields(tree: ast.Module):
    """(class node, field name) of each NamedTuple or dataclass field and of
    each public __slots__ name of a FrozenValue."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {ast.unparse(base) for base in node.bases}
        decorators = {ast.unparse(d).partition("(")[0] for d in node.decorator_list}
        if "NamedTuple" in bases or "dataclass" in decorators:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node, item.target.id
        if "FrozenValue" in bases:
            for item in node.body:
                if (isinstance(item, ast.Assign)
                        and [ast.unparse(t) for t in item.targets] == ["__slots__"]):
                    for name in ast.literal_eval(item.value):
                        if not name.startswith("_"):
                            yield node, name


# Record fields that only the tests read, each with the reason it stays.
READ_ONLY_BY_TESTS = {
    "CoverageAssignment.partition":
        "tests check that the assignments are exactly the even masks, in order",
}


def parse_dir(directory: Path) -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.py"))
    ]


def attribute_loads(trees: list[ast.Module]) -> list[ast.Attribute]:
    return [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def test_every_record_field_has_a_reader():
    # A read is an attribute load of the field's name in the package, outside
    # the record's own class body. It matches by name only, so a load of the
    # same name on another object counts as a read.
    package = parse_dir(ROOT / "src" / "ghzcc")
    reads = attribute_loads(package)
    unread = []
    for tree in package:
        for record, field in record_fields(tree):
            inside = {id(node) for node in ast.walk(record)}
            if not any(node.attr == field and id(node) not in inside for node in reads):
                unread.append(f"{record.name}.{field}")
    assert sorted(unread) == sorted(READ_ONLY_BY_TESTS)


def test_frozen_value_fields_are_records():
    fields = {f"{record.name}.{field}"
              for tree in parse_dir(ROOT / "src" / "ghzcc") for record, field in record_fields(tree)}
    assert {"BitString.length", "BitString.bits", "PromiseTriple.x", "PromiseTriple.y",
            "PromiseTriple.z", "TripleState.amps"} <= fields
    assert not [field for field in fields if field.startswith("TripleState._")]


def test_test_only_fields_are_read_by_tests():
    # An entry whose tests stopped reading it would leave a field nothing reads.
    loads = {node.attr for node in attribute_loads(parse_dir(ROOT / "tests"))}
    assert all(qualname.split(".")[1] in loads for qualname in READ_ONLY_BY_TESTS)
