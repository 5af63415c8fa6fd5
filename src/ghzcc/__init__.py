"""Three-party promise-game toolkit.

Simulates the entanglement-assisted two-bit protocol for the parity-of-ANDs
promise game, runs the classical three-bit and count protocols, and proves
by exhaustive search and by case replay that no two-bit classical protocol
exists at length 3.

Importing the package loads no submodule: each export is imported from its
module on first use (PEP 562).
"""

__version__ = "0.1.0"

_EXPORTS = {
    "bitcore": (
        "BitString", "InvariantViolation", "PromiseTriple", "PromiseViolation",
        "enumerate_promise", "f_ghz", "random_promise_triple",
    ),
    "protocols": (
        "audit_run", "run_classical_count", "run_classical_three_bit", "run_quantum_two_bit",
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it in this namespace. Unlike
    # importlib.import_module, __import__ shows in python -X importtime.
    __import__(f"{__name__}.{module}")
    value = getattr(globals()[module], name) if module != name else globals()[name]
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
