"""Three-party promise-game toolkit.

Simulates the entanglement-assisted two-bit protocol for the parity-of-ANDs
promise game, runs the classical three-bit and count protocols, and proves
by exhaustive search and by case replay that no two-bit classical protocol
exists at length 3.
"""

from .bitcore import (
    BitString,
    InvariantViolation,
    PromiseTriple,
    PromiseViolation,
    enumerate_promise,
    f_ghz,
    f_inner_product,
    f_parity,
    random_promise_triple,
    reduce_to_inner_product,
)
from .protocols import (
    audit_run,
    run_classical_count,
    run_classical_three_bit,
    run_ip_trivial,
    run_parity_one_bit,
    run_quantum_two_bit,
)
from .qsim import (
    TripleState,
    apply_hadamard,
    check_lemma1,
    mermin_state,
    sample_outcome,
    support,
    transformed_state,
)
from .lowerbound import (
    carol_partition_feasible,
    case_cover_check,
    replay_case,
    search_blackboard_two_bit,
    search_bob_broadcast_carol,
    search_two_party_ip3,
)

__version__ = "0.1.0"
