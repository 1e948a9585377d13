"""Statevector simulator and structural toolkit for distributed exact Deutsch-Jozsa algorithms."""

from .boolfn import (
    BooleanFunction,
    Decomposition,
    Promise,
    StructureStats,
    Verdict,
    classify_theorem1,
    classify_theorem2,
    classify_theorem3,
    compute_stats,
    corollary_witness,
    count_promise_functions,
    enumerate_promise_functions,
    make_function,
    random_balanced_table,
)
from .sim import (
    MeasurementRecord,
    PermutationGate,
    RotationGate,
    StateVector,
    apply_block_rotation,
    apply_hadamard,
    apply_pauli_z,
    apply_permutation,
    block_rotation_gate,
    decode_signed,
    encode_signed,
    init_zero,
    measure,
    xor_permutation_gate,
)
from .gates import (
    build_A,
    build_Aprime,
    build_ccnot,
    build_cnot,
    build_oracle,
    build_R,
    build_Rprime,
    build_U,
    build_V,
    build_x,
)
from .algorithms import (
    InvariantBreach,
    RunReport,
    probability_oracle,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
    run_dj,
    run_erroneous_4node_xor,
    run_erroneous_multinode,
    run_named,
)
from .analysis import (
    ErrorModel,
    ResourceTable,
    VerificationSummary,
    mean_simulated_misid,
    multinode_misid_probability,
    per_node_success_prob,
    resource_table,
    two_node_misid_probability,
    verify_sweep,
)

__version__ = "0.1.0"
