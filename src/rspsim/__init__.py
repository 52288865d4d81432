"""Exact qudit state-vector simulation of remote state preparation.

Deterministic preparation over arbitrary Schmidt-form entangled channels,
the probabilistic concentration baseline, and the ancilla-assisted
deterministic baseline over a maximal channel, plus exact branch
enumeration, an independent brute-force oracle, simulated single-qubit
tomography, and a reproducible sweep/verification CLI.
"""

from .errors import (
    CapacityExceeded,
    DegenerateState,
    IndexOutOfRange,
    InvalidState,
    MismatchedOutcomeSpace,
    NonUnitaryGate,
    ShapeError,
    SimulationError,
    Unsupported,
)
from .gates import (
    GateMatrix,
    cadd,
    controlled_shift,
    correction_unitary,
    csub,
    cu_concentration,
    encoding_unitary,
    encoding_unitary_literal,
    make_gate,
    nguyen_bases,
    pauli_x,
    pauli_z,
)
from .linalg import (
    complete_to_unitary,
    dagger,
    transport_unitary,
    unitarity_defect,
)
from .oracle import (
    BranchDistribution,
    ComparisonReport,
    RunSpec,
    compare_exact,
    compare_sampled,
    enumerate_naive,
    table_distribution,
)
from .protocols import (
    ChannelSpec,
    OutcomeRow,
    OutcomeTable,
    TargetState,
    Transcript,
    exact_outcome_table,
    exact_outcome_tables,
    run_protocol,
    success_probability,
)
from .register import (
    DensityMatrix,
    MeasurementRecord,
    StateRegister,
    derive_rng,
)
from .tomography import (
    PauliEstimates,
    TomoResult,
    fidelity_mixed,
    reconstruct_qubit,
    sample_pauli_expectations,
    tomograph,
    trace_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BranchDistribution", "CapacityExceeded", "ChannelSpec", "ComparisonReport",
    "DegenerateState", "DensityMatrix", "GateMatrix", "IndexOutOfRange",
    "InvalidState", "MeasurementRecord", "MismatchedOutcomeSpace",
    "NonUnitaryGate", "OutcomeRow", "OutcomeTable", "PauliEstimates",
    "RunSpec", "ShapeError", "SimulationError", "StateRegister", "TargetState",
    "TomoResult", "Transcript", "Unsupported", "cadd", "compare_exact",
    "compare_sampled", "complete_to_unitary", "controlled_shift",
    "correction_unitary", "csub", "cu_concentration", "dagger", "derive_rng",
    "encoding_unitary", "encoding_unitary_literal", "enumerate_naive",
    "exact_outcome_table", "exact_outcome_tables", "fidelity_mixed",
    "make_gate", "nguyen_bases", "pauli_x", "pauli_z", "reconstruct_qubit",
    "run_protocol", "sample_pauli_expectations", "success_probability",
    "table_distribution", "tomograph", "trace_distance", "transport_unitary",
    "unitarity_defect",
]
