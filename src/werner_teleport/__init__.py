"""Teleportation of a general mixed qubit over a Werner-like resource.

Density-matrix simulation of the full protocol, the closed-form fidelity
and its extremes (assured, sphere-averaged, maximal), and numeric
cross-checks for every closed form.
"""

from .density import (
    DensityMatrixError,
    NotHermitianError,
    NotPositiveError,
    TraceError,
    identity,
    kron,
    ladder_operators,
    partial_trace,
    sigma_x,
    sigma_y,
    sigma_z,
    validate_density,
)
from .states import (
    InformationState,
    WernerResource,
    concurrence_werner,
    information_state,
    purity,
    werner_state,
    wootters_concurrence,
)
from .protocol import (
    BsmOutcome,
    FidelityReport,
    OutcomeRecord,
    UnitaryAngles,
    base_unitary,
    bsm_project,
    composite,
    conditional_state_formula,
    correction_unitary,
    run_protocol,
)
from .analytics import (
    ClassicalThreshold,
    InformationMinimum,
    MinimaxResult,
    average_fidelity_numeric,
    classical_threshold,
    f_av_max,
    f_max,
    fidelity_closed_form,
    fidelity_gap,
    masfi,
    min_over_information,
    minimax_search,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "DensityMatrixError",
    "NotHermitianError",
    "NotPositiveError",
    "TraceError",
    "identity",
    "kron",
    "ladder_operators",
    "partial_trace",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "validate_density",
    "InformationState",
    "WernerResource",
    "concurrence_werner",
    "information_state",
    "purity",
    "werner_state",
    "wootters_concurrence",
    "BsmOutcome",
    "FidelityReport",
    "OutcomeRecord",
    "UnitaryAngles",
    "base_unitary",
    "bsm_project",
    "composite",
    "conditional_state_formula",
    "correction_unitary",
    "run_protocol",
    "ClassicalThreshold",
    "InformationMinimum",
    "MinimaxResult",
    "average_fidelity_numeric",
    "classical_threshold",
    "f_av_max",
    "f_max",
    "fidelity_closed_form",
    "fidelity_gap",
    "masfi",
    "min_over_information",
    "minimax_search",
    "CheckResult",
    "run_verification",
]
