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
    werner_state,
    wootters_concurrence,
)
from .protocol import (
    BsmOutcome,
    FidelityReport,
    OutcomeRecord,
    UnitaryAngles,
    bsm_project,
    composite,
    conditional_state_formula,
    run_protocol,
)
from .analytics import (
    InformationMinimum,
    MinimaxResult,
    average_fidelity_numeric,
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
    "partial_trace",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "validate_density",
    "InformationState",
    "WernerResource",
    "concurrence_werner",
    "information_state",
    "werner_state",
    "wootters_concurrence",
    "BsmOutcome",
    "FidelityReport",
    "OutcomeRecord",
    "UnitaryAngles",
    "bsm_project",
    "composite",
    "conditional_state_formula",
    "run_protocol",
    "InformationMinimum",
    "MinimaxResult",
    "average_fidelity_numeric",
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
