"""End-to-end teleportation protocol on density matrices.

Alice holds the information qubit (qubit 0) and half of the resource pair
(qubit 1); Bob holds qubit 2. Alice projects qubits (0, 1) onto the Bell
basis; every outcome occurs with probability 1/4 for a Werner-like
resource. Bob then applies U_r = U0 sigma_r, where sigma_r runs over
I, sigma_z, sigma_x, i*sigma_y for r = 0..3 and U0 is a base unitary he is
free to choose. With that factorization all four branches reconstruct the
same teleported state, so the protocol fidelity Tr[rho_T rho_in] is a
single number per parameter set rather than a per-outcome one.

The measurement is evaluated on all four branches deterministically; there
is no sampling anywhere. Branch r is the Kraus sandwich K_r^+ rho_c K_r
with K_r = |B_r> (x) I (8x2): its trace is the outcome probability, its
normalization Bob's conditional state. Raw matrices are validated where
they enter (:func:`composite`, :func:`bsm_project`); :func:`run_protocol`
builds its states from range-checked dataclasses and validates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (
    DensityMatrixError,
    identity,
    ladder_operators,
    sigma_x,
    sigma_y,
    sigma_z,
    validate_density,
)
from .states import (
    BELL_INDICES,
    InformationState,
    WernerResource,
    _BELL_VECTORS,
    _require_range,
    information_state,
    werner_state,
)

__all__ = [
    "DEGENERATE_PROBABILITY",
    "UnitaryAngles",
    "BsmOutcome",
    "OutcomeRecord",
    "FidelityReport",
    "correction_branch_operators",
    "base_unitary",
    "correction_unitary",
    "composite",
    "bsm_project",
    "conditional_state_formula",
    "run_protocol",
]

# Outcome probabilities are exactly 1/4 for any in-range parameters; the
# guard below only fires for hand-built composites that annihilate one
# Bell branch, and exists so that branch fails loudly instead of dividing
# by ~0.
DEGENERATE_PROBABILITY = 1e-15

_SIGMA_R = np.stack([identity, sigma_z, sigma_x, 1j * sigma_y])
_SIGMA_R.setflags(write=False)

# K_r = |B_r> (x) I_2 stacked over r; row 2a + c of K_r is B_r[a] delta_cd.
_BELL_KRAUS = np.einsum("ra,cd->racd", _BELL_VECTORS, identity).reshape(4, 8, 2)
_BELL_KRAUS.setflags(write=False)


@dataclass(frozen=True)
class UnitaryAngles:
    """Angles of Bob's base correction unitary.

    U0 = e^{i chi} [[cos(theta/2) e^{i phi},  sin(theta/2) e^{i psi}],
                    [-sin(theta/2) e^{-i psi}, cos(theta/2) e^{-i phi}]]

    chi in [0, 2 pi) is a global phase and cancels from every conjugation;
    theta, phi, psi lie in [0, pi].
    """

    chi: float = 0.0
    theta: float = 0.0
    phi: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        _require_range(self.chi, 0.0, 2.0 * math.pi, "chi", open_upper=True)
        _require_range(self.theta, 0.0, math.pi, "theta")
        _require_range(self.phi, 0.0, math.pi, "phi")
        _require_range(self.psi, 0.0, math.pi, "psi")


@dataclass(frozen=True)
class BsmOutcome:
    """One Bell-measurement branch: index, probability, Bob's state."""

    r: int
    probability: float
    bob_state: np.ndarray


@dataclass(frozen=True)
class OutcomeRecord:
    r: int
    probability: float
    fidelity: float


@dataclass(frozen=True)
class FidelityReport:
    """Per-outcome probabilities and fidelities plus their common value."""

    outcomes: tuple[OutcomeRecord, ...]
    fidelity: float


def correction_branch_operators() -> tuple[np.ndarray, ...]:
    """The four branch operators (I, sigma_z, sigma_x, i*sigma_y)."""
    return tuple(_SIGMA_R)


def base_unitary(angles: UnitaryAngles) -> np.ndarray:
    """Bob's base correction unitary U0."""
    half = 0.5 * angles.theta
    c, s = math.cos(half), math.sin(half)
    return np.exp(1j * angles.chi) * np.array(
        [[c * np.exp(1j * angles.phi), s * np.exp(1j * angles.psi)],
         [-s * np.exp(-1j * angles.psi), c * np.exp(-1j * angles.phi)]])


def correction_unitary(r: int, angles: UnitaryAngles) -> np.ndarray:
    """Bob's outcome-r correction U_r = U0 sigma_r."""
    if r not in BELL_INDICES:
        raise ValueError(f"Bell index must be one of {BELL_INDICES}, got {r}")
    return base_unitary(angles) @ _SIGMA_R[r]


def composite(info: np.ndarray, resource: np.ndarray) -> np.ndarray:
    """Assemble the three-qubit state info (x) resource, qubit 0 = input."""
    info = validate_density(np.asarray(info, dtype=complex))
    resource = validate_density(np.asarray(resource, dtype=complex))
    if info.shape != (2, 2) or resource.shape != (4, 4):
        raise DensityMatrixError(
            f"expected 2x2 info and 4x4 resource, got {info.shape} and {resource.shape}")
    return np.kron(info, resource)


def _project_bell(rho_c: np.ndarray, r: int | list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(p_r, K_r^+ rho_c K_r / p_r) for one Bell index ``r`` or a list of them.

    ``rho_c`` is not checked. Raises if some p_r is degenerate (below 1e-15).
    """
    kraus = _BELL_KRAUS[r]
    bob = kraus.conj().swapaxes(-1, -2) @ rho_c @ kraus
    probability = bob[..., 0, 0].real + bob[..., 1, 1].real
    if probability.min() < DEGENERATE_PROBABILITY:
        raise DensityMatrixError(
            f"degenerate Bell outcome r={r}: probability {probability.min():.3e}")
    return probability, bob / probability[..., None, None]


def bsm_project(composite_state: np.ndarray, r: int) -> BsmOutcome:
    """Project qubits (0, 1) onto Bell state ``r`` and reduce to Bob's qubit.

    Returns p = Tr[K_r^+ rho_c K_r] and Bob's state K_r^+ rho_c K_r / p with
    K_r = |B_r> (x) I, after validating the composite as a density matrix.
    Raises if p is degenerate (below 1e-15), which cannot happen for
    composites built from a Werner-like resource.
    """
    composite_state = validate_density(np.asarray(composite_state, dtype=complex))
    if composite_state.shape != (8, 8):
        raise DensityMatrixError(
            f"expected a three-qubit (8x8) composite, got {composite_state.shape}")
    if r not in BELL_INDICES:
        raise ValueError(f"Bell index must be one of {BELL_INDICES}, got {r}")
    probability, bob = _project_bell(composite_state, r)
    return BsmOutcome(r=r, probability=float(probability), bob_state=bob)


def conditional_state_formula(info: np.ndarray, epsilon: float, r: int) -> np.ndarray:
    """Bob's conditional state written directly in the ladder basis.

    Independent of the projection route in :func:`bsm_project`: the state
    is assembled from the input-matrix entries,

        r = 0:  [ {p00(1+e) + p11(1-e)} |0><0| + {p00(1-e) + p11(1+e)} |1><1|
                  + 2 e p01 |0><1| + 2 e p10 |1><0| ] / 2

    with the diagonal pair swapped for r in (2, 3), the off-diagonal pair
    swapped for r in (2, 3), and the off-diagonal sign flipped for r in
    (1, 3). The two routes must agree entry for entry.
    """
    if r not in BELL_INDICES:
        raise ValueError(f"Bell index must be one of {BELL_INDICES}, got {r}")
    epsilon = _require_range(epsilon, 0.0, 1.0, "epsilon")
    info = np.asarray(info, dtype=complex)
    i_plus, i_minus, r_plus, r_minus = ladder_operators()
    p00, p01 = info[0, 0], info[0, 1]
    p10, p11 = info[1, 0], info[1, 1]
    heavy = p00 * (1 + epsilon) + p11 * (1 - epsilon)
    light = p00 * (1 - epsilon) + p11 * (1 + epsilon)
    if r in (2, 3):
        heavy, light = light, heavy
        p01, p10 = p10, p01
    sign = 1.0 if r in (0, 2) else -1.0
    return 0.5 * (heavy * i_plus + light * i_minus
                  + sign * 2.0 * epsilon * (p01 * r_plus + p10 * r_minus))


def run_protocol(info: InformationState, resource: WernerResource,
                 angles: UnitaryAngles) -> FidelityReport:
    """Run all four Bell branches and report probabilities and fidelities.

    For each outcome r the teleported state is U_r rho_Bob_r U_r^dagger and
    its fidelity is the trace overlap Tr[rho_T rho_in]. With the shared-U0
    corrections the four fidelities coincide; the report's ``fidelity`` is
    their probability-weighted mean. The states are not validated again.
    """
    rho_in = information_state(info)
    rho_c = np.kron(rho_in, werner_state(resource))
    probabilities, bob = _project_bell(rho_c, list(BELL_INDICES))
    u_r = base_unitary(angles) @ _SIGMA_R
    teleported = u_r @ bob @ u_r.conj().swapaxes(-1, -2)
    # Tr[T_r rho_in] = sum_ij T_r[i, j] rho_in[j, i]
    fidelities = (teleported * rho_in.T).sum(axis=(1, 2)).real
    total_p = float(probabilities.sum())
    if abs(total_p - 1.0) > 1e-12:
        raise DensityMatrixError(f"branch probabilities sum to {total_p:.15g}")
    records = tuple(OutcomeRecord(r, float(p), float(f))
                    for r, p, f in zip(BELL_INDICES, probabilities, fidelities))
    return FidelityReport(outcomes=records,
                          fidelity=float(probabilities @ fidelities) / total_p)
