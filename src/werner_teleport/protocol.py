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
normalization Bob's conditional state.

The whole protocol is written once, as the private kernel ``_simulate``:
it takes N parameter tuples as arrays and runs every step on (N, ...)
stacks, so the cross-checks in :mod:`werner_teleport.verify` simulate many
tuples per numpy call. :func:`run_protocol` is its N = 1 case. Raw matrices
are validated where they enter (:func:`composite`, :func:`bsm_project`);
the kernel builds its states from parameters that its callers range-check
(the dataclasses of :func:`run_protocol`, the seeded draws of ``verify``)
and validates nothing.
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
    _information_states,
    _require_range,
    _werner_states,
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


def _base_unitaries(chi, theta, phi, psi) -> np.ndarray:
    # Unchecked: U0 for broadcast angle arrays, shape (..., 2, 2).
    half = 0.5 * np.asarray(theta, dtype=float)
    c, s = np.cos(half), np.sin(half)
    e_phi = np.exp(1j * np.asarray(phi, dtype=float))
    e_psi = np.exp(1j * np.asarray(psi, dtype=float))
    u = np.empty(e_phi.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = c * e_phi
    u[..., 0, 1] = s * e_psi
    u[..., 1, 0] = -s * e_psi.conj()
    u[..., 1, 1] = c * e_phi.conj()
    return np.exp(1j * np.asarray(chi, dtype=float))[..., None, None] * u


def base_unitary(angles: UnitaryAngles) -> np.ndarray:
    """Bob's base correction unitary U0."""
    return _base_unitaries(angles.chi, angles.theta, angles.phi, angles.psi)


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


def _project_bell(rho_c: np.ndarray,
                  r: list[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(p_r, K_r^+ rho_c K_r / p_r) for a stack ``rho_c`` of shape (N, 8, 8).

    ``r`` lists the Bell indices (all four by default); the results have
    shapes (N, len(r)) and (N, len(r), 2, 2). ``rho_c`` is not checked.
    Raises if some p_r is degenerate (below 1e-15).
    """
    indices = list(BELL_INDICES) if r is None else r
    kraus = _BELL_KRAUS[indices]
    bob = kraus.conj().swapaxes(-1, -2) @ rho_c[:, None] @ kraus
    probability = bob[..., 0, 0].real + bob[..., 1, 1].real
    low = int(probability.argmin())
    if probability.flat[low] < DEGENERATE_PROBABILITY:
        raise DensityMatrixError(
            f"degenerate Bell outcome r={indices[low % len(indices)]}: "
            f"probability {probability.flat[low]:.3e}")
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
    probability, bob = _project_bell(composite_state[None], [r])
    return BsmOutcome(r=r, probability=float(probability[0, 0]), bob_state=bob[0, 0])


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


def _simulate(alpha, beta, gamma, epsilon, chi, theta, phi, psi):
    """The protocol on N parameter tuples, each argument an array of length N.

    Returns rho_in (N, 2, 2), the outcome probabilities (N, 4), Bob's
    conditional states (N, 4, 2, 2) and the per-outcome fidelities
    Tr[U_r rho_Bob_r U_r^+ rho_in] (N, 4). Nothing is validated, and the
    closed form is never called.
    """
    rho_in = _information_states(alpha, beta, gamma)
    n = len(rho_in)
    rho_c = np.einsum("nij,nkl->nikjl", rho_in, _werner_states(epsilon)).reshape(n, 8, 8)
    probabilities, bob = _project_bell(rho_c)
    u_r = _base_unitaries(chi, theta, phi, psi)[:, None] @ _SIGMA_R
    teleported = u_r @ bob @ u_r.conj().swapaxes(-1, -2)
    # Tr[T_r rho_in] = sum_ij T_r[i, j] rho_in[j, i]
    fidelities = (teleported * rho_in.swapaxes(-1, -2)[:, None]).sum(axis=(-2, -1)).real
    return rho_in, probabilities, bob, fidelities


def _mean_fidelity(probabilities: np.ndarray, fidelities: np.ndarray) -> np.ndarray:
    """Probability-weighted mean over the last axis: sum_r p_r F_r / sum_r p_r."""
    weighted = (probabilities[..., None, :] @ fidelities[..., :, None])[..., 0, 0]
    return weighted / probabilities.sum(axis=-1)


def run_protocol(info: InformationState, resource: WernerResource,
                 angles: UnitaryAngles) -> FidelityReport:
    """Run all four Bell branches and report probabilities and fidelities.

    For each outcome r the teleported state is U_r rho_Bob_r U_r^dagger and
    its fidelity is the trace overlap Tr[rho_T rho_in]. With the shared-U0
    corrections the four fidelities coincide; the report's ``fidelity`` is
    their probability-weighted mean. This is the N = 1 case of the batched
    kernel; the dataclasses were range-checked when built and no state is
    validated again.
    """
    params = np.array([[info.alpha, info.beta, info.gamma, resource.epsilon,
                        angles.chi, angles.theta, angles.phi, angles.psi]])
    _, probabilities, _, fidelities = _simulate(*params.T)
    total_p = float(probabilities[0].sum())
    if abs(total_p - 1.0) > 1e-12:
        raise DensityMatrixError(f"branch probabilities sum to {total_p:.15g}")
    records = tuple(OutcomeRecord(r, float(p), float(f))
                    for r, p, f in zip(BELL_INDICES, probabilities[0], fidelities[0]))
    return FidelityReport(outcomes=records,
                          fidelity=float(_mean_fidelity(probabilities, fidelities)[0]))
