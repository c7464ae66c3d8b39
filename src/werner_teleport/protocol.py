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
it takes N parameter tuples as arrays and runs every step on all N at
once, so the cross-checks in :mod:`werner_teleport.verify` simulate many
tuples per numpy call. :func:`run_protocol` is its N = 1 case. Raw matrices
are validated where they enter (:func:`composite`, :func:`bsm_project`);
the kernel validates nothing: its parameters are range-checked by the
dataclasses of :func:`run_protocol`, and ``verify``'s seeded draws lie in
their domains by construction.

Each Bell vector has two entries of +-1/sqrt(2), so branch r is 1/2 times
a signed sum of four 2x2 blocks of the composite, and the fidelity is the
cyclic trace Tr[rho_Bob_r sigma_r^T M sigma_r] with M = U0^+ rho_in U0:
each sigma_r is a real signed permutation, so sigma_r^T M sigma_r is an
exact signed gather of M. Every step is elementwise arithmetic in a fixed
order, with no BLAS call, so the outputs do not depend on which BLAS
kernel the machine picks.

Inside the kernel the tuple axis is last: rho_in and U0 are (2, 2, N), the
resource (4, 4, N), the composite a C-ordered (8, 8, N) array and Bob's
states (4, 2, 2, N). Every step is a handful of elementwise operations on
2x2 to 8x8 matrices, so with the tuple axis first numpy's inner loop would
run over only 2 to 8 entries and restart for every tuple; tuple-last, each
matrix entry is one contiguous run of N tuples, a block of the composite
included. Each entry still sees the same operations in the same order, so
the bits do not depend on the layout. The kernel returns these tuple-last
arrays as they are, and its callers reduce over their leading branch axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import (
    DensityMatrixError,
    identity,
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
    _require_count,
    _require_fields,
    _require_range,
    _require_record,
    _werner_states,
)

__all__ = [
    "DEGENERATE_PROBABILITY",
    "UnitaryAngles",
    "BsmOutcome",
    "OutcomeRecord",
    "FidelityReport",
    "correction_branch_operators",
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
# Column i of sigma_r has one nonzero, s_r(i) = +-1 in row p_r(i), so entry (i, j) of
# (sigma_r^T M sigma_r)^T is _SIGN[r, i, j] = s_r(i) s_r(j) times M.flat[_PERM[r, i, j]].
_ROW, _COLUMN_SIGN = np.abs(_SIGMA_R).argmax(axis=1), _SIGMA_R.real.sum(axis=1)
_PERM = 2 * _ROW[:, None, :] + _ROW[:, :, None]
_SIGN = _COLUMN_SIGN[:, :, None] * _COLUMN_SIGN[:, None, :]
_PERM.setflags(write=False)
_SIGN.setflags(write=False)

# B_r has entries +-1/sqrt(2) at a_r < b_r only, of relative sign s_r, so K_r^+ rho_c K_r
# is 0.5 (S + s_r X) with S = blk(a_r, a_r) + blk(b_r, b_r), X = blk(a_r, b_r) + blk(b_r, a_r)
# over the composite's 2x2 blocks blk(a, b) (rows 2a, 2a + 1, columns 2b, 2b + 1).
_SUPPORT = np.array([np.flatnonzero(vector) for vector in _BELL_VECTORS])
_PAIR_SIGN = np.sign(np.take_along_axis(_BELL_VECTORS.real, _SUPPORT, axis=1).prod(axis=1))
_SUPPORT.setflags(write=False)
_PAIR_SIGN.setflags(write=False)


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

    __post_init__ = _require_fields


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
    # Unchecked: U0 for broadcast angle arrays, shape (2, 2, ...).
    half = 0.5 * np.asarray(theta, dtype=float)
    c, s = np.cos(half), np.sin(half)
    e_phi = np.exp(1j * np.asarray(phi, dtype=float))
    e_psi = np.exp(1j * np.asarray(psi, dtype=float))
    u = np.empty((2, 2) + e_phi.shape, dtype=complex)
    u[0, 0] = c * e_phi
    u[0, 1] = s * e_psi
    u[1, 0] = -s * e_psi.conj()
    u[1, 1] = c * e_phi.conj()
    # phase first: numpy's fused complex multiply rounds a * b and b * a differently
    return np.exp(1j * np.asarray(chi, dtype=float)) * u


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
    """(p_r, K_r^+ rho_c K_r / p_r) for N composites stacked as (8, 8, N).

    ``r`` lists the Bell indices (all four by default); the results have
    shapes (len(r), N) and (len(r), 2, 2, N), both C-ordered. Each branch is
    0.5 (S + s_r X) over the block tables above, exact in 1/2 and s_r, with no
    BLAS call. r = 0, 1 share the support (0, 3) and r = 2, 3 share (1, 2), so
    S and X are summed once per pair and X signed for both branches by one
    product; ``r`` picks from all four, with the full projection's bytes. With
    ``rho_c`` C-ordered, every block is a strided view whose last axis is a
    contiguous run of N entries. ``rho_c`` is not checked. Raises if some
    picked p_r is degenerate (below 1e-15).
    """
    n = rho_c.shape[-1]
    v = rho_c.reshape(4, 2, 4, 2, n)  # v[a, :, b] = blk(a, b), a basic slice
    bob = np.empty((4, 2, 2, n), dtype=complex)
    for k in (0, 2):
        a, b = _SUPPORT[k]
        np.add(v[a, :, a] + v[b, :, b],
               _PAIR_SIGN[k:k + 2, None, None, None] * (v[a, :, b] + v[b, :, a]), out=bob[k:k + 2])
    indices, bob = (BELL_INDICES, bob) if r is None else (r, bob[r])
    bob *= 0.5
    probability = bob[:, 0, 0].real + bob[:, 1, 1].real
    low = int(probability.argmin())
    if probability.flat[low] < DEGENERATE_PROBABILITY:
        raise DensityMatrixError(
            f"degenerate Bell outcome r={indices[low // n]}: "
            f"probability {probability.flat[low]:.3e}")
    bob /= probability[:, None, None]
    return probability, bob


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
    r = _require_count(r, "Bell index", 0, BELL_INDICES[-1])
    probability, bob = _project_bell(composite_state[..., None], [r])
    return BsmOutcome(r=r, probability=float(probability[0, 0]), bob_state=bob[0, ..., 0])


def _conditional_states(info: np.ndarray, epsilon) -> np.ndarray:
    """Bob's four conditional states from the input-matrix entries, unchecked.

    ``info`` is a complex stack (..., 2, 2) and ``epsilon`` broadcasts against
    its leading axes; the result stacks the branches r = 0..3 as (..., 4, 2, 2).
    """
    p00, p01, p10, p11 = info[..., 0, 0], info[..., 0, 1], info[..., 1, 0], info[..., 1, 1]
    heavy = 0.5 * (p00 * (1 + epsilon) + p11 * (1 - epsilon))
    light = 0.5 * (p00 * (1 - epsilon) + p11 * (1 + epsilon))
    up, down = epsilon * p01, epsilon * p10
    # one row per branch, its entries (0, 0), (0, 1), (1, 0), (1, 1)
    return np.stack([heavy, up, down, light,
                     heavy, -up, -down, light,
                     light, down, up, heavy,
                     light, -down, -up, heavy], axis=-1).reshape(heavy.shape + (4, 2, 2))


def conditional_state_formula(info: np.ndarray, epsilon: float | np.ndarray,
                              r: int) -> np.ndarray:
    """Bob's conditional state written directly from the input-matrix entries.

    Independent of the projection route in :func:`bsm_project`: the state
    is assembled from the entries p_ij of the input,

        r = 0:  [[ {p00(1+e) + p11(1-e)} / 2,   e p01                     ],
                 [ e p10,                       {p00(1-e) + p11(1+e)} / 2 ]]

    with the diagonal pair swapped for r in (2, 3), the off-diagonal pair
    swapped for r in (2, 3), and the off-diagonal sign flipped for r in
    (1, 3). The two routes must agree entry for entry.

    ``info`` may be a stack of shape (..., 2, 2) and ``epsilon`` an array
    that broadcasts against its leading axes; the result is then a stack
    of conditional states, one per input. Any other shape of ``info``
    raises :class:`DensityMatrixError`.
    """
    r = _require_count(r, "Bell index", 0, BELL_INDICES[-1])
    epsilon = _require_range(epsilon, "epsilon")
    info = np.asarray(info, dtype=complex)
    if info.shape[-2:] != (2, 2):
        raise DensityMatrixError(f"expected a 2x2 input or a stack of them, got shape {info.shape}")
    return _conditional_states(info, epsilon)[..., r, :, :]


def _simulate(alpha, beta, gamma, epsilon, chi, theta, phi, psi):
    """The protocol on N parameter tuples, each argument an array of length N.

    Returns the tuple-last arrays the kernel computes, uncopied: rho_in
    (2, 2, N), the outcome probabilities (4, N), Bob's conditional states
    (4, 2, 2, N) and the fidelities Tr[U_r rho_Bob_r U_r^+ rho_in] (4, N),
    summed as Tr[rho_Bob_r sigma_r^T M sigma_r]. Nothing is validated, the
    closed form is never called, and column i depends on tuple i alone, bit
    for bit, whatever N is.
    """
    rho_in = _information_states(alpha, beta, gamma)
    n = rho_in.shape[-1]
    # rho_in (x) W: entry (4i + k, 4j + l) is rho_in[i, j] W[k, l]
    rho_c = (rho_in[:, None, :, None]
             * _werner_states(epsilon)[None, :, None, :]).reshape(8, 8, n)
    probabilities, bob = _project_bell(rho_c)
    u0 = _base_unitaries(chi, theta, phi, psi)
    # M = U0^+ rho_in U0 by two broadcast multiply-adds, each entry summed over k = 0, 1
    u0_h = u0.conj().swapaxes(0, 1)
    t = u0_h[:, :1] * rho_in[:1] + u0_h[:, 1:] * rho_in[1:]
    m = t[:, :1] * u0[:1] + t[:, 1:] * u0[1:]
    # (sigma_r^T M sigma_r)^T for every r, a (4, 2, 2, N) gather
    rotated = np.take(m.reshape(4, n), _PERM, axis=0)
    rotated *= _SIGN[..., None]
    # the trace summed as numpy sums a contiguous 2x2 block of four entries
    p = bob * rotated
    fidelities = ((p[:, 0, 0] + p[:, 0, 1]) + (p[:, 1, 0] + p[:, 1, 1])).real
    return rho_in, probabilities, bob, fidelities


def _mean_fidelity(probabilities: np.ndarray, fidelities: np.ndarray) -> np.ndarray:
    """Probability-weighted mean over the branch axis 0: sum_r p_r F_r / sum_r p_r."""
    return (probabilities * fidelities).sum(axis=0) / probabilities.sum(axis=0)


def run_protocol(info: InformationState, resource: WernerResource,
                 angles: UnitaryAngles) -> FidelityReport:
    """Run all four Bell branches and report probabilities and fidelities.

    For each outcome r the teleported state is U_r rho_Bob_r U_r^dagger and
    its fidelity is the trace overlap Tr[rho_T rho_in]. With the shared-U0
    corrections the four fidelities coincide; the report's ``fidelity`` is
    their probability-weighted mean. This is the N = 1 case of the batched
    kernel. Each argument must be of its own dataclass (TypeError
    otherwise); the dataclasses were range-checked when built and no state
    is validated again.
    """
    info = _require_record(info, InformationState, "info")
    resource = _require_record(resource, WernerResource, "resource")
    angles = _require_record(angles, UnitaryAngles, "angles")
    params = np.array([[info.alpha, info.beta, info.gamma, resource.epsilon,
                        angles.chi, angles.theta, angles.phi, angles.psi]])
    _, probabilities, _, fidelities = _simulate(*params.T)
    total_p = float(probabilities.sum())
    if abs(total_p - 1.0) > 1e-12:
        raise DensityMatrixError(f"branch probabilities sum to {total_p:.15g}")
    records = tuple(OutcomeRecord(r, float(p), float(f))
                    for r, p, f in zip(BELL_INDICES, probabilities[:, 0], fidelities[:, 0]))
    return FidelityReport(outcomes=records,
                          fidelity=float(_mean_fidelity(probabilities, fidelities)[0]))
