"""Parametrized states: the mixed input qubit, the Werner-like resource,
and the Bell basis, plus concurrence and purity diagnostics.

The input qubit is described by two Bloch angles and a coherence scale:

    rho_00 = cos^2(alpha/2)            rho_01 = gamma sin(alpha/2) cos(alpha/2) e^{-i beta}
    rho_11 = sin^2(alpha/2)            rho_10 = conj(rho_01)

gamma = 1 is a pure state, gamma = 0 a fully dephased one. The resource is
the Werner-like mixture (1 - epsilon)/4 * I + epsilon |phi+><phi+| built on
|phi+> = (|00> + |11>)/sqrt(2); it is entangled for epsilon > 1/3 with
concurrence (3 epsilon - 1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (
    DensityMatrixError,
    kron,
    sigma_y,
    validate_density,
)

__all__ = [
    "InformationState",
    "WernerResource",
    "BELL_INDICES",
    "information_state",
    "werner_state",
    "concurrence_werner",
    "wootters_concurrence",
    "purity",
]

BELL_INDICES = (0, 1, 2, 3)

_TWO_PI = 2.0 * math.pi


def _require_range(value: float, lo: float, hi: float, name: str,
                   open_upper: bool = False) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < lo or (value >= hi if open_upper else value > hi):
        bracket = ")" if open_upper else "]"
        raise ValueError(f"{name} must lie in [{lo}, {hi}{bracket}, got {value}")
    return value


@dataclass(frozen=True)
class InformationState:
    """Bloch angles and coherence scale of the qubit to be teleported.

    alpha in [0, pi], beta in [0, 2 pi), gamma in [0, 1]. At alpha = 0 or
    pi the off-diagonals vanish and beta is physically irrelevant; such
    values are accepted so parameter sweeps stay simple.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        _require_range(self.alpha, 0.0, math.pi, "alpha")
        _require_range(self.beta, 0.0, _TWO_PI, "beta", open_upper=True)
        _require_range(self.gamma, 0.0, 1.0, "gamma")


@dataclass(frozen=True)
class WernerResource:
    """Mixing weight of the two-qubit Werner-like resource state."""

    epsilon: float

    def __post_init__(self):
        _require_range(self.epsilon, 0.0, 1.0, "epsilon")


def _information_states(alpha, beta, gamma) -> np.ndarray:
    # Unchecked: input matrices for broadcast parameter arrays, shape (..., 2, 2).
    half = 0.5 * np.asarray(alpha, dtype=float)
    c, s = np.cos(half), np.sin(half)
    off = gamma * s * c * np.exp(-1j * np.asarray(beta, dtype=float))
    rho = np.empty(off.shape + (2, 2), dtype=complex)
    rho[..., 0, 0] = c * c
    rho[..., 0, 1] = off
    rho[..., 1, 0] = off.conj()
    rho[..., 1, 1] = s * s
    return rho


def information_state(state: InformationState) -> np.ndarray:
    """Build the 2x2 density matrix of the input qubit."""
    rho = _information_states(state.alpha, state.beta, state.gamma)
    rho.setflags(write=False)
    return rho


# Bell basis: (|00> +- |11>)/sqrt(2) for r = 0, 1 and (|01> +- |10>)/sqrt(2)
# for r = 2, 3.
_BELL_VECTORS = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
) / math.sqrt(2.0)
_BELL_VECTORS.setflags(write=False)

_PHI_PLUS_PROJECTOR = np.outer(_BELL_VECTORS[0], _BELL_VECTORS[0].conj())
_PHI_PLUS_PROJECTOR.setflags(write=False)


def _werner_states(epsilon) -> np.ndarray:
    # Unchecked: resources for a broadcast epsilon array, shape (..., 4, 4).
    eps = np.asarray(epsilon, dtype=float)[..., None, None]
    return (1.0 - eps) / 4.0 * np.eye(4, dtype=complex) + eps * _PHI_PLUS_PROJECTOR


def werner_state(resource: WernerResource) -> np.ndarray:
    """Build the 4x4 Werner-like resource (1-eps)/4 * I + eps |phi+><phi+|."""
    rho = _werner_states(resource.epsilon)
    rho.setflags(write=False)
    return rho


def concurrence_werner(epsilon: float) -> float:
    """Concurrence of the Werner-like state: max(0, (3 eps - 1)/2)."""
    epsilon = _require_range(epsilon, 0.0, 1.0, "epsilon")
    return max(0.0, (3.0 * epsilon - 1.0) / 2.0)


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    Spin-flips the state with (sigma_y x sigma_y) and complex conjugation
    in the computational basis, then takes the decreasing square roots
    l1 >= l2 >= l3 >= l4 of the eigenvalues of rho * rho_tilde and returns
    max(0, l1 - l2 - l3 - l4).
    """
    rho = validate_density(np.asarray(rho, dtype=complex))
    if rho.shape != (4, 4):
        raise DensityMatrixError(f"expected a two-qubit (4x4) state, got {rho.shape}")
    yy = kron(sigma_y, sigma_y)
    rho_tilde = yy @ rho.conj() @ yy
    evals = np.linalg.eigvals(rho @ rho_tilde)
    # Spectrum is nonnegative real up to round-off; clip before the sqrt.
    lams = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2]; equals 1 exactly when the state is pure."""
    rho = validate_density(np.asarray(rho, dtype=complex))
    return float(np.trace(rho @ rho).real)
