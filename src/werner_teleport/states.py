"""Parametrized states: the mixed input qubit, the Werner-like resource,
and the Bell basis, plus concurrence diagnostics.

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
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .density import (
    DensityMatrixError,
    _frozen,
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
]

BELL_INDICES = (0, 1, 2, 3)

_TWO_PI = 2.0 * math.pi

# The spin flip sigma_y (x) sigma_y of the Wootters concurrence.
_SPIN_FLIP = _frozen(np.kron(sigma_y, sigma_y))


# Domain of each protocol parameter: name -> (upper bound, half-open). Every
# lower bound is 0. The order is the column order of verify's seeded draws.
_DOMAINS = {
    "alpha": (math.pi, False),
    "beta": (_TWO_PI, True),
    "gamma": (1.0, False),
    "epsilon": (1.0, False),
    "chi": (_TWO_PI, True),
    "theta": (math.pi, False),
    "phi": (math.pi, False),
    "psi": (math.pi, False),
}


def _require_range(value, name: str):
    """``value`` as a float, or as a float array when it is a numpy array
    with at least one axis. Accepted are a real number (``numbers.Real``:
    bool and Fraction too), a numpy scalar or array of kind b, i, u or f,
    and an object array (0-d too) whose every entry :func:`_require_scalar`
    accepts; anything else raises TypeError naming ``name``. ValueError names
    the first entry, in row-major order, that is not finite or lies outside
    the domain of ``name``, with the message a scalar would get."""
    hi, open_upper = _DOMAINS[name]
    # Python floats skip the type tests, which would cost them half again.
    if type(value) is not float:
        if isinstance(value, (np.ndarray, np.generic)):
            kind = value.dtype.kind
            if kind == "O":  # entry by entry, the first bad one raising its own error
                for entry in value.flat:
                    _require_scalar(entry, name)
                value = value.astype(float)
            elif kind not in "biuf":
                raise TypeError(f"{name} must be a real number, got a {value.dtype.name} value")
            if value.ndim:
                # Two reductions pass an array in range (NaN propagates to both);
                # the entrywise test below finds the first bad entry.
                if not value.size or value.min() >= 0.0 and (
                        value.max() < hi if open_upper else value.max() <= hi):
                    return value.astype(float, copy=False)
                inside = (value >= 0.0) & ((value < hi) if open_upper else (value <= hi))
                value = value.flat[np.argmin(inside)]  # the scalar check below raises for it
        elif not isinstance(value, (int, numbers.Real)):  # int first: the ABC test is slow
            raise TypeError(f"{name} must be a real number, got a {type(value).__name__} value")
    value = float(value)
    if 0.0 <= value and (value < hi if open_upper else value <= hi):  # False for NaN
        return value
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    bracket = ")" if open_upper else "]"
    raise ValueError(f"{name} must lie in [0.0, {hi}{bracket}, got {value}")


def _require_count(value, name: str, least: int, most: int | None = None) -> int:
    """An int or numpy integer ``value`` in [least, most] (``most`` None: no bound)
    as an int. Any other class, a bool or 3.0 too, raises TypeError naming it;
    an integer outside the bounds raises ValueError."""
    if type(value) is not int:  # a Python int skips the class tests
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < least or most is not None and value > most:
        bound = f">= {least}" if value < least else f"<= {most}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _require_scalar(value, name: str) -> float:
    # _require_range for parameters that do not broadcast. An array with an
    # axis is refused here, one entry or many: whether float() takes a
    # one-entry array depends on the numpy release.
    if isinstance(value, np.ndarray) and value.ndim:
        raise TypeError(f"{name} must be a scalar, got an array of shape {value.shape}")
    return _require_range(value, name)


def _require_fields(self) -> None:
    # The __post_init__ of the parameter dataclasses: each field is the
    # parameter of the same name, and keeps the float its check returns.
    for field in fields(self):
        object.__setattr__(self, field.name, _require_scalar(getattr(self, field.name), field.name))


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

    __post_init__ = _require_fields


@dataclass(frozen=True)
class WernerResource:
    """Mixing weight of the two-qubit Werner-like resource state."""

    epsilon: float

    __post_init__ = _require_fields


def _information_states(alpha, beta, gamma) -> np.ndarray:
    # Unchecked: input matrices for broadcast parameter arrays, shape (2, 2, ...).
    half = 0.5 * np.asarray(alpha, dtype=float)
    c, s = np.cos(half), np.sin(half)
    off = gamma * s * c * np.exp(-1j * np.asarray(beta, dtype=float))
    rho = np.empty((2, 2) + off.shape, dtype=complex)
    rho[0, 0] = c * c
    rho[0, 1] = off
    rho[1, 0] = off.conj()
    rho[1, 1] = s * s
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
    # Unchecked: resources for a broadcast epsilon array, shape (4, 4, ...), from
    # the six nonzero entries of (1 - eps)/4 I + eps |phi+><phi+|, bit for bit.
    eps = np.asarray(epsilon, dtype=float)
    q = (1.0 - eps) / 4.0
    rho = np.zeros((4, 4) + eps.shape, dtype=complex)
    rho[0, 0] = rho[3, 3] = q + eps * _PHI_PLUS_PROJECTOR[0, 0]
    rho[1, 1] = rho[2, 2] = q
    rho[0, 3] = rho[3, 0] = eps * _PHI_PLUS_PROJECTOR[0, 3]
    return rho


def werner_state(resource: WernerResource) -> np.ndarray:
    """Build the 4x4 Werner-like resource (1-eps)/4 * I + eps |phi+><phi+|."""
    rho = _werner_states(resource.epsilon)
    rho.setflags(write=False)
    return rho


def concurrence_werner(epsilon: float) -> float:
    """Concurrence of the Werner-like state: max(0, (3 eps - 1)/2)."""
    epsilon = _require_scalar(epsilon, "epsilon")
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
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    evals = np.linalg.eigvals(rho @ rho_tilde)
    # Spectrum is nonnegative real up to round-off; clip before the sqrt.
    lams = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))

