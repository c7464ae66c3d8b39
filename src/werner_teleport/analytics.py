"""Closed-form fidelity of the Werner-resource protocol and its extremes.

The trace-overlap fidelity of the teleported state admits a closed form in
the seven protocol parameters:

    F = 1/2 [ (1 + eps cos(theta) cos^2(alpha))
              + gamma eps sin(theta) sin(2 alpha) sin(phi) sin(beta + psi)
              + gamma^2 eps cos^2(theta/2) cos(2 phi) sin^2(alpha)
              - gamma^2 eps sin^2(theta/2) sin^2(alpha) cos(2 (beta + psi)) ]

Since the sender has no control over the input state, the interesting
numbers are extremes of F over the input at fixed purity: the worst case
maximized over Bob's correction (``masfi``), the Bloch-sphere average at
the optimal correction (``f_av_max``), and the absolute ceiling
(``f_max``). Each closed form here is paired with an independent numeric
route so they can be cross-validated: ``masfi`` with a grid search over
Bob's correction refined by a 2-D zoom, whose inner worst case over the
input is exact (the lowest eigenvalue of a 3x3 form, in closed form), and
``f_av_max`` with Gauss-Legendre quadrature in cos(alpha) times a periodic
rule in beta, summed separably: F's beta dependence is two sinusoids, so
the beta rule reduces to two sums shared by every alpha node.

The closed forms (``fidelity_closed_form``, ``masfi``, ``f_av_max``,
``f_max``, ``fidelity_gap``) take floats or numpy arrays, which broadcast
against each other, so a whole grid or a chunk of tuples is one call. Each
argument is range-checked once; an array fails on its first bad entry in
row-major order, with the message that entry alone would get. Floats give
a float back.

The global phase chi of Bob's unitary cancels from every conjugation, so
it does not appear in F and is excluded from all searches. F depends on
beta and psi only through beta + psi, so the worst case over a full period
of beta does not depend on psi either: the correction search runs over
(theta, phi) alone and reports psi = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .protocol import UnitaryAngles
from .states import _require_range, _require_scalar

__all__ = [
    "REFINE_TOL",
    "InformationMinimum",
    "MinimaxResult",
    "fidelity_closed_form",
    "masfi",
    "f_max",
    "f_av_max",
    "fidelity_gap",
    "average_fidelity_numeric",
    "min_over_information",
    "minimax_search",
]

# Zoom brackets are shrunk to this width before the search stops.
REFINE_TOL = 1e-9

# Points per axis of the coarse (theta, phi) scan that seeds the outer zoom.
_OUTER_GRID = 33

# Sub-steps per side of each outer zoom pass: a pass evaluates the
# (k + 1) x (k + 1) grid of the (theta, phi) bracket in one array call and
# keeps the pass's best point plus or minus one sub-step, so each side
# shrinks by k/2 per pass (by k when the best point is on its edge).
_ZOOM_K = 16

# The coarse scan's axis and the zoom's sub-step fractions, built once and
# shared, read-only, by every search.
_COARSE_AXIS = np.linspace(0.0, math.pi, _OUTER_GRID)
_FRACTIONS = np.arange(_ZOOM_K + 1) / _ZOOM_K
_COARSE_AXIS.setflags(write=False)
_FRACTIONS.setflags(write=False)


class InformationMinimum(NamedTuple):
    """Worst-case fidelity over the input state at fixed correction."""

    value: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class MinimaxResult:
    """Outcome of the nested worst-case/best-correction search.

    ``argmax`` is (theta, phi, psi) with psi = 0: the worst case over the
    input cannot depend on psi, so it is not searched.
    ``iterations`` counts evaluations of the outer objective (each an exact
    worst case over the input) in the zoom passes, plus the one read of
    ``value`` and ``argmin`` at the final point; the coarse scan that seeds
    the zoom is not counted. ``tolerance_achieved`` is the wider side of
    the final zoom bracket: each outer coordinate is pinned to within that
    width around ``argmax``.
    """

    value: float
    argmin: tuple[float, float]
    argmax: tuple[float, float, float]
    iterations: int
    tolerance_achieved: float


def _beta_terms(alpha, gamma, epsilon, theta, phi):
    # Unchecked, broadcasts over numpy arrays: (A, B, C) of
    # F = A + B sin(beta+psi) + C cos(2(beta+psi)), each row factor of
    # _row_factors at the left end of its product.
    a_cos, a_sin, b, c = _row_factors(gamma, epsilon, theta, phi)
    sin_a_sq = np.sin(alpha) ** 2
    return (0.5 * (1.0 + a_cos * np.cos(alpha) ** 2 + a_sin * sin_a_sq),
            b * np.sin(2.0 * alpha), c * sin_a_sq)


def _fidelity_core(alpha, beta, gamma, epsilon, theta, phi, psi):
    # Unchecked, broadcasts over numpy arrays; hot path for every grid.
    a_term, b_term, c_term = _beta_terms(alpha, gamma, epsilon, theta, phi)
    turn = beta + psi
    return a_term + b_term * np.sin(turn) + c_term * np.cos(2.0 * turn)


def fidelity_closed_form(alpha: float, beta: float, gamma: float, epsilon: float,
                         theta: float, phi: float, psi: float) -> float | np.ndarray:
    """Protocol fidelity as an explicit function of all seven parameters.

    Agrees with the density-matrix simulation in
    :func:`werner_teleport.protocol.run_protocol` to round-off. Broadcasts
    like the other closed forms here (see the module docstring).
    """
    alpha = _require_range(alpha, "alpha")
    beta = _require_range(beta, "beta")
    gamma = _require_range(gamma, "gamma")
    epsilon = _require_range(epsilon, "epsilon")
    theta = _require_range(theta, "theta")
    phi = _require_range(phi, "phi")
    psi = _require_range(psi, "psi")
    value = _fidelity_core(alpha, beta, gamma, epsilon, theta, phi, psi)
    return value if isinstance(value, np.ndarray) else float(value)


def masfi(gamma: float, epsilon: float) -> float | np.ndarray:
    """Minimum assured fidelity (1 + gamma^2 epsilon)/2.

    Worst case over all input states of a given purity, after Bob picks
    the best base correction (the identity); the minimum sits on the
    Bloch equator. Strictly below 1 for gamma < 1 even with a perfectly
    entangled resource.
    """
    gamma = _require_range(gamma, "gamma")
    epsilon = _require_range(epsilon, "epsilon")
    return 0.5 * (1.0 + gamma * gamma * epsilon)


def f_max(epsilon: float) -> float | np.ndarray:
    """Largest attainable fidelity (1 + epsilon)/2, reached at the poles."""
    epsilon = _require_range(epsilon, "epsilon")
    return 0.5 * (1.0 + epsilon)


def f_av_max(gamma: float, epsilon: float) -> float | np.ndarray:
    """Bloch-sphere average of F at the optimal correction:
    1/2 + epsilon (1 + 2 gamma^2)/6."""
    gamma = _require_range(gamma, "gamma")
    epsilon = _require_range(epsilon, "epsilon")
    return 0.5 + epsilon * (1.0 + 2.0 * gamma * gamma) / 6.0


def fidelity_gap(gamma: float, epsilon: float) -> float | np.ndarray:
    """Excess of the average over the assured fidelity:
    (1 - gamma^2) epsilon / 6.

    Zero exactly when the input is pure or the resource fully mixed; grows
    with epsilon and shrinks with gamma.
    """
    gamma = _require_range(gamma, "gamma")
    epsilon = _require_range(epsilon, "epsilon")
    return (1.0 - gamma * gamma) * epsilon / 6.0


def average_fidelity_numeric(gamma: float, epsilon: float, angles: UnitaryAngles,
                             nodes: int = 64) -> float:
    """Uniform Bloch-sphere average of F at fixed purity, by quadrature.

    Integrates over the solid angle with measure sin(alpha) da db / (4 pi):
    Gauss-Legendre in cos(alpha) crossed with an equally weighted periodic
    rule in beta. Independent of the closed form in :func:`f_av_max`, which
    it must reproduce at theta = phi = 0. The rule depends on the node count
    alone, so it is built once per count and shared, read-only, by every
    later call with that count. ``nodes`` is an integer >= 8 (or a whole
    float such as 64.0), never a bool.

    F is A(alpha) + B(alpha) sin(beta+psi) + C(alpha) cos(2(beta+psi)), so
    the beta rule sums each alpha node's row to n A + B S + C K, with
    S = sum_j sin(beta_j+psi) and K = sum_j cos(2(beta_j+psi)) the same for
    every row: a call evaluates (A, B, C) on the n alpha nodes and 2n beta
    terms, not F on the n x n product grid, and the weighted sum of the rows
    divided by 2n is the average.
    """
    gamma = _require_scalar(gamma, "gamma")
    epsilon = _require_scalar(epsilon, "epsilon")
    if isinstance(nodes, bool) or not (isinstance(nodes, (int, np.integer))
                                       or isinstance(nodes, float) and nodes.is_integer()):
        raise ValueError(f"nodes must be an integer, got {nodes!r}")
    nodes = int(nodes)
    if nodes < 8:
        raise ValueError(f"nodes must be >= 8, got {nodes}")
    alphas, w, betas = _sphere_rule(nodes)
    a_term, b_term, c_term = _beta_terms(alphas, gamma, epsilon, angles.theta, angles.phi)
    turn = betas + angles.psi
    rows = nodes * a_term + b_term * np.sin(turn).sum() + c_term * np.cos(2.0 * turn).sum()
    return float(w @ rows) / (2.0 * nodes)


@functools.lru_cache(maxsize=8)
def _sphere_rule(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polar nodes arccos(x), Gauss-Legendre weights w and periodic beta
    nodes of the sphere rule with `nodes` points per axis.

    Building the rule solves an eigenproblem that costs many times the
    integrand, so each count is built once. The arrays are read-only,
    since every caller with the same count shares them.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    rule = (np.arccos(x), w, 2.0 * math.pi * np.arange(nodes) / nodes)
    for array in rule:
        array.flags.writeable = False
    return rule


def _row_factors(gamma, epsilon, theta, phi):
    # The alpha-free factors of F, one set per correction row:
    # eps cos(theta), gamma ge cos^2(theta/2) cos(2 phi), 0.5 ge sin(theta)
    # sin(phi) and -0.5 gamma ge sin^2(theta/2), with ge = gamma eps. Each is
    # the left end of its product in F, so the split keeps every float.
    ge = gamma * epsilon
    return (epsilon * np.cos(theta),
            gamma * ge * np.cos(0.5 * theta) ** 2 * np.cos(2.0 * phi),
            0.5 * ge * np.sin(theta) * np.sin(phi),
            -0.5 * gamma * ge * np.sin(0.5 * theta) ** 2)


def _worst_cases(gamma: float, epsilon: float, theta: np.ndarray,
                 phi: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    # Exact worst case over the input at each correction (theta, phi),
    # elementwise over their broadcast shape, as (values, form). In the
    # channel form (Bowen & Bose, PRL 87, 267901, 2001), F = (1 + n.M n)/2
    # over unit Bloch directions n = (sin a cos(b+psi), sin a sin(b+psi),
    # cos a), with the symmetric M = eps D sym(R) D, so the worst case is
    # (1 + lambda_min(M))/2. From the row factors, M = xx on x alone plus the
    # (y, z) block [[yy, yz], [yz, zz]]. The block's lower eigenvalue is
    # min(yy, zz) - yz^2 / (|h| + hypot(h, yz)), h = (yy - zz)/2: written
    # this way it cancels nothing (mean - hypot(h, yz) is an ulp off when
    # yz = 0, enough to move the outer search). The divisor is 0 only where
    # yz is, so it is replaced there, with no 0/0. form holds (xx, yy, zz,
    # yz, block) for _argmin.
    a_cos, a_sin, b, c = _row_factors(gamma, epsilon, theta, phi)
    xx, yy, zz, yz = a_sin + 2.0 * c, a_sin - 2.0 * c, a_cos, 2.0 * b
    h = 0.5 * (yy - zz)
    gap = np.abs(h) + np.hypot(h, yz)
    block = np.minimum(yy, zz) - yz * yz / np.where(gap > 0.0, gap, 1.0)
    return 0.5 * (1.0 + np.minimum(xx, block)), (xx, yy, zz, yz, block)


def _argmin(xx: float, yy: float, zz: float, yz: float, block: float,
            psi: float) -> tuple[float, float]:
    # (alpha, beta) of a lowest eigenvector n of M, from one row of the form
    # of _worst_cases. n and -n are both minima, and so is every n of a
    # degenerate eigenspace; the rule picks one: a flat F (M a multiple of
    # the identity) reports (0, 0); else n = +-x when xx is no higher than
    # the block, the equator at b+psi in {0, pi}, the smaller beta; else the
    # block's eigenvector (n_y, n_z) = (sin a, cos a) with n_y >= 0 (n_z >= 0
    # when n_y = 0), at b+psi = pi/2, whose angle satisfies 2a = atan2(-yz, h).
    two_pi = 2.0 * math.pi
    if xx == yy == zz and yz == 0.0:
        return 0.0, 0.0
    if xx <= block:
        return 0.5 * math.pi, min(-psi % two_pi, (math.pi - psi) % two_pi)
    alpha = 0.5 * math.atan2(-yz, 0.5 * (yy - zz))  # -0.0 + 0.0 is 0.0
    beta = (0.5 * math.pi - psi) % two_pi  # 2 pi when psi is just above pi/2
    return (alpha + math.pi if alpha < 0.0 else alpha + 0.0), (beta if beta < two_pi else 0.0)


def _worst_case_at(gamma: float, epsilon: float, theta: float, phi: float,
                   psi: float) -> InformationMinimum:
    # one correction's worst case and its argmin, as a one-row _worst_cases call
    values, form = _worst_cases(gamma, epsilon, np.array([theta]), np.array([phi]))
    alpha, beta = _argmin(*(float(f[0]) for f in form), psi)
    return InformationMinimum(value=float(values[0]), alpha=alpha, beta=beta)


def min_over_information(gamma: float, epsilon: float,
                         angles: UnitaryAngles) -> InformationMinimum:
    """Worst-case fidelity over the input state at a fixed correction.

    Exact, as a closed-form eigenvalue: at a fixed correction F is
    (1 + n.M n)/2 over unit Bloch directions n of the input, with M a
    symmetric 3x3 matrix (Bowen & Bose, PRL 87, 267901, 2001), so its
    minimum over the input is (1 + lambda_min(M))/2. With n at azimuth
    beta + psi, M is x on its own plus a 2x2 (y, z) block, whose lower
    eigenvalue has a closed form. The reported (alpha, beta) is a lowest
    eigenvector, picked by one rule: a flat F reports (0, 0); an x
    eigenvector the equator at beta + psi in {0, pi}, the smaller beta; a
    block eigenvector beta + psi = pi/2 and the alpha with sin(alpha) >= 0,
    so an exact pole is alpha = 0.

    This is the one-row case of the batched worst case that
    :func:`minimax_search` takes over many corrections at once.
    """
    gamma = _require_scalar(gamma, "gamma")
    epsilon = _require_scalar(epsilon, "epsilon")
    return _worst_case_at(gamma, epsilon, angles.theta, angles.phi, angles.psi)


def minimax_search(gamma: float, epsilon: float) -> MinimaxResult:
    """Maximize the worst-case fidelity over Bob's correction angles.

    Nested search in the order the problem is posed: the inner level
    minimizes F over the input state (alpha, beta), the outer level
    maximizes that minimum over (theta, phi); psi, on which the worst case
    cannot depend, is reported as 0. The inner level is exact, the closed
    form of :func:`min_over_information`, taken for many corrections in one
    array call. A coarse 33 x 33 scan of it seeds one 2-D zoom over one grid
    step on each side of its best point: a pass evaluates the 17 x 17 grid
    of the (theta, phi) bracket in one array call, and each side then
    shrinks to the pass's best point plus or minus one sub-step, until
    neither side is wider than ``REFINE_TOL``. The best point seen moves
    only to a strictly better point, so ties keep the earlier one. The
    bracket and that point are Python floats: only the worst-case calls run
    on arrays. ``value`` and ``argmin`` are read once, at that point with
    psi = 0, as :func:`min_over_information` reads them. ``iterations``
    counts the zoom passes' points and that read, not the coarse scan's
    33 x 33. The result must
    agree with :func:`masfi` to much better than 1e-6.
    """
    gamma = _require_scalar(gamma, "gamma")
    epsilon = _require_scalar(epsilon, "epsilon")

    coarse, _ = _worst_cases(gamma, epsilon, _COARSE_AXIS[:, None], _COARSE_AXIS[None, :])
    it, ip = divmod(int(coarse.argmax()), _OUTER_GRID)
    theta, phi, best_v = float(_COARSE_AXIS[it]), float(_COARSE_AXIS[ip]), float(coarse[it, ip])
    step = math.pi / (_OUTER_GRID - 1)
    t_lo, t_hi = max(theta - step, 0.0), min(theta + step, math.pi)
    p_lo, p_hi = max(phi - step, 0.0), min(phi + step, math.pi)
    evaluations = 1  # the final read
    while max(t_hi - t_lo, p_hi - p_lo) > REFINE_TOL:
        t_axis, p_axis = t_lo + (t_hi - t_lo) * _FRACTIONS, p_lo + (p_hi - p_lo) * _FRACTIONS
        t_axis[-1], p_axis[-1] = t_hi, p_hi  # keeps every point inside the bracket
        values, _ = _worst_cases(gamma, epsilon, t_axis[:, None], p_axis[None, :])
        evaluations += values.size
        i, j = divmod(int(values.argmax()), _ZOOM_K + 1)
        t, p, v = float(t_axis[i]), float(p_axis[j]), float(values[i, j])
        if v > best_v:
            theta, phi, best_v = t, p, v
        t_sub, p_sub = (t_hi - t_lo) / _ZOOM_K, (p_hi - p_lo) / _ZOOM_K
        t_lo, t_hi = max(t_lo, t - t_sub), min(t_hi, t + t_sub)
        p_lo, p_hi = max(p_lo, p - p_sub), min(p_hi, p + p_sub)

    final = _worst_case_at(gamma, epsilon, theta, phi, 0.0)
    return MinimaxResult(
        value=final.value,
        argmin=(final.alpha, final.beta),
        argmax=(theta, phi, 0.0),
        iterations=evaluations,
        tolerance_achieved=max(t_hi - t_lo, p_hi - p_lo),
    )
