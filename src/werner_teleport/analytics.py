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
route (nested grid search refined by batched zooms, one per correction
for the worst case over the input; Gauss-Legendre quadrature) so they can
be cross-validated.

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
from typing import Callable, NamedTuple

import numpy as np

from .protocol import UnitaryAngles
from .states import _require_range, _require_scalar

__all__ = [
    "REFINE_TOL",
    "InformationMinimum",
    "MinimaxResult",
    "ClassicalThreshold",
    "fidelity_closed_form",
    "masfi",
    "f_max",
    "f_av_max",
    "fidelity_gap",
    "classical_threshold",
    "average_fidelity_numeric",
    "min_over_information",
    "minimax_search",
]

# Zoom brackets are shrunk to this width before the search stops.
REFINE_TOL = 1e-9

# Points per axis of the alpha grid, the first pass of every inner search,
# and of the coarse (theta, phi) scan that seeds the outer ascent.
_INNER_GRID = 33
_OUTER_GRID = 33

# Sub-steps per zoom pass: each pass evaluates k + 1 points of every bracket
# in one array call and keeps the best point plus or minus one sub-step, so a
# bracket shrinks by k/2 per pass (by k when the best point is an edge).
# The inner zoom takes _INNER_GRID - 1 sub-steps, since its first pass is the
# alpha grid; an outer point is a whole inner search, so the outer zoom takes
# fewer points per pass.
_ZOOM_K_OUTER = 16


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
    ``iterations`` counts evaluations of the outer objective (each one a
    full inner minimization); ``tolerance_achieved`` is the widest final
    zoom bracket among the outer refinements: each outer coordinate is
    pinned to within that width around the reported point.
    """

    value: float
    argmin: tuple[float, float]
    argmax: tuple[float, float, float]
    iterations: int
    tolerance_achieved: float


@dataclass(frozen=True)
class ClassicalThreshold:
    """Resource weights above which teleportation beats the classical 2/3.

    ``average``: the sphere-averaged fidelity exceeds 2/3 for
    epsilon > 1/(1 + 2 gamma^2). ``masfi``: the assured fidelity reaches
    2/3 only for epsilon >= 1/(3 gamma^2), which is attainable (<= 1) only
    when gamma > 1/sqrt(3); below that it exceeds 1 (inf at gamma = 0).
    """

    average: float
    masfi: float


def _fidelity_core(alpha, beta, gamma, epsilon, theta, phi, psi):
    # Unchecked, broadcasts over numpy arrays; hot path for every grid.
    a_term, b_term, c_term = _beta_reduced_terms(alpha, _row_factors(gamma, epsilon, theta, phi))
    return a_term + b_term * np.sin(beta + psi) + c_term * np.cos(2.0 * (beta + psi))


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


def classical_threshold(gamma: float) -> ClassicalThreshold:
    """Resource weights where the quantum protocol overtakes the classical
    bound, for both the averaged and the assured fidelity."""
    gamma = _require_scalar(gamma, "gamma")
    g2 = gamma * gamma
    return ClassicalThreshold(
        average=1.0 / (1.0 + 2.0 * g2),
        masfi=(1.0 / (3.0 * g2)) if g2 > 0.0 else math.inf,
    )


def average_fidelity_numeric(gamma: float, epsilon: float, angles: UnitaryAngles,
                             nodes: int = 64) -> float:
    """Uniform Bloch-sphere average of F at fixed purity, by quadrature.

    Integrates over the solid angle with measure sin(alpha) da db / (4 pi):
    Gauss-Legendre in cos(alpha) crossed with an equally weighted periodic
    rule in beta. Independent of the closed form in :func:`f_av_max`, which
    it must reproduce at theta = phi = 0. The rule depends on the node count
    alone, so it is built once per count and shared, read-only, by every
    later call with that count.
    """
    gamma = _require_scalar(gamma, "gamma")
    epsilon = _require_scalar(epsilon, "epsilon")
    nodes = int(nodes)
    if nodes < 8:
        raise ValueError(f"nodes must be >= 8, got {nodes}")
    alphas, w, betas = _sphere_rule(nodes)
    grid = _fidelity_core(alphas[:, None], betas[None, :], gamma, epsilon,
                          angles.theta, angles.phi, angles.psi)
    return float(w @ grid.sum(axis=1)) / (2.0 * nodes)


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


def _zoom_min(f: Callable[[np.ndarray], np.ndarray], lo, hi,
              k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum of f on each row's bracket [lo[i], hi[i]] by k-ary zoom.

    Each pass evaluates k + 1 evenly spaced points of every bracket in one
    call, f(x) with x of shape (rows, k + 1); each open bracket then shrinks
    to its best point plus or minus one sub-step. A row closes once its
    bracket is no wider than REFINE_TOL, after at least one pass; a closed
    row is still evaluated but masked out of every update, so a row's
    result does not depend on the other rows. Returns per row the best
    point seen during the search, its value and the final bracket width.
    Ties keep the earlier point, so the result is deterministic.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fractions = np.arange(k + 1) / k
    best_x, best_f = lo.copy(), np.full(lo.shape, np.inf)
    each_row, live = np.arange(lo.size), np.ones(lo.shape, dtype=bool)
    while live.any():
        sub = (hi - lo) / k
        x = lo[:, None] + (hi - lo)[:, None] * fractions
        x[:, -1] = hi  # keeps every point inside the bracket
        fx = f(x)
        pick = np.argmin(fx, axis=1)
        xi, fi = x[each_row, pick], fx[each_row, pick]
        better = live & (fi < best_f)
        best_x[better], best_f[better] = xi[better], fi[better]
        lo = np.where(live, np.maximum(lo, xi - sub), lo)
        hi = np.where(live, np.minimum(hi, xi + sub), hi)
        live &= hi - lo > REFINE_TOL
    return best_x, best_f, hi - lo


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


def _beta_reduced_terms(alpha, rows):
    # F(alpha, beta) = A(alpha) + B(alpha) sin(beta+psi) + C(alpha) cos(2(beta+psi))
    # from the tuple of row factors of _row_factors.
    a_cos_row, a_sin_row, b_row, c_row = rows
    sin_a_sq = np.sin(alpha) ** 2
    a_term = 0.5 * (1.0 + a_cos_row * np.cos(alpha) ** 2 + a_sin_row * sin_a_sq)
    return a_term, b_row * np.sin(2.0 * alpha), c_row * sin_a_sq


def _worst_sin(b_term, c_term):
    # The s = sin(beta+psi) in [-1, 1] minimizing B s + C (1 - 2 s^2),
    # elementwise. C is never positive, so the quadratic is convex (C < 0),
    # with its minimum at the clamped vertex, or linear (C == 0), with its
    # minimum at the edge opposite the sign of B. The vertex is written over
    # the edge and clamped in place; an np.where costs ~15% on scalar
    # profile calls.
    s = np.asarray(-np.copysign(1.0, b_term))
    np.divide(b_term, 4.0 * c_term, out=s, where=c_term < 0.0)
    np.maximum(s, -1.0, out=s)
    return np.minimum(s, 1.0, out=s)


def _information_profile(alpha, rows):
    """min over beta of F, elementwise in alpha, at the row factors
    ``rows`` of :func:`_row_factors`.

    With s = sin(beta+psi), the beta part B s + C cos(2(beta+psi)) equals
    the quadratic B s + C (1 - 2 s^2) on s in [-1, 1], evaluated at its
    minimizer from :func:`_worst_sin`. The result does not involve psi at
    all. The caller computes the row factors: :func:`_worst_cases` once
    per batched search, the coarse scan of :func:`minimax_search` once for
    its whole grid, so a zoom pass computes only the alpha part.
    """
    a_term, b_term, c_term = _beta_reduced_terms(alpha, rows)
    s = _worst_sin(b_term, c_term)
    # Summed in this order: near-flat profiles break alpha ties on round-off.
    return a_term + (b_term * s + c_term * (1.0 - 2.0 * s * s))


def _best_beta(alpha: float, gamma: float, epsilon: float, theta: float,
               phi: float, psi: float) -> float:
    # The minimizing beta for one alpha. The value depends on beta only
    # through sin(beta+psi), so minima come in mirror pairs; ties resolve
    # to the smaller beta, and a fully flat profile reports 0.
    _, b_term, c_term = _beta_reduced_terms(alpha, _row_factors(gamma, epsilon, theta, phi))
    two_pi = 2.0 * math.pi
    if b_term == 0.0 and c_term == 0.0:
        return 0.0
    u = math.asin(float(_worst_sin(b_term, c_term)))
    return min((u - psi) % two_pi, (math.pi - u - psi) % two_pi)


def _worst_cases(gamma: float, epsilon: float, theta: np.ndarray,
                 phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Worst case over the input for each row of corrections (theta[i],
    # phi[i]) as (values, alphas), by one zoom per row over [0, pi] whose
    # first pass is the alpha grid. Refining the lowest grid point alone is
    # enough, since every local minimum of the alpha profile is a global
    # one. In the channel form (Bowen & Bose, PRL 87, 267901, 2001),
    # F = (1 + eps n.Q n)/2 over unit Bloch directions n, with the symmetric
    # Q = D sym(R) D, and a quadratic form on the unit sphere has no local
    # minimum outside its lowest eigenspace. A local minimum in alpha of
    # min_beta F, poles included, is one of F on the sphere; the other dips
    # of the profile are mirror twins alpha <-> pi - alpha of the lowest.
    # The alpha-free row factors are computed here, once per call, as a
    # tuple of (n, 1) arrays that every zoom pass broadcasts against its
    # (n, 33) alphas, so a pass computes only the alpha part.
    rows = _row_factors(gamma, epsilon, theta[:, None], phi[:, None])
    alphas, values, _ = _zoom_min(lambda a: _information_profile(a, rows),
                                  np.zeros(theta.size), np.full(theta.size, math.pi),
                                  _INNER_GRID - 1)
    return values, alphas


def min_over_information(gamma: float, epsilon: float,
                         angles: UnitaryAngles) -> InformationMinimum:
    """Worst-case fidelity over the input state at a fixed correction.

    The minimum over beta is taken in closed form for each alpha (the beta
    dependence is a quadratic in sin(beta+psi)), leaving a one-dimensional
    profile in alpha. One zoom over [0, pi] minimizes it: the first pass
    evaluates a 33-point mesh, and every pass keeps its best point plus or
    minus one sub-step and evaluates 33 evenly spaced points of that
    bracket at once, until the bracket is no wider than ``REFINE_TOL``.
    Only the lowest grid point is refined, because every local minimum of
    the profile is a global one; the other grid-local dips are its mirror
    twins alpha <-> pi - alpha. Ties keep the point found first, so a flat
    profile reports alpha = 0. The alpha-free factors of F at the correction
    are computed once, before the zoom, and every pass reuses them.

    This is the one-row case of the batched search that
    :func:`minimax_search` runs over many corrections at once.
    """
    gamma = _require_scalar(gamma, "gamma")
    epsilon = _require_scalar(epsilon, "epsilon")
    theta, phi = angles.theta, angles.phi
    values, alphas = _worst_cases(gamma, epsilon, np.array([theta]), np.array([phi]))
    alpha = float(alphas[0])
    return InformationMinimum(value=float(values[0]), alpha=alpha,
                              beta=_best_beta(alpha, gamma, epsilon, theta, phi, angles.psi))


def minimax_search(gamma: float, epsilon: float) -> MinimaxResult:
    """Maximize the worst-case fidelity over Bob's correction angles.

    Nested search in the order the problem is posed: the inner level
    minimizes F over the input state (alpha, beta), the outer level
    maximizes that minimum over (theta, phi); psi, on which the worst case
    cannot depend, is reported as 0. A coarse 33 x 33 scan (inner minima
    taken on the raw alpha mesh of the beta-reduced profile) seeds a
    coordinate-wise ascent. Each coordinate is refined by a zoom over one
    grid step on each side of the current point: a pass evaluates 17 angles
    at once, each the fully refined inner minimum of
    :func:`min_over_information` and all of them one batched inner search,
    and keeps the best angle plus or minus one sub-step, until the bracket
    is no wider than ``REFINE_TOL``. Each inner search is one zoom per
    row, as in :func:`min_over_information`. The ascent moves only to a
    strictly better point. The result must agree with :func:`masfi` to
    much better than 1e-6.
    """
    gamma = _require_scalar(gamma, "gamma")
    epsilon = _require_scalar(epsilon, "epsilon")

    corrections = np.linspace(0.0, math.pi, _OUTER_GRID)
    alphas = np.linspace(0.0, math.pi, _INNER_GRID)

    # Coarse stage: inner grid minima of the beta-reduced profile, with the
    # row factors of the whole grid computed once.
    rows = _row_factors(gamma, epsilon, corrections[:, None, None], corrections[None, :, None])
    profile = _information_profile(alphas[None, None, :], rows)
    it, ip = divmod(int(np.argmax(profile.min(axis=2))), _OUTER_GRID)
    current = [float(corrections[it]), float(corrections[ip])]

    evaluations = 0
    seen: dict[tuple[float, float], tuple[float, float]] = {}  # (value, alpha) per point

    def outer_values(points: np.ndarray) -> np.ndarray:
        # inner minima at (theta, phi) rows, as one batched search
        nonlocal evaluations
        evaluations += len(points)
        values, argmins = _worst_cases(gamma, epsilon, points[:, 0], points[:, 1])
        seen.update(zip(map(tuple, points.tolist()), zip(values.tolist(), argmins.tolist())))
        return values

    best_v = float(outer_values(np.array([current]))[0])
    step = math.pi / (_OUTER_GRID - 1)
    widest_bracket = 0.0

    for _ in range(6):
        improved = False
        for ci in range(2):
            def negated(x: np.ndarray, _ci: int = ci) -> np.ndarray:
                points = np.repeat([current], x.size, axis=0)
                points[:, _ci] = x.ravel()
                return -outer_values(points).reshape(x.shape)

            x, fx, width = _zoom_min(negated, [max(0.0, current[ci] - step)],
                                     [min(math.pi, current[ci] + step)], _ZOOM_K_OUTER)
            widest_bracket = max(widest_bracket, float(width[0]))
            if -fx[0] > best_v:
                current[ci] = float(x[0])
                best_v = float(-fx[0])
                improved = True
        if not improved:
            break

    value, alpha = seen[current[0], current[1]]  # the ascent only moves to evaluated points
    return MinimaxResult(
        value=value,
        argmin=(alpha, _best_beta(alpha, gamma, epsilon, current[0], current[1], 0.0)),
        argmax=(current[0], current[1], 0.0),
        iterations=evaluations,
        tolerance_achieved=widest_bracket,
    )
