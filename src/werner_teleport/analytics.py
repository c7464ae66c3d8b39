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
route (nested grid/golden-section search, Gauss-Legendre quadrature) so
they can be cross-validated.

The global phase chi of Bob's unitary cancels from every conjugation, so
it does not appear in F and is excluded from all searches. F depends on
beta and psi only through beta + psi, so the worst case over a full period
of beta does not depend on psi either: the correction search runs over
(theta, phi) alone and reports psi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .protocol import UnitaryAngles
from .states import _require_range

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

# Golden-section brackets are shrunk to this width before the search stops.
REFINE_TOL = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    golden-section bracket among the outer refinements.
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
    a_term, b_term, c_term = _beta_reduced_terms(alpha, gamma, epsilon, theta, phi)
    return a_term + b_term * np.sin(beta + psi) + c_term * np.cos(2.0 * (beta + psi))


def fidelity_closed_form(alpha: float, beta: float, gamma: float, epsilon: float,
                         theta: float, phi: float, psi: float) -> float:
    """Protocol fidelity as an explicit function of all seven parameters.

    Agrees with the density-matrix simulation in
    :func:`werner_teleport.protocol.run_protocol` to round-off.
    """
    alpha = _require_range(alpha, 0.0, math.pi, "alpha")
    beta = _require_range(beta, 0.0, 2.0 * math.pi, "beta", open_upper=True)
    gamma = _require_range(gamma, 0.0, 1.0, "gamma")
    epsilon = _require_range(epsilon, 0.0, 1.0, "epsilon")
    theta = _require_range(theta, 0.0, math.pi, "theta")
    phi = _require_range(phi, 0.0, math.pi, "phi")
    psi = _require_range(psi, 0.0, math.pi, "psi")
    return float(_fidelity_core(alpha, beta, gamma, epsilon, theta, phi, psi))


def masfi(gamma: float, epsilon: float) -> float:
    """Minimum assured fidelity (1 + gamma^2 epsilon)/2.

    Worst case over all input states of a given purity, after Bob picks
    the best base correction (the identity); the minimum sits on the
    Bloch equator. Strictly below 1 for gamma < 1 even with a perfectly
    entangled resource.
    """
    gamma = _require_range(gamma, 0.0, 1.0, "gamma")
    epsilon = _require_range(epsilon, 0.0, 1.0, "epsilon")
    return 0.5 * (1.0 + gamma * gamma * epsilon)


def f_max(epsilon: float) -> float:
    """Largest attainable fidelity (1 + epsilon)/2, reached at the poles."""
    epsilon = _require_range(epsilon, 0.0, 1.0, "epsilon")
    return 0.5 * (1.0 + epsilon)


def f_av_max(gamma: float, epsilon: float) -> float:
    """Bloch-sphere average of F at the optimal correction:
    1/2 + epsilon (1 + 2 gamma^2)/6."""
    gamma = _require_range(gamma, 0.0, 1.0, "gamma")
    epsilon = _require_range(epsilon, 0.0, 1.0, "epsilon")
    return 0.5 + epsilon * (1.0 + 2.0 * gamma * gamma) / 6.0


def fidelity_gap(gamma: float, epsilon: float) -> float:
    """Excess of the average over the assured fidelity:
    (1 - gamma^2) epsilon / 6.

    Zero exactly when the input is pure or the resource fully mixed; grows
    with epsilon and shrinks with gamma.
    """
    gamma = _require_range(gamma, 0.0, 1.0, "gamma")
    epsilon = _require_range(epsilon, 0.0, 1.0, "epsilon")
    return (1.0 - gamma * gamma) * epsilon / 6.0


def classical_threshold(gamma: float) -> ClassicalThreshold:
    """Resource weights where the quantum protocol overtakes the classical
    bound, for both the averaged and the assured fidelity."""
    gamma = _require_range(gamma, 0.0, 1.0, "gamma")
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
    it must reproduce at theta = phi = 0.
    """
    gamma = _require_range(gamma, 0.0, 1.0, "gamma")
    epsilon = _require_range(epsilon, 0.0, 1.0, "epsilon")
    nodes = int(nodes)
    if nodes < 8:
        raise ValueError(f"nodes must be >= 8, got {nodes}")
    x, w = np.polynomial.legendre.leggauss(nodes)
    alphas = np.arccos(x)
    betas = 2.0 * math.pi * np.arange(nodes) / nodes
    grid = _fidelity_core(alphas[:, None], betas[None, :], gamma, epsilon,
                          angles.theta, angles.phi, angles.psi)
    return float(w @ grid.sum(axis=1)) / (2.0 * nodes)


def _golden_min(f: Callable[[float], float], lo: float, hi: float,
                tol: float) -> tuple[float, float, int, float]:
    """Golden-section minimum of f on [lo, hi].

    Returns (x, f(x), iterations, final bracket width) for the best point
    seen anywhere during the search, which is never worse than the final
    bracket midpoint. Ties keep the earlier point, so the result is
    deterministic.
    """
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi < best_f:
        best_x, best_f = hi, f_hi
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    iterations = 0
    while hi - lo > tol:
        iterations += 1
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
            if f1 < best_f:
                best_x, best_f = x1, f1
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
            if f2 < best_f:
                best_x, best_f = x2, f2
    return best_x, best_f, iterations, hi - lo


# Basin candidates of the alpha profile are plateaus: maximal runs of grid
# neighbours whose values differ by at most _PLATEAU_TOL, i.e. by round-off
# only (fidelities are O(1), so an absolute tolerance of a few machine
# epsilons). A plateau no higher than both of its outside neighbours is one
# candidate: seeded at its first lowest point, bracketed by the run plus one
# grid step on each side, and ordered among the others by (value, alpha).
# Without round-off ties every run is a single grid point.
_PLATEAU_TOL = 8.0 * np.finfo(float).eps

# Pruning margin for basin candidates: a global minimum can sit at most
# max|g''|/2 * (half grid step)^2 below its best grid sample, which for a
# 33-point mesh and the O(1) curvature of the reduced profile is well
# under 0.05. Candidates whose grid value exceeds the incumbent by more
# cannot hide the global minimum and are skipped.
_BASIN_MARGIN = 0.05


def _beta_reduced_terms(alpha, gamma, epsilon, theta, phi):
    # F(alpha, beta) = A(alpha) + B(alpha) sin(beta+psi) + C(alpha) cos(2(beta+psi))
    sin_a_sq = np.sin(alpha) ** 2
    ge = gamma * epsilon
    a_term = 0.5 * (1.0 + epsilon * np.cos(theta) * np.cos(alpha) ** 2
                    + gamma * ge * np.cos(0.5 * theta) ** 2 * np.cos(2.0 * phi) * sin_a_sq)
    b_term = 0.5 * ge * np.sin(theta) * np.sin(phi) * np.sin(2.0 * alpha)
    c_term = -0.5 * gamma * ge * np.sin(0.5 * theta) ** 2 * sin_a_sq
    return a_term, b_term, c_term


def _worst_sin(b_term, c_term):
    # The s = sin(beta+psi) in [-1, 1] minimizing B s + C (1 - 2 s^2),
    # elementwise. C is never positive, so the quadratic is convex (C < 0),
    # with its minimum at the clamped vertex, or linear (C == 0), with its
    # minimum at the edge opposite the sign of B. The vertex is written over
    # the edge in place; an np.where costs ~15% on scalar profile calls.
    s = np.array(-np.copysign(1.0, b_term))
    np.divide(b_term, 4.0 * c_term, out=s, where=c_term < 0.0)
    return np.clip(s, -1.0, 1.0, out=s)


def _information_profile(alpha, gamma, epsilon, theta, phi):
    """min over beta of F, elementwise in alpha.

    With s = sin(beta+psi), the beta part B s + C cos(2(beta+psi)) equals
    the quadratic B s + C (1 - 2 s^2) on s in [-1, 1], evaluated at its
    minimizer from :func:`_worst_sin`. The result does not involve psi at
    all.
    """
    a_term, b_term, c_term = _beta_reduced_terms(alpha, gamma, epsilon, theta, phi)
    s = _worst_sin(b_term, c_term)
    # Summed in this order: near-flat profiles break alpha ties on round-off.
    return a_term + (b_term * s + c_term * (1.0 - 2.0 * s * s))


def _best_beta(alpha: float, gamma: float, epsilon: float, theta: float,
               phi: float, psi: float) -> float:
    # The minimizing beta for one alpha. The value depends on beta only
    # through sin(beta+psi), so minima come in mirror pairs; ties resolve
    # to the smaller beta, and a fully flat profile reports 0.
    _, b_term, c_term = _beta_reduced_terms(alpha, gamma, epsilon, theta, phi)
    two_pi = 2.0 * math.pi
    if b_term == 0.0 and c_term == 0.0:
        return 0.0
    u = math.asin(float(_worst_sin(b_term, c_term)))
    return min((u - psi) % two_pi, (math.pi - u - psi) % two_pi)


def _profile_local_minima(values: np.ndarray) -> list[tuple[int, int, int]]:
    # 1-D local minimum plateaus with hard edges (alpha is not periodic), as
    # (seed, first, last) grid indices in grid order.
    breaks = np.abs(values[1:] - values[:-1]) > _PLATEAU_TOL
    firsts = np.flatnonzero(np.concatenate(([True], breaks)))
    lasts = np.concatenate((firsts[1:], [values.size])) - 1
    padded = np.concatenate(([np.inf], values, [np.inf]))
    mask = (values[firsts] <= padded[firsts]) & (values[lasts] <= padded[lasts + 2])
    return [(first + int(np.argmin(values[first:last + 1])), first, last)
            for first, last in zip(firsts[mask].tolist(), lasts[mask].tolist())]


def min_over_information(gamma: float, epsilon: float, angles: UnitaryAngles,
                         grid: int = 33) -> InformationMinimum:
    """Worst-case fidelity over the input state at a fixed correction.

    The minimum over beta is taken in closed form for each alpha (the beta
    dependence is a quadratic in sin(beta+psi)), leaving a one-dimensional
    profile in alpha. That profile is scanned on a ``grid``-point mesh and
    every grid-local basin is polished by golden section inside its
    bracketing cells until the bracket is below 1e-9.

    A basin is a plateau: a maximal run of grid neighbours whose values
    differ only by round-off (a few machine epsilons), no higher than the
    grid values just outside it. Each plateau is polished once, from its
    first lowest grid point, over the run plus one grid step on each side;
    without ties every plateau is a single grid point. On flat landscapes
    the whole grid is one plateau and its first grid point is reported;
    ties between basins resolve to the candidate whose seed sorts first by
    (value, alpha).
    """
    gamma = _require_range(gamma, 0.0, 1.0, "gamma")
    epsilon = _require_range(epsilon, 0.0, 1.0, "epsilon")
    grid = int(grid)
    if grid < 32:
        raise ValueError(f"grid must be >= 32 points per axis, got {grid}")
    theta, phi, psi = angles.theta, angles.phi, angles.psi

    alphas = np.linspace(0.0, math.pi, grid)
    profile = _information_profile(alphas, gamma, epsilon, theta, phi)
    candidates = _profile_local_minima(profile)
    candidates.sort(key=lambda c: (profile[c[0]], c[0]))
    step = math.pi / (grid - 1)

    def at(a: float) -> float:
        return float(_information_profile(a, gamma, epsilon, theta, phi))

    best_a = best_v = None
    for idx, first, last in candidates:
        seed_v = float(profile[idx])
        if best_v is not None and seed_v > best_v + _BASIN_MARGIN:
            break
        seed_a = float(alphas[idx])
        x, fx, _, _ = _golden_min(at, max(0.0, float(alphas[first]) - step),
                                  min(math.pi, float(alphas[last]) + step), REFINE_TOL)
        if fx >= seed_v:
            x, fx = seed_a, seed_v
        if best_v is None or fx < best_v:
            best_a, best_v = x, fx
    return InformationMinimum(value=best_v, alpha=best_a,
                              beta=_best_beta(best_a, gamma, epsilon, theta, phi, psi))


def minimax_search(gamma: float, epsilon: float, *, outer_grid: int = 33,
                   inner_grid: int = 33) -> MinimaxResult:
    """Maximize the worst-case fidelity over Bob's correction angles.

    Nested search in the order the problem is posed: the inner level
    minimizes F over the input state (alpha, beta), the outer level
    maximizes that minimum over (theta, phi); psi, on which the worst case
    cannot depend, is reported as 0. A coarse ``outer_grid``^2 scan (inner
    minima taken on the raw alpha mesh of the beta-reduced profile) seeds a
    coordinate-wise golden-section ascent whose outer evaluations use the
    fully refined :func:`min_over_information`. The result must agree with :func:`masfi`
    to much better than 1e-6.
    """
    gamma = _require_range(gamma, 0.0, 1.0, "gamma")
    epsilon = _require_range(epsilon, 0.0, 1.0, "epsilon")
    outer_grid = int(outer_grid)
    if outer_grid < 2:
        raise ValueError(f"outer_grid must be >= 2, got {outer_grid}")
    inner_grid = int(inner_grid)
    if inner_grid < 32:
        raise ValueError(f"inner_grid must be >= 32, got {inner_grid}")

    thetas = np.linspace(0.0, math.pi, outer_grid)
    phis = np.linspace(0.0, math.pi, outer_grid)
    alphas = np.linspace(0.0, math.pi, inner_grid)

    # Coarse stage: inner grid minima of the beta-reduced profile.
    profile = _information_profile(alphas[None, None, :], gamma, epsilon,
                                   thetas[:, None, None], phis[None, :, None])
    it, ip = divmod(int(np.argmax(profile.min(axis=2))), outer_grid)
    current = [float(thetas[it]), float(phis[ip])]

    evaluations = 0
    seen: dict[tuple[float, float], InformationMinimum] = {}  # inner minimum per point

    def outer_value(th: float, ph: float) -> InformationMinimum:
        nonlocal evaluations
        evaluations += 1
        seen[th, ph] = min_over_information(
            gamma, epsilon, UnitaryAngles(0.0, th, ph, 0.0), grid=inner_grid)
        return seen[th, ph]

    incumbent = outer_value(*current)
    best_v = incumbent.value
    step = math.pi / (outer_grid - 1)
    widest_bracket = 0.0

    for _ in range(6):
        improved = False
        for ci in range(2):
            def negated(x: float, _ci: int = ci) -> float:
                args = list(current)
                args[_ci] = x
                return -outer_value(*args).value

            x, fx, _, width = _golden_min(
                negated, max(0.0, current[ci] - step),
                min(math.pi, current[ci] + step), REFINE_TOL)
            widest_bracket = max(widest_bracket, width)
            if -fx > best_v:
                current[ci] = x
                best_v = -fx
                improved = True
        if not improved:
            break

    final = seen[current[0], current[1]]  # the ascent only moves to evaluated points
    return MinimaxResult(
        value=final.value,
        argmin=(final.alpha, final.beta),
        argmax=(current[0], current[1], 0.0),
        iterations=evaluations,
        tolerance_achieved=widest_bracket,
    )
