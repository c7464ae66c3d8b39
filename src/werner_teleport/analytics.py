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
input is exact (the lowest eigenvalue of a 3x3 form, in closed form).
Every real search walks the same grids, from its coarse best point, the
identity, through the same zoom brackets at the identity's corner. At
import these grids' trig is stacked into one table, the corner path, so a
search takes its worst cases on all of them in one array call, evaluates a
grid of its own only for a bracket off that path (none of the real inputs
tried reaches one), and reads its result from the arrays that found its
best point. ``f_av_max`` is paired with Gauss-Legendre quadrature in
cos(alpha) times a periodic rule in beta, summed once per node count over
the functions F is linear in, so a call is a few float operations on the
rule's moments.

The closed forms (``fidelity_closed_form``, ``masfi``, ``f_av_max``,
``f_max``, ``fidelity_gap``) take floats or numpy arrays, which broadcast
against each other, so a whole grid or a chunk of tuples is one call. Each
argument is checked once: a value that is not real raises TypeError, and an
array fails on its first bad entry in row-major order, with the message
that entry alone would get. Floats give a float back.

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
from .states import _require_count, _require_range, _require_scalar

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
    worst case over the input) in the zoom passes, plus one for the read of
    ``value`` and ``argmin`` at the final point, taken from the arrays of the
    pass (or coarse scan) that found it; the coarse scan that seeds the zoom
    is not counted. ``tolerance_achieved`` is the wider side of
    the final zoom bracket: each outer coordinate is pinned to within that
    width around ``argmax``.
    """

    value: float
    argmin: tuple[float, float]
    argmax: tuple[float, float, float]
    iterations: int
    tolerance_achieved: float


def _fidelity_core(alpha, beta, gamma, epsilon, theta, phi, psi):
    # Unchecked, broadcasts over numpy arrays; hot path for every grid. F is
    # A + B sin(beta+psi) + C cos(2(beta+psi)), each row factor of
    # _row_factors at the left end of its product.
    a_cos, a_sin, b, c = _row_factors(gamma, epsilon, _angle_factors(theta, phi))
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    sin_a_sq, turn = sin_a * sin_a, beta + psi
    return (0.5 * (1.0 + a_cos * (cos_a * cos_a) + a_sin * sin_a_sq)
            + b * np.sin(2.0 * alpha) * np.sin(turn) + c * sin_a_sq * np.cos(2.0 * turn))


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
    Gauss-Legendre in cos(alpha) crossed with an equally weighted periodic rule
    in beta. ``nodes`` is an integer >= 8: a bool, a float or another class
    raises TypeError, an integer below 8 ValueError. F is linear in the
    correction's row factors, so a call combines them and psi with the eight
    moments of :func:`_sphere_rule` in a few operations on Python floats,
    with no numpy call once the rule is built. The value is the rule's own: each
    moment is the rule's sum over its nodes, and neither :func:`f_av_max` nor an
    analytic moment (2, 2/3, 4/3, 0) enters, so a wrong coefficient in
    :func:`f_av_max`, or a wrong node or weight, fails their comparison at
    theta = phi = 0. At any correction the average is
    1/2 + eps cos(theta)/6 + gamma^2 eps cos^2(theta/2) cos(2 phi)/3.
    """
    gamma = _require_scalar(gamma, "gamma")
    epsilon = _require_scalar(epsilon, "epsilon")
    nodes = _require_count(nodes, "nodes", 8)
    w_sum, w_cos_sq, w_sin_sq, w_sin_2a, sin_sum, cos_sum, sin2_sum, cos2_sum = _sphere_rule(nodes)
    columns = _angle_factors(angles.theta, angles.phi, math)
    a_cos, a_sin, b, c = _row_factors(gamma, epsilon, columns)
    psi = angles.psi  # s, k: sum_j sin(beta_j + psi), sum_j cos(2 (beta_j + psi))
    s = sin_sum * math.cos(psi) + cos_sum * math.sin(psi)
    k = cos2_sum * math.cos(2.0 * psi) - sin2_sum * math.sin(2.0 * psi)
    return float(0.25 * (w_sum + a_cos * w_cos_sq + a_sin * w_sin_sq)
                 + (b * w_sin_2a * s + c * w_sin_sq * k) / (2.0 * nodes))


@functools.lru_cache(maxsize=8)
def _sphere_rule(nodes: int) -> tuple[float, ...]:
    """The moments of the sphere rule with `nodes` points per axis, each the
    ``math.fsum`` of its node values, so free of BLAS and summation order:
    sum w, sum w x^2, sum w s^2 and sum w 2 x s over the Gauss-Legendre nodes
    x = cos(alpha) and weights w, s = sqrt((1 - x)(1 + x)) = sin(alpha), by
    correctly rounded operations (sum w 2 x s is 0: the nodes are symmetric),
    then sum sin(beta), sum cos(beta), sum sin(2 beta) and sum cos(2 beta) over
    the periodic nodes. Building the rule solves an eigenproblem, so each count
    is built once; every caller shares the tuple of floats, which none can change.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    s, betas = np.sqrt((1.0 - x) * (1.0 + x)), 2.0 * math.pi * np.arange(nodes) / nodes
    return tuple(math.fsum(values) for values in (
        w, w * (x * x), w * (s * s), w * (2.0 * x * s),
        np.sin(betas), np.cos(betas), np.sin(2.0 * betas), np.cos(2.0 * betas)))


def _angle_factors(theta, phi, xp=np):
    # The correction's factors in F: cos(theta), cos^2(theta/2), sin(theta),
    # sin^2(theta/2), cos(2 phi) and sin(phi). xp is math for
    # average_fidelity_numeric's floats, numpy (the default) for arrays. Each
    # square is a product, which rounds the same on math floats, numpy scalars and arrays.
    cos_h, sin_h = xp.cos(0.5 * theta), xp.sin(0.5 * theta)
    return (xp.cos(theta), cos_h * cos_h, xp.sin(theta), sin_h * sin_h,
            xp.cos(2.0 * phi), xp.sin(phi))


def _row_factors(gamma, epsilon, columns):
    # The alpha-free factors of F, one set per correction row, from the six
    # columns of _angle_factors: eps cos(theta), gamma ge cos^2(theta/2)
    # cos(2 phi), 0.5 ge sin(theta) sin(phi) and -0.5 gamma ge sin^2(theta/2),
    # with ge = gamma eps. Each is the left end of its product in F, so the
    # split keeps every float; keep each product's order as written.
    cos_t, cos_h_sq, sin_t, sin_h_sq, cos_2p, sin_p = columns
    ge = gamma * epsilon
    return (epsilon * cos_t,
            gamma * ge * cos_h_sq * cos_2p,
            0.5 * ge * sin_t * sin_p,
            -0.5 * gamma * ge * sin_h_sq)


class _Grid(NamedTuple):
    # Corrections for _worst_cases: theta and phi, which broadcast against
    # each other, and the six columns of _angle_factors on them.
    theta: np.ndarray
    phi: np.ndarray
    columns: tuple[np.ndarray, ...]


def _grid(theta: np.ndarray, phi: np.ndarray) -> _Grid:
    return _Grid(theta, phi, _angle_factors(theta, phi))


def _read_only(theta: np.ndarray, phi: np.ndarray, columns: tuple[np.ndarray, ...]) -> _Grid:
    for array in (theta, phi, *columns):
        array.setflags(write=False)
    return _Grid(theta, phi, columns)


def _shared_grid(theta: np.ndarray, phi: np.ndarray) -> _Grid:
    # A read-only grid. Its columns are taken on theta and phi as given,
    # then copied out to the grid's full shape, so _worst_cases multiplies
    # arrays of one shape and each form array can be read at the index of
    # the best point.
    shape = np.broadcast_shapes(theta.shape, phi.shape)
    return _read_only(theta, phi, tuple(np.broadcast_to(f, shape).copy()
                                        for f in _angle_factors(theta, phi)))


_COARSE_GRID = _shared_grid(_COARSE_AXIS[:, None], _COARSE_AXIS[None, :])


def _zoom_grid(t_lo: float, t_hi: float, p_lo: float, p_hi: float) -> _Grid:
    # the (k + 1) x (k + 1) grid of one zoom bracket, its last points exactly
    # the bracket's upper ends, which keeps every point inside the bracket
    t_axis, p_axis = t_lo + (t_hi - t_lo) * _FRACTIONS, p_lo + (p_hi - p_lo) * _FRACTIONS
    t_axis[-1], p_axis[-1] = t_hi, p_hi
    return _shared_grid(t_axis[:, None], p_axis[None, :])


def _shrink(bracket: tuple[float, float, float, float], theta: float, phi: float,
            parts: int = _ZOOM_K) -> tuple[float, float, float, float]:
    # (t_lo, t_hi, p_lo, p_hi) cut to (theta, phi) plus or minus one of its
    # `parts` sub-steps on each side, clipped to the bracket
    t_lo, t_hi, p_lo, p_hi = bracket
    t_sub, p_sub = (t_hi - t_lo) / parts, (p_hi - p_lo) / parts
    return (max(t_lo, theta - t_sub), min(t_hi, theta + t_sub),
            max(p_lo, phi - p_sub), min(p_hi, phi + p_sub))


def _width(bracket: tuple[float, float, float, float]) -> float:
    return max(bracket[1] - bracket[0], bracket[3] - bracket[2])


# The coarse scan's bracket: the whole range of theta and phi, whose 33 grid
# points are 32 sub-steps apart.
_WHOLE = (0.0, math.pi, 0.0, math.pi)


def _corner_path() -> tuple[_Grid, tuple[tuple[float, float, float, float], ...]]:
    # The walk of a search whose best point in every grid is the grid's
    # (0, 0) corner, the identity correction, as in every real search: the
    # coarse grid and the zoom grid of each bracket the walk passes, flat and
    # stacked in walk order into one read-only grid, and those brackets. The
    # zoom grids are _zoom_grid's, so each entry holds the bits of its own
    # grid, and _worst_cases, being elementwise, gives it the same bits.
    grids, brackets = [_COARSE_GRID], []
    bracket = _shrink(_WHOLE, float(_COARSE_GRID.theta[0, 0]), float(_COARSE_GRID.phi[0, 0]),
                      _OUTER_GRID - 1)
    while _width(bracket) > REFINE_TOL:
        grid = _zoom_grid(*bracket)
        grids.append(grid)
        brackets.append(bracket)
        bracket = _shrink(bracket, float(grid.theta[0, 0]), float(grid.phi[0, 0]))
    sizes = [g.columns[0].size for g in grids]
    table, start = np.empty((8, sum(sizes))), 0
    for g, size in zip(grids, sizes):  # theta, phi and the six columns, a row each
        block = table[:, start:start + size].reshape(8, *g.columns[0].shape)
        for row, field in zip(block, (g.theta, g.phi, *g.columns)):
            row[...] = field
        start += size
    theta, phi, *columns = table
    return _read_only(theta, phi, tuple(columns)), tuple(brackets)


# The corner path: 33 x 33 coarse points, then 17 x 17 for each of its 7
# brackets, 3112 corrections that every real search evaluates in one call.
_PATH_GRID, _PATH_BRACKETS = _corner_path()


def _worst_cases(gamma: float, epsilon: float,
                 grid: _Grid) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    # Exact worst case over the input at each correction of the grid, over
    # its broadcast shape, as (values, form). In the channel form (Bowen &
    # Bose, PRL 87, 267901, 2001), F = (1 + n.M n)/2 over unit Bloch
    # directions n = (sin a cos(b+psi), sin a sin(b+psi), cos a), with the
    # symmetric M = eps D sym(R) D, so the worst case is (1 + lambda_min(M))/2.
    # From the row factors, M = xx on x alone plus the (y, z) block
    # [[yy, yz], [yz, zz]]. The block's lower eigenvalue is
    # min(yy, zz) - yz^2 / (|h| + hypot(h, yz)), h = (yy - zz)/2: written
    # this way it cancels nothing (mean - hypot(h, yz) is an ulp off when
    # yz = 0, enough to move the outer search). The divisor is 0 only where
    # yz is, so it is raised to the least subnormal there: 0/tiny is 0, with
    # no 0/0. form holds (xx, yy, zz, yz, block) for _argmin.
    a_cos, a_sin, b, c = _row_factors(gamma, epsilon, grid.columns)
    c2 = 2.0 * c
    xx, yy, zz, yz = a_sin + c2, a_sin - c2, a_cos, 2.0 * b
    h = 0.5 * (yy - zz)
    gap = np.abs(h) + np.hypot(h, yz)
    block = np.minimum(yy, zz) - yz * yz / np.maximum(gap, 5e-324)
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
    grid = _grid(np.array([angles.theta]), np.array([angles.phi]))
    values, form = _worst_cases(gamma, epsilon, grid)
    alpha, beta = _argmin(*(float(f[0]) for f in form), angles.psi)
    return InformationMinimum(value=float(values[0]), alpha=alpha, beta=beta)


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
    on arrays. A real search stays at the (0, 0) corner of each grid, the
    identity, so it walks the same 7 brackets: the corner path. Their
    grids and the coarse grid are tabulated once, at import, as one flat
    grid of 3112 corrections, and the search makes one worst-case call on
    it. A pass reads its values from that call while its bracket equals the
    path's next one (exactly, as floats); from its first bracket off the
    path it evaluates that bracket's own grid, built for the pass, and so
    does every later pass. Each entry's arithmetic is elementwise, so it
    gives the same bits in either array. ``value`` and
    ``argmin`` are read, with psi = 0, from the arrays of the call that
    found the best point, at its index: the bits
    :func:`min_over_information` gives there. ``iterations`` counts the zoom
    passes' points and that read, not the coarse scan's 33 x 33. The result
    must agree with :func:`masfi` to much better than 1e-6.
    """
    gamma = _require_scalar(gamma, "gamma")
    epsilon = _require_scalar(epsilon, "epsilon")

    path_values, path_form = _worst_cases(gamma, epsilon, _PATH_GRID)
    at = int(path_values[:_OUTER_GRID ** 2].argmax())
    theta, phi = float(_PATH_GRID.theta[at]), float(_PATH_GRID.phi[at])
    best_v = float(path_values[at])
    best_form, best_at = path_form, at
    bracket = _shrink(_WHOLE, theta, phi, _OUTER_GRID - 1)
    passes, on_path, size = 0, True, (_ZOOM_K + 1) ** 2
    while _width(bracket) > REFINE_TOL:
        on_path = on_path and passes < len(_PATH_BRACKETS) and bracket == _PATH_BRACKETS[passes]
        if on_path:
            start = _OUTER_GRID ** 2 + passes * size
            values, form = path_values, path_form
            at = start + int(values[start:start + size].argmax())
            t, p = float(_PATH_GRID.theta[at]), float(_PATH_GRID.phi[at])
        else:
            grid = _zoom_grid(*bracket)
            values, form = _worst_cases(gamma, epsilon, grid)
            at = divmod(int(values.argmax()), _ZOOM_K + 1)
            t, p = float(grid.theta[at[0], 0]), float(grid.phi[0, at[1]])
        v = float(values[at])
        if v > best_v:
            theta, phi, best_v, best_form, best_at = t, p, v, form, at
        bracket = _shrink(bracket, t, p)
        passes += 1

    alpha, beta = _argmin(*(float(f[best_at]) for f in best_form), 0.0)
    return MinimaxResult(
        value=best_v,
        argmin=(alpha, beta),
        argmax=(theta, phi, 0.0),
        iterations=1 + passes * size,  # the zoom passes' points and the final read
        tolerance_achieved=_width(bracket),
    )
