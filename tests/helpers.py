"""Shared test utilities: random states and reference formulas."""

import functools
import math

import numpy as np

from werner_teleport import analytics
from werner_teleport.analytics import _angle_factors, _fidelity_core, _row_factors
from werner_teleport.protocol import _SIGMA_R, _base_unitaries
from werner_teleport.states import (
    _DOMAINS,
    _PHI_PLUS_PROJECTOR,
    _information_states,
    _require_scalar,
    _werner_states,
)


def tuple_first(stack):
    """A tuple-last (..., N) builder output as a C-ordered (N, ...) stack."""
    return np.ascontiguousarray(np.moveaxis(stack, -1, 0))


def random_density(rng, dim):
    """Ginibre construction: G G+ normalized to unit trace."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def draw_tuples_reference(rng, n):
    """`verify._draw_tuples` as one `uniform(0, hi, n)` call per parameter.

    The column-by-column draw, each column filled in the domain table's
    order. The one-call draw must give the same (n, 8) values byte for byte
    and leave the generator in the same state.
    """
    cols = np.empty((n, len(_DOMAINS)))
    for i, (hi, _) in enumerate(_DOMAINS.values()):
        cols[:, i] = rng.uniform(0.0, hi, n)
    return cols


def werner_states_reference(epsilon):
    """`states._werner_states` as (1 - eps)/4 * I + eps * |phi+><phi+|.

    The identity and projector products over all sixteen entries; the
    entrywise build must give the same bytes, for a scalar and for an array.
    """
    eps = np.asarray(epsilon, dtype=float)
    matrix = (4, 4) + (1,) * eps.ndim
    return ((1.0 - eps) / 4.0 * np.eye(4, dtype=complex).reshape(matrix)
            + eps * _PHI_PLUS_PROJECTOR.reshape(matrix))


def require_range_reference(value, name):
    """`states._require_range` with the entrywise array test alone.

    The range check as it was before its two-reduction fast path: an array
    of kind b, i, u or f is tested entry by entry, and the first entry that
    fails, in row-major order, gets the message a scalar would get; an
    object array has each entry checked alone; any other array is refused
    by its dtype. Scalars and entries go through `states._require_scalar`,
    never the array path. The two must agree on every input, in result,
    dtype and error.
    """
    if not (isinstance(value, np.ndarray) and value.ndim):
        return _require_scalar(value, name)
    if value.dtype.kind == "O":
        return np.array([_require_scalar(entry, name) for entry in value.flat]).reshape(value.shape)
    if value.dtype.kind not in "biuf":
        raise TypeError(f"{name} must be a real number, got a {value.dtype.name} value")
    hi, open_upper = _DOMAINS[name]
    inside = (value >= 0.0) & ((value < hi) if open_upper else (value <= hi))
    if inside.all():
        return value.astype(float, copy=False)
    return _require_scalar(value.flat[np.argmin(inside)], name)  # raises for the entry


def _literal(rows):
    matrix = np.array(rows, dtype=complex)
    matrix.setflags(write=False)
    return matrix


# The single-qubit ladder basis |0><0|, |1><1|, |0><1| and |1><0|, written out.
I_PLUS = _literal([[1, 0], [0, 0]])
I_MINUS = _literal([[0, 0], [0, 1]])
R_PLUS = _literal([[0, 1], [0, 0]])
R_MINUS = _literal([[0, 0], [1, 0]])


def conditional_state_reference(info, epsilon, r):
    """Bob's conditional state for branch r, written in the ladder basis.

        r = 0:  [ {p00(1+e) + p11(1-e)} |0><0| + {p00(1-e) + p11(1+e)} |1><1|
                  + 2 e p01 |0><1| + 2 e p10 |1><0| ] / 2

    with the diagonal pair and the off-diagonal pair swapped for r in (2, 3)
    and the off-diagonal sign flipped for r in (1, 3). ``info`` may be a
    stack (..., 2, 2) and ``epsilon`` an array that broadcasts against its
    leading axes. Shares no code with `protocol._conditional_states`, which
    must give the same values; only the sign of a zero entry may differ.
    """
    epsilon = np.asarray(epsilon, dtype=float)[..., None, None]
    info = np.asarray(info, dtype=complex)
    # entries of each input as (..., 1, 1) arrays that scale the 2x2 operators
    p00, p01 = info[..., :1, :1], info[..., :1, 1:]
    p10, p11 = info[..., 1:, :1], info[..., 1:, 1:]
    heavy = p00 * (1 + epsilon) + p11 * (1 - epsilon)
    light = p00 * (1 - epsilon) + p11 * (1 + epsilon)
    if r in (2, 3):
        heavy, light = light, heavy
        p01, p10 = p10, p01
    sign = 1.0 if r in (0, 2) else -1.0
    return 0.5 * (heavy * I_PLUS + light * I_MINUS
                  + sign * 2.0 * epsilon * (p01 * R_PLUS + p10 * R_MINUS))


def fidelity_reference(a, b, g, e, th, ph, ps):
    """Independent transcription of the closed-form fidelity.

    Kept separate from the package so grid/search tests have an oracle
    that does not share code with the implementation under test.
    """
    return 0.5 * (
        (1 + e * np.cos(th) * np.cos(a) ** 2)
        + g * e * np.sin(th) * np.sin(2 * a) * np.sin(ph) * np.sin(b + ps)
        + g * g * e * np.cos(th / 2) ** 2 * np.cos(2 * ph) * np.sin(a) ** 2
        - g * g * e * np.sin(th / 2) ** 2 * np.sin(a) ** 2 * np.cos(2 * (b + ps))
    )


def beta_reduced_terms_reference(alpha, gamma, epsilon, theta, phi):
    """A, B and C of F = A + B sin(beta+psi) + C cos(2(beta+psi)).

    Transcribes the terms of `analytics._fidelity_core` as they were before
    their alpha-free factors moved to `analytics._row_factors`: one
    expression per term, with the same products in the same left-to-right
    order, so A + B sin(beta+psi) + C cos(2(beta+psi)) from these terms
    must equal `_fidelity_core` bit for bit.
    """
    sin_a_sq = np.sin(alpha) ** 2
    ge = gamma * epsilon
    a_term = 0.5 * (1.0 + epsilon * np.cos(theta) * np.cos(alpha) ** 2
                    + gamma * ge * np.cos(0.5 * theta) ** 2 * np.cos(2.0 * phi) * sin_a_sq)
    b_term = 0.5 * ge * np.sin(theta) * np.sin(phi) * np.sin(2.0 * alpha)
    c_term = -0.5 * gamma * ge * np.sin(0.5 * theta) ** 2 * sin_a_sq
    return a_term, b_term, c_term


def information_profile_reference(alpha, gamma, epsilon, theta, phi):
    """min over beta of F, from `beta_reduced_terms_reference`."""
    return worst_over_beta(*beta_reduced_terms_reference(alpha, gamma, epsilon, theta, phi))


def worst_over_beta(a_term, b_term, c_term):
    """min over beta of A + B sin(beta+psi) + C cos(2(beta+psi)), elementwise.

    With s = sin(beta+psi), the beta part is the quadratic B s + C (1 - 2 s^2)
    on s in [-1, 1]. C is never positive, so its minimum is the vertex
    B / (4 C) clamped to [-1, 1] where C < 0, and the edge opposite the sign
    of B where C == 0. The result does not involve psi.
    """
    s = np.array(-np.copysign(1.0, b_term))
    np.divide(b_term, 4.0 * c_term, out=s, where=c_term < 0.0)
    s = np.clip(s, -1.0, 1.0, out=s)
    return a_term + (b_term * s + c_term * (1.0 - 2.0 * s * s))


def zoomed_worst_case_reference(gamma, epsilon, theta, phi, points=65):
    """Worst case of F over the input by a grid in alpha refined by zooms.

    A numeric route for the package's closed-form worst case that shares no
    code with it: F is minimized over beta in closed form by
    `information_profile_reference`, then over alpha in [0, pi] on `points`
    evenly spaced points, and the lowest point is refined by passes of
    `points` evenly spaced points over one grid step on each side of it,
    until the bracket is no wider than 1e-10. The bracket always holds a
    local minimum of the profile, and every local minimum is a global one
    (`test_alpha_profile_has_no_local_minimum_above_the_worst_case`).
    Broadcasts over the four arguments and returns an array of their shape.
    """
    args = [np.asarray(a, dtype=float) for a in (gamma, epsilon, theta, phi)]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    gamma, epsilon, theta, phi = (np.broadcast_to(a, shape).reshape(-1, 1) for a in args)
    lo, hi = np.zeros_like(theta), np.full_like(theta, math.pi)
    fractions = np.linspace(0.0, 1.0, points)
    rows = np.arange(theta.shape[0])
    while True:
        alphas = lo + (hi - lo) * fractions
        profile = information_profile_reference(alphas, gamma, epsilon, theta, phi)
        pick = np.argmin(profile, axis=1)
        if (hi - lo).max() <= 1e-10:
            return profile[rows, pick].reshape(shape)
        best, sub = alphas[rows, pick][:, None], (hi - lo) / (points - 1)
        lo, hi = np.maximum(best - sub, 0.0), np.minimum(best + sub, math.pi)


def _zoom_max_reference(f, lo, hi, k):
    """Maximum of f on the bracket [lo, hi] by k-ary zoom.

    Each pass evaluates k + 1 evenly spaced points of the bracket, the last
    one exactly hi, and shrinks the bracket to the pass's best point plus or
    minus one sub-step, until it is no wider than `analytics.REFINE_TOL`.
    Returns the best point seen (ties keep the earlier point), its value and
    the final bracket width.
    """
    fractions = np.arange(k + 1) / k
    best_x, best_f = lo, -math.inf
    while True:
        sub = (hi - lo) / k
        x = lo + (hi - lo) * fractions
        x[-1] = hi
        fx = f(x)
        pick = int(np.argmax(fx))
        if fx[pick] > best_f:
            best_x, best_f = float(x[pick]), float(fx[pick])
        lo, hi = max(lo, float(x[pick] - sub)), min(hi, float(x[pick] + sub))
        if hi - lo <= analytics.REFINE_TOL:
            return best_x, best_f, hi - lo


def sequential_minimax_reference(gamma, epsilon):
    """The outer correction search as a sequential coordinate ascent.

    The coarse 33 x 33 scan, then per round a zoom of theta about the
    current point (16 sub-steps over one grid step on each side) and then a
    zoom of phi about the point theta left, with a `break` on a round with
    no move, and a dict of every evaluated point for the final lookup.
    `_worst_cases` and `_argmin` are read from the module at call time, so
    a test that swaps one of them out swaps it here too. On every real point
    `analytics.minimax_search` must give the same value, argmin, argmax and
    `tolerance_achieved` bit for bit; `iterations` here counts the ascent's
    evaluations, the seed point's included.
    """
    corrections = np.linspace(0.0, math.pi, analytics._OUTER_GRID)
    coarse, _ = analytics._worst_cases(
        gamma, epsilon, analytics._grid(corrections[:, None], corrections[None, :]))
    it, ip = divmod(int(np.argmax(coarse)), analytics._OUTER_GRID)
    current = [float(corrections[it]), float(corrections[ip])]
    seen = {}

    def outer_values(points):
        values, form = analytics._worst_cases(
            gamma, epsilon, analytics._grid(points[:, 0], points[:, 1]))
        seen.update(zip(map(tuple, points.tolist()),
                        zip(values.tolist(), *(f.tolist() for f in form))))
        return values

    best_v = float(outer_values(np.array([current]))[0])
    evaluations = 1
    step = math.pi / (analytics._OUTER_GRID - 1)
    widest_bracket = 0.0
    for _ in range(6):
        improved = False
        for ci in range(2):
            def along(x, _ci=ci):
                nonlocal evaluations
                evaluations += x.size
                points = np.repeat([current], x.size, axis=0)
                points[:, _ci] = x
                return outer_values(points)

            x, fx, width = _zoom_max_reference(
                along, max(0.0, current[ci] - step), min(math.pi, current[ci] + step), 16)
            widest_bracket = max(widest_bracket, width)
            if fx > best_v:
                current[ci], best_v = x, fx
                improved = True
        if not improved:
            break

    value, *form = seen[current[0], current[1]]
    return analytics.MinimaxResult(
        value=value,
        argmin=analytics._argmin(*form, 0.0),
        argmax=(current[0], current[1], 0.0),
        iterations=evaluations,
        tolerance_achieved=widest_bracket,
    )


# Each Bell vector (|00> +- |11>)/sqrt(2), (|01> +- |10>)/sqrt(2) as (a, b, s):
# entries 1/sqrt(2) at index a and s/sqrt(2) at index b of qubits (0, 1).
_BELL_TABLE = ((0, 3, 1.0), (0, 3, -1.0), (1, 2, 1.0), (1, 2, -1.0))


def simulate_reference(alpha, beta, gamma, epsilon, chi, theta, phi, psi):
    """`protocol._simulate` written entry by entry from the Bell table.

    Bob's unnormalized state K_r^+ rho_c K_r has entry (c, d) equal to
    0.5 ((rho_c[2a+c, 2a+d] + rho_c[2b+c, 2b+d]) + s (rho_c[2a+c, 2b+d] +
    rho_c[2b+c, 2a+d])) for the row (a, b, s) of `_BELL_TABLE`, summed in
    the kernel's order, so rho_in, the probabilities and Bob's states must
    agree bit for bit. The fidelities are the conjugation Tr[U_r rho_Bob_r
    U_r^+ rho_in], which the kernel sums as a cyclic trace in another order,
    so they agree to round-off only (`cyclic_fidelities_reference` is their
    exact pin).
    """
    rho_in = tuple_first(_information_states(alpha, beta, gamma))
    n = len(rho_in)
    rho_c = np.einsum("nij,nkl->nikjl", rho_in,
                      tuple_first(_werner_states(epsilon))).reshape(n, 8, 8)
    bob = np.empty((n, 4, 2, 2), dtype=complex)
    for r, (a, b, s) in enumerate(_BELL_TABLE):
        for c in range(2):
            for d in range(2):
                same = rho_c[:, 2 * a + c, 2 * a + d] + rho_c[:, 2 * b + c, 2 * b + d]
                cross = rho_c[:, 2 * a + c, 2 * b + d] + rho_c[:, 2 * b + c, 2 * a + d]
                bob[:, r, c, d] = 0.5 * (same + s * cross)
    probabilities = bob[..., 0, 0].real + bob[..., 1, 1].real
    bob = bob / probabilities[..., None, None]
    u_r = tuple_first(_base_unitaries(chi, theta, phi, psi))[:, None] @ _SIGMA_R
    teleported = u_r @ bob @ u_r.conj().swapaxes(-1, -2)
    fidelities = (teleported * rho_in.swapaxes(-1, -2)[:, None]).sum(axis=(-2, -1)).real
    return rho_in, probabilities, bob, fidelities


def cyclic_fidelities_reference(alpha, beta, gamma, epsilon, chi, theta, phi, psi):
    """`protocol._simulate`'s fidelities with sigma_r^T M sigma_r as matmuls.

    F_r = Tr[rho_Bob_r sigma_r^T M sigma_r] with M = U0^+ rho_in U0, each
    entry of T = U0^+ rho_in and of M = T U0 written out as a sum over k = 0
    then k = 1. The kernel gathers sigma_r^T M sigma_r from M's entries with
    a sign table; here it is the explicit product through `_SIGMA_R`, exact
    because each sigma_r has one entry +-1 per row and column, transposed
    and made C-contiguous so the trace sums in the kernel's order. The two
    must agree bit for bit.
    """
    rho_in, _, bob, _ = simulate_reference(alpha, beta, gamma, epsilon, chi, theta, phi, psi)
    u0 = tuple_first(_base_unitaries(chi, theta, phi, psi))
    t, m = np.empty_like(rho_in), np.empty_like(rho_in)
    for i in range(2):
        for j in range(2):
            t[:, i, j] = u0[:, 0, i].conj() * rho_in[:, 0, j] + u0[:, 1, i].conj() * rho_in[:, 1, j]
    for i in range(2):
        for j in range(2):
            m[:, i, j] = t[:, i, 0] * u0[:, 0, j] + t[:, i, 1] * u0[:, 1, j]
    rotated = _SIGMA_R.swapaxes(-1, -2) @ m[:, None] @ _SIGMA_R
    rotated = np.ascontiguousarray(rotated.swapaxes(-1, -2))
    return (bob * rotated).sum(axis=(-2, -1)).real


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def worst_case_reference(gamma, epsilon, theta, phi):
    """Exact worst case of F over the input state at a fixed correction.

    The protocol acts on the input's Bloch vector r = D n, with n a unit
    vector and D = diag(gamma, gamma, 1), as a depolarizing channel of
    strength epsilon followed by the rotation R of U0 (Bowen & Bose, PRL 87,
    267901, 2001), so F = (1 + epsilon r.R r)/2 and its minimum over n is
    (1 + epsilon lambda_min(D sym(R) D))/2. The worst case does not depend
    on psi (nor on the global phase chi), so U0 is taken at psi = chi = 0.
    Shares no code with the package's search.
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = np.array([[c * np.exp(1j * phi), s], [-s, c * np.exp(-1j * phi)]])
    rotation = np.einsum("iab,bc,jcd,da->ij", _PAULI, u, _PAULI, u.conj().T).real / 2
    d = np.diag([gamma, gamma, 1.0])
    quadratic = d @ (rotation + rotation.T) / 2 @ d
    return 0.5 * (1 + epsilon * np.linalg.eigvalsh(quadratic)[0])


def sphere_rule_moments(x, w, betas):
    """The eight moments of `analytics._sphere_rule` for any polar nodes
    x = cos(alpha) in [-1, 1] and weights w and any beta nodes, each the
    `math.fsum` of the node values, with sin(alpha) = sqrt((1 - x)(1 + x))."""
    s = np.sqrt((1.0 - x) * (1.0 + x))
    return tuple(math.fsum(values) for values in (
        w, w * (x * x), w * (s * s), w * (2.0 * x * s),
        np.sin(betas), np.cos(betas), np.sin(2.0 * betas), np.cos(2.0 * betas)))


@functools.lru_cache(maxsize=None)
def _polar_rule(nodes):
    # The Gauss-Legendre nodes x = cos(alpha) and weights w, read-only.
    # leggauss solves an eigenproblem, so each count is built once, here and
    # never through `analytics._sphere_rule`, the cache the references check.
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def sphere_average_reference(gamma, epsilon, angles, nodes):
    """Sphere average of F by quadrature, with the moments summed on every
    call from a rule built apart from the package's cache.

    Transcribes `analytics.average_fidelity_numeric` with its own
    Gauss-Legendre rule: the same eight moments, combined with the row
    factors and psi in the same order, so the two must agree bit for bit. It
    shares the integrand with the package on purpose;
    `sphere_average_grid_reference`, `fidelity_reference`, `f_av_max` and
    the general-correction average are the checks of the value.
    """
    x, w = _polar_rule(nodes)
    w_sum, w_cos_sq, w_sin_sq, w_sin_2a, sin_sum, cos_sum, sin2_sum, cos2_sum = sphere_rule_moments(
        x, w, 2.0 * math.pi * np.arange(nodes) / nodes)
    a_cos, a_sin, b, c = _row_factors(gamma, epsilon, _angle_factors(angles.theta, angles.phi))
    psi = angles.psi
    s = sin_sum * math.cos(psi) + cos_sum * math.sin(psi)
    k = cos2_sum * math.cos(2.0 * psi) - sin2_sum * math.sin(2.0 * psi)
    return float(0.25 * (w_sum + a_cos * w_cos_sq + a_sin * w_sin_sq)
                 + (b * w_sin_2a * s + c * w_sin_sq * k) / (2.0 * nodes))


def sphere_average_grid_reference(gamma, epsilon, angles, nodes):
    """Sphere average of F by quadrature on the full n x n product grid.

    Transcribes `analytics.average_fidelity_numeric` as it was before the
    beta rule was summed separably: F on every (alpha, beta) node, each
    row summed, then the Gauss-Legendre weights. The same rule on the same
    integrand, so the separable sum must agree with it to round-off.
    """
    x, w = _polar_rule(nodes)
    alphas, betas = np.arccos(x), 2.0 * math.pi * np.arange(nodes) / nodes
    grid = _fidelity_core(alphas[:, None], betas[None, :], gamma, epsilon,
                          angles.theta, angles.phi, angles.psi)
    return float(w @ grid.sum(axis=1)) / (2.0 * nodes)


def sweep_text_per_cell(gamma_grid, epsilon_grid, quantity, fmt):
    """A sweep's text formatted one cell at a time with f-strings.

    Transcribes the per-cell rendering loop that `cli.render_sweep` replaced,
    so its bytes can be compared with the template-based rendering on axes
    the pinned digests do not reach. `quantity` takes the (gamma, epsilon)
    meshgrid arrays and returns the value grid.
    """
    gammas = np.linspace(*gamma_grid)
    epsilons = np.linspace(*epsilon_grid)
    values = quantity(*np.meshgrid(gammas, epsilons, indexing="ij"))
    lines = ["gamma,epsilon,value"] if fmt == "csv" else []
    for g, row in zip(gammas.tolist(), values.tolist()):
        for e, v in zip(epsilons.tolist(), row):
            if fmt == "csv":
                lines.append(f"{g:.12g},{e:.12g},{v:.12g}")
            else:
                lines.append(f'{{"gamma": {g:.12g}, "epsilon": {e:.12g}, '
                             f'"value": {v:.12g}}}')
    return "\n".join(lines) + "\n"
