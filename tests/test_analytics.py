import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werner_teleport import analytics
from werner_teleport.analytics import (
    average_fidelity_numeric,
    f_av_max,
    f_max,
    fidelity_closed_form,
    fidelity_gap,
    masfi,
    min_over_information,
    minimax_search,
)
from werner_teleport.protocol import UnitaryAngles

from helpers import (
    beta_reduced_terms_reference,
    fidelity_reference,
    information_profile_reference,
    sequential_minimax_reference,
    sphere_average_reference,
    worst_case_reference,
    worst_over_beta,
    zoomed_worst_case_reference,
)

_unit = st.floats(0, 1)


# ------------------------------------------------- closed-form fidelity

def test_closed_form_ideal_point():
    assert abs(fidelity_closed_form(math.pi / 2, 1.0, 1.0, 1.0, 0, 0, 0) - 1.0) < 1e-15


def test_closed_form_useless_resource():
    assert fidelity_closed_form(0.7, 2.0, 0.4, 0.0, 1.0, 2.0, 0.5) == 0.5


def test_closed_form_equator_partial():
    # theta = phi = 0 collapses the surface to (1 + gamma^2 eps) / 2 on the
    # equator, for any beta and psi
    for beta in (0.0, 1.0, 4.0):
        for psi in (0.0, 2.0):
            value = fidelity_closed_form(math.pi / 2, beta, 0.5, 0.8, 0, 0, psi)
            assert abs(value - 0.6) < 1e-15


def test_closed_form_matches_reference_transcription():
    rng = np.random.default_rng(67)
    for _ in range(300):
        params = (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
                  rng.uniform(0, 1), rng.uniform(0, 1),
                  rng.uniform(0, math.pi), rng.uniform(0, math.pi),
                  rng.uniform(0, math.pi))
        assert abs(fidelity_closed_form(*params) - fidelity_reference(*params)) < 1e-15


@pytest.mark.parametrize("bad", [
    dict(alpha=-0.1), dict(alpha=3.5), dict(beta=2 * math.pi), dict(gamma=1.1),
    dict(epsilon=-0.5), dict(theta=4.0), dict(phi=-1.0), dict(psi=3.3),
])
def test_closed_form_rejects_out_of_range(bad):
    params = dict(alpha=0.5, beta=0.5, gamma=0.5, epsilon=0.5,
                  theta=0.5, phi=0.5, psi=0.5)
    params.update(bad)
    with pytest.raises(ValueError):
        fidelity_closed_form(**params)


@given(alpha=st.floats(0, math.pi), beta=st.floats(0, 2 * math.pi, exclude_max=True),
       gamma=_unit, epsilon=_unit, theta=st.floats(0, math.pi),
       phi=st.floats(0, math.pi), psi=st.floats(0, math.pi))
@settings(max_examples=300)
def test_closed_form_within_epsilon_band(alpha, beta, gamma, epsilon, theta, phi, psi):
    value = fidelity_closed_form(alpha, beta, gamma, epsilon, theta, phi, psi)
    assert (1 - epsilon) / 2 - 1e-12 <= value <= (1 + epsilon) / 2 + 1e-12


def _agreement_rows():
    # 10^4 seeded (alpha, beta, gamma, epsilon, theta, phi, psi) rows plus
    # the 8 corners alpha in {0, pi} x gamma, epsilon in {0, 1}
    from werner_teleport.verify import _draw_tuples
    rows = np.delete(_draw_tuples(np.random.default_rng(73), 10**4), 4, axis=1)
    corners = [(alpha, 1.3, gamma, epsilon, 1.1, 0.7, 0.2) for alpha in (0.0, math.pi)
               for gamma in (0.0, 1.0) for epsilon in (0.0, 1.0)]
    return np.vstack([rows, corners])


def test_closed_forms_on_arrays_agree_with_scalar_calls():
    rows = _agreement_rows()
    gamma, epsilon = rows[:, 2], rows[:, 3]
    for func, args in ((masfi, (gamma, epsilon)), (f_av_max, (gamma, epsilon)),
                       (fidelity_gap, (gamma, epsilon)), (f_max, (epsilon,))):
        values = func(*args)
        assert isinstance(values, np.ndarray) and values.shape == gamma.shape
        scalar = [func(*point) for point in zip(*(a.tolist() for a in args))]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(values, scalar), func.__name__
    values = fidelity_closed_form(*rows.T)
    scalar = np.array([fidelity_closed_form(*row) for row in rows.tolist()])
    assert np.abs(values - scalar).max() <= 2.2e-16


def test_closed_forms_broadcast_and_check_every_entry():
    grid = masfi(np.linspace(0, 1, 3)[:, None], np.linspace(0, 1, 4))
    assert grid.shape == (3, 4) and grid[2, 3] == 1.0
    with pytest.raises(ValueError, match=r"epsilon must lie in \[0.0, 1.0\], got 1.5"):
        f_av_max(0.5, np.array([0.2, 1.5, -3.0]))
    with pytest.raises(ValueError, match="psi must be finite, got nan"):
        fidelity_closed_form(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, np.array([0.5, np.nan]))


# --------------------------------------------------- analytic extremes

def test_masfi_values():
    assert masfi(1.0, 1.0) == 1.0
    assert masfi(0.0, 0.7) == 0.5
    assert abs(masfi(0.5, 0.8) - 0.6) < 1e-15


def test_f_max_values():
    assert f_max(1.0) == 1.0
    assert f_max(0.0) == 0.5
    assert f_max(0.5) == 0.75


def test_f_av_max_values():
    assert f_av_max(1.0, 1.0) == 1.0
    assert abs(f_av_max(0.0, 1.0) - 2 / 3) < 1e-15
    assert abs(f_av_max(1.0, 0.6) - 0.8) < 1e-15


def test_fidelity_gap_values():
    assert fidelity_gap(1.0, 0.3) == 0.0
    assert abs(fidelity_gap(0.0, 1.0) - 1 / 6) < 1e-15
    assert abs(fidelity_gap(0.5, 0.6) - 0.075) < 1e-15


def test_gap_is_difference_of_closed_forms():
    for gamma in np.linspace(0, 1, 21):
        for epsilon in np.linspace(0, 1, 21):
            g, e = float(gamma), float(epsilon)
            assert abs(fidelity_gap(g, e) - (f_av_max(g, e) - masfi(g, e))) < 1e-12


@pytest.mark.parametrize("func", [masfi, f_av_max, fidelity_gap])
def test_two_parameter_extremes_reject_out_of_range(func):
    with pytest.raises(ValueError):
        func(1.2, 0.5)
    with pytest.raises(ValueError):
        func(0.5, -0.1)


def test_one_parameter_extremes_reject_out_of_range():
    with pytest.raises(ValueError):
        f_max(1.01)


@given(gamma=_unit, epsilon=_unit)
@settings(max_examples=300)
def test_ordering_chain_and_floor(gamma, epsilon):
    lo, mid, hi = masfi(gamma, epsilon), f_av_max(gamma, epsilon), f_max(epsilon)
    assert 0.5 - 1e-15 <= lo <= mid + 1e-15 <= hi + 2e-15


@given(gamma=_unit, g2=_unit, epsilon=_unit, e2=_unit)
@settings(max_examples=200)
def test_monotonicity(gamma, g2, epsilon, e2):
    g_lo, g_hi = sorted((gamma, g2))
    e_lo, e_hi = sorted((epsilon, e2))
    assert masfi(g_hi, epsilon) >= masfi(g_lo, epsilon) - 1e-15
    assert masfi(gamma, e_hi) >= masfi(gamma, e_lo) - 1e-15
    assert f_av_max(g_hi, epsilon) >= f_av_max(g_lo, epsilon) - 1e-15
    assert f_av_max(gamma, e_hi) >= f_av_max(gamma, e_lo) - 1e-15
    assert fidelity_gap(gamma, e_hi) >= fidelity_gap(gamma, e_lo) - 1e-15
    assert fidelity_gap(g_hi, epsilon) <= fidelity_gap(g_lo, epsilon) + 1e-15


def test_pure_information_collapse():
    for epsilon in np.linspace(0, 1, 21):
        e = float(epsilon)
        assert abs(masfi(1.0, e) - (1 + e) / 2) < 1e-12
        assert abs(f_av_max(1.0, e) - (1 + e) / 2) < 1e-12
        assert abs(f_max(e) - (1 + e) / 2) < 1e-12


# ------------------------------------------------- numeric average

def test_average_constant_integrand():
    assert abs(average_fidelity_numeric(1.0, 1.0, UnitaryAngles(), 64) - 1.0) < 1e-10


def test_average_useless_resource():
    angles = UnitaryAngles(0.0, 2.0, 1.0, 0.5)
    assert abs(average_fidelity_numeric(0.3, 0.0, angles, 16) - 0.5) < 1e-14


def test_average_matches_closed_form_at_optimum():
    got = average_fidelity_numeric(0.5, 0.8, UnitaryAngles(), 64)
    assert abs(got - 0.7) < 1e-8
    for gamma in (0.0, 0.3, 0.9, 1.0):
        for epsilon in (0.1, 0.6, 1.0):
            got = average_fidelity_numeric(gamma, epsilon, UnitaryAngles(), 64)
            assert abs(got - f_av_max(gamma, epsilon)) < 1e-8


def test_average_converges_at_general_angles():
    # away from the optimum there is no closed form; the quadrature value
    # must be node-count independent once resolved
    angles = UnitaryAngles(0.0, 1.2, 0.7, 0.4)
    coarse = average_fidelity_numeric(0.6, 0.9, angles, 32)
    fine = average_fidelity_numeric(0.6, 0.9, angles, 96)
    assert abs(coarse - fine) < 1e-9


@pytest.mark.parametrize("nodes, message", [
    (7, "nodes must be >= 8, got 7"),
    (np.int64(7), "nodes must be >= 8, got 7"),
    (8.9, "nodes must be an integer, got 8.9"),  # once truncated to 8
    ("64", "nodes must be an integer, got '64'"),
    (np.float64(16.5), r"nodes must be an integer, got (np\.float64\()?16\.5"),
    (True, "nodes must be an integer, got True"),  # once refused as 1
], ids=["7", "int64-7", "8.9", "str-64", "float64-16.5", "True"])
def test_average_rejects_few_nodes(nodes, message):
    with pytest.raises(ValueError, match=message):
        average_fidelity_numeric(0.5, 0.5, UnitaryAngles(), nodes)


_QUADRATURE_CORNERS = [(gamma, epsilon, UnitaryAngles(0.0, theta, phi, 0.0))
                       for gamma in (0.0, 1.0) for epsilon in (0.0, 1.0)
                       for theta in (0.0, math.pi) for phi in (0.0, math.pi)]


@pytest.mark.parametrize("nodes", [8, 16, 32, 64, 96])
def test_average_equals_uncached_rule_exactly(nodes):
    # the shared rule must give the very floats a freshly built one gives
    rng = np.random.default_rng(900 + nodes)
    draws = [(float(rng.random()), float(rng.random()),
              UnitaryAngles(*(float(v) for v in rng.random(4) * math.pi)))
             for _ in range(200)]
    for gamma, epsilon, angles in draws + _QUADRATURE_CORNERS:
        got = average_fidelity_numeric(gamma, epsilon, angles, nodes)
        assert got == sphere_average_reference(gamma, epsilon, angles, nodes), \
            (gamma, epsilon, angles)


def test_average_builds_rule_once_per_node_count(monkeypatch):
    analytics._sphere_rule.cache_clear()
    builds = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(nodes):
        builds.append(nodes)
        return leggauss(nodes)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    angles = UnitaryAngles(0.0, 1.2, 0.7, 0.4)
    for i in range(100):
        value = average_fidelity_numeric(0.6, 0.9, angles, 64)
        if i % 10 == 0:
            average_fidelity_numeric(0.6, 0.9, angles, 32)
            average_fidelity_numeric(0.6, 0.9, angles, 96)
    assert sorted(builds) == [32, 64, 96]
    assert average_fidelity_numeric(0.6, 0.9, angles, 64.0) == value
    assert len(builds) == 3
    with pytest.raises(ValueError):
        average_fidelity_numeric(0.6, 0.9, angles, 7)
    assert len(builds) == 3
    assert analytics._sphere_rule.cache_info().currsize == 3


def test_average_rule_is_read_only():
    angles = UnitaryAngles(0.0, 1.2, 0.7, 0.4)
    before = average_fidelity_numeric(0.6, 0.9, angles, 64)
    for array in analytics._sphere_rule(64):
        with pytest.raises(ValueError):
            array[0] = 0.0
        with pytest.raises(ValueError):
            array *= 2.0
    assert average_fidelity_numeric(0.6, 0.9, angles, 64) == before


# ------------------------------------------- minimization over inputs

def test_min_over_information_masfi_point():
    result = min_over_information(0.5, 0.8, UnitaryAngles())
    assert abs(result.value - 0.6) < 1e-12
    assert abs(result.alpha - math.pi / 2) < 1e-9


def test_min_over_information_flat_landscape():
    result = min_over_information(0.4, 0.0, UnitaryAngles(0.0, 1.0, 2.0, 3.0))
    assert result.value == 0.5
    assert result.alpha == 0.0
    assert result.beta == 0.0


def test_min_over_information_reports_consistent_argmin():
    rng = np.random.default_rng(71)
    general = [(*rng.uniform(0, 1, 2), *rng.uniform(0, math.pi, 3)) for _ in range(50)]
    corners = [(gamma, epsilon, theta, 0.7, 1.3)
               for gamma in (0.0, 1.0) for epsilon in (0.0, 1.0)
               for theta in (0.0, math.pi)]
    for gamma, epsilon, theta, phi, psi in general + corners:
        result = min_over_information(gamma, epsilon, UnitaryAngles(0, theta, phi, psi))
        at_argmin = fidelity_reference(result.alpha, result.beta, gamma, epsilon,
                                       theta, phi, psi)
        assert abs(at_argmin - result.value) < 1e-12
        assert 0.0 <= result.alpha <= math.pi
        assert 0.0 <= result.beta < 2 * math.pi


def test_min_over_information_matches_dense_grid():
    # exhaustive 1024x1024 oracle: the search may never sit above any grid
    # sample; the grid itself can overshoot the continuum minimum by about
    # max|F''|/2 * (half cell diagonal)^2 ~ 2.4e-5, the bound used below
    alphas = np.linspace(0, math.pi, 1024)[:, None]
    betas = np.linspace(0, 2 * math.pi, 1024, endpoint=False)[None, :]
    rng = np.random.default_rng(73)
    for _ in range(10):
        gamma, epsilon = rng.uniform(0, 1, 2)
        theta, phi, psi = rng.uniform(0, math.pi, 3)
        dense = float(fidelity_reference(alphas, betas, gamma, epsilon,
                                         theta, phi, psi).min())
        got = min_over_information(gamma, epsilon,
                                   UnitaryAngles(0, theta, phi, psi)).value
        assert got <= dense + 1e-9
        assert dense - got < 2.4e-5
        assert abs(got - worst_case_reference(gamma, epsilon, theta, phi)) < 1e-12


def test_min_over_information_matches_exact_worst_case():
    # the channel form gives the inner worst case as a 3x3 eigenvalue
    rng = np.random.default_rng(79)
    general = [(*rng.uniform(0, 1, 2), *rng.uniform(0, math.pi, 3)) for _ in range(1000)]
    corners = [(gamma, epsilon, theta, 0.7, 1.3)
               for gamma in (0.0, 1.0) for epsilon in (0.0, 1.0)
               for theta in (0.0, math.pi)]
    for gamma, epsilon, theta, phi, psi in general + corners:
        got = min_over_information(gamma, epsilon, UnitaryAngles(0, theta, phi, psi)).value
        assert abs(got - worst_case_reference(gamma, epsilon, theta, phi)) < 1e-12


def test_batched_worst_cases_rows_match_min_over_information():
    # min_over_information is the one-row case of the batched worst case,
    # and a row's result does not depend on the rows beside it
    rng = np.random.default_rng(83)
    thetas, phis = rng.uniform(0, math.pi, (2, 17))
    thetas[:4] = phis[:4] = (0.0, math.pi, 1e-9, 0.0)
    for gamma, epsilon in ((0.6, 0.7), (1.0, 0.4), (0.3, 0.0), (0.0, 1.0)):
        values, form = analytics._worst_cases(gamma, epsilon, thetas, phis)
        for i, (theta, phi) in enumerate(zip(thetas, phis)):
            alone = min_over_information(gamma, epsilon, UnitaryAngles(0, theta, phi, 0))
            row = [float(f[i]) for f in form]
            assert alone == (values[i], *analytics._argmin(*row, 0.0))


def test_worst_cases_match_zoomed_profile_reference():
    # The numeric route for the closed-form worst case: a grid in alpha over
    # the beta-reduced profile, refined by zooms, shares no code with it
    rng = np.random.default_rng(97)
    gamma, epsilon = rng.uniform(0, 1, (2, 1000))
    theta, phi = rng.uniform(0, math.pi, (2, 1000))
    corners = np.array([(g, e, t, 0.7) for g in (0.0, 1.0) for e in (0.0, 1.0)
                        for t in (0.0, math.pi)])
    gamma, epsilon, theta, phi = (np.concatenate([a, c]) for a, c in
                                  zip((gamma, epsilon, theta, phi), corners.T))
    values, _ = analytics._worst_cases(gamma, epsilon, theta, phi)
    zoomed = zoomed_worst_case_reference(gamma, epsilon, theta, phi)
    exact = np.array([worst_case_reference(*row) for row in zip(gamma, epsilon, theta, phi)])
    assert np.abs(values - zoomed).max() < 1e-12
    assert np.abs(exact - zoomed).max() < 1e-12


def test_min_over_information_psi_independent():
    for psi in (0.0, 0.4, 1.5, math.pi):
        result = min_over_information(0.6, 0.7, UnitaryAngles(0, 1.0, 0.5, psi))
        baseline = min_over_information(0.6, 0.7, UnitaryAngles(0, 1.0, 0.5, 0.0))
        assert abs(result.value - baseline.value) < 1e-12


def _worst_case_shapes(monkeypatch):
    """Record the (theta, phi) shapes of every call of analytics._worst_cases."""
    shapes = []
    inner = analytics._worst_cases

    def recording(gamma, epsilon, theta, phi):
        shapes.append((np.shape(theta), np.shape(phi)))
        return inner(gamma, epsilon, theta, phi)

    monkeypatch.setattr(analytics, "_worst_cases", recording)
    return shapes


def test_alpha_profile_has_no_local_minimum_above_the_worst_case():
    # The premise of zoomed_worst_case_reference: F is a quadratic form on
    # the unit sphere of Bloch directions, so every local minimum of the
    # profile is a global one. On a fine grid with hard edges, every sample
    # no higher than both neighbours sits within the grid's resolution of
    # the exact worst case.
    alphas = np.linspace(0, math.pi, 4097)
    rng = np.random.default_rng(89)
    general = [(*rng.uniform(0, 1, 2), *rng.uniform(0, math.pi, 2)) for _ in range(500)]
    corners = [(gamma, epsilon, theta, 0.7) for gamma in (0.0, 1.0)
               for epsilon in (0.0, 1.0) for theta in (0.0, math.pi)]
    for gamma, epsilon, theta, phi in general + corners:
        profile = information_profile_reference(alphas, gamma, epsilon, theta, phi)
        padded = np.pad(profile, 1, constant_values=np.inf)
        dips = profile[(profile <= padded[:-2]) & (profile <= padded[2:])]
        exact = worst_case_reference(gamma, epsilon, theta, phi)
        assert dips.size and np.abs(dips - exact).max() < 1e-6, (gamma, epsilon, theta, phi)


def _assert_split_is_bitwise(alpha, gamma, epsilon, theta, phi, rows=None):
    # A, B, C and the profile over beta from the row/alpha split against the
    # single-expression reference, byte for byte, so signed zeros count
    rows = analytics._row_factors(gamma, epsilon, theta, phi) if rows is None else rows
    terms = analytics._beta_reduced_terms(alpha, rows)
    got = (*terms, worst_over_beta(*terms))
    want = (*beta_reduced_terms_reference(alpha, gamma, epsilon, theta, phi),
            information_profile_reference(alpha, gamma, epsilon, theta, phi))
    for name, g, w in zip("ABCP", got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("seed", [13, 29, 47])
def test_split_terms_equal_single_expression_reference(seed):
    # Fails if a product of F is reassociated or reordered: the row part must
    # be the left end of each product, in the same order as before the split.
    rng = np.random.default_rng(seed)
    alpha, theta, phi = rng.uniform(0, math.pi, (3, 2000))
    gamma, epsilon = rng.uniform(0, 1, (2, 2000))
    _assert_split_is_bitwise(alpha, gamma, epsilon, theta, phi)
    g, e = float(gamma[0]), float(epsilon[0])
    # the zoom's layout: a tuple of (n, 1) row factors against (n, 33) alphas
    rows = analytics._row_factors(g, e, theta[:300, None], phi[:300, None])
    assert isinstance(rows, tuple) and {np.shape(r) for r in rows} == {(300, 1)}
    alphas = rng.uniform(0, math.pi, (300, 33))
    _assert_split_is_bitwise(alphas, g, e, theta[:300, None], phi[:300, None], rows)
    # the coarse scan's layout and a scalar call
    grid = np.linspace(0, math.pi, 33)
    _assert_split_is_bitwise(grid[None, None, :], g, e, grid[:, None, None], grid[None, :, None])
    _assert_split_is_bitwise(float(alpha[0]), g, e, float(theta[0]), float(phi[0]))


def test_split_terms_equal_reference_in_degenerate_regimes():
    # epsilon = 0, gamma in {0, 1}, alpha and theta at 0 and pi, where the
    # products hold exact and signed zeros
    axes = ([0.0, 0.8, math.pi / 2, math.pi],  # alpha
            [0.0, 0.4, 1.0],  # gamma
            [0.0, 0.7, 1.0],  # epsilon
            [0.0, 1.1, math.pi],  # theta
            [0.0, 1.3, math.pi / 2, math.pi])  # phi
    points = [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]
    _assert_split_is_bitwise(*points)
    for alpha, gamma, epsilon, theta, phi in zip(*(a.tolist() for a in points)):
        _assert_split_is_bitwise(alpha, gamma, epsilon, theta, phi)


# ------------------------------------------------------ minimax search

def test_minimax_perfect_resources():
    result = minimax_search(1.0, 1.0)
    assert abs(result.value - 1.0) < 1e-6


def test_minimax_dephased_input():
    for epsilon in (0.0, 0.5, 1.0):
        assert abs(minimax_search(0.0, epsilon).value - 0.5) < 1e-6


def test_minimax_generic_point():
    result = minimax_search(0.7, 0.9)
    assert abs(result.value - 0.7205) < 1e-6
    assert result.iterations > 0
    assert result.tolerance_achieved <= 1e-8


def test_minimax_mixed_input_never_perfect():
    # purity below one caps the assured fidelity even for a pure resource
    for gamma in (0.0, 0.4, 0.9):
        assert minimax_search(gamma, 1.0).value < 1.0 - 1e-9


def test_minimax_matches_formula_on_grid():
    for gamma in np.linspace(0, 1, 4):
        for epsilon in np.linspace(0, 1, 4):
            g, e = float(gamma), float(epsilon)
            assert abs(minimax_search(g, e).value - masfi(g, e)) < 1e-6


# minimax_search on verify's 5x5 (gamma, epsilon) grid, bit for bit: value
# and argmin (alpha, beta) as float.hex. Every point ends at the identity
# correction after 2024 outer evaluations with the same widest final bracket.
_MINIMAX_GRID = {
    (0.0, 0.0): ("0x1.0000000000000p-1", "0x0.0p+0", "0x0.0p+0"),
    (0.0, 0.25): ("0x1.0000000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.0, 0.5): ("0x1.0000000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.0, 0.75): ("0x1.0000000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.0, 1.0): ("0x1.0000000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.25, 0.0): ("0x1.0000000000000p-1", "0x0.0p+0", "0x0.0p+0"),
    (0.25, 0.25): ("0x1.0400000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.25, 0.5): ("0x1.0800000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.25, 0.75): ("0x1.0c00000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.25, 1.0): ("0x1.1000000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.5, 0.0): ("0x1.0000000000000p-1", "0x0.0p+0", "0x0.0p+0"),
    (0.5, 0.25): ("0x1.1000000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.5, 0.5): ("0x1.2000000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.5, 0.75): ("0x1.3000000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.5, 1.0): ("0x1.4000000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.75, 0.0): ("0x1.0000000000000p-1", "0x0.0p+0", "0x0.0p+0"),
    (0.75, 0.25): ("0x1.2400000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.75, 0.5): ("0x1.4800000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.75, 0.75): ("0x1.6c00000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (0.75, 1.0): ("0x1.9000000000000p-1", "0x1.921fb54442d18p+0", "0x0.0p+0"),
    (1.0, 0.0): ("0x1.0000000000000p-1", "0x0.0p+0", "0x0.0p+0"),
    (1.0, 0.25): ("0x1.4000000000000p-1", "0x0.0p+0", "0x0.0p+0"),
    (1.0, 0.5): ("0x1.8000000000000p-1", "0x0.0p+0", "0x0.0p+0"),
    (1.0, 0.75): ("0x1.c000000000000p-1", "0x0.0p+0", "0x0.0p+0"),
    (1.0, 1.0): ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
}
_MINIMAX_BRACKET = "0x1.921fb54442d18p-32"


def test_minimax_pinned_bit_for_bit_on_verify_grid():
    for (gamma, epsilon), want in _MINIMAX_GRID.items():
        result = minimax_search(gamma, epsilon)
        assert (result.value.hex(), *(a.hex() for a in result.argmin)) == want, (gamma, epsilon)
        assert [a.hex() for a in result.argmax] == ["0x0.0p+0"] * 3
        assert result.iterations == 2024
        assert result.tolerance_achieved.hex() == _MINIMAX_BRACKET


def test_minimax_argmin_on_equator_for_mixed_input():
    result = minimax_search(0.5, 0.8)
    assert abs(result.value - masfi(0.5, 0.8)) < 1e-6
    assert abs(result.argmin[0] - math.pi / 2) < 1e-6
    assert abs(result.argmax[0]) < 1e-9  # theta = 0 is optimal


def test_minimax_matches_nested_brute_force():
    # independent full nesting on raw grids (no refinement); agreement is
    # limited by the brute-force resolution, not by the search
    thetas = np.linspace(0, math.pi, 13)
    phis = np.linspace(0, math.pi, 13)
    alphas = np.linspace(0, math.pi, 129)[:, None]
    betas = np.linspace(0, 2 * math.pi, 128, endpoint=False)[None, :]
    for gamma, epsilon in ((0.3, 0.9), (0.8, 0.5)):
        brute = exact = -np.inf
        for theta in thetas:
            for phi in phis:
                surface = fidelity_reference(alphas, betas, gamma, epsilon,
                                             theta, phi, 0.0)
                brute = max(brute, float(surface.min()))
                exact = max(exact, worst_case_reference(gamma, epsilon, theta, phi))
        result = minimax_search(gamma, epsilon)
        searched = result.value
        # the brute force's coarse inner grid can only overestimate branch
        # minima, so it bounds the search value from above
        assert searched - 1e-9 <= brute < searched + 2e-3
        # the exact worst case: at the reported correction, and no grid
        # correction better than the search's
        theta, phi, _ = result.argmax
        assert abs(searched - worst_case_reference(gamma, epsilon, theta, phi)) < 1e-12
        assert exact < searched + 1e-12


# _worst_cases calls per search: one for the coarse scan, one per pass of
# the 2-D zoom, 7 from the grid point (0, 0), each on 17 x 17 points, and
# one read of value and argmin at the final point
_WORST_CASE_CALLS = 1 + 7 + 1


@pytest.mark.parametrize("gamma, epsilon", [(0.3, 0.0), (1.0, 0.4), (0.7, 0.9), (0.0, 0.5)])
def test_minimax_golden_call_budget(monkeypatch, gamma, epsilon):
    # flat points (epsilon = 0, gamma = 1) once cost 4326 and 2339 scalar
    # golden-section searches against 134 at a general point; every point
    # now costs 1 + 7 * 17^2 evaluations in the same number of array calls
    calls = _worst_case_shapes(monkeypatch)
    result = minimax_search(gamma, epsilon)
    assert result.iterations == 2024
    assert len(calls) == _WORST_CASE_CALLS
    assert abs(result.value - masfi(gamma, epsilon)) <= 2.0 ** -53


def test_minimax_cost_and_value_on_seeded_points():
    # The worst case is exact, so every search costs the same and ends at
    # masfi to an ulp (2^-53 on [1/2, 1)), flat points included. The block
    # eigenvalue written as mean - hypot(h, yz) instead is an ulp low at
    # yz = 0, which sends the zoom after a better point that is not there
    # (iterations 2313).
    rng = np.random.default_rng(17)
    points = [tuple(p) for p in rng.uniform(0, 1, (300, 2)).tolist()]
    for x in np.linspace(0, 1, 23).tolist():
        points += [(x, 0.0), (1.0, x), (0.0, x)]
    for gamma, epsilon in points:
        result = minimax_search(gamma, epsilon)
        assert result.iterations == 2024, (gamma, epsilon)
        assert abs(result.value - masfi(gamma, epsilon)) <= 2.0 ** -53, (gamma, epsilon)


def _reports_min_over_information(gamma, epsilon, result):
    # the search's value and argmin are min_over_information's at its argmax,
    # bit for bit
    theta, phi, _ = result.argmax
    want = min_over_information(gamma, epsilon, UnitaryAngles(theta=theta, phi=phi))
    return [x.hex() for x in (result.value, *result.argmin)] == [x.hex() for x in want]


def _same_result(result, want):
    # value, argmin, argmax and tolerance_achieved, bit for bit
    def bits(r):
        return [x.hex() for x in (r.value, *r.argmin, *r.argmax, r.tolerance_achieved)]
    return bits(result) == bits(want)


def test_minimax_matches_sequential_ascent_on_real_points():
    # every real point starts at the identity and never moves, so the 2-D
    # zoom must give the result of the coordinate ascent, bit for bit; only
    # the number of evaluations differs
    rng = np.random.default_rng(23)
    points = list(_MINIMAX_GRID) + [tuple(p) for p in rng.uniform(0, 1, (40, 2)).tolist()]
    for gamma, epsilon in points:
        result, want = minimax_search(gamma, epsilon), sequential_minimax_reference(gamma, epsilon)
        assert _same_result(result, want), (gamma, epsilon)
        assert _reports_min_over_information(gamma, epsilon, result), (gamma, epsilon)


def _synthetic_worst_cases(theta_star, phi_star, cross):
    """A smooth outer landscape with its maximum at (theta_star, phi_star).

    Stands in for analytics._worst_cases. The form is one no real point
    gives (no flat rows, yz = -theta, yy = phi), so _argmin's alpha, 0.5
    atan2(theta, phi / 2), depends on which point the search ends at.
    """
    def worst_cases(gamma, epsilon, theta, phi):
        dt, dp = theta - theta_star, phi - phi_star
        values = 0.9 - dt * dt - dp * dp - cross * dt * dp
        zeros = np.zeros_like(values)
        return values, (zeros + 2.0, zeros + phi, zeros, zeros - theta, zeros)
    return worst_cases


_ON_GRID = math.pi / 2  # linspace(0, pi, 33)[16]


@pytest.mark.parametrize("theta_star, phi_star, cross", [
    (1.0, _ON_GRID, 0.0),  # off the coarse grid in theta only
    (_ON_GRID, 2.0, 0.0),  # in phi only
    (1.0, 2.0, 0.5),  # in both
    # ridges: a coordinate ascent stops 1.5e-3 and 3.5e-2 short of these
    (1.0, 2.0, -1.5),
    (1.0, 2.0, 1.9),
])
def test_minimax_zoom_reaches_off_grid_maxima(monkeypatch, theta_star, phi_star, cross):
    # no real point moves off the coarse scan's (0, 0), so these landscapes
    # stand in for the worst case to reach maxima between grid points
    assert np.linspace(0.0, math.pi, 33)[16] == _ON_GRID
    monkeypatch.setattr(analytics, "_worst_cases",
                        _synthetic_worst_cases(theta_star, phi_star, cross))
    calls = _worst_case_shapes(monkeypatch)
    result = minimax_search(0.5, 0.5)
    passes = calls[1:-1]  # between the coarse scan and the final read

    assert abs(result.argmax[0] - theta_star) < 1e-7 and abs(result.argmax[1] - phi_star) < 1e-7
    assert _reports_min_over_information(0.5, 0.5, result)
    # each pass leaves at most 1/8 of a side's width, so 10 passes take the
    # widest first bracket, 2 pi / 32, below REFINE_TOL
    assert len(passes) <= 10
    assert passes == [((17, 1), (1, 17))] * len(passes)
    assert result.iterations == 1 + len(passes) * 17 ** 2
    assert result.tolerance_achieved <= analytics.REFINE_TOL


def test_minimax_never_searches_psi(monkeypatch):
    # the worst case over beta cannot depend on psi, so psi stays at 0: the
    # coarse scan is one (33, 1) x (1, 33) call, each zoom pass one
    # (17, 1) x (1, 17) call and the final read one (theta, phi) row, and the
    # argmin's beta is taken at psi = 0
    psis = []
    argmin = analytics._argmin

    def argmin_at(*form):
        psis.append(form[-1])
        return argmin(*form)

    def unexpected(*args, **kwargs):
        raise AssertionError("minimax_search called the scalar inner search")

    shapes = _worst_case_shapes(monkeypatch)
    monkeypatch.setattr(analytics, "_argmin", argmin_at)
    monkeypatch.setattr(analytics, "min_over_information", unexpected)
    result = minimax_search(0.7, 0.9)
    assert shapes[0] == ((33, 1), (1, 33))
    assert shapes[1:-1] == [((17, 1), (1, 17))] * (len(shapes) - 2)
    assert shapes[-1] == ((1,), (1,))
    assert 1 + 17 ** 2 * (len(shapes) - 2) == result.iterations
    assert psis == [0.0]
    assert result.argmax[2] == 0.0


# (gamma, epsilon, theta, phi, psi) -> the (alpha, beta) the argmin rule
# reports, or None where only the value and F at the argmin are checked
_DEGENERATE_REGIMES = {
    # epsilon = 0: F = 1/2 everywhere, reported as (0, 0) whatever psi
    # (test_min_over_information_flat_landscape has psi = 3)
    (0.0, 0.0, 0.0, 0.0, 0.0): (0.0, 0.0),
    (1.0, 0.0, math.pi, math.pi, math.pi): (0.0, 0.0),
    # gamma = 0: the x-y plane is degenerate; at theta <= pi/2 its minimum
    # is the equator, at theta > pi/2 the pole n = +z
    (0.0, 0.8, 0.0, 0.0, 0.0): (math.pi / 2, 0.0),
    (0.0, 0.8, 1.2, 0.5, 0.0): (math.pi / 2, 0.0),
    (0.0, 0.8, math.pi / 2, 0.5, 0.0): (math.pi / 2, 0.0),
    (0.0, 0.8, 2.5, 0.5, 0.0): (0.0, math.pi / 2),
    # gamma = 1 at the identity: flat, whatever psi
    (1.0, 0.7, 0.0, 0.0, 0.0): (0.0, 0.0),
    (1.0, 0.7, 0.0, 0.0, 2.0): (0.0, 0.0),
    # gamma = 1 away from the identity
    (1.0, 0.7, 1e-9, 1e-9, 0.0): None,
    (1.0, 0.7, 0.0, 1.1, 0.0): None,
    (1.0, 0.7, 2.0, 0.4, 0.0): None,
    (1.0, 0.7, math.pi, 0.0, 0.0): None,
    # theta = 0 keeps the minimum on the equator; theta = pi moves it to a
    # pole, n = +z where phi = 0 and n = -z (alpha = pi) where the round-off
    # of sin(pi) tilts the block's eigenvector past the pole
    (0.5, 0.8, 0.0, 0.0, 0.0): (math.pi / 2, 0.0),
    (0.5, 0.8, 0.0, 1.0, 0.0): (math.pi / 2, 0.0),
    (0.5, 0.8, math.pi, 0.0, 0.0): (0.0, math.pi / 2),
    (0.5, 0.8, math.pi, 0.7, 0.0): (math.pi, math.pi / 2),
    (0.5, 0.8, math.pi, math.pi, 0.0): None,
    # psi != 0 moves beta alone: the equator's smaller beta, or pi/2 - psi
    (0.5, 0.8, 0.0, 0.0, 1.3): (math.pi / 2, math.pi - 1.3),
    (0.5, 0.8, 0.0, 1.0, 3.0): (math.pi / 2, math.pi - 3.0),
    (0.5, 0.8, math.pi, 0.0, 1.3): (0.0, math.pi / 2 - 1.3),
    (0.5, 0.8, math.pi, 0.0, 2.0): (0.0, 2.5 * math.pi - 2.0),
    # pi/2 - psi just below 0 wraps to 2 pi - 2^-52, which rounds to 2 pi,
    # outside beta's domain: reported as 0, the same direction
    (0.5, 0.8, math.pi, 0.0, math.nextafter(math.pi / 2, 4)): (0.0, 0.0),
    (0.8, 0.9, 2.0, 1.2, 2.5): None,
}


@pytest.mark.parametrize("point", list(_DEGENERATE_REGIMES))
def test_min_over_information_degenerate_regimes(point):
    gamma, epsilon, theta, phi, psi = point
    result = min_over_information(gamma, epsilon, UnitaryAngles(0, theta, phi, psi))
    assert abs(result.value - worst_case_reference(gamma, epsilon, theta, phi)) < 1e-12
    at_argmin = fidelity_reference(result.alpha, result.beta, *point)
    assert abs(at_argmin - result.value) < 1e-12
    assert 0.0 <= result.alpha <= math.pi and 0.0 <= result.beta < 2 * math.pi
    want = _DEGENERATE_REGIMES[point]
    if want is not None:
        assert result[1:] == pytest.approx(want, abs=1e-15)


def test_flat_worst_cases_raise_no_warning():
    # a flat F makes the block's eigenvalue shift 0/0; it must be guarded,
    # not computed and discarded, since the suite runs RuntimeWarning as error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma, epsilon in ((0.6, 0.0), (1.0, 0.8)):
            assert min_over_information(gamma, epsilon, UnitaryAngles()) == (
                masfi(gamma, epsilon), 0.0, 0.0)
            result = minimax_search(gamma, epsilon)
            assert (result.value, result.argmin) == (masfi(gamma, epsilon), (0.0, 0.0))
