import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werner_teleport import analytics
from werner_teleport.analytics import (
    average_fidelity_numeric,
    classical_threshold,
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
    sphere_average_reference,
    worst_case_reference,
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


def test_classical_threshold_values():
    assert abs(classical_threshold(1.0).average - 1 / 3) < 1e-15
    assert classical_threshold(0.0).average == 1.0
    assert abs(classical_threshold(1 / math.sqrt(2)).average - 0.5) < 1e-15


def test_classical_threshold_masfi_branch():
    assert abs(classical_threshold(1.0).masfi - 1 / 3) < 1e-15
    assert classical_threshold(0.0).masfi == math.inf
    # unattainable below gamma = 1/sqrt(3)
    assert classical_threshold(0.5).masfi > 1.0
    assert classical_threshold(0.9).masfi < 1.0


@pytest.mark.parametrize("func", [masfi, f_av_max, fidelity_gap])
def test_two_parameter_extremes_reject_out_of_range(func):
    with pytest.raises(ValueError):
        func(1.2, 0.5)
    with pytest.raises(ValueError):
        func(0.5, -0.1)


def test_one_parameter_extremes_reject_out_of_range():
    with pytest.raises(ValueError):
        f_max(1.01)
    with pytest.raises(ValueError):
        classical_threshold(-0.2)


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


def test_average_rejects_few_nodes():
    with pytest.raises(ValueError):
        average_fidelity_numeric(0.5, 0.5, UnitaryAngles(), 7)


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


def test_batched_worst_cases_rows_match_min_over_information(profile_calls):
    # min_over_information is the one-row case of the batched inner search,
    # and a row's result does not depend on the rows beside it
    rng = np.random.default_rng(83)
    thetas, phis = rng.uniform(0, math.pi, (2, 17))
    thetas[:4] = phis[:4] = (0.0, math.pi, 1e-9, 0.0)
    for gamma, epsilon in ((0.6, 0.7), (1.0, 0.4), (0.3, 0.0), (0.0, 1.0)):
        values, alphas = analytics._worst_cases(gamma, epsilon, thetas, phis)
        for theta, phi, value, alpha in zip(thetas, phis, values, alphas):
            alone = min_over_information(gamma, epsilon, UnitaryAngles(0, theta, phi, 0))
            assert (alone.value, alone.alpha) == (value, alpha)
    # two rows that close on different passes: the row that closes first
    # must stay frozen while its batch-mate refines on
    gamma, epsilon = 1.0, 0.9251836852355549
    thetas = np.array([0.373509292307204, 1.2812868663347492])
    phis = np.array([2.699528319227331, 2.3685781076413974])
    alone, passes = [], []
    for theta, phi in zip(thetas, phis):
        profile_calls.clear()
        alone.append(min_over_information(gamma, epsilon, UnitaryAngles(0, theta, phi, 0)))
        passes.append(len(profile_calls))
    assert passes == [7, 8]
    values, alphas = analytics._worst_cases(gamma, epsilon, thetas, phis)
    assert [(a.value, a.alpha) for a in alone] == list(zip(values, alphas))


def test_min_over_information_psi_independent():
    for psi in (0.0, 0.4, 1.5, math.pi):
        result = min_over_information(0.6, 0.7, UnitaryAngles(0, 1.0, 0.5, psi))
        baseline = min_over_information(0.6, 0.7, UnitaryAngles(0, 1.0, 0.5, 0.0))
        assert abs(result.value - baseline.value) < 1e-12


@pytest.fixture
def zoom_brackets(monkeypatch):
    """Record the initial (lo, hi) of every bracket row of every zoom."""
    brackets = []
    search = analytics._zoom_min

    def recording(f, lo, hi, k):
        brackets.extend(zip(np.atleast_1d(lo).tolist(), np.atleast_1d(hi).tolist()))
        return search(f, lo, hi, k)

    monkeypatch.setattr(analytics, "_zoom_min", recording)
    return brackets


def _count_calls(monkeypatch, name):
    """Record the shape of the first argument of every call of analytics.<name>."""
    calls = []
    function = getattr(analytics, name)

    def counting(*args):
        calls.append(np.shape(args[0]))
        return function(*args)

    monkeypatch.setattr(analytics, name, counting)
    return calls


@pytest.fixture
def profile_calls(monkeypatch):
    """Count the array calls of the beta-reduced alpha profile."""
    return _count_calls(monkeypatch, "_information_profile")


@pytest.fixture
def row_factor_calls(monkeypatch):
    """Count the evaluations of the alpha-free row factors."""
    return _count_calls(monkeypatch, "_row_factors")


def test_min_over_information_exact_plateau_polished_once(zoom_brackets):
    # epsilon = 0 makes the profile exactly constant: one bracket, and ties
    # keep the first grid point
    result = min_over_information(0.3, 0.0, UnitaryAngles(0, 1, 2, 3))
    assert zoom_brackets == [(0.0, math.pi)]
    assert (result.value, result.alpha) == (0.5, 0.0)


def test_min_over_information_roundoff_plateau_polished_once(zoom_brackets):
    # gamma = 1 near the identity: flat up to round-off, still one bracket
    result = min_over_information(1.0, 0.7, UnitaryAngles(0, 1e-9, 1e-9, 0))
    assert len(zoom_brackets) == 1
    assert abs(result.value - 0.85) < 1e-15


def test_zoom_min_tied_dip_bracket_covers_both_cells():
    # with an odd number of sub-steps the equator minimum falls between two
    # grid points of the first pass; the second pass must span both
    passes = []

    def profile(a):
        passes.append((a.min(), a.max()))
        return analytics._information_profile(a, analytics._row_factors(0.5, 0.8, 0.0, 0.0))

    alphas, values, _ = analytics._zoom_min(profile, [0.0], [math.pi], 33)
    step = math.pi / 33
    assert passes[0] == (0.0, math.pi)
    lo, hi = passes[1]
    assert lo <= 16 * step + 1e-12 and hi >= 17 * step - 1e-12
    assert abs(values[0] - 0.6) < 1e-12
    # a quadratic minimum pins its argument only to about sqrt(eps)
    assert abs(alphas[0] - math.pi / 2) < 1e-7


def test_zoom_min_evaluates_a_narrow_bracket_once():
    # a bracket born no wider than REFINE_TOL still gets the first pass: it
    # reports its point and that point's value, never inf, whether alone or
    # beside a wide bracket that refines on
    def parabola(x):
        return (x - 0.3) ** 2

    x, fx, width = analytics._zoom_min(parabola, [0.5], [0.5], 16)
    assert (x[0], fx[0], width[0]) == (0.5, parabola(0.5), 0.0)
    lo, hi = [0.5, 0.0], [0.5 + analytics.REFINE_TOL / 2, 1.0]
    x, fx, width = analytics._zoom_min(parabola, lo, hi, 16)
    assert (x[0], fx[0]) == (0.5, parabola(0.5))
    assert width[0] <= analytics.REFINE_TOL / 2
    for i in range(2):
        alone = analytics._zoom_min(parabola, lo[i:i + 1], hi[i:i + 1], 16)
        assert (x[i], fx[i], width[i]) == tuple(a[0] for a in alone)
    assert abs(x[1] - 0.3) < 1e-9


def test_min_over_information_refines_one_of_two_mirror_twins(zoom_brackets):
    # the alpha profile has two dips here, mirror twins alpha <-> pi - alpha
    # of the same depth; one zoom over [0, pi] refines only the lower grid one
    gamma, epsilon, theta, phi = 0.8, 0.9, 2.0, 1.2
    result = min_over_information(gamma, epsilon, UnitaryAngles(0, theta, phi, 0))
    assert zoom_brackets == [(0.0, math.pi)]
    assert abs(result.value - worst_case_reference(gamma, epsilon, theta, phi)) < 1e-12


def test_alpha_profile_has_no_local_minimum_above_the_worst_case():
    # The premise of the one-zoom inner search: F is a quadratic form on the
    # unit sphere of Bloch directions, so every local minimum of the profile
    # is a global one. On a fine grid with hard edges, every sample no higher
    # than both neighbours sits within the grid's resolution of the exact
    # worst case.
    alphas = np.linspace(0, math.pi, 4097)
    rng = np.random.default_rng(89)
    general = [(*rng.uniform(0, 1, 2), *rng.uniform(0, math.pi, 2)) for _ in range(500)]
    corners = [(gamma, epsilon, theta, 0.7) for gamma in (0.0, 1.0)
               for epsilon in (0.0, 1.0) for theta in (0.0, math.pi)]
    for gamma, epsilon, theta, phi in general + corners:
        rows = analytics._row_factors(gamma, epsilon, theta, phi)
        profile = analytics._information_profile(alphas, rows)
        padded = np.pad(profile, 1, constant_values=np.inf)
        dips = profile[(profile <= padded[:-2]) & (profile <= padded[2:])]
        exact = worst_case_reference(gamma, epsilon, theta, phi)
        assert dips.size and np.abs(dips - exact).max() < 1e-6, (gamma, epsilon, theta, phi)


def _assert_split_is_bitwise(alpha, gamma, epsilon, theta, phi, rows=None):
    # A, B, C and the profile from the row/alpha split against the
    # single-expression reference, byte for byte, so signed zeros count
    rows = analytics._row_factors(gamma, epsilon, theta, phi) if rows is None else rows
    got = (*analytics._beta_reduced_terms(alpha, rows),
           analytics._information_profile(alpha, rows))
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
# correction after 239 outer evaluations with the same widest final bracket.
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
    (1.0, 0.25): ("0x1.3ffffffffffffp-1", "0x1.5fdbbe9bba775p-5", "0x0.0p+0"),
    (1.0, 0.5): ("0x1.7ffffffffffffp-1", "0x1.c463abeccb2bbp-11", "0x0.0p+0"),
    (1.0, 0.75): ("0x1.bffffffffffffp-1", "0x1.2d97c7f3321d2p-2", "0x0.0p+0"),
    (1.0, 1.0): ("0x1.fffffffffffffp-1", "0x1.2d97c7f3321d2p-2", "0x0.0p+0"),
}
_MINIMAX_BRACKET = "0x1.921fb54442d18p-32"


def test_minimax_pinned_bit_for_bit_on_verify_grid():
    for (gamma, epsilon), want in _MINIMAX_GRID.items():
        result = minimax_search(gamma, epsilon)
        assert (result.value.hex(), *(a.hex() for a in result.argmin)) == want, (gamma, epsilon)
        assert [a.hex() for a in result.argmax] == ["0x0.0p+0"] * 3
        assert result.iterations == 239
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


# _information_profile array calls per search, pinned exactly so that one
# extra zoom pass fails
_PROFILE_CALLS = {(0.3, 0.0): 106, (1.0, 0.4): 118, (0.7, 0.9): 121, (0.0, 0.5): 121}


# _row_factors evaluations per search: one for the coarse scan, one per
# batched inner search (1 + 2 * 7 outer zoom passes) and one for the
# argmin's beta; never one per inner zoom pass
_ROW_FACTOR_CALLS = 1 + (1 + 2 * 7) + 1


@pytest.mark.parametrize("gamma, epsilon", list(_PROFILE_CALLS))
def test_minimax_golden_call_budget(zoom_brackets, profile_calls, row_factor_calls,
                                    gamma, epsilon):
    # flat points (epsilon = 0, gamma = 1) once cost 4326 and 2339 scalar
    # golden-section searches against 134 at a general point, and the scalar
    # search about 4000 profile calls. The ascent now zooms each of (theta,
    # phi) over 17 angles a pass, 7 passes from a grid point on the theta = 0
    # edge: 1 + 2 * 7 * 17 evaluations, each pass one batched inner search of
    # 7 or 8 zoom calls, the first on the alpha grid.
    result = minimax_search(gamma, epsilon)
    assert result.iterations == 239
    assert len(profile_calls) == _PROFILE_CALLS[gamma, epsilon]
    assert len(row_factor_calls) == _ROW_FACTOR_CALLS
    # two outer zooms, and one [0, pi] bracket per inner row
    assert len(zoom_brackets) == 2 + result.iterations


def test_minimax_never_searches_psi(monkeypatch):
    # the worst case over beta cannot depend on psi, so psi stays at 0: the
    # batched inner search takes (theta, phi) rows only, it evaluates every
    # outer point once, and the argmin's beta is taken at psi = 0
    rows, psis = [], []
    inner, best_beta = analytics._worst_cases, analytics._best_beta

    def recording(gamma, epsilon, theta, phi):
        assert np.shape(theta) == np.shape(phi) == (len(theta),)
        rows.append(len(theta))
        return inner(gamma, epsilon, theta, phi)

    def beta_at(alpha, gamma, epsilon, theta, phi, psi):
        psis.append(psi)
        return best_beta(alpha, gamma, epsilon, theta, phi, psi)

    def unexpected(*args, **kwargs):
        raise AssertionError("minimax_search called the scalar inner search")

    monkeypatch.setattr(analytics, "_worst_cases", recording)
    monkeypatch.setattr(analytics, "_best_beta", beta_at)
    monkeypatch.setattr(analytics, "min_over_information", unexpected)
    result = minimax_search(0.7, 0.9)
    assert sum(rows) == result.iterations
    assert psis == [0.0]
    assert result.argmax[2] == 0.0
