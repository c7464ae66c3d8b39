import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werner_teleport import analytics, verify
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
    sphere_average_grid_reference,
    sphere_average_reference,
    sphere_rule_moments,
    worst_case_reference,
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
    for func, args in ((fidelity_closed_form, rows.T), (masfi, (gamma, epsilon)),
                       (f_av_max, (gamma, epsilon)), (fidelity_gap, (gamma, epsilon)),
                       (f_max, (epsilon,))):
        values = func(*args)
        assert isinstance(values, np.ndarray) and values.shape == gamma.shape
        scalar = [func(*point) for point in zip(*(a.tolist() for a in args))]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(values, scalar), func.__name__


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
    # away from the optimum the average is 1/2 + eps cos(theta)/6 + gamma^2
    # eps cos^2(theta/2) cos(2 phi)/3, free of psi: cos^2(alpha) averages to
    # 1/3, sin^2(alpha) to 2/3, and the beta terms to 0
    rng = np.random.default_rng(2026)
    for _ in range(200):
        gamma, epsilon = (float(v) for v in rng.random(2))
        angles = UnitaryAngles(0.0, *(float(v) for v in rng.random(3) * math.pi))
        want = (0.5 + epsilon * math.cos(angles.theta) / 6.0 + gamma * gamma * epsilon
                * math.cos(0.5 * angles.theta) ** 2 * math.cos(2.0 * angles.phi) / 3.0)
        for nodes in (8, 16, 32, 64, 96):
            got = average_fidelity_numeric(gamma, epsilon, angles, nodes)
            assert abs(got - want) < 1e-12, (gamma, epsilon, angles, nodes)
    angles = UnitaryAngles(0.0, 1.2, 0.7, 0.4)
    coarse = average_fidelity_numeric(0.6, 0.9, angles, 32)
    fine = average_fidelity_numeric(0.6, 0.9, angles, 96)
    assert abs(coarse - fine) < 1e-9


@pytest.mark.parametrize("gamma, nodes, error, message", [
    # an integer below the bound
    (0.5, 7, ValueError, "nodes must be >= 8, got 7"),
    (0.5, np.int64(7), ValueError, "nodes must be >= 8, got 7"),
    # a wrong class, in nodes as in gamma: TypeError from both rules
    (0.5, 8.9, TypeError, "nodes must be an integer, got 8.9"),  # once truncated to 8
    (0.5, "64", TypeError, "nodes must be an integer, got '64'"),
    ("0.5", 64, TypeError, "gamma must be a real number, got a str value"),
    (0.5, np.float64(16.5), TypeError, r"nodes must be an integer, got (np\.float64\()?16\.5"),
    (0.5, True, TypeError, "nodes must be an integer, got True"),  # once refused as 1
    (0.5, 64.0, TypeError, "nodes must be an integer, got 64.0"),  # once taken as 64
    (0.5, np.float64(64.0), TypeError, r"nodes must be an integer, got (np\.float64\()?64\.0"),
], ids=["7", "int64-7", "8.9", "str-64", "str-gamma", "float64-16.5", "True", "64.0",
        "float64-64.0"])
def test_average_rejects_few_nodes(gamma, nodes, error, message):
    with pytest.raises(error, match=message):
        average_fidelity_numeric(gamma, 0.5, UnitaryAngles(), nodes)


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


@pytest.mark.parametrize("nodes", [8, 16, 32, 64, 96])
def test_average_agrees_with_the_grid_sum(nodes):
    # the separable sum against F summed on the full n x n grid of the rule
    rng = np.random.default_rng(1700 + nodes)
    draws = [(float(rng.random()), float(rng.random()),
              UnitaryAngles(*(float(v) for v in rng.random(4) * math.pi)))
             for _ in range(1000)]
    for gamma, epsilon, angles in draws + _QUADRATURE_CORNERS:
        got = average_fidelity_numeric(gamma, epsilon, angles, nodes)
        want = sphere_average_grid_reference(gamma, epsilon, angles, nodes)
        assert abs(got - want) <= 1e-15, (gamma, epsilon, angles)


def test_average_turns_the_beta_sums_by_psi(monkeypatch):
    # the periodic rule's beta sums and sum w sin(2 alpha) are round-off, so
    # no test on the real rule sees how psi and the B S + C K term enter; a
    # rule of uneven nodes and weights makes them count, and the moment form
    # must still give that rule's grid sum of F
    rng = np.random.default_rng(31)
    alphas, betas = rng.random(16) * math.pi, rng.random(16) * 2.0 * math.pi
    w = 2.0 * rng.random(16) / 16.0
    moments = sphere_rule_moments(np.cos(alphas), w, betas)
    monkeypatch.setattr(analytics, "_sphere_rule", lambda nodes: moments)
    for _ in range(200):
        gamma, epsilon = (float(v) for v in rng.random(2))
        angles = UnitaryAngles(0.0, *(float(v) for v in rng.random(3) * math.pi))
        grid = fidelity_reference(alphas[:, None], betas[None, :], gamma, epsilon,
                                  angles.theta, angles.phi, angles.psi)
        want = float(w @ grid.sum(axis=1)) / 32.0
        assert abs(average_fidelity_numeric(gamma, epsilon, angles, 16) - want) < 1e-13


def test_average_allocates_no_grid():
    # with the rule's moments cached, a call makes no array at all: its peak
    # is a few floats at any node count (the n x n grid it once formed would
    # take 1.2 MB at 256 nodes, the per-node rows 15 kB)
    angles = UnitaryAngles(0.0, 1.2, 0.7, 0.4)
    for nodes in (64, 256):
        average_fidelity_numeric(0.6, 0.9, angles, nodes)
        tracemalloc.start()
        try:
            average_fidelity_numeric(0.6, 0.9, angles, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024, (nodes, peak)


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
    assert average_fidelity_numeric(0.6, 0.9, angles, np.int64(64)) == value
    assert len(builds) == 3
    with pytest.raises(ValueError):
        average_fidelity_numeric(0.6, 0.9, angles, 7)
    assert len(builds) == 3
    assert analytics._sphere_rule.cache_info().currsize == 3


def test_average_rule_is_read_only():
    # every caller with a node count shares its rule: eight floats in a tuple
    angles = UnitaryAngles(0.0, 1.2, 0.7, 0.4)
    before = average_fidelity_numeric(0.6, 0.9, angles, 64)
    rule = analytics._sphere_rule(64)
    assert type(rule) is tuple and len(rule) == 8
    assert all(type(moment) is float for moment in rule)
    assert average_fidelity_numeric(0.6, 0.9, angles, 64) == before


def _row_factors_on(gamma, epsilon, theta, phi, xp):
    return analytics._row_factors(gamma, epsilon, analytics._angle_factors(theta, phi, xp))


def test_row_factors_on_math_match_numpy_bit_for_bit():
    # the quadrature takes cos and sin from math on floats, every grid from
    # numpy on arrays: on the same floats the one transcription must give the
    # same bits either way (each square is a product, correctly rounded on both)
    rng = np.random.default_rng(34)
    draws = np.column_stack([rng.random((100_000, 2)), rng.random((100_000, 2)) * math.pi])
    corners = [(gamma, epsilon, theta, phi) for gamma in (0.0, 1.0) for epsilon in (0.0, 1.0)
               for theta in (0.0, 0.5 * math.pi, math.pi) for phi in (0.0, 0.5 * math.pi, math.pi)]
    points = draws.tolist() + corners
    on_arrays = np.column_stack(_row_factors_on(*np.array(points).T, np))
    on_math = np.array([_row_factors_on(*point, math) for point in points])
    differ = (on_math.view(np.int64) != on_arrays.view(np.int64)).any(axis=1)
    assert not differ.any(), (int(differ.sum()), points[int(differ.argmax())])


# average_fidelity_numeric at 64 nodes, bit for bit as float.hex: on verify's
# 5x5 (gamma, epsilon) grid at the identity correction, and at (0.6, 0.9)
# under four general corrections (chi, theta, phi, psi)
_QUADRATURE_GRID = {
    (0.0, 0.0): "0x1.0000000000000p-1",
    (0.0, 0.25): "0x1.1555555555554p-1",
    (0.0, 0.5): "0x1.2aaaaaaaaaaa9p-1",
    (0.0, 0.75): "0x1.3fffffffffffdp-1",
    (0.0, 1.0): "0x1.5555555555551p-1",
    (0.25, 0.0): "0x1.0000000000000p-1",
    (0.25, 0.25): "0x1.17fffffffffffp-1",
    (0.25, 0.5): "0x1.2fffffffffffep-1",
    (0.25, 0.75): "0x1.47ffffffffffdp-1",
    (0.25, 1.0): "0x1.5fffffffffffcp-1",
    (0.5, 0.0): "0x1.0000000000000p-1",
    (0.5, 0.25): "0x1.1ffffffffffffp-1",
    (0.5, 0.5): "0x1.3ffffffffffffp-1",
    (0.5, 0.75): "0x1.5fffffffffffep-1",
    (0.5, 1.0): "0x1.7fffffffffffdp-1",
    (0.75, 0.0): "0x1.0000000000000p-1",
    (0.75, 0.25): "0x1.2d55555555555p-1",
    (0.75, 0.5): "0x1.5aaaaaaaaaaaap-1",
    (0.75, 0.75): "0x1.87fffffffffffp-1",
    (0.75, 1.0): "0x1.b555555555554p-1",
    (1.0, 0.0): "0x1.0000000000000p-1",
    (1.0, 0.25): "0x1.4000000000000p-1",
    (1.0, 0.5): "0x1.8000000000000p-1",
    (1.0, 0.75): "0x1.c000000000000p-1",
    (1.0, 1.0): "0x1.0000000000000p+0",
}
_QUADRATURE_GENERAL = {
    (0.0, 1.2, 0.7, 0.4): "0x1.223b2bd159d89p-1",
    (1.0, 0.3, 2.5, 1.9): "0x1.58b4773c9a8f5p-1",
    (2.0, 2.2, 1.3, 0.9): "0x1.921bbe6859616p-2",
    (5.5, 2.9, 0.1, 3.0): "0x1.6c6f494ade3d2p-2",
}


def test_average_pinned_bit_for_bit_on_verify_grid():
    # verify's quadrature line prints three digits of the worst deviation, so
    # only these pins see a last-bit change; the points are verify's own mesh
    gamma, epsilon = verify._GRID_MESH
    assert [(float(g), float(e)) for g, e in zip(gamma.flat, epsilon.flat)] == list(_QUADRATURE_GRID)
    for g, e in zip(gamma.flat, epsilon.flat):
        got = average_fidelity_numeric(g, e, UnitaryAngles(), 64)
        assert got.hex() == _QUADRATURE_GRID[float(g), float(e)], (g, e)
    for angles, want in _QUADRATURE_GENERAL.items():
        assert average_fidelity_numeric(0.6, 0.9, UnitaryAngles(*angles), 64).hex() == want, angles


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached")


def test_average_makes_no_numpy_call_once_its_rule_is_built(monkeypatch):
    # the cost side of the pins above: with the rule cached, a call is float
    # arithmetic on math's cos and sin, and gives the same bits without numpy
    analytics._sphere_rule(64)
    cases = [(gamma, epsilon, UnitaryAngles(*angles))
             for gamma, epsilon in ((0.6, 0.9), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
             for angles in [(0.0,) * 4, *_QUADRATURE_GENERAL]]
    before = [average_fidelity_numeric(*case, 64).hex() for case in cases]
    monkeypatch.setattr(analytics, "np", _NoNumpy())
    assert [average_fidelity_numeric(*case, 64).hex() for case in cases] == before


_AVERAGES_FROM_STDIN = """
import sys
import numpy as np
from werner_teleport.analytics import average_fidelity_numeric
from werner_teleport.protocol import UnitaryAngles
draws = np.frombuffer(sys.stdin.buffer.read()).reshape(-1, 6).tolist()
sys.stdout.buffer.write(np.array([average_fidelity_numeric(g, e, UnitaryAngles(*angles), nodes)
                                  for nodes in (8, 64) for g, e, *angles in draws]).tobytes())
"""


def test_average_bits_do_not_depend_on_numpy_dispatch():
    # A child process with numpy's X86_V3 and X86_V4 loops switched off gives
    # seeded 8- and 64-node averages at general corrections the bits they have
    # here: the rule's polar moments are products and a sqrt of its nodes,
    # correctly rounded in any loop, where an arccos of them was not.
    rng = np.random.default_rng(37)
    draws = np.column_stack([rng.random((10**4, 2)), rng.random((10**4, 4)) * math.pi])
    expected = np.array([average_fidelity_numeric(g, e, UnitaryAngles(*angles), nodes)
                         for nodes in (8, 64) for g, e, *angles in draws.tolist()])
    package_root = os.path.dirname(os.path.dirname(analytics.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _AVERAGES_FROM_STDIN], input=draws.tobytes(),
                          capture_output=True, env=env, check=True)
    got = np.frombuffer(proc.stdout).reshape(2, -1)
    for nodes, want, have in zip((8, 64), expected.reshape(2, -1), got):
        assert hashlib.sha256(have).hexdigest() == hashlib.sha256(want).hexdigest(), nodes


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
        values, form = analytics._worst_cases(gamma, epsilon, analytics._grid(thetas, phis))
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
    values, _ = analytics._worst_cases(gamma, epsilon, analytics._grid(theta, phi))
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

    def recording(gamma, epsilon, grid):
        shapes.append((np.shape(grid.theta), np.shape(grid.phi)))
        return inner(gamma, epsilon, grid)

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


def _assert_split_is_bitwise(alpha, beta, gamma, epsilon, theta, phi, psi):
    # _fidelity_core against A + B sin(beta+psi) + C cos(2(beta+psi)) from the
    # single-expression reference, byte for byte, so signed zeros count
    a_term, b_term, c_term = beta_reduced_terms_reference(alpha, gamma, epsilon, theta, phi)
    want = np.asarray(a_term + b_term * np.sin(beta + psi) + c_term * np.cos(2.0 * (beta + psi)))
    got = np.asarray(analytics._fidelity_core(alpha, beta, gamma, epsilon, theta, phi, psi))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [13, 29, 47])
def test_split_terms_equal_single_expression_reference(seed):
    # Fails if a product of F is reassociated or reordered: the row part must
    # be the left end of each product, in the same order as before the split.
    rng = np.random.default_rng(seed)
    alpha, theta, phi, psi = rng.uniform(0, math.pi, (4, 2000))
    beta = rng.uniform(0, 2 * math.pi, 2000)
    gamma, epsilon = rng.uniform(0, 1, (2, 2000))
    _assert_split_is_bitwise(alpha, beta, gamma, epsilon, theta, phi, psi)
    g, e = float(gamma[0]), float(epsilon[0])
    # the quadrature's layout: (n, 33) alphas and betas against (n, 1) corrections
    alphas, betas = rng.uniform(0, math.pi, (300, 33)), rng.uniform(0, 2 * math.pi, (300, 33))
    _assert_split_is_bitwise(alphas, betas, g, e, theta[:300, None], phi[:300, None],
                             psi[:300, None])
    # a coarse-grid layout and a scalar call
    grid = np.linspace(0, math.pi, 33)
    _assert_split_is_bitwise(grid[None, None, :], 2 * grid[None, None, :], g, e,
                             grid[:, None, None], grid[None, :, None], float(psi[0]))
    _assert_split_is_bitwise(float(alpha[0]), float(beta[0]), g, e, float(theta[0]),
                             float(phi[0]), float(psi[0]))


def test_split_terms_equal_reference_in_degenerate_regimes():
    # epsilon = 0, gamma in {0, 1}, alpha and theta at 0 and pi and
    # beta + psi at multiples of pi/2, where the products hold exact and
    # signed zeros
    axes = ([0.0, 0.8, math.pi / 2, math.pi],  # alpha
            [0.0, math.pi / 2, 2.5],  # beta
            [0.0, 0.4, 1.0],  # gamma
            [0.0, 0.7, 1.0],  # epsilon
            [0.0, 1.1, math.pi],  # theta
            [0.0, 1.3, math.pi / 2, math.pi],  # phi
            [0.0, math.pi])  # psi
    points = [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]
    _assert_split_is_bitwise(*points)
    for point in zip(*(a.tolist() for a in points)):
        _assert_split_is_bitwise(*point)


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


# (t_lo, t_hi, p_lo, p_hi) of the first zoom pass of every real search: one
# coarse step either side of the identity, where the coarse scan ends,
# clipped at 0
_FIRST_BRACKET = (0.0, math.pi / 32, 0.0, math.pi / 32)

# the 7 zoom brackets of a walk that stays at each grid's (0, 0) corner, the
# identity: every real search's, the corner path's
_PATH_BRACKETS = tuple((0.0, w, 0.0, w) for w in (math.pi / 32 / 16 ** n for n in range(7)))


@pytest.mark.parametrize("gamma, epsilon", [(0.7, 0.9), (0.6, 0.0), (1.0, 0.8)])
def test_minimax_result_holds_python_numbers(gamma, epsilon):
    # a general point, epsilon = 0 and gamma = 1: no numpy scalar leaks into
    # the result, and the search's shared grid constants, its path grid and
    # its zoom tables cannot be written
    result = minimax_search(gamma, epsilon)
    fields = (result.value, *result.argmin, *result.argmax, result.tolerance_achieved)
    assert all(type(x) is float for x in fields), [type(x) for x in fields]
    assert type(result.iterations) is int
    shared = [analytics._COARSE_GRID, analytics._zoom_grid(*_FIRST_BRACKET), analytics._PATH_GRID]
    for constant in (analytics._COARSE_AXIS, analytics._FRACTIONS,
                     *(a for grid in shared for a in (grid.theta, grid.phi, *grid.columns))):
        assert not constant.flags.writeable
        with pytest.raises(ValueError):
            constant[0] = 1.0


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


def _zoom_brackets(monkeypatch):
    """Record the bracket of every call of analytics._zoom_grid."""
    brackets = []
    inner = analytics._zoom_grid

    def recording(*bracket):
        brackets.append(bracket)
        return inner(*bracket)

    monkeypatch.setattr(analytics, "_zoom_grid", recording)
    return brackets


# _worst_cases calls per search: one, on the path grid, which holds the
# coarse scan's 33 x 33 points and the 17 x 17 of each of the 7 passes of the
# 2-D zoom from the grid point (0, 0); value and argmin are read from its
# arrays at the best point
_WORST_CASE_CALLS = 1


@pytest.mark.parametrize("gamma, epsilon", [(0.3, 0.0), (1.0, 0.4), (0.7, 0.9), (0.0, 0.5)])
def test_minimax_golden_call_budget(monkeypatch, gamma, epsilon):
    # every point, flat ones (epsilon = 0, gamma = 1) included, costs
    # 1 + 7 * 17^2 evaluations in one array call. Every real point walks the
    # corner path, so a search builds no zoom grid of its own.
    calls = _worst_case_shapes(monkeypatch)
    zooms = _zoom_brackets(monkeypatch)
    result = minimax_search(gamma, epsilon)
    assert result.iterations == 2024
    assert len(calls) == _WORST_CASE_CALLS
    assert zooms == []
    assert abs(result.value - masfi(gamma, epsilon)) <= 2.0 ** -53


def _path_segments():
    # (start, grid) of each segment of the path grid in walk order: the
    # coarse grid, then a fresh zoom grid of each path bracket
    yield 0, analytics._COARSE_GRID
    for n, bracket in enumerate(_PATH_BRACKETS):
        yield 33 ** 2 + n * 17 ** 2, analytics._zoom_grid(*bracket)


def test_path_grid_holds_each_grids_bits():
    # The path grid is the coarse grid and the zoom grids of the 7 corner
    # brackets, in walk order. Its corrections and columns, and _worst_cases
    # on it, segment by segment, must equal byte for byte what each grid
    # alone holds and gives, at seeded points and on the epsilon = 0 and
    # gamma = 1 rows.
    path = analytics._PATH_GRID
    assert _PATH_BRACKETS[0] == _FIRST_BRACKET
    assert path.theta.shape == path.phi.shape == (33 ** 2 + 7 * 17 ** 2,)
    segments = list(_path_segments())
    for start, grid in segments:
        shape = grid.theta.shape
        assert all(f.shape == shape for f in (grid.phi, *grid.columns))
        assert shape in ((33 ** 2,), (17 ** 2,))
        stop = start + grid.theta.size
        for got, want in zip((path.theta, path.phi, *path.columns),
                             (grid.theta, grid.phi, *grid.columns)):
            assert got[start:stop].tobytes() == want.tobytes(), start
    assert stop == path.theta.size

    points = [tuple(p) for p in np.random.default_rng(38).uniform(0, 1, (20, 2)).tolist()]
    for x in np.linspace(0, 1, 6).tolist():
        points += [(x, 0.0), (1.0, x)]
    for gamma, epsilon in points:
        values, form = analytics._worst_cases(gamma, epsilon, path)
        for start, grid in segments:
            want_values, want_form = analytics._worst_cases(gamma, epsilon, grid)
            stop = start + want_values.size
            for got, want in zip((values, *form), (want_values, *want_form)):
                assert got[start:stop].tobytes() == want.tobytes(), (gamma, epsilon, start)


def _seeded_minimax_points():
    # 300 seeded (gamma, epsilon) draws, then the epsilon = 0, gamma = 1 and
    # gamma = 0 rows at 23 points each
    rng = np.random.default_rng(17)
    points = [tuple(p) for p in rng.uniform(0, 1, (300, 2)).tolist()]
    for x in np.linspace(0, 1, 23).tolist():
        points += [(x, 0.0), (1.0, x), (0.0, x)]
    return points


def test_minimax_cost_and_value_on_seeded_points():
    # The worst case is exact, so every search costs the same and ends at
    # masfi to an ulp (2^-53 on [1/2, 1)), flat points included. The block
    # eigenvalue written as mean - hypot(h, yz) instead is an ulp low at
    # yz = 0, which sends the zoom after a better point that is not there
    # (iterations 2313).
    for gamma, epsilon in _seeded_minimax_points():
        result = minimax_search(gamma, epsilon)
        assert result.iterations == 2024, (gamma, epsilon)
        assert abs(result.value - masfi(gamma, epsilon)) <= 2.0 ** -53, (gamma, epsilon)


# sha256 over _seeded_minimax_points of one line per search: every field of
# its MinimaxResult as float.hex, then iterations. It shares no code with the
# search (sequential_minimax_reference shares _worst_cases), so it also sees
# a rounding change that the search and that reference would make alike.
_SEEDED_MINIMAX_DIGEST = "ac46a1e8cedf18db33b99514ee08c2ee6c7fd4369f088d275d0f2329f5eabc06"


def test_minimax_pinned_bit_for_bit_on_seeded_points():
    digest = hashlib.sha256()
    for gamma, epsilon in _seeded_minimax_points():
        r = minimax_search(gamma, epsilon)
        fields = (r.value, *r.argmin, *r.argmax, r.tolerance_achieved)
        digest.update(" ".join([*(x.hex() for x in fields), str(r.iterations)]).encode() + b"\n")
    assert digest.hexdigest() == _SEEDED_MINIMAX_DIGEST


# sha256 of _worst_cases' values and form on _COARSE_GRID at 25 seeded
# (gamma, epsilon), as the arrays' bytes. The coarse grid holds corrections
# away from the identity, where the search and the pins above never look, so
# this sees a rounding change in the worst case's own arithmetic.
_COARSE_WORST_CASES_DIGEST = "28538c5be68267db575c1b345667215713a60cbee792b76a82ed2150a341d46c"


def test_worst_cases_pinned_bit_for_bit_on_the_coarse_grid():
    digest = hashlib.sha256()
    for gamma, epsilon in np.random.default_rng(36).uniform(0, 1, (25, 2)).tolist():
        values, form = analytics._worst_cases(gamma, epsilon, analytics._COARSE_GRID)
        for array in (values, *form):
            digest.update(array.tobytes())
    assert digest.hexdigest() == _COARSE_WORST_CASES_DIGEST


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
    def worst_cases(gamma, epsilon, grid):
        theta, phi = grid.theta, grid.phi
        dt, dp = theta - theta_star, phi - phi_star
        values = 0.9 - dt * dt - dp * dp - cross * dt * dp
        zeros = np.zeros_like(values)
        return values, (zeros + 2.0, zeros + phi, zeros, zeros - theta, zeros)
    return worst_cases


_ON_GRID = math.pi / 2  # linspace(0, pi, 33)[16]

# (theta_star, phi_star) -> the zoom passes a search reads from the path call
# before its bracket leaves the corner path; the other maxima leave it at the
# coarse scan
_PASSES_ON_PATH = {(0.01, 0.02): 1, (1e-4, 0.0): 3}


@pytest.mark.parametrize("theta_star, phi_star, cross", [
    (1.0, _ON_GRID, 0.0),  # off the coarse grid in theta only
    (_ON_GRID, 2.0, 0.0),  # in phi only
    (1.0, 2.0, 0.5),  # in both
    # ridges: a coordinate ascent stops 1.5e-3 and 3.5e-2 short of these
    (1.0, 2.0, -1.5),
    (1.0, 2.0, 1.9),
    # inside the first corner bracket, off its corner: the best point of
    # pass 1 leaves the corner, and that of pass 3
    (0.01, 0.02, 0.0),
    (1e-4, 0.0, 0.0),
])
def test_minimax_zoom_reaches_off_grid_maxima(monkeypatch, theta_star, phi_star, cross):
    # no real point moves off the coarse scan's (0, 0), so these landscapes
    # stand in for the worst case to reach maxima between grid points, and
    # to leave the corner path at the coarse scan or mid-walk
    assert np.linspace(0.0, math.pi, 33)[16] == _ON_GRID
    monkeypatch.setattr(analytics, "_worst_cases",
                        _synthetic_worst_cases(theta_star, phi_star, cross))
    calls = _worst_case_shapes(monkeypatch)
    zooms = _zoom_brackets(monkeypatch)
    result = minimax_search(0.5, 0.5)
    off_path = calls[1:]  # after the path call
    on_path = _PASSES_ON_PATH.get((theta_star, phi_star), 0)
    passes = on_path + len(zooms)

    assert abs(result.argmax[0] - theta_star) < 1e-7 and abs(result.argmax[1] - phi_star) < 1e-7
    assert _reports_min_over_information(0.5, 0.5, result)
    # each pass leaves at most 1/8 of a side's width, so 10 passes take the
    # widest first bracket, 2 pi / 32, below REFINE_TOL
    assert passes <= 10
    assert calls[0] == (analytics._PATH_GRID.theta.shape,) * 2
    # one call per pass off the path, on its own zoom grid, from the first
    # bracket the path does not hold
    assert off_path == [((289,), (289,))] * len(zooms)
    assert zooms[0] != _PATH_BRACKETS[on_path]
    assert result.iterations == 1 + passes * 17 ** 2
    assert result.tolerance_achieved <= analytics.REFINE_TOL


def test_minimax_never_searches_psi(monkeypatch):
    # the worst case over beta cannot depend on psi, so psi stays at 0: the
    # coarse scan and the zoom passes on the corner path are one call on the
    # path grid's flat (theta, phi) pairs, each pass off it one call on its
    # own 289, and the argmin's beta is taken at psi = 0
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
    assert shapes[0] == ((33 ** 2 + 7 * 17 ** 2,),) * 2
    assert shapes[1:] == [((289,), (289,))] * (len(shapes) - 1)
    assert 1 + 17 ** 2 * (len(_PATH_BRACKETS) + len(shapes) - 1) == result.iterations
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
