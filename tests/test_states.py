import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werner_teleport.density import kron, ladder_operators, validate_density
from werner_teleport.states import (
    InformationState,
    WernerResource,
    _BELL_VECTORS,
    concurrence_werner,
    information_state,
    purity,
    werner_state,
    wootters_concurrence,
)

from helpers import random_density


# ------------------------------------------------- information state

def test_information_state_pole():
    rho = information_state(InformationState(0.0, 0.0, 1.0))
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)


def test_information_state_equator_pure():
    rho = information_state(InformationState(math.pi / 2, 0.0, 1.0))
    np.testing.assert_allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_information_state_partially_coherent():
    rho = information_state(InformationState(math.pi / 2, math.pi / 2, 0.5))
    expected = np.array([[0.5, -0.25j], [0.25j, 0.5]])
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_information_state_ladder_expansion():
    # entrywise match with p00 P0 + p11 P1 + p01 S+ + p10 S-
    i_plus, i_minus, r_plus, r_minus = ladder_operators()
    rng = np.random.default_rng(13)
    for _ in range(25):
        alpha = rng.uniform(0, math.pi)
        beta = rng.uniform(0, 2 * math.pi)
        gamma = rng.uniform(0, 1)
        c, s = math.cos(alpha / 2), math.sin(alpha / 2)
        p01 = gamma * s * c * np.exp(-1j * beta)
        expansion = (c * c * i_plus + s * s * i_minus
                     + p01 * r_plus + np.conj(p01) * r_minus)
        rho = information_state(InformationState(alpha, beta, gamma))
        assert np.abs(rho - expansion).max() < 1e-14


@pytest.mark.parametrize("alpha,beta,gamma", [
    (-0.1, 0.0, 1.0),
    (math.pi + 0.1, 0.0, 1.0),
    (0.0, -0.5, 1.0),
    (0.0, 2 * math.pi, 1.0),
    (0.0, 0.0, -0.2),
    (0.0, 0.0, 1.2),
    (math.nan, 0.0, 1.0),
])
def test_information_state_rejects_out_of_range(alpha, beta, gamma):
    with pytest.raises(ValueError):
        InformationState(alpha, beta, gamma)


@given(alpha=st.floats(0, math.pi),
       beta=st.floats(0, 2 * math.pi, exclude_max=True),
       gamma=st.floats(0, 1))
@settings(max_examples=200)
def test_information_state_always_valid(alpha, beta, gamma):
    validate_density(information_state(InformationState(alpha, beta, gamma)))


# ----------------------------------------------------------- purity

def test_purity_pure_states():
    for alpha in (0.0, 0.7, math.pi / 2, math.pi):
        rho = information_state(InformationState(alpha, 1.0, 1.0))
        assert abs(purity(rho) - 1.0) < 1e-12


def test_purity_maximally_mixed():
    rho = information_state(InformationState(math.pi / 2, 0.0, 0.0))
    assert abs(purity(rho) - 0.5) < 1e-15


def test_purity_closed_form():
    # Tr[rho^2] = 1 - (1 - gamma^2) sin^2(alpha) / 2, checked against the
    # direct matrix square
    rho = information_state(InformationState(math.pi / 2, 0.3, 0.5))
    direct = float(np.trace(rho @ rho).real)
    assert abs(direct - 0.625) < 1e-15
    assert abs(purity(rho) - 0.625) < 1e-15

    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha, gamma = rng.uniform(0, math.pi), rng.uniform(0, 1)
        rho = information_state(InformationState(alpha, rng.uniform(0, 6), gamma))
        predicted = 1 - (1 - gamma ** 2) * math.sin(alpha) ** 2 / 2
        assert abs(purity(rho) - predicted) < 1e-13


@given(alpha=st.floats(0.0, math.pi),
       lo=st.floats(0, 1), hi=st.floats(0, 1))
@settings(max_examples=200)
def test_purity_monotone_in_gamma(alpha, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    p_lo = purity(information_state(InformationState(alpha, 0.0, lo)))
    p_hi = purity(information_state(InformationState(alpha, 0.0, hi)))
    assert p_hi >= p_lo - 1e-15


# ----------------------------------------------------- werner state

def test_werner_pure_limit():
    rho = werner_state(WernerResource(1.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[np.ix_([0, 3], [0, 3])] = 0.5
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_werner_mixed_limit():
    np.testing.assert_allclose(werner_state(WernerResource(0.0)), np.eye(4) / 4,
                               atol=1e-15)


def test_werner_half():
    rho = werner_state(WernerResource(0.5))
    expected = np.diag([0.375, 0.125, 0.125, 0.375]).astype(complex)
    expected[0, 3] = expected[3, 0] = 0.25
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_werner_ladder_expansion():
    # the mixture must match its expansion over two-qubit ladder products:
    # (1+e)/4 (P0P0 + P1P1) + (1-e)/4 (P0P1 + P1P0) + e/2 (S+S+ + S-S-)
    i_plus, i_minus, r_plus, r_minus = ladder_operators()
    for epsilon in np.linspace(0, 1, 11):
        expansion = ((1 + epsilon) / 4 * (kron(i_plus, i_plus) + kron(i_minus, i_minus))
                     + (1 - epsilon) / 4 * (kron(i_plus, i_minus) + kron(i_minus, i_plus))
                     + epsilon / 2 * (kron(r_plus, r_plus) + kron(r_minus, r_minus)))
        rho = werner_state(WernerResource(float(epsilon)))
        assert np.abs(rho - expansion).max() < 1e-14


def test_werner_valid_on_grid():
    for epsilon in np.linspace(0, 1, 101):
        validate_density(werner_state(WernerResource(float(epsilon))))


@pytest.mark.parametrize("epsilon", [-0.01, 1.01, math.inf])
def test_werner_rejects_out_of_range(epsilon):
    with pytest.raises(ValueError):
        WernerResource(epsilon)


# -------------------------------------------------- bell projectors

def _bell_projector(r):
    # |B_r><B_r| from the basis the protocol's Kraus maps are built on
    v = _BELL_VECTORS[r]
    return np.outer(v, v.conj())


def test_bell_projector_phi_plus():
    expected = np.zeros((4, 4), dtype=complex)
    expected[np.ix_([0, 3], [0, 3])] = 0.5
    np.testing.assert_allclose(_bell_projector(0), expected, atol=1e-15)


def test_bell_projectors_complete():
    total = sum(_bell_projector(r) for r in range(4))
    np.testing.assert_allclose(total, np.eye(4), atol=1e-15)


def test_bell_projectors_orthonormal():
    for r in range(4):
        for s in range(4):
            overlap = np.trace(_bell_projector(r) @ _bell_projector(s)).real
            assert abs(overlap - (1.0 if r == s else 0.0)) < 1e-15


def test_bell_projectors_rank_one():
    for r in range(4):
        eigs = np.linalg.eigvalsh(_bell_projector(r))
        np.testing.assert_allclose(sorted(eigs), [0, 0, 0, 1], atol=1e-14)


# ----------------------------------------------------- concurrence

def test_concurrence_werner_values():
    assert concurrence_werner(1.0) == 1.0
    assert abs(concurrence_werner(1 / 3)) < 1e-15
    assert abs(concurrence_werner(2 / 3) - 0.5) < 1e-15
    assert concurrence_werner(0.2) == 0.0


def test_concurrence_werner_rejects_out_of_range():
    with pytest.raises(ValueError):
        concurrence_werner(1.5)


def test_wootters_maximally_entangled():
    assert abs(wootters_concurrence(_bell_projector(0)) - 1.0) < 1e-12


def test_wootters_separable():
    assert wootters_concurrence(np.eye(4) / 4) < 1e-12


def test_wootters_matches_werner_formula():
    for epsilon in (0.4, 0.6, 0.9):
        got = wootters_concurrence(werner_state(WernerResource(epsilon)))
        assert abs(got - concurrence_werner(epsilon)) < 1e-10


def test_wootters_matches_werner_formula_grid():
    for epsilon in np.linspace(0, 1, 101):
        got = wootters_concurrence(werner_state(WernerResource(float(epsilon))))
        assert abs(got - concurrence_werner(float(epsilon))) < 1e-10


def test_wootters_rejects_invalid_state():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        wootters_concurrence(random_density(np.random.default_rng(0), 2))
