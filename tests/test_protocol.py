import math

import numpy as np
import pytest

from werner_teleport.density import (
    DensityMatrixError,
    NotHermitianError,
    NotPositiveError,
    TraceError,
    kron,
    sigma_x,
    sigma_y,
    sigma_z,
)
from werner_teleport import protocol
from werner_teleport.protocol import (
    UnitaryAngles,
    base_unitary,
    bsm_project,
    composite,
    conditional_state_formula,
    correction_branch_operators,
    correction_unitary,
    run_protocol,
)
from werner_teleport.states import (
    InformationState,
    WernerResource,
    _BELL_VECTORS,
    information_state,
    purity,
    werner_state,
)

from helpers import fidelity_reference


def _random_params(rng):
    return (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
            rng.uniform(0, 1), rng.uniform(0, 1))


# ------------------------------------------------------------ composite

def test_composite_pure_times_pure_is_pure():
    rho_c = composite(information_state(InformationState(0.3, 1.0, 1.0)),
                      werner_state(WernerResource(1.0)))
    assert abs(purity(rho_c) - 1.0) < 1e-12


def test_composite_trace_and_marginal():
    rng = np.random.default_rng(3)
    info = information_state(InformationState(*_random_params(rng)[:3]))
    rho_c = composite(info, werner_state(WernerResource(0.7)))
    assert abs(np.trace(rho_c) - 1) < 1e-12
    from werner_teleport.density import partial_trace
    np.testing.assert_allclose(partial_trace(rho_c, {0}), info, atol=1e-13)


def test_composite_rejects_swapped_arguments():
    info = information_state(InformationState(0.0, 0.0, 1.0))
    resource = werner_state(WernerResource(0.5))
    with pytest.raises(DensityMatrixError):
        composite(resource, info)


# ----------------------------------------------------------- bsm_project

def test_bsm_ideal_channel_reproduces_input():
    info = information_state(InformationState(1.1, 2.2, 1.0))
    rho_c = composite(info, werner_state(WernerResource(1.0)))
    outcome = bsm_project(rho_c, 0)
    assert abs(outcome.probability - 0.25) < 1e-12
    np.testing.assert_allclose(outcome.bob_state, info, atol=1e-12)


def test_bsm_mixed_resource_carries_nothing():
    info = information_state(InformationState(0.4, 5.0, 0.8))
    rho_c = composite(info, werner_state(WernerResource(0.0)))
    for r in range(4):
        outcome = bsm_project(rho_c, r)
        np.testing.assert_allclose(outcome.bob_state, np.eye(2) / 2, atol=1e-12)


def test_bsm_pole_state_half_mixing():
    # alpha = 0 input over an epsilon = 0.5 resource: diag((1+e)/2, (1-e)/2)
    info = information_state(InformationState(0.0, 0.0, 0.3))
    rho_c = composite(info, werner_state(WernerResource(0.5)))
    outcome = bsm_project(rho_c, 0)
    np.testing.assert_allclose(outcome.bob_state, np.diag([0.75, 0.25]), atol=1e-12)


def test_bsm_probabilities_quarter():
    rng = np.random.default_rng(19)
    for _ in range(20):
        alpha, beta, gamma, epsilon = _random_params(rng)
        rho_c = composite(information_state(InformationState(alpha, beta, gamma)),
                          werner_state(WernerResource(epsilon)))
        probs = [bsm_project(rho_c, r).probability for r in range(4)]
        assert max(abs(p - 0.25) for p in probs) < 1e-12
        assert abs(sum(probs) - 1.0) < 1e-12


def test_bsm_matches_ladder_formula():
    rng = np.random.default_rng(43)
    for _ in range(50):
        alpha, beta, gamma, epsilon = _random_params(rng)
        info = information_state(InformationState(alpha, beta, gamma))
        rho_c = composite(info, werner_state(WernerResource(epsilon)))
        for r in range(4):
            got = bsm_project(rho_c, r).bob_state
            expected = conditional_state_formula(info, epsilon, r)
            assert np.abs(got - expected).max() < 1e-12


def test_bsm_branch_conjugation_relation():
    sigma_r = correction_branch_operators()
    rng = np.random.default_rng(47)
    for _ in range(20):
        alpha, beta, gamma, epsilon = _random_params(rng)
        rho_c = composite(information_state(InformationState(alpha, beta, gamma)),
                          werner_state(WernerResource(epsilon)))
        bob0 = bsm_project(rho_c, 0).bob_state
        for r in (1, 2, 3):
            rotated = sigma_r[r] @ bob0 @ sigma_r[r].conj().T
            assert np.abs(bsm_project(rho_c, r).bob_state - rotated).max() < 1e-12


def test_bsm_degenerate_outcome_fails_loudly():
    # hand-built composite orthogonal to the r=0 Bell branch
    phi_minus = np.outer(_BELL_VECTORS[1], _BELL_VECTORS[1].conj())
    rho_c = kron(phi_minus, np.eye(2, dtype=complex) / 2)
    with pytest.raises(DensityMatrixError, match="degenerate"):
        bsm_project(rho_c, 0)
    assert abs(bsm_project(rho_c, 1).probability - 1.0) < 1e-12


def test_bsm_rejects_bad_index_and_shape():
    rho_c = composite(information_state(InformationState(0, 0, 1)),
                      werner_state(WernerResource(0.5)))
    with pytest.raises(ValueError):
        bsm_project(rho_c, 5)
    with pytest.raises(DensityMatrixError):
        bsm_project(werner_state(WernerResource(0.5)), 0)
    # bsm_project is the checked boundary: every density invariant on 8x8
    skewed = rho_c.copy()
    skewed[0, 7] += 0.1
    with pytest.raises(NotHermitianError):
        bsm_project(skewed, 0)
    with pytest.raises(TraceError):
        bsm_project(2 * rho_c, 0)
    negative = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(NotPositiveError):
        bsm_project(negative, 0)


# ----------------------------------------------------- correction unitary

def test_correction_unitary_identity():
    np.testing.assert_allclose(correction_unitary(0, UnitaryAngles()), np.eye(2),
                               atol=1e-15)


def test_correction_unitary_branches_at_zero_angles():
    angles = UnitaryAngles()
    np.testing.assert_allclose(correction_unitary(1, angles), sigma_z, atol=1e-15)
    np.testing.assert_allclose(correction_unitary(2, angles), sigma_x, atol=1e-15)
    np.testing.assert_allclose(correction_unitary(3, angles), 1j * sigma_y, atol=1e-15)


def test_correction_unitary_is_unitary():
    rng = np.random.default_rng(53)
    for _ in range(50):
        angles = UnitaryAngles(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi),
                               rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        for r in range(4):
            u = correction_unitary(r, angles)
            assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


def test_base_unitary_angles_rejected_out_of_range():
    with pytest.raises(ValueError):
        UnitaryAngles(theta=-0.1)
    with pytest.raises(ValueError):
        UnitaryAngles(chi=2 * math.pi)
    with pytest.raises(ValueError):
        UnitaryAngles(psi=math.pi + 0.2)


# --------------------------------------------------------- run_protocol

def test_run_protocol_ideal():
    report = run_protocol(InformationState(2.0, 0.7, 1.0), WernerResource(1.0),
                          UnitaryAngles())
    assert abs(report.fidelity - 1.0) < 1e-12
    for outcome in report.outcomes:
        assert abs(outcome.fidelity - 1.0) < 1e-12
        assert abs(outcome.probability - 0.25) < 1e-12


def test_run_protocol_useless_resource():
    report = run_protocol(InformationState(1.0, 1.0, 0.6), WernerResource(0.0),
                          UnitaryAngles(0.0, 1.0, 1.0, 1.0))
    assert abs(report.fidelity - 0.5) < 1e-12


def test_run_protocol_outcomes_coincide():
    rng = np.random.default_rng(59)
    for _ in range(20):
        alpha, beta, gamma, epsilon = _random_params(rng)
        angles = UnitaryAngles(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi),
                               rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        report = run_protocol(InformationState(alpha, beta, gamma),
                              WernerResource(epsilon), angles)
        fids = [o.fidelity for o in report.outcomes]
        assert max(fids) - min(fids) < 1e-12


def test_run_protocol_chi_invariance():
    fixed = (1.3, 4.0, 0.7, 0.8)
    values = []
    for chi in (0.0, 0.9, math.pi, 5.5):
        report = run_protocol(InformationState(fixed[0], fixed[1], fixed[2]),
                              WernerResource(fixed[3]),
                              UnitaryAngles(chi, 0.8, 1.1, 0.2))
        values.append(report.fidelity)
    assert max(values) - min(values) < 1e-14


def test_run_protocol_matches_closed_form():
    rng = np.random.default_rng(61)
    for _ in range(200):
        alpha, beta, gamma, epsilon = _random_params(rng)
        chi = rng.uniform(0, 2 * math.pi)
        theta, phi, psi = rng.uniform(0, math.pi, 3)
        report = run_protocol(InformationState(alpha, beta, gamma),
                              WernerResource(epsilon),
                              UnitaryAngles(chi, theta, phi, psi))
        expected = fidelity_reference(alpha, beta, gamma, epsilon, theta, phi, psi)
        assert abs(report.fidelity - expected) < 1e-10


def test_run_protocol_validates_nothing(monkeypatch):
    # the dataclass inputs were range-checked when built, so no state is
    # re-validated: no validate_density and no eigensolve
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(protocol, "validate_density",
                        counting("validate_density", protocol.validate_density))
    run_protocol(InformationState(1.1, 2.2, 0.7), WernerResource(0.6),
                 UnitaryAngles(0.3, 1.0, 0.5, 0.2))
    assert calls == []


CORNERS = [(alpha, gamma, epsilon) for alpha in (0.0, math.pi)
           for gamma in (0.0, 1.0) for epsilon in (0.0, 1.0)]


@pytest.mark.parametrize("alpha, gamma, epsilon", CORNERS)
def test_run_protocol_records_match_bsm_project_at_corners(alpha, gamma, epsilon):
    info = InformationState(alpha, 1.3, gamma)
    resource = WernerResource(epsilon)
    angles = UnitaryAngles(0.4, 1.1, 0.7, 0.2)
    report = run_protocol(info, resource, angles)
    rho_in = information_state(info)
    rho_c = composite(rho_in, werner_state(resource))
    for r, record in enumerate(report.outcomes):
        outcome = bsm_project(rho_c, r)
        u_r = correction_unitary(r, angles)
        teleported = u_r @ outcome.bob_state @ u_r.conj().T
        assert record.r == r
        assert abs(record.probability - outcome.probability) <= 1e-15
        assert abs(record.fidelity - np.trace(teleported @ rho_in).real) <= 1e-15


# ------------------------------------------------------ batched kernel

def _assert_kernel_rows_match_scalar_api(params):
    # row i of one kernel call equals run_protocol (probabilities and
    # fidelities) and bsm_project (Bob's states) on tuple i
    rho_in, probabilities, bob, fidelities = protocol._simulate(*params.T)
    assert rho_in.shape == (len(params), 2, 2)
    assert probabilities.shape == fidelities.shape == (len(params), 4)
    assert bob.shape == (len(params), 4, 2, 2)
    for i, (alpha, beta, gamma, epsilon, chi, theta, phi, psi) in enumerate(params):
        info = InformationState(alpha, beta, gamma)
        resource = WernerResource(epsilon)
        report = run_protocol(info, resource, UnitaryAngles(chi, theta, phi, psi))
        assert np.abs(rho_in[i] - information_state(info)).max() <= 1e-15
        rho_c = composite(information_state(info), werner_state(resource))
        for r, record in enumerate(report.outcomes):
            assert abs(probabilities[i, r] - record.probability) <= 1e-15
            assert abs(fidelities[i, r] - record.fidelity) <= 1e-15
            assert np.abs(bob[i, r] - bsm_project(rho_c, r).bob_state).max() <= 1e-15


def test_kernel_rows_match_run_protocol_on_seeded_tuples():
    from werner_teleport.verify import _draw_tuples
    _assert_kernel_rows_match_scalar_api(_draw_tuples(np.random.default_rng(71), 150))


def test_kernel_rows_match_run_protocol_at_corners():
    params = np.array([(alpha, 1.3, gamma, epsilon, 0.4, 1.1, 0.7, 0.2)
                       for alpha, gamma, epsilon in CORNERS])
    _assert_kernel_rows_match_scalar_api(params)


def test_kernel_degenerate_branch_names_its_index():
    # a stack whose second composite annihilates the r = 2 Bell branch
    psi_plus = np.outer(_BELL_VECTORS[2], _BELL_VECTORS[2].conj())
    good = np.eye(8, dtype=complex) / 8
    bad = kron(np.eye(4, dtype=complex) - psi_plus, np.eye(2, dtype=complex)) / 6
    with pytest.raises(DensityMatrixError, match="r=2"):
        protocol._project_bell(np.stack([good, bad]))


def test_conditional_state_formula_rejects_bad_index():
    info = information_state(InformationState(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        conditional_state_formula(info, 0.5, -1)
