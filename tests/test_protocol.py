import math
import os
import subprocess
import sys

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
    bsm_project,
    composite,
    conditional_state_formula,
    correction_branch_operators,
    run_protocol,
)
from werner_teleport.states import (
    BELL_INDICES,
    InformationState,
    WernerResource,
    _BELL_VECTORS,
    _information_states,
    information_state,
    werner_state,
)

from helpers import (
    conditional_state_reference,
    cyclic_fidelities_reference,
    fidelity_reference,
    simulate_reference,
    tuple_first,
)


def _random_params(rng):
    return (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
            rng.uniform(0, 1), rng.uniform(0, 1))


# ------------------------------------------------------------ composite

def test_composite_pure_times_pure_is_pure():
    rho_c = composite(information_state(InformationState(0.3, 1.0, 1.0)),
                      werner_state(WernerResource(1.0)))
    assert abs(np.trace(rho_c @ rho_c).real - 1.0) < 1e-12


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


@pytest.mark.parametrize("r, error, message", [
    # a wrong class
    (True, TypeError, "an integer, got True"), (False, TypeError, "an integer, got False"),
    (np.bool_(True), TypeError, r"an integer, got (np\.)?True_?"),
    (1.0, TypeError, "an integer, got 1.0"),
    (np.float64(2.0), TypeError, r"an integer, got (np\.float64\()?2\.0\)?"),
    # an integer out of range
    (4, ValueError, "<= 3, got 4"), (-1, ValueError, ">= 0, got -1"),
], ids=["True", "False", "r2", "1.0", "2.0", "4", "-1"])
def test_bell_index_refuses_bools_floats_and_out_of_range(r, error, message):
    # True == 1 and 1.0 == 1, so membership in BELL_INDICES alone let them in
    rho_in = information_state(InformationState(0.7, 0.3, 0.8))
    rho_c = composite(rho_in, werner_state(WernerResource(0.6)))
    message = f"^Bell index must be {message}$"
    with pytest.raises(error, match=message):
        bsm_project(rho_c, r)
    with pytest.raises(error, match=message):
        conditional_state_formula(rho_in, 0.6, r)


@pytest.mark.parametrize("r", [np.int64(1), np.int32(2), np.uint8(3), np.intp(0)])
def test_bell_index_takes_numpy_integers(r):
    rho_in = information_state(InformationState(0.7, 0.3, 0.8))
    rho_c = composite(rho_in, werner_state(WernerResource(0.6)))
    outcome, expected = bsm_project(rho_c, r), bsm_project(rho_c, int(r))
    assert type(outcome.r) is int and outcome.r == expected.r
    assert outcome.probability == expected.probability
    assert np.array_equal(outcome.bob_state, expected.bob_state)
    assert np.array_equal(conditional_state_formula(rho_in, 0.6, r),
                          conditional_state_formula(rho_in, 0.6, int(r)))


# ----------------------------------------------------- correction unitary

def correction_unitary(r, angles):
    # Bob's outcome-r correction U_r = U0 sigma_r, as the kernel forms it
    u0 = protocol._base_unitaries(angles.chi, angles.theta, angles.phi, angles.psi)
    return u0 @ protocol._SIGMA_R[r]


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


def _corner_tuples():
    return np.array([(alpha, 1.3, gamma, epsilon, 0.4, 1.1, 0.7, 0.2)
                     for alpha, gamma, epsilon in CORNERS])


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

def _simulated(params):
    # the kernel's tuple-last outputs as C-ordered tuple-first (N, ...) stacks,
    # the layout of the references in helpers
    return tuple(tuple_first(a) for a in protocol._simulate(*params.T))


def _assert_kernel_rows_match_scalar_api(params):
    # row i of one kernel call equals run_protocol (probabilities and
    # fidelities) and bsm_project (Bob's states) on tuple i
    rho_in, probabilities, bob, fidelities = _simulated(params)
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
    _assert_kernel_rows_match_scalar_api(_corner_tuples())


def _r2_degenerate_composite():
    # a composite that annihilates the r = 2 Bell branch, and one that does not
    psi_plus = np.outer(_BELL_VECTORS[2], _BELL_VECTORS[2].conj())
    good = np.eye(8, dtype=complex) / 8
    bad = kron(np.eye(4, dtype=complex) - psi_plus, np.eye(2, dtype=complex)) / 6
    return good, bad


def test_kernel_degenerate_branch_names_its_index():
    # a stack whose second composite annihilates the r = 2 Bell branch
    good, bad = _r2_degenerate_composite()
    with pytest.raises(DensityMatrixError, match="r=2"):
        protocol._project_bell(np.stack([good, bad], axis=-1))


@pytest.mark.parametrize("where", [1, 2], ids=["middle", "last"])
@pytest.mark.parametrize("r", [None, [3, 2]], ids=["all", "subset"])
def test_kernel_degenerate_branch_index_is_read_from_the_branch_axis(where, r):
    # the guard's message names the Bell index, not the tuple's position
    good, bad = _r2_degenerate_composite()
    stack = [good, good, good]
    stack[where] = bad
    with pytest.raises(DensityMatrixError, match=r"r=2\b"):
        protocol._project_bell(np.stack(stack, axis=-1), r)


_OUTPUTS = ("rho_in", "probabilities", "bob", "fidelities")


def _assert_kernel_equals_reference(params):
    # rho_in, the probabilities and Bob's states are the entrywise Bell-table
    # reference's bits; the fidelities, a cyclic trace summed in another order
    # than the conjugation, are within 4 eps of it (2.5 eps seen on 2 x 10^5
    # tuples)
    got = _simulated(params)
    expected = simulate_reference(*params.T)
    for name, a, b in zip(_OUTPUTS[:3], got, expected):
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert got[3].shape == expected[3].shape
    assert np.abs(got[3] - expected[3]).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 3, 255, 256, 1000])
@pytest.mark.parametrize("seed", [7, 42, 71])
def test_kernel_gemms_equal_stacked_matmul_reference(seed, n):
    # the kernel sums each entry of Bob's states as the Bell-table reference does
    from werner_teleport.verify import _draw_tuples
    _assert_kernel_equals_reference(_draw_tuples(np.random.default_rng(seed), n))


def test_kernel_gemms_equal_stacked_matmul_reference_at_corners():
    _assert_kernel_equals_reference(_corner_tuples())


@pytest.mark.parametrize("n", [1, 3, 256, 1000, 6000])
@pytest.mark.parametrize("seed", [7, 42, 71])
def test_kernel_fidelities_equal_cyclic_matmul_reference(seed, n):
    from werner_teleport.verify import _draw_tuples
    params = np.vstack([_draw_tuples(np.random.default_rng(seed), n), _corner_tuples()])
    got = _simulated(params)[3]
    assert got.tobytes() == cyclic_fidelities_reference(*params.T).tobytes()


@pytest.mark.parametrize("n", [1, 3, 100, 8193, 10**5])
def test_mean_fidelity_adds_the_branches_in_order(n):
    # the report's fidelity is (t0 + t1 + t2 + t3) / (p0 + p1 + p2 + p3),
    # summed left to right, whatever the number of tuples on the last axis
    rng = np.random.default_rng(n)
    p, f = rng.uniform(size=(4, n)), rng.uniform(size=(4, n))
    t = p * f
    expected = (t[0] + t[1] + t[2] + t[3]) / (p[0] + p[1] + p[2] + p[3])
    assert protocol._mean_fidelity(p, f).tobytes() == expected.tobytes()


def test_signed_gather_equals_sigma_r_sandwich():
    # the kernel's (4, 2, 2) index and sign tables give (sigma_r^+ M sigma_r)^T
    rng = np.random.default_rng(19)
    m = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    gathered = np.take(m.reshape(-1, 4), protocol._PERM, axis=1) * protocol._SIGN
    for r, sigma in enumerate(correction_branch_operators()):
        expected = (sigma.conj().T @ m @ sigma).swapaxes(-1, -2)
        assert np.array_equal(gathered[:, r], expected), r


def test_kernel_rows_do_not_depend_on_the_stack_size():
    # 6000 tuples put the kernel's (4, 2, 2, N) temporaries above numpy's
    # 256 KiB threshold for eliding temporaries, where an operand that is not
    # C-ordered can change the order in which the trace is summed
    from werner_teleport.verify import _draw_tuples
    params = _draw_tuples(np.random.default_rng(83), 6000)
    stacked = _simulated(params)
    for i in np.linspace(0, len(params) - 1, 300).astype(int).tolist():
        single = _simulated(params[i:i + 1])
        for name, a, b in zip(_OUTPUTS, stacked, single):
            assert a[i].tobytes() == b[0].tobytes(), (name, i)


_SIMULATE_FROM_STDIN = """
import sys
import numpy as np
from werner_teleport.protocol import _simulate
params = np.frombuffer(sys.stdin.buffer.read()).reshape(-1, 8)
sys.stdout.buffer.write(b"".join(a.tobytes() for a in _simulate(*params.T)))
"""


def test_kernel_bytes_do_not_depend_on_the_openblas_kernel():
    # Two child processes, each with its own OpenBLAS GEMM kernel, run the
    # kernel on the same tuples; a BLAS call whose summation order depends
    # on the kernel (Prescott's and Haswell's differ) would move the bytes.
    from werner_teleport.verify import _draw_tuples
    params = np.vstack([_draw_tuples(np.random.default_rng(97), 2000), _corner_tuples()])
    expected = b"".join(a.tobytes() for a in protocol._simulate(*params.T))
    package_root = os.path.dirname(os.path.dirname(protocol.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    for coretype in ("Prescott", "Haswell"):
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _SIMULATE_FROM_STDIN], input=params.tobytes(),
                              capture_output=True, env=env, check=True)
        assert proc.stdout == expected, coretype


def test_simulate_hands_the_projection_a_c_ordered_composite(monkeypatch):
    # _simulate passes rho_in (x) W as a C-ordered (8, 8, N) array, so each
    # 2x2 block the projection reads is one contiguous run of N tuples per
    # entry, and Bob's states come back C-ordered, tuple-last, as the kernel's
    # own outputs, uncopied
    from werner_teleport.verify import _draw_tuples
    params = np.vstack([_draw_tuples(np.random.default_rng(5), 300), _corner_tuples()])
    calls = []
    project = protocol._project_bell

    def recording(rho_c, r=None):
        result = project(rho_c, r)
        calls.append((rho_c, r, result))
        return result

    monkeypatch.setattr(protocol, "_project_bell", recording)
    _, probabilities, bob, _ = protocol._simulate(*params.T)
    (rho_c, r, (p_returned, bob_returned)), = calls
    assert r is None and rho_c.shape == (8, 8, len(params))
    assert rho_c.flags.c_contiguous
    v = rho_c.reshape(4, 2, 4, 2, len(params))
    for a in range(4):
        for b in range(4):
            assert v[a, :, b].strides[-1] == 16
    assert bob_returned.shape == (4, 2, 2, len(params))
    assert bob_returned.flags.c_contiguous and p_returned.flags.c_contiguous
    assert bob is bob_returned and probabilities is p_returned
    expected = np.stack([np.kron(rho, werner_state(WernerResource(e))) for rho, e in
                         zip(tuple_first(_information_states(*params[:, :3].T)), params[:, 3])],
                        axis=-1)
    assert np.array_equal(rho_c, expected)


@pytest.mark.parametrize("r", BELL_INDICES)
def test_project_bell_subset_equals_its_column_of_the_full_projection(r):
    from werner_teleport.verify import _draw_tuples
    params = np.vstack([_draw_tuples(np.random.default_rng(42), 100), _corner_tuples()])
    rho_in = tuple_first(_information_states(*params[:, :3].T))
    rho_c = np.stack([np.kron(rho, werner_state(WernerResource(e)))
                      for rho, e in zip(rho_in, params[:, 3])], axis=-1)
    probability, bob = protocol._project_bell(rho_c)
    p_r, bob_r = protocol._project_bell(rho_c, [r])
    assert p_r.shape == (1, len(params)) and bob_r.shape == (1, 2, 2, len(params))
    # byte for byte, so a signed zero that drifts shows
    assert p_r[0].tobytes() == probability[r].tobytes()
    assert bob_r[0].tobytes() == bob[r].tobytes()


def test_verify_conjugation_gemm_equals_sigma_r_sandwich():
    from werner_teleport.verify import _CONJUGATION, _draw_tuples
    params = np.vstack([_draw_tuples(np.random.default_rng(42), 300), _corner_tuples()])
    bob0 = protocol._simulate(*params.T)[2][0]
    rotated = tuple_first((_CONJUGATION @ bob0.reshape(4, -1)).reshape(3, 2, 2, -1))
    sigma_r = correction_branch_operators()
    for r in (1, 2, 3):
        expected = sigma_r[r] @ tuple_first(bob0) @ sigma_r[r].conj().T
        assert np.array_equal(rotated[:, r - 1], expected)


def test_conditional_state_formula_on_stacks_agrees_with_scalar_calls():
    # == on complex entries: the ladder-basis reference adds exact zeros that
    # the entrywise formula does not, so only the sign of a zero may differ
    from werner_teleport.verify import _draw_tuples
    rows = _draw_tuples(np.random.default_rng(79), 10**4)
    rows = np.vstack([rows, _corner_tuples()])
    rho_in = tuple_first(_information_states(rows[:, 0], rows[:, 1], rows[:, 2]))
    epsilon = rows[:, 3]
    branches = protocol._conditional_states(rho_in, epsilon)
    assert branches.shape == (len(rows), 4, 2, 2)
    for r in BELL_INDICES:
        expected = conditional_state_reference(rho_in, epsilon, r)
        assert np.array_equal(branches[:, r], expected)
        stacked = conditional_state_formula(rho_in, epsilon, r)
        scalar = [conditional_state_formula(rho, e, r)
                  for rho, e in zip(rho_in, epsilon.tolist())]
        assert stacked.shape == (len(rows), 2, 2)
        assert np.array_equal(stacked, expected)
        assert np.array_equal(scalar, expected)


def test_conditional_states_at_the_degenerate_corners():
    # epsilon = 1 teleports perfectly: branch r is sigma_r rho_in sigma_r^+
    # exactly; epsilon = 0 leaves Bob a diagonal state with equal entries;
    # gamma = 0 leaves no coherence in any branch
    from werner_teleport.verify import _draw_tuples
    rows = np.vstack([_draw_tuples(np.random.default_rng(83), 1000), _corner_tuples()])
    alpha, beta, gamma, epsilon = rows[:, :4].T
    rho_in = tuple_first(_information_states(alpha, beta, gamma))
    perfect = protocol._conditional_states(rho_in, np.ones_like(epsilon))
    for r, sigma in enumerate(correction_branch_operators()):
        assert np.array_equal(perfect[:, r], sigma @ rho_in @ sigma.conj().T)
    mixed = protocol._conditional_states(rho_in, np.zeros_like(epsilon))
    assert np.all(mixed[..., 0, 1] == 0) and np.all(mixed[..., 1, 0] == 0)
    assert np.array_equal(mixed[..., 0, 0], mixed[..., 1, 1])
    incoherent = protocol._conditional_states(
        tuple_first(_information_states(alpha, beta, np.zeros_like(gamma))), epsilon)
    assert np.all(incoherent[..., 0, 1] == 0) and np.all(incoherent[..., 1, 0] == 0)


def test_conditional_state_formula_checks_every_epsilon():
    info = information_state(InformationState(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match=r"epsilon must lie in \[0.0, 1.0\], got -0.25"):
        conditional_state_formula(np.stack([info] * 3), np.array([0.5, -0.25, 2.0]), 0)


def test_conditional_state_formula_rejects_bad_index():
    info = information_state(InformationState(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        conditional_state_formula(info, 0.5, -1)


@pytest.mark.parametrize("info", [np.eye(3) / 3, np.eye(4) / 4, np.array([0.5, 0.5])],
                         ids=["3x3", "4x4", "1-D"])
def test_conditional_state_formula_rejects_non_qubit_shapes(info):
    # a 3x3 once gave a 2x2 from its top-left block, a 4x4 a broadcast error
    # and a 1-D input an IndexError
    with pytest.raises(DensityMatrixError, match="expected a 2x2 input"):
        conditional_state_formula(info, 0.5, 0)


def test_conditional_state_formula_takes_qubits_and_their_stacks():
    info = information_state(InformationState(0.5, 0.5, 0.5))
    single = conditional_state_formula(info, 0.5, 1)
    assert single.shape == (2, 2)
    stacked = conditional_state_formula(np.stack([info] * 3), 0.5, 1)
    assert stacked.shape == (3, 2, 2)
    assert all(np.array_equal(state, single) for state in stacked)
