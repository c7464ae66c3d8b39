import argparse
import collections
import inspect
import math
import re
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from werner_teleport import cli
from werner_teleport.analytics import (
    average_fidelity_numeric,
    fidelity_closed_form,
    masfi,
    min_over_information,
    minimax_search,
)
from werner_teleport.density import kron, validate_density
from werner_teleport.protocol import (
    UnitaryAngles,
    bsm_project,
    conditional_state_formula,
    run_protocol,
)
from werner_teleport.states import (
    InformationState,
    WernerResource,
    _BELL_VECTORS,
    _DOMAINS,
    _require_range,
    _require_scalar,
    _werner_states,
    concurrence_werner,
    information_state,
    werner_state,
    wootters_concurrence,
)
from werner_teleport.verify import CheckResult, _draw_tuples, run_verification

from helpers import (
    I_MINUS,
    I_PLUS,
    R_MINUS,
    R_PLUS,
    random_density,
    require_range_reference,
    werner_states_reference,
)


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
    rng = np.random.default_rng(13)
    for _ in range(25):
        alpha = rng.uniform(0, math.pi)
        beta = rng.uniform(0, 2 * math.pi)
        gamma = rng.uniform(0, 1)
        c, s = math.cos(alpha / 2), math.sin(alpha / 2)
        p01 = gamma * s * c * np.exp(-1j * beta)
        expansion = (c * c * I_PLUS + s * s * I_MINUS
                     + p01 * R_PLUS + np.conj(p01) * R_MINUS)
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
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_purity_maximally_mixed():
    rho = information_state(InformationState(math.pi / 2, 0.0, 0.0))
    assert abs(np.trace(rho @ rho).real - 0.5) < 1e-15


def test_purity_closed_form():
    # the direct matrix square against Tr[rho^2] = 1 - (1 - gamma^2) sin^2(alpha) / 2
    rho = information_state(InformationState(math.pi / 2, 0.3, 0.5))
    assert abs(np.trace(rho @ rho).real - 0.625) < 1e-15

    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha, gamma = rng.uniform(0, math.pi), rng.uniform(0, 1)
        rho = information_state(InformationState(alpha, rng.uniform(0, 6), gamma))
        predicted = 1 - (1 - gamma ** 2) * math.sin(alpha) ** 2 / 2
        assert abs(np.trace(rho @ rho).real - predicted) < 1e-13


@given(alpha=st.floats(0.0, math.pi),
       lo=st.floats(0, 1), hi=st.floats(0, 1))
@settings(max_examples=200)
def test_purity_monotone_in_gamma(alpha, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    rho_lo = information_state(InformationState(alpha, 0.0, lo))
    rho_hi = information_state(InformationState(alpha, 0.0, hi))
    p_lo, p_hi = np.trace(rho_lo @ rho_lo).real, np.trace(rho_hi @ rho_hi).real
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
    for epsilon in np.linspace(0, 1, 11):
        expansion = ((1 + epsilon) / 4 * (kron(I_PLUS, I_PLUS) + kron(I_MINUS, I_MINUS))
                     + (1 - epsilon) / 4 * (kron(I_PLUS, I_MINUS) + kron(I_MINUS, I_PLUS))
                     + epsilon / 2 * (kron(R_PLUS, R_PLUS) + kron(R_MINUS, R_MINUS)))
        rho = werner_state(WernerResource(float(epsilon)))
        assert np.abs(rho - expansion).max() < 1e-14


def test_werner_valid_on_grid():
    for epsilon in np.linspace(0, 1, 101):
        validate_density(werner_state(WernerResource(float(epsilon))))


@pytest.mark.parametrize("epsilons", [
    np.random.default_rng(17).random(1000),
    np.random.default_rng(18).random((3, 5)),
    np.array([0.0, 1 / 3, 1.0]),
], ids=["seeded", "seeded-2d", "corners"])
def test_werner_states_have_the_eye_plus_projector_bytes(epsilons):
    # the six nonzero entries written into zeros, against the products over
    # all sixteen, for an array and for each of its entries as a scalar
    got, expected = _werner_states(epsilons), werner_states_reference(epsilons)
    assert got.shape == expected.shape == (4, 4) + epsilons.shape
    assert got.tobytes() == expected.tobytes()
    for epsilon in epsilons.flat:
        for value in (float(epsilon), np.float64(epsilon), np.array(epsilon)):
            got, expected = _werner_states(value), werner_states_reference(value)
            assert got.shape == (4, 4) and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("epsilon", [-0.01, 1.01, math.inf])
def test_werner_rejects_out_of_range(epsilon):
    with pytest.raises(ValueError):
        WernerResource(epsilon)


# ---------------------------------------------------- range checks

@pytest.mark.parametrize("value", [0.25, np.float64(0.25), 1, np.int64(0), np.array(0.5)])
def test_require_range_scalar_gives_float(value):
    checked = _require_range(value, "gamma")
    assert type(checked) is float and checked == float(value)


# Entries in units of the domain's upper bound: gamma's closed [0, 1] and,
# for the half-open cases, beta's [0, 2 pi).
@pytest.mark.parametrize("entries, open_upper, first_bad", [
    ([0.1, math.nan, 2.0], False, math.nan),
    ([0.1, math.inf], False, math.inf),
    ([-math.inf, 0.5], False, -math.inf),
    ([0.2, 1.5, math.nan], False, 1.5),
    ([0.0, -1e-300, 1.0], False, -1e-300),
    ([0.0, 0.5, 1.0], True, 1.0),
    ([[0.5, 0.5], [0.5, 1.0 + 1e-15]], False, 1.0 + 1e-15),
    ([[0.5, 7.0], [math.nan, 0.5]], False, 7.0),
])
def test_require_range_array_names_first_bad_entry_like_a_scalar(entries, open_upper,
                                                                  first_bad):
    name = "beta" if open_upper else "gamma"
    hi = _DOMAINS[name][0]
    with pytest.raises(ValueError) as scalar:
        _require_range(first_bad * hi, name)
    with pytest.raises(ValueError) as array:
        _require_range(np.array(entries) * hi, name)
    assert str(array.value) == str(scalar.value)
    assert str(scalar.value).startswith(f"{name} must")


def test_require_range_array_in_range_is_returned_as_floats():
    values = np.array([[0.0, 0.5], [1.0, 0.25]])
    assert _require_range(values, "gamma") is values
    ints = _require_range(np.array([0, 1]), "gamma")
    assert ints.dtype == float and ints.tolist() == [0.0, 1.0]
    objects = _require_range(np.array([0.5, 0.2], dtype=object), "gamma")
    assert objects.dtype == float and objects.tolist() == [0.5, 0.2]


def _range_outcome(check, value, name):
    # what a range check gives: its result, or its exception's type and text
    try:
        return check(value, name)
    except Exception as error:  # compared, not handled
        return type(error), str(error)


@st.composite
def _range_arrays(draw):
    # 1-D and 2-D arrays (empty ones too) whose entries mix in-domain values,
    # NaN, +-inf, -0.0, the exact upper bound and its neighbours, in float64,
    # float32 or int64
    name = draw(st.sampled_from(["gamma", "beta", "alpha"]))
    hi = _DOMAINS[name][0]
    shape = draw(st.sampled_from([(0,), (1,), (5,), (0, 3), (3, 0), (1, 1), (3, 4)]))
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    if dtype is np.int64:
        entries = st.integers(-2, 8)
    else:
        entries = st.one_of(
            st.floats(-0.5 * hi, 1.5 * hi),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, hi,
                             math.nextafter(hi, math.inf), math.nextafter(hi, 0.0),
                             -5e-324]))
    values = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=dtype).reshape(shape), name


_GAMMA_HI, _BETA_HI = _DOMAINS["gamma"][0], _DOMAINS["beta"][0]


@given(case=_range_arrays())
@example(case=(np.array([0.0, -0.0, _GAMMA_HI]), "gamma"))  # closed bound: in
@example(case=(np.array([0.0, -0.0, _BETA_HI]), "beta"))  # half-open bound: out
@example(case=(np.array([[0.5, -0.0], [math.nan, math.inf]]), "gamma"))
@example(case=(np.array([0.5, -math.inf]), "beta"))
@example(case=(np.array([]), "gamma"))
@example(case=(np.empty((0, 2), dtype=np.int64), "beta"))
@example(case=(np.array([0, 1, 2]), "gamma"))
@example(case=(np.array([0, 6]), "beta"))
@example(case=(np.array([0.5, None], dtype=object), "gamma"))  # not numeric: same error
@example(case=(np.array(["0.5"]), "gamma"))
@example(case=(np.array([True, False]), "gamma"))
@settings(max_examples=500)
def test_require_range_arrays_match_the_entrywise_reference(case):
    value, name = case
    got = _range_outcome(_require_range, value, name)
    expected = _range_outcome(require_range_reference, value, name)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.dtype == expected.dtype
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert (got is value) == (expected is value)


def test_require_scalar_rejects_arrays():
    assert _require_scalar(np.float64(0.5), "gamma") == 0.5
    assert _require_scalar(np.array(0.5), "gamma") == 0.5
    for array in (np.array([0.5, 0.6]), np.array([0.5])):
        with pytest.raises(TypeError, match="gamma must be a scalar"):
            _require_scalar(array, "gamma")
    with pytest.raises(TypeError):
        InformationState(np.array([0.1, 0.2]), 0.0, 0.5)


@pytest.mark.parametrize("value", [
    np.array([0.5 + 1j]), np.array([0.5, 0.25], dtype=np.complex64), np.array(0.5 + 0j),
    np.complex128(0.5 + 1j), np.complex64(0.5), np.array([], dtype=complex),
], ids=["array", "complex64-array", "0-d", "complex128", "complex64", "empty"])
def test_complex_input_is_refused_not_truncated(value):
    # a float cast would keep the real part alone (0.5 + 1j read as 0.5)
    # with only a ComplexWarning
    with pytest.raises(TypeError, match="^gamma must be a real number, got a complex"):
        _require_range(value, "gamma")
    with pytest.raises(TypeError, match="^epsilon must be a real number, got a complex"):
        masfi(0.5, value)
    if value.ndim == 0:
        with pytest.raises(TypeError, match="^gamma must be a real number, got a complex"):
            _require_scalar(value, "gamma")
        with pytest.raises(TypeError, match="^gamma must be a real number, got a complex"):
            minimax_search(value, 0.5)
        with pytest.raises(TypeError, match="^gamma must be a real number, got a complex"):
            InformationState(0.5, 0.5, value)
        with pytest.raises(TypeError, match="^epsilon must be a real number, got a complex"):
            WernerResource(value)
        with pytest.raises(TypeError, match="^psi must be a real number, got a complex"):
            UnitaryAngles(psi=value)


@pytest.mark.parametrize("value, kind", [
    (0.5 + 1j, "complex"), (0.5 + 0j, "complex"), ("0.5", "str"), (b"0.5", "bytes"),
    (np.str_("0.5"), "str96"), (np.bytes_(b"0.5"), "bytes24"),
    (np.array("0.5"), "str96"), (np.array(b"0.5"), "bytes24"),
], ids=["complex", "complex-0j", "str", "bytes", "np-str", "np-bytes", "0-d-str", "0-d-bytes"])
def test_complex_and_text_scalars_are_refused_by_name(value, kind):
    # float() would name no parameter for a complex, and would parse the text
    # of a string ("0.5" read as 0.5)
    def message(name):
        return f"^{name} must be a real number, got a {kind} value$"

    with pytest.raises(TypeError, match=message("gamma")):
        _require_range(value, "gamma")
    with pytest.raises(TypeError, match=message("gamma")):
        masfi(value, 0.5)
    with pytest.raises(TypeError, match=message("gamma")):
        InformationState(0.5, 0.5, value)
    with pytest.raises(TypeError, match=message("psi")):
        UnitaryAngles(psi=value)
    with pytest.raises(TypeError, match=message("gamma")):
        minimax_search(value, 0.5)


@pytest.mark.parametrize("value, kind", [
    (None, "NoneType"), ([0.5], "list"), ({}, "dict"),
    (np.array(None, dtype=object), "NoneType"), (np.array([None], dtype=object), "NoneType"),
    (np.array([0.5, "x"], dtype=object), "str"), (np.array(["0.5"]), "str96"),
], ids=["none", "list", "dict", "0-d-object", "object-none", "object-text", "text-array"])
def test_values_float_refuses_are_refused_by_name(value, kind):
    # float()'s own message names no parameter, nor does numpy's for an array
    # whose entries it cannot compare with a float; an object array fails on
    # its first bad entry, with that entry's message
    def message(name):
        return f"^{name} must be a real number, got a {kind} value$"

    with pytest.raises(TypeError, match=message("gamma")):
        _require_range(value, "gamma")
    with pytest.raises(TypeError, match=message("gamma")):
        masfi(value, 0.5)
    if isinstance(value, np.ndarray) and value.ndim:
        return  # the parameter dataclasses refuse it by its shape
    with pytest.raises(TypeError, match=message("alpha")):
        InformationState(value, 0, 0)
    with pytest.raises(TypeError, match=message("psi")):
        UnitaryAngles(psi=value)


class _FloatOnly:
    # float() takes it, but it is not a numbers.Real
    def __float__(self):
        return 0.5


@pytest.mark.parametrize("value, accepted", [
    (True, True), (Fraction(1, 2), True), (np.bool_(True), True),
    (np.array(0.5, dtype=object), True), (np.float16(0.5), True),
    (Decimal("0.5"), False), (_FloatOnly(), False), (np.timedelta64(1, "s"), False),
    (0.5 + 0j, False), ("0.5", False), (None, False),
    (np.array([0.5, None], dtype=object), False),
], ids=["bool", "fraction", "np-bool", "0-d-object", "float16", "decimal", "float-only",
        "timedelta", "complex", "str", "none", "object-none"])
def test_parameters_take_the_declared_input_classes(value, accepted):
    # Taken: a numbers.Real, a numpy value of kind b, i, u or f, and an object
    # array of such entries, each as its float. Refused with a TypeError that
    # names the parameter: the rest, Decimal and a __float__-only object
    # included, which float() would take.
    entry_points = [
        ("gamma", lambda v: _require_range(v, "gamma")), ("epsilon", lambda v: masfi(0.5, v)),
        ("alpha", lambda v: InformationState(v, 0.0, 0.0)), ("psi", lambda v: UnitaryAngles(psi=v)),
        ("gamma", lambda v: minimax_search(v, 0.5)),
    ]
    for name, entry_point in entry_points:
        if accepted:
            assert entry_point(value) == entry_point(float(value))
        else:
            with pytest.raises(TypeError, match=f"^{name} must be a (real number|scalar), got a"):
                entry_point(value)
    if accepted:
        assert type(_require_range(value, "gamma")) is float


def _count_entry_points(monkeypatch):
    # (name, an accepted value, call): each call hands its value to one
    # integer entry point and returns what that value gave, floats as bits
    rho_in = information_state(InformationState(0.7, 0.3, 0.8))
    rho_c = kron(rho_in, werner_state(WernerResource(0.6)))
    angles = UnitaryAngles(0.0, 1.2, 0.7, 0.4)
    asked = []

    def fake_verification(seed, samples):
        asked.append((seed, samples))
        return [CheckResult("closed-form fidelity vs density-matrix simulation", 1e-10, 0.0)]

    monkeypatch.setattr(cli, "run_verification", fake_verification)

    def report(**counts):
        counts = {"seed": 1, "samples": 3, **counts}
        return [(r.name, r.worst.hex(), r.detail) for r in run_verification(
            **counts, run_quadrature=False, run_minimax=False)]

    def cli_verify(**flags):
        asked.clear()
        cli.cmd_verify(argparse.Namespace(**{"seed": 1, "samples": 3, **flags}))
        return [(value, type(value)) for value in asked.pop()]

    def outcome(r):
        found = bsm_project(rho_c, r)
        return type(found.r), found.r, found.probability.hex(), found.bob_state.tobytes()

    return [
        ("seed", 3, lambda v: report(seed=v)),
        ("samples", 3, lambda v: report(samples=v)),
        ("formula_samples", 3, lambda v: report(formula_samples=v)),
        ("nodes", 8, lambda v: average_fidelity_numeric(0.6, 0.9, angles, v).hex()),
        ("Bell index", 3, outcome),
        ("Bell index", 3, lambda v: conditional_state_formula(rho_in, 0.6, v).tobytes()),
        ("--seed", 3, lambda v: cli_verify(seed=v)),
        ("--samples", 3, lambda v: cli_verify(samples=v)),
    ]


@pytest.mark.parametrize("kind", [np.int64, np.uint8])
def test_counts_take_numpy_integers_as_their_int(monkeypatch, kind):
    # every integer entry point goes through the one rule, which hands on
    # an int: a numpy integer gives exactly what the int gives
    for name, value, entry_point in _count_entry_points(monkeypatch):
        assert entry_point(kind(value)) == entry_point(value), name


@pytest.mark.parametrize("value", [
    True, np.bool_(True), 3.0, np.float64(3.0), "3", None, Fraction(3, 1),
], ids=["bool", "np-bool", "float", "float64", "str", "none", "fraction"])
def test_counts_refuse_every_other_class(monkeypatch, value):
    # a bool is not taken as 1 nor a whole float as its int: TypeError names
    # the parameter, whichever entry point it came in by
    for name, _, entry_point in _count_entry_points(monkeypatch):
        with pytest.raises(TypeError, match=f"^{re.escape(name)} must be an integer, got "):
            entry_point(value)


def test_parameter_dataclasses_keep_the_checked_float():
    # a 0-d array, a bool, an int and a float32 are stored as the Python float
    # the range check returned, so an instance hashes and compares by value
    info = InformationState(np.array(0.5), True, np.float32(0.1))
    assert [type(value) for value in (info.alpha, info.beta, info.gamma)] == [float] * 3
    assert (info.alpha, info.beta, info.gamma) == (0.5, 1.0, float(np.float32(0.1)))
    assert hash(info) == hash(InformationState(0.5, 1.0, float(np.float32(0.1))))
    angles = UnitaryAngles(theta=True, phi=np.int64(1))
    assert type(angles.theta) is float and type(angles.phi) is float
    assert angles == UnitaryAngles(0.0, 1.0, 1.0, 0.0)
    assert type(WernerResource(np.float32(0.25)).epsilon) is float


# Look-alikes of the parameter dataclasses: the same field names, no check.
_Info = collections.namedtuple("_Info", "alpha beta gamma")
_Resource = collections.namedtuple("_Resource", "epsilon")
_Angles = collections.namedtuple("_Angles", "chi theta phi psi")
_INFO, _RESOURCE, _ANGLES = InformationState(0.3, 0.2, 0.5), WernerResource(0.5), UnitaryAngles()


class _SubAngles(UnitaryAngles):
    pass


@pytest.mark.parametrize("call, message", [
    (lambda: run_protocol(_Info(0.3, 0.2, 5.0), _RESOURCE, _ANGLES),
     "info must be of class InformationState, got _Info"),
    (lambda: run_protocol((0.3, 0.2, 0.5), _RESOURCE, _ANGLES),
     "info must be of class InformationState, got tuple"),
    (lambda: run_protocol(_INFO, _Resource(2.0), _ANGLES),
     "resource must be of class WernerResource, got _Resource"),
    (lambda: run_protocol(_INFO, _RESOURCE, _Angles(0.0, 100.0, 0.0, 0.0)),
     "angles must be of class UnitaryAngles, got _Angles"),
    (lambda: run_protocol(_INFO, _RESOURCE, _INFO),
     "angles must be of class UnitaryAngles, got InformationState"),
    (lambda: information_state(_Info(0.3, 0.2, 5.0)),
     "state must be of class InformationState, got _Info"),
    (lambda: werner_state(_Resource(-1.0)),
     "resource must be of class WernerResource, got _Resource"),
    (lambda: werner_state(0.5), "resource must be of class WernerResource, got float"),
    (lambda: min_over_information(0.5, 0.5, _Angles(0.0, 100.0, math.nan, 0.0)),
     "angles must be of class UnitaryAngles, got _Angles"),
    (lambda: min_over_information(0.5, 0.5, _SubAngles()),
     "angles must be of class UnitaryAngles, got _SubAngles"),
    (lambda: average_fidelity_numeric(0.5, 0.5, _Angles(0.0, 100.0, math.nan, 0.0)),
     "angles must be of class UnitaryAngles, got _Angles"),
    (lambda: average_fidelity_numeric(0.5, 0.5, None),
     "angles must be of class UnitaryAngles, got NoneType"),
], ids=["run-info", "run-tuple", "run-resource", "run-angles", "run-swapped", "information-state",
        "werner-state", "werner-float", "min-over-information", "subclass", "average",
        "average-none"])
def test_parameter_records_of_another_class_are_refused(call, message):
    # a record enters only as its own dataclass, whose fields were checked
    # when it was built: a look-alike with the same field names could carry
    # values outside their domains into the unchecked kernels
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


# ---------------------------------------------------- domain table

def _inside_and_past(hi, open_upper):
    # 0 and the largest value of [0, hi] or [0, hi); the nearest values
    # outside it on either side
    if open_upper:
        return (0.0, float(np.nextafter(hi, 0.0))), (-5e-324, hi)
    return (0.0, hi), (-5e-324, float(np.nextafter(hi, math.inf)))


@pytest.mark.parametrize("name", list(_DOMAINS))
def test_every_entry_point_checks_the_parameter_domain(capsys, name):
    hi, open_upper = _DOMAINS[name]
    inside, past = _inside_and_past(hi, open_upper)
    owner = next(cls for cls in (InformationState, WernerResource, UnitaryAngles)
                 if name in {field.name for field in fields(cls)})
    at_zero = {field.name: 0.0 for field in fields(owner)}
    entry_points = [lambda value: owner(**{**at_zero, name: value})]
    closed_form_args = dict.fromkeys(inspect.signature(fidelity_closed_form).parameters, 0.0)
    if name in closed_form_args:
        entry_points.append(lambda value: fidelity_closed_form(**{**closed_form_args,
                                                                  name: value}))
    for entry_point in entry_points:
        for value in inside:
            entry_point(value)
        for value in past:
            with pytest.raises(ValueError, match=f"^{name} must lie in"):
                entry_point(value)

    # the command line takes every parameter but gamma and epsilon in units of pi
    unit = 1.0 if name in ("gamma", "epsilon") else math.pi
    flag_inside, flag_past = _inside_and_past(hi / unit, open_upper)
    assert [cli.main(["run", f"--{name}={value!r}"]) for value in flag_inside] == [0, 0]
    assert [cli.main(["run", f"--{name}={value!r}"]) for value in flag_past] == [2, 2]
    assert capsys.readouterr().err.count(f"error: --{name} must lie in") == 2

    column = _draw_tuples(np.random.default_rng(7), 1000)[:, list(_DOMAINS).index(name)]
    assert 0.0 <= column.min() and 0.99 * hi < column.max() < hi


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
