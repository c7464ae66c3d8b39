import math
import tracemalloc

import numpy as np
import pytest

from werner_teleport import density, protocol, states, verify
from werner_teleport.analytics import fidelity_closed_form, masfi
from werner_teleport.verify import (
    CheckResult,
    run_verification,
    worst_closed_form_deviation,
)

from helpers import draw_tuples_reference

ORACLE = "closed-form fidelity vs density-matrix simulation"


FAST_CHECKS_SEED_42 = """\
[PASS] closed-form fidelity vs density-matrix simulation: worst deviation 6.661e-16 (tolerance 1e-10)
[PASS] outcome probabilities are 1/4 and sum to 1: worst deviation 5.551e-16 (tolerance 1e-12)
[PASS] projected conditional states vs ladder-basis formula: worst deviation 4.441e-16 (tolerance 1e-12)
[PASS] sigma_r conjugation relation between branches: worst deviation 0.000e+00 (tolerance 1e-12)
[PASS] ordering chain masfi <= f_av_max <= f_max with 1/2 floor: worst deviation 1.110e-16 (tolerance 1e-12)"""


def test_fast_check_lines_of_the_end_to_end_command():
    # the five fast checks of `werner-teleport verify --seed 42 --samples 10000`
    results = run_verification(42, 10000, run_quadrature=False, run_minimax=False)
    assert "\n".join(result.line() for result in results) == FAST_CHECKS_SEED_42


# (name, tolerance) of the seven checks, in report order
CHECKS = [
    ("closed-form fidelity vs density-matrix simulation", 1e-10),
    ("outcome probabilities are 1/4 and sum to 1", 1e-12),
    ("projected conditional states vs ladder-basis formula", 1e-12),
    ("sigma_r conjugation relation between branches", 1e-12),
    ("ordering chain masfi <= f_av_max <= f_max with 1/2 floor", 1e-12),
    ("sphere-average quadrature vs closed form", 1e-8),
    ("nested min-max search vs assured-fidelity formula", 1e-6),
]


@pytest.mark.parametrize("run_quadrature, run_minimax", [
    (True, True), (True, False), (False, True), (False, False),
], ids=["both", "quadrature", "minimax", "neither"])
def test_all_checks_pass_on_small_sample(run_quadrature, run_minimax):
    results = run_verification(seed=7, samples=40, run_quadrature=run_quadrature,
                               run_minimax=run_minimax)
    expected = CHECKS[:5] + CHECKS[5:6] * run_quadrature + CHECKS[6:] * run_minimax
    assert [(r.name, r.tolerance) for r in results] == expected
    for result in results:
        assert result.passed, result.line()


def test_results_are_reproducible():
    first = run_verification(seed=11, samples=25, run_quadrature=False,
                             run_minimax=False)
    second = run_verification(seed=11, samples=25, run_quadrature=False,
                              run_minimax=False)
    assert [(r.name, r.worst) for r in first] == [(r.name, r.worst) for r in second]


def test_corrupted_closed_form_is_caught():
    # negative control: a 1e-3 bias in the closed form must trip exactly
    # the simulation-vs-closed-form check, with the offending tuple named
    def biased(alpha, beta, gamma, epsilon, theta, phi, psi):
        from werner_teleport.analytics import fidelity_closed_form
        return fidelity_closed_form(alpha, beta, gamma, epsilon, theta, phi, psi) + 1e-3

    results = run_verification(seed=3, samples=20, closed_form=biased,
                               run_quadrature=False, run_minimax=False)
    by_name = {r.name: r for r in results}
    oracle = by_name["closed-form fidelity vs density-matrix simulation"]
    assert not oracle.passed
    assert "alpha=" in oracle.detail
    assert "FAIL" in oracle.line()
    others = [r for r in results if r is not oracle]
    assert all(r.passed for r in others)


def test_worst_deviation_extraction():
    results = run_verification(seed=5, samples=10, run_quadrature=False,
                               run_minimax=False)
    assert worst_closed_form_deviation(results) < 1e-10
    with pytest.raises(ValueError):
        worst_closed_form_deviation([])


def test_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        run_verification(seed=1, samples=0)


@pytest.mark.parametrize("samples", [True, 2.5, 3.0, "3", np.float64(3.0)])
def test_rejects_non_integer_samples(samples):
    # refused before the draw, as protocol refuses a bool or float Bell index
    with pytest.raises(ValueError, match="samples must be an integer"):
        run_verification(seed=1, samples=samples, run_quadrature=False, run_minimax=False)


@pytest.mark.parametrize("formula_samples", [10.5, "5", True, np.float64(5.0)])
def test_rejects_non_integer_formula_samples(formula_samples):
    # refused by name before the draw, as samples is; a bool is not taken as 1
    with pytest.raises(ValueError, match="^formula_samples must be an integer"):
        run_verification(seed=1, samples=3, formula_samples=formula_samples,
                         run_quadrature=False, run_minimax=False)


def test_rejects_negative_formula_samples():
    # not silently taken as 0
    with pytest.raises(ValueError, match="^formula_samples must be >= 0, got -3$"):
        run_verification(seed=1, samples=3, formula_samples=-3,
                         run_quadrature=False, run_minimax=False)


@pytest.mark.parametrize("formula_samples", [0, np.int64(2)])
def test_takes_zero_and_numpy_integer_formula_samples(formula_samples):
    results = run_verification(seed=1, samples=3, formula_samples=formula_samples,
                               run_quadrature=False, run_minimax=False)
    assert all(result.passed for result in results)


@pytest.mark.parametrize("seed, message", [
    (None, "an integer, got None"), (True, "an integer, got True"),
    ([1, 2], r"an integer, got \[1, 2\]"), (0.5, "an integer, got 0.5"), (-1, ">= 0, got -1"),
], ids=["none", "bool", "list", "float", "negative"])
def test_rejects_seed_outside_the_integers_from_zero(seed, message):
    # None would draw from fresh OS entropy, and a bool or a list would seed
    # a report the caller did not ask for; numpy's own error names no parameter
    with pytest.raises(ValueError, match=f"^seed must be {message}$"):
        run_verification(seed=seed, samples=3, run_quadrature=False, run_minimax=False)


def test_numpy_integer_seed_gives_the_int_seed_report():
    def report(seed):
        return [(r.name, r.worst.hex(), r.detail)
                for r in run_verification(seed=seed, samples=3, run_quadrature=False,
                                          run_minimax=False)]

    assert report(np.int64(3)) == report(3)


def test_takes_numpy_integer_samples():
    results = run_verification(seed=1, samples=np.int64(3), run_quadrature=False,
                               run_minimax=False)
    assert all(result.passed for result in results)


def test_check_result_line_format():
    good = CheckResult(name="demo", tolerance=1e-6, worst=1e-9)
    assert good.passed
    assert good.line().startswith("[PASS] demo")
    bad = CheckResult(name="demo", tolerance=1e-6, worst=1e-3, detail="(x=1): a=2 b=3")
    assert not bad.passed
    assert "first failure at (x=1)" in bad.line()


def test_nan_deviation_fails_and_names_its_tuple():
    results = run_verification(3, 20, closed_form=lambda *a: float("nan"),
                               run_quadrature=False, run_minimax=False)
    by_name = {r.name: r for r in results}
    oracle = by_name[ORACLE]
    assert not oracle.passed
    assert math.isnan(oracle.worst)
    assert oracle.detail.startswith("(alpha=")
    assert oracle.detail.endswith("closed=nan")
    assert "FAIL" in oracle.line()
    assert all(r.passed for r in results if r is not oracle)


def test_nan_stays_worst_and_first_failure_is_in_order():
    tracker = verify._Worst("demo", 1.0)
    tracker.update_all(np.array([0.5]), lambda k: "first")
    assert (tracker.worst, tracker.first_fail) == (0.5, "")
    tracker.update_all(np.array([[0.2, math.nan], [3.0, 0.1]]), lambda k: f"entry {k}")
    tracker.update_all(np.array([2.0]), lambda k: "later")
    assert math.isnan(tracker.worst)
    assert tracker.first_fail == "entry 1"
    single = verify._Worst("demo", 1.0)
    single.update_all(np.array([math.inf]), lambda k: f"inf at {k}")
    assert single.worst == math.inf and single.first_fail == "inf at 0"


ORDERING = "ordering chain masfi <= f_av_max <= f_max with 1/2 floor"


@pytest.mark.parametrize("biased, worst, detail", [
    (lambda g, e: masfi(g, e) + 1e-3, 0.0010000000000000009,
     "(gamma=0, epsilon=0): masfi=0.501 f_av_max=0.5 f_max=0.5"),
    (lambda g, e: np.where((g > 0.5) & (e > 0.25), math.nan, masfi(g, e)), math.nan,
     "(gamma=0.6, epsilon=0.3): masfi=nan f_av_max=0.5860000000000001 f_max=0.65"),
], ids=["bias", "nan"])
def test_ordering_failure_detail_text(monkeypatch, biased, worst, detail):
    # the texts a scalar loop over the 11x11 grid printed: Python floats in
    # grid order, never numpy reprs
    monkeypatch.setattr(verify, "masfi", biased)
    results = run_verification(3, 5, run_quadrature=False, run_minimax=False)
    ordering = {r.name: r for r in results}[ORDERING]
    assert ordering.worst == worst or (math.isnan(worst) and math.isnan(ordering.worst))
    assert ordering.detail == detail
    assert ordering.line().endswith(f"first failure at {detail}")
    assert [r.name for r in results if not r.passed] == [ORDERING]


def test_closed_forms_are_called_once_per_chunk_or_grid(monkeypatch):
    calls = []

    def counting(name):
        fn = getattr(verify, name)

        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    for name in ("fidelity_closed_form", "_conditional_states", "masfi",
                 "f_av_max", "f_max"):
        monkeypatch.setattr(verify, name, counting(name))
    monkeypatch.setattr(verify, "_CHUNK", 10)
    results = run_verification(5, 25, formula_samples=15, run_minimax=False)
    assert all(r.passed for r in results)
    # 3 chunks, 2 of them with conditional-state checks (all four Bell
    # indices in one call), the ordering chain, and the quadrature check's f_av_max
    assert sorted(calls) == sorted(["fidelity_closed_form"] * 3
                                   + ["_conditional_states"] * 2
                                   + ["masfi", "f_av_max", "f_max", "f_av_max"])


def _late_bias(alpha, beta, gamma, epsilon, theta, phi, psi):
    # fails only on tuples with alpha > 3, so the first failure is deep in the run
    bias = np.where(alpha > 3.0, 1e-3, 0.0)
    return fidelity_closed_form(alpha, beta, gamma, epsilon, theta, phi, psi) + bias


@pytest.mark.parametrize("closed_form", [None, _late_bias])
def test_reports_do_not_depend_on_chunk_size(monkeypatch, closed_form):
    samples = verify._CHUNK + 45
    runs = []
    for chunk in (1, 7, verify._CHUNK):
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        results = run_verification(13, samples, closed_form=closed_form,
                                   formula_samples=samples - 30,
                                   run_quadrature=False, run_minimax=False)
        runs.append([(r.name, r.worst, r.detail) for r in results])
    assert runs[0] == runs[1] == runs[2]
    if closed_form is not None:
        assert "alpha=3." in dict((name, detail) for name, _, detail in runs[0])[ORACLE]


def test_tuple_checks_validate_nothing(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    for module in (density, states, protocol, verify):
        if hasattr(module, "validate_density"):
            monkeypatch.setattr(module, "validate_density",
                                counting("validate_density", module.validate_density))
    results = run_verification(5, 60, formula_samples=60, run_quadrature=False,
                               run_minimax=False)
    assert all(r.passed for r in results)
    assert calls == []


def _peak_bytes(samples):
    tracemalloc.start()
    try:
        run_verification(1, samples, run_quadrature=False, run_minimax=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_grows_only_by_the_seeded_draw():
    # the up-front draw is 8 float64 per sample; the kernel works in chunks
    small, large = 2000, 20000
    growth = _peak_bytes(large) - _peak_bytes(small)
    assert growth <= 2 * 64 * (large - small)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 10**5])
@pytest.mark.parametrize("seed", [0, 7, 42, 2026])
def test_draw_equals_the_column_by_column_uniform_draw(seed, n):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tuples = verify._draw_tuples(rng, n)
    expected = draw_tuples_reference(reference_rng, n)
    assert tuples.shape == expected.shape == (n, 8)
    assert tuples.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    # each parameter of a chunk, as the loop hands it to the kernel, is one
    # contiguous run
    for start in range(0, n, verify._CHUNK):
        assert all(column.flags.c_contiguous
                   for column in tuples[start:start + verify._CHUNK].T)


def test_draw_is_its_own_only_allocation():
    # 64 B per sample and no per-column temporary: below the chunk loop's
    # working set, so the peak of a whole run could not show one
    n = 10**5
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        verify._draw_tuples(rng, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * n + 4096


def test_kernel_failure_details_name_the_first_tuple_then_branch(monkeypatch):
    # Bob's state (tuple 5, branch 2) and (tuple 7, branch 1), and P_3 of
    # tuple 9, each pushed 1e-3 off in the projection's (4, 2, 2, N) output:
    # the first failure of each check is the lowest tuple, then the lowest
    # branch of it, whatever order the kernel keeps its axes in
    project = protocol._project_bell

    def biased(rho_c, r=None):
        p, bob = project(rho_c, r)
        bob[2, 0, 0, 5] += 1e-3
        bob[1, 0, 0, 7] += 1e-3
        p[3, 9] += 1e-3
        return p, bob

    monkeypatch.setattr(protocol, "_project_bell", biased)
    results = run_verification(3, 20, run_quadrature=False, run_minimax=False)
    tuple_5 = ("(alpha=1.36071, beta=3.67669, gamma=0.758705, epsilon=0.205775, chi=4.4494, "
               "theta=1.65798, phi=0.797195, psi=0.766223): ")
    oracle, probs, formula, conj = results[:4]
    # the fidelity's last digits move with numpy's SIMD loops, its place does not
    assert oracle.detail.startswith(tuple_5 + "simulated=0.50372558458346")
    assert [(r.worst, r.detail) for r in (probs, formula, conj)] == [
        (0.0010000000000000009,
         "(alpha=0.357111, beta=4.44199, gamma=0.393927, epsilon=0.623693, chi=0.325988, "
         "theta=1.19529, phi=1.79558, psi=0.707223): P=0.25, 0.25, 0.25, 0.251"),
        (0.0009999999999999454, tuple_5 + "conditional state r=2"),
        (0.0010000000000000009, tuple_5 + "conjugation relation r=2"),
    ]
    assert all(r.passed for r in results[4:])
