"""Cross-validation suite: every closed form against its numeric route.

Each check draws seeded pseudo-random parameter tuples (or walks a fixed
grid), measures the worst deviation between two independently computed
quantities, and reports it against the tolerance that pair is expected to
meet. The checks are pure functions of the seed, so a report is exactly
reproducible. A deviation that is not finite fails its check.

The simulation checks run the batched protocol kernel of
:mod:`werner_teleport.protocol` on fixed-size chunks of ``_CHUNK`` tuples;
the closed form stays a scalar callable, called once per tuple, and the
simulation never calls it. Memory is the seeded draw, 64 B per sample
(eight float64 parameters), plus a working set fixed by the chunk size,
whatever ``samples`` is. The draws stay up front because ``_draw_tuples``
draws column by column: drawing chunk by chunk would change every tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analytics import (
    average_fidelity_numeric,
    f_av_max,
    f_max,
    fidelity_closed_form,
    masfi,
    minimax_search,
)
from .protocol import (
    UnitaryAngles,
    _mean_fidelity,
    _simulate,
    conditional_state_formula,
    correction_branch_operators,
)
from .states import BELL_INDICES

__all__ = ["CheckResult", "run_verification", "worst_closed_form_deviation"]


@dataclass(frozen=True)
class CheckResult:
    """One named cross-check with its worst observed deviation."""

    name: str
    tolerance: float
    worst: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: worst deviation {self.worst:.3e} (tolerance {self.tolerance:.0e})"
        if not self.passed and self.detail:
            text += f"\n       first failure at {self.detail}"
        return text


# Tuples per kernel call. The kernel's peak working set is about 2.4 kB per
# tuple (tracemalloc, 1000 tuples), so about 0.6 MB per call.
_CHUNK = 256


class _Worst:
    # Tracks the largest deviation and the first entry past tolerance. A NaN
    # deviation is past every tolerance and sticks as the worst value.
    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.worst = 0.0
        self.first_fail = ""

    def update(self, deviation: float, describe: Callable[[], str]):
        if deviation > self.worst or math.isnan(deviation):
            self.worst = deviation
        if not deviation <= self.tolerance and not self.first_fail:
            self.first_fail = describe()

    def update_all(self, deviations: np.ndarray, describe: Callable[[int], str]):
        # Array form of update; ``describe`` names the entry at a flat
        # (row-major) index, and is asked for the first failing entry.
        deviations = deviations.ravel()
        failing = np.flatnonzero(~(deviations <= self.tolerance))
        self.update(float(deviations.max()), lambda: describe(int(failing[0])))

    def result(self, name: str) -> CheckResult:
        return CheckResult(name=name, tolerance=self.tolerance,
                           worst=self.worst, detail=self.first_fail)


def _draw_tuples(rng: np.random.Generator, n: int) -> np.ndarray:
    cols = np.empty((n, 8))
    cols[:, 0] = rng.uniform(0.0, math.pi, n)          # alpha
    cols[:, 1] = rng.uniform(0.0, 2.0 * math.pi, n)    # beta
    cols[:, 2] = rng.uniform(0.0, 1.0, n)              # gamma
    cols[:, 3] = rng.uniform(0.0, 1.0, n)              # epsilon
    cols[:, 4] = rng.uniform(0.0, 2.0 * math.pi, n)    # chi
    cols[:, 5] = rng.uniform(0.0, math.pi, n)          # theta
    cols[:, 6] = rng.uniform(0.0, math.pi, n)          # phi
    cols[:, 7] = rng.uniform(0.0, math.pi, n)          # psi
    return cols


def run_verification(seed: int, samples: int, *,
                     closed_form: Callable[..., float] | None = None,
                     formula_samples: int = 1000,
                     grid_points: int = 5,
                     run_quadrature: bool = True,
                     run_minimax: bool = True) -> list[CheckResult]:
    """Run every cross-check and return one result per check.

    ``closed_form`` substitutes the analytic fidelity being checked against
    the simulation; supplying a corrupted function is how the suite's own
    sensitivity is tested. ``formula_samples`` caps the tuples used for the
    entrywise conditional-state comparisons. The quadrature and minimax
    checks walk a ``grid_points`` x ``grid_points`` mesh over (gamma,
    epsilon) and can be skipped when only the fast checks are wanted.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    closed = closed_form if closed_form is not None else fidelity_closed_form
    rng = np.random.default_rng(seed)
    tuples = _draw_tuples(rng, samples)

    sigma_r = np.stack(correction_branch_operators()[1:])
    oracle = _Worst(1e-10)
    probs = _Worst(1e-12)
    formula = _Worst(1e-12)
    conj = _Worst(1e-12)

    for start in range(0, samples, _CHUNK):
        chunk = tuples[start:start + _CHUNK]

        def where(i: int, values: str = "") -> str:
            alpha, beta, gamma, epsilon, chi, theta, phi, psi = chunk[i]
            spot = (f"(alpha={alpha:.6g}, beta={beta:.6g}, gamma={gamma:.6g}, "
                    f"epsilon={epsilon:.6g}, chi={chi:.6g}, theta={theta:.6g}, "
                    f"phi={phi:.6g}, psi={psi:.6g})")
            return spot + (f": {values}" if values else "")

        rho_in, probabilities, bob, fidelities = _simulate(*chunk.T)
        simulated = _mean_fidelity(probabilities, fidelities)
        f_closed = [closed(alpha, beta, gamma, epsilon, theta, phi, psi)
                    for alpha, beta, gamma, epsilon, _, theta, phi, psi in chunk]
        oracle.update_all(
            np.abs(simulated - np.array(f_closed, dtype=float)),
            lambda i: where(i, f"simulated={float(simulated[i])!r} closed={f_closed[i]!r}"))

        probs.update_all(
            np.maximum(np.abs(probabilities - 0.25).max(axis=1),
                       np.abs(probabilities.sum(axis=1) - 1.0)),
            lambda i: where(i, "P=" + ", ".join(repr(float(p)) for p in probabilities[i])))

        checked = max(0, min(len(chunk), formula_samples - start))
        if checked:
            epsilon = chunk[:, 3]
            expected = np.array([[conditional_state_formula(rho_in[i], epsilon[i], r)
                                  for r in BELL_INDICES] for i in range(checked)])
            formula.update_all(
                np.abs(bob[:checked] - expected).max(axis=(-2, -1)),
                lambda k: where(k // 4, f"conditional state r={k % 4}"))
            rotated = sigma_r @ bob[:checked, :1] @ sigma_r.conj().swapaxes(-1, -2)
            conj.update_all(
                np.abs(bob[:checked, 1:] - rotated).max(axis=(-2, -1)),
                lambda k: where(k // 3, f"conjugation relation r={k % 3 + 1}"))

    results = [
        oracle.result("closed-form fidelity vs density-matrix simulation"),
        probs.result("outcome probabilities are 1/4 and sum to 1"),
        formula.result("projected conditional states vs ladder-basis formula"),
        conj.result("sigma_r conjugation relation between branches"),
        _ordering_check(grid_points),
    ]
    if run_quadrature:
        results.append(_quadrature_check(grid_points))
    if run_minimax:
        results.append(_minimax_check(grid_points))
    return results


def _grid(points: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, points)


def _ordering_check(points: int) -> CheckResult:
    # masfi <= f_av_max <= f_max with both lower quantities >= 1/2; the
    # "deviation" is how far any inequality is violated. At gamma = 1 the
    # chain holds with equality, so round-off clearance is needed.
    tracker = _Worst(1e-12)
    for gamma in _grid(max(points, 11)):
        for epsilon in _grid(max(points, 11)):
            lo = masfi(gamma, epsilon)
            mid = f_av_max(gamma, epsilon)
            hi = f_max(epsilon)
            violation = max(lo - mid, mid - hi, 0.5 - lo, 0.5 - mid, 0.0)
            tracker.update(violation, lambda: (
                f"(gamma={gamma:.6g}, epsilon={epsilon:.6g}): "
                f"masfi={lo!r} f_av_max={mid!r} f_max={hi!r}"))
    return tracker.result("ordering chain masfi <= f_av_max <= f_max with 1/2 floor")


def _quadrature_check(points: int) -> CheckResult:
    tracker = _Worst(1e-8)
    angles = UnitaryAngles()
    for gamma in _grid(points):
        for epsilon in _grid(points):
            numeric = average_fidelity_numeric(gamma, epsilon, angles, nodes=64)
            analytic = f_av_max(gamma, epsilon)
            tracker.update(abs(numeric - analytic), lambda: (
                f"(gamma={gamma:.6g}, epsilon={epsilon:.6g}): "
                f"quadrature={numeric!r} closed={analytic!r}"))
    return tracker.result("sphere-average quadrature vs closed form")


def _minimax_check(points: int) -> CheckResult:
    tracker = _Worst(1e-6)
    for gamma in _grid(points):
        for epsilon in _grid(points):
            searched = minimax_search(gamma, epsilon).value
            analytic = masfi(gamma, epsilon)
            tracker.update(abs(searched - analytic), lambda: (
                f"(gamma={gamma:.6g}, epsilon={epsilon:.6g}): "
                f"search={searched!r} closed={analytic!r}"))
    return tracker.result("nested min-max search vs assured-fidelity formula")


def worst_closed_form_deviation(results: Sequence[CheckResult]) -> float:
    """The reported max |F_simulated - F_closed_form| from a result list."""
    for result in results:
        if result.name.startswith("closed-form"):
            return result.worst
    raise ValueError("closed-form check missing from results")
