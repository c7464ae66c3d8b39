"""Cross-validation suite: every closed form against its numeric route.

Each check draws seeded pseudo-random parameter tuples (or walks a fixed
grid), measures the worst deviation between two independently computed
quantities, and reports it against the tolerance that pair is expected to
meet. The checks are pure functions of the seed, so a report is exactly
reproducible. A deviation that is not finite fails its check.

The simulation checks run the batched protocol kernel of
:mod:`werner_teleport.protocol` on fixed-size chunks of ``_CHUNK`` tuples.
The closed forms broadcast over numpy arrays, so each is called once per
chunk on the chunk's columns (the fidelity, by default its unchecked core,
and all four conditional states in one call), once per (gamma, epsilon)
grid in the grid checks, and once per set of closed forms in the ordering
chain; the simulation never calls them. The tuple checks make no BLAS
call: the sigma_r conjugation between branches uses the kernel's exact
signed gather. Memory is the seeded draw, 64 B per sample (eight float64
parameters, scaled in place), plus a working set fixed by the chunk size,
whatever ``samples`` is: 0.62 MB, since each chunk's arrays are released
before the next chunk's kernel call. ``_draw_tuples``
draws up front in one call, with the stream and bits of one
``uniform(0, hi, samples)`` call per parameter, and keeps each parameter's
column contiguous; each entry ``hi * u`` (``u`` at most ``1 - 2**-53``) lies
inside its domain. One ``PCG64`` per column, copied from
``default_rng(seed)``'s state, advanced by ``i * samples`` and drawn in
``_CHUNK``-sized pieces, would give the same tuples bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .analytics import (
    _fidelity_core,
    average_fidelity_numeric,
    f_av_max,
    f_max,
    masfi,
    minimax_search,
)
from .protocol import (
    UnitaryAngles,
    _PERM,
    _SIGN,
    _conditional_states,
    _mean_fidelity,
    _simulate,
)
from .states import _DOMAINS, _require_count

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


# Tuples per kernel call. Beyond the draw, tracemalloc reads a peak of 0.62 MB
# at any sample count (256, 2,000, 20,000 or 10^5): one chunk's arrays at most.
_CHUNK = 256

# Each parameter's upper bound, in the domain table's order, as a column.
_UPPER = np.array([[hi] for hi, _ in _DOMAINS.values()])
_UPPER.setflags(write=False)

# Points per axis of the (gamma, epsilon) mesh of the quadrature and minimax
# checks.
_GRID_POINTS = 5


class _Worst:
    # One named check: tracks the largest deviation and the first entry past
    # the check's tolerance. A NaN deviation is past every tolerance and
    # sticks as the worst value.
    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.worst = 0.0
        self.first_fail = ""

    def update_all(self, deviations: np.ndarray, describe: Callable[[int], str]):
        # ``describe`` names the entry at a flat (row-major) index, and is
        # asked for the first failing entry.
        deviations = deviations.ravel()
        worst = float(deviations.max())
        if worst > self.worst or math.isnan(worst):
            self.worst = worst
        if not worst <= self.tolerance and not self.first_fail:  # a NaN fails too
            failing = np.flatnonzero(~(deviations <= self.tolerance))
            self.first_fail = describe(int(failing[0]))

    def result(self) -> CheckResult:
        return CheckResult(name=self.name, tolerance=self.tolerance,
                           worst=self.worst, detail=self.first_fail)


def _at(names: Iterable[str], values: Iterable[float]) -> str:
    # "(n1=v1, n2=v2, ...): ", the failure detail's place, to 6 digits
    return "(" + ", ".join(f"{n}={v:.6g}" for n, v in zip(names, values)) + "): "


def _draw_tuples(rng: np.random.Generator, n: int) -> np.ndarray:
    # (n, 8), a column per parameter in the domain table's order, each uniform on
    # [0, hi) with the bits of uniform(0, hi) = 0.0 + hi * next_double per column
    draw = rng.random((len(_DOMAINS), n))
    draw *= _UPPER
    return draw.T


def run_verification(seed: int, samples: int, *,
                     closed_form: Callable[..., float | np.ndarray] | None = None,
                     formula_samples: int = 1000,
                     run_quadrature: bool = True,
                     run_minimax: bool = True) -> list[CheckResult]:
    """Run every cross-check and return one result per check.

    ``closed_form`` substitutes the analytic fidelity being checked against
    the simulation; supplying a corrupted function is how the suite's own
    sensitivity is tested. It is called once per chunk with the chunk's
    seven columns (alpha, beta, gamma, epsilon, theta, phi, psi) as arrays,
    so it must broadcast like :func:`fidelity_closed_form`, whose unchecked
    core is the default; a scalar result stands for every tuple of the chunk,
    and another shape raises ValueError naming ``closed_form``. The ordering
    chain is computed once per set of closed forms. ``formula_samples`` caps
    the tuples used for the entrywise conditional-state comparisons. The
    quadrature and minimax checks can be skipped when only the fast checks
    are wanted. ``samples`` is an integer >= 1, ``seed`` and ``formula_samples``
    ones >= 0, each by the one integer rule ``states._require_count`` (numpy
    integers too, never a bool or a float). A value of another class raises
    TypeError, an integer below its bound ValueError; each names the parameter.
    """
    seed = _require_count(seed, "seed", 0)
    samples = _require_count(samples, "samples", 1)
    formula_samples = _require_count(formula_samples, "formula_samples", 0)
    closed = closed_form if closed_form is not None else _fidelity_core
    rng = np.random.default_rng(seed)
    tuples = _draw_tuples(rng, samples)

    checks = oracle, probs, formula, conj = (
        _Worst("closed-form fidelity vs density-matrix simulation", 1e-10),
        _Worst("outcome probabilities are 1/4 and sum to 1", 1e-12),
        _Worst("projected conditional states vs ladder-basis formula", 1e-12),
        _Worst("sigma_r conjugation relation between branches", 1e-12),
    )

    for start in range(0, samples, _CHUNK):
        chunk = tuples[start:start + _CHUNK]
        alpha, beta, gamma, epsilon, _, theta, phi, psi = chunk.T
        rho_in, probabilities, bob, fidelities = _simulate(*chunk.T)
        simulated = _mean_fidelity(probabilities, fidelities)
        f_closed = np.asarray(closed(alpha, beta, gamma, epsilon, theta, phi, psi),
                              dtype=float)
        if f_closed.shape != simulated.shape:
            try:
                f_closed = np.broadcast_to(f_closed, simulated.shape)
            except ValueError:
                raise ValueError(f"closed_form returned shape {f_closed.shape}, which does "
                                 f"not broadcast to the chunk's {simulated.shape}") from None
        oracle.update_all(np.abs(simulated - f_closed), lambda i: (
            _at(_DOMAINS, chunk[i])
            + f"simulated={float(simulated[i])!r} closed={float(f_closed[i])!r}"))

        probs.update_all(
            np.maximum(np.abs(probabilities - 0.25).max(axis=0),
                       np.abs(probabilities.sum(axis=0) - 1.0)),
            lambda i: _at(_DOMAINS, chunk[i])
            + "P=" + ", ".join(repr(float(p)) for p in probabilities[:, i]))

        # (tuple, branch) deviations: the first failure is the lowest tuple, then branch
        checked = max(0, min(len(chunk), formula_samples - start))
        if checked:
            bob_checked = bob[..., :checked]
            expected = _conditional_states(rho_in[..., :checked].transpose(2, 0, 1),
                                           epsilon[:checked]).transpose(1, 2, 3, 0)
            formula.update_all(
                np.abs(bob_checked - expected).reshape(4, 4, checked).max(axis=1).T,
                lambda k: _at(_DOMAINS, chunk[k // 4]) + f"conditional state r={k % 4}")
            # sigma_r real, (anti)symmetric: sigma_r X sigma_r^+ = sigma_r^T X sigma_r, gathered
            rotated = np.take(bob_checked[0].reshape(4, checked), _PERM[1:].swapaxes(1, 2),
                              axis=0) * _SIGN[1:, ..., None]
            conj.update_all(
                np.abs(bob_checked[1:] - rotated).reshape(3, 4, checked).max(axis=1).T,
                lambda k: _at(_DOMAINS, chunk[k // 3]) + f"conjugation relation r={k % 3 + 1}")
            del bob_checked, expected, rotated
        # released before the next chunk's kernel call: one chunk's arrays at a time
        del rho_in, probabilities, bob, fidelities, simulated, f_closed

    results = [check.result() for check in checks] + [_ordering_check(masfi, f_av_max, f_max)]
    if run_quadrature:
        angles = UnitaryAngles()
        results.append(_grid_check(
            "sphere-average quadrature vs closed form", 1e-8, "quadrature",
            lambda g, e: average_fidelity_numeric(g, e, angles, nodes=64), f_av_max))
    if run_minimax:
        results.append(_grid_check(
            "nested min-max search vs assured-fidelity formula", 1e-6, "search",
            lambda g, e: minimax_search(g, e).value, masfi))
    return results


def _mesh(points: int) -> tuple[np.ndarray, np.ndarray]:
    # the points x points (gamma, epsilon) grid on [0, 1]^2, gamma outer,
    # as two read-only arrays
    axis = np.linspace(0.0, 1.0, points)
    grid = np.meshgrid(axis, axis, indexing="ij")
    for coordinate in grid:
        coordinate.setflags(write=False)
    return grid


# The mesh of the grid checks, built once.
_GRID_MESH = _mesh(_GRID_POINTS)


def _grid_check(name: str, tolerance: float, label: str,
                numeric: Callable[[float, float], float],
                closed: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> CheckResult:
    # A numeric route, one call per point of the _GRID_POINTS mesh, against
    # one array call of its closed form on the whole mesh.
    gamma, epsilon = _GRID_MESH
    found = np.array([numeric(g, e) for g, e in zip(gamma.flat, epsilon.flat)])
    analytic = closed(gamma, epsilon).ravel()
    tracker = _Worst(name, tolerance)
    tracker.update_all(np.abs(found - analytic), lambda k: (
        _at(("gamma", "epsilon"), (gamma.flat[k], epsilon.flat[k]))
        + f"{label}={float(found[k])!r} closed={float(analytic[k])!r}"))
    return tracker.result()


@functools.lru_cache(maxsize=1)
def _ordering_check(masfi, f_av_max, f_max) -> CheckResult:
    # masfi <= f_av_max <= f_max with both lower quantities >= 1/2, by how far
    # any inequality is violated (at gamma = 1 it holds with equality, so
    # round-off clearance is needed). A closed form is a pure function of its
    # arguments, so the frozen result stands until one of the three is rebound.
    gamma, epsilon = _mesh(11)
    lo, mid, hi = masfi(gamma, epsilon), f_av_max(gamma, epsilon), f_max(epsilon)
    violation = np.maximum(np.maximum(np.maximum(np.maximum(
        lo - mid, mid - hi), 0.5 - lo), 0.5 - mid), 0.0)
    tracker = _Worst("ordering chain masfi <= f_av_max <= f_max with 1/2 floor", 1e-12)
    tracker.update_all(violation, lambda k: (
        _at(("gamma", "epsilon"), (gamma.flat[k], epsilon.flat[k]))
        + f"masfi={float(lo.flat[k])!r} f_av_max={float(mid.flat[k])!r} "
        f"f_max={float(hi.flat[k])!r}"))
    return tracker.result()


def worst_closed_form_deviation(results: Sequence[CheckResult]) -> float:
    """The reported max |F_simulated - F_closed_form| from a result list."""
    for result in results:
        if result.name.startswith("closed-form"):
            return result.worst
    raise ValueError("closed-form check missing from results")
