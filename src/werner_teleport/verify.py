"""Cross-validation suite: every closed form against its numeric route.

Each check draws seeded pseudo-random parameter tuples (or walks a fixed
grid), measures the worst deviation between two independently computed
quantities, and reports it against the tolerance that pair is expected to
meet. The checks are pure functions of the seed, so a report is exactly
reproducible. A deviation that is not finite fails its check.

The simulation checks run the batched protocol kernel of
:mod:`werner_teleport.protocol` on fixed-size chunks of ``_CHUNK`` tuples.
The closed forms broadcast over numpy arrays, so each is called once per
chunk on the chunk's columns (the fidelity, and all four conditional states
in one call), and once per (gamma, epsilon) grid in the grid checks;
the simulation never calls them. Memory is the seeded draw, 64 B per sample
(eight float64 parameters, scaled in place), plus a working set fixed by the
chunk size, about 2.4 kB per tuple of a chunk (0.62 MB), whatever
``samples`` is. ``_draw_tuples`` draws up front in one call, with the stream
and bits of one ``uniform(0, hi, samples)`` call per parameter, and keeps
each parameter's column contiguous. One ``PCG64`` per column, copied from
``default_rng(seed)``'s state, advanced by ``i * samples`` and drawn in
``_CHUNK``-sized pieces, would give the same tuples bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
    _conditional_states,
    _mean_fidelity,
    _simulate,
    correction_branch_operators,
)
from .states import _DOMAINS

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
# tuple (tracemalloc, one 256-tuple call), so about 0.62 MB per call.
_CHUNK = 256

# vec(sigma_r X sigma_r^+) = kron(sigma_r, conj(sigma_r)) vec(X) with
# row-major vec, so this (12, 4) matrix times the columns vec(X) of a
# tuple-last (4, N) stack gives the r = 1..3 rotations stacked as (12, N).
_CONJUGATION = np.concatenate(
    [np.kron(s, s.conj()) for s in correction_branch_operators()[1:]])
_CONJUGATION.setflags(write=False)

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
    so it must broadcast like :func:`fidelity_closed_form`; a scalar result
    stands for every tuple of the chunk. ``formula_samples`` caps the
    tuples used for the entrywise conditional-state comparisons. The
    quadrature and minimax checks can be skipped when only the fast checks
    are wanted. ``samples`` is an integer >= 1 and ``seed`` and
    ``formula_samples`` ones >= 0 (numpy integers too, never a bool or a
    float); anything else raises ValueError naming the parameter.
    """
    for name, value, least in (("seed", seed, 0), ("samples", samples, 1),
                               ("formula_samples", formula_samples, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    closed = closed_form if closed_form is not None else fidelity_closed_form
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
            f_closed = np.broadcast_to(f_closed, simulated.shape)
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
            rotated = (_CONJUGATION @ bob_checked[0].reshape(4, checked)).reshape(3, 2, 2, checked)
            conj.update_all(
                np.abs(bob_checked[1:] - rotated).reshape(3, 4, checked).max(axis=1).T,
                lambda k: _at(_DOMAINS, chunk[k // 3]) + f"conjugation relation r={k % 3 + 1}")

    results = [check.result() for check in checks] + [_ordering_check()]
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


# The meshes of the grid checks and of the ordering check, built once.
_GRID_MESH = _mesh(_GRID_POINTS)
_ORDERING_MESH = _mesh(11)


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


def _ordering_check() -> CheckResult:
    # masfi <= f_av_max <= f_max with both lower quantities >= 1/2; the
    # "deviation" is how far any inequality is violated. At gamma = 1 the
    # chain holds with equality, so round-off clearance is needed.
    gamma, epsilon = _ORDERING_MESH
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
