"""One benchmark workload in a fresh process: seeded inputs, timed loop, gates.

Started by ``run.py``, which pins the BLAS/OpenMP pools to one thread and
puts the checkout's ``src`` first on ``PYTHONPATH``. Prints one JSON line
with the workload's measurements, its failure ledger and its environment.

    python3 perfbench/workloads.py --workload tuples --seed 1 --seconds 20 --trace 0
    python3 perfbench/workloads.py --workload tuples --seed 1 --setup-only

Workloads (each a closed loop: the next operation starts when the last
one returns):

- ``tuples``: ``verify.run_verification`` on chunks of CHUNK seeded tuples
  with the quadrature and minimax checks off. One chunk in HEAVY_EVERY also
  runs the conditional-state and conjugation checks on all its tuples,
  which is the share ``verify`` gives them (1000 of 10^4 tuples).
- ``minimax``: ``analytics.minimax_search`` on seeded (gamma, epsilon)
  points in the mix of verify's 5x5 grid: 5 points with epsilon = 0, 4
  with gamma = 1 (both flat landscapes) and 16 interior points per 25.
- ``surface``: rounds of four ``sweep`` commands through ``cli.main`` (one
  per quantity, on a fixed 201x201 grid, written to files) followed by
  AVERAGES_PER_ROUND ``analytics.average_fidelity_numeric`` calls at
  seeded (gamma, epsilon, correction) tuples.

End-to-end metrics, per workload:

- ``rate_per_s``: tuples/s; points/s of the 5:4:16 mix, from the median
  time of each class; sweep cells/s.
- ``light_p50_ms``: median time per tuple in chunks without the
  conditional-state checks; median general point; median quadrature call.
- ``heavy_p50_ms``: median time per tuple in chunks with them; flat point,
  as the 5:4 weighted mean of the epsilon = 0 and gamma = 1 medians (the
  two classes differ by about 1.6x, so a plain median would jump between
  them with the class counts); median ``sweep`` command.
- ``peak_rss_mb``: peak resident memory of this process.

Every time is scaled to the nominal speed of the reference kernel in
``reference.py``, which is timed before each group of operations.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import werner_teleport
from werner_teleport import analytics, cli, protocol, verify

import spans
from reference import NOMINAL_REFERENCE_S, calibrate

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
WORKLOADS = ("tuples", "minimax", "surface")

CHUNK = 100
HEAVY_EVERY = 10
SEED_POOL = 4096

# Points per 25 in verify's 5x5 grid: epsilon = 0 (5), gamma = 1 (4 more),
# interior (16). Flat landscapes cost 15-30x an interior point, so each
# class is timed on its own and weighted by its share.
MINIMAX_MIX = {"eps0": 5, "gamma1": 4, "general": 16}
MINIMAX_BLOCKS = 8
FLAT = ("eps0", "gamma1")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PLASTIC = 1.324717957244746  # real root of x^3 = x + 1; steps of the 2-D R2 sequence

SWEEP_COUNT = 201
QUANTITIES = ("masfi", "favmax", "gap", "fmax")
AVERAGES_PER_ROUND = 100
AVERAGE_POOL = 20000
SWEEP_DIGESTS = {
    "masfi": "67f2feafc97cee4924b6dcc754fad15bc41f02ddfba86060ad4ef90d3f7ff061",
    "favmax": "b10d806a92faa4d000cc19b15e213d1f34867e901e4fb40eb84faadcdaf2ddf9",
    "gap": "19cbcd2c1216f0f363866206ed0b9aa05d0c37097c40c00d8ecbf5f16e660e88",
    "fmax": "bfeeef39e185bc8638d07438fd87501edba938f2f19e6ceb19496d739e8b0904",
}

E2E_UNITS = {"rate_per_s": "1/s", "light_p50_ms": "ms", "heavy_p50_ms": "ms",
             "peak_rss_mb": "MB"}


# ---------------------------------------------------------------- gates

class Ledger:
    """Attempted and failed operations, with the first failing input per gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures: dict[str, str] = {}

    def record(self, gate: str, problem: str | None, where: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.first_failures.setdefault(gate, f"{where}: {problem}")

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def tuples_problem(results) -> str | None:
    """Every CheckResult of run_verification must pass."""
    for result in results:
        if not result.passed:
            return (f"{result.name}: worst {result.worst:.3e} > {result.tolerance:.0e}"
                    f" at {result.detail}")
    return None


def minimax_problem(gamma: float, epsilon: float, value: float) -> str | None:
    """The search value must match masfi = (1 + gamma^2 epsilon)/2 to 1e-6."""
    expected = 0.5 * (1.0 + gamma * gamma * epsilon)
    if abs(value - expected) <= 1e-6:
        return None
    return f"search={value!r} masfi={expected!r}"


def average_problem(gamma: float, epsilon: float, theta: float, phi: float,
                    value: float) -> str | None:
    """Quadrature against the general-correction sphere average, to 1e-8:
    1/2 + eps cos(theta)/6 + gamma^2 eps cos^2(theta/2) cos(2 phi)/3."""
    expected = (0.5 + epsilon * math.cos(theta) / 6.0
                + gamma * gamma * epsilon * math.cos(0.5 * theta) ** 2
                * math.cos(2.0 * phi) / 3.0)
    if abs(value - expected) <= 1e-8:
        return None
    return f"quadrature={value!r} expected={expected!r}"


SURFACE_FORMS = {
    "masfi": lambda g, e: 0.5 * (1.0 + g * g * e),
    "favmax": lambda g, e: 0.5 + e * (1.0 + 2.0 * g * g) / 6.0,
    "gap": lambda g, e: (1.0 - g * g) * e / 6.0,
    "fmax": lambda g, e: 0.5 * (1.0 + e) + 0.0 * g,
}


def sweep_values_problem(quantity: str, data: bytes) -> str | None:
    """Rows must walk the grid gamma-outer and match the closed form at 12
    significant digits."""
    if not data.startswith(b"gamma,epsilon,value\n") or not data.endswith(b"\n"):
        return "missing header or final newline"
    try:
        rows = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return f"unparsable: {exc}"
    n = SWEEP_COUNT
    if rows.shape != (n * n, 3):
        return f"expected {n * n} rows of 3 fields, got shape {rows.shape}"
    axis = np.arange(n) / (n - 1)
    gamma, epsilon = np.repeat(axis, n), np.tile(axis, n)
    expected = SURFACE_FORMS[quantity](gamma, epsilon)
    # Half a unit in the 12th significant digit of the expected value, plus
    # a few ulps for the two transcriptions rounding differently.
    size = np.abs(expected)
    digit = 10.0 ** (np.floor(np.log10(np.where(size > 0.0, size, 1.0))) - 11.0)
    tolerance = np.where(size > 0.0, 0.5 * digit, 0.0) + 4.0 * np.spacing(size)
    ok = ((np.abs(rows[:, 0] - gamma) <= 1e-12)
          & (np.abs(rows[:, 1] - epsilon) <= 1e-12)
          & (np.abs(rows[:, 2] - expected) <= tolerance))
    if ok.all():
        return None
    i = int(np.argmin(ok))
    line = data.split(b"\n")[i + 1].decode()
    return (f"row {i + 1} reads {line!r}, expected gamma={gamma[i]!r} "
            f"epsilon={epsilon[i]!r} value={expected[i]!r}")


def sweep_problem(quantity: str, data: bytes, value_checked: set[str]) -> str | None:
    """The file must match the digest recorded for it and, once per distinct
    content, the closed-form values."""
    problems = []
    digest = hashlib.sha256(data).hexdigest()
    if digest != SWEEP_DIGESTS[quantity]:
        problems.append(f"sha256 {digest} differs from recorded {SWEEP_DIGESTS[quantity]}")
    if digest not in value_checked:
        values = sweep_values_problem(quantity, data)
        if values is None:
            value_checked.add(digest)
        else:
            problems.append(values)
    return "; ".join(problems) or None


# --------------------------------------------------------------- inputs

def minimax_order() -> list[str]:
    # Spread each class evenly over the 25 slots, so that a run cut at any
    # point has sampled the classes close to their shares.
    slots = sorted(((i + 0.5) / count, cls)
                   for cls, count in MINIMAX_MIX.items() for i in range(count))
    return [cls for _, cls in slots]


def make_inputs(workload: str, seed: int) -> dict:
    """Every input of the workload, drawn from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    if workload == "tuples":
        seeds = rng.integers(0, 2**31 - 1, size=SEED_POOL + 1).tolist()
        return {"warmup": [("light", seeds[0], 1)],
                "ops": [("heavy" if i % HEAVY_EVERY == 0 else "light", s, CHUNK)
                        for i, s in enumerate(seeds[1:])],
                "group": HEAVY_EVERY}
    if workload == "minimax":
        # Each class walks a low-discrepancy sequence from a seeded start, so
        # that the points a run reaches cover the free coordinates evenly
        # whatever the seed; the cost of a flat point depends on them.
        start = rng.uniform(0.0, 1.0, size=4).tolist()
        counters = dict.fromkeys(MINIMAX_MIX, 0)

        def point(cls):
            k = counters[cls] = counters[cls] + 1
            if cls == "eps0":
                return (cls, (start[0] + k * GOLDEN) % 1.0, 0.0)
            if cls == "gamma1":
                return (cls, 1.0, (start[1] + k * GOLDEN) % 1.0)
            return (cls, (start[2] + k / PLASTIC) % 1.0, (start[3] + k / PLASTIC**2) % 1.0)

        warmup = [("general", *point("general")[1:])]
        return {"warmup": warmup,
                "ops": [point(cls) for _ in range(MINIMAX_BLOCKS) for cls in minimax_order()],
                "group": 1}
    if workload == "surface":
        draws = np.column_stack([
            rng.uniform(0.0, 1.0, AVERAGE_POOL),          # gamma
            rng.uniform(0.0, 1.0, AVERAGE_POOL),          # epsilon
            rng.uniform(0.0, 2.0 * math.pi, AVERAGE_POOL),  # chi
            rng.uniform(0.0, math.pi, AVERAGE_POOL),      # theta
            rng.uniform(0.0, math.pi, AVERAGE_POOL),      # phi
            rng.uniform(0.0, math.pi, AVERAGE_POOL),      # psi
        ]).tolist()
        averages = [("average", *row) for row in draws]
        ops = []
        rounds = AVERAGE_POOL // AVERAGES_PER_ROUND
        for r in range(rounds - 1):
            ops += [("sweep", q) for q in QUANTITIES]
            ops += averages[(r + 1) * AVERAGES_PER_ROUND:(r + 2) * AVERAGES_PER_ROUND]
        return {"warmup": [("sweep", QUANTITIES[0]), averages[0]],
                "ops": ops, "group": len(QUANTITIES) + AVERAGES_PER_ROUND}
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ execution

class Runner:
    """Executes one operation, times it and feeds its output to the gate."""

    def __init__(self, workload: str, ledger: Ledger):
        self.workload = workload
        self.ledger = ledger
        self.value_checked: set[str] = set()

    def __call__(self, op) -> float:
        kind = op[0]
        problem = None
        t0 = time.perf_counter()
        try:
            if self.workload == "tuples":
                _, seed, n = op
                t0 = time.perf_counter()
                results = verify.run_verification(
                    seed, n, formula_samples=n if kind == "heavy" else 0,
                    run_quadrature=False, run_minimax=False)
                elapsed = time.perf_counter() - t0
                problem = tuples_problem(results)
                gate, where = "tuples", f"run_verification(seed={seed}, samples={n}, kind={kind})"
            elif kind == "sweep":
                quantity = op[1]
                path = WORK_DIR / f"sweep-{quantity}.csv"
                grid = f"0:1:{SWEEP_COUNT}"
                argv = ["sweep", "--quantity", quantity, "--gamma-grid", grid,
                        "--epsilon-grid", grid, "--out", str(path)]
                t0 = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - t0
                gate, where = "sweep", f"cli.main({argv})"
                problem = (f"exit code {code}" if code != 0
                           else sweep_problem(quantity, path.read_bytes(), self.value_checked))
            elif kind == "average":
                _, gamma, epsilon, chi, theta, phi, psi = op
                angles = protocol.UnitaryAngles(chi, theta, phi, psi)
                t0 = time.perf_counter()
                value = analytics.average_fidelity_numeric(gamma, epsilon, angles)
                elapsed = time.perf_counter() - t0
                gate = "quadrature"
                where = (f"average_fidelity_numeric(gamma={gamma!r}, epsilon={epsilon!r}, "
                         f"chi={chi!r}, theta={theta!r}, phi={phi!r}, psi={psi!r})")
                problem = average_problem(gamma, epsilon, theta, phi, value)
            else:
                _, gamma, epsilon = op
                t0 = time.perf_counter()
                value = analytics.minimax_search(gamma, epsilon).value
                elapsed = time.perf_counter() - t0
                gate, where = "minimax", f"minimax_search(gamma={gamma!r}, epsilon={epsilon!r})"
                problem = minimax_problem(gamma, epsilon, value)
        except Exception as exc:  # a raising operation is a failed operation
            elapsed = time.perf_counter() - t0
            gate, where, problem = self.workload, repr(op), f"raised {exc!r}"
        self.ledger.record(gate, problem, where)
        return elapsed


def point_class(kind: str) -> str | None:
    if kind in FLAT:
        return "flat"
    return "general" if kind == "general" else None


def measure(runner: Runner, inputs: dict, seconds: float | None = None,
            count: int | None = None, tracer: spans.Tracer | None = None):
    """Run operations in order for ``seconds`` (stopping only at the end of
    a group, and only once every kind of operation has been timed) or for
    exactly ``count`` operations.

    Returns [(kind, elapsed, scaled)] and the reference kernel's times.
    """
    ops = inputs["ops"]
    kinds = {op[0] for op in ops}
    group = inputs["group"]
    raw = []
    calibrations = []
    seen = set()
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % group == 0 and seen == kinds and time.perf_counter() >= deadline:
            break
        if i % group == 0:
            calibrations += calibrate()
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
            tracer.set_class(point_class(op[0]))
        raw.append((op[0], runner(op)))
        seen.add(op[0])
        i += 1
    calibrations += calibrate()
    scale = NOMINAL_REFERENCE_S / statistics.median(calibrations)
    return [(kind, elapsed, elapsed * scale) for kind, elapsed in raw], calibrations


def end_to_end(workload: str, samples) -> tuple[dict[str, float], list]:
    """Benchmark metrics and the workload's report lines (name, value, unit,
    note) from [(kind, elapsed)]."""
    by = defaultdict(list)
    for kind, elapsed in samples:
        by[kind].append(elapsed)
    med = statistics.median
    if workload == "tuples":
        tuples = CHUNK * len(samples)
        rate = tuples / sum(e for _, e in samples)
        light = med(by["light"]) / CHUNK * 1e3
        heavy = med(by["heavy"]) / CHUNK * 1e3
        report = [("tuples_per_s", rate, "1/s", f"{tuples} tuples; medians over "
                   f"{len(by['light'])} light and {len(by['heavy'])} heavy chunks")]
    elif workload == "minimax":
        medians = {k: med(by[k]) for k in MINIMAX_MIX}
        rate = sum(MINIMAX_MIX.values()) / sum(MINIMAX_MIX[k] * medians[k] for k in MINIMAX_MIX)
        light = medians["general"] * 1e3
        heavy = (sum(MINIMAX_MIX[k] * medians[k] for k in FLAT)
                 / sum(MINIMAX_MIX[k] for k in FLAT) * 1e3)
        flats = sum(len(by[k]) for k in FLAT)
        report = [("points_per_s", rate, "1/s", "5:4:16 mix of per-class medians, "
                   + ", ".join(f"n_{k}={len(by[k])}" for k in MINIMAX_MIX)),
                  ("flat_point_p50_s", heavy / 1e3, "s", f"n={flats}"),
                  ("general_point_p50_s", light / 1e3, "s", f"n={len(by['general'])}")]
    else:
        cells = len(by["sweep"]) * SWEEP_COUNT * SWEEP_COUNT
        rate = cells / sum(by["sweep"])
        light = med(by["average"]) * 1e3
        heavy = med(by["sweep"]) * 1e3
        report = [("cells_per_s", rate, "1/s", f"{len(by['sweep'])} sweeps of "
                   f"{SWEEP_COUNT}x{SWEEP_COUNT}"),
                  ("averages_per_s", 1e3 / light, "1/s",
                   f"1/median of n={len(by['average'])}")]
    metrics = {"rate_per_s": rate, "light_p50_ms": light, "heavy_p50_ms": heavy,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return metrics, report


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after import, input generation and warm-up")
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if not Path(werner_teleport.__file__).resolve().is_relative_to(src):
        print(f"error: werner_teleport imported from {werner_teleport.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    inputs = make_inputs(args.workload, args.seed)
    ledger = Ledger()
    runner = Runner(args.workload, ledger)
    for op in inputs["warmup"]:
        runner(op)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    samples, calibrations = measure(runner, inputs, seconds=args.seconds)
    speed = [("reference_kernel_ms", statistics.median(calibrations) * 1e3, "ms",
              f"median of {len(calibrations)} runs; nominal "
              f"{NOMINAL_REFERENCE_S * 1e3:g} ms")]
    if args.trace:
        layers = spans.load_layers()
        split = layers["split_by_class"]
        tracer = spans.Tracer([row["name"] for row in layers["functions"]], split["classes"])
        tracer.install()
        try:
            traced, _ = measure(runner, inputs, count=len(samples), tracer=tracer)
        finally:
            tracer.uninstall()
        ratio = sum(s for _, _, s in traced) / sum(s for _, _, s in samples)
        metrics = tracer.metrics(layers, ratio)
        tracer.write(WORK_DIR / f"spans-{args.workload}.npz")
        units = {name: spans.per_layer_unit(name) for name in metrics}
        report = speed + [("trace.spans", tracer.spans, "count", f"first {len(tracer.start)} "
                           f"written to {(WORK_DIR / f'spans-{args.workload}.npz').relative_to(Path.cwd())}")]
    else:
        metrics, report = end_to_end(args.workload, [(k, s) for k, _, s in samples])
        raw, _ = end_to_end(args.workload, [(k, e) for k, e, _ in samples])
        report += speed + [(f"unscaled.{name}", raw[name], E2E_UNITS[name], "")
                           for name in ("rate_per_s", "light_p50_ms", "heavy_p50_ms")]
        units = E2E_UNITS
    print(json.dumps({
        "ready": ready,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.first_failures,
        "operations": len(samples),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "report": report,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
