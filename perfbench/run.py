"""Benchmark of werner-teleport: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tuples --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh process (``workloads.py``) with the
BLAS/OpenMP thread pools pinned to one thread and the checkout's ``src``
first on ``PYTHONPATH``; the workloads and their metrics are described
there, and ``layers.json`` holds the layer-to-metric table. With
``--trace 0`` the result holds the end-to-end metrics named in
``BENCHMARK.json``; ``setup_s`` is the median over SETUP_SAMPLES extra fresh
processes and the measuring process itself of the time from process start
to the end of import, input generation and warm-up. Every time is scaled to
the nominal speed of the reference kernel in ``reference.py``; the report
lines also give the unscaled values. With ``--trace 1`` the workload is
measured untraced and then repeated, operation for operation, with every
function of ``layers.json`` wrapped in spans, and the result holds the
per-layer metrics.

Report lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when the benchmark ran, whether or not the
gates passed, and nonzero (with no JSON line) when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_REFERENCE_S, calibrate

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 8
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def child_environment(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_identity(root: Path) -> dict[str, str | None]:
    """The git SHA when the checkout is a repository, and a digest of the
    package sources, which identifies the code either way."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "werner_teleport").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_child(args: list[str], env: dict[str, str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"out of time before {' '.join(args)}")
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "workloads.py"), *args],
                              env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"timed out: workloads.py {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"workloads.py {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"workloads.py {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: int,
                 trace: int, deadline: float) -> dict:
    env = child_environment(root)
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    calibrations = []
    for _ in range(SETUP_SAMPLES):
        calibrations += calibrate()
        started = time.monotonic()
        setups.append(run_child(common + ["--setup-only"], env, deadline)["ready"] - started)
    calibrations += calibrate()
    started = time.monotonic()
    result = run_child(common + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline)
    setups.append(result["ready"] - started)
    # Scaled to the reference kernel's nominal speed, like the workload's times.
    scale = NOMINAL_REFERENCE_S / statistics.median(calibrations)
    result["setup_s"] = statistics.median(setups) * scale
    result["setup_samples_s"] = setups

    metrics = result["metrics"]
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    if not trace:
        metrics["setup_s"] = {"value": result["setup_s"], "unit": "s"}
    produced = {name: m["unit"] for name, m in metrics.items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    if produced != wanted:
        raise BenchmarkError(f"metrics {produced} do not match BENCHMARK.json {wanted}")
    return result


def print_report(workload: str, seed: int, seconds: int, trace: int, result: dict,
                 identity: dict) -> None:
    env = {**result["env"], **identity}
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  "
          f"operations {result['operations']}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    setups = result["setup_samples_s"]
    rows = [("setup_s", result["setup_s"], "s", f"median of {len(setups)} fresh processes, "
             "scaled"),
            ("unscaled.setup_s", statistics.median(setups), "s", "")]
    if not trace:
        rows.append(("peak_rss_mb", result["metrics"]["peak_rss_mb"]["value"], "MB", ""))
    fraction = result["failed"] / result["attempted"]
    rows.append(("failed_fraction", fraction, "1",
                 f"{result['failed']} of {result['attempted']} operations"))
    rows += [tuple(row) for row in result["report"]]
    rows += [(name, m["value"], m["unit"], "") for name, m in result["metrics"].items()
             if name not in ("setup_s", "peak_rss_mb")]
    for name, value, unit, note in rows:
        print(f"  {name:<52} {value:>14.6g} {unit:<6} {note}".rstrip())
    for gate, first in result["failures"].items():
        print(f"  FAILED {gate}: first failing input {first}")


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "werner_teleport" / "__init__.py").is_file():
            raise BenchmarkError(f"no werner_teleport sources under {root / 'src'}; "
                                 "run from the root of a checkout")
        with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchmarkError(f"unknown workload {args.workload!r}; choose from {names} or all")
        if args.seconds < 1:
            raise BenchmarkError("--seconds must be at least 1")
        identity = source_identity(root)
        deadline = started + TIME_LIMIT_S * len(chosen)
        results = {}
        for workload in chosen:
            result = run_workload(root, spec, workload, args.seed, args.seconds,
                                  args.trace, deadline)
            print_report(workload, args.seed, args.seconds, args.trace, result, identity)
            record = BENCH_DIR / "_work" / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps({**result, **identity}, indent=1), encoding="utf-8")
            results[workload] = result
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
