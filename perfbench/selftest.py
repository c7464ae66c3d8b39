"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json, layers.json and the code agree on workload and
metric names; that a deliberately perturbed value fed to each correctness
gate counts as a failed operation (so failed_fraction rises above 0) while
the true value passes; that one-second runs of every workload, untraced and
traced, print every metric by name with its unit and pass their gates; and
that the benchmark refuses to run, without printing a result, where the
package sources are missing. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from werner_teleport import analytics, cli, protocol, verify  # noqa: E402

REPORTED = {
    "tuples": ["setup_s", "peak_rss_mb", "failed_fraction", "tuples_per_s"],
    "minimax": ["setup_s", "peak_rss_mb", "failed_fraction", "points_per_s",
                "flat_point_p50_s", "general_point_p50_s"],
    "surface": ["setup_s", "peak_rss_mb", "failed_fraction", "cells_per_s", "averages_per_s"],
}

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_names(spec: dict, layers: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json names the workloads that workloads.py runs")
    check(all(w["why"] and "\n" not in w["why"] and len(w["why"]) <= 200
              for w in spec["workloads"]), "every workload records a one-line why")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == {**workloads.E2E_UNITS, "setup_s": "s"},
          "end_to_end metrics and units match workloads.py")
    check(max(m["bound"] for m in spec["end_to_end"])
          == next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"),
          "setup_s has the largest bound")
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(per_layer == [(n, spans.per_layer_unit(n)) for n in spans.per_layer_names(layers)],
          "per_layer metrics match the table in layers.json")
    known = set(layers["end_to_end"])
    check(all(set(row["should_move"]) <= known for row in layers["functions"]),
          "every should_move name is mapped in layers.json end_to_end")
    modules = {"analytics": analytics, "cli": cli, "protocol": protocol, "verify": verify,
               "states": sys.modules["werner_teleport.states"],
               "density": sys.modules["werner_teleport.density"]}
    check(all(callable(getattr(modules[m], f, None))
              for m, f in (row["name"].split(".") for row in layers["functions"])),
          "every traced function exists in the package")


def check_gates() -> None:
    def fraction(*problems) -> float:
        ledger = workloads.Ledger()
        for problem in problems:
            ledger.record("gate", problem, "input")
        return ledger.failed_fraction

    def run(closed_form=None):
        return verify.run_verification(3, 5, closed_form=closed_form, formula_samples=5,
                                       run_quadrature=False, run_minimax=False)

    true = workloads.tuples_problem(run())
    bad = workloads.tuples_problem(
        run(lambda *a: analytics.fidelity_closed_form(*a) + 1e-6))
    check(true is None and fraction(true, bad) > 0, "tuples gate: perturbed closed form fails")

    gamma, epsilon = 0.3, 0.7
    value = analytics.minimax_search(gamma, epsilon).value
    true = workloads.minimax_problem(gamma, epsilon, value)
    bad = workloads.minimax_problem(gamma, epsilon, value + 2e-6)
    check(true is None and fraction(true, bad) > 0, "minimax gate: value off by 2e-6 fails")

    angles = protocol.UnitaryAngles(1.0, 0.4, 2.0, 0.9)
    value = analytics.average_fidelity_numeric(gamma, epsilon, angles)
    true = workloads.average_problem(gamma, epsilon, angles.theta, angles.phi, value)
    bad = workloads.average_problem(gamma, epsilon, angles.theta, angles.phi, value + 2e-8)
    check(true is None and fraction(true, bad) > 0, "quadrature gate: value off by 2e-8 fails")

    path = workloads.WORK_DIR / "selftest-sweep.csv"
    path.parent.mkdir(exist_ok=True)
    grid = f"0:1:{workloads.SWEEP_COUNT}"
    code = cli.main(["sweep", "--quantity", "gap", "--gamma-grid", grid,
                     "--epsilon-grid", grid, "--out", str(path)])
    data = path.read_bytes()
    path.unlink()
    true = workloads.sweep_problem("gap", data, set())
    row = data.split(b"\n")[5000]
    bad_row = row[:-1] + bytes([row[-1] ^ 1])  # last digit changed
    bad = workloads.sweep_problem("gap", data.replace(row + b"\n", bad_row + b"\n"), set())
    check(code == 0 and true is None and fraction(true, bad) > 0
          and "sha256" in bad and "row 5000" in bad,
          "sweep gate: one changed digit fails both the digest and the value check")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
                           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def check_runs(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            proc = run_bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            label = f"{workload} --trace {trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: result line with correct=true and no failed operation")
            metrics = result.get("metrics", {})
            check({n: m["unit"] for n, m in metrics.items()} == wanted
                  and all(math.isfinite(m["value"]) for m in metrics.values()),
                  f"{label}: every {key} metric with its unit")
            if trace == 0:
                printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
                           if line.startswith("  ") and len(line.split()) >= 3}
                check(all(name in printed for name in REPORTED[workload]),
                      f"{label}: report prints {', '.join(REPORTED[workload])} with units")


def check_refuses_without_sources(spec: dict) -> None:
    bare = workloads.WORK_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for directory in spec["paths"]:
        shutil.copytree(ROOT / directory, bare / directory,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the package sources: nonzero exit and no result line")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_names(spec, spans.load_layers())
    check_gates()
    check_refuses_without_sources(spec)
    check_runs(spec)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
