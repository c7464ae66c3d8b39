"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric its median and the distance between its first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in ``BENCHMARK.json``. Run from the root of a checkout:

    python3 perfbench/spread.py --workload minimax --seeds 1-10
    python3 perfbench/spread.py --workload tuples --seeds 11-15 --out perfbench/_work/spread.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", default=None, help="also write the runs and summary as JSON")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    summary = {}
    print(f"{'metric':<16} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": metric["bound"]}
        print(f"{name:<16} {median:>14.6g} {spread:>11.4f} {metric['bound']:>6}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                              "runs": runs, "summary": summary}, indent=1),
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
