"""Command-line front end: single protocol runs, surface sweeps, verification.

Angles are given on the command line in units of pi (0.5 means pi/2), so
every special point is an exact rational. Sweeps emit one row per (gamma,
epsilon) grid point in row-major order (gamma outer) as CSV or JSON lines
with 12 significant digits; byte-identical output for identical arguments.

Sweeps evaluate the quantity as one array call on the whole grid, format
each axis value once, fill each gamma row through one template and write
the rows as they are made. Grid
counts run from 2 to 1001 per axis and ``verify --samples`` from 1 to
10^6; anything outside is a usage error.

Exit codes: 0 success, 1 verification failure, 2 usage or range error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .analytics import f_av_max, f_max, fidelity_closed_form, fidelity_gap, masfi
from .protocol import UnitaryAngles, run_protocol
from .states import _DOMAINS, InformationState, WernerResource, _require_count
from .verify import run_verification, worst_closed_form_deviation

__all__ = ["SweepConfig", "build_parser", "main", "entry_point"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Input bounds, so that memory and time stay bounded: verify draws its
# tuples up front at 64 B each (64 MB at the bound), and a sweep holds its
# (gamma, epsilon) mesh and values (24 B per cell) and the text of one gamma
# row at a time. A 1001 x 1001 `masfi` sweep is 23.7 MB of CSV or 57 MB of
# JSON lines; its process peaks at about 52 MB resident in either format
# (Python 3.11, numpy 2.4, x86_64 Linux).
_MAX_SAMPLES = 10**6
_MAX_GRID_COUNT = 1001

# The lambdas look each closed form up when a sweep runs, so a wrapper put
# on this module's attribute (perfbench's per-layer trace) sees the call.
_QUANTITIES = {
    "masfi": lambda gamma, epsilon: masfi(gamma, epsilon),
    "favmax": lambda gamma, epsilon: f_av_max(gamma, epsilon),
    "gap": lambda gamma, epsilon: fidelity_gap(gamma, epsilon),
    "fmax": lambda gamma, epsilon: f_max(epsilon),
}

# Sweep line formats: (header, lead, tail). A line is lead + gamma + tail
# with the epsilon text in place of {} and the value left as %.12g.
_SWEEP_FORMATS = {
    "csv": ("gamma,epsilon,value\n", "", ",{},%.12g"),
    "jsonl": ("", '{"gamma": ', ', "epsilon": {}, "value": %.12g}}'),
}


@dataclass(frozen=True)
class SweepConfig:
    """A (gamma, epsilon) surface sweep: grids, quantity, destination."""

    gamma_grid: tuple[float, float, int]
    epsilon_grid: tuple[float, float, int]
    quantity: str
    output_path: str | None
    fmt: str = "csv"


# The `run` flags given in units of pi. Each flag is checked against the
# domain of its parameter, and cmd_run unpacks the flags in the table's order.
_PI_FLAGS = {"alpha", "beta", "chi", "theta", "phi", "psi"}


def _run_flag(args: argparse.Namespace, name: str) -> float:
    hi, half_open = _DOMAINS[name]
    unit_pi = name in _PI_FLAGS
    hi = hi / math.pi if unit_pi else hi
    value = getattr(args, name)
    if not (math.isfinite(value) and 0.0 <= value
            and (value < hi if half_open else value <= hi)):
        close = ")" if half_open else "]"
        unit = " (units of pi)" if unit_pi else ""
        raise ValueError(f"--{name} must lie in [0, {hi:g}{close}{unit}, got {value:g}")
    return value * math.pi if unit_pi else value


def _parse_grid(text: str, flag: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} must look like min:max:count, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"{flag} must look like min:max:count, got {text!r}") from None
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"{flag} bounds must satisfy 0 <= min <= max <= 1, got {text!r}")
    return lo, hi, _require_count(count, f"{flag} count", 2, _MAX_GRID_COUNT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="werner-teleport",
        description="Teleportation of a mixed qubit over a Werner-like resource: "
                    "simulate, sweep fidelity surfaces, or cross-verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one parameter point and compare "
                                     "with the closed-form fidelity")
    run.add_argument("--alpha", type=float, default=0.0,
                     help="input polar angle, units of pi (default 0)")
    run.add_argument("--beta", type=float, default=0.0,
                     help="input azimuth, units of pi (default 0)")
    run.add_argument("--gamma", type=float, default=1.0,
                     help="input purity in [0, 1] (default 1)")
    run.add_argument("--epsilon", type=float, default=1.0,
                     help="resource mixing weight in [0, 1] (default 1)")
    run.add_argument("--chi", type=float, default=0.0,
                     help="correction global phase, units of pi (default 0)")
    run.add_argument("--theta", type=float, default=0.0,
                     help="correction polar angle, units of pi (default 0)")
    run.add_argument("--phi", type=float, default=0.0,
                     help="correction phase, units of pi (default 0)")
    run.add_argument("--psi", type=float, default=0.0,
                     help="correction phase, units of pi (default 0)")

    sweep = sub.add_parser("sweep", help="emit a (gamma, epsilon) surface as "
                                         "CSV or JSON lines")
    sweep.add_argument("--quantity", required=True, choices=sorted(_QUANTITIES),
                       help="which surface to emit")
    sweep.add_argument("--gamma-grid", default="0:1:51", metavar="MIN:MAX:COUNT",
                       help="gamma grid, count 2 to 1001 (default 0:1:51)")
    sweep.add_argument("--epsilon-grid", default="0:1:51", metavar="MIN:MAX:COUNT",
                       help="epsilon grid, count 2 to 1001 (default 0:1:51)")
    sweep.add_argument("--format", default="csv", choices=("csv", "jsonl"),
                       dest="fmt", help="output format (default csv)")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help="output file (default stdout)")

    verify = sub.add_parser("verify", help="run every closed-form-vs-numeric "
                                           "cross-check")
    verify.add_argument("--seed", type=int, default=42,
                        help="seed for the random parameter tuples (default 42)")
    verify.add_argument("--samples", type=int, default=10000,
                        help="number of random tuples, 1 to 10^6 (default 10000)")

    return parser


def cmd_run(args: argparse.Namespace) -> int:
    alpha, beta, gamma, epsilon, chi, theta, phi, psi = [
        _run_flag(args, name) for name in _DOMAINS]

    report = run_protocol(InformationState(alpha, beta, gamma),
                          WernerResource(epsilon),
                          UnitaryAngles(chi, theta, phi, psi))
    closed = fidelity_closed_form(alpha, beta, gamma, epsilon, theta, phi, psi)

    for outcome in report.outcomes:
        print(f"outcome r={outcome.r}: probability = {outcome.probability:.12g}, "
              f"fidelity = {outcome.fidelity:.12g}")
    print(f"simulated fidelity   = {report.fidelity:.12g}")
    print(f"closed-form fidelity = {closed:.12g}")
    print(f"|difference|         = {abs(report.fidelity - closed):.3e}")
    return EXIT_OK


def _sweep_lines(config: SweepConfig) -> Iterator[str]:
    # The header, then the lines of one gamma row at a time, so a writer
    # holds one row's text and not the whole sweep's.
    gammas = np.linspace(*config.gamma_grid)
    epsilons = np.linspace(*config.epsilon_grid)
    values = _QUANTITIES[config.quantity](*np.meshgrid(gammas, epsilons, indexing="ij"))
    header, lead, tail = _SWEEP_FORMATS[config.fmt]
    tails = [tail.format("%.12g" % e) for e in epsilons.tolist()]
    yield header
    for g, row in zip(gammas.tolist(), values):
        start = lead + "%.12g" % g
        yield start + ("\n" + start).join(tails) % tuple(row.tolist()) + "\n"


def render_sweep(config: SweepConfig) -> str:
    """The sweep's text: one line per (gamma, epsilon), gamma outer."""
    return "".join(_sweep_lines(config))


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        gamma_grid=_parse_grid(args.gamma_grid, "--gamma-grid"),
        epsilon_grid=_parse_grid(args.epsilon_grid, "--epsilon-grid"),
        quantity=args.quantity,
        output_path=args.out,
        fmt=args.fmt,
    )
    lines = _sweep_lines(config)
    if config.output_path is None:
        sys.stdout.writelines(lines)
    else:
        # an error part-way leaves the rows written before it in the file
        try:
            with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
        except OSError as exc:
            print(f"error: cannot write {config.output_path}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    samples = _require_count(args.samples, "--samples", 1, _MAX_SAMPLES)
    results = run_verification(_require_count(args.seed, "--seed", 0), samples)
    for result in results:
        print(result.line())
    print(f"max |F_simulated - F_closed_form| = "
          f"{worst_closed_form_deviation(results):.3e}")
    if all(result.passed for result in results):
        print(f"all {len(results)} checks passed")
        return EXIT_OK
    failed = sum(not result.passed for result in results)
    print(f"{failed} of {len(results)} checks FAILED", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def _join_signed_values(argv: list[str]) -> list[str]:
    # argparse reads a word such as -inf, -nan or -1e-3 as an option, not as
    # the value of the option before it (only forms like -5 and -0.5 pass),
    # and fails before any range check. Writing "--psi -inf" as "--psi=-inf"
    # gives such a value to its option, so it reaches the domain table.
    joined: list[str] = []
    for position, word in enumerate(argv):
        if word == "--":
            return joined + argv[position:]
        if (joined and joined[-1].startswith("--") and "=" not in joined[-1]
                and word.startswith("-") and _is_float(word)):
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def _is_float(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else list(argv)))
    handler = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    sys.exit(main())
