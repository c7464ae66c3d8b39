"""Command-line front end: single protocol runs, surface sweeps, verification.

Angles are given on the command line in units of pi (0.5 means pi/2), so
every special point is an exact rational. Sweeps emit one row per (gamma,
epsilon) grid point in row-major order (gamma outer) as CSV or JSON lines
with 12 significant digits; byte-identical output for identical arguments.

Exit codes: 0 success, 1 verification failure, 2 usage or range error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analytics import f_av_max, f_max, fidelity_closed_form, fidelity_gap, masfi
from .protocol import UnitaryAngles, run_protocol
from .states import InformationState, WernerResource
from .verify import run_verification, worst_closed_form_deviation

__all__ = ["SweepConfig", "build_parser", "main", "entry_point"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

_QUANTITIES = {
    "masfi": lambda gamma, epsilon: masfi(gamma, epsilon),
    "favmax": lambda gamma, epsilon: f_av_max(gamma, epsilon),
    "gap": lambda gamma, epsilon: fidelity_gap(gamma, epsilon),
    "fmax": lambda gamma, epsilon: f_max(epsilon),
}


@dataclass(frozen=True)
class SweepConfig:
    """A (gamma, epsilon) surface sweep: grids, quantity, destination."""

    gamma_grid: tuple[float, float, int]
    epsilon_grid: tuple[float, float, int]
    quantity: str
    output_path: str | None
    fmt: str = "csv"


class _RangeError(Exception):
    """Out-of-range command-line value; message names the flag."""


def _check_flag(value: float, lo: float, hi: float, flag: str,
                unit_pi: bool = False) -> float:
    if not math.isfinite(value) or value < lo or value > hi:
        unit = " (units of pi)" if unit_pi else ""
        raise _RangeError(f"{flag} must lie in [{lo:g}, {hi:g}]{unit}, got {value:g}")
    return value


def _parse_grid(text: str, flag: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _RangeError(f"{flag} must look like min:max:count, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise _RangeError(f"{flag} must look like min:max:count, got {text!r}") from None
    if not (0.0 <= lo <= hi <= 1.0):
        raise _RangeError(f"{flag} bounds must satisfy 0 <= min <= max <= 1, got {text!r}")
    if count < 2:
        raise _RangeError(f"{flag} count must be >= 2, got {count}")
    return lo, hi, count


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
                       help="gamma grid (default 0:1:51)")
    sweep.add_argument("--epsilon-grid", default="0:1:51", metavar="MIN:MAX:COUNT",
                       help="epsilon grid (default 0:1:51)")
    sweep.add_argument("--format", default="csv", choices=("csv", "jsonl"),
                       dest="fmt", help="output format (default csv)")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help="output file (default stdout)")

    verify = sub.add_parser("verify", help="run every closed-form-vs-numeric "
                                           "cross-check")
    verify.add_argument("--seed", type=int, default=42,
                        help="seed for the random parameter tuples (default 42)")
    verify.add_argument("--samples", type=int, default=10000,
                        help="number of random tuples (default 10000)")

    return parser


def cmd_run(args: argparse.Namespace) -> int:
    alpha = _check_flag(args.alpha, 0.0, 1.0, "--alpha", unit_pi=True) * math.pi
    beta_pi = args.beta
    if not math.isfinite(beta_pi) or beta_pi < 0.0 or beta_pi >= 2.0:
        raise _RangeError(f"--beta must lie in [0, 2) (units of pi), got {beta_pi:g}")
    beta = beta_pi * math.pi
    gamma = _check_flag(args.gamma, 0.0, 1.0, "--gamma")
    epsilon = _check_flag(args.epsilon, 0.0, 1.0, "--epsilon")
    chi_pi = args.chi
    if not math.isfinite(chi_pi) or chi_pi < 0.0 or chi_pi >= 2.0:
        raise _RangeError(f"--chi must lie in [0, 2) (units of pi), got {chi_pi:g}")
    chi = chi_pi * math.pi
    theta = _check_flag(args.theta, 0.0, 1.0, "--theta", unit_pi=True) * math.pi
    phi = _check_flag(args.phi, 0.0, 1.0, "--phi", unit_pi=True) * math.pi
    psi = _check_flag(args.psi, 0.0, 1.0, "--psi", unit_pi=True) * math.pi

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


def sweep_rows(config: SweepConfig):
    """Yield (gamma, epsilon, value) in row-major order, gamma outer."""
    quantity = _QUANTITIES[config.quantity]
    g_lo, g_hi, g_n = config.gamma_grid
    e_lo, e_hi, e_n = config.epsilon_grid
    for gamma in np.linspace(g_lo, g_hi, g_n):
        for epsilon in np.linspace(e_lo, e_hi, e_n):
            yield float(gamma), float(epsilon), quantity(float(gamma), float(epsilon))


def render_sweep(config: SweepConfig) -> str:
    lines = []
    if config.fmt == "csv":
        lines.append("gamma,epsilon,value")
        for gamma, epsilon, value in sweep_rows(config):
            lines.append(f"{gamma:.12g},{epsilon:.12g},{value:.12g}")
    else:
        for gamma, epsilon, value in sweep_rows(config):
            lines.append(f'{{"gamma": {gamma:.12g}, "epsilon": {epsilon:.12g}, '
                         f'"value": {value:.12g}}}')
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        gamma_grid=_parse_grid(args.gamma_grid, "--gamma-grid"),
        epsilon_grid=_parse_grid(args.epsilon_grid, "--epsilon-grid"),
        quantity=args.quantity,
        output_path=args.out,
        fmt=args.fmt,
    )
    text = render_sweep(config)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output_path}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise _RangeError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise _RangeError(f"--seed must be a nonnegative integer, got {args.seed}")
    results = run_verification(args.seed, args.samples)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except _RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    sys.exit(main())
