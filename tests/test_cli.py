import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import sweep_text_per_cell
from werner_teleport import cli
from werner_teleport.cli import SweepConfig, main, render_sweep
from werner_teleport.verify import CheckResult


# ------------------------------------------------------------- run

def test_run_ideal_channel(capsys):
    code = main(["run", "--alpha", "0.5", "--beta", "0", "--gamma", "1",
                 "--epsilon", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("probability = 0.25") == 4
    assert "simulated fidelity   = 1" in out
    assert "closed-form fidelity = 1" in out


def test_run_useless_resource(capsys):
    code = main(["run", "--alpha", "0.3", "--beta", "1.2", "--gamma", "0.4",
                 "--epsilon", "0", "--theta", "0.8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "simulated fidelity   = 0.5" in out


def test_run_reports_small_difference(capsys):
    code = main(["run", "--alpha", "0.37", "--beta", "1.21", "--gamma", "0.62",
                 "--epsilon", "0.81", "--chi", "0.4", "--theta", "0.55",
                 "--phi", "0.2", "--psi", "0.9"])
    out = capsys.readouterr().out
    assert code == 0
    diff_line = [line for line in out.splitlines() if "difference" in line][0]
    assert float(diff_line.split("=")[1]) < 1e-12


RANGE_ERRORS = [
    ("--alpha", "1.7", "--alpha must lie in [0, 1] (units of pi), got 1.7"),
    ("--alpha", "-0.1", "--alpha must lie in [0, 1] (units of pi), got -0.1"),
    ("--beta", "2.0", "--beta must lie in [0, 2) (units of pi), got 2"),
    ("--gamma", "1.5", "--gamma must lie in [0, 1], got 1.5"),
    ("--epsilon", "-0.3", "--epsilon must lie in [0, 1], got -0.3"),
    ("--theta", "1.2", "--theta must lie in [0, 1] (units of pi), got 1.2"),
    ("--phi", "9", "--phi must lie in [0, 1] (units of pi), got 9"),
    ("--psi", "-1", "--psi must lie in [0, 1] (units of pi), got -1"),
    ("--chi", "2", "--chi must lie in [0, 2) (units of pi), got 2"),
    ("--alpha", "nan", "--alpha must lie in [0, 1] (units of pi), got nan"),
    ("--beta", "nan", "--beta must lie in [0, 2) (units of pi), got nan"),
    ("--gamma", "nan", "--gamma must lie in [0, 1], got nan"),
    ("--chi", "nan", "--chi must lie in [0, 2) (units of pi), got nan"),
    # signed words that argparse alone would read as options
    ("--psi", "-inf", "--psi must lie in [0, 1] (units of pi), got -inf"),
    ("--gamma", "-nan", "--gamma must lie in [0, 1], got nan"),
    ("--psi", "-1e-3", "--psi must lie in [0, 1] (units of pi), got -0.001"),
    ("--gamma", "-1e-3", "--gamma must lie in [0, 1], got -0.001"),
]


@pytest.mark.parametrize("flag,value,message", RANGE_ERRORS,
                         ids=[f"{flag}-{value}" for flag, value, _ in RANGE_ERRORS])
def test_run_range_errors_exit_2_and_name_the_flag(capsys, flag, value, message):
    code = main(["run", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"


# The other forms of the signed values above: joined by "=", after an
# abbreviated flag, or after other flags.
SIGNED_FORMS = [
    (["--psi=-inf"], "--psi must lie in [0, 1] (units of pi), got -inf"),
    (["--ps", "-inf"], "--psi must lie in [0, 1] (units of pi), got -inf"),
    (["--gamma=-nan"], "--gamma must lie in [0, 1], got nan"),
    (["--psi=-1e-3"], "--psi must lie in [0, 1] (units of pi), got -0.001"),
    (["--alpha", "0.5", "--gamma", "-1e-3"], "--gamma must lie in [0, 1], got -0.001"),
]


@pytest.mark.parametrize("words,message", SIGNED_FORMS,
                         ids=[" ".join(words) for words, _ in SIGNED_FORMS])
def test_run_signed_value_reaches_the_range_check_in_every_form(capsys, words, message):
    assert main(["run", *words]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_missing_value_is_still_an_argparse_error(capsys):
    # a following flag or "--" is not a value
    for words in (["--psi", "--gamma", "0.5"], ["--psi", "--", "-1"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *words])
        assert excinfo.value.code == 2
        assert "argument --psi: expected one argument" in capsys.readouterr().err


# ------------------------------------------------------------ sweep

def test_sweep_csv_shape_and_corners(capsys):
    code = main(["sweep", "--quantity", "masfi",
                 "--gamma-grid", "0:1:5", "--epsilon-grid", "0:1:6"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,epsilon,value"
    assert len(lines) == 1 + 30
    assert not out.endswith("\n\n")
    assert out.endswith("\n")
    # row-major, gamma outer: last row is the (1, 1) corner
    assert lines[-1] == "1,1,1"
    assert lines[1] == "0,0,0.5"
    by_key = {tuple(line.split(",")[:2]): float(line.split(",")[2])
              for line in lines[1:]}
    assert by_key[("0.5", "0.8")] == 0.6


def test_sweep_quantity_ranges(capsys):
    for quantity, lo, hi in (("masfi", 0.5, 1.0), ("favmax", 0.5, 1.0),
                             ("fmax", 0.5, 1.0), ("gap", 0.0, 1 / 6)):
        code = main(["sweep", "--quantity", quantity,
                     "--gamma-grid", "0:1:7", "--epsilon-grid", "0:1:7"])
        out = capsys.readouterr().out
        assert code == 0
        values = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
        assert all(lo - 1e-12 <= v <= hi + 1e-12 for v in values)


def test_sweep_gap_zero_at_pure_input(capsys):
    code = main(["sweep", "--quantity", "gap",
                 "--gamma-grid", "1:1:2", "--epsilon-grid", "0:1:9"])
    out = capsys.readouterr().out
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.rsplit(",", 1)[1] == "0"


def test_sweep_jsonl(capsys):
    code = main(["sweep", "--quantity", "favmax", "--format", "jsonl",
                 "--gamma-grid", "0:1:3", "--epsilon-grid", "0:1:3"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 9
    assert set(rows[0]) == {"gamma", "epsilon", "value"}
    assert rows[-1]["value"] == 1.0
    assert abs(rows[2]["value"] - 2 / 3) < 1e-11


def test_sweep_to_file_deterministic(tmp_path):
    args = ["sweep", "--quantity", "masfi", "--gamma-grid", "0:1:21",
            "--epsilon-grid", "0:1:21"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().decode("utf-8").splitlines()[0] == "gamma,epsilon,value"


def test_sweep_unwritable_path_exits_3(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "out.csv"
    code = main(["sweep", "--quantity", "masfi", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 3
    assert "cannot write" in captured.err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_sweep_write_error_part_way_exits_3(capsys):
    # /dev/full takes the file open and fails the first buffered write, after
    # the header and part of the first row have been handed to the writer
    code = main(["sweep", "--quantity", "masfi", "--gamma-grid", "0:1:101",
                 "--epsilon-grid", "0:1:101", "--out", "/dev/full"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write /dev/full: ")


_LARGEST_SWEEP = """\
import resource, sys
from werner_teleport.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = main(["sweep", "--quantity", "masfi", "--format", "jsonl", "--gamma-grid", "0:1:1001",
             "--epsilon-grid", "0:1:1001", "--out", sys.argv[1]])
print(code, before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_largest_sweep_to_file_holds_less_than_its_text(tmp_path):
    # The largest sweep's JSON lines are 57 MB. Built whole and then written,
    # the text took about twice its size (118 MB over the imports' peak);
    # written row by row, the sweep adds its value grids (24 MB) and one row.
    target = tmp_path / "max.jsonl"
    proc = subprocess.run([sys.executable, "-c", _LARGEST_SWEEP, str(target)],
                          capture_output=True, text=True, check=True)
    code, before_kib, peak_kib = map(int, proc.stdout.split())
    text_bytes = target.stat().st_size
    target.unlink()
    assert code == 0
    assert text_bytes > 50e6
    assert (peak_kib - before_kib) * 1024 < text_bytes


def test_sweep_invalid_quantity_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--quantity", "bogus"])
    assert exc.value.code == 2


# sha256 of the sweeps on a grid with non-trivial axes, recorded from the
# scalar implementation that evaluated the quantity one grid point at a time
SWEEP_DIGESTS = {
    ("masfi", "csv"): "25bdcd698816823a38d95d70831db1a44fb73e7bcba22c4892dfa855b66695fe",
    ("masfi", "jsonl"): "7f681fc1bd2ee6e6b08ec8e5e72cbd0ccadb2729a51e600558ace1ec2017f607",
    ("favmax", "csv"): "2b2cdf9ba5893fead0f9fa874613397629996ff6db1570913ba76b7766b89b1d",
    ("favmax", "jsonl"): "ed7b7ff23d6d8fa822433262fbc8f23f59943f32fa03cc7bc90c9244f8539f59",
    ("gap", "csv"): "9cf863e95fa09e7ba58fe5f684c8066227a24b13eb56ae56e3df6d8c6d9acfed",
    ("gap", "jsonl"): "61c848ae26f68271130196579fd1f4a12e90ebdac5c3a63e6a28fb5e20edd761",
    ("fmax", "csv"): "fcd3318686aeb7f6018dedd89199cc683381d2291b5b2d9f156761e1aad0c5ab",
    ("fmax", "jsonl"): "2354b40b4cecb0dc4245fc12f1a3c2d2489a8c971953ea4aac97d415b36c813c",
}


@pytest.mark.parametrize("quantity, fmt", sorted(SWEEP_DIGESTS))
def test_sweep_bytes_are_pinned(capsys, quantity, fmt):
    code = main(["sweep", "--quantity", quantity, "--format", fmt,
                 "--gamma-grid", "0.05:0.95:37", "--epsilon-grid", "0:1:41"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SWEEP_DIGESTS[quantity, fmt]


@pytest.mark.parametrize("quantity, name", [("masfi", "masfi"), ("favmax", "f_av_max"),
                                            ("gap", "fidelity_gap"), ("fmax", "f_max")])
def test_sweep_calls_its_closed_form_once_through_the_module(monkeypatch, quantity, name):
    calls = []
    original = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or original(*args))
    render_sweep(SweepConfig((0.0, 1.0, 5), (0.0, 1.0, 7), quantity, None))
    assert len(calls) == 1
    assert all(np.shape(arg) == (5, 7) for arg in calls[0])


# Axes the digests above do not reach: a single repeated value, values that
# print in exponent notation (5e-10, 1e-09), and the count bound on each axis.
_EDGE_GRIDS = [
    ("0.3:0.3:2", "0.2:0.7:3"),
    ("0.1:0.9:4", "0:1e-9:3"),
    ("0:1e-9:3", "0.3:0.3:2"),
    ("0:1:1001", "0.1:0.9:2"),
    ("0.2:0.8:3", "0:1:1001"),
]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("quantity", sorted(cli._QUANTITIES))
@pytest.mark.parametrize("gamma_grid, epsilon_grid", _EDGE_GRIDS)
def test_sweep_matches_per_cell_formatting(quantity, fmt, gamma_grid, epsilon_grid):
    grids = (cli._parse_grid(gamma_grid, "--gamma-grid"),
             cli._parse_grid(epsilon_grid, "--epsilon-grid"))
    text = render_sweep(SweepConfig(*grids, quantity, None, fmt))
    assert text == sweep_text_per_cell(*grids, cli._QUANTITIES[quantity], fmt)
    assert len(text.splitlines()) == (fmt == "csv") + grids[0][2] * grids[1][2]
    if "1e-9" in gamma_grid + epsilon_grid:
        assert "5e-10" in text and "1e-09" in text


@pytest.mark.parametrize("flag", ["--gamma-grid", "--epsilon-grid"])
def test_sweep_grid_count_is_bounded(capsys, flag):
    other = "--epsilon-grid" if flag == "--gamma-grid" else "--gamma-grid"
    code = main(["sweep", "--quantity", "fmax", flag, "0:1:1001", other, "0:1:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 * 1001
    code = main(["sweep", "--quantity", "fmax", flag, "0:1:1002", other, "0:1:2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} count must be <= 1001, got 1002\n"


@pytest.mark.parametrize("grid", ["0:1", "0:2:5", "1:0:5", "0:1:1", "a:b:c", "0:1:3.0",
                                  "0:1:2.5"])
def test_sweep_bad_grid_exits_2(capsys, grid):
    code = main(["sweep", "--quantity", "masfi", "--gamma-grid", grid])
    captured = capsys.readouterr()
    assert code == 2
    assert "--gamma-grid" in captured.err


# ----------------------------------------------------------- verify

def test_verify_zero_samples_is_usage_error(capsys):
    # 0 is refused by the integer rule, 2.5 by argparse's int: both exit 2,
    # so no TypeError of the integer rule reaches main
    for word in ("0", "2.5"):
        try:
            code = main(["verify", "--samples", word])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2, word
        assert "--samples" in captured.err, word


@pytest.mark.parametrize("argv, message", [
    (["verify", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["verify", "--samples", "0"], "--samples must be >= 1, got 0"),
    (["sweep", "--quantity", "masfi", "--gamma-grid", "0:1:1"],
     "--gamma-grid count must be >= 2, got 1"),
], ids=["seed", "samples", "grid-count"])
def test_integer_flag_below_its_least_exits_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_samples_are_bounded(capsys, monkeypatch):
    import werner_teleport.cli as cli_module
    asked = []

    def fake_verification(seed, samples):
        asked.append(samples)
        return [CheckResult(name="closed-form fidelity vs density-matrix simulation",
                            tolerance=1e-10, worst=0.0)]

    monkeypatch.setattr(cli_module, "run_verification", fake_verification)
    assert main(["verify", "--samples", "1000000"]) == 0
    assert asked == [1000000]
    capsys.readouterr()
    assert main(["verify", "--samples", "1000001"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --samples must be <= 1000000, got 1000001\n"
    assert asked == [1000000]


def test_verify_reports_failure_exit_code(capsys, monkeypatch):
    import werner_teleport.cli as cli_module

    def fake_verification(seed, samples):
        return [CheckResult(name="closed-form fidelity vs density-matrix simulation",
                            tolerance=1e-10, worst=0.5, detail="(alpha=0): 1 vs 0.5")]

    monkeypatch.setattr(cli_module, "run_verification", fake_verification)
    code = main(["verify", "--samples", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    assert "checks FAILED" in captured.err


VERIFY_SEED_9 = """\
[PASS] closed-form fidelity vs density-matrix simulation: worst deviation 3.331e-16 (tolerance 1e-10)
[PASS] outcome probabilities are 1/4 and sum to 1: worst deviation 3.331e-16 (tolerance 1e-12)
[PASS] projected conditional states vs ladder-basis formula: worst deviation 2.220e-16 (tolerance 1e-12)
[PASS] sigma_r conjugation relation between branches: worst deviation 0.000e+00 (tolerance 1e-12)
[PASS] ordering chain masfi <= f_av_max <= f_max with 1/2 floor: worst deviation 1.110e-16 (tolerance 1e-12)
[PASS] sphere-average quadrature vs closed form: worst deviation 4.441e-16 (tolerance 1e-08)
[PASS] nested min-max search vs assured-fidelity formula: worst deviation 0.000e+00 (tolerance 1e-06)
max |F_simulated - F_closed_form| = 3.331e-16
all 7 checks passed
"""


def test_verify_end_to_end(capsys):
    # full pipeline including the 5x5 quadrature and minimax subgrids; the
    # text is the one the scalar closed-form loops printed
    code = main(["verify", "--seed", "9", "--samples", "25"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 7
    assert "max |F_simulated - F_closed_form|" in out
    assert "all 7 checks passed" in out
    assert out == VERIFY_SEED_9


# ------------------------------------------------------- entry point

def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "werner_teleport", "sweep", "--quantity", "fmax",
         "--gamma-grid", "0:1:2", "--epsilon-grid", "0:1:3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "gamma,epsilon,value"
    assert proc.stdout.splitlines()[-1] == "1,1,1"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["run"],
    ["verify", "--samples", "10"],
    ["sweep", "--quantity", "masfi", "--gamma-grid", "0:1:2", "--epsilon-grid", "0:1:2"],
    ["--help"],
], ids=["run", "verify", "sweep", "help"])
def test_unwritable_stdout_exits_3(argv):
    # A short output stays in stdout's buffer until the process ends, so only
    # the flush at exit meets the full device. With PYTHONUNBUFFERED set, each
    # print fails inside main and the exit code comes out right anyway, which
    # would hide a process that ends with code 120.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "werner_teleport", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
