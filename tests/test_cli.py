import json
import subprocess
import sys

import pytest

from werner_teleport.cli import main
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
]


@pytest.mark.parametrize("flag,value,message", RANGE_ERRORS,
                         ids=[f"{flag}-{value}" for flag, value, _ in RANGE_ERRORS])
def test_run_range_errors_exit_2_and_name_the_flag(capsys, flag, value, message):
    code = main(["run", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"


def test_run_negative_word_value_is_taken_for_an_option(capsys):
    # "-inf" as its own word looks like an option to argparse, which stops
    # before the range table with its own message; "--psi=-inf" reaches the
    # table. The exit code is 2 either way.
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--psi", "-inf"])
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert "argument --psi: expected one argument" in err
    assert main(["run", "--psi=-inf"]) == 2
    assert capsys.readouterr().err == (
        "error: --psi must lie in [0, 1] (units of pi), got -inf\n")


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


def test_sweep_invalid_quantity_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--quantity", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("grid", ["0:1", "0:2:5", "1:0:5", "0:1:1", "a:b:c"])
def test_sweep_bad_grid_exits_2(capsys, grid):
    code = main(["sweep", "--quantity", "masfi", "--gamma-grid", grid])
    captured = capsys.readouterr()
    assert code == 2
    assert "--gamma-grid" in captured.err


# ----------------------------------------------------------- verify

def test_verify_zero_samples_is_usage_error(capsys):
    code = main(["verify", "--samples", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--samples" in captured.err


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


def test_verify_end_to_end(capsys):
    # full pipeline including the 5x5 quadrature and minimax subgrids
    code = main(["verify", "--seed", "9", "--samples", "25"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 7
    assert "max |F_simulated - F_closed_form|" in out
    assert "all 7 checks passed" in out


# ------------------------------------------------------- entry point

def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "werner_teleport", "sweep", "--quantity", "fmax",
         "--gamma-grid", "0:1:2", "--epsilon-grid", "0:1:3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "gamma,epsilon,value"
    assert proc.stdout.splitlines()[-1] == "1,1,1"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
