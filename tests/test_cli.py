"""CLI surface: commands, exit codes, output formats, determinism."""

import json

import pytest

from fakemu.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- classify

def test_classify_fig53(capsys):
    code, out, _ = run(["classify", "--eps", "periodic:m=2:[i,-i]"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"] == "PERSISTENT"
    assert rep["c_half"]["re"] == pytest.approx(0.0684338509001, abs=1e-3)
    assert rep["c_half"]["im"] == pytest.approx(0.1036422146372, abs=1e-3)
    assert rep["prime_limit"] == 100000
    assert rep["tail_estimate"] > 0
    assert {"re", "im"} == set(rep["z"])


def test_classify_apparent(capsys):
    code, out, _ = run(["classify", "--eps", "cm:xi=exp(i*pi/3)"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"] == "APPARENT"
    assert abs(rep["re_z_plus_w"]) < 1e-10


def test_classify_parse_error_exit_2(capsys):
    code, _, err = run(["classify", "--eps", "finite:[bogus"], capsys)
    assert code == 2
    assert "parse error" in err


def test_classify_window_error_exit_3(capsys):
    code, _, err = run(
        ["classify", "--eps", "finite:[exp(i*1.8234765819369751),1]"], capsys
    )
    assert code == 3
    assert "window" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--eps", "cm:xi=1", "--format", "csv"],
        ["verify", "--suite", "core", "--n-zeros", "3"],
    ],
)
def test_unread_flags_are_usage_errors(argv, capsys):
    # flags are registered only on the commands that read them
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------- trajectory

def test_trajectory_csv_contract(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, _, _ = run(
        [
            "trajectory", "--eps", "cm:xi=1", "--x-min", "10", "--x-max", "1000",
            "--points", "3", "--mode", "formula", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "x,re_B,im_B,re_B_centered,im_B_centered,mode"
    assert len(lines) == 4
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 6
        assert cells[5] == "FORMULA"
        # 17-significant-digit round trip: re-parsed floats are exact
        x = float(cells[0])
        assert f"{x:.17g}" == cells[0]


def test_trajectory_capacity_exit_4(capsys):
    code, _, err = run(
        [
            "trajectory", "--eps", "cm:xi=1", "--x-min", "10", "--x-max", "2e8",
            "--points", "3", "--mode", "direct",
        ],
        capsys,
    )
    assert code == 4
    assert "capacity" in err


def test_trajectory_deterministic(tmp_path, capsys):
    args = [
        "trajectory", "--eps", "periodic:m=2:[i,-i]", "--x-min", "100",
        "--x-max", "10000", "--points", "5", "--mode", "direct",
    ]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_trajectory_loglog_grid(tmp_path, capsys):
    import math

    out_file = tmp_path / "ll.csv"
    code, _, _ = run(
        [
            "trajectory", "--eps", "cm:xi=1", "--x-min", "10", "--x-max", "1e6",
            "--points", "5", "--grid", "loglog", "--mode", "formula",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    xs = [float(r.split(",")[0]) for r in out_file.read_text().splitlines()[1:]]
    u = [math.log(math.log(x)) for x in xs]
    steps = [b - a for a, b in zip(u, u[1:])]
    assert max(steps) - min(steps) < 1e-9


# ---------------------------------------------------------------- evaluate

def test_evaluate_ones(capsys):
    code, out, _ = run(
        ["evaluate", "--eps", "cm:xi=1", "--x", "100", "--mode", "both"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["direct"]["re"] == pytest.approx(99.50083333194443, abs=1e-3)
    assert rep["total"]["re"] == pytest.approx(100.0, rel=1e-9)
    assert rep["abs_discrepancy"] == pytest.approx(0.5, abs=0.01)
    assert len(rep["per_zero"]) == 30


def test_evaluate_formula_only(capsys):
    code, out, _ = run(
        ["evaluate", "--eps", "finite:[-1]", "--x", "1000", "--mode", "formula"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["direct"] is None
    assert rep["abs_discrepancy"] is None
    assert rep["modes"]["delta_rho"] == "residue"


# ---------------------------------------------------------------- watson

def test_watson_mobius_j1(capsys):
    code, out, _ = run(
        ["watson", "--eps", "finite:[-1]", "--point", "one", "--order", "2"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["coefficients"][0]["re"] == pytest.approx(1.0, rel=1e-9)
    assert rep["coefficients"][0]["im"] == pytest.approx(0.0, abs=1e-10)
    assert len(rep["coefficients"]) == 3


def test_watson_zero_point(capsys):
    code, out, _ = run(
        ["watson", "--eps", "periodic:m=2:[i,-i]", "--point", "zero:1",
         "--order", "1"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert len(rep["coefficients"]) == 2


# ---------------------------------------------------------------- zeros file

def test_classify_with_custom_zeros_file(tmp_path, capsys):
    from fakemu.zeta_kernel import default_zero_table

    table = default_zero_table()
    zf = tmp_path / "zeros.txt"
    zf.write_text("\n".join(f"{g:.17g}" for g in table.ordinates) + "\n")
    code, out, _ = run(
        ["classify", "--eps", "finite:[-1]", "--zeros-file", str(zf)], capsys
    )
    assert code == 0
    assert json.loads(out)["classification"] == "INTEGER_SPECIAL"


# ---------------------------------------------------------------- verify

def test_verify_core_suite_passes(capsys):
    code, out, _ = run(["verify", "--suite", "core"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 7
