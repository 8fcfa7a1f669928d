"""CLI surface: commands, exit codes, output formats, determinism."""

import json
import re

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


@pytest.mark.parametrize("text", ["cm:xi=1", "cm:xi=-1"])
def test_classify_tail_zero_where_G_is_one(text, capsys):
    # every a_k is 0: what is left is the Cauchy remainder, ~3e-136
    code, out, _ = run(["classify", "--eps", text], capsys)
    assert code == 0
    assert 0.0 <= json.loads(out)["tail_estimate"] <= 1e-90


def test_classify_infinite_tail_is_json_null(capsys):
    # P^{-1/2} = 0.5 >= 0.45 at P = 4: the bound is inf, written as null,
    # so the output is strict JSON
    code, out, _ = run(
        ["classify", "--eps", "periodic:m=2:[i,-i]", "--prime-limit", "4"], capsys
    )
    assert code == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    assert json.loads(out, parse_constant=reject)["tail_estimate"] is None


def test_classify_at_a_zero_of_a_local_factor(capsys):
    # g(2^{-1/2}) ~ 2e-16 for this in-window spec, so G(1/2) and c_1/2 are 0
    # to rounding; the label follows from Re(z+w) = -1.473 alone
    text = "finite:[exp(i*-2.65489769851502),exp(i*2.4188584057763776)]"
    code, out, _ = run(["classify", "--eps", text], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"] == "UNBOUNDED"
    assert abs(complex(rep["c_half"]["re"], rep["c_half"]["im"])) <= 1e-14


def test_classify_takes_logs_only_at_the_explicit_primes(capsys, monkeypatch):
    # G(1/2) takes three logs at each of its 46 explicit primes; the tail
    # bound takes none
    from fakemu import euler_residual

    sizes = []
    log_terms = euler_residual._log_terms

    def spy(spec, s, logp):
        sizes.append(logp.size)
        return log_terms(spec, s, logp)

    monkeypatch.setattr(euler_residual, "_log_terms", spy)
    code, _, _ = run(["classify", "--eps", "periodic:m=2:[i,-i]"], capsys)
    assert code == 0
    assert sizes == [46]


def test_contour_below_re_s_min_is_a_domain_error(capsys):
    # G_f is read down to Re s = a, and it needs Re s >= 0.35
    code, _, err = run(
        ["evaluate", "--eps", "periodic:m=2:[i,-i]", "--x", "1e3", "--a", "0.34"], capsys
    )
    assert code == 1
    assert "a must be >= 0.35" in err


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


W_ONE = "finite:[exp(i*1.3181160716528177),exp(i*0.8127555613686607)]"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["evaluate", "--eps", W_ONE, "--x", "1e4"], 3),
        (["trajectory", "--eps", W_ONE, "--x-min", "10", "--x-max", "1000", "--points", "3"], 3),
        (["classify", "--eps", W_ONE], 0),
        (["trajectory", "--eps", W_ONE, "--x-min", "10", "--x-max", "1000", "--points", "3",
          "--mode", "formula", "--n-zeros", "2"], 0),
    ],
    ids=["evaluate", "direct-trajectory", "classify", "formula-trajectory"],
)
def test_w_one_at_non_integer_z_exit_codes(argv, want, capsys):
    # w = 1, z = 1/4 + i sqrt(15)/4: Delta_1 is a quadrature that diverges at
    # u = 1/2, so what reads it is a window error; c_1/2 and the FORMULA
    # B(x) take the residue at 1/2 and no Delta_1
    code, out, err = run(argv, capsys)
    assert code == want, err
    if want == 3:
        assert err.startswith("window error:") and err.count("\n") == 1, err
        assert out == ""


def test_window_error_exits_before_the_sieve(monkeypatch, capsys):
    # Delta_1 of W_ONE is a window error: evaluate and a DIRECT trajectory
    # exit 3 without sieving, however large x is
    from fakemu import sieve

    def no_sieve(*args):
        raise AssertionError("the sieve ran")

    monkeypatch.setattr(sieve, "_sweep", no_sieve)
    for argv in (
        ["evaluate", "--eps", W_ONE, "--x", "1e6"],
        ["trajectory", "--eps", W_ONE, "--x-min", "10", "--x-max", "1e6", "--points", "3"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 3 and err.startswith("window error:") and out == "", err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--eps", "cm:xi=1", "--format", "csv"],
        ["verify", "--suite", "core", "--n-zeros", "3"],
        # c_1/2 reads only J_1/2(0), and a Watson ring J on |u| = 0.05
        ["classify", "--eps", "cm:xi=1", "--n-zeros", "200"],
        ["classify", "--eps", "cm:xi=1", "--a", "0.4"],
        ["classify", "--eps", "cm:xi=1", "--zeros-file", "zeros.txt"],
        ["watson", "--eps", "cm:xi=1", "--point", "zero:1", "--n-zeros", "2"],
        ["watson", "--eps", "cm:xi=1", "--point", "half", "--a", "0.4"],
    ],
)
def test_unread_flags_are_usage_errors(argv, capsys):
    # flags are registered only on the commands that read them
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_back_to_back_calls_share_no_state(capsys):
    # the parser is built once per process; each call starts from defaults
    code, out, _ = run(
        ["classify", "--eps", "cm:xi=1", "--prime-limit", "1000"], capsys
    )
    assert code == 0 and json.loads(out)["prime_limit"] == 1000
    code, out, _ = run(["classify", "--eps", "cm:xi=1"], capsys)
    assert code == 0 and json.loads(out)["prime_limit"] == 100000
    code, out, _ = run(
        ["evaluate", "--eps", "cm:xi=1", "--x", "100", "--mode", "formula",
         "--n-zeros", "1"], capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["direct"] is None and len(rep["per_zero"]) == 1
    code, out, _ = run(["evaluate", "--eps", "cm:xi=1", "--x", "100"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["direct"] is not None and len(rep["per_zero"]) == 30


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


def test_trajectory_json_matches_csv(tmp_path, capsys):
    # the JSON of a run carries the CSV's x, B, B_centered and mode, each
    # float exactly: repr in the JSON, 17 significant digits in the CSV
    args = [
        "trajectory", "--eps", "periodic:m=2:[i,-i]", "--x-min", "100",
        "--x-max", "10000", "--points", "4", "--mode", "formula", "--n-zeros", "2",
    ]
    csv_file, json_file = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(args + ["--out", str(csv_file)]) == 0
    assert main(args + ["--format", "json", "--out", str(json_file)]) == 0
    capsys.readouterr()
    rows = [row.split(",") for row in csv_file.read_text().strip().splitlines()[1:]]
    samples = json.loads(json_file.read_text())
    assert len(samples) == len(rows) == 4
    for row, s in zip(rows, samples):
        assert set(s) == {"x", "B", "B_centered", "mode"}
        got = [s["x"], s["B"]["re"], s["B"]["im"], s["B_centered"]["re"], s["B_centered"]["im"]]
        assert got == [float(cell) for cell in row[:5]]
        assert s["mode"] == row[5] == "FORMULA"
        assert s["B_centered"] != s["B"]  # c_1/2 of this spec is not 0


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

def test_watson_with_custom_zeros_file(tmp_path, capsys):
    # the builtin table written out and read back gives the same bits
    from fakemu.zeta_kernel import default_zero_table

    table = default_zero_table()
    zf = tmp_path / "zeros.txt"
    zf.write_text("\n".join(f"{g:.17g}" for g in table.ordinates) + "\n")
    argv = ["watson", "--eps", "periodic:m=2:[i,-i]", "--point", "zero:1", "--order", "2"]
    code, builtin, _ = run(argv, capsys)
    assert code == 0
    code, out, _ = run(argv + ["--zeros-file", str(zf)], capsys)
    assert code == 0
    assert out == builtin


# ---------------------------------------------------------------- verify

def test_verify_core_suite_passes(capsys):
    code, out, _ = run(["verify", "--suite", "core"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 11
    assert "PASS core:log-zeta-principal" in out
    assert "PASS core:log-G-coefficients" in out
    assert "PASS core:array-kernels" in out
    assert "PASS core:zeta-prime" in out
    # each check line and the suite line end with a wall time
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all(re.search(r" \(\d+\.\d{3} s\)$", line) for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--eps", "finite:[-1]", "--x", "nan"],
        ["evaluate", "--eps", "finite:[-1]", "--x", "nan", "--mode", "formula"],
        ["evaluate", "--eps", "finite:[-1]", "--x", "inf", "--mode", "formula"],
        ["evaluate", "--eps", "finite:[-1]", "--x", "inf", "--mode", "direct"],
        ["classify", "--eps", "cm:xi=exp(i*1e400)"],
        ["classify", "--eps", "quadphase:alpha=1e400"],
        ["watson", "--eps", "periodic:m=2:[i,-i]", "--point", "zero:abc"],
        ["trajectory", "--eps", "finite:[-1]", "--x-min", "nan", "--x-max", "100",
         "--points", "5"],
        ["trajectory", "--eps", "finite:[-1]", "--x-min", "10", "--x-max", "inf",
         "--points", "5", "--mode", "formula"],
        ["evaluate", "--eps", "finite:[-1]", "--x", "1e3", "--zeros-file",
         "/nonexistent/zeros.txt"],
        ["evaluate", "--eps", "finite:[-1]", "--x", "1e3", "--zeros-file",
         "{non-numeric-line}"],
        ["evaluate", "--eps", "finite:[-1]", "--x", "1e3", "--zeros-file",
         "{not-utf8}"],
    ],
    ids=["evaluate-nan", "formula-nan", "formula-inf", "direct-inf", "cm-xi-nan",
         "quadphase-alpha-inf", "watson-point", "trajectory-nan", "trajectory-inf",
         "missing-zeros-file", "non-numeric-zeros-file", "non-utf8-zeros-file"],
)
def test_malformed_input_is_a_domain_error_exit_1(argv, capsys, tmp_path):
    # a typed error: exit 1, one "error:" line, no traceback and no NaN output
    files = {
        "{non-numeric-line}": b"14.134725141734694\nnot-a-zero\n",
        "{not-utf8}": b"14.134725141734694\n\xff21.022039638771555\n",
    }
    if argv[-1] in files:
        path = tmp_path / "zeros.txt"
        path.write_bytes(files[argv[-1]])
        argv = argv[:-1] + [str(path)]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("point", ["zero:0", "zero:101"])
def test_watson_zero_index_outside_table_exit_1(point, capsys):
    code, _, err = run(
        ["watson", "--eps", "periodic:m=2:[i,-i]", "--point", point], capsys
    )
    assert code == 1
    assert err.startswith("error:")
    assert "outside table" in err
