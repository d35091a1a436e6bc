import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import zetachain
from zetachain import hurwitz_zeta, synthesis, tail_bound, zetaref
from zetachain import cli
from zetachain.cli import main

GOLDEN_DIAG = [-0.479, 0.701, 0.894, 1.062, 1.208]
GOLDEN_OFF = [0.520, 0.445, 0.311, 0.198]


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def one_json_line(capsys, code):
    """Assert an empty stdout and exactly one JSON diagnostic line on stderr; return it."""
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.strip().split("\n")
    assert len(err_lines) == 1
    diag = json.loads(err_lines[0])
    assert diag["exit_code"] == code
    return diag


def test_synth_golden_csv(tmp_path, capsys):
    out = tmp_path / "chain.csv"
    code = main(["synth", "--n", "5", "--a", "0.5", "--sigma", "2", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["index", "B", "J_next"]
    b = [float(r[1]) for r in rows]
    j = [float(r[2]) for r in rows[:-1]]
    np.testing.assert_allclose(b, GOLDEN_DIAG, atol=2e-3)
    np.testing.assert_allclose(j, GOLDEN_OFF, atol=2e-3)
    assert rows[-1][2] == ""
    assert "PASS" in capsys.readouterr().out


def test_synth_single_site(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["synth", "--n", "1", "--a", "1", "--sigma", "2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0][1]) == 0.0


def test_synth_json_format(tmp_path):
    out = tmp_path / "chain.json"
    assert main(["synth", "--n", "5", "--a", "0.5", "--sigma", "2",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    np.testing.assert_allclose(doc["diagonal"], GOLDEN_DIAG, atol=2e-3)
    np.testing.assert_allclose(doc["offdiagonal"], GOLDEN_OFF, atol=2e-3)
    assert doc["report"]["passed"] is True


def test_synth_rejects_bad_sigma(capsys):
    code = main(["synth", "--n", "5", "--a", "1", "--sigma", "0.9"])
    assert code == 2
    captured = capsys.readouterr()
    err_lines = captured.err.strip().split("\n")
    assert len(err_lines) == 1
    diag = json.loads(err_lines[0])
    assert diag["exit_code"] == 2
    assert "sigma" in diag["message"]


def test_synth_deterministic_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["synth", "--n", "7", "--a", "0.5", "--sigma", "1.7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_passes_on_valid_params(capsys):
    assert main(["verify", "--n", "10", "--a", "0.5", "--sigma", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_simulate_zero_time_row(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "5", "--a", "1", "--sigma", "2",
                 "--t-end", "5", "--points", "11", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "re_a", "im_a", "abs_a",
                      "re_zeta_norm_ref", "im_zeta_norm_ref", "abs_deviation"]
    first = [float(v) for v in rows[0]]
    assert first[0] == 0.0
    assert abs(first[1] - 1.0) < 1e-12 and abs(first[2]) < 1e-12
    assert abs(first[4] - 1.0) < 1e-12 and abs(first[5]) < 1e-12
    assert first[6] < 1e-12


def test_simulate_deviation_bounded_by_tail(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "5", "--a", "1", "--sigma", "2",
                 "--t-end", "50", "--points", "201", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    bound = 2.0 * tail_bound(2.0, 1.0, 5) / abs(hurwitz_zeta(2.0, 1.0))
    assert all(float(r[6]) <= bound for r in rows)


@pytest.mark.parametrize("omega", ["0.7", "2.5"])
@pytest.mark.parametrize("method,t_end", [("spectral", "50"), ("ode", "10")])
def test_simulate_omega_deviation_bounded_by_tail(omega, method, t_end, tmp_path):
    # simulate evolves omega * H, so a(t) and the reference share s = sigma + i omega t
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "64", "--a", "1", "--sigma", "3", "--omega", omega,
                 "--method", method, "--t-end", t_end, "--points", "201", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[-1][0]) == float(t_end)
    bound = 2.0 * tail_bound(3.0, 1.0, 64) / zetaref._head(3.0, 1.0, 64).real + 1e-12
    assert max(float(r[6]) for r in rows) <= bound


def test_simulate_methods_agree(tmp_path):
    spec = tmp_path / "spec.csv"
    ode = tmp_path / "ode.csv"
    base = ["simulate", "--n", "5", "--a", "0.5", "--sigma", "2",
            "--t-end", "5", "--points", "51"]
    assert main(base + ["--method", "spectral", "--out", str(spec)]) == 0
    assert main(base + ["--method", "ode", "--step", "1e-3", "--out", str(ode)]) == 0
    _, rows_s = read_csv(spec)
    _, rows_o = read_csv(ode)
    for rs, ro in zip(rows_s, rows_o):
        da = math.hypot(float(rs[1]) - float(ro[1]), float(rs[2]) - float(ro[2]))
        assert da < 1e-6


def test_simulate_sigma_in_guard_band_exits_4(capsys):
    code = main(["simulate", "--n", "5", "--a", "1", "--sigma", "1.0000001"])
    assert code == 4
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert json.loads(err[0])["exit_code"] == 4


def test_domain_reference_values(tmp_path):
    out = tmp_path / "domain.csv"
    assert main(["domain", "--sigmas", "1.5,1.3,1.2,2", "--t-coh", "10",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    n_mins = [float(r[1]) for r in rows]
    assert abs(n_mins[0] - 4.0) < 1e-12
    assert 55.0 <= n_mins[1] < 56.0
    assert abs(n_mins[2] - 3125.0) < 1e-6
    assert n_mins[3] == 1.0
    assert all(r[2:] == ["1", "10"] for r in rows)


def test_domain_unbounded_window(tmp_path):
    out = tmp_path / "domain.csv"
    assert main(["domain", "--sigmas", "2,3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert abs(float(rows[1][1]) - 2.0**-0.5) < 1e-15
    assert all(r[2:] == ["1", "inf"] for r in rows)


def test_domain_saturates_near_one(capsys):
    # n_min(1.000001) overflows to inf, so the row sits at the cap as infeasible
    assert main(["domain", "--sigmas", "1.000001", "--n-cap", "1000000"]) == 0
    _, n_min, feasible, t_max = capsys.readouterr().out.splitlines()[1].split(",")
    assert (float(n_min), feasible, t_max) == (1e6, "0", "inf")


def test_design_waveguide_json(tmp_path):
    out = tmp_path / "design.json"
    assert main(["design", "--n", "5", "--a", "0.5", "--sigma", "2",
                 "--kappa", "2", "--alpha", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["guides"]) == 5
    assert len(doc["bonds"]) == 4
    np.testing.assert_allclose(
        [b["J"] for b in doc["bonds"]], GOLDEN_OFF, atol=2e-3
    )


def test_design_infeasible_kappa_exits_5(capsys):
    code = main(["design", "--n", "5", "--a", "0.5", "--sigma", "2", "--kappa", "0.4"])
    assert code == 5
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    diag = json.loads(err[0])
    assert diag["exit_code"] == 5
    assert "0.52" in diag["message"]


def test_design_spin_target_csv(tmp_path):
    out = tmp_path / "spin.csv"
    assert main(["design", "--n", "5", "--a", "0.5", "--sigma", "2",
                 "--target", "spin", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    b = [float(r[1]) for r in rows]
    j = [float(r[2]) for r in rows[:-1]]
    np.testing.assert_allclose(b, GOLDEN_DIAG, atol=2e-3)
    np.testing.assert_allclose(j, GOLDEN_OFF, atol=2e-3)


# flags each subcommand used to accept and ignore; they are now usage errors
REMOVED_FLAGS = [
    ["verify", "--format", "json"],
    ["simulate", "--tol-lambda", "1e-9"],
    ["simulate", "--tol-overlap", "1e-9"],
    ["domain", "--n", "5"],
    ["domain", "--a", "1"],
    ["domain", "--omega", "1"],
    ["domain", "--format", "json"],
    ["domain", "--tol-lambda", "1e-9"],
    ["domain", "--tol-overlap", "1e-9"],
    ["design", "--format", "json"],
    ["design", "--tol-lambda", "1e-9"],
    ["design", "--tol-overlap", "1e-9"],
    ["synth", "--omega", "1"],
    ["verify", "--omega", "1"],
    ["design", "--omega", "1"],
    ["domain", "--sigma", "2"],
]


@pytest.mark.parametrize("argv", [["bogus"], [], ["synth", "--n", "x"]] + REMOVED_FLAGS + [["domain", "--sigmas", ","]])
def test_usage_errors_exit_2_with_one_json_line(argv, capsys):
    assert main(argv) == 2
    assert one_json_line(capsys, 2)["error"] == "ValidationError"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--help"])
    assert exc.value.code == 0
    assert "--tol-overlap" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--t-end", "inf"],
        ["simulate", "--t-start=-inf"],
        ["simulate", "--t-end", "nan"],
        ["simulate", "--omega", "inf"],
        ["simulate", "--sigma", "inf"],
        ["verify", "--sigma", "inf"],
        ["design", "--omega", "nan"],
        ["simulate", "--omega", "1.7e308", "--points", "3"],
        # non-finite fabrication constants, an infinite sigma, a cap below one site
        ["design", "--n", "3", "--ns", "inf"],
        ["design", "--n", "3", "--kappa", "inf"],
        ["design", "--n", "3", "--radius", "inf"],
        ["design", "--n", "3", "--lambda", "inf"],
        ["domain", "--sigmas", "inf"],
        ["domain", "--n-cap", "-3"],
        ["simulate", "--method", "ode", "--step", "inf"],
        ["domain", "--t-coh", "nan"],
        ["domain", "--t-coh", "-1"],
    ],
)
def test_non_finite_input_exits_2_with_one_json_line(argv, capsys):
    assert main(argv) == 2
    assert one_json_line(capsys, 2)["error"] == "ValidationError"


# a NaN or non-positive tolerance used to fail every chain (exit 1), an infinite one passed every chain
@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("flag", ["--tol-lambda", "--tol-overlap"])
@pytest.mark.parametrize("command", ["synth", "verify"])
def test_tolerance_not_positive_and_finite_exits_2(command, flag, value, capsys):
    assert main([command, flag, value]) == 2
    diag = one_json_line(capsys, 2)
    assert diag["error"] == "ValidationError"
    assert "must be positive and finite" in diag["message"]


@pytest.mark.parametrize("method", ["spectral", "ode"])
def test_overflowing_window_length_exits_2_naming_it(method, capsys):
    # finite ends whose distance overflows: linspace would give NaN sample times, and the
    # diagnostic would blame a NaN s or a NaN sub-step count instead of the window
    assert main(["simulate", "--t-start", "-1e308", "--t-end", "1e308", "--points", "3", "--method", method]) == 2
    diag = one_json_line(capsys, 2)
    assert diag["error"] == "ValidationError"
    assert "window length t_end - t_start overflows" in diag["message"]


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--t-start", "-1e308"),
        ("--t-start", "-1e1"),
        ("--omega", "-1e-3"),
        ("--t-end", "-2.5E+1"),
        ("--sigma", "-.5e1"),
        ("--t-start", "-inf"),
        ("--omega", "-nan"),
        ("--t-end", "-Infinity"),
    ],
)
def test_negative_value_in_exponent_form_reads_as_with_equals(flag, value, capsys):
    base = ["simulate", "--n", "3", "--points", "3"]
    code = main(base + [f"{flag}={value}"])
    with_equals = capsys.readouterr()
    assert main(base + [flag, value]) == code
    assert capsys.readouterr() == with_equals
    assert "expected one argument" not in with_equals.err


@pytest.mark.parametrize(
    "argv",
    [
        # 1 / 1e-320 overflows the sub-step count to inf
        ["simulate", "--n", "3", "--t-end", "1", "--points", "3", "--method", "ode", "--step", "1e-320"],
        # 1e300 sub-steps: refused before the first one
        ["simulate", "--n", "3", "--t-end", "1", "--points", "3", "--method", "ode", "--step", "1e-300"],
        ["simulate", "--n", "3", "--t-end", "1e300", "--points", "3", "--method", "ode"],
    ],
)
def test_rk4_step_count_limit_exits_2_before_stepping(argv, capsys):
    assert main(argv) == 2
    diag = one_json_line(capsys, 2)
    assert diag["error"] == "ValidationError"
    assert "RK4 sub-steps" in diag["message"]


def test_memory_error_exits_2_with_one_json_line(monkeypatch, capsys):
    # stands in for numpy refusing `--points 100000000000`, without allocating anything
    message = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "evolve_spectral", refuse)
    assert main(["simulate", "--n", "3", "--points", "3"]) == 2
    diag = one_json_line(capsys, 2)
    assert diag["error"] == "ValidationError"
    assert diag["message"] == message


@pytest.mark.parametrize("target", ["missing_dir/out.txt", "."], ids=["missing_dir", "directory"])
@pytest.mark.parametrize(
    "argv",
    [["synth"], ["simulate", "--points", "3"], ["domain"], ["design"]],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_2_with_one_json_line(argv, target, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / target)]) == 2
    assert one_json_line(capsys, 2)["error"] == "ValidationError"


def test_oracle_term_limit_exits_4(capsys):
    assert main(["simulate", "--omega", "1e300", "--points", "3"]) == 4
    assert one_json_line(capsys, 4)["error"] == "OutOfDomain"


def test_oracle_term_limit_names_a_finite_count(capsys):
    assert main(["simulate", "--omega", "1e300", "--points", "3"]) == 4
    message = one_json_line(capsys, 4)["message"]
    count = float(message.split(" needs ")[1].split(" ")[0])
    assert math.isfinite(count)


def test_oracle_overflow_exits_4(capsys):
    # zeta(1100, 0.5) > 2**1100 exceeds double range; the reference columns were NaN
    assert main(["simulate", "--n", "1", "--a", "0.5", "--sigma", "1100", "--points", "3"]) == 4
    assert "overflows" in one_json_line(capsys, 4)["message"]


def test_oracle_at_a_1_and_huge_sigma_exits_0(capsys):
    # zeta(1e200, 1) = 1: the reference columns are finite, unlike zeta(1100, 0.5) above
    assert main(["simulate", "--n", "1", "--a", "1", "--sigma", "1e200", "--points", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_ode_overflow_names_a_time_before_the_first_sample(capsys):
    # default window [0, 50] at 3 points: the first sample after t = 0 is 25
    assert main(["simulate", "--omega", "1e300", "--points", "3", "--method", "ode"]) == 3
    message = one_json_line(capsys, 3)["message"]
    assert float(message.split("by t = ")[1].split(";")[0]) < 25.0


def test_ode_overflow_between_samples_exits_3_naming_its_time(capsys):
    # RK4 at step 3 is unstable on this chain: the state overflows between the two samples,
    # and the finiteness check every 256 sub-steps names the time
    argv = ["simulate", "--method", "ode", "--step", "3", "--t-end", "3000", "--points", "2", "--n", "5", "--a", "0.5"]
    assert main(argv) == 3
    diag = one_json_line(capsys, 3)
    assert diag["error"] == "StepTooLarge"
    assert diag["message"] == "state overflowed to a non-finite value by t = 1536.0; reduce the step"


# a 401-digit integer, and counts above 2**53, raised OverflowError or IndexError out of main
HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv,name",
    [
        (["synth", "--n", HUGE], "n_levels"),
        (["simulate", "--points", HUGE], "n_points"),
        (["simulate", "--points", "9223372036854775807"], "n_points"),
        (["simulate", "--points", "4611686018427387904"], "n_points"),
        (["domain", "--sigmas", "1.000001", "--n-cap", HUGE], "n_cap"),
    ],
    ids=["synth_n", "simulate_points", "simulate_points_int64_max", "simulate_points_2_62", "domain_n_cap"],
)
def test_oversized_integer_flag_exits_2_with_one_json_line(argv, name, capsys):
    assert main(argv) == 2
    diag = one_json_line(capsys, 2)
    assert diag["error"] == "ValidationError"
    assert diag["message"].startswith(f"{name} must be a positive integer no larger than 2**53, got ")


@pytest.mark.parametrize(
    "argv,error",
    [
        # J_0 = 1.374e-31, below the 1e-12 floor
        (["synth", "--n", "30", "--a", "0.1", "--sigma", "60"], "DisconnectedChain"),
        # (n + a)**(-sigma) would overflow here (sigma * log10(1/a) = 400 > 308)
        (["synth", "--n", "30", "--a", "0.01", "--sigma", "200"], "DisconnectedChain"),
        (["verify", "--n", "30", "--a", "0.01", "--sigma", "200"], "DisconnectedChain"),
        # RK4 at step 1e-3 overflows to NaN under omega * H
        (["simulate", "--omega", "1e300", "--points", "3", "--method", "ode"], "StepTooLarge"),
    ],
)
def test_numerical_breakdown_exits_3_with_one_json_line(argv, error, capsys):
    assert main(argv) == 3
    assert one_json_line(capsys, 3)["error"] == error


def test_extreme_sigma_single_site_exits_0():
    assert main(["synth", "--n", "1", "--a", "0.01", "--sigma", "200"]) == 0


@pytest.mark.parametrize("command", ["synth", "verify", "simulate", "design"])
def test_oversized_chain_exits_2_naming_largest_n(command, monkeypatch, capsys):
    # a small memory figure, so the check fires without allocating anything
    monkeypatch.setattr(synthesis, "_physical_memory", lambda: 2**20)
    assert main([command, "--n", "1000000"]) == 2
    diag = one_json_line(capsys, 2)
    assert diag["error"] == "ValidationError"
    assert "largest feasible N is 209" in diag["message"]


def test_cli_import_leaves_scipy_linalg_unloaded():
    # domain, --help and usage errors never call LAPACK, so they should not pay for importing it
    src = os.path.dirname(os.path.dirname(zetachain.__file__))
    code = "import sys, zetachain.cli; sys.exit('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("command", ["synth", "verify", "simulate", "design"])
def test_short_chains_leave_scipy_linalg_unloaded(command, n, tmp_path):
    # numpy synthesizes at every N; up to verification._NUMPY_MAX_N = 16 sites it also
    # diagonalizes, from 17 LAPACK does; design never diagonalizes
    src = os.path.dirname(os.path.dirname(zetachain.__file__))
    code = (
        "import sys\n"
        "from zetachain.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'scipy.linalg' in sys.modules, file=sys.stderr)\n"
    )
    argv = [command, "--n", str(n), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stderr.split() == ["0", str(n > 16 and command != "design")]
