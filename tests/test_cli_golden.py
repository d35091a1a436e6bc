"""Byte-for-byte snapshot of the CLI: stdout, stderr, --out bytes, exit code.

Every case in tests/golden/cli.json was recorded once and is compared
exactly, so any change to serialization, flag handling or diagnostics
shows up here.  The file records the output of numpy 2.4 / scipy 1.17 on
an x86-64 Linux build with OpenBLAS 0.3.31.  Every case has N <= 9, so
its chain comes from synthesize's RKPW chase in numpy and its eigenvalues
from numpy's LAPACK eigh; a different numpy, BLAS or LAPACK build may move
the last digits.

Regenerate (only when an output change is intended and explained):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from zetachain.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

BASE = ("--n", "5", "--a", "0.5", "--sigma", "2")
GRID = ("--t-end", "5", "--points", "21")

# (name, argv, writes --out); every case stays at N <= 9 and <= 21 samples
CASES = (
    ("synth_csv_stdout", ("synth",) + BASE, False),
    ("synth_csv_out", ("synth",) + BASE, True),
    ("synth_json_stdout", ("synth", "--format", "json") + BASE, False),
    ("synth_json_out", ("synth", "--format", "json", "--n", "9", "--a", "0.3", "--sigma", "1.7"), True),
    ("synth_json_report_fails", ("synth", "--format", "json", "--tol-overlap", "1e-30") + BASE, False),
    ("synth_n1_csv", ("synth", "--n", "1"), True),
    ("synth_n1_json", ("synth", "--n", "1", "--format", "json"), False),
    ("synth_bad_sigma_exit2", ("synth", "--sigma", "0.9"), False),
    ("synth_bad_n_exit2", ("synth", "--n", "0"), True),
    ("verify_pass", ("verify",) + BASE, False),
    ("verify_pass_out_ignored", ("verify", "--n", "9", "--a", "0.3", "--sigma", "1.7"), True),
    ("verify_n1", ("verify", "--n", "1"), False),
    ("verify_fail_overlap_exit1", ("verify", "--tol-overlap", "1e-30") + BASE, False),
    ("verify_fail_lambda_exit1", ("verify", "--tol-lambda", "1e-30") + BASE, False),
    ("simulate_csv_stdout", ("simulate",) + BASE + GRID, False),
    ("simulate_csv_out", ("simulate", "--omega", "0.7") + BASE + GRID, True),
    ("simulate_json_out", ("simulate", "--format", "json") + BASE + GRID, True),
    ("simulate_ode_csv", ("simulate", "--method", "ode", "--step", "0.01", "--t-end", "1", "--points", "11") + BASE, True),
    ("simulate_ode_json", ("simulate", "--method", "ode", "--format", "json", "--t-end", "0.5", "--points", "6"), False),
    ("simulate_t_coh", ("simulate", "--t-coh", "2", "--t-start", "-1") + BASE + GRID, True),
    ("simulate_empty_window_exit2", ("simulate", "--t-start", "5", "--t-coh", "1", "--points", "5"), False),
    ("simulate_n1", ("simulate", "--n", "1", "--t-end", "2", "--points", "5"), False),
    ("simulate_guard_band_exit4", ("simulate", "--sigma", "1.0000001", "--points", "3"), True),
    ("simulate_ode_step_exit3", ("simulate", "--method", "ode", "--step", "2", "--t-end", "10", "--points", "3"), True),
    ("simulate_bad_grid_exit2", ("simulate", "--points", "1"), False),
    ("simulate_t_end_inf_exit2", ("simulate", "--t-end", "inf"), True),
    ("simulate_omega_inf_exit2", ("simulate", "--omega", "inf"), False),
    ("domain_default", ("domain",), False),
    ("domain_sigma", ("domain", "--sigma", "1.3", "--t-coh", "4"), False),
    ("domain_sigmas_t_coh", ("domain", "--sigmas", "1.3", "--t-coh", "4"), False),
    ("domain_grid_out", ("domain", "--sigmas", "1.5,1.3,1.2,2", "--t-coh", "10"), True),
    ("domain_n_cap", ("domain", "--sigmas", "1.2,1.5", "--n-cap", "100"), False),
    ("domain_bad_sigmas_exit2", ("domain", "--sigmas", "1.5,x"), False),
    ("domain_out_of_strip", ("domain", "--sigmas", "0.5"), False),
    ("design_waveguide_stdout", ("design",) + BASE, False),
    ("design_waveguide_out", ("design", "--kappa", "3", "--alpha", "0.5", "--radius", "1000",
                              "--lambda", "0.01", "--ns", "1.45", "--n", "7"), True),
    ("design_spin_out", ("design", "--target", "spin") + BASE, True),
    ("design_spin_n1", ("design", "--target", "spin", "--n", "1"), False),
    ("design_kappa_exit5", ("design", "--kappa", "0.4") + BASE, True),
    ("design_tilt_exit5", ("design", "--radius", "1e6") + BASE, False),
    ("design_radius_exit2", ("design", "--radius", "1") + BASE, False),
)


def run_case(argv, out_path):
    """Run one CLI invocation in-process and return its observable result."""
    args = list(argv) + (["--out", str(out_path)] if out_path is not None else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args)
    out = None
    if out_path is not None and Path(out_path).exists():
        out = Path(out_path).read_bytes().decode()
    return {"exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "out": out}


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,argv,to_file", CASES, ids=[c[0] for c in CASES])
def test_cli_matches_golden(name, argv, to_file, tmp_path):
    expected = _golden()[name]
    assert expected["argv"] == list(argv)
    got = run_case(argv, tmp_path / "out" if to_file else None)
    assert got["exit_code"] == expected["exit_code"]
    assert got["stdout"] == expected["stdout"]
    assert got["stderr"] == expected["stderr"]
    assert got["out"] == expected["out"]


def test_golden_covers_every_case_and_exit_code():
    golden = _golden()
    assert sorted(golden) == sorted(c[0] for c in CASES)
    assert {case["exit_code"] for case in golden.values()} == {0, 1, 2, 3, 4, 5}


if __name__ == "__main__":
    import tempfile

    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, to_file in CASES:
            out_path = Path(tmp) / name if to_file else None
            doc[name] = {"argv": list(argv), **run_case(argv, out_path)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
