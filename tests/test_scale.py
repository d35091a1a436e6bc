"""The scale target N = n_min(1.2) = 3125 end to end, and smoke runs of the demos."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_synthesis import _stepwise_chain
from zetachain import SimulationParams, lanczos_synthesis, log_spectrum, riemann_amplitudes, synthesize
from zetachain.cli import main

REPO = Path(__file__).resolve().parent.parent


def _gap(tri, other):
    return max(np.abs(tri.diagonal - other.diagonal).max(), np.abs(tri.offdiagonal - other.offdiagonal).max())


def test_chain_matches_both_routes_at_scale():
    p = SimulationParams(3125, 0.5, 1.2)
    energies, amplitudes = log_spectrum(p), riemann_amplitudes(p)
    chain = synthesize(p)
    # RKPW vs the bordered dsytrd oracle: measured 4.1e-13
    assert _gap(chain, lanczos_synthesis(energies, amplitudes)) < 1e-10
    # the stepwise route (GEMM seed, Householder reduction): measured 7.2e-13
    assert _gap(chain, _stepwise_chain(p)) < 6e-12


def test_verify_passes_at_scale():
    assert main(["verify", "--n", "3125", "--a", "0.5", "--sigma", "1.2"]) == 0


@pytest.mark.parametrize("demo", sorted((REPO / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    # a RuntimeWarning is an error here, as pyproject.toml makes it for the in-process tests
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(demo)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
