"""Property test over the CLI flag grammar: any argv ends in a documented exit code.

Every run exits 0..5, a nonzero exit prints exactly one JSON line on
stderr (a zero exit prints nothing there), and no exception escapes main.
Four in five flag values are ordinary; the rest are boundary, non-finite
or malformed spellings.  Chains stay at N <= 300 and grids at 2001
points, and RK4 runs at N <= 16 over t <= 1 with steps >= 1e-3, so no
example asks for a large allocation or a long integration.  An --out path
is writable, inside a missing directory, or a directory.
"""

import contextlib
import io
import json
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from zetachain.cli import main

# out of range for most flags, non-finite in every spelling float() reads, or not a number
BAD = ["0", "-1", "2.5", "1e-320", "1e308", "-1e308", "inf", "-inf", "nan", "NaN", "Infinity", "-Infinity", "", "x"]

CHAIN = {"--n": ["1", "2", "5", "16", "17", "64", "300"], "--a": ["0.05", "0.5", "1"],
         "--sigma": ["1.05", "1.5", "2", "3", "40"]}
TOLERANCES = {"--tol-lambda": ["1e-15", "1e-9", "1e-3"], "--tol-overlap": ["1e-15", "1e-9", "1e-3"]}
COMMANDS = {
    "synth": {**CHAIN, **TOLERANCES, "--format": ["csv", "json"]},
    "verify": {**CHAIN, **TOLERANCES},
    "simulate": {**CHAIN, "--format": ["csv", "json"], "--omega": ["0.5", "1", "3"], "--t-start": ["0", "-1", "0.5"],
                 "--t-end": ["1", "5", "50"], "--points": ["1", "2", "51", "2001"], "--t-coh": ["0.5", "10"],
                 "--method": ["spectral"]},
    "domain": {"--t-coh": ["0.5", "10"], "--n-cap": ["1", "100", "1000000"]},
    "design": {**CHAIN, "--target": ["waveguide", "spin"], "--kappa": ["0.5", "2", "10"], "--alpha": ["0.5", "1"],
               "--radius": ["1", "300"], "--lambda": ["0.006", "1"], "--ns": ["1.5"]},
}
# RK4 steps through the whole window, so its pools keep the step count small
ODE = {"--n": ["1", "2", "5", "16"], "--t-start": ["0", "-1", "0.5"], "--t-end": ["0.5", "1"],
       "--step": ["1e-3", "0.01", "0.5"]}
SIGMAS = ["1.000001", "1.2", "1.5", "2", " "]
STRAYS = ["--bogus", "--sig", "stray", "--n"]


def _value(draw, ordinary):
    return draw(st.sampled_from(ordinary if draw(st.integers(0, 4)) else BAD))


def _flag(draw, flag, value):
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def argvs(draw, tmp):
    command = draw(st.sampled_from(sorted(COMMANDS) + ["bogus"]))
    argv = [command]
    flags = dict(COMMANDS.get(command, CHAIN))
    if command == "simulate" and draw(st.booleans()):
        flags.update(ODE)
        argv += ["--method", "ode"] + _flag(draw, "--t-end", _value(draw, ODE["--t-end"]))
        del flags["--method"], flags["--t-end"]
    if command == "domain":
        flags["--sigmas"] = [",".join(_value(draw, SIGMAS) for _ in range(draw(st.integers(0, 4))))]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        argv += _flag(draw, flag, _value(draw, flags[flag]))
    if command != "verify" and draw(st.booleans()):  # verify accepts --out but writes nothing
        out_path = draw(st.sampled_from([f"{tmp}/out.txt", f"{tmp}/missing/out.txt", tmp]))
        argv += _flag(draw, "--out", out_path)
    if not draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(STRAYS)))
    return argv


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(st.data())
def test_every_argv_ends_in_a_documented_exit_code(data):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(argvs(tmp), label="argv")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(6), argv
    if code:
        (line,) = err.getvalue().splitlines()
        assert json.loads(line)["exit_code"] == code, argv
    else:
        assert err.getvalue() == "", argv
