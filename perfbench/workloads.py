"""The four benchmark workloads: seeded inputs, the timed op, the gate.

Each workload turns a seed into a pool of inputs, runs one op per input
(the only code that is timed) and checks each op's result afterwards
against the acceptance tolerances.  A gate raises GateFailure, or any
other exception, when an op's result is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np

import zetachain as zc


class GateFailure(Exception):
    """An op's result is outside its acceptance tolerance."""


def require(ok, message):
    if not ok:
        raise GateFailure(message)


def _draw_params(rng, n_max):
    """One (N, a, sigma) per N in [2, n_max], in a seeded order.

    a in [0.05, 1] and sigma in [1.05, 5] are Latin-hypercube draws, one
    uniform draw from each of n_max - 1 equal strata, so every seed covers
    the ranges evenly and the op-cost mix, and with it the medians, barely
    moves from seed to seed.
    """
    n_values = np.arange(2, n_max + 1)
    size = n_values.size
    a = 0.05 + 0.95 * (rng.permutation(size) + rng.random(size)) / size
    sigma = 1.05 + 3.95 * (rng.permutation(size) + rng.random(size)) / size
    return [zc.SimulationParams(int(n_values[i]), float(a[i]), float(sigma[i])) for i in rng.permutation(size)]


def _zeta_gate(params, times, amps, zeta_norm, readings):
    """Check a(t) against the truncated sum and the normalized Hurwitz zeta.

    |a - T(s)/T(sigma)| < 1e-10, and |a - zeta(s)/zeta(sigma)| is at most
    2 * tail / T(sigma), which bounds both the numerator and the
    denominator error of the ratio (zeta(sigma) >= T(sigma)), plus 1e-12:
    the oracle is accurate to 1e-12 relative and |zeta(s)/zeta(sigma)| <= 1,
    and at large N and sigma with small a the tail bound drops to 1e-14,
    below the round-off of both routes.
    """
    n = np.arange(params.n_levels) + params.a
    weights = n ** -params.sigma
    t_sigma = weights.sum()
    truncated = np.exp(-1j * params.omega * np.outer(times, np.log(n))) @ weights / t_sigma
    err = np.abs(amps - truncated).max()
    require(err < 1e-10, f"|a - truncated sum| = {err:.3e}")
    tail = (params.n_levels - 1 + params.a) ** (1.0 - params.sigma) / (params.sigma - 1.0)
    bound = 2.0 * tail / t_sigma + 1e-12
    dev = np.abs(amps - zeta_norm).max()
    readings.max("zetaref.dev_over_bound", dev / bound)
    require(dev <= bound, f"|a - zeta ratio| = {dev:.3e} > {bound:.3e}")


def _oracle_gap(tri, oracle, readings):
    gap = max(
        np.abs(tri.diagonal - oracle.diagonal).max(),
        np.abs(tri.offdiagonal - oracle.offdiagonal).max(initial=0.0),
    )
    readings.max("synthesis.oracle_gap", gap)
    return gap


def _max_rel(got, want):
    want = np.asarray(want, dtype=float)
    return np.abs(np.asarray(got, dtype=float) - want).max() / np.abs(want).max()


class Workload:
    """Base: `pool` holds the inputs in run order, `cycle` ops make a whole mix."""

    min_ops = 1

    def __init__(self, seed, smoke, ctx):
        self.rng = np.random.default_rng(seed % 2**64)
        self.ctx = ctx
        self.pool = []
        self.warmup = None

    @property
    def cycle(self):
        return len(self.pool)


class ChainBuild(Workload):
    """One long chain per op: synthesis, verification, Lanczos oracle, hardware export."""

    min_ops = 3
    # the default bend radius (300) is infeasible at N = 1000
    FAB = zc.FabricationConstants(
        kappa=2.0, alpha=1.0, bend_radius=600.0, lambda_bar=2e-4, n_substrate=1.5
    )

    def __init__(self, seed, smoke, ctx):
        super().__init__(seed, smoke, ctx)
        self.pool = [zc.SimulationParams(50 if smoke else 1000, 0.5, 2.0)]
        # a full-size warm-up would cost as much as a timed op
        self.warmup = zc.SimulationParams(10 if smoke else 64, 0.5, 2.0)

    def op(self, p):
        tri = zc.synthesize(p)
        report = zc.verify_synthesis(tri, p)
        oracle = zc.lanczos_synthesis(zc.log_spectrum(p), zc.riemann_amplitudes(p))
        spin = zc.spin_chain_params(tri)
        layout = zc.waveguide_layout(tri, self.FAB)
        text = zc.waveguide_design_json(layout)
        return {"tri": tri, "report": report, "oracle": oracle, "spin": spin, "layout": layout, "json": text}

    def check(self, p, r, seconds, readings):
        tri, layout = r["tri"], r["layout"]
        require(r["report"].passed, f"verify failed: {r['report']}")
        gap = _oracle_gap(tri, r["oracle"], readings)
        require(gap < 1e-8, f"pipeline/Lanczos gap {gap:.3e}")
        j, db = tri.offdiagonal, np.diff(tri.diagonal)
        rel_j = _max_rel(layout.couplings(), j)
        rel_b = _max_rel(layout.field_differences(), db)
        require(rel_j < 1e-12 and rel_b < 1e-12, f"waveguide round trip {rel_j:.3e}, {rel_b:.3e}")
        require(
            np.array_equal(r["spin"].couplings, j) and np.array_equal(r["spin"].fields, tri.diagonal),
            "spin parameters differ from the chain",
        )
        doc = json.loads(r["json"])
        require(len(doc["guides"]) == p.n_levels, "guide count")
        require(_max_rel([b["J"] for b in doc["bonds"]], j) < 1e-12, "exported J differs from the chain")


class ZetaScan(Workload):
    """The paper's line scan: one seeded (N, a, sigma) per op, compared with the zeta oracle."""

    def __init__(self, seed, smoke, ctx):
        super().__init__(seed, smoke, ctx)
        self.pool = _draw_params(self.rng, 8 if smoke else 64)
        self.warmup = self.pool[0]
        self.grid = zc.TimeGrid(0.0, 50.0, 201 if smoke else 2001)

    def op(self, p):
        tri = zc.synthesize(p)
        report = zc.verify_synthesis(tri, p)
        oracle = zc.lanczos_synthesis(zc.log_spectrum(p), zc.riemann_amplitudes(p))
        series = zc.evolve_spectral(tri, self.grid)
        z_sigma = zc.hurwitz_zeta(p.sigma, p.a)
        z = np.array([zc.hurwitz_zeta(p.sigma + 1j * p.omega * t, p.a) for t in series.times])
        return {"tri": tri, "report": report, "oracle": oracle, "series": series, "zeta_norm": z / z_sigma}

    def check(self, p, r, seconds, readings):
        require(r["report"].passed, f"verify failed: {r['report']}")
        _oracle_gap(r["tri"], r["oracle"], readings)
        series = r["series"]
        _zeta_gate(p, series.times, series.amplitudes, r["zeta_norm"], readings)


class OdeCrosscheck(Workload):
    """Fixed-step RK4 against spectral evolution on short seeded chains."""

    STEP = 1e-3

    def __init__(self, seed, smoke, ctx):
        super().__init__(seed, smoke, ctx)
        self.pool = [zc.synthesize(p) for p in _draw_params(self.rng, 4 if smoke else 16)]
        self.warmup = self.pool[0]
        self.grid = zc.TimeGrid(0.0, 1.0 if smoke else 10.0, 41 if smoke else 401)

    def op(self, tri):
        traj, ode = zc.evolve_ode(tri, self.grid, self.STEP)
        spectral = zc.evolve_spectral(tri, self.grid)
        return {"traj": traj, "ode": ode, "spectral": spectral}

    def check(self, tri, r, seconds, readings):
        dev = np.abs(r["ode"].amplitudes - r["spectral"].amplitudes).max()
        drift = np.abs(np.linalg.norm(r["traj"].states, axis=1) - 1.0).max()
        readings.max("evolution.ode_spectral_dev", dev)
        readings.max("evolution.ode_norm_drift", drift)
        require(dev < 1e-6, f"|ode - spectral| = {dev:.3e}")
        require(drift < 1e-6, f"norm drift {drift:.3e}")


# console-script entry point of the package, run as a fresh interpreter
CLI_ENTRY = "import sys; from zetachain.cli import main; sys.exit(main())"

# (key, argv, expected exit code); the package defaults are N=5, a=1, sigma=2
CLI_MIX = (
    ("synth", ("synth",), 0),
    ("verify", ("verify",), 0),
    ("simulate", ("simulate",), 0),
    ("domain", ("domain", "--sigmas", "1.1,1.2,1.5,2"), 0),
    ("design", ("design",), 0),
    ("design_spin", ("design", "--target", "spin"), 0),
    ("simulate_n64_json", ("simulate", "--n", "64", "--format", "json"), 0),
    ("design_kappa_fail", ("design", "--kappa", "0.4"), 5),
)


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _chain_from_csv(text):
    rows = _csv_rows(text)
    b = [float(r["B"]) for r in rows]
    j = [float(r["J_next"]) for r in rows[:-1]]
    require(rows[-1]["J_next"] == "", "last row carries a hopping")
    return zc.SymmetricTridiagonal(np.array(b), np.array(j))


class CliProcess(Workload):
    """One CLI subcommand per op, each a fresh interpreter writing --out to a temp file."""

    def __init__(self, seed, smoke, ctx, mix=CLI_MIX):
        super().__init__(seed, smoke, ctx)
        self.mix = mix
        # every cycle runs the whole mix in a fresh seeded order
        self.pool = [mix[i] for _ in range(64) for i in self.rng.permutation(len(mix))]
        self.warmup = mix[0]
        self.out_dir = ctx.tmp_dir
        self.env = package_env(ctx.src)
        self.p5 = zc.SimulationParams(5, 1.0, 2.0)
        self.p64 = zc.SimulationParams(64, 1.0, 2.0)
        self.ref5 = zc.synthesize(self.p5)
        self.times = np.linspace(0.0, 50.0, 2001)
        self.output_checks = {
            "synth": self._check_chain,
            "simulate": self._check_simulate,
            "domain": self._check_domain,
            "design": self._check_waveguide,
            "design_spin": self._check_chain,
            "simulate_n64_json": self._check_simulate,
        }

    @property
    def cycle(self):
        return len(self.mix)

    def op(self, entry):
        key, argv, _ = entry
        out = os.path.join(self.out_dir, key)
        if os.path.exists(out):
            os.remove(out)
        if self.ctx.tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY]
        else:
            cmd = [sys.executable, self.ctx.trace_child, out + ".spans"]
        return subprocess.run(
            cmd + list(argv) + ["--out", out], env=self.env, capture_output=True, text=True, timeout=120
        )

    def check(self, entry, proc, seconds, readings):
        key, _, expected = entry
        out = os.path.join(self.out_dir, key)
        readings.sample(f"cli.{key}_s", seconds)
        if self.ctx.tracer is not None and os.path.exists(out + ".spans"):
            with open(out + ".spans") as fh:
                dump = json.load(fh)
            os.remove(out + ".spans")
            self.ctx.tracer.merge(dump["spans"], self.ctx.tracer.op_id)
            readings.merge(dump["readings"])
        readings.add("cli.exit_mismatch", float(proc.returncode != expected))
        require(proc.returncode == expected, f"{key}: exit {proc.returncode}, expected {expected}: {proc.stderr[-300:]}")
        if expected != 0:
            lines = proc.stderr.splitlines()
            require(len(lines) == 1, f"{key}: {len(lines)} stderr lines")
            diag = json.loads(lines[0])
            require(diag["exit_code"] == expected and diag["error"] and diag["message"], f"{key}: diagnostic {diag}")
            require(not os.path.exists(out), f"{key}: failed run wrote {out}")
            return
        require(proc.stderr == "", f"{key}: stderr {proc.stderr[-300:]}")
        if key == "verify":
            text = proc.stdout
            require(text.rstrip().endswith("PASS"), f"verify: {text!r}")
        else:
            with open(out) as fh:
                text = fh.read()
            self.output_checks[key](key, text, readings)
        readings.sample("cli.out_bytes", len(text.encode()))

    def _check_chain(self, key, text, readings):
        require(zc.verify_synthesis(_chain_from_csv(text), self.p5).passed, f"{key}: chain fails verification")

    def _check_simulate(self, key, text, readings):
        params = self.p64 if key.endswith("json") else self.p5
        rows = json.loads(text) if key.endswith("json") else _csv_rows(text)
        cols = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
        require(cols["t"].shape == self.times.shape and np.abs(cols["t"] - self.times).max() < 1e-12, f"{key}: time grid")
        amps = cols["re_a"] + 1j * cols["im_a"]
        ref = cols["re_zeta_norm_ref"] + 1j * cols["im_zeta_norm_ref"]
        require(np.abs(cols["abs_a"] - np.abs(amps)).max() < 1e-12, f"{key}: abs_a column")
        require(np.abs(cols["abs_deviation"] - np.abs(amps - ref)).max() < 1e-12, f"{key}: abs_deviation column")
        _zeta_gate(params, cols["t"], amps, ref, readings)

    def _check_domain(self, key, text, readings):
        rows = _csv_rows(text)
        require([float(r["sigma"]) for r in rows] == [1.1, 1.2, 1.5, 2.0], f"{key}: sigma column")
        for r in rows:
            s = float(r["sigma"])
            n_min = (s - 1.0) ** (-1.0 / (s - 1.0))
            feasible = n_min <= 10**6
            want = n_min if feasible else 10**6
            require(abs(float(r["n_min"]) - want) <= 1e-12 * want, f"{key}: n_min({s})")
            require(r["feasible"] == str(int(feasible)) and r["t_max"] == "inf", f"{key}: row {r}")

    def _check_waveguide(self, key, text, readings):
        doc = json.loads(text)
        fab = doc["fabrication"]
        j = np.array([b["J"] for b in doc["bonds"]])
        d = np.array([b["d"] for b in doc["bonds"]])
        require(len(doc["guides"]) == 5 and fab["kappa"] == 2.0, f"{key}: layout header")
        require(_max_rel(j, self.ref5.offdiagonal) < 1e-12, f"{key}: J differs from the chain")
        require(_max_rel(fab["kappa"] * np.exp(-fab["alpha"] * d), j) < 1e-12, f"{key}: spacing round trip")


WORKLOADS = {
    "chain_build": ChainBuild,
    "zeta_scan": ZetaScan,
    "ode_crosscheck": OdeCrosscheck,
    "cli_process": CliProcess,
}


def package_env(src):
    """Environment for a child interpreter that imports the package from `src`."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
