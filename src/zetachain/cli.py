"""Command-line surface: synth | verify | simulate | domain | design.

All numeric output is serialized at 17 significant digits with a fixed
evaluation order, so identical flags produce byte-identical files.
Exit codes: 2 validation (usage errors included), 3 numerical breakdown,
4 zeta oracle domain, 5 infeasible hardware design; every nonzero exit
prints exactly one machine-readable diagnostic line on standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings

import numpy as np

from .core import SimulationParams, _check_count, _require
from .design import (
    FabricationConstants,
    _fmt,
    _json_text,
    spin_chain_params,
    waveguide_design_json,
    waveguide_layout,
)
from .errors import InfeasibleDesign, NumericalBreakdown, OutOfDomain, ValidationError, ZetachainError
from .evolution import DEFAULT_STEP, TimeGrid, evolve_ode, evolve_spectral
from .synthesis import SymmetricTridiagonal, synthesize
from .verification import DEFAULT_TOL_OVERLAP, verify_synthesis
from .zetaref import hurwitz_zeta, n_min

# exception family -> exit code; 1 is reserved for a failed `verify`
_EXIT_CODES = (
    (ValidationError, 2),
    (NumericalBreakdown, 3),
    (OutOfDomain, 4),
    (InfeasibleDesign, 5),
)

_SIMULATE_COLUMNS = ("t", "re_a", "im_a", "abs_a", "re_zeta_norm_ref", "im_zeta_norm_ref", "abs_deviation")


def _diagnostic(exc: Exception, code: int):
    line = json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code})
    print(line, file=sys.stderr)


def _write_text(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _params_from(args, **extra) -> SimulationParams:
    return SimulationParams(n_levels=args.n, a=args.a, sigma=args.sigma, **extra)


def _csv(header, rows) -> str:
    """CSV text from a header and rows of already formatted fields."""
    return "".join(",".join(row) + "\n" for row in (header, *rows))


def _tridiagonal_csv(diagonal, offdiagonal) -> str:
    hops = [_fmt(j) for j in offdiagonal] + [""]
    rows = ((str(i), _fmt(b), j) for i, (b, j) in enumerate(zip(diagonal, hops)))
    return _csv(("index", "B", "J_next"), rows)


def _tridiagonal_json(tri, report) -> str:
    doc = {
        "diagonal": [_fmt(v) for v in tri.diagonal],
        "offdiagonal": [_fmt(v) for v in tri.offdiagonal],
        "report": {
            "max_eigenvalue_error": _fmt(report.max_eigenvalue_error),
            "max_overlap_error": _fmt(report.max_overlap_error),
            "passed": report.passed,
        },
    }
    return _json_text(doc) + "\n"


def _report_summary(report) -> str:
    return (
        f"max eigenvalue error {report.max_eigenvalue_error:.3e} "
        f"(tol {report.tol_lambda:.1e}), "
        f"max overlap error {report.max_overlap_error:.3e} "
        f"(tol {report.tol_overlap:.1e}): "
        f"{'PASS' if report.passed else 'FAIL'}"
    )


def cmd_synth(args) -> int:
    params = _params_from(args)
    tri = synthesize(params)
    report = verify_synthesis(tri, params, args.tol_lambda, args.tol_overlap)
    if args.format == "json":
        _write_text(args.out, _tridiagonal_json(tri, report))
    else:
        _write_text(args.out, _tridiagonal_csv(tri.diagonal, tri.offdiagonal))
    if args.out is not None:
        print(_report_summary(report))
    return 0


def cmd_verify(args) -> int:
    params = _params_from(args)
    tri = synthesize(params)
    report = verify_synthesis(tri, params, args.tol_lambda, args.tol_overlap)
    print(_report_summary(report))
    if not report.passed:
        _diagnostic(ValidationError("synthesis verification failed"), 1)
        return 1
    return 0


def cmd_simulate(args) -> int:
    params = _params_from(args, omega=args.omega)
    grid = TimeGrid(t_start=args.t_start, t_end=args.t_end, n_points=args.points, t_coh=args.t_coh)
    tri = synthesize(params)
    # omega * H, so the sample times are physical and a(t) = T(sigma + i omega t) / T(sigma)
    h = SymmetricTridiagonal(params.omega * tri.diagonal, params.omega * tri.offdiagonal)
    if args.method == "ode":
        _, series = evolve_ode(h, grid, args.step)
    else:
        series = evolve_spectral(h, grid)
    z_sigma = hurwitz_zeta(params.sigma, params.a)
    rows = []
    for t, amp in zip(series.times, series.amplitudes):
        ref = hurwitz_zeta(params.sigma + 1j * params.omega * t, params.a) / z_sigma
        values = (t, amp.real, amp.imag, abs(amp), ref.real, ref.imag, abs(amp - ref))
        rows.append([_fmt(v) for v in values])
    if args.format == "json":
        text = _json_text([dict(zip(_SIMULATE_COLUMNS, row)) for row in rows]) + "\n"
    else:
        text = _csv(_SIMULATE_COLUMNS, rows)
    _write_text(args.out, text)
    return 0


def cmd_domain(args) -> int:
    try:
        grid = [float(tok) for tok in args.sigmas.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --sigmas value: {exc}")
    if not grid:
        raise ValidationError(f"--sigmas {args.sigmas!r} names no sigma")
    _require("t_coh", args.t_coh, lambda t: t is None or t > 0.0, "be positive")
    n_cap = _check_count("n_cap", args.n_cap)
    # without a coherence cutoff the window is unbounded, which _fmt writes as "inf"
    t_max = _fmt(math.inf if args.t_coh is None else args.t_coh)
    rows = []
    for sigma in grid:
        # an N_min beyond the cap, or diverging as sigma -> 1+, is reported at the cap as infeasible
        nm = n_min(sigma)
        feasible = nm <= n_cap
        rows.append((_fmt(sigma), _fmt(nm if feasible else n_cap), str(int(feasible)), t_max))
    _write_text(args.out, _csv(("sigma", "n_min", "feasible", "t_max"), rows))
    return 0


def cmd_design(args) -> int:
    params = _params_from(args)
    tri = synthesize(params)
    if args.target == "spin":
        chain = spin_chain_params(tri)
        _write_text(args.out, _tridiagonal_csv(chain.fields, chain.couplings))
        return 0
    fab = FabricationConstants(
        kappa=args.kappa,
        alpha=args.alpha,
        bend_radius=args.radius,
        lambda_bar=args.wavelength / (2.0 * np.pi),
        n_substrate=args.ns,
    )
    design = waveguide_layout(tri, fab)
    _write_text(args.out, waveguide_design_json(design) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one JSON line; flags match exactly (`domain --n` is not `--n-cap`).

    A value such as `-1e308` or `-inf` is a negative number, not a flag:
    before Python 3.13 argparse's own pattern misses exponent forms, so this
    is 3.13's, plus the non-finite spellings that float() reads.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(?:inf(?:inity)?|nan)$", re.IGNORECASE)

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _add_out(parser):
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_format(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_chain(parser):
    parser.add_argument("--n", type=int, default=5, help="number of levels / chain sites")
    parser.add_argument("--a", type=float, default=1.0, help="series shift, 0 < a <= 1")
    parser.add_argument("--sigma", type=float, default=2.0, help="real part of s (> 1)")
    _add_out(parser)


def _add_tolerances(parser):
    parser.add_argument("--tol-lambda", type=float, default=None, dest="tol_lambda")
    parser.add_argument("--tol-overlap", type=float, default=DEFAULT_TOL_OVERLAP, dest="tol_overlap")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zetachain",
        description="Synthesize, verify and export tridiagonal Hamiltonians "
        "whose autocorrelation traces the Hurwitz zeta function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize the chain and write (B, J)")
    _add_chain(p)
    _add_format(p)
    _add_tolerances(p)
    p.set_defaults(func=cmd_synth)

    # --out is accepted and ignored so every subcommand takes the same trailing --out
    p = sub.add_parser("verify", help="synthesize and check spectrum/overlap fidelity")
    _add_chain(p)
    _add_tolerances(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="evolve |0> and compare against the zeta oracle")
    _add_chain(p)
    _add_format(p)
    p.add_argument("--omega", type=float, default=1.0,
                   help="evolve omega * H, so time t samples s = sigma + i omega t")
    p.add_argument("--t-start", type=float, default=0.0, dest="t_start")
    p.add_argument("--t-end", type=float, default=50.0, dest="t_end")
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--t-coh", type=float, default=None, dest="t_coh",
                   help="coherence cutoff; samples beyond it are dropped")
    p.add_argument("--method", choices=("spectral", "ode"), default="spectral")
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("domain", help="tabulate N_min(sigma) and the time window")
    _add_out(p)
    p.add_argument("--sigmas", default="2", help="comma-separated sigma grid")
    p.add_argument("--t-coh", type=float, default=None, dest="t_coh")
    p.add_argument("--n-cap", type=int, default=10**6, dest="n_cap")
    p.set_defaults(func=cmd_domain)

    p = sub.add_parser("design", help="export spin-chain CSV or waveguide JSON")
    _add_chain(p)
    p.add_argument("--target", choices=("waveguide", "spin"), default="waveguide")
    p.add_argument("--kappa", type=float, default=2.0, help="coupling scale (placeholder default)")
    p.add_argument("--alpha", type=float, default=1.0, help="coupling decay constant")
    p.add_argument("--radius", type=float, default=300.0, help="bend radius R")
    p.add_argument("--lambda", type=float, default=2.0 * np.pi * 1e-3, dest="wavelength",
                   help="optical wavelength (lambda_bar = lambda / 2 pi)")
    p.add_argument("--ns", type=float, default=1.5, help="substrate refractive index")
    p.set_defaults(func=cmd_design)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # overflow warnings stay off stderr; the checks downstream turn them into exit codes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    # e.g. numpy refusing an oversized --points grid, or an --out path that cannot be written
    except (MemoryError, OSError) as exc:
        _diagnostic(ValidationError(str(exc)), 2)
        return 2
    except ZetachainError as exc:
        for family, code in _EXIT_CODES:
            if isinstance(exc, family):
                _diagnostic(exc, code)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
