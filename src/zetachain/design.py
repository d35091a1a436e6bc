"""Hardware export: spin-chain parameters and curved waveguide-array geometry.

The tridiagonal Hamiltonian maps one-to-one onto the single-excitation
sector of an XY spin chain (J_n couplings, B_n fields) and onto a chain
of evanescently coupled waveguides where J_n = kappa * exp(-alpha * d_n)
sets spacings and axis bending sets site-energy gradients.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CouplingTooStrong, TiltInfeasible, ValidationError
from .synthesis import SymmetricTridiagonal

__all__ = [
    "SpinChainParams",
    "FabricationConstants",
    "WaveguideDesign",
    "spin_chain_params",
    "waveguide_layout",
    "feasibility_report",
    "waveguide_design_json",
]


@dataclass(frozen=True)
class SpinChainParams:
    """Spin-spin couplings and local fields realizing the chain (units hbar*omega).

    dropped_constant records the common diagonal term -sum(B_n) omitted in
    the single-excitation identification.
    """

    couplings: np.ndarray = field(repr=False)
    fields: np.ndarray = field(repr=False)
    dropped_constant: float = 0.0


@dataclass(frozen=True)
class FabricationConstants:
    """Waveguide fabrication parameters.

    kappa, alpha  : coupling scale and decay constant of J = kappa*exp(-alpha*d)
    bend_radius   : radius R of the circular axis bend
    lambda_bar    : optical wavelength over 2*pi, same length units as d
    n_substrate   : substrate refractive index
    e_offset      : straight-axis propagation constant (gauge, not synthesized)
    """

    kappa: float
    alpha: float
    bend_radius: float
    lambda_bar: float
    n_substrate: float
    e_offset: float = 0.0

    def __post_init__(self):
        for name in ("kappa", "alpha", "bend_radius", "lambda_bar", "n_substrate"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValidationError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class WaveguideDesign:
    """Planar layout of the waveguide chain.

    spacings d_n and tilt angles theta_n fix consecutive guide positions
    via (dx, dy) = d_n (cos theta_n, sin theta_n); detunings are the
    bend-induced propagation constant shifts n_s * x_n / (R * lambda_bar).
    """

    spacings: np.ndarray = field(repr=False)
    angles: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    detunings: np.ndarray = field(repr=False)
    fab: FabricationConstants = None

    def couplings(self) -> np.ndarray:
        """Hopping rates rebuilt from the spacings (round-trip check)."""
        return self.fab.kappa * np.exp(-self.fab.alpha * self.spacings)

    def field_differences(self) -> np.ndarray:
        """Site-energy differences rebuilt from the geometry (round-trip check)."""
        return self.fab.n_substrate * np.diff(self.x) / (self.fab.bend_radius * self.fab.lambda_bar)


def spin_chain_params(tri: SymmetricTridiagonal) -> SpinChainParams:
    """Identify the tridiagonal entries with spin-chain couplings and fields."""
    return SpinChainParams(
        couplings=tri.offdiagonal.copy(),
        fields=tri.diagonal.copy(),
        dropped_constant=float(-tri.diagonal.sum()),
    )


def _geometry(tri: SymmetricTridiagonal, fab: FabricationConstants):
    """Bond geometry and the first constraint it breaks: the one feasibility rule.

    Returns (d, cos_theta, r_limits, violation): spacings, tilt cosines,
    the largest R keeping each bond's tilt realizable, and the error
    waveguide_layout raises (None when feasible).  R must also exceed the
    paraxial bound 100 max d.  Couplings outside (0, kappa) give NaN arrays.
    """
    j = tri.offdiagonal
    if j.size and not 0.0 < j.min() <= j.max() < fab.kappa:
        k = int(np.argmax(j))
        violation = ValidationError("all couplings must be strictly positive")
        if j[k] >= fab.kappa:
            violation = CouplingTooStrong(
                f"J_{k} = {j[k]:.6g} >= kappa = {fab.kappa:.6g}; kappa must exceed {j[k]:.17g}"
            )
        nan = np.full(j.shape, np.nan)
        return nan, nan, nan, violation
    db = np.diff(tri.diagonal)
    d = np.log(fab.kappa / j) / fab.alpha
    cos_theta = db * fab.bend_radius * fab.lambda_bar / (fab.n_substrate * d)
    with np.errstate(divide="ignore"):
        r_limits = fab.n_substrate * d / (fab.lambda_bar * np.abs(db))
    r_paraxial = 100.0 * d.max(initial=0.0)
    bad = np.flatnonzero(np.abs(cos_theta) > 1.0)
    violation = None
    if fab.bend_radius <= r_paraxial:
        violation = ValidationError(
            f"bend radius {fab.bend_radius:.6g} too small for the paraxial picture; need R > {r_paraxial:.6g}"
        )
    elif bad.size:
        k = int(bad[0])
        violation = TiltInfeasible(
            f"|cos theta_{k}| = {abs(cos_theta[k]):.6g} > 1; reduce bend radius to at most {r_limits[k]:.17g}"
        )
    return d, cos_theta, r_limits, violation


def waveguide_layout(tri: SymmetricTridiagonal, fab: FabricationConstants) -> WaveguideDesign:
    """Solve the waveguide geometry realizing the given chain.

    Spacings invert the exponential coupling law; tilt angles place the
    bend-induced detuning differences on the prescribed field gradient.
    Only energy differences are realized; the global offset is gauge.
    """
    d, cos_theta, _, violation = _geometry(tri, fab)
    if violation is not None:
        raise violation
    theta = np.arccos(cos_theta)
    n = tri.order
    x = np.zeros(n)
    y = np.zeros(n)
    x[1:] = np.cumsum(d * cos_theta)
    y[1:] = np.cumsum(d * np.sin(theta))
    detunings = fab.n_substrate * x / (fab.bend_radius * fab.lambda_bar)
    return WaveguideDesign(spacings=d, angles=theta, x=x, y=y, detunings=detunings, fab=fab)


def feasibility_report(tri: SymmetricTridiagonal, fab: FabricationConstants) -> dict:
    """Per-bond constraint margins and the verdict of waveguide_layout.

    coupling margins are kappa - J_n (> 0 required); tilt margins are
    1 - |cos theta_n| (>= 0 required, NaN without a geometry).
    suggested_r_max is the largest bend radius keeping every tilt
    realizable.  feasible is True exactly when waveguide_layout returns.
    """
    _, cos_theta, r_limits, violation = _geometry(tri, fab)
    return {
        "coupling_margins": fab.kappa - tri.offdiagonal,
        "tilt_margins": 1.0 - np.abs(cos_theta),
        "feasible": violation is None,
        "suggested_r_max": float(r_limits.min(initial=np.inf)),
    }


def _fmt(value: float) -> str:
    """One real at 17 significant digits: the package's only number format."""
    return format(float(value), ".17g")


def _json_text(doc) -> str:
    """Indented JSON of a document whose reals are _fmt strings, emitted as bare numbers."""
    return re.sub(r'"(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"', r"\1", json.dumps(doc, indent=2))


def waveguide_design_json(design: WaveguideDesign) -> str:
    """Serialize a design as JSON with all reals at 17 significant digits."""
    fab = design.fab
    doc = {
        "fabrication": {
            "kappa": _fmt(fab.kappa),
            "alpha": _fmt(fab.alpha),
            "bend_radius": _fmt(fab.bend_radius),
            "lambda_bar": _fmt(fab.lambda_bar),
            "n_substrate": _fmt(fab.n_substrate),
            "e_offset": _fmt(fab.e_offset),
        },
        "guides": [
            {
                "index": i,
                "x": _fmt(design.x[i]),
                "y": _fmt(design.y[i]),
                "detuning": _fmt(design.detunings[i]),
            }
            for i in range(design.x.size)
        ],
        "bonds": [
            {
                "index": i,
                "d": _fmt(design.spacings[i]),
                "theta": _fmt(design.angles[i]),
                "J": _fmt(j),
            }
            for i, j in enumerate(design.couplings())
        ],
    }
    return _json_text(doc)
