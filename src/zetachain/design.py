"""Hardware export: spin-chain parameters and curved waveguide-array geometry.

The spin export is the XY chain with local fields

    H = sum_n J_n (s+_n s-_{n+1} + h.c.) + sum_n B_n s+_n s-_n
      = sum_n (J_n/2)(X_n X_{n+1} + Y_n Y_{n+1}) + sum_n (B_n/2)(1 + Z_n),

whose one-excitation block is exactly the tridiagonal chain, so its
coefficients are the chain's J_n and B_n and no constant is dropped.
The waveguide export is a chain of evanescently coupled guides where
J_n = kappa * exp(-alpha * d_n) sets spacings and axis bending sets
site-energy gradients.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .core import _check_positive
from .errors import CouplingTooStrong, TiltInfeasible, ValidationError
from .synthesis import SymmetricTridiagonal

__all__ = [
    "SpinChainParams",
    "FabricationConstants",
    "WaveguideDesign",
    "spin_chain_params",
    "waveguide_layout",
    "waveguide_design_json",
]


@dataclass(frozen=True)
class SpinChainParams:
    """Couplings J_n and fields B_n of the XY chain in the module docstring (units hbar*omega)."""

    couplings: np.ndarray = field(repr=False)
    fields: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class FabricationConstants:
    """Waveguide fabrication parameters.

    kappa, alpha  : coupling scale and decay constant of J = kappa*exp(-alpha*d)
    bend_radius   : radius R of the circular axis bend
    lambda_bar    : optical wavelength over 2*pi, same length units as d
    n_substrate   : substrate refractive index
    """

    kappa: float
    alpha: float
    bend_radius: float
    lambda_bar: float
    n_substrate: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_positive(f.name, getattr(self, f.name))


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
    fab: FabricationConstants

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
    )


def waveguide_layout(tri: SymmetricTridiagonal, fab: FabricationConstants) -> WaveguideDesign:
    """Solve the waveguide geometry realizing the given chain.

    Spacings invert the exponential coupling law; tilt angles place the
    bend-induced detuning differences on the prescribed field gradient.
    Only energy differences are realized; the global offset is gauge.
    Raises at the first broken constraint: every J_n in (0, kappa), every
    field step B_{n+1} - B_n finite, every spacing d_n positive with 100 d_n
    finite, R above the paraxial bound 100 max d, then every tilt
    |cos theta_n| <= 1.
    """
    j = tri.offdiagonal
    if j.size and not 0.0 < j.min() <= j.max() < fab.kappa:
        k = int(np.argmax(j))
        if j[k] >= fab.kappa:
            raise CouplingTooStrong(
                f"J_{k} = {j[k]:.6g} >= kappa = {fab.kappa:.6g}; kappa must exceed {j[k]:.17g}"
            )
        raise ValidationError("all couplings must be strictly positive")
    # an overflow is refused below, bond by bond, rather than read as a tilt or radius bound
    with np.errstate(over="ignore"):
        db = np.diff(tri.diagonal)
        d = np.log(fab.kappa / j) / fab.alpha
        paraxial = 100.0 * d
    bad = np.flatnonzero(~np.isfinite(db))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(f"bond {k}: field step B_{k + 1} - B_{k} overflows the double range")
    bad = np.flatnonzero(~((0.0 < d) & (paraxial < np.inf)))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(
            f"bond {k}: spacing ln(kappa / J_{k}) / alpha = {d[k]:.6g} at J_{k} = {float(j[k])}"
            " is not positive, or its paraxial radius 100 d overflows the double range"
        )
    r_paraxial = paraxial.max(initial=0.0)
    if fab.bend_radius <= r_paraxial:
        raise ValidationError(
            f"bend radius {fab.bend_radius:.6g} too small for the paraxial picture; need R > {r_paraxial:.6g}"
        )
    with np.errstate(over="ignore"):  # a huge R overflows to inf, refused below with its radius advice
        cos_theta = db * fab.bend_radius * fab.lambda_bar / (fab.n_substrate * d)
    bad = np.flatnonzero(np.abs(cos_theta) > 1.0)
    if bad.size:
        # the largest R keeping every tilted bond realizable
        tilted = db != 0.0
        r_max = (fab.n_substrate * d[tilted] / (fab.lambda_bar * np.abs(db[tilted]))).min()
        k = int(bad[0])
        raise TiltInfeasible(
            f"|cos theta_{k}| = {abs(cos_theta[k]):.6g} > 1; reduce bend radius to at most {r_max:.17g}"
        )
    theta = np.arccos(cos_theta)
    n = tri.order
    x = np.zeros(n)
    y = np.zeros(n)
    x[1:] = np.cumsum(d * cos_theta)
    y[1:] = np.cumsum(d * np.sin(theta))
    detunings = fab.n_substrate * x / (fab.bend_radius * fab.lambda_bar)
    return WaveguideDesign(spacings=d, angles=theta, x=x, y=y, detunings=detunings, fab=fab)


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
        # the straight-axis propagation constant is gauge, so it is written as 0
        "fabrication": {f.name: _fmt(getattr(fab, f.name)) for f in dataclasses.fields(fab)} | {"e_offset": _fmt(0.0)},
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
