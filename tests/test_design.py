import json
import math

import numpy as np
import pytest

from zetachain import (
    CouplingTooStrong,
    FabricationConstants,
    SimulationParams,
    SpinChainParams,
    SymmetricTridiagonal,
    TiltInfeasible,
    ValidationError,
    WaveguideDesign,
    spin_chain_params,
    synthesize,
    waveguide_design_json,
    waveguide_layout,
)

GOLDEN_TRI = SymmetricTridiagonal(
    np.array([-0.479, 0.701, 0.894, 1.062, 1.208]),
    np.array([0.520, 0.445, 0.311, 0.198]),
)

FAB = FabricationConstants(
    kappa=2.0, alpha=1.0, bend_radius=300.0, lambda_bar=1e-3, n_substrate=1.5
)


def test_spin_chain_identification():
    chain = spin_chain_params(GOLDEN_TRI)
    np.testing.assert_allclose(chain.couplings, [0.520, 0.445, 0.311, 0.198], atol=0)
    np.testing.assert_allclose(chain.fields, [-0.479, 0.701, 0.894, 1.062, 1.208], atol=0)


def _embed(ops, n):
    """Kronecker product placing each {site: 2x2 operator} on an n-site register."""
    out = np.eye(1)
    for site in range(n):
        out = np.kron(out, ops.get(site, np.eye(2)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_spin_hamiltonian_one_excitation_block_is_the_chain(n):
    # H = sum (J/2)(XX + YY) + sum (B/2)(1 + Z), the Hamiltonian design.py states
    tri = synthesize(SimulationParams(n, 0.5, 2.0))
    chain = spin_chain_params(tri)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.0, -1j], [1j, 0.0]])
    z = np.diag([1.0, -1.0])
    up = np.array([[0.0, 1.0], [0.0, 0.0]])  # sigma+ raises into the Z = +1 excitation
    h = np.zeros((2**n, 2**n), dtype=complex)
    h_ladder = np.zeros_like(h)
    for k, j in enumerate(chain.couplings):
        h += j / 2.0 * (_embed({k: x, k + 1: x}, n) + _embed({k: y, k + 1: y}, n))
        hop = _embed({k: up, k + 1: up.T}, n)
        h_ladder += j * (hop + hop.T)
    for k, b in enumerate(chain.fields):
        h += b / 2.0 * (np.eye(2**n) + _embed({k: z}, n))
        h_ladder += b * _embed({k: up @ up.T}, n)
    np.testing.assert_allclose(h, h_ladder, rtol=0, atol=1e-14)
    # basis index of "site k excited, every other site down"
    one = [(2**n - 1) - 2 ** (n - 1 - k) for k in range(n)]
    rest = np.setdiff1d(np.arange(2**n), one)
    np.testing.assert_allclose(h[np.ix_(one, one)], tri.to_dense(), rtol=0, atol=1e-14)
    assert np.abs(h[np.ix_(rest, one)]).max(initial=0.0) <= 1e-14


def test_spin_chain_single_site():
    tri = SymmetricTridiagonal(np.array([0.3]), np.empty(0))
    chain = spin_chain_params(tri)
    assert chain.couplings.size == 0
    assert chain.fields.tolist() == [0.3]


def test_result_types_require_every_field():
    # a chain without fields is no chain, and a design without fabrication
    # constants cannot rebuild its couplings
    with pytest.raises(TypeError, match="fields"):
        SpinChainParams(couplings=np.empty(0))
    arrays = {name: np.zeros(2) for name in ("spacings", "angles", "x", "y", "detunings")}
    with pytest.raises(TypeError, match="fab"):
        WaveguideDesign(**arrays)


def test_fabrication_constants_validation():
    with pytest.raises(ValidationError):
        FabricationConstants(0.0, 1.0, 300.0, 1e-3, 1.5)
    with pytest.raises(ValidationError):
        FabricationConstants(2.0, 1.0, 300.0, -1e-3, 1.5)
    # a str constant raised a raw TypeError
    with pytest.raises(ValidationError, match="n_substrate must be positive and finite, got '1.5'"):
        FabricationConstants(2.0, 1.0, 300.0, 1e-3, "1.5")


def test_layout_first_spacing_inverts_exponential_law():
    design = waveguide_layout(GOLDEN_TRI, FAB)
    assert abs(design.spacings[0] - math.log(2.0 / 0.520)) < 1e-12


def test_layout_uniform_fields_stack_vertically():
    tri = SymmetricTridiagonal(np.full(4, 0.7), np.array([0.5, 0.4, 0.3]))
    design = waveguide_layout(tri, FAB)
    np.testing.assert_allclose(design.angles, np.full(3, math.pi / 2.0), atol=1e-15)
    np.testing.assert_allclose(design.x, np.zeros(4), atol=1e-15)
    assert np.all(np.diff(design.y) > 0.0)


def test_layout_round_trip():
    design = waveguide_layout(GOLDEN_TRI, FAB)
    np.testing.assert_allclose(design.couplings(), GOLDEN_TRI.offdiagonal, rtol=1e-12)
    np.testing.assert_allclose(
        design.field_differences(), np.diff(GOLDEN_TRI.diagonal), rtol=1e-12, atol=1e-15
    )
    # spacings equal the Euclidean distance between consecutive guides
    dist = np.hypot(np.diff(design.x), np.diff(design.y))
    np.testing.assert_allclose(dist, design.spacings, rtol=1e-12)
    # detunings rebuild from coordinates
    np.testing.assert_allclose(
        design.detunings,
        FAB.n_substrate * design.x / (FAB.bend_radius * FAB.lambda_bar),
        rtol=1e-15,
    )
    # angles stay in [0, pi]
    assert np.all((design.angles >= 0.0) & (design.angles <= math.pi))


def test_layout_coupling_too_strong_names_minimum_kappa():
    weak = FabricationConstants(0.4, 1.0, 300.0, 1e-3, 1.5)
    with pytest.raises(CouplingTooStrong) as err:
        waveguide_layout(GOLDEN_TRI, weak)
    assert "0.52" in str(err.value)
    # J_0 = kappa exactly would need zero spacing
    with pytest.raises(CouplingTooStrong):
        waveguide_layout(GOLDEN_TRI, FabricationConstants(0.520, 1.0, 300.0, 1e-3, 1.5))


def test_layout_tilt_infeasible_names_corrective_radius():
    # large radius makes the bend-induced detuning lever arm too strong
    fab = FabricationConstants(2.0, 1.0, 1000.0, 0.005, 1.5)
    with pytest.raises(TiltInfeasible) as err:
        waveguide_layout(GOLDEN_TRI, fab)
    msg = str(err.value)
    assert "bend radius" in msg
    # corrective radius quoted in the message is itself feasible
    r_fix = float(msg.rsplit(" ", 1)[-1])
    ok = FabricationConstants(2.0, 1.0, r_fix * 0.999, 0.005, 1.5)
    waveguide_layout(GOLDEN_TRI, ok)


def test_layout_tilt_at_a_huge_radius_gives_its_advice_without_a_warning():
    # the tilt product overflows to inf there; RuntimeWarning is an error in this suite
    fab = FabricationConstants(2.0, 1.0, 1.7e308, 1e-3, 1.5)
    with pytest.raises(TiltInfeasible, match=r"= inf > 1; reduce bend radius to at most 1711\.37"):
        waveguide_layout(synthesize(SimulationParams(5, 0.5, 2.0)), fab)


def test_layout_tilt_names_the_binding_bond():
    # bond 0 breaks its tilt first, but bond 2 (|dB| = 1) sets the lower radius
    tri = SymmetricTridiagonal(np.array([0.0, 0.5, 0.6, 1.6]), np.full(3, 0.5))
    with pytest.raises(TiltInfeasible) as err:
        waveguide_layout(tri, FabricationConstants(2.0, 1.0, 1e5, 1e-3, 1.5))
    msg = str(err.value)
    assert msg.startswith("|cos theta_0|")
    r_fix = float(msg.rsplit(" ", 1)[-1])
    assert r_fix == pytest.approx(1.5 * math.log(4.0) / 1e-3, rel=1e-12)
    design = waveguide_layout(tri, FabricationConstants(2.0, 1.0, r_fix * 0.999, 1e-3, 1.5))
    np.testing.assert_allclose(design.field_differences(), np.diff(tri.diagonal), rtol=1e-12)


def test_layout_rejects_unphysical_bend_radius():
    fab = FabricationConstants(2.0, 1.0, 10.0, 1e-3, 1.5)
    with pytest.raises(ValidationError):
        waveguide_layout(GOLDEN_TRI, fab)


@pytest.mark.parametrize(
    "tri,fab,match",
    [
        # B_1 - B_0 overflows to inf, which read as a tilt fixed by R <= 0
        (SymmetricTridiagonal([-1e308, 1e308], [0.5]), FAB, r"bond 0: field step B_1 - B_0 overflows"),
        # kappa / J_0 overflows to inf, which read as a paraxial bound R > inf
        (SymmetricTridiagonal([0.0, 0.1], [1e-310]), FAB, r"bond 0: spacing .* = inf"),
        # ln(kappa / J_0) / alpha underflows to 0, which read as a tilt of 0 / 0
        (SymmetricTridiagonal([0.0, 0.1], [2.0 - 4e-16]), FabricationConstants(2.0, 1e308, 300.0, 1e-3, 1.5),
         r"bond 0: spacing .* = 0 "),
        # d_0 = 2e306 is finite, but 100 d_0 overflowed to the paraxial bound R > inf
        (SymmetricTridiagonal([0.0, 0.1], [0.5]), FabricationConstants(2.0, 7e-307, 300.0, 1e-3, 1.5),
         r"bond 0: spacing .* paraxial radius 100 d overflows"),
    ],
    ids=["field_step", "spacing_overflow", "spacing_underflow", "paraxial_radius_overflow"],
)
def test_layout_refuses_a_bond_that_leaves_the_double_range(tri, fab, match):
    with pytest.raises(ValidationError, match=match):
        waveguide_layout(tri, fab)


def test_json_export_round_trips_at_full_precision():
    p = SimulationParams(5, 0.5, 2.0)
    tri = synthesize(p)
    design = waveguide_layout(tri, FAB)
    doc = json.loads(waveguide_design_json(design))
    assert set(doc) == {"fabrication", "guides", "bonds"}
    assert len(doc["guides"]) == 5
    assert len(doc["bonds"]) == 4
    j = np.array([bond["J"] for bond in doc["bonds"]])
    np.testing.assert_allclose(j, tri.offdiagonal, rtol=1e-12)
    x = np.array([g["x"] for g in doc["guides"]])
    det = np.array([g["detuning"] for g in doc["guides"]])
    db = FAB.n_substrate * np.diff(x) / (FAB.bend_radius * FAB.lambda_bar)
    np.testing.assert_allclose(db, np.diff(tri.diagonal), rtol=1e-12)
    np.testing.assert_allclose(np.diff(det), np.diff(tri.diagonal), rtol=1e-12)
