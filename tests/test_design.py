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
    feasibility_report,
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
    assert abs(chain.dropped_constant - (-GOLDEN_TRI.diagonal.sum())) < 1e-15


def test_spin_chain_single_site():
    tri = SymmetricTridiagonal(np.array([0.3]), np.empty(0))
    chain = spin_chain_params(tri)
    assert chain.couplings.size == 0
    assert chain.fields.tolist() == [0.3]


def test_result_types_require_every_field():
    # a default constant would be wrong for any chain with sum(B) != 0, and a
    # design without fabrication constants cannot rebuild its couplings
    with pytest.raises(TypeError, match="dropped_constant"):
        SpinChainParams(couplings=np.empty(0), fields=np.array([0.3]))
    arrays = {name: np.zeros(2) for name in ("spacings", "angles", "x", "y", "detunings")}
    with pytest.raises(TypeError, match="fab"):
        WaveguideDesign(**arrays)


def test_fabrication_constants_validation():
    with pytest.raises(ValidationError):
        FabricationConstants(0.0, 1.0, 300.0, 1e-3, 1.5)
    with pytest.raises(ValidationError):
        FabricationConstants(2.0, 1.0, 300.0, -1e-3, 1.5)


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


def test_layout_rejects_unphysical_bend_radius():
    fab = FabricationConstants(2.0, 1.0, 10.0, 1e-3, 1.5)
    with pytest.raises(ValidationError):
        waveguide_layout(GOLDEN_TRI, fab)


def test_feasibility_report_feasible_design():
    report = feasibility_report(GOLDEN_TRI, FAB)
    assert report["feasible"]
    assert np.all(report["coupling_margins"] > 0.0)
    assert np.all(report["tilt_margins"] > 0.0)
    assert report["suggested_r_max"] > FAB.bend_radius


def test_feasibility_report_zero_margin_at_argmax_bond():
    fab = FabricationConstants(0.520, 1.0, 300.0, 1e-3, 1.5)
    report = feasibility_report(GOLDEN_TRI, fab)
    assert not report["feasible"]
    assert report["coupling_margins"][0] == 0.0


def test_feasibility_tilt_margin_monotone_in_radius():
    margins = []
    for r in (250.0, 500.0, 1000.0, 2500.0):
        fab = FabricationConstants(2.0, 1.0, r, 1e-3, 1.5)
        margins.append(feasibility_report(GOLDEN_TRI, fab)["tilt_margins"].min())
    assert all(m1 > m2 for m1, m2 in zip(margins, margins[1:]))


@pytest.mark.parametrize("kappa", [0.4, 0.52, 2.0, 5.0])
@pytest.mark.parametrize("radius", [1.0, 100.0, 240.0, 300.0, 1000.0, 1e6])
def test_feasibility_verdict_matches_layout(kappa, radius):
    # R = 1 breaks the paraxial bound, R = 1e6 the tilt, kappa = 0.4 the coupling
    fab = FabricationConstants(kappa, 1.0, radius, 1e-3, 1.5)
    try:
        waveguide_layout(GOLDEN_TRI, fab)
        laid_out = True
    except (CouplingTooStrong, TiltInfeasible, ValidationError):
        laid_out = False
    assert feasibility_report(GOLDEN_TRI, fab)["feasible"] is laid_out


def test_feasibility_report_refuses_paraxial_violation():
    # every tilt is realizable at R = 1, but R is below 100 max d
    report = feasibility_report(GOLDEN_TRI, FabricationConstants(2.0, 1.0, 1.0, 1e-3, 1.5))
    assert not report["feasible"]
    assert np.all(report["tilt_margins"] > 0.0)


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
