"""Discrete spaces: voltage polynomials, cut functions, DoF layouts."""

import numpy as np
import pytest

from foilwind.spaces import VoltageBasis, build_dof_layout, eval_field
from foilwind.variants import FormulationVariant

from helpers import small_layout, small_mesh

FCM_VARIANTS = [
    FormulationVariant.FCM_H_FULL,
    FormulationVariant.FCM_H_PHI,
    FormulationVariant.FCM_T_OMEGA,
]
ALL_VARIANTS = [FormulationVariant.REF_H_PHI] + FCM_VARIANTS


# -- voltage basis -------------------------------------------------------------


def test_order_zero_is_constant():
    vb = VoltageBasis(0)
    assert vb.n_funcs == 1
    a = np.linspace(0, 1, 7)
    assert np.allclose(vb.eval(a), 1.0)
    assert np.allclose(vb.cell_means(np.array([0.2]), np.array([0.9])), 1.0)


def test_cubic_basis_is_orthogonal_on_unit_interval():
    vb = VoltageBasis(3)
    assert vb.n_funcs == 4
    g = vb.gram()
    assert np.allclose(g, np.diag([1.0, 1 / 3, 1 / 5, 1 / 7]), atol=1e-14)
    assert vb.gram_condition() == pytest.approx(7.0, rel=1e-10)


def test_basis_endpoint_values():
    vb = VoltageBasis(3)
    # alternating at the left end, all ones at the right end
    assert np.allclose(vb.eval(0.0), [1.0, -1.0, 1.0, -1.0])
    assert np.allclose(vb.eval(1.0), [1.0, 1.0, 1.0, 1.0])
    # the linear mode vanishes at midspan
    assert vb.eval(0.5)[1] == pytest.approx(0.0, abs=1e-15)


def test_cell_means_match_quadrature():
    vb = VoltageBasis(3)
    a0, a1 = 0.13, 0.77
    gp, gw = np.polynomial.legendre.leggauss(3)  # exact for cubics
    pts = 0.5 * (a0 + a1) + 0.5 * (a1 - a0) * gp
    quad = (gw[:, None] * vb.eval(pts)).sum(axis=0) * 0.5
    means = vb.cell_means(np.array([a0]), np.array([a1]))[0]
    assert np.allclose(means, quad, atol=1e-14)


def test_cell_means_tile_to_exact_integrals():
    # means weighted by widths telescope to the full-interval integrals,
    # which vanish for every mode above the constant
    vb = VoltageBasis(3)
    edges = np.linspace(0.0, 1.0, 6)
    means = vb.cell_means(edges[:-1], edges[1:])
    integral = (np.diff(edges)[:, None] * means).sum(axis=0)
    assert np.allclose(integral, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_voltage_basis_validation():
    with pytest.raises(ValueError):
        VoltageBasis(-1)


# -- cut functions --------------------------------------------------------------


def test_reference_cuts_are_per_turn_kronecker():
    mesh, layout = small_layout(FormulationVariant.REF_H_PHI, n_turns=2)
    cuts = layout.cut_basis
    assert len(cuts) == 2
    per_turn = mesh.n_alpha // 2
    for j in range(2):
        edges, signs = mesh.loop_edges(
            mesh.coil_col0 + per_turn * j, mesh.coil_col0 + per_turn * (j + 1), 0, mesh.n_beta
        )
        for i in range(2):
            want = 1.0 if i == j else 0.0
            assert cuts.circulation(i, edges, signs) == pytest.approx(want, abs=1e-14)


def test_every_cut_links_the_winding_once():
    mesh, layout = small_layout(FormulationVariant.REF_H_PHI, n_turns=2)
    edges, signs = mesh.winding_loop()
    for i in range(len(layout.cut_basis)):
        assert layout.cut_basis.circulation(i, edges, signs) == pytest.approx(1.0)


def test_fcm_hphi_single_cut():
    mesh, layout = small_layout(FormulationVariant.FCM_H_PHI, n_turns=2)
    assert len(layout.cut_basis) == 1
    edges, signs = mesh.winding_loop()
    assert layout.cut_basis.circulation(0, edges, signs) == pytest.approx(1.0)


# -- DoF layouts ----------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_layout_block_bookkeeping(variant):
    mesh, layout = small_layout(variant, n_turns=2)
    total = sum(sl.stop - sl.start for sl in layout.blocks.values())
    assert total == layout.n_field_dofs
    assert layout.n_dofs == layout.n_field_dofs + layout.n_voltage_dofs
    assert layout.basis.shape == (mesh.n_edges, layout.n_field_dofs)
    assert layout.curl_basis.shape == (mesh.n_cells, layout.n_field_dofs)
    # blocks tile [0, n_field) contiguously
    stops = sorted(sl.stop for sl in layout.blocks.values())
    starts = sorted(sl.start for sl in layout.blocks.values())
    assert starts[0] == 0 and stops[-1] == layout.n_field_dofs
    assert stops[:-1] == starts[1:]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_zero_tangential_trace_on_outer_and_midplane(variant):
    mesh, layout = small_layout(variant, n_turns=2)
    sub = layout.basis.tocsr()[mesh.constrained_edges, :]
    assert sub.nnz == 0 or abs(sub).max() == 0.0


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_scalar_potential_columns_are_curl_free(variant):
    _, layout = small_layout(variant, n_turns=2)
    if "nodal" not in layout.blocks:
        pytest.skip("all-edge layout has no potential block")
    blk = layout.blocks["nodal"]
    cols = layout.curl_basis[:, blk.start : blk.stop]
    assert cols.nnz == 0 or abs(cols).max() == 0.0


def test_voltage_dof_counts():
    _, ref = small_layout(FormulationVariant.REF_H_PHI, n_turns=2)
    assert ref.n_voltage_dofs == 2  # one current constraint per turn
    for v in FCM_VARIANTS:
        _, l = small_layout(v, voltage_order=3)
        assert l.n_voltage_dofs == 4
        _, l0 = small_layout(v, voltage_order=0)
        assert l0.n_voltage_dofs == 1


def test_all_edge_layout_has_no_potential():
    mesh, layout = small_layout(FormulationVariant.FCM_H_FULL, n_turns=2)
    assert set(layout.blocks) == {"edge"}
    assert layout.n_nodal_dofs == 0
    assert layout.n_cut_dofs == 0
    # every unconstrained edge is a DoF
    assert layout.n_edge_dofs == mesh.n_edges - mesh.constrained_edges.size


def test_current_potential_layout_blocks():
    _, layout = small_layout(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    assert set(layout.blocks) == {"edge", "nodal", "carrier"}
    assert layout.n_carrier_dofs == layout.n_voltage_dofs
    assert layout.n_cut_dofs == 0


def test_too_few_winding_columns_rejected():
    for v in FCM_VARIANTS:
        with pytest.raises(ValueError, match="n_alpha"):
            small_layout(v, voltage_order=3, n_alpha=3, n_beta=4)


def test_layouts_ignore_voltage_order_for_reference():
    _, a = small_layout(FormulationVariant.REF_H_PHI, n_turns=2, voltage_order=0)
    _, b = small_layout(FormulationVariant.REF_H_PHI, n_turns=2, voltage_order=3)
    assert a.n_dofs == b.n_dofs


# -- field evaluation ------------------------------------------------------------


def test_eval_field_zero_state():
    mesh, layout = small_layout(FormulationVariant.FCM_H_PHI, n_turns=2)
    (h_r, h_z), curl = eval_field(layout, np.zeros(layout.n_field_dofs), mesh.coil_cells[0])
    assert (h_r, h_z) == (0.0, 0.0)
    assert curl == 0.0


def test_eval_field_accepts_full_state_vector():
    mesh, layout = small_layout(FormulationVariant.FCM_H_PHI, n_turns=2)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(layout.n_dofs)
    (ar, az), ac = eval_field(layout, u, mesh.coil_cells[0])
    (br, bz), bc = eval_field(layout, u[: layout.n_field_dofs], mesh.coil_cells[0])
    assert (float(ar), float(az), float(ac)) == (float(br), float(bz), float(bc))


def test_eval_field_gradient_mode_is_curl_free():
    mesh, layout = small_layout(FormulationVariant.FCM_H_PHI, n_turns=2)
    blk = layout.blocks["nodal"]
    u = np.zeros(layout.n_field_dofs)
    rng = np.random.default_rng(11)
    u[blk.start : blk.stop] = rng.standard_normal(blk.stop - blk.start)
    x = layout.basis @ u
    for q in rng.integers(0, mesh.n_cells, size=20):
        _, curl = eval_field(layout, u, int(q))
        # cancellation is exact up to roundoff of the edge circulations
        scale = np.abs(x[mesh.cell_edges[q]]).sum() + 1e-30
        assert abs(curl) * mesh.area[q] < 1e-13 * scale


def test_eval_field_matches_cell_curl():
    mesh, layout = small_layout(FormulationVariant.FCM_H_FULL, n_turns=2)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(layout.n_field_dofs)
    x = layout.curl_basis @ u
    q = int(mesh.coil_cells[7])
    _, curl = eval_field(layout, u, q)
    assert curl == pytest.approx(x[q] / mesh.area[q], rel=1e-12)
