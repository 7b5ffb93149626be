"""Discrete spaces: voltage polynomials, cut functions, DoF layouts."""

from dataclasses import replace
from math import comb

import numpy as np
import pytest

from foilwind.spaces import VoltageBasis, build_dof_layout, eval_field
from foilwind.variants import FormulationVariant

from helpers import small_layout, small_mesh, truncation_edges

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
    # 4-point Gauss is exact for the degree-6 products
    gp, gw = np.polynomial.legendre.leggauss(4)
    phi = vb.eval(0.5 + 0.5 * gp)
    g = 0.5 * (gw[:, None] * phi).T @ phi
    assert np.allclose(g, np.diag([1.0, 1 / 3, 1 / 5, 1 / 7]), atol=1e-14)
    assert np.linalg.cond(g) == pytest.approx(7.0, rel=1e-10)


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


@pytest.mark.parametrize("order", range(11))
def test_voltage_basis_is_exact_at_every_order(order):
    # P_k(2x - 1) has the integer coefficients (-1)^(k+j) C(k, j) C(k+j, j)
    vb = VoltageBasis(order)
    for k, coeffs in enumerate(vb._coeffs):
        assert coeffs.tolist() == [(-1) ** (k + j) * comb(k, j) * comb(k + j, j) for j in range(k + 1)]
    # the width-weighted products of the means over a uniform tiling are the
    # Gram matrix diag(1/(2k+1)) less the products of the errors of the
    # piecewise-constant projection, each error at most (h/pi) |P_k'| with
    # |P_k'|^2 = 2k(k+1) on [0, 1]
    n = 64
    edges = np.linspace(0.0, 1.0, n + 1)
    means = vb.cell_means(edges[:-1], edges[1:])
    gram = means.T @ means / n
    k = np.arange(order + 1)
    slope = np.sqrt(2.0 * k * (k + 1)) / (np.pi * n)
    assert np.all(np.abs(gram - np.diag(1.0 / (2 * k + 1))) <= np.outer(slope, slope) + 1e-12)


# -- cut functions --------------------------------------------------------------


def _cut_circulations(layout, edges, signs) -> np.ndarray:
    """Circulation of each cut column of ``layout.basis`` along an edge loop."""
    return signs @ layout.basis[edges, layout.blocks["cut"]].toarray()


def test_reference_cuts_are_per_turn_kronecker():
    mesh, layout = small_layout(FormulationVariant.REF_H_PHI, n_turns=2)
    per_turn = mesh.n_alpha // 2
    for j in range(2):
        edges, signs = mesh.loop_edges(
            mesh.coil_col0 + per_turn * j, mesh.coil_col0 + per_turn * (j + 1), 0, mesh.n_beta
        )
        want = np.eye(2)[j]
        assert _cut_circulations(layout, edges, signs) == pytest.approx(want, abs=1e-14)


def test_every_cut_links_the_winding_once():
    mesh, layout = small_layout(FormulationVariant.REF_H_PHI, n_turns=2)
    edges, signs = mesh.winding_loop()
    assert _cut_circulations(layout, edges, signs) == pytest.approx([1.0, 1.0])


def test_fcm_hphi_single_cut():
    mesh, layout = small_layout(FormulationVariant.FCM_H_PHI, n_turns=2)
    edges, signs = mesh.winding_loop()
    assert _cut_circulations(layout, edges, signs) == pytest.approx([1.0])


def test_a_cut_line_ending_outside_its_turn_is_refused():
    mesh = small_mesh(FormulationVariant.REF_H_PHI, n_turns=2)
    # the cut of turn 1 ends in its first column, half-way up the winding;
    # give that cell to turn 0
    terminal = mesh.cell_id(mesh.coil_col0 + mesh.n_alpha // 2, mesh.n_beta // 2)
    assert mesh.region[terminal] == 1
    region = mesh.region.copy()
    region[terminal] = 0
    with pytest.raises(ValueError, match="cut line for hole 1 terminates outside it"):
        build_dof_layout(replace(mesh, region=region), FormulationVariant.REF_H_PHI)


# -- DoF layouts ----------------------------------------------------------------


def _strictly_inside(mesh, variant, points) -> np.ndarray:
    """Points inside one turn rectangle (detailed model) or the bulk winding
    (homogenized), by a quarter of the smallest winding cell."""
    g = mesh.geom
    n_conductors = 1 if variant.is_fcm else g.n_turns
    width = g.radial_build / n_conductors
    margin = 0.25 * min(g.radial_build / mesh.n_alpha, g.half_width / mesh.n_beta)
    r, z = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    for i in range(n_conductors):
        r0 = g.inner_radius + i * width
        inside |= (r > r0 + margin) & (r < r0 + width - margin)
    return inside & (z > margin) & (z < g.half_width - margin)


@pytest.mark.parametrize(
    "variant",
    [FormulationVariant.REF_H_PHI, FormulationVariant.FCM_H_PHI, FormulationVariant.FCM_T_OMEGA],
)
def test_unknowns_follow_the_conductor_geometry(variant):
    # edge unknowns on the edges inside a conductor (t-omega: radial ones
    # only), nodal unknowns on every other node off the zero-potential
    # boundary (t-omega: on every node off it)
    for n_turns, n_alpha, n_beta in [(1, 4, 1), (1, 4, 3), (2, 2, 2), (2, 4, 8), (3, 6, 1), (5, 10, 2)]:
        mesh, layout = small_layout(
            variant, voltage_order=0, n_turns=n_turns, n_alpha=n_alpha, n_beta=n_beta
        )
        basis = layout.basis.tocsc()
        first = basis.indptr[:-1]  # first entry of each column
        en = mesh.edge_nodes

        # an empty block is left out (t-omega with one cell row has no edge unknowns)
        edges = basis.indices[first[layout.blocks.get("edge", slice(0))]]
        want = _strictly_inside(mesh, variant, mesh.nodes[en].mean(axis=1))
        if variant is FormulationVariant.FCM_T_OMEGA:
            want[mesh.n_hedges :] = False
        assert np.array_equal(edges, np.flatnonzero(want))

        # a gradient column enters its node (+1) or leaves it (-1)
        pos = first[layout.blocks["nodal"]]
        e = basis.indices[pos]
        nodes = np.where(basis.data[pos] > 0, en[e, 1], en[e, 0])
        want = np.ones(mesh.n_nodes, dtype=bool)
        if variant is not FormulationVariant.FCM_T_OMEGA:
            want &= ~_strictly_inside(mesh, variant, mesh.nodes)
        want[mesh.dirichlet_nodes] = False
        assert np.array_equal(nodes, np.flatnonzero(want))


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
    sub = layout.basis.tocsr()[truncation_edges(mesh), :]
    assert sub.nnz == 0 or abs(sub).max() == 0.0


@pytest.mark.parametrize("variant", [v for v in ALL_VARIANTS if v is not FormulationVariant.FCM_H_FULL])
def test_scalar_potential_columns_are_curl_free(variant):
    _, layout = small_layout(variant, n_turns=2)
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
    # edge DoFs only, one per edge off the truncation boundary
    n_free = mesh.n_edges - truncation_edges(mesh).size
    assert layout.blocks == {"edge": slice(0, n_free)}
    assert layout.n_field_dofs == n_free


def test_current_potential_layout_blocks():
    _, layout = small_layout(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    assert set(layout.blocks) == {"edge", "nodal", "carrier"}
    carrier = layout.blocks["carrier"]
    assert carrier.stop - carrier.start == layout.n_voltage_dofs
    # the blocks tile the field unknowns in order
    spans = sorted((b.start, b.stop) for b in layout.blocks.values())
    assert spans[0][0] == 0 and spans[-1][1] == layout.n_field_dofs
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


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
