"""Geometry layout and structured mesh: shapes, conformity, bookkeeping."""

import numpy as np
import pytest

from foilwind.mesh import (
    MU0,
    BoundaryTag,
    CoilGeometry,
    build_geometry,
    mesh_structured,
)

from helpers import pancake_geometry, small_mesh


def test_turn_radii_arithmetic():
    g = pancake_geometry(n_turns=20)
    assert g.radial_build == pytest.approx(2e-3)
    assert g.outer_radius == pytest.approx(27e-3)
    assert g.half_width == pytest.approx(6e-3)
    assert g.domain_radius == pytest.approx(5 * 27e-3)
    r0, r1 = g.turn_bounds(0)
    assert (r0, r1) == (25e-3, pytest.approx(25.1e-3))
    r0, r1 = g.turn_bounds(19)
    assert r1 == pytest.approx(27e-3)
    # consecutive turns tile the radial build with no gaps
    for i in range(19):
        assert g.turn_bounds(i)[1] == pytest.approx(g.turn_bounds(i + 1)[0])
    with pytest.raises(ValueError):
        g.turn_bounds(20)
    with pytest.raises(ValueError):
        g.turn_bounds(-1)


def test_geometry_validation():
    with pytest.raises(ValueError):
        pancake_geometry(n_turns=0)
    with pytest.raises(ValueError):
        CoilGeometry(inner_radius=-1.0, n_turns=2, cc_thickness=1e-4, cc_width=12e-3)
    with pytest.raises(ValueError):
        pancake_geometry(air_radius_factor=1.0)


def test_homogenized_geometry_is_one_annulus():
    desc = build_geometry(pancake_geometry(n_turns=20, homogenized=True))
    assert len(desc.coil_rects) == 1
    r0, r1, z0, z1 = desc.coil_rects[0]
    assert (r0, r1) == (25e-3, pytest.approx(27e-3))
    assert (z0, z1) == (0.0, pytest.approx(6e-3))


def test_detailed_geometry_has_one_rect_per_turn():
    desc = build_geometry(pancake_geometry(n_turns=20))
    assert len(desc.coil_rects) == 20
    assert desc.coil_rects[0][:2] == pytest.approx((25e-3, 25.1e-3))
    assert desc.air_extent == pytest.approx((135e-3, 135e-3))


def test_homogenized_winding_block_shape():
    mesh = small_mesh(n_turns=20, n_alpha=5, n_beta=31)
    assert mesh.coil_cells.size == 5 * 31
    # winding block is uniform: all coil cells share dr and dz
    dr = mesh.dr[mesh.coil_cells]
    dz = mesh.dz[mesh.coil_cells]
    assert np.allclose(dr, 2e-3 / 5, rtol=1e-12)
    assert np.allclose(dz, 6e-3 / 31, rtol=1e-12)
    # half-model coil cross-section: radial build x half tape width
    assert np.sum(mesh.area[mesh.coil_cells]) == pytest.approx(2e-3 * 6e-3, rel=1e-12)


def test_mesh_lines_conform_and_areas_positive():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    assert np.all(np.diff(mesh.r_lines) > 0)
    assert np.all(np.diff(mesh.z_lines) > 0)
    assert np.all(mesh.area > 0)
    assert mesh.r_lines[0] == 0.0
    assert mesh.r_lines[-1] == pytest.approx(mesh.geom.domain_radius)
    assert mesh.z_lines[0] == 0.0
    # winding boundaries land exactly on mesh lines
    for r in (25e-3, mesh.geom.outer_radius):
        assert np.min(np.abs(mesh.r_lines - r)) < 1e-15
    assert np.min(np.abs(mesh.z_lines - mesh.geom.half_width)) < 1e-15


def test_detailed_turn_interfaces_on_mesh_lines():
    from foilwind.variants import FormulationVariant

    mesh = small_mesh(FormulationVariant.REF_H_PHI, n_turns=20, n_alpha=40, n_beta=8)
    g = mesh.geom
    for i in range(20):
        r0, r1 = g.turn_bounds(i)
        assert np.min(np.abs(mesh.r_lines - r0)) < 1e-15
        assert np.min(np.abs(mesh.r_lines - r1)) < 1e-15
    # region tags: two columns per turn, 8 rows each
    for i in range(20):
        assert np.count_nonzero(mesh.region == i) == 2 * 8


def test_indivisible_n_alpha_rejected():
    desc = build_geometry(pancake_geometry(n_turns=3))
    with pytest.raises(ValueError, match="divisible"):
        mesh_structured(desc, n_alpha=4, n_beta=8)
    with pytest.raises(ValueError, match="divisible"):
        mesh_structured(desc, n_alpha=2, n_beta=8)


def test_single_turn_mesh():
    from foilwind.variants import FormulationVariant

    mesh = small_mesh(FormulationVariant.REF_H_PHI, n_turns=1, n_alpha=2, n_beta=4)
    assert mesh.coil_cells.size == 2 * 4
    assert set(mesh.region[mesh.coil_cells]) == {0}


def test_cell_edge_incidence_shapes():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    assert mesh.n_cells == (mesh.n_r - 1) * (mesh.n_z - 1)
    assert mesh.n_edges == mesh.n_hedges + mesh.n_vedges
    assert mesh.cell_edges.shape == (mesh.n_cells, 4)
    assert mesh.quads.shape == (mesh.n_cells, 4)
    assert mesh.nodes.shape == (mesh.n_nodes, 2)
    # every edge id in range, each interior edge shared by exactly 2 cells
    counts = np.bincount(mesh.cell_edges.ravel(), minlength=mesh.n_edges)
    assert counts.max() <= 2
    assert counts.min() >= 1


def test_curl_row_gives_enclosed_current():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(mesh.n_edges)
    c = mesh.curl @ x
    # discrete Stokes: loop circulation around a cell block = sum of cell curls
    edges, signs = mesh.loop_edges(2, 6, 1, 5)
    circ = float(signs @ x[edges])
    cells = [mesh.cell_id(ir, iz) for ir in range(2, 6) for iz in range(1, 5)]
    assert circ == pytest.approx(np.sum(c[cells]), rel=1e-12)


def test_winding_loop_encloses_exactly_the_coil():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    edges, signs = mesh.winding_loop()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(mesh.n_edges)
    c = mesh.curl @ x
    circ = float(signs @ x[edges])
    assert circ == pytest.approx(np.sum(c[mesh.coil_cells]), rel=1e-12)


def test_mass_matrix_volume_identity():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    m = mesh.mass_matrix(mu=1.0)
    assert abs(m - m.T).max() < 1e-12 * abs(m).max()
    # edge dof = tangential circulation, so h_z = 1 means dof = dz per
    # vertical edge; the energy of that field is the total domain volume
    v = np.zeros(mesh.n_edges)
    for ir in range(mesh.n_r):
        for iz in range(mesh.n_z - 1):
            v[mesh.vedge_id(ir, iz)] = mesh.z_lines[iz + 1] - mesh.z_lines[iz]
    energy = float(v @ (m @ v))
    assert energy == pytest.approx(np.sum(mesh.volume), rel=1e-12)
    # same for h_r = 1 via horizontal edges
    h = np.zeros(mesh.n_edges)
    for ir in range(mesh.n_r - 1):
        for iz in range(mesh.n_z):
            h[mesh.hedge_id(ir, iz)] = mesh.r_lines[ir + 1] - mesh.r_lines[ir]
    energy_h = float(h @ (m @ h))
    assert energy_h == pytest.approx(np.sum(mesh.volume), rel=1e-12)


def test_mass_matrix_mu_scaling():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    m1 = mesh.mass_matrix(mu=1.0)
    m2 = mesh.mass_matrix()  # default MU0
    assert abs(m2 - MU0 * m1).max() < 1e-18


def test_boundary_classification():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    be = mesh.boundary_edges
    assert be[BoundaryTag.SYMMETRY].size == mesh.n_r - 1
    assert be[BoundaryTag.AXIS_SIDE].size == mesh.n_z - 1
    assert be[BoundaryTag.OUTER].size == (mesh.n_r - 1) + (mesh.n_z - 1)
    # constrained edges: outer + symmetry, disjoint from the axis
    ce = mesh.constrained_edges
    assert np.intersect1d(ce, be[BoundaryTag.AXIS_SIDE]).size == 0
    assert ce.size == be[BoundaryTag.SYMMETRY].size + be[BoundaryTag.OUTER].size


def test_alpha_beta_indexing():
    mesh = small_mesh(n_turns=20, n_alpha=5, n_beta=31)
    coil = mesh.coil_cells
    assert set(mesh.alpha_index[coil]) == set(range(5))
    assert set(mesh.beta_index[coil]) == set(range(31))
    air = np.setdiff1d(np.arange(mesh.n_cells), coil)
    assert np.all(mesh.alpha_index[air] == -1)
    assert np.all(mesh.beta_index[air] == -1)
    # each winding column holds n_beta cells
    assert np.all(np.bincount(mesh.alpha_index[coil]) == 31)


def test_alpha_spans_cover_unit_interval():
    mesh = small_mesh(n_turns=20, n_alpha=5, n_beta=31)
    spans = mesh.alpha_spans
    assert spans.shape == (5, 2)
    assert spans[0, 0] == 0.0
    assert spans[-1, 1] == pytest.approx(1.0)
    assert np.allclose(spans[1:, 0], spans[:-1, 1])
    assert np.allclose(spans[:, 1] - spans[:, 0], 0.2)


def test_region_names():
    from foilwind.variants import FormulationVariant

    hom = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    det = small_mesh(FormulationVariant.REF_H_PHI, n_turns=2, n_alpha=4, n_beta=8)
    assert hom.region_name(hom.coil_cells[0]) == "COIL"
    air = np.setdiff1d(np.arange(hom.n_cells), hom.coil_cells)[0]
    assert hom.region_name(air) == "AIR"
    names = {det.region_name(c) for c in det.coil_cells}
    assert names == {"TURN_0", "TURN_1"}


def test_symmetry_factor_and_volume():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    assert mesh.symmetry_factor == 2.0
    coil = mesh.coil_cells
    # half-model winding volume: pi*(r_out^2 - r_in^2)*half_width
    g = mesh.geom
    expect = np.pi * (g.outer_radius**2 - g.inner_radius**2) * g.half_width
    assert np.sum(mesh.volume[coil]) == pytest.approx(expect, rel=1e-12)
