"""Geometry layout and structured mesh: shapes, conformity, bookkeeping."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial import polynomial as P

from foilwind.config import PRESETS, config_from_preset
from foilwind.formulations import AssemblyContext
from foilwind.mesh import (
    AIR,
    MU0,
    CoilGeometry,
    Mesh,
    mesh_structured,
)
from foilwind.runner import build_mesh
from foilwind.spaces import build_dof_layout
from foilwind.variants import FormulationVariant

from helpers import pancake_geometry, small_config, small_mesh


def test_turn_radii_arithmetic():
    g = pancake_geometry(n_turns=20)
    assert g.radial_build == pytest.approx(2e-3)
    assert g.outer_radius == pytest.approx(27e-3)
    assert g.half_width == pytest.approx(6e-3)
    assert g.domain_radius == pytest.approx(5 * 27e-3)


def test_geometry_validation():
    with pytest.raises(ValueError):
        pancake_geometry(n_turns=0)
    with pytest.raises(ValueError):
        CoilGeometry(inner_radius=-1.0, n_turns=2, cc_thickness=1e-4, cc_width=12e-3)
    with pytest.raises(ValueError):
        pancake_geometry(air_radius_factor=1.0)


def _region_rect(mesh, tag):
    """(r0, r1, z0, z1) of the cells tagged ``tag``, checked to fill it exactly."""
    cells = mesh.region == tag
    corners = mesh.nodes[mesh.quads[cells]]
    (r0, z0), (r1, z1) = corners.min(axis=(0, 1)), corners.max(axis=(0, 1))
    assert np.sum(mesh.area[cells]) == pytest.approx((r1 - r0) * (z1 - z0), rel=1e-12)
    return r0, r1, z0, z1


def test_homogenized_geometry_is_one_annulus():
    mesh = small_mesh(n_turns=20, n_alpha=5, n_beta=8)
    assert set(mesh.region[mesh.coil_cells]) == {0}
    r0, r1, z0, z1 = _region_rect(mesh, 0)
    assert (r0, r1) == (25e-3, pytest.approx(27e-3))
    assert (z0, z1) == (0.0, pytest.approx(6e-3))


def test_detailed_geometry_has_one_rect_per_turn():
    from foilwind.variants import FormulationVariant

    mesh = small_mesh(FormulationVariant.REF_H_PHI, n_turns=20, n_alpha=40, n_beta=8)
    assert set(mesh.region[mesh.coil_cells]) == set(range(20))
    assert _region_rect(mesh, 0) == pytest.approx((25e-3, 25.1e-3, 0.0, 6e-3))
    # consecutive turns tile the radial build with no gaps
    for i in range(20):
        assert _region_rect(mesh, i)[:2] == pytest.approx((25e-3 + i * 1e-4, 25.1e-3 + i * 1e-4))
    assert (mesh.r_lines[-1], mesh.z_lines[-1]) == pytest.approx((135e-3, 135e-3))


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
        r0 = g.inner_radius + i * g.cc_thickness
        r1 = r0 + g.cc_thickness
        assert np.min(np.abs(mesh.r_lines - r0)) < 1e-15
        assert np.min(np.abs(mesh.r_lines - r1)) < 1e-15
    # region tags: two columns per turn, 8 rows each
    for i in range(20):
        assert np.count_nonzero(mesh.region == i) == 2 * 8


def test_indivisible_n_alpha_rejected():
    coil = pancake_geometry(n_turns=3)
    with pytest.raises(ValueError, match="divisible"):
        mesh_structured(coil, n_alpha=4, n_beta=8)
    with pytest.raises(ValueError, match="divisible"):
        mesh_structured(coil, n_alpha=2, n_beta=8)


def test_non_finite_air_grading_rejected():
    # NaN fails ratio < 1 too; let through, it made NaN mesh lines that the area check passed
    for ratio in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite ratio"):
            mesh_structured(pancake_geometry(), n_alpha=4, n_beta=8, air_grading=ratio)


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


def test_gradient_rows_run_from_tail_to_head_and_have_no_curl():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    g = mesh.gradient
    assert g.shape == (mesh.n_edges, mesh.n_nodes)
    assert np.all(np.diff(g.indptr) == 2)
    rows = np.arange(mesh.n_edges)
    tail, head = mesh.edge_nodes.T
    assert np.all(g[rows, tail] == -1.0) and np.all(g[rows, head] == 1.0)
    # a potential's gradient carries no current: the discrete curl of it is zero
    assert (mesh.curl @ g).count_nonzero() == 0


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


def _coo_curl(mesh):
    """Reference curl: (cell, edge, sign) triplets over [bottom, top, left, right]."""
    rows = np.repeat(np.arange(mesh.n_cells), 4)
    vals = np.tile(np.array([-1.0, 1.0, 1.0, -1.0]), mesh.n_cells)
    cols = mesh.cell_edges.ravel()
    return sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_cells, mesh.n_edges))


def _coo_gradient(mesh):
    """Reference gradient: (edge, node, sign) triplets, -1 at the tail, +1 at the head."""
    rows = np.repeat(np.arange(mesh.n_edges), 2)
    vals = np.tile(np.array([-1.0, 1.0]), mesh.n_edges)
    cols = mesh.edge_nodes.ravel()
    return sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_edges, mesh.n_nodes))


def _coo_mass_matrix(mesh, mu=MU0):
    """Reference edge mass: a full 4x4 block per cell, cross-family entries zero."""
    dr, dz, r0, rb = mesh.dr, mesh.dz, mesh.r0, mesh.rbar
    c = 2.0 * np.pi * mu
    hb = c * rb * dz / dr
    hv = c * dr / dz
    m_ll = hv * (r0 / 3.0 + dr / 12.0)
    m_lr = hv * (r0 / 6.0 + dr / 12.0)
    m_rr = hv * (r0 / 3.0 + dr / 4.0)
    zero = np.zeros(mesh.n_cells)
    block = np.array(
        [
            [hb / 3.0, hb / 6.0, zero, zero],
            [hb / 6.0, hb / 3.0, zero, zero],
            [zero, zero, m_ll, m_lr],
            [zero, zero, m_lr, m_rr],
        ]
    )
    e = mesh.cell_edges
    rows = np.repeat(e, 4, axis=1).ravel()
    cols = np.tile(e, (1, 4)).ravel()
    m = sp.csr_matrix((block.transpose(2, 0, 1).ravel(), (rows, cols)), shape=(mesh.n_edges,) * 2)
    m.sum_duplicates()
    return m


def _same_csr(a, b):
    """Same shape, and the same data, indices and indptr, dtypes included."""
    parts = ("data", "indices", "indptr")
    return a.shape == b.shape and all(
        np.array_equal(getattr(a, k), getattr(b, k)) and getattr(a, k).dtype == getattr(b, k).dtype
        for k in parts
    )


def test_mass_matrix_stores_no_explicit_zeros():
    m = small_mesh(n_turns=2, n_alpha=4, n_beta=8).mass_matrix()
    assert m.nnz == m.count_nonzero()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_operators_match_the_coo_construction_bit_for_bit(preset, monkeypatch):
    cfg = config_from_preset(preset)
    mesh = build_mesh(cfg)
    layout = build_dof_layout(mesh, cfg.variant, cfg.voltage_order)
    ctx = AssemblyContext(layout, cfg.materials)
    built = [mesh.curl, mesh.gradient, mesh.mass_matrix(), layout.curl_basis, ctx.mass]
    # the same set-up with every mesh operator built from COO triplets
    monkeypatch.setattr(Mesh, "curl", property(_coo_curl))
    monkeypatch.setattr(Mesh, "gradient", property(_coo_gradient))
    monkeypatch.setattr(Mesh, "mass_matrix", _coo_mass_matrix)
    ref_mesh = build_mesh(cfg)
    ref_layout = build_dof_layout(ref_mesh, cfg.variant, cfg.voltage_order)
    ref_mass = ref_mesh.mass_matrix()
    ref_mass.eliminate_zeros()  # the values stay, only the zeros go
    reference = [ref_mesh.curl, ref_mesh.gradient, ref_mass, ref_layout.curl_basis,
                 AssemblyContext(ref_layout, cfg.materials).mass]
    names = ("curl", "gradient", "mass_matrix", "curl_basis", "mass")
    for name, a, b in zip(names, built, reference):
        assert _same_csr(a, b), name


def _ufunc_at_inside(mesh, incidence, full):
    """Entities (edges or nodes) all ``full`` of whose cells carry one winding tag."""
    ids = incidence.ravel()
    tags = np.repeat(mesh.region, incidence.shape[1])
    count = np.bincount(ids)
    lo = np.full(count.size, np.iinfo(tags.dtype).max)
    hi = np.full(count.size, AIR)
    np.minimum.at(lo, ids, tags)
    np.maximum.at(hi, ids, tags)
    return (count == full) & (lo == hi) & (lo >= 0)


def _sheet_columns(mesh, sheets):
    """One column per jump sheet (terminal column, cell row), from COO triplets."""
    rows, cols = [], []
    for k, (col, row) in enumerate(sheets):
        rows.append(mesh.vedge_id(np.arange(col + 1), np.full(col + 1, row)))
        cols.append(np.full(col + 1, k))
    rows = np.concatenate(rows)
    return sp.csr_matrix((np.ones(rows.size), (rows, np.concatenate(cols))), shape=(mesh.n_edges, len(sheets)))


def _legendre_means(mesh, order):
    """Cell means of the shifted Legendre polynomials, coefficients by Legendre-to-power series."""
    a0, a1 = mesh.alpha_spans.T
    means = []
    for k in range(order + 1):
        shifted = np.zeros(1)
        for i, ci in enumerate(np.polynomial.legendre.leg2poly(np.eye(k + 1)[k])):
            shifted = P.polyadd(shifted, ci * P.polypow([-1.0, 2.0], i))
        anti = P.polyint(shifted)
        means.append((P.polyval(a1, anti) - P.polyval(a0, anti)) / (a1 - a0))
    return np.stack(means, axis=-1)


def _hstack_layout(mesh, variant, order):
    """(basis, cell_slice, mode_means, mode_turns) of build_dof_layout, built from
    identity-matrix column picks, ufunc.at masks, a loop over the holes and one hstack."""
    coil = mesh.coil_cells
    holes = np.unique(mesh.region[coil])
    if variant.is_fcm:
        cell_slice, mode_means = mesh.alpha_index[coil], _legendre_means(mesh, order)
        mode_turns = np.zeros(order + 1)
        mode_turns[0] = mesh.geom.n_turns
    else:
        cell_slice, mode_means, mode_turns = mesh.region[coil], np.identity(holes.size), np.ones(holes.size)
    identity = sp.identity(mesh.n_edges, format="csr")
    if variant is FormulationVariant.FCM_H_FULL:
        free_edges = np.ones(mesh.n_edges, dtype=bool)
        free_edges[mesh.constrained_edges] = False
        columns = [identity[:, free_edges]]
    else:
        inside = _ufunc_at_inside(mesh, mesh.cell_edges, 2)
        free_nodes = np.ones(mesh.n_nodes, dtype=bool)
        if variant is FormulationVariant.FCM_T_OMEGA:
            inside[mesh.n_hedges :] = False
        else:
            free_nodes &= ~_ufunc_at_inside(mesh, mesh.quads, 4)
        free_nodes[mesh.dirichlet_nodes] = False
        columns = [identity[:, inside], mesh.gradient[:, free_nodes]]
        if variant is FormulationVariant.FCM_T_OMEGA:
            sheets = _sheet_columns(mesh, [(mesh.coil_col0 + j, 0) for j in range(mesh.n_alpha)])
            columns.append((sheets @ sp.csr_matrix(mode_means)).tocsr())
        else:
            cuts = []
            for idx, hole in enumerate(holes):
                col = int(mesh.alpha_index[mesh.region == hole].min()) + mesh.coil_col0
                cuts.append((col, (idx * mesh.n_beta) // len(holes)))
            columns.append(_sheet_columns(mesh, cuts))
    basis = sp.hstack([c for c in columns if c.shape[1]], format="csr")
    return basis, cell_slice, mode_means, mode_turns


SETUP_CASES = sorted(PRESETS) + [v.value for v in FormulationVariant]


@pytest.mark.parametrize("case", SETUP_CASES)
def test_setup_matches_the_hstack_construction_bit_for_bit(case):
    # a full preset, or a 2-turn case of a variant
    cfg = config_from_preset(case) if case in PRESETS else small_config(FormulationVariant(case))
    mesh = build_mesh(cfg)
    layout = build_dof_layout(mesh, cfg.variant, cfg.voltage_order)
    ctx = AssemblyContext(layout, cfg.materials)
    basis, cell_slice, mode_means, mode_turns = _hstack_layout(mesh, cfg.variant, cfg.voltage_order)
    mass = _coo_mass_matrix(mesh)
    mass.eliminate_zeros()
    curl_basis = (mesh.curl @ basis).tocsr()
    curl_basis.eliminate_zeros()
    built = [layout.basis, layout.curl_basis, mesh.mass_matrix(), ctx.mass]
    reference = [basis, curl_basis, mass, (basis.T @ mass @ basis).tocsr()]
    for name, a, b in zip(("basis", "curl_basis", "mass_matrix", "mass"), built, reference):
        assert _same_csr(a, b), name
    for a, b in ((layout.cell_slice, cell_slice), (layout.mode_means, mode_means),
                 (layout.mode_turns, mode_turns)):
        assert a.dtype == b.dtype and np.array_equal(a, b)

    # the context's winding, coupling and air operators against SciPy's
    # general-purpose constructions, stored order and sortedness flag included
    cb = layout.curl_basis
    arrays = ("data", "indices", "indptr")
    built = {"abs_mass": ctx.abs_mass, "winding_curl[0]": ctx.winding_curl[0],
             "winding_curl[1]": ctx.winding_curl[1], "coupling": ctx.coupling}
    if ctx.air_matrix is not None:
        built["air_matrix"] = ctx.air_matrix
    # none may share an index array with mass or cb, which SciPy would sort in place
    for name, op in built.items():
        for source in (ctx.mass, cb):
            assert not any(np.shares_memory(getattr(op, a), getattr(source, b))
                           for a in arrays for b in arrays), name
    winding = cb[mesh.coil_cells]
    reference = {"abs_mass": abs(ctx.mass), "winding_curl[0]": winding,
                 "winding_curl[1]": winding.T.tocsr(),
                 "coupling": ctx.winding_curl[1] @ sp.csr_matrix(layout.mode_means)[layout.cell_slice]}
    rho = cfg.materials.rho_spurious_air
    d = np.where(mesh.coil_mask, 0.0, rho * 2.0 * np.pi * mesh.rbar / mesh.area)
    air = (cb.T @ sp.diags(d) @ cb).tocsr()
    # only the all-edge space has curl in the air
    assert (ctx.air_matrix is not None) == (cfg.variant is FormulationVariant.FCM_H_FULL)
    if ctx.air_matrix is not None:
        reference["air_matrix"] = air
    else:
        assert air.nnz == 0
    for name, op in built.items():
        assert _same_csr(op, reference[name]), name
        assert op.has_sorted_indices == reference[name].has_sorted_indices, name


def test_boundary_classification():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    nr, nz = mesh.n_r, mesh.n_z

    def on_boundary(points):
        """Midplane, top and outer side; the axis r = 0 is not among them."""
        r, z = points[:, 0], points[:, 1]
        return (z == 0.0) | (z == mesh.z_lines[-1]) | (r == mesh.r_lines[-1])

    ce = mesh.constrained_edges
    assert ce.size == 2 * (nr - 1) + (nz - 1)
    midpoints = mesh.nodes[mesh.edge_nodes].mean(axis=1)
    assert np.array_equal(ce, np.flatnonzero(on_boundary(midpoints)))
    axis = mesh.vedge_id(np.zeros(nz - 1, dtype=int), np.arange(nz - 1))
    assert np.intersect1d(ce, axis).size == 0
    dn = mesh.dirichlet_nodes
    assert dn.size == 2 * nr + nz - 2
    assert np.array_equal(dn, np.flatnonzero(on_boundary(mesh.nodes)))


def test_alpha_beta_indexing():
    mesh = small_mesh(n_turns=20, n_alpha=5, n_beta=31)
    coil = mesh.coil_cells
    assert set(mesh.alpha_index[coil]) == set(range(5))
    # the winding fills cell rows 0 .. n_beta - 1 from the midplane up
    assert set(coil // (mesh.n_r - 1)) == set(range(31))
    air = np.setdiff1d(np.arange(mesh.n_cells), coil)
    assert np.all(mesh.alpha_index[air] == -1)
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


def test_region_tags():
    from foilwind.mesh import AIR
    from foilwind.variants import FormulationVariant

    hom = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    det = small_mesh(FormulationVariant.REF_H_PHI, n_turns=2, n_alpha=4, n_beta=8)
    # the homogenized winding is one region 0, the detailed one a region per turn
    assert set(hom.region[hom.coil_cells]) == {0}
    assert set(det.region[det.coil_cells]) == {0, 1}
    for mesh in (hom, det):
        air = np.setdiff1d(np.arange(mesh.n_cells), mesh.coil_cells)
        assert air.size > 0 and np.all(mesh.region[air] == AIR)


def test_symmetry_factor_and_volume():
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=8)
    assert mesh.symmetry_factor == 2.0
    coil = mesh.coil_cells
    # half-model winding volume: pi*(r_out^2 - r_in^2)*half_width
    g = mesh.geom
    expect = np.pi * (g.outer_radius**2 - g.inner_radius**2) * g.half_width
    assert np.sum(mesh.volume[coil]) == pytest.approx(expect, rel=1e-12)
