"""Assembly: residuals, Jacobians, excitation targets, energy bookkeeping."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from foilwind import formulations
from foilwind.config import PRESETS, config_from_preset
from foilwind.formulations import (
    Elimination,
    Excitation,
    impose_excitation,
)
from foilwind.materials import JcKim, power_law
from foilwind.mesh import MU0
from foilwind.runner import build_mesh
from foilwind.solver import SolverConfig, run_transient
from foilwind.spaces import VoltageBasis, build_dof_layout, eval_field
from foilwind.variants import FormulationVariant
from foilwind.vtk_io import snapshot_fields

from helpers import (
    pancake_materials,
    random_operating_state as _random_state,
    small_context,
    small_layout,
)

ALL_VARIANTS = list(FormulationVariant)
FCM_VARIANTS = [v for v in ALL_VARIANTS if v.is_fcm]


# -- excitation ------------------------------------------------------------------


def test_excitation_waveform():
    exc = Excitation(amplitude=96.0, frequency=50.0)
    assert exc.period == pytest.approx(0.02)
    assert exc.current(0.0) == 0.0
    assert exc.current(0.005) == pytest.approx(96.0)
    assert exc.current(0.015) == pytest.approx(-96.0)
    assert exc.current(0.02) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        Excitation(amplitude=1.0, frequency=0.0)


def test_reference_targets_one_current_per_turn():
    _, layout = small_layout(FormulationVariant.REF_H_PHI, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    tgt = impose_excitation(layout, exc, 0.005)
    assert tgt.shape == (2,)
    assert np.allclose(tgt, 9.6)
    assert np.allclose(impose_excitation(layout, exc, 0.0), 0.0)


@pytest.mark.parametrize("variant", FCM_VARIANTS)
def test_homogenized_targets_total_ampere_turns(variant):
    _, layout = small_layout(variant, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    tgt = impose_excitation(layout, exc, 0.005)
    assert tgt.shape == (4,)
    assert tgt[0] == pytest.approx(2 * 9.6)
    assert np.all(tgt[1:] == 0.0)  # shaping rows never carry a source
    # periodic drive
    again = impose_excitation(layout, exc, 0.005 + exc.period)
    assert np.allclose(again, tgt, atol=1e-12 * 9.6)


def _preset_context(name):
    cfg = config_from_preset(name)
    layout = build_dof_layout(build_mesh(cfg), cfg.variant, cfg.voltage_order)
    return formulations.AssemblyContext(layout, cfg.materials), cfg.voltage_order


def _per_variant_voltage_terms(ctx, voltage_order, exc, times, w):
    """Coupling, targets and slice currents as each variant used to build them."""
    layout, mesh, coil = ctx.layout, ctx.mesh, ctx.coil
    n_voltage = layout.n_voltage_dofs
    if not mesh.geom.homogenized:  # the detailed reference
        coupling = sp.identity(layout.n_field_dofs, format="csr")[:, layout.blocks["cut"]]
        targets = [np.full(n_voltage, exc.current(t)) for t in times]
        key = mesh.region[coil]
    else:
        vb = VoltageBasis(voltage_order)
        spans = mesh.alpha_spans
        phi_cells = np.zeros((mesh.n_cells, vb.n_funcs))
        phi_cells[coil] = vb.cell_means(spans[:, 0], spans[:, 1])[mesh.alpha_index[coil]]
        coupling = (ctx.cb.T.tocsr() @ sp.csr_matrix(phi_cells)).tocsr()
        targets = []
        for t in times:
            tgt = np.zeros(n_voltage)
            tgt[0] = mesh.geom.n_turns * exc.current(t)
            targets.append(tgt)
        key = mesh.alpha_index[coil]
    amps = ctx.cb[coil] @ w[: layout.n_field_dofs]
    return coupling, targets, mesh.symmetry_factor * np.bincount(key, weights=amps)


@pytest.mark.parametrize(
    "build",
    [
        *[lambda p=p: _preset_context(p) for p in ("pancake2d_ref", "pancake2d_fcm_hphi",
                                                   "pancake2d_fcm_hfull", "pancake2d_fcm_tw")],
        *[lambda v=v: (small_context(v), 3) for v in ALL_VARIANTS],
        # one to four turns; with 2 rows, the cuts of three and four turns share rows
        *[lambda n=n: (small_context(FormulationVariant.REF_H_PHI, n_turns=n, n_alpha=12,
                                     n_beta=2), 3) for n in (1, 3, 4)],
    ],
    ids=["preset-ref", "preset-hphi", "preset-hfull", "preset-tw",
         *[f"small-{v.value}" for v in ALL_VARIANTS], "ref-1-turn", "ref-3-turns", "ref-4-turns"],
)
def test_voltage_modes_reproduce_the_per_variant_construction(build):
    # the reference's per-turn constraints are its indicator voltage modes:
    # G = (CB)^T Phi, the targets and the slice currents come out bit for bit
    ctx, voltage_order = build()
    exc = Excitation(amplitude=9.6, frequency=50.0)
    times = (0.0, 0.25 * exc.period, 0.75 * exc.period)  # no, positive, negative drive
    w = np.random.default_rng(7).standard_normal(ctx.layout.n_dofs)
    coupling, targets, slices = _per_variant_voltage_terms(ctx, voltage_order, exc, times, w)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(ctx.coupling, name), getattr(coupling, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert ctx.coupling.shape == coupling.shape and ctx.coupling.format == "csr"
    for t, want in zip(times, targets):
        got = impose_excitation(ctx.layout, exc, t)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert exc.current(times[2]) < 0 < exc.current(times[1])
    assert np.array_equal(ctx.slice_currents(w), slices)


# -- residual structure ------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_zero_state_zero_drive_residual_vanishes(variant):
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    w = np.zeros(ctx.layout.n_dofs)
    sys = ctx.assemble(w, w, ctx.jc_effective(w), dt=1e-5, t=0.0, excitation=exc)
    assert np.all(sys.residual == 0.0)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_row_scale_dominates_residual(variant):
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    rng = np.random.default_rng(13)
    w = _random_state(ctx, rng)
    w_prev = _random_state(ctx, rng)
    sys = ctx.assemble(w, w_prev, ctx.jc_effective(w_prev), dt=1e-5, t=1e-3, excitation=exc)
    assert np.all(np.abs(sys.residual) <= sys.row_scale * (1 + 1e-12) + 1e-300)


def test_state_shape_mismatch_rejected():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    bad = np.zeros(ctx.layout.n_dofs - 1)
    with pytest.raises(ValueError, match="layout"):
        ctx.assemble(bad, bad, ctx.jc_effective(bad), 1e-5, 0.0, exc)


# -- Jacobian ---------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_jacobian_matches_directional_finite_differences(variant):
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(17)
    dt = 2e-5
    w_prev = _random_state(ctx, rng, current_fraction=0.5)
    jc = ctx.jc_effective(w_prev)
    for _ in range(3):
        w = _random_state(ctx, rng)
        sys = ctx.assemble(w, w_prev, jc, dt, 1e-3, exc)
        v = rng.standard_normal(w.size)
        v /= np.linalg.norm(v)
        eps = 1e-7 * np.linalg.norm(w)
        rp = ctx.assemble(w + eps * v, w_prev, jc, dt, 1e-3, exc).residual
        rm = ctx.assemble(w - eps * v, w_prev, jc, dt, 1e-3, exc).residual
        fd = (rp - rm) / (2 * eps)
        jv = ctx.jacobian(sys.dt, sys.d_tan) @ v
        assert np.linalg.norm(jv - fd) / np.linalg.norm(jv) < 1e-5


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_jacobian_symmetric(variant):
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(29)
    w = _random_state(ctx, rng)
    sys = ctx.assemble(w, w, ctx.jc_effective(w), 2e-5, 1e-3, exc)
    jac = ctx.jacobian(sys.dt, sys.d_tan)
    asym = abs(jac - jac.T).max()
    assert asym <= 1e-12 * abs(jac).max()


def test_ohmic_limit_jacobian_is_state_independent():
    mats = pancake_materials(n_exponent=1.0)
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2, materials=mats)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(31)
    jacobians = []
    w_prev = np.zeros(ctx.layout.n_dofs)
    for t in (1e-3, 2e-3):
        sys = ctx.assemble(_random_state(ctx, rng), w_prev, ctx.jc_effective(w_prev), 2e-5, t, exc)
        jacobians.append(ctx.jacobian(sys.dt, sys.d_tan))
    j1, j2 = jacobians
    assert abs(j1 - j2).max() <= 1e-12 * abs(j1).max()


def _sparse_algebra_jacobian(ctx, dt, d_tan):
    """The full Jacobian written as sparse-matrix algebra (the fill's oracle)."""
    d = np.zeros(ctx.mesh.n_cells)
    d[ctx.coil] = d_tan
    a = ctx.mass / dt + ctx.cb.T.tocsr() @ sp.diags(d) @ ctx.cb
    if ctx.air_matrix is not None:
        a = a + ctx.air_matrix
    return sp.bmat([[a, ctx.coupling], [ctx.coupling.T, None]], format="csc")


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_full_jacobian_fill_equals_the_sparse_algebra_expression(variant):
    ctx = small_context(variant, n_turns=2)
    full = Elimination(ctx, np.zeros(0, dtype=int))  # eliminates nothing
    rng = np.random.default_rng(61)
    n = ctx.coil.size
    # with cb entries of +-1 the terms of an entry sum the same in any order;
    # the t-omega carriers have other weights, so there roundoff may differ
    unit_cb = np.all(np.abs(ctx.cb.data) == 1.0)
    assert unit_cb == (variant is not FormulationVariant.FCM_T_OMEGA)
    d_tans = {
        "zero start state": np.zeros(n),
        "uniform": np.full(n, 3.7),
        "random 1e-8..1e4": 10.0 ** rng.uniform(-8.0, 4.0, n),
    }
    for dt in (1e-5, 2e-4):
        for name, d_tan in d_tans.items():
            fill = full.matrix(dt, d_tan)
            oracle = _sparse_algebra_jacobian(ctx, dt, d_tan)
            assert np.array_equal(fill.indptr, oracle.indptr), name
            assert np.array_equal(fill.indices, oracle.indices), name
            if unit_cb:
                assert np.array_equal(fill.data, oracle.data), name
            else:
                assert np.abs(fill.data - oracle.data).max() <= 1e-15 * np.abs(oracle.data).max()
    # the zero start state stores none of the tangent entries, like SciPy
    assert full.matrix(1e-5, d_tans["zero start state"]).nnz < fill.nnz


# -- the tangent refilled in place ----------------------------------------------------


def _eliminations(ctx):
    """The variant's elimination, and the one that eliminates nothing."""
    return ctx.elimination, Elimination(ctx, np.zeros(0, dtype=int))


def _in_unknowns(a, numbering, n):
    """``a``, whose row and column i is unknown numbering[i], in the unknowns'
    own numbering and without exact zeros, as canonical CSC."""
    a = a.tocoo()
    keep = a.data != 0
    rows, cols = numbering[a.row[keep]], numbering[a.col[keep]]
    return sp.csc_matrix((a.data[keep], (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_matrix_data_is_the_affine_combination_of_its_parts(variant):
    ctx = small_context(variant, n_turns=2)
    rng = np.random.default_rng(71)
    n = ctx.coil.size
    for elim in _eliminations(ctx):
        for dt in (1e-5, 2e-4):
            for d_tan in (np.zeros(n), np.full(n, 3.7), 10.0 ** rng.uniform(-8.0, 4.0, n)):
                want = elim.s0 * (1.0 / dt) + elim.tangent @ d_tan + elim.const
                got = elim.matrix(dt, d_tan)
                if want.all():
                    assert np.array_equal(got.data, want)
                    assert elim.numbering is elim.unknowns
                elif elim.order != {}:
                    # the exact zeros are pruned, the order of the rest kept
                    assert np.array_equal(got.data, want[want != 0])
                else:
                    # pruned and numbered in the order of its own pattern
                    assert got.data.all() and got.nnz == np.count_nonzero(want)
                    whole = sp.csc_matrix((want, elim.indices, elim.indptr), shape=got.shape)
                    want_own = _in_unknowns(whole, elim.unknowns, ctx.layout.n_dofs)
                    got_own = _in_unknowns(got, elim.numbering, ctx.layout.n_dofs)
                    for attr in ("data", "indices", "indptr"):
                        assert np.array_equal(getattr(got_own, attr), getattr(want_own, attr))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_zero_fill_is_pruned_on_a_copy_of_the_shared_pattern(variant):
    ctx = small_context(variant, n_turns=2)
    n = ctx.coil.size
    variant_elim, full_elim = _eliminations(ctx)
    for elim in (variant_elim, full_elim):
        indices, indptr = elim.indices.tobytes(), elim.indptr.tobytes()
        pruned = elim.matrix(1e-5, np.zeros(n))
        full = elim.matrix(1e-5, np.full(n, 3.7))
        assert full.data.all() and full.nnz == elim.indices.size
        assert full.indices.tobytes() == indices and full.indptr.tobytes() == indptr
        assert np.shares_memory(full.indices, elim.indices)
        assert np.shares_memory(full.indptr, elim.indptr)
        # the zero start state leaves tangent entries empty, always so when
        # nothing is eliminated; a dense complement can cover them all
        assert pruned is not full or elim is variant_elim
        if pruned is not full:
            assert pruned.nnz < full.nnz and pruned.data.all()
            assert not np.shares_memory(pruned.indices, elim.indices)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_factor_outlives_the_refill_of_its_matrix(variant):
    ctx = small_context(variant, n_turns=2)
    rng = np.random.default_rng(73)
    n = ctx.coil.size
    for elim in _eliminations(ctx):
        a = elim.matrix(1e-5, 10.0 ** rng.uniform(-8.0, 4.0, n))
        own = a.copy()
        lu = splu(a, **elim.factor_options)
        b = rng.standard_normal(elim.size)
        before = lu.solve(b)
        refilled = elim.matrix(2e-4, 10.0 ** rng.uniform(-8.0, 4.0, n))
        assert refilled is a and not np.array_equal(a.data, own.data)
        x = lu.solve(b)
        assert np.array_equal(x, before)
        backward = np.linalg.norm(own @ x - b) / (abs(own).max() * np.linalg.norm(x))
        assert backward <= 1e-12


def _all_cell_assembly(ctx, w, w_prev, dt, t, exc):
    """``assemble``'s residual and row scale, and ``dissipation``, with the
    resistive terms over every cell, C^T (d x) with d zero off the winding
    (the oracle)."""
    nf = ctx.layout.n_field_dofs
    elim = ctx.elimination
    u, v, u_prev = w[:nf], w[nf:], w_prev[:nf]
    x = ctx.cb @ u
    j = np.abs(x[ctx.coil]) / ctx.coil_area
    rho = power_law(j, ctx.jc_effective(w_prev), ctx.materials).rho
    d = np.zeros(ctx.mesh.n_cells)
    d[ctx.coil] = rho * ctx.coil_dweight
    res_term = ctx.cb.T.tocsr() @ (d * x)
    mass_term = np.zeros(nf)
    mass_term[elim.kept] = elim.schur @ ((u - u_prev)[elim.kept] / dt)
    coup_term = ctx.coupling @ v
    r_u = mass_term + res_term + coup_term
    mass_scale = ctx.abs_mass @ ((np.abs(u) + np.abs(u_prev)) / dt)
    scale_u = mass_scale + np.abs(res_term) + np.abs(coup_term)
    if ctx.air_matrix is not None:
        air_term = ctx.air_matrix @ u
        r_u += air_term
        scale_u += np.abs(air_term)
    target = 0.5 * impose_excitation(ctx.layout, exc, t)
    gtu = elim.coupling_t @ u
    residual = np.concatenate([r_u, gtu - target])
    row_scale = np.concatenate([scale_u, np.abs(gtu) + np.abs(target)])
    dissipation = float(np.sum(rho * ctx.coil_dweight * x[ctx.coil] ** 2))
    return x, residual, row_scale, dissipation


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_winding_cell_resistive_terms_equal_the_all_cell_sums(variant):
    # a field-dependent jc, so that the lagged jc enters too
    mats = pancake_materials(jc_model=JcKim(1e10, 0.05))
    ctx = small_context(variant, n_turns=2, materials=mats)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(97)
    for dt in (1e-5, 2e-4):
        w_prev = ctx.elimination.lift(_random_state(ctx, rng, current_fraction=0.5))
        jc = ctx.jc_effective(w_prev)
        w = _random_state(ctx, rng)
        sys = ctx.assemble(w, w_prev, jc, dt, 1e-3, exc)
        x, residual, row_scale, dissipation = _all_cell_assembly(ctx, w, w_prev, dt, 1e-3, exc)
        assert np.array_equal(sys.residual, residual)
        assert np.array_equal(sys.row_scale, row_scale)
        assert ctx.dissipation(w, jc) == dissipation
        assert np.array_equal(ctx.cell_currents(w), x[ctx.coil] / ctx.coil_area)


def _unique_pattern(m, *parts):
    """The CSC pattern of ``parts`` through np.unique of their keys (the oracle)."""
    keys = [cols.astype(np.int64) * m + rows for rows, cols in parts]
    pattern = np.unique(np.concatenate(keys))  # by column, then row
    indices = (pattern % m).astype(np.int32)
    indptr = np.searchsorted(pattern, np.arange(m + 1) * m).astype(np.int32)
    return indices, indptr, [np.searchsorted(pattern, k).astype(np.int32) for k in keys]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_fill_pattern_equals_the_unique_key_construction(variant, monkeypatch):
    calls = []
    pattern = formulations._csc_pattern

    def recorded(m, *parts):
        calls.append((m, parts, pattern(m, *parts)))
        return calls[-1][2]

    monkeypatch.setattr(formulations, "_csc_pattern", recorded)
    ctx = small_context(variant, n_turns=2)
    ctx.elimination, ctx.jacobian(1e-4, np.ones(ctx.coil.size))
    # the elimination, which the Jacobian reads too, fills its pattern once:
    # in its order where it eliminates unknowns, which comes from the
    # entries; h-full's order is applied by ``_relabelled``
    assert len(calls) == 1
    rng = np.random.default_rng(71)
    # repeated entries, empty parts, and empty rows and columns
    rows, cols = rng.integers(0, 30, 200), 2 * rng.integers(0, 20, 200)
    empty = (rows[:0], cols[:0])
    for parts in [((rows, cols), empty, (rows[:5], cols[:5])), (empty,)]:
        calls.append((40, parts, pattern(40, *parts)))
    for m, parts, got in calls:
        want = _unique_pattern(m, *parts)
        for a, b in [*zip(got[:2], want[:2]), *zip(got[2], want[2])]:
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert len(got[2]) == len(want[2]) == len(parts)


def test_relabelled_pattern_is_the_symmetric_permutation():
    rng = np.random.default_rng(89)
    m = 40
    a = sp.random(m, m, density=0.15, format="csc", random_state=rng, dtype=float)
    a.data += 1.0  # no stored zeros
    indices, indptr = a.indices.astype(np.int32), a.indptr.astype(np.int32)
    rank = rng.permutation(m).astype(np.int32)
    dense = np.zeros((m, m))
    dense[np.ix_(rank, rank)] = a.toarray()  # row and column i move to rank[i]
    rows, ptr, gather = formulations._relabelled(indices, indptr, rank)
    assert rows.dtype == ptr.dtype == np.int32
    b = sp.csc_matrix((a.data[gather], rows, ptr), shape=(m, m))
    b.has_canonical_format = True  # as the elimination marks it: nothing sorts it
    assert np.array_equal(b.toarray(), dense)
    # new column rank[j] holds old column j, its rows in their storage order
    for j in range(m):
        col = slice(ptr[rank[j]], ptr[rank[j] + 1])
        assert np.array_equal(rows[col], rank[indices[indptr[j] : indptr[j + 1]]])


def test_reference_ordering_keeps_the_newton_update():
    ctx = small_context(FormulationVariant.REF_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(67)
    for dt in (1e-5, 2e-4):
        # the unknowns are numbered in the order computed once; each
        # factorization keeps it, in unrelaxed supernodes with a small
        # diagonal-pivot threshold
        elim = ctx.elimination
        w_prev = elim.lift(_random_state(ctx, rng, current_fraction=0.5))
        w = elim.lift(_random_state(ctx, rng))
        jc = ctx.jc_effective(w_prev)
        sys = ctx.assemble(w, w_prev, jc, dt, 1e-3, exc)
        symmetric = {"permc_spec": "NATURAL", "options": {"SymmetricMode": True}}
        assert elim.factor_options == {**symmetric, "relax": 1, "diag_pivot_thresh": 1e-3}
        b = -sys.residual
        reduced = elim.matrix(sys.dt, sys.d_tan)
        lu = splu(reduced, **elim.factor_options)
        assert np.array_equal(lu.perm_c, np.arange(elim.size))
        colamd = splu(reduced)
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
        # the SuperLU defaults in the same order fill in at least as much
        replaced = splu(reduced, **symmetric)
        assert lu.L.nnz + lu.U.nnz <= replaced.L.nnz + replaced.U.nnz
        ordered = elim.lift(w + elim.solve(lu, b)) - w
        default = splu(_sparse_algebra_jacobian(ctx, sys.dt, sys.d_tan)).solve(b)
        assert np.linalg.norm(ordered - default) <= 1e-10 * np.linalg.norm(default)


def test_reference_order_is_computed_once_per_elimination(monkeypatch):
    calls = []
    splu_ = formulations.splu
    monkeypatch.setattr(formulations, "splu", lambda *a, **kw: calls.append(kw) or splu_(*a, **kw))
    ctx = small_context(FormulationVariant.REF_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.05), ctx, exc)
    assert trace.linsys_count > 1
    # one factorization of M_ee and one for the order, however many matrices
    order = ctx.elimination.order
    assert len(calls) == 2 and calls.count(order) == 1
    elim = ctx.elimination
    for dt in (1e-5, 2e-4):
        elim.matrix(dt, np.ones(ctx.coil.size))
    assert len(calls) == 2


ORDERED_CASES = [v.value for v in ALL_VARIANTS if v is not FormulationVariant.FCM_H_FULL] + [
    "pancake2d_fcm_tw", "pancake2d_ref"]


@pytest.mark.parametrize("case", ORDERED_CASES)
def test_order_is_the_one_of_the_natural_fill(case):
    # a 2-turn case of a variant, or a full preset
    if case not in PRESETS:
        ctx = small_context(FormulationVariant(case), n_turns=2)
    else:
        cfg = config_from_preset(case)
        layout = build_dof_layout(build_mesh(cfg), cfg.variant, cfg.voltage_order)
        ctx = formulations.AssemblyContext(layout, cfg.materials)
    elim = ctx.elimination
    # the order of the pattern filled in the unknowns' own numbering at dt = 1
    # and a unit tangent, with every entry stored, and SuperLU's default
    # diagonal-pivot threshold
    own = Elimination(ctx, elim.eliminated)
    data = own.s0 + own.tangent @ np.ones(ctx.coil.size) + own.const
    natural = sp.csc_matrix((data, own.indices, own.indptr), shape=(own.size,) * 2)
    perm_c = splu(natural, permc_spec="MMD_AT_PLUS_A", relax=1, options={"SymmetricMode": True}).perm_c
    assert not np.array_equal(perm_c, np.arange(own.size))
    assert np.array_equal(elim.unknowns, own.unknowns[np.argsort(perm_c)])


def test_reference_order_is_the_same_with_unrelaxed_supernodes(monkeypatch):
    order = formulations._ORDER
    assert order["relax"] == 1
    default = {k: v for k, v in order.items() if k != "relax"}
    orders = []
    splu_ = formulations.splu

    def recorded(a, **kw):
        lu = splu_(a, **kw)
        if kw == order:
            orders.append((lu.perm_c, splu_(a, **default).perm_c))
        return lu

    monkeypatch.setattr(formulations, "splu", recorded)
    small_context(FormulationVariant.REF_H_PHI, n_turns=2).elimination
    ((perm_c, relaxed),) = orders
    assert not np.array_equal(perm_c, np.arange(perm_c.size))
    assert np.array_equal(perm_c, relaxed)


# -- h-full: SuperLU's defaults in a COLAMD order computed once ------------------------


@pytest.mark.parametrize("preset", [None, "pancake2d_fcm_hfull"])
def test_full_factorization_in_its_order_equals_the_default_one(preset):
    if preset is None:
        ctx = small_context(FormulationVariant.FCM_H_FULL, n_turns=2)
    else:
        cfg = config_from_preset(preset)
        layout = build_dof_layout(build_mesh(cfg), cfg.variant, cfg.voltage_order)
        ctx = formulations.AssemblyContext(layout, cfg.materials)
    elim = ctx.elimination
    own = Elimination(ctx, np.zeros(0, dtype=int))  # the unknowns' own numbering, no order
    assert elim.order == {} and own.order is None
    assert not np.array_equal(elim.unknowns, own.unknowns)
    rng = np.random.default_rng(101)
    n = ctx.coil.size
    d_tans = {
        "zero start state": np.zeros(n),
        "uniform": np.full(n, 3.7),
        "random 1e-8..1e4": 10.0 ** rng.uniform(-8.0, 4.0, n),
    }
    for dt in (1e-5, 2e-4):
        for name, d_tan in d_tans.items():
            b = rng.standard_normal(ctx.layout.n_dofs)
            lu = splu(elim.matrix(dt, d_tan), **elim.factor_options)
            got = elim.solve(lu, b)
            default = splu(own.matrix(dt, d_tan))  # SuperLU's defaults, COLAMD per call
            assert np.array_equal(got, own.solve(default, b)), (name, dt)
            assert lu.L.nnz == default.L.nnz and lu.U.nnz == default.U.nnz, (name, dt)


def test_full_order_is_computed_once_per_pattern(monkeypatch):
    calls = []
    splu_ = formulations.splu
    monkeypatch.setattr(formulations, "splu", lambda *a, **kw: calls.append(kw) or splu_(*a, **kw))
    ctx = small_context(FormulationVariant.FCM_H_FULL, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.05), ctx, exc)
    assert trace.linsys_count > 1
    # one for the pattern with every entry stored, one for the zero start state
    order = ctx.elimination.order
    assert order == {} and calls.count(order) == 2


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_only_the_first_fill_of_a_run_has_exact_zeros(variant, monkeypatch):
    # the pruned fills that h-full orders one by one: a run meets one, from
    # the zero start state, so a cache of their orders would never be read
    fills = []
    matrix = Elimination.matrix

    def recorded(elim, dt, d_tan):
        a = matrix(elim, dt, d_tan)
        fills.append((a.nnz < elim.indices.size, not d_tan.any()))
        return a

    monkeypatch.setattr(Elimination, "matrix", recorded)
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.05), ctx, exc)
    assert len(fills) == trace.linsys_count > 1
    assert fills[0] == (True, True)
    assert not any(pruned or zero for pruned, zero in fills[1:])


# -- elimination of the curl-free unknowns ----------------------------------------------


def _curl_free(ctx):
    cb = ctx.layout.curl_basis.tocsc(copy=True)
    cb.eliminate_zeros()
    return np.flatnonzero(np.diff(cb.indptr) == 0)


def _winding_edges(ctx):
    return np.unique(ctx.mesh.cell_edges[ctx.coil])


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_condensed_newton_update_equals_the_full_solve(variant):
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(53)
    elim = ctx.elimination
    # one rule for every variant: every curl-free unknown whose basis column
    # touches no edge of a winding cell
    curl_free = _curl_free(ctx)
    winding = ctx.layout.basis[_winding_edges(ctx)].tocsc()
    assert winding[:, elim.eliminated].count_nonzero() == 0
    touching = np.flatnonzero(np.diff(winding.indptr))
    assert np.array_equal(elim.eliminated, np.setdiff1d(curl_free, touching))
    # every edge of h-full has curl, so it eliminates nothing and factors the
    # full Jacobian; the others keep the potential inside the winding
    condensed = variant is not FormulationVariant.FCM_H_FULL
    assert (curl_free.size > 0) == condensed
    assert 0 < elim.eliminated.size < curl_free.size or not condensed
    assert np.array_equal(np.union1d(elim.kept, elim.eliminated), np.arange(ctx.layout.n_field_dofs))
    for dt in (1e-5, 2e-4):
        for _ in range(2):
            # from lifted states, a Newton update and a lift make the full
            # Newton step, whose eliminated rows keep the mass rows at zero
            w_prev = elim.lift(_random_state(ctx, rng, current_fraction=0.5))
            w = elim.lift(_random_state(ctx, rng))
            jc = ctx.jc_effective(w_prev)
            sys = ctx.assemble(w, w_prev, jc, dt, 1e-3, exc)
            b = -sys.residual
            reduced = elim.matrix(sys.dt, sys.d_tan)
            assert reduced.shape == (elim.kept.size + ctx.layout.n_voltage_dofs,) * 2
            update = elim.solve(splu(reduced, **elim.factor_options), b)
            assert not update[elim.eliminated].any()
            full = splu(_sparse_algebra_jacobian(ctx, sys.dt, sys.d_tan)).solve(b)
            step = elim.lift(w + update) - w
            assert np.linalg.norm(step - full) <= 1e-10 * np.linalg.norm(full)
            if not condensed:
                # the full Jacobian itself, numbered in its COLAMD order and
                # factored in it, and the solve is bit for bit the plain
                # solve of it with SuperLU's defaults
                assert elim.factor_options == {"permc_spec": "NATURAL"} and elim.lift(w) is w
                jac = ctx.jacobian(sys.dt, sys.d_tan)
                own = _in_unknowns(reduced, elim.numbering, ctx.layout.n_dofs)
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(own, attr), getattr(jac, attr))
                assert np.array_equal(update, splu(jac).solve(b))


def _full_space_residual(ctx, w, w_prev, dt, t, exc):
    """The residual over every unknown, without elimination (``assemble``'s oracle):
    M (u - u_prev) / dt + C^T (d x) + G v [+ A u] and G^T u - target."""
    nf = ctx.layout.n_field_dofs
    u, v, u_prev = w[:nf], w[nf:], w_prev[:nf]
    x = ctx.cb @ u
    j = np.abs(x[ctx.coil]) / ctx.coil_area
    rho = power_law(j, ctx.jc_effective(w_prev), ctx.materials).rho
    d = np.zeros(ctx.mesh.n_cells)
    d[ctx.coil] = rho * ctx.coil_dweight
    r_u = ctx.mass @ (u - u_prev) / dt + ctx.cb.T.tocsr() @ (d * x) + ctx.coupling @ v
    if ctx.air_matrix is not None:
        r_u = r_u + ctx.air_matrix @ u
    r_v = ctx.coupling.T @ u - 0.5 * impose_excitation(ctx.layout, exc, t)
    return r_u, r_v


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_residual_is_the_full_space_residual_at_lifted_states(variant):
    # a field-dependent jc, so that the lagged jc reads the lifted w_prev too
    mats = pancake_materials(jc_model=JcKim(1e10, 0.05))
    ctx = small_context(variant, n_turns=2, materials=mats)
    elim = ctx.elimination
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(79)
    nf = ctx.layout.n_field_dofs
    e = elim.eliminated
    for dt in (1e-5, 2e-4):
        w_prev = elim.lift(_random_state(ctx, rng, current_fraction=0.5))
        jc = ctx.jc_effective(w_prev)
        w = _random_state(ctx, rng)
        sys = ctx.assemble(w, w_prev, jc, dt, 1e-3, exc)
        # the residual depends on the kept unknowns only; its eliminated rows
        # are zero
        lifted = elim.lift(w)
        again = ctx.assemble(lifted, w_prev, jc, dt, 1e-3, exc)
        assert np.array_equal(again.residual, sys.residual)
        assert not sys.residual[e].any()
        r_u, r_v = _full_space_residual(ctx, lifted, w_prev, dt, 1e-3, exc)
        kept = sys.residual[elim.kept], r_u[elim.kept]
        volt = sys.residual[nf:], r_v
        for got, want in (kept, volt):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # at lifted states the full-space eliminated rows vanish to roundoff
        u, u_prev = lifted[:nf], w_prev[:nf]
        mass_scale = ctx.abs_mass[e] @ ((np.abs(u) + np.abs(u_prev)) / dt)
        assert np.abs(r_u[e]).max(initial=0.0) <= 1e-13 * mass_scale.max(initial=0.0)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_lift_is_idempotent(variant):
    ctx = small_context(variant, n_turns=2)
    elim = ctx.elimination
    w = _random_state(ctx, np.random.default_rng(83))
    once = elim.lift(w)
    assert np.array_equal(elim.lift(once), once)
    # only the eliminated unknowns move
    moved = np.flatnonzero(once != w)
    assert np.isin(moved, elim.eliminated).all()
    assert moved.size == elim.eliminated.size > 0 or variant is FormulationVariant.FCM_H_FULL


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_sparse_schur_complement_equals_the_dense_one(variant):
    ctx = small_context(variant, n_turns=2)
    elim = ctx.elimination
    kept, e = elim.kept, elim.eliminated
    m = ctx.mass.toarray()
    oracle = m[np.ix_(kept, kept)]
    if e.size:
        oracle = oracle - m[np.ix_(kept, e)] @ np.linalg.solve(m[np.ix_(e, e)], m[np.ix_(e, kept)])
    s0 = sp.csc_matrix((elim.s0, elim.indices, elim.indptr), shape=(elim.size,) * 2).toarray()
    row = np.empty(ctx.layout.n_dofs, dtype=int)
    row[elim.unknowns] = np.arange(elim.size)
    assert np.abs(s0[np.ix_(row[kept], row[kept])] - oracle).max() <= 1e-12 * np.abs(oracle).max()
    # the voltage rows and columns hold no mass
    volt = row[ctx.layout.n_field_dofs :]
    assert not s0[volt].any() and not s0[:, volt].any()


def test_t_omega_condensed_system_stays_sparse_as_the_stack_is_refined():
    # the potential inside the winding is kept, so the Schur complement of the
    # eliminated air is confined to the winding's rim: twice the cells across
    # the stack give about twice the kept unknowns, not a dense block of them
    kept, nnz = [], []
    for n_alpha in (5, 10):
        cfg = config_from_preset("pancake2d_fcm_tw")
        cfg = replace(cfg, mesh=replace(cfg.mesh, n_alpha=n_alpha))
        layout = build_dof_layout(build_mesh(cfg), cfg.variant, cfg.voltage_order)
        elim = formulations.AssemblyContext(layout, cfg.materials).elimination
        assert elim.schur.nnz < 0.1 * elim.kept.size**2
        kept.append(elim.kept.size)
        nnz.append(elim.schur.nnz)
    assert kept[0] == 340
    assert 1.8 <= kept[1] / kept[0] <= 2.0
    # and its entries grow no faster than the kept unknowns
    assert nnz[1] / nnz[0] <= kept[1] / kept[0]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_runs_leave_the_shared_curl_basis_untouched(variant):
    ctx = small_context(variant, n_turns=2)
    cb = ctx.layout.curl_basis
    before = [cb.data.copy(), cb.indices.copy(), cb.indptr.copy(), cb.has_sorted_indices]
    exc = Excitation(amplitude=96.0, frequency=50.0)
    run_transient(SolverConfig(periods=0.02), ctx, exc)
    assert ctx.cb is cb
    for a, b in zip(before, [cb.data, cb.indices, cb.indptr, cb.has_sorted_indices]):
        assert np.array_equal(a, b)


def test_elimination_rejects_unknowns_the_coupling_reaches():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    coupled = np.flatnonzero(np.diff(ctx.coupling.tocsr().indptr))
    with pytest.raises(ValueError, match="coupling"):
        Elimination(ctx, np.union1d(_curl_free(ctx), coupled[:1]))


def test_elimination_rejects_unknowns_with_curl():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    coupled = np.diff(ctx.coupling.tocsr().indptr) > 0
    curl_uncoupled = np.setdiff1d(np.flatnonzero(~coupled), _curl_free(ctx))
    assert curl_uncoupled.size > 0
    with pytest.raises(ValueError, match="curl"):
        Elimination(ctx, np.union1d(_curl_free(ctx), curl_uncoupled[:1]))


# -- spurious air resistivity --------------------------------------------------------


def test_air_term_only_for_all_edge_variant():
    for variant in ALL_VARIANTS:
        if variant is not FormulationVariant.FCM_H_FULL:
            assert small_context(variant, n_turns=2).air_matrix is None


def test_air_term_linear_in_resistivity_and_zero_in_winding():
    variant = FormulationVariant.FCM_H_FULL
    ctx1 = small_context(variant, n_turns=2, materials=pancake_materials(rho_spurious_air=1e-3))
    ctx2 = small_context(variant, n_turns=2, materials=pancake_materials(rho_spurious_air=2e-3))
    mesh, layout, a1 = ctx1.mesh, ctx1.layout, ctx1.air_matrix
    assert abs(ctx2.air_matrix - 2.0 * a1).max() < 1e-18
    # a state whose curl lives only in winding cells feels no air resistivity
    rng = np.random.default_rng(41)
    u = rng.standard_normal(layout.n_field_dofs)
    x = layout.curl_basis @ u
    air = np.setdiff1d(np.arange(mesh.n_cells), mesh.coil_cells)
    # project out the air curls cell by cell using the edge identity basis
    assert a1.shape == (layout.n_field_dofs, layout.n_field_dofs)
    quad = float(u @ (a1 @ u))
    expect = float(np.sum(1e-3 * 2 * np.pi * mesh.rbar[air] / mesh.area[air] * x[air] ** 2))
    assert quad == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize(
    "variant",
    [FormulationVariant.REF_H_PHI, FormulationVariant.FCM_H_PHI, FormulationVariant.FCM_T_OMEGA],
)
def test_scalar_potential_air_is_exactly_curl_free(variant):
    mesh, layout = small_layout(variant, n_turns=2)
    air = np.setdiff1d(np.arange(mesh.n_cells), mesh.coil_cells)
    sub = layout.curl_basis.tocsr()[air, :]
    assert sub.nnz == 0 or abs(sub).max() == 0.0


# -- derived quantities ---------------------------------------------------------------


def test_jc_effective_constant_model():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    jc = ctx.jc_effective(np.zeros(ctx.layout.n_dofs))
    assert jc.shape == (ctx.coil.size,)
    assert np.all(jc == 1e8)


def test_jc_effective_field_dependent_model():
    mats = pancake_materials(jc_model=JcKim(1e10, 0.05))
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2, materials=mats)
    # zero state: no field, no suppression
    jc0 = ctx.jc_effective(np.zeros(ctx.layout.n_dofs))
    assert np.allclose(jc0, 1e8)
    rng = np.random.default_rng(43)
    w = _random_state(ctx, rng)
    jc = ctx.jc_effective(w)
    assert np.all(jc < 1e8 + 1e-9)
    assert np.all(jc > 0)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_flux_density_matches_eval_field_oracle(variant):
    ctx = small_context(variant, n_turns=2)
    w = _random_state(ctx, np.random.default_rng(47))
    b_r, b_z = ctx.flux_density(w)
    oracle = np.array([MU0 * eval_field(ctx.layout, w, c)[0] for c in range(ctx.mesh.n_cells)])
    # eval_field blends the two opposite edges with weights 0.5: not bit-equal
    tol = 1e-12 * np.abs(oracle).max()
    assert np.abs(b_r - oracle[:, 0]).max() <= tol
    assert np.abs(b_z - oracle[:, 1]).max() <= tol
    assert np.array_equal(snapshot_fields(ctx, w)["b_mag"], np.hypot(b_r, b_z))


def test_unit_cut_slice_currents():
    ctx = small_context(FormulationVariant.REF_H_PHI, n_turns=2)
    blk = ctx.layout.blocks["cut"]
    for i in range(2):
        u = np.zeros(ctx.layout.n_dofs)
        u[blk.start + i] = 1.0
        got = ctx.slice_currents(u)
        want = np.zeros(2)
        want[i] = ctx.mesh.symmetry_factor
        assert np.allclose(got, want, atol=1e-14)


def test_power_balance_closes_at_converged_states():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.3), ctx, exc)
    assert trace.p.max() > 0  # the power law actually dissipated
    w, w_prev = trace.states[-1], trace.states[-2]
    dt = trace.times[-1] - trace.times[-2]
    bal = ctx.power_balance(w, w_prev, dt)
    scale = max(abs(bal["magnetic_energy_rate"]), abs(bal["dissipation"]), abs(bal["coupling_power"]))
    assert abs(bal["imbalance"]) <= 1e-6 * scale


def test_single_turn_reference_and_homogenized_coincide():
    """With one turn and a constant voltage profile the two formulations
    solve the same discrete problem on the same mesh."""
    exc = Excitation(amplitude=96.0, frequency=50.0)
    cfg = SolverConfig(periods=0.35)
    traces = {}
    for variant in (FormulationVariant.REF_H_PHI, FormulationVariant.FCM_H_PHI):
        ctx = small_context(variant, voltage_order=0, n_turns=1, n_alpha=2, n_beta=4)
        traces[variant] = run_transient(cfg, ctx, exc)
    a = traces[FormulationVariant.REF_H_PHI]
    b = traces[FormulationVariant.FCM_H_PHI]
    assert a.p.max() > 1e-4  # through the nonlinear peak
    pb = np.interp(a.times, b.times, b.p)
    assert np.max(np.abs(pb - a.p)) <= 1e-9 * a.p.max()

