"""Assembly: residuals, Jacobians, excitation targets, energy bookkeeping."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from foilwind import formulations
from foilwind.formulations import (
    NEWTON_LINEAR_SOLVE,
    Elimination,
    Excitation,
    impose_excitation,
    spurious_air_term,
)
from foilwind.mesh import MU0
from foilwind.solver import SolverConfig, run_transient
from foilwind.spaces import eval_field
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


# -- residual structure ------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_zero_state_zero_drive_residual_vanishes(variant):
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    w = np.zeros(ctx.layout.n_dofs)
    sys = ctx.assemble(w, w, dt=1e-5, t=0.0, excitation=exc)
    assert np.all(sys.residual == 0.0)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_row_scale_dominates_residual(variant):
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    rng = np.random.default_rng(13)
    w = _random_state(ctx, rng)
    w_prev = _random_state(ctx, rng)
    sys = ctx.assemble(w, w_prev, dt=1e-5, t=1e-3, excitation=exc)
    assert np.all(np.abs(sys.residual) <= sys.row_scale * (1 + 1e-12) + 1e-300)


def test_state_shape_mismatch_rejected():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    bad = np.zeros(ctx.layout.n_dofs - 1)
    with pytest.raises(ValueError, match="layout"):
        ctx.assemble(bad, bad, 1e-5, 0.0, exc)


# -- Jacobian ---------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_jacobian_matches_directional_finite_differences(variant):
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(17)
    dt = 2e-5
    w_prev = _random_state(ctx, rng, current_fraction=0.5)
    for _ in range(3):
        w = _random_state(ctx, rng)
        sys = ctx.assemble(w, w_prev, dt, 1e-3, exc)
        v = rng.standard_normal(w.size)
        v /= np.linalg.norm(v)
        eps = 1e-7 * np.linalg.norm(w)
        rp = ctx.assemble(w + eps * v, w_prev, dt, 1e-3, exc).residual
        rm = ctx.assemble(w - eps * v, w_prev, dt, 1e-3, exc).residual
        fd = (rp - rm) / (2 * eps)
        jv = sys.jacobian @ v
        assert np.linalg.norm(jv - fd) / np.linalg.norm(jv) < 1e-5


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_jacobian_symmetric(variant):
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(29)
    w = _random_state(ctx, rng)
    sys = ctx.assemble(w, w, 2e-5, 1e-3, exc)
    asym = abs(sys.jacobian - sys.jacobian.T).max()
    assert asym <= 1e-12 * abs(sys.jacobian).max()


def test_ohmic_limit_jacobian_is_state_independent():
    mats = pancake_materials(n_exponent=1.0)
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2, materials=mats)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(31)
    j1 = ctx.assemble(_random_state(ctx, rng), np.zeros(ctx.layout.n_dofs), 2e-5, 1e-3, exc).jacobian
    j2 = ctx.assemble(_random_state(ctx, rng), np.zeros(ctx.layout.n_dofs), 2e-5, 2e-3, exc).jacobian
    assert abs(j1 - j2).max() <= 1e-12 * abs(j1).max()


def _sparse_algebra_jacobian(ctx, dt, d_tan):
    """The full Jacobian written as sparse-matrix algebra (the fill's oracle)."""
    d = np.zeros(ctx.mesh.n_cells)
    d[ctx.coil] = d_tan
    a = ctx.mass / dt + ctx.cbt @ sp.diags(d) @ ctx.cb
    if ctx.air_matrix is not None:
        a = a + ctx.air_matrix
    return sp.bmat([[a, ctx.coupling], [ctx.coupling.T, None]], format="csc")


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_full_jacobian_fill_equals_the_sparse_algebra_expression(variant):
    ctx = small_context(variant, n_turns=2)
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
            fill = ctx.jacobian(dt, d_tan)
            oracle = _sparse_algebra_jacobian(ctx, dt, d_tan)
            assert np.array_equal(fill.indptr, oracle.indptr), name
            assert np.array_equal(fill.indices, oracle.indices), name
            if unit_cb:
                assert np.array_equal(fill.data, oracle.data), name
            else:
                assert np.abs(fill.data - oracle.data).max() <= 1e-15 * np.abs(oracle.data).max()
    # the zero start state stores none of the tangent entries, like SciPy
    assert ctx.jacobian(1e-5, d_tans["zero start state"]).nnz < fill.nnz


def test_reference_ordering_keeps_the_newton_update():
    ctx = small_context(FormulationVariant.REF_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(67)
    for dt in (1e-5, 2e-4):
        w_prev = _random_state(ctx, rng, current_fraction=0.5)
        sys = ctx.assemble(_random_state(ctx, rng), w_prev, dt, 1e-3, exc)
        # the unknowns are numbered in the order computed once; each
        # factorization keeps it
        assert sys.factor_options == {"permc_spec": "NATURAL", "options": {"SymmetricMode": True}}
        b = -sys.residual
        lu = splu(sys.reduced_jacobian, **sys.factor_options)
        assert np.array_equal(lu.perm_c, np.arange(ctx.elimination.size))
        colamd = splu(sys.reduced_jacobian)
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
        ordered = sys.recover(lu.solve(sys.reduce(b)), b)
        default = splu(sys.jacobian).solve(b)
        assert np.linalg.norm(ordered - default) <= 1e-10 * np.linalg.norm(default)


def test_reference_order_is_computed_once_per_elimination(monkeypatch):
    calls = []
    splu_ = formulations.splu
    monkeypatch.setattr(formulations, "splu", lambda *a, **kw: calls.append(kw) or splu_(*a, **kw))
    ctx = small_context(FormulationVariant.REF_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.05), ctx, exc, store_states=False)
    assert trace.linsys_count > 1
    # one factorization of M_ee and one for the order, however many matrices
    order = NEWTON_LINEAR_SOLVE[FormulationVariant.REF_H_PHI].order
    assert len(calls) == 2 and calls.count(order) == 1
    elim = ctx.elimination
    for dt in (1e-5, 2e-4):
        elim.matrix(dt, np.ones(ctx.coil.size))
    assert len(calls) == 2


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
    condensed = variant is not FormulationVariant.FCM_H_FULL
    assert (NEWTON_LINEAR_SOLVE[variant].eliminate is not None) == condensed
    curl_free = _curl_free(ctx)
    assert curl_free.size > 0 or not condensed
    if variant is FormulationVariant.REF_H_PHI:
        # the exterior air only: every curl-free unknown whose basis column
        # touches no edge of a winding cell
        winding = ctx.layout.basis[_winding_edges(ctx)].tocsc()
        assert winding[:, elim.eliminated].count_nonzero() == 0
        touching = np.flatnonzero(np.diff(winding.indptr))
        assert np.array_equal(elim.eliminated, np.setdiff1d(curl_free, touching))
        assert 0 < elim.eliminated.size < curl_free.size
    else:
        # h-full eliminates nothing: it factors the full Jacobian
        assert np.array_equal(elim.eliminated, curl_free if condensed else [])
    assert np.array_equal(np.union1d(elim.kept, elim.eliminated), np.arange(ctx.layout.n_field_dofs))
    for dt in (1e-5, 2e-4):
        for _ in range(2):
            w_prev = _random_state(ctx, rng, current_fraction=0.5)
            sys = ctx.assemble(_random_state(ctx, rng), w_prev, dt, 1e-3, exc)
            b = -sys.residual
            reduced = sys.reduced_jacobian
            assert reduced.shape == (elim.kept.size + ctx.layout.n_voltage_dofs,) * 2
            x = splu(reduced).solve(sys.reduce(b))
            update = sys.recover(x, b)
            full = splu(sys.jacobian).solve(b)
            assert np.linalg.norm(update - full) <= 1e-10 * np.linalg.norm(full)
            if not condensed:
                # the full Jacobian itself, and reduce and recover copy
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(reduced, attr), getattr(sys.jacobian, attr))
                assert np.array_equal(sys.reduce(b), b) and np.array_equal(update, x)
                assert np.array_equal(update, full)


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


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_runs_leave_the_shared_curl_basis_untouched(variant):
    ctx = small_context(variant, n_turns=2)
    cb = ctx.layout.curl_basis
    before = [cb.data.copy(), cb.indices.copy(), cb.indptr.copy(), cb.has_sorted_indices]
    exc = Excitation(amplitude=96.0, frequency=50.0)
    run_transient(SolverConfig(periods=0.02), ctx, exc, store_states=False)
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
    mesh, layout = small_layout(FormulationVariant.FCM_H_PHI, n_turns=2)
    with pytest.raises(ValueError, match="all-edge"):
        spurious_air_term(mesh, layout, 1e-3)


def test_air_term_linear_in_resistivity_and_zero_in_winding():
    mesh, layout = small_layout(FormulationVariant.FCM_H_FULL, n_turns=2)
    a1 = spurious_air_term(mesh, layout, 1e-3)
    a2 = spurious_air_term(mesh, layout, 2e-3)
    assert abs(a2 - 2.0 * a1).max() < 1e-18
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
    from foilwind.materials import JcKim

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
    trace = run_transient(SolverConfig(periods=0.3), ctx, exc, store_states=True)
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
        traces[variant] = run_transient(cfg, ctx, exc, store_states=False)
    a = traces[FormulationVariant.REF_H_PHI]
    b = traces[FormulationVariant.FCM_H_PHI]
    assert a.p.max() > 1e-4  # through the nonlinear peak
    pb = np.interp(a.times, b.times, b.p)
    assert np.max(np.abs(pb - a.p)) <= 1e-9 * a.p.max()

