"""Loss metrics: mean window, agreement score, diagnostics, CSV round trips."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foilwind.postprocess import (
    LossSeries,
    mean_losses,
    r_squared,
    read_trace_csv,
    turns_per_slice,
    write_slice_csv,
    write_sweep_csv,
    write_trace_csv,
)
from foilwind.variants import FormulationVariant

from helpers import count_loss_peaks, pancake_materials, small_context, small_layout

F = 50.0
T = 1.0 / F


def _series(times, p):
    return LossSeries(np.asarray(times, float), np.asarray(p, float), F)


def _sin2(times, c=1.0):
    return c * np.sin(2 * np.pi * F * times) ** 2


# -- validation -------------------------------------------------------------------


def test_series_validation():
    t = np.linspace(0, T, 11)
    with pytest.raises(ValueError, match="matching"):
        _series(t, np.zeros(5))
    with pytest.raises(ValueError, match="increasing"):
        _series([0.0, 1.0, 1.0], np.zeros(3))
    with pytest.raises(ValueError, match="non-negative"):
        _series(t, -np.ones(11))
    with pytest.raises(ValueError, match="frequency"):
        LossSeries(t, np.zeros(11), 0.0)


def test_rel_err_mean():
    t = np.linspace(0, 2 * T, 401)
    ref = _series(t, _sin2(t))
    for scale in (1.1, 0.9):
        assert r_squared(_series(t, _sin2(t, c=scale)), ref).rel_err_P == pytest.approx(0.1)
    # no loss in the reference's trailing half period: no relative error
    silent = _series(t, np.where(t < 1.4 * T, _sin2(t), 0.0))
    with pytest.raises(ValueError, match="reference mean losses must be positive"):
        r_squared(ref, silent)


# -- mean losses --------------------------------------------------------------------


def test_mean_losses_constant_series():
    t = np.linspace(0, 2 * T, 401)
    s = _series(t, np.full_like(t, 3.7))
    assert mean_losses(s) == pytest.approx(3.7, rel=1e-12)


def test_mean_losses_sin_squared_halves_amplitude():
    # uniform sampling over full periods makes the trapezoid rule exact for
    # trigonometric polynomials, so only roundoff remains
    t = np.linspace(0, 2 * T, 401)
    s = _series(t, _sin2(t, c=2.5))
    assert mean_losses(s) == pytest.approx(1.25, rel=1e-10)


def test_mean_losses_sin_squared_irregular_grid():
    rng = np.random.default_rng(19)
    t = np.sort(rng.uniform(0, 2 * T, 900))
    t = np.concatenate([[0.0], t, [2 * T]])
    s = _series(t, _sin2(t, c=1.0))
    assert mean_losses(s) == pytest.approx(0.5, rel=1e-3)


def test_mean_losses_requires_half_period_of_history():
    t = np.linspace(0, 0.2 * T, 50)
    with pytest.raises(ValueError, match="reach back"):
        mean_losses(_series(t, np.ones_like(t)))
    with pytest.raises(ValueError, match="too short"):
        mean_losses(_series([0.0], [1.0]))


# -- agreement score -----------------------------------------------------------------


def test_identical_series_score_one():
    t = np.linspace(0, 2 * T, 365)
    rep = r_squared(_series(t, _sin2(t)), _series(t, _sin2(t)))
    assert rep.r_squared == pytest.approx(1.0, abs=1e-14)
    assert rep.one_minus_r2 == pytest.approx(0.0, abs=1e-14)
    assert rep.rel_err_P == pytest.approx(0.0, abs=1e-12)


def test_constant_mean_series_scores_zero():
    t = np.linspace(0, 2 * T, 1001)
    ref = _series(t, _sin2(t))
    flat = _series(t, np.full_like(t, 0.5))  # the reference's own mean
    rep = r_squared(flat, ref)
    assert rep.r_squared == pytest.approx(0.0, abs=1e-6)


def test_score_on_different_grids():
    ta = np.linspace(0, 2 * T, 733)
    tb = np.linspace(0, 2 * T, 401)
    rep = r_squared(_series(ta, _sin2(ta)), _series(tb, _sin2(tb)))
    assert rep.one_minus_r2 < 1e-5  # only interpolation error remains


def test_score_rejects_series_with_fewer_than_two_samples():
    t = np.linspace(0, 2 * T, 201)
    ref = _series(t, _sin2(t))
    for short in (_series([], []), _series([2 * T], [1.0])):
        for pair in ((short, ref), (ref, short)):
            with pytest.raises(ValueError, match="too short"):
                r_squared(*pair)


def test_score_error_cases():
    t_long = np.linspace(0, 2 * T, 201)
    t_short = np.linspace(1.5 * T, 2 * T, 51)
    with pytest.raises(ValueError, match="common full period"):
        r_squared(_series(t_short, np.ones_like(t_short)), _series(t_long, _sin2(t_long)))
    with pytest.raises(ValueError, match="constant"):
        r_squared(_series(t_long, _sin2(t_long)), _series(t_long, np.ones_like(t_long)))
    other = LossSeries(t_long, _sin2(t_long), 2 * F)
    with pytest.raises(ValueError, match="frequencies"):
        r_squared(other, _series(t_long, _sin2(t_long)))


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    shift=st.floats(min_value=0.0, max_value=2 * T),
)
def test_score_invariant_under_scaling_and_time_shift(scale, shift):
    t = np.linspace(0, 2 * T, 365)
    p_ref = _sin2(t) + 0.05
    p_test = p_ref * (1.0 + 0.1 * np.sin(4 * np.pi * F * t))
    base = r_squared(_series(t, p_test), _series(t, p_ref)).one_minus_r2
    moved = r_squared(
        _series(t + shift, scale * p_test), _series(t + shift, scale * p_ref)
    ).one_minus_r2
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)


# -- field-state losses ----------------------------------------------------------------


def test_uniform_critical_current_density_loss():
    """A winding carrying j = jc_eng everywhere dissipates e_c*jc_eng per unit
    volume; for the 20-turn pancake that is 3.92071e-2 W."""
    mats = pancake_materials()
    ctx = small_context(
        FormulationVariant.FCM_H_FULL, materials=mats, n_turns=20, n_alpha=5, n_beta=8
    )
    mesh, layout = ctx.mesh, ctx.layout
    jc_eng = mats.jc_engineering()
    g = mesh.geom
    # the edge of each edge unknown: the edge block is made of unit columns
    blk = layout.blocks["edge"]
    edges = layout.basis[:, blk].tocsc().indices
    dof_of = dict(zip(edges.tolist(), range(blk.start, blk.stop)))
    # h_z ramp: H = jc_eng * (r_out - clip(r)) on vertical edges makes every
    # winding cell carry exactly jc_eng and every air column zero net current
    w = np.zeros(layout.n_dofs)
    for ir in range(mesh.n_r):
        r = mesh.r_lines[ir]
        h = jc_eng * (g.outer_radius - min(max(r, g.inner_radius), g.outer_radius))
        for iz in range(mesh.n_z - 1):
            dof = dof_of.get(int(mesh.vedge_id(ir, iz)), -1)
            if dof >= 0:
                w[dof] = h * (mesh.z_lines[iz + 1] - mesh.z_lines[iz])
    assert np.allclose(ctx.cell_currents(w), jc_eng, rtol=1e-9)
    # constant jc: the lagging state does not matter
    p = mesh.symmetry_factor * ctx.dissipation(w, ctx.jc_effective(w))
    expect = mats.e_c * jc_eng * np.pi * (g.outer_radius**2 - g.inner_radius**2) * g.cc_width
    assert p == pytest.approx(expect, rel=1e-9)
    assert p == pytest.approx(3.92071e-2, rel=1e-4)


def test_slice_helpers():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=20, n_alpha=5, n_beta=8)
    assert turns_per_slice(ctx.mesh, ctx.layout) == pytest.approx(4.0)
    slices = ctx.slice_currents(np.zeros(ctx.layout.n_dofs))
    assert slices.shape == (5,)
    assert np.all(slices == 0.0)
    mesh_r, layout_r = small_layout(FormulationVariant.REF_H_PHI, n_turns=2)
    assert turns_per_slice(mesh_r, layout_r) == 1.0


# -- peak counting ----------------------------------------------------------------------


def test_two_loss_peaks_per_period():
    t = np.linspace(0, 2 * T, 801)
    s = _series(t, _sin2(t))
    assert count_loss_peaks(s, window_periods=1.0) == 2
    assert count_loss_peaks(s, window_periods=2.0) == 4


def test_peak_count_handles_flat_series():
    t = np.linspace(0, 2 * T, 801)
    assert count_loss_peaks(_series(t, np.ones_like(t))) == 0
    assert count_loss_peaks(_series([0.0, T], [0.0, 0.0])) == 0


# -- CSV ---------------------------------------------------------------------------------


def _fake_trace(n=7):
    t = np.linspace(0, 1e-2, n)
    return SimpleNamespace(
        times=t,
        p=np.abs(np.sin(t * 1e3)),
        i_target=96 * np.sin(2 * np.pi * F * t),
        newton_iters=np.arange(n) % 4,
        slice_currents=np.column_stack([np.sin(t), np.cos(t)]),
    )


def test_trace_csv_round_trip(tmp_path):
    trace = _fake_trace()
    path = write_trace_csv(tmp_path / "trace.csv", trace)
    data = read_trace_csv(path)
    assert set(data) == {"t", "p", "i_t", "newton_iters"}
    assert np.allclose(data["t"], trace.times, rtol=1e-12)
    assert np.allclose(data["p"], trace.p, rtol=1e-12)
    assert np.allclose(data["i_t"], trace.i_target, rtol=1e-12)
    assert np.array_equal(data["newton_iters"], trace.newton_iters)


def test_trace_csv_header_always_present(tmp_path):
    empty = SimpleNamespace(
        times=np.empty(0), p=np.empty(0), i_target=np.empty(0),
        newton_iters=np.empty(0, dtype=int), slice_currents=np.empty((0, 0)),
    )
    path = write_trace_csv(tmp_path / "empty.csv", empty)
    lines = path.read_text().strip().splitlines()
    assert lines == ["t,p,i_t,newton_iters"]
    data = read_trace_csv(path)
    assert all(v.size == 0 for v in data.values())


def test_trace_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected columns"):
        read_trace_csv(path)


def test_slice_csv_layout(tmp_path):
    trace = _fake_trace(3)
    path = write_slice_csv(tmp_path / "slices.csv", trace)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "slice_0", "slice_1"]
    assert len(rows) == 4
    assert float(rows[1][1]) == pytest.approx(np.sin(0.0), abs=1e-12)


def test_sweep_csv_layout(tmp_path):
    rows = [
        {"value": 4, "P": 1.5, "one_minus_r2": 2e-3, "n_dofs": 100, "linsys_count": 42},
        {"value": 6, "P": 1.51, "one_minus_r2": 0.0, "n_dofs": 140, "linsys_count": 55},
    ]
    path = write_sweep_csv(tmp_path / "sweep.csv", rows)
    with path.open() as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["value", "P", "one_minus_r2", "n_dofs", "linsys_count"]
    assert len(got) == 3
    assert float(got[1][1]) == pytest.approx(1.5)
    assert got[2][3] == "140"
