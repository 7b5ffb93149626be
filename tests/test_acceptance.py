"""Acceptance gate: the eleven headline checks, one PASS/FAIL line each.

This file exercises the full-size pancake presets, so it takes several
minutes of wall time. Run it on its own with

    pytest tests/test_acceptance.py -v -s

The -s flag surfaces the per-criterion PASS/FAIL lines while they happen.
"""

from dataclasses import replace
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

from foilwind.config import apply_sweep_value, config_from_preset
from foilwind.formulations import Excitation
from foilwind.materials import JcConstant
from foilwind.mesh import mesh_structured
from foilwind.postprocess import (
    LossSeries,
    mean_losses,
    r_squared,
    turns_per_slice,
)
from foilwind.runner import build_mesh, execute_run, run_sweep
from foilwind.spaces import build_dof_layout
from foilwind.variants import FormulationVariant

from helpers import count_loss_peaks, random_operating_state, small_context

FCM_PRESETS = ("pancake2d_fcm_hfull", "pancake2d_fcm_hphi", "pancake2d_fcm_tw")
REF_PRESET = "pancake2d_ref"


def report(num, label, ok, detail):
    line = f"[{num:>2}/11] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(f"\n{line}")
    assert ok, line


def _run(cfg, out_dir):
    trace, summary = execute_run(cfg, out_dir)
    mesh = build_mesh(cfg)
    layout = build_dof_layout(mesh, cfg.variant, cfg.voltage_order)
    return SimpleNamespace(
        cfg=cfg,
        trace=trace,
        summary=summary,
        mesh=mesh,
        layout=layout,
        series=LossSeries(trace.times, trace.p, cfg.excitation.frequency),
    )


@pytest.fixture(scope="session")
def preset_runs(tmp_path_factory):
    """All four full presets, two excitation periods each."""
    root = tmp_path_factory.mktemp("presets")
    return {
        name: _run(config_from_preset(name), root / name)
        for name in (REF_PRESET, *FCM_PRESETS)
    }


@pytest.fixture(scope="session")
def alpha4_runs(tmp_path_factory):
    """One period of each homogenized variant with as many slices as voltage modes."""
    root = tmp_path_factory.mktemp("alpha4")
    out = {}
    for name in FCM_PRESETS:
        cfg = apply_sweep_value(config_from_preset(name), "n_alpha", 4.0)
        cfg = replace(cfg, solver=replace(cfg.solver, periods=1.0))
        out[name] = _run(cfg, root / name)
    return out


@pytest.fixture(scope="session")
def linear_runs(tmp_path_factory):
    """Ohmic-limit runs where foil homogenization is exact.

    n = 1 turns the power law into a constant resistivity e_c / jc_eng. The
    tape constants would give 1e-12 Ohm m and a 0.07 mm skin depth, thinner
    than the foil itself, where the detailed model resolves intra-foil eddy
    currents that a foil model neglects by construction. jc0 = 1e6 A/m^2
    puts the resistivity at 1e-8 Ohm m (skin depth ~7 mm, far above the
    0.1 mm foil), squarely inside the foil-model regime that a linear
    equivalence check is meant to probe.
    """
    root = tmp_path_factory.mktemp("linear")
    out = {}
    for key, name in (("ref", REF_PRESET), ("fcm", "pancake2d_fcm_tw")):
        cfg = config_from_preset(name)
        cfg = replace(
            cfg,
            materials=replace(cfg.materials, n_exponent=1.0, jc_model=JcConstant(1e6)),
            solver=replace(cfg.solver, periods=1.0),
        )
        out[key] = _run(cfg, root / key)
    return out


@pytest.fixture(scope="session")
def refinement_rows(tmp_path_factory):
    cfg = config_from_preset("pancake2d_fcm_tw")
    cfg = replace(cfg, solver=replace(cfg.solver, periods=1.0))
    return run_sweep(
        cfg, "n_alpha", [4.0, 6.0, 10.0, 16.0], tmp_path_factory.mktemp("refine")
    )


@pytest.fixture(scope="session")
def hundred_turn_run(tmp_path_factory):
    cfg = apply_sweep_value(config_from_preset("pancake2d_fcm_tw"), "n_turns", 100.0)
    _, summary = execute_run(cfg, tmp_path_factory.mktemp("turns") / "tw100")
    return summary


def test_01_cross_model_agreement(preset_runs):
    ref = preset_runs[REF_PRESET]
    worst = {}
    for name in FCM_PRESETS:
        rep = r_squared(preset_runs[name].series, ref.series)
        worst[preset_runs[name].cfg.variant.value] = rep.one_minus_r2
    detail = ", ".join(f"{k} 1-R2={v:.2e}" for k, v in worst.items())
    report(1, "cross-model agreement", all(v < 5e-3 for v in worst.values()), detail)


def test_02_unknown_count_ordering(preset_runs):
    sizes = {
        preset_runs[name].cfg.variant.value: preset_runs[name].summary["n_dofs"]
        for name in FCM_PRESETS
    }
    meshes = [preset_runs[name].summary["mesh"] for name in FCM_PRESETS]
    shared = all(m == meshes[0] for m in meshes)
    ordered = sizes["fcm-t-omega"] < sizes["fcm-h-phi"] < sizes["fcm-h-full"]
    detail = (
        f"t-omega {sizes['fcm-t-omega']} < h-phi {sizes['fcm-h-phi']}"
        f" < h-full {sizes['fcm-h-full']}, shared mesh {shared}"
    )
    report(2, "unknown-count ordering", shared and ordered, detail)


def test_03_cross_variant_mean_losses(preset_runs):
    P = {name: preset_runs[name].summary["mean_losses_w"] for name in FCM_PRESETS}
    spread = max(
        abs(P[a] - P[b]) / P[b] for a, b in permutations(FCM_PRESETS, 2)
    )
    detail = ", ".join(f"{n.rsplit('_', 1)[-1]} {P[n]:.6f} W" for n in FCM_PRESETS)
    report(3, "cross-variant mean losses", spread < 1e-2, f"{detail}; spread {spread:.2e}")


def test_04_per_slice_transport_current(alpha4_runs):
    worst = 0.0
    ok = True
    for bundle in alpha4_runs.values():
        tps = turns_per_slice(bundle.mesh, bundle.layout)
        per_turn = bundle.trace.slice_currents / tps
        dev = np.abs(per_turn - bundle.trace.i_target[:, None])
        amp = bundle.cfg.excitation.amplitude
        # 0.1% of the instantaneous current, with an amplitude-based floor
        # so the bound stays meaningful at the zero crossings
        tol = 1e-3 * np.maximum(np.abs(bundle.trace.i_target), 0.05 * amp)[:, None]
        ok = ok and bool(np.all(dev <= tol))
        worst = max(worst, float((dev / tol).max()))
    report(4, "per-slice transport current", ok, f"worst dev/tol {worst:.2e}")


def test_05_circulation_identity(preset_runs):
    worst = 0.0
    for bundle in preset_runs.values():
        edges, signs = bundle.mesh.winding_loop()
        w = bundle.layout.basis[edges].T @ signs
        states = np.stack(bundle.trace.states)
        circ = states[:, : bundle.layout.n_field_dofs] @ w
        target = bundle.cfg.geometry.n_turns * bundle.trace.i_target
        dev = np.abs(bundle.mesh.symmetry_factor * circ - target)
        scale = bundle.cfg.geometry.n_turns * bundle.cfg.excitation.amplitude
        worst = max(worst, float(dev.max()) / scale)
    report(5, "circulation identity", worst < 1e-10, f"worst dev {worst:.2e} rel")


def test_06_linear_limit(linear_runs):
    iters = max(
        int(bundle.trace.newton_iters.max()) for bundle in linear_runs.values()
    )
    rep = r_squared(linear_runs["fcm"].series, linear_runs["ref"].series)
    ok = iters <= 2 and rep.one_minus_r2 < 1e-3
    report(
        6,
        "linear limit",
        ok,
        f"max iters/step {iters}, 1-R2 {rep.one_minus_r2:.2e}",
    )


def test_07_jacobian_consistency():
    worst = 0.0
    exc = Excitation(amplitude=96.0, frequency=50.0)
    rng = np.random.default_rng(1234)
    for variant in FormulationVariant:
        ctx = small_context(variant, n_turns=2)
        w_prev = random_operating_state(ctx, rng, current_fraction=0.5)
        for _ in range(10):
            w = random_operating_state(ctx, rng)
            sys = ctx.assemble(w, w_prev, 2e-5, 1e-3, exc)
            v = rng.standard_normal(w.size)
            v /= np.linalg.norm(v)
            eps = 1e-7 * np.linalg.norm(w)
            rp = ctx.assemble(w + eps * v, w_prev, 2e-5, 1e-3, exc).residual
            rm = ctx.assemble(w - eps * v, w_prev, 2e-5, 1e-3, exc).residual
            fd = (rp - rm) / (2 * eps)
            jv = ctx.jacobian(sys.dt, sys.d_tan) @ v
            worst = max(worst, float(np.linalg.norm(jv - fd) / np.linalg.norm(jv)))
    report(7, "Jacobian consistency", worst < 1e-5, f"worst directional err {worst:.2e}")


def test_08_across_stack_refinement(refinement_rows):
    P = [row["P"] for row in refinement_rows]
    eps = [abs(p - P[-1]) / P[-1] for p in P]
    monotone = all(a > b for a, b in zip(eps[:-1], eps[1:]))
    detail = "eps_P " + ", ".join(f"{e:.2e}" for e in eps)
    report(8, "across-stack refinement", monotone and eps[0] <= 0.03, detail)


def test_09_turn_count_scaling(preset_runs, hundred_turn_run):
    base = preset_runs["pancake2d_fcm_tw"].summary
    dof_growth = hundred_turn_run["n_dofs"] / base["n_dofs"]
    wall_ratio = hundred_turn_run["wall_time_s"] / base["wall_time_s"]

    ref_cfg = config_from_preset(REF_PRESET)
    detailed = {}
    for n_turns, n_alpha in ((20, 40), (100, 200)):
        geom = replace(ref_cfg.geometry, n_turns=n_turns)
        mesh = mesh_structured(
            geom,
            n_alpha=n_alpha,
            n_beta=ref_cfg.mesh.n_beta,
            air_grading=ref_cfg.mesh.grading,
        )
        layout = build_dof_layout(mesh, ref_cfg.variant, ref_cfg.voltage_order)
        coil_edges = np.unique(mesh.cell_edges[mesh.coil_cells])
        # the edge block is made of unit columns, one per edge unknown
        edge_unknowns = layout.basis[:, layout.blocks["edge"]].tocsc().indices
        winding = int(np.isin(coil_edges, edge_unknowns).sum())
        cut = layout.blocks["cut"]
        winding += cut.stop - cut.start
        detailed[n_turns] = (layout.n_dofs, winding)

    # the winding-attributable unknowns must scale with the turn count; the
    # exterior-air unknowns are turn-independent by nature, so the total is
    # required to grow by at least the replicated winding
    winding_ratio = detailed[100][1] / detailed[20][1]
    total_growth = detailed[100][0] - detailed[20][0]
    linear_floor = (100 / 20 - 1) * detailed[20][1]
    ok = (
        dof_growth < 1.3
        and wall_ratio < 3.0
        and winding_ratio >= 5.0 - 1e-12
        and total_growth >= linear_floor
    )
    detail = (
        f"fcm dofs x{dof_growth:.2f}, wall x{wall_ratio:.2f}; "
        f"detailed winding dofs x{winding_ratio:.2f}, "
        f"total +{total_growth} >= {linear_floor:.0f}"
    )
    report(9, "turn-count scaling", ok, detail)


def test_10_loss_positivity_and_periodicity(preset_runs):
    ok = True
    peaks = {}
    for name, bundle in preset_runs.items():
        ok = ok and bool(np.all(bundle.trace.p >= 0.0))
        peaks[name] = count_loss_peaks(bundle.series, window_periods=1.0)
        ok = ok and peaks[name] == 2
    detail = "p >= 0 everywhere; steady-period peaks " + ", ".join(
        str(v) for v in peaks.values()
    )
    report(10, "loss positivity and periodicity", ok, detail)


def test_11_metric_oracles():
    t = np.linspace(0.0, 0.04, 2001)
    c = 3.7
    sin2 = c * np.sin(2 * np.pi * 50.0 * t) ** 2

    def series(p):
        return LossSeries(times=t, p=p, frequency=50.0)

    ref = series(sin2)
    r2_same = r_squared(series(sin2.copy()), ref).r_squared
    r2_const = r_squared(series(np.full_like(t, c / 2)), ref).r_squared
    mean_const = mean_losses(series(np.full_like(t, c)))
    mean_sin2 = mean_losses(ref)
    ok = (
        abs(r2_same - 1.0) < 1e-14
        and abs(r2_const) < 1e-9
        and abs(mean_const - c) < 1e-12 * c
        and abs(mean_sin2 - c / 2) < 1e-9 * c
    )
    detail = (
        f"R2(identical)={r2_same:.1f}, R2(constant-mean)={r2_const:.1e}, "
        f"mean(c)={mean_const:.6f}, mean(c sin^2)={mean_sin2:.6f}"
    )
    report(11, "comparison-metric oracles", ok, detail)
