"""Run orchestration: artifact layout, reload, comparison, sweeps."""

import json
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from foilwind import runner, solver
from foilwind.config import PRESET_VERSION, ConfigError, parse_config_text, serialize_config
from foilwind.formulations import AssemblyContext
from foilwind.materials import JcKim
from foilwind.runner import build_mesh, compare_runs, execute_run, load_run, run_sweep
from foilwind.spaces import build_dof_layout
from foilwind.variants import FormulationVariant
from foilwind.vtk_io import snapshot_fields

from helpers import small_config, with_materials


def _fast(variant, **kw):
    # one full period, capped at 100 steps/period: enough for the mean-loss
    # window and the agreement metric while staying quick
    return small_config(variant, amplitude=96.0, periods=1.0, dt_max=2e-4, **kw)


@pytest.fixture(scope="module")
def run_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    out = {}
    for variant in (FormulationVariant.FCM_T_OMEGA, FormulationVariant.FCM_H_PHI):
        cfg = _fast(variant)
        trace, summary = execute_run(cfg, root / variant.value)
        out[variant] = (root / variant.value, trace, summary)
    return out


def test_artifact_files(run_pair):
    out, trace, summary = run_pair[FormulationVariant.FCM_T_OMEGA]
    for name in ("config.txt", "trace.csv", "slices.csv", "summary.json"):
        assert (out / name).is_file()
    # two snapshots: peak drive of the last period and the final state
    assert (out / "fields_0.vtk").is_file()
    assert (out / "fields_1.vtk").is_file()
    assert len(summary["snapshot_times"]) == 2
    assert summary["snapshot_times"][1] == pytest.approx(trace.times[-1])


def test_summary_contents(run_pair):
    _, trace, summary = run_pair[FormulationVariant.FCM_T_OMEGA]
    assert summary["variant"] == "fcm-t-omega"
    assert summary["preset"] is None
    assert summary["preset_version"] == PRESET_VERSION
    assert summary["n_turns"] == 2
    assert summary["accepted_steps"] == len(trace.times) - 1
    assert summary["linsys_count"] == trace.linsys_count
    assert summary["mean_losses_w"] > 0
    assert summary["peak_losses_w"] == pytest.approx(trace.p.max())
    assert summary["excitation"] == {"amplitude": 96.0, "frequency": 50.0}
    assert summary["mesh"]["n_alpha"] == 4 and summary["mesh"]["n_beta"] == 8
    assert summary["dof_blocks"]["voltage"] == 4
    assert summary["n_dofs"] == sum(summary["dof_blocks"].values())
    # the drive never pushes far beyond the critical current
    assert 0 < summary["max_j_over_jc_eng"] < 2.0


def test_summary_counts_every_newton_iteration_and_repeats(tmp_path, monkeypatch):
    # three Newton iterations per attempt make some attempts fail and retry
    cfg = small_config(FormulationVariant.FCM_T_OMEGA, amplitude=96.0, periods=1.0,
                       dt_max=2e-4, max_newton_iters=3)
    rejected = []  # Newton iterations of every rejected attempt
    newton_solve = solver.newton_solve

    def counted(*args):
        try:
            return newton_solve(*args)
        except solver.NonConvergenceError as err:
            rejected.append(err.stats.iterations)
            raise

    monkeypatch.setattr(solver, "newton_solve", counted)
    trace, summary = execute_run(cfg, tmp_path / "a")
    counters = summary["counters"]
    assert set(counters) == set(solver.COUNTERS)
    assert summary["linsys_count"] == int(trace.newton_iters.sum()) + sum(rejected)
    assert counters["newton_iterations"] == summary["linsys_count"]
    assert counters["rejected_attempts"] == len(rejected) > 0
    # every iteration evaluates at least its full step; the second period is seeded
    assert counters["line_search_trials"] >= counters["newton_iterations"]
    assert counters["mirror_seeds_taken"] > 0
    assert json.loads((tmp_path / "a" / "summary.json").read_text())["counters"] == counters

    _, again = execute_run(cfg, tmp_path / "b")
    assert again["counters"] == counters


def test_kim_over_jc_figures_use_the_field_dependent_jc(tmp_path):
    cfg = small_config(FormulationVariant.FCM_T_OMEGA, amplitude=96.0, dt_max=2e-4)
    cfg = with_materials(cfg, jc_model=JcKim(1e10, 0.02))
    trace, summary = execute_run(cfg, tmp_path)
    layout = build_dof_layout(build_mesh(cfg), cfg.variant, cfg.voltage_order)
    ctx = AssemblyContext(layout, cfg.materials)
    ratios = [np.abs(ctx.cell_currents(w)) / ctx.jc_effective(w) for w in trace.states]
    assert summary["max_j_over_jc_eng"] == max(r.max() for r in ratios)
    assert np.array_equal(snapshot_fields(ctx, trace.states[-1])["j_norm"][ctx.coil], ratios[-1])
    # jc(b) < jc(0) wherever there is field, so the figure exceeds the zero-field one
    peak_j = max(np.abs(ctx.cell_currents(w)).max() for w in trace.states)
    assert summary["max_j_over_jc_eng"] > peak_j / cfg.materials.jc_engineering()


def test_config_echo_parses_back(run_pair):
    out, _, _ = run_pair[FormulationVariant.FCM_T_OMEGA]
    echoed = parse_config_text((out / "config.txt").read_text())
    assert echoed == _fast(FormulationVariant.FCM_T_OMEGA)


def test_load_run_round_trip(run_pair):
    out, trace, summary = run_pair[FormulationVariant.FCM_T_OMEGA]
    loaded_summary, series = load_run(out)
    assert loaded_summary == summary
    assert series.frequency == summary["excitation"]["frequency"]
    assert series.times.size == trace.times.size
    assert np.allclose(series.times, trace.times, rtol=1e-12)
    assert np.allclose(series.p, trace.p, rtol=1e-11, atol=1e-300)


def test_load_run_rejects_non_run_dir(tmp_path):
    with pytest.raises(ConfigError, match="not a run directory"):
        load_run(tmp_path)


def test_compare_runs_cross_variant(run_pair):
    dir_a = run_pair[FormulationVariant.FCM_T_OMEGA][0]
    dir_b = run_pair[FormulationVariant.FCM_H_PHI][0]
    report = compare_runs(dir_a, dir_b)
    assert set(report) >= {"r_squared", "one_minus_r2", "rel_err_P", "run", "reference"}
    assert report["run"]["variant"] == "fcm-t-omega"
    assert report["reference"]["variant"] == "fcm-h-phi"
    # same physics, same mesh: the two homogenized variants nearly coincide
    assert report["one_minus_r2"] < 1e-3
    assert report["rel_err_P"] < 1e-2


def test_compare_runs_rejects_different_drive(run_pair, tmp_path):
    src = run_pair[FormulationVariant.FCM_T_OMEGA][0]
    clone = tmp_path / "clone"
    shutil.copytree(src, clone)
    summary = json.loads((clone / "summary.json").read_text())
    summary["excitation"]["amplitude"] = 48.0
    (clone / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(ConfigError, match="amplitude"):
        compare_runs(clone, src)


def test_short_run_reports_no_mean(tmp_path):
    cfg = small_config(FormulationVariant.FCM_T_OMEGA, periods=0.25, dt_max=2e-4)
    _, summary = execute_run(cfg, tmp_path / "short")
    assert summary["mean_losses_w"] is None
    assert summary["peak_losses_w"] >= 0.0


def test_preset_name_recorded(tmp_path):
    cfg = small_config(FormulationVariant.FCM_T_OMEGA, periods=0.25, dt_max=2e-4)
    _, summary = execute_run(cfg, tmp_path / "tagged", preset="custom_tag")
    assert summary["preset"] == "custom_tag"


def test_sweep_last_value_is_reference(tmp_path):
    cfg = _fast(FormulationVariant.FCM_T_OMEGA)
    rows = run_sweep(cfg, "n_alpha", [4.0, 6.0], tmp_path / "sweep")
    assert (tmp_path / "sweep" / "n_alpha_4").is_dir()
    assert (tmp_path / "sweep" / "n_alpha_6").is_dir()
    assert (tmp_path / "sweep" / "sweep.csv").is_file()
    assert [row["value"] for row in rows] == [4.0, 6.0]
    assert rows[-1]["one_minus_r2"] == 0.0
    assert rows[0]["one_minus_r2"] > 0.0
    assert rows[1]["n_dofs"] > rows[0]["n_dofs"]
    for row in rows:
        assert row["P"] > 0
        assert row["linsys_count"] > 0


def test_parallel_sweep_writes_the_serial_table(tmp_path):
    cfg = _fast(FormulationVariant.FCM_T_OMEGA)
    serial = run_sweep(cfg, "n_alpha", [4.0, 6.0], tmp_path / "serial")
    parallel = run_sweep(cfg, "n_alpha", [4.0, 6.0], tmp_path / "parallel", jobs=2)
    assert parallel == serial
    table = (tmp_path / "serial" / "sweep.csv").read_bytes()
    assert (tmp_path / "parallel" / "sweep.csv").read_bytes() == table


@pytest.mark.parametrize("values, workers", [([4.0, 6.0], [2]), ([4.0], [])])
def test_sweep_pool_has_no_more_workers_than_runs(tmp_path, monkeypatch, values, workers):
    # the pool forks all its workers at once; this one records its size and
    # runs the tasks in this process, so that no process is started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    cfg = _fast(FormulationVariant.FCM_T_OMEGA)
    rows = run_sweep(cfg, "n_alpha", values, tmp_path / "sweep", jobs=500)
    # a lone run needs no pool
    assert sizes == workers
    assert [row["value"] for row in rows] == values


@pytest.mark.parametrize("values, periods", [([4.0, 6.0], 0.99), ([4.0], 0.49)])
def test_sweep_too_short_to_evaluate_is_refused_before_running(
    tmp_path, monkeypatch, values, periods
):
    # several runs are compared over a full period, a lone run is averaged
    # over the last half period
    def no_run(task):
        raise AssertionError("a sweep too short to evaluate started a run")

    monkeypatch.setattr(runner, "_sweep_worker", no_run)
    cfg = _fast(FormulationVariant.FCM_T_OMEGA)
    cfg = replace(cfg, solver=replace(cfg.solver, periods=periods))
    with pytest.raises(ConfigError, match="solver.periods"):
        run_sweep(cfg, "n_alpha", values, tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


def test_single_value_sweep_needs_half_a_period(tmp_path):
    cfg = small_config(FormulationVariant.FCM_T_OMEGA, periods=0.5, dt_max=2e-4)
    (row,) = run_sweep(cfg, "n_alpha", [4.0], tmp_path / "sweep")
    assert row["P"] > 0 and row["one_minus_r2"] == 0.0


def test_sweep_rejects_empty_values(tmp_path):
    cfg = _fast(FormulationVariant.FCM_T_OMEGA)
    with pytest.raises(ConfigError, match="non-empty"):
        run_sweep(cfg, "n_alpha", [], tmp_path / "sweep")


@pytest.mark.parametrize(
    "variant, parameter, values, clash",
    [
        (FormulationVariant.FCM_T_OMEGA, "n_alpha", [4.0, 4.0, 10.0], "n_alpha_4"),
        # equal to the six significant digits of the directory name
        (FormulationVariant.FCM_T_OMEGA, "n_turns", [1234567.0, 1234568.0], "n_turns_1.23457e+06"),
        (FormulationVariant.FCM_H_FULL, "rho0", [1e-3, 1.0000001e-3], "rho0_0.001"),
    ],
)
def test_sweep_rejects_values_sharing_a_run_directory(tmp_path, variant, parameter, values, clash):
    with pytest.raises(ConfigError, match=re.escape(clash)):
        run_sweep(_fast(variant), parameter, values, tmp_path / "sweep")
    # refused before any run started
    assert not (tmp_path / "sweep").exists()
