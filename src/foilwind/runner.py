"""End-to-end run orchestration behind the command-line interface.

A run directory is self-describing: the echoed config, the trace and slice
CSVs, field snapshots, and a machine-readable summary.json. `compare` and
`sweep` consume only those artifacts, never in-memory state, so they work
across processes and sessions.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import postprocess
from .config import (
    PRESET_VERSION,
    ConfigError,
    RunConfig,
    apply_sweep_value,
    parse_config_text,
    serialize_config,
)
from .formulations import AssemblyContext
from .mesh import Mesh, mesh_structured
from .solver import NonConvergenceError, SolutionTrace, run_transient
from .spaces import build_dof_layout
from .vtk_io import snapshot_fields, write_vtk

log = logging.getLogger(__name__)

SUMMARY_NAME = "summary.json"
TRACE_NAME = "trace.csv"
SLICE_NAME = "slices.csv"


def build_mesh(cfg: RunConfig) -> Mesh:
    return mesh_structured(
        cfg.geometry, cfg.mesh.n_alpha, cfg.mesh.n_beta, air_grading=cfg.mesh.grading
    )


def execute_run(
    cfg: RunConfig, out_dir: str | Path | None = None, preset: str | None = None
) -> tuple[SolutionTrace, dict]:
    """Run the transient problem of ``cfg`` and write all artifacts; a run that
    fails writes its config and a "failed" summary, then raises."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the directory holds this run's files only, a failed run's included;
    # _write_snapshots writes at most two field files
    stale = ("config.txt", SUMMARY_NAME, TRACE_NAME, SLICE_NAME, "fields_0.vtk", "fields_1.vtk")
    for name in stale:
        (out / name).unlink(missing_ok=True)

    wall0 = time.perf_counter()
    mesh = build_mesh(cfg)
    layout = build_dof_layout(mesh, cfg.variant, cfg.voltage_order)
    ctx = AssemblyContext(layout, cfg.materials)
    log.info("run: variant=%s mesh=%dx%d cells=%d dofs=%d",
             cfg.variant.value, mesh.n_r - 1, mesh.n_z - 1, mesh.n_cells, layout.n_dofs)
    (out / "config.txt").write_text(serialize_config(cfg))
    try:
        trace = run_transient(cfg.solver, ctx, cfg.excitation)
    except NonConvergenceError as exc:
        _write_summary(out, cfg, layout, preset, "failed", {
            "wall_time_s": time.perf_counter() - wall0,
            "reason": str(exc),
            "residual_history": exc.stats.residual_norms,
            **exc.progress,
        })
        raise
    wall = time.perf_counter() - wall0

    series = postprocess.LossSeries(trace.times, trace.p, cfg.excitation.frequency)
    # runs shorter than the averaging window report no mean figure
    mean_p = (
        postprocess.mean_losses(series)
        if trace.times[-1] >= 0.5 * cfg.excitation.period
        else None
    )

    postprocess.write_trace_csv(out / TRACE_NAME, trace)
    postprocess.write_slice_csv(out / SLICE_NAME, trace)
    snap_times = _write_snapshots(out, trace, ctx, cfg)
    max_j_norm = _max_normalized_j(trace, ctx)

    summary = _write_summary(out, cfg, layout, preset, "ok", {
        "accepted_steps": int(len(trace.times) - 1),
        "linsys_count": int(trace.linsys_count),
        "wall_time_s": wall,
        "mean_losses_w": mean_p,
        "peak_losses_w": float(trace.p.max(initial=0.0)),
        "max_j_over_jc_eng": max_j_norm,
        "snapshot_times": snap_times,
    })
    log.info("run artifacts written to %s (P=%s W)", out, mean_p)
    return trace, summary


def _write_summary(out: Path, cfg: RunConfig, layout, preset, status: str, outcome: dict) -> dict:
    """Write and return summary.json: what ``cfg`` and ``layout`` fix, then ``outcome``."""
    mesh, excitation = layout.mesh, cfg.excitation
    blocks = {name: sl.stop - sl.start for name, sl in layout.blocks.items()}
    blocks["voltage"] = layout.n_voltage_dofs
    summary = {
        "status": status,
        "preset": preset,
        "preset_version": PRESET_VERSION,
        "variant": cfg.variant.value,
        "n_dofs": layout.n_dofs,
        "dof_blocks": blocks,
        "mesh": {k: getattr(mesh, k) for k in ("n_r", "n_z", "n_cells", "n_alpha", "n_beta")},
        "n_turns": cfg.geometry.n_turns,
        "excitation": {"amplitude": excitation.amplitude, "frequency": excitation.frequency},
        "periods": cfg.solver.periods,
        **outcome,
    }
    (out / SUMMARY_NAME).write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def _write_snapshots(out, trace, ctx, cfg) -> list[float]:
    """Field exports at peak drive of the last period and at the final time."""
    period = cfg.excitation.period
    t_peak = trace.times[-1] - 0.75 * period
    picks = {int(np.argmin(np.abs(trace.times - t_peak))), len(trace.times) - 1}
    times = []
    for rank, idx in enumerate(sorted(picks)):
        fields = snapshot_fields(ctx, trace.states[idx])
        write_vtk(
            out / f"fields_{rank}.vtk",
            ctx.mesh,
            fields,
            title=f"foilwind {cfg.variant.value} t={trace.times[idx]:.8e} s",
        )
        times.append(float(trace.times[idx]))
    return times


def _max_normalized_j(trace, ctx) -> float:
    """Largest |j|/jc(b) over the stored states, jc at each state's own field."""
    return max(float(np.max(ctx.j_over_jc(w))) for w in trace.states)


# the summary fields that compare and sweep read, and their types
_SUMMARY_FIELDS = {"excitation.frequency": (int, float), "excitation.amplitude": (int, float),
                   "variant": str, "n_dofs": int, "linsys_count": int}


def load_run(run_dir: str | Path) -> tuple[dict, postprocess.LossSeries]:
    """The summary and loss series of a finished run; ConfigError if ``run_dir`` holds none."""
    run_dir = Path(run_dir)
    try:
        summary = json.loads((run_dir / SUMMARY_NAME).read_text())
        problem = _summary_problem(summary)
        if not problem:
            data = postprocess.read_trace_csv(run_dir / TRACE_NAME)
            if data["t"].size < 2:
                raise ValueError(f"{TRACE_NAME} holds {data['t'].size} samples, too short for a series")
            frequency = summary["excitation"]["frequency"]
            series = postprocess.LossSeries(data["t"], data["p"], frequency)
    except (OSError, ValueError) as exc:  # ValueError: a malformed JSON or CSV file or series
        problem = f"{type(exc).__name__} {exc}"
    if problem:
        raise ConfigError(f"{run_dir} is not a run directory: {problem}")
    return summary, series


def _summary_problem(summary) -> str | None:
    """Why ``summary`` is not the summary of a finished run, or None."""
    if not isinstance(summary, dict):
        return f"{SUMMARY_NAME} is not an object"
    if summary.get("status", "ok") != "ok":
        return f"{SUMMARY_NAME} has status {summary['status']!r}, not 'ok'"
    for name, kind in _SUMMARY_FIELDS.items():
        value = summary
        for key in name.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if not isinstance(value, kind) or isinstance(value, bool):
            return f"{SUMMARY_NAME} field {name} is missing or has the wrong type"
    frequency, amplitude = summary["excitation"]["frequency"], summary["excitation"]["amplitude"]
    if not (math.isfinite(frequency) and frequency > 0 and math.isfinite(amplitude)):
        return f"{SUMMARY_NAME} needs a finite positive frequency and a finite amplitude"
    return None


def compare_runs(run_dir: str | Path, ref_dir: str | Path) -> dict:
    """Compare a run against a reference run (second argument)."""
    summary, series = load_run(run_dir)
    ref_summary, ref_series = load_run(ref_dir)
    for key in ("frequency", "amplitude"):
        a = summary["excitation"][key]
        b = ref_summary["excitation"][key]
        if abs(a - b) > 1e-12 * max(abs(b), 1.0):
            raise ConfigError(
                f"incompatible excitations: {key} differs ({a} vs {b})"
            )
    report = postprocess.r_squared(series, ref_series)
    return {
        "r_squared": report.r_squared,
        "one_minus_r2": report.one_minus_r2,
        "rel_err_P": report.rel_err_P,
        "interpolation": report.interpolation,
        "run": {"dir": str(run_dir), "variant": summary["variant"], "n_dofs": summary["n_dofs"]},
        "reference": {"dir": str(ref_dir), "variant": ref_summary["variant"],
                      "n_dofs": ref_summary["n_dofs"]},
    }


def _sweep_worker(args: tuple[str, str]) -> str:
    config_text, out_dir = args
    cfg = parse_config_text(config_text, source="<sweep>")
    execute_run(cfg, out_dir)
    return out_dir


def run_sweep(
    cfg: RunConfig,
    parameter: str,
    values: list[float],
    out_root: str | Path,
    jobs: int = 1,
) -> list[dict]:
    """Run one simulation per value; the last value serves as the reference.

    Writes sweep.csv of (value, P, 1-R^2 vs the reference, n_dofs,
    linsys_count) in the given value order. Arguments it could not evaluate,
    such as runs too short for the comparison, are refused before any run.
    """
    if jobs < 1:
        raise ConfigError(f"sweep needs at least one job, got {jobs}")
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    # r_squared compares the runs over one common full period; a lone run
    # reports only its mean over the last half period
    needed = 1.0 if len(values) > 1 else 0.5
    if cfg.solver.periods < needed:
        raise ConfigError(
            f"a sweep of {len(values)} value(s) needs solver.periods >= {needed:g}, "
            f"got {cfg.solver.periods:g}"
        )
    out_root = Path(out_root)
    names: dict[str, float] = {}
    for value in values:
        name = f"{parameter}_{value:g}"
        if name in names:
            raise ConfigError(
                f"sweep values {names[name]!r} and {value!r} would share "
                f"the run directory {name}"
            )
        names[name] = value
    tasks = [
        (serialize_config(apply_sweep_value(cfg, parameter, value)), str(out_root / name))
        for name, value in zip(names, values)
    ]
    out_root.mkdir(parents=True, exist_ok=True)

    workers = min(jobs, len(tasks))  # a pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_sweep_worker, tasks))
    else:
        for task in tasks:
            _sweep_worker(task)

    _, ref_series = load_run(tasks[-1][1])
    rows = []
    for value, (_, sub) in zip(values, tasks):
        summary, series = load_run(sub)
        if sub == tasks[-1][1]:
            one_minus_r2 = 0.0
        else:
            one_minus_r2 = postprocess.r_squared(series, ref_series).one_minus_r2
        rows.append(
            {
                "value": value,
                "P": postprocess.mean_losses(series),
                "one_minus_r2": one_minus_r2,
                "n_dofs": summary["n_dofs"],
                "linsys_count": summary["linsys_count"],
            }
        )
    postprocess.write_sweep_csv(out_root / "sweep.csv", rows)
    return rows
