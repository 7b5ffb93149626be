#!/usr/bin/env python3
"""foilwind benchmark: time to an accurate loss result on three presets.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fcm-tw --seed 1 --seconds 34 --trace 0

One process runs one ``foilwind.runner.execute_run`` at a time (closed loop,
one client) until ``--seconds`` is spent, and reports medians. Times are
reported at reference host speed: each is scaled by a calibration probe timed
next to it, so that a slower or faster shared host does not read as a change
of foilwind (see ``hostspeed.py``). The measured times are printed too.

``--trace 0`` runs foilwind untouched and reports the end-to-end metrics.
``--trace 1`` alternates untraced runs with runs traced through
``probe.instrument`` and reports the per-layer metrics; the tracing overhead
is the traced median wall time minus the untraced one.

Every run is checked (see ``checks.py``; traced runs also reconcile their
counters, see ``probe.reconcile``). The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it name every metric with its unit and every check verdict.
Spans, per-run records and provenance go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from checks import check_run
from hostspeed import HostProbe, scaled
from probe import ROOT_SPAN, Recorder, instrument, layer_metrics, median_metrics, reconcile
from workloads import OUT_ROOT, ROOT, WORKLOADS, load_foilwind, workload_config

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_FIRST = 10  # set-ups timed before the first run, after the untimed warm-up
SETUP_BETWEEN = 5  # set-ups timed after each run
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def set_up(cfg):
    """The set-up path of execute_run: mesh, unknown layout, assembly context."""
    from foilwind.formulations import AssemblyContext
    from foilwind.runner import build_mesh
    from foilwind.spaces import build_dof_layout

    mesh = build_mesh(cfg)
    layout = build_dof_layout(mesh, cfg.variant, cfg.voltage_order)
    return AssemblyContext(layout, cfg.materials)


def measure_setup(workload, repeats: int) -> tuple[list[float], object]:
    """Set-up times from preset to AssemblyContext, and the last context."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        ctx = set_up(workload_config(workload))
        times.append(perf_counter() - t0)
    return times, ctx


def one_run(cfg, ctx, out_dir: Path, rec=None) -> dict:
    """One execute_run, timed, then checked; traced when ``rec`` is given."""
    from foilwind.runner import execute_run

    run = {"traced": rec is not None, "failures": []}
    try:
        if rec is None:
            t0 = perf_counter()
            trace, summary = execute_run(cfg, out_dir)
            run["wall_s"] = perf_counter() - t0
        else:
            with instrument(rec):
                trace, summary = rec.call(ROOT_SPAN, execute_run, cfg, out_dir)
            run["wall_s"] = rec.spans[0].end - rec.spans[0].start
    except Exception as exc:  # a failed run is counted, and the benchmark goes on
        run["failures"].append(f"{type(exc).__name__}: {exc}")
        print(traceback.format_exc(), file=sys.stderr)
        return run
    failures, values = check_run(cfg, ctx, trace)
    run["failures"] += failures
    run.update(values)
    if rec is not None:
        run["failures"] += reconcile(rec, summary)
        run["layers"] = layer_metrics(rec)
    return run


def load_reference(name: str, cfg) -> dict:
    entry = json.loads(REFERENCE.read_text())[name]
    s = cfg.solver
    if (entry["preset"], entry["periods"], entry["dt_init"][0], entry["dt_max"][0]) != (
        WORKLOADS[name].preset, s.periods, s.dt_init, s.dt_max
    ):
        raise ValueError(f"{REFERENCE.name} was computed for another {name!r} window; "
                         "rerun perfbench/reference.py")
    return entry


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "foilwind").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance(args, cfg) -> dict:
    import numpy
    import scipy
    from foilwind.config import serialize_config

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "config": serialize_config(cfg),
    }


def measure(args, workload, cfg, ctx, out_dir: Path):
    """Run until ``args.seconds`` is spent; in trace mode, untraced and traced in turn.

    The host probe is sampled before the first run and after each run, and
    every run time and set-up time is also given at reference host speed
    (``hostspeed.scaled``): a run by the probe times on both sides of it, a
    set-up by the probe time just before it. Set-up is timed a few times
    between runs, so that its median samples the host over the whole
    measurement and not over one short burst.
    """
    runs, recs = [], []
    probe = HostProbe()
    before = probe.sample()
    setup_times = [scaled(t, before) for t in measure_setup(workload, SETUP_FIRST)[0]]
    t0 = perf_counter()
    longest = 0.0
    while True:
        r0 = perf_counter()
        if args.trace and len(runs) % 2:
            recs.append(Recorder(run_id=len(runs)))
            runs.append(one_run(cfg, ctx, out_dir, recs[-1]))
        else:
            runs.append(one_run(cfg, ctx, out_dir))
        after = probe.sample()
        if "wall_s" in runs[-1]:
            runs[-1]["wall_ref_s"] = scaled(runs[-1]["wall_s"], before, after)
        before = after
        setup_times += [scaled(t, after) for t in measure_setup(workload, SETUP_BETWEEN)[0]]
        longest = max(longest, perf_counter() - r0)
        # start another run only if it should still end within the budget,
        # and end a traced measurement with a traced run
        over = perf_counter() - t0 + longest > args.seconds
        if over and (not args.trace or len(runs) % 2 == 0):
            return runs, recs, statistics.median(setup_times), statistics.median(probe.samples)


def peak_rss_mb(workload) -> float:
    """Peak RSS of a fresh process that runs the workload once (see peak_rss.py)."""
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": str(128 * 1024)}
    res = subprocess.run([sys.executable, str(HERE / "peak_rss.py"), workload.name], env=env,
                         capture_output=True, text=True, timeout=150, check=True)
    return float(res.stdout.split()[-1])


def summarize(runs: list[dict], e_ref: float, setup_s: float, probe_s: float,
              rss_mb: float) -> tuple[dict, dict]:
    """End-to-end and per-layer metrics over the runs that passed every check.

    ``wall_s``, ``setup_s``, ``trace.wall_s`` and ``trace.overhead_s`` are at
    reference host speed (see ``hostspeed``); the layer times, measured inside
    one traced run, are as measured, and ``host.wall_measured_s`` is the
    untraced median as measured.
    """
    ok = [r for r in runs if not r["failures"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    e2e = {
        "wall_s": statistics.median(r["wall_ref_s"] for r in plain),
        "setup_s": setup_s,
        "loss_err_rel": statistics.median(abs(r["loss_energy_j"] - e_ref) / e_ref for r in plain),
        "peak_rss_mb": rss_mb,
    }
    layers = {}
    if traced:
        layers = median_metrics([r["layers"] for r in traced])
        layers["solver.energy_imbalance_max"] = max(r["energy_imbalance_max"] for r in ok)
        layers["trace.wall_s"] = statistics.median(r["wall_ref_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        layers["host.probe_s"] = probe_s
        layers["host.wall_measured_s"] = statistics.median(r["wall_s"] for r in plain)
    return e2e, layers


def report(spec: dict, runs: list[dict], e2e: dict, layers: dict, trace: bool) -> dict:
    """Print every metric with its unit and the check verdicts; return the JSON metrics."""
    failed = [r for r in runs if r["failures"]]
    for i, r in enumerate(runs):
        tag = "traced" if r["traced"] else "plain"
        verdict = "PASS" if not r["failures"] else "FAIL: " + "; ".join(r["failures"])
        wall = f"{r['wall_s']:.4f} s ({r['wall_ref_s']:.4f} s at reference speed)" if "wall_s" in r else "-"
        print(f"run {i:2d} {tag:6s} wall {wall}  {verdict}")
    ok = [r for r in runs if not r["failures"]]
    if ok:
        print(f"check transport current: worst {max(r['transport_current_err_a'] for r in ok):.3e} A")
        print(f"check energy balance: worst {max(r['energy_imbalance_max'] for r in ok):.3e}")
    print(f"failed_runs {len(failed)}/{len(runs)} = {len(failed) / len(runs):g}")

    shown = spec["end_to_end"] + (spec["per_layer"] if trace else [])
    values = {**e2e, **layers}
    for m in shown:
        print(f"metric {m['name']:38s} {values[m['name']]:.6g} {m['unit']}")
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}


def self_time_verdict(runs: list[dict], layers: dict) -> bool:
    """Per-layer self times add up to each traced run's measured wall time."""
    traced = [r for r in runs if r["traced"] and not r["failures"]]
    sums = [sum(v for k, v in r["layers"].items() if k.endswith(".layer_self_s")) for r in traced]
    ok = all(abs(t - r["wall_s"]) <= 1e-9 * r["wall_s"] for t, r in zip(sums, traced))
    print(f"check self times: sum of layer self times {statistics.median(sums):.4f} s, "
          f"untraced wall {layers['host.wall_measured_s']:.4f} s, tracing overhead "
          f"{layers['trace.overhead_s']:+.4f} s at reference speed: {'PASS' if ok else 'FAIL'}")
    return ok


def write_records(out_dir: Path, prov: dict, runs: list[dict], recs: list) -> None:
    records = [{k: v for k, v in r.items() if k != "layers"} for r in runs]
    (out_dir / "result.json").write_text(json.dumps({"provenance": prov, "runs": records}, indent=1))
    if recs:
        with (out_dir / "spans.jsonl").open("w") as fh:
            for s in (s for rec in recs for s in rec.spans):
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run_id]) + "\n")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_foilwind()
    except ImportError as exc:
        print(f"perfbench: cannot import foilwind: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    cfg = workload_config(workload)
    e_ref = load_reference(args.workload, cfg)["e_ref_j"]
    out_dir = OUT_ROOT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = provenance(args, cfg)
    print("provenance " + json.dumps({k: v for k, v in prov.items() if k != "config"}))

    # untimed: a few set-ups and one step load everything a run touches first
    _, ctx = measure_setup(workload, 3)
    warm = replace(cfg, solver=replace(cfg.solver, periods=cfg.solver.dt_init * cfg.excitation.frequency))
    one_run(warm, ctx, out_dir / "run")

    runs, recs, setup_s, probe_s = measure(args, workload, cfg, ctx, out_dir / "run")
    write_records(out_dir, prov, runs, recs)

    failed = sum(1 for r in runs if r["failures"])
    passed = {r["traced"] for r in runs if not r["failures"]}
    if False not in passed or (args.trace and True not in passed):
        # no run passed its checks, so there is nothing to report
        print(json.dumps({"correct": False, "attempted": len(runs), "failed": failed, "metrics": {}}))
        return 1
    e2e, layers = summarize(runs, e_ref, setup_s, probe_s, peak_rss_mb(workload))
    metrics = report(spec, runs, e2e, layers, bool(args.trace))
    correct = failed == 0 and (not args.trace or self_time_verdict(runs, layers))
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
