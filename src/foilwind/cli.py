"""Command-line front end: mesh, run, compare, and sweep subcommands.

Exit codes: 0 success, 1 solver failure, 2 configuration/usage errors.
Verbosity via the FOILWIND_LOG environment variable (DEBUG/INFO/WARNING).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import ConfigError, PRESETS, SWEEP_PARAMETERS, RunConfig
from .config import config_from_preset, load_config
from .runner import build_mesh, compare_runs, execute_run, run_sweep
from .solver import NonConvergenceError, SingularMatrixError
from .spaces import build_dof_layout
from .vtk_io import write_vtk

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    name = os.environ.get("FOILWIND_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _add_config_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--preset", choices=sorted(PRESETS), help="built-in reproduction preset"
    )
    source.add_argument("--config", help="path to a key = value config file")


def _resolve_config(args) -> tuple[RunConfig, str | None]:
    if args.preset:
        return config_from_preset(args.preset), args.preset
    return load_config(args.config), None


def _cmd_mesh(args) -> int:
    cfg, _ = _resolve_config(args)
    mesh = build_mesh(cfg)
    layout = build_dof_layout(mesh, cfg.variant, cfg.voltage_order)
    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_vtk(
        out / "mesh.vtk",
        mesh,
        {"region": mesh.region.astype(float), "cell_volume": mesh.volume},
        title="foilwind mesh",
    )
    blocks = ", ".join(
        f"{name} {sl.stop - sl.start}" for name, sl in layout.blocks.items()
    )
    print(
        f"mesh: {mesh.n_r - 1} x {mesh.n_z - 1} cells "
        f"({mesh.n_alpha} x {mesh.n_beta} winding), "
        f"{mesh.n_nodes} nodes, {mesh.n_edges} edges"
    )
    print(
        f"dofs[{cfg.variant.value}]: {layout.n_dofs} "
        f"({blocks}, voltage {layout.n_voltage_dofs})"
    )
    print(f"wrote {out / 'mesh.vtk'}")
    return 0


def _cmd_run(args) -> int:
    cfg, preset = _resolve_config(args)
    trace, summary = execute_run(cfg, args.out, preset=preset)
    mean_p = summary["mean_losses_w"]
    print(
        f"run finished: {summary['accepted_steps']} steps, "
        f"{summary['linsys_count']} linear solves, "
        f"P = {f'{mean_p:.6e} W' if mean_p is not None else 'n/a (run shorter than half a period)'}"
    )
    out = Path(args.out if args.out is not None else cfg.output_dir)
    print(f"artifacts in {out}")
    return 0


def _cmd_compare(args) -> int:
    report = compare_runs(args.run_dir, args.ref_dir)
    text = json.dumps(report, indent=2)
    print(text)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.json").write_text(text + "\n")
    return 0


def _cmd_sweep(args) -> int:
    cfg, _ = _resolve_config(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    out_root = Path(args.out) if args.out else Path(cfg.output_dir) / "sweep"
    rows = run_sweep(cfg, args.param, values, out_root, jobs=args.jobs)
    print("value,P,one_minus_r2,n_dofs,linsys_count")
    for row in rows:
        print(
            f"{row['value']:g},{row['P']:.6e},{row['one_minus_r2']:.6e},"
            f"{row['n_dofs']},{row['linsys_count']}"
        )
    print(f"sweep table in {out_root / 'sweep.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foilwind",
        description="Transient AC-loss models for superconducting foil windings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="build the mesh and report unknown counts")
    _add_config_source(p_mesh)
    p_mesh.add_argument("--out", help="output directory")
    p_mesh.set_defaults(func=_cmd_mesh)

    p_run = sub.add_parser("run", help="run one transient simulation")
    _add_config_source(p_run)
    p_run.add_argument("--out", help="output directory (default: config output)")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare a run against a reference run")
    p_cmp.add_argument("run_dir")
    p_cmp.add_argument("ref_dir")
    p_cmp.add_argument("--out", help="directory for comparison.json (default: .)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    _add_config_source(p_sweep)
    p_sweep.add_argument(
        "--param",
        required=True,
        choices=SWEEP_PARAMETERS,
    )
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated list, last value is the reference"
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="concurrent runs")
    p_sweep.add_argument("--out", help="sweep output root")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, SingularMatrixError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
