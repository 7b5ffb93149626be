"""Shared builders for the test suite: small pancake setups that run fast,
and the loss-peak counter that gate 10 uses as its oracle.

The standard tape is 100 um x 12 mm with jc0 = 1e10 A/m^2 and a 1% fill
factor, so the engineering critical current density is 1e8 A/m^2 and the
tape critical current is 120 A. Small cases drive 9.6 A (8% of I_c) through
two turns; they converge in a handful of Newton iterations per step.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.signal import find_peaks

from foilwind.config import MeshConfig, RunConfig
from foilwind.formulations import AssemblyContext, Excitation
from foilwind.materials import JcConstant, MaterialParams
from foilwind.mesh import CoilGeometry, Mesh, mesh_structured
from foilwind.postprocess import LossSeries
from foilwind.solver import SolverConfig
from foilwind.spaces import DofLayout, build_dof_layout
from foilwind.variants import FormulationVariant

TAPE = dict(inner_radius=25e-3, cc_thickness=1e-4, cc_width=12e-3)


def pancake_geometry(n_turns: int = 2, homogenized: bool = False, **kw) -> CoilGeometry:
    return CoilGeometry(n_turns=n_turns, homogenized=homogenized, **{**TAPE, **kw})


def pancake_materials(**kw) -> MaterialParams:
    base = dict(
        e_c=1e-4,
        n_exponent=25.0,
        lambda_fill=0.01,
        rho_spurious_air=1e-3,
        jc_model=JcConstant(1e10),
    )
    base.update(kw)
    return MaterialParams(**base)


def small_mesh(
    variant: FormulationVariant = FormulationVariant.FCM_T_OMEGA,
    n_turns: int = 2,
    n_alpha: int = 4,
    n_beta: int = 8,
    grading: float = 1.3,
) -> Mesh:
    geom = pancake_geometry(n_turns, homogenized=variant.is_fcm)
    return mesh_structured(geom, n_alpha=n_alpha, n_beta=n_beta, air_grading=grading)


def small_layout(
    variant: FormulationVariant, voltage_order: int = 3, **mesh_kw
) -> tuple[Mesh, DofLayout]:
    mesh = small_mesh(variant, **mesh_kw)
    return mesh, build_dof_layout(mesh, variant, voltage_order=voltage_order)


def truncation_edges(mesh: Mesh) -> np.ndarray:
    """Ids of the midplane, top and outer-side edges, ascending; the axis edges are not among them."""
    nr, nz = mesh.n_r, mesh.n_z
    ir = np.arange(nr - 1)
    side = mesh.vedge_id(np.full(nz - 1, nr - 1), np.arange(nz - 1))
    return np.concatenate([mesh.hedge_id(ir, 0), mesh.hedge_id(ir, nz - 1), side])


def small_context(
    variant: FormulationVariant, voltage_order: int = 3, materials=None, **mesh_kw
) -> AssemblyContext:
    _, layout = small_layout(variant, voltage_order=voltage_order, **mesh_kw)
    return AssemblyContext(layout, materials or pancake_materials())


def small_config(
    variant: FormulationVariant,
    n_turns: int = 2,
    n_alpha: int = 4,
    n_beta: int = 8,
    amplitude: float = 9.6,
    frequency: float = 50.0,
    periods: float = 0.25,
    voltage_order: int = 3,
    **solver_kw,
) -> RunConfig:
    return RunConfig(
        geometry=pancake_geometry(n_turns, homogenized=variant.is_fcm),
        mesh=MeshConfig(n_alpha=n_alpha, n_beta=n_beta),
        materials=pancake_materials(),
        variant=variant,
        voltage_order=voltage_order,
        excitation=Excitation(amplitude=amplitude, frequency=frequency),
        solver=SolverConfig(periods=periods, **solver_kw),
        output_dir="out",
    )


def with_materials(cfg: RunConfig, **kw) -> RunConfig:
    return replace(cfg, materials=pancake_materials(**kw))


def random_operating_state(ctx: AssemblyContext, rng, current_fraction: float = 0.8):
    """Random state scaled so the peak winding current density is physical."""
    layout = ctx.layout
    u = rng.standard_normal(layout.n_dofs)
    j = np.abs(ctx.cell_currents(u))
    u[: layout.n_field_dofs] *= (
        current_fraction * ctx.materials.jc_engineering() / j.max()
    )
    return u


def count_loss_peaks(series: LossSeries, window_periods: float = 1.0) -> int:
    """Number of loss peaks within the trailing window (2 per period in steady state)."""
    t0 = series.times[-1] - window_periods * series.period
    inside = series.times >= t0 - 1e-12 * series.period
    p = series.p[inside]
    if p.size < 3:
        return 0
    prominence = 1e-3 * (p.max() - p.min())
    peaks, _ = find_peaks(p, prominence=prominence if prominence > 0 else None)
    return int(peaks.size)
