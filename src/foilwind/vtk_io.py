"""Legacy ASCII VTK export of cell fields on the structured half-model mesh."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .mesh import Mesh


def write_vtk(
    path: str | Path,
    mesh: Mesh,
    cell_data: dict[str, np.ndarray],
    title: str = "foilwind fields",
) -> Path:
    """One snapshot as a version-3.0 unstructured grid with cell scalars."""
    path = Path(path)
    for name, values in cell_data.items():
        if len(values) != mesh.n_cells:
            raise ValueError(f"cell field {name!r} has {len(values)} entries, "
                             f"mesh has {mesh.n_cells} cells")
    n_cells = mesh.n_cells
    # one % format per section, written straight to the file: a joined text
    # of the whole snapshot would add to the run's peak memory
    with path.open("w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(title[:255] + "\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_nodes} double\n")
        f.write("%.9e %.9e 0.0\n" * mesh.n_nodes % tuple(mesh.nodes.ravel().tolist()))
        f.write(f"CELLS {n_cells} {5 * n_cells}\n")
        f.write("4 %d %d %d %d\n" * n_cells % tuple(mesh.quads.ravel().tolist()))
        f.write(f"CELL_TYPES {n_cells}\n")
        f.write("9\n" * n_cells)
        f.write(f"CELL_DATA {n_cells}\n")
        for name, values in cell_data.items():
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            f.write("%.9e\n" * n_cells % tuple(np.asarray(values, dtype=float).tolist()))
    return path


def snapshot_fields(ctx, w: np.ndarray) -> dict[str, np.ndarray]:
    """Cell scalars of state ``w`` of the run with AssemblyContext ``ctx``.

    ``j_norm`` is |j|/jc(b): the azimuthal current density over the
    engineering critical current density at the field of ``w`` (zero outside
    the winding); ``b_mag`` is |b| from the cell-centre field.
    """
    j_norm = np.zeros(ctx.mesh.n_cells)
    j_norm[ctx.coil] = ctx.j_over_jc(w)
    return {"j_norm": j_norm, "b_mag": np.hypot(*ctx.flux_density(w))}
