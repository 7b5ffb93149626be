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
    lines = [
        "# vtk DataFile Version 3.0",
        title[:255],
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_nodes} double",
    ]
    lines += [f"{r:.9e} {z:.9e} 0.0" for r, z in mesh.nodes]
    lines.append(f"CELLS {mesh.n_cells} {5 * mesh.n_cells}")
    lines += ["4 " + " ".join(str(n) for n in quad) for quad in mesh.quads]
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines += ["9"] * mesh.n_cells
    lines.append(f"CELL_DATA {mesh.n_cells}")
    for name, values in cell_data.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines += [f"{v:.9e}" for v in np.asarray(values, dtype=float)]
    path.write_text("\n".join(lines) + "\n")
    return path


def snapshot_fields(ctx, w: np.ndarray) -> dict[str, np.ndarray]:
    """Cell scalars of state ``w`` of the run with AssemblyContext ``ctx``.

    ``j_norm`` is |j|/jc(b): the azimuthal current density over the
    engineering critical current density at the field of ``w`` (zero outside
    the winding); ``b_mag`` is |b| from the cell-centre field.
    """
    j_norm = np.zeros(ctx.mesh.n_cells)
    j_norm[ctx.coil] = np.abs(ctx.cell_currents(w)) / ctx.jc_effective(w)
    return {"j_norm": j_norm, "b_mag": np.hypot(*ctx.flux_density(w))}
