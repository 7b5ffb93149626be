"""Legacy ASCII VTK export: exact header grammar and field payloads."""

import numpy as np
import pytest

from foilwind.variants import FormulationVariant
from foilwind.vtk_io import snapshot_fields, vtk_geometry, write_vtk

from helpers import small_context, small_mesh


def _write(tmp_path, mesh, data, **kw):
    path = write_vtk(tmp_path / "out.vtk", mesh, data, **kw)
    return path.read_text().splitlines()


def test_header_grammar(tmp_path):
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=4)
    lines = _write(tmp_path, mesh, {"q": np.arange(mesh.n_cells, dtype=float)})
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[1] == "foilwind fields"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == f"POINTS {mesh.n_nodes} double"


def test_points_cells_and_types(tmp_path):
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=4)
    lines = _write(tmp_path, mesh, {"q": np.zeros(mesh.n_cells)})
    k = 5
    pts = lines[k : k + mesh.n_nodes]
    assert all(len(p.split()) == 3 and p.split()[2] == "0.0" for p in pts)
    k += mesh.n_nodes
    assert lines[k] == f"CELLS {mesh.n_cells} {5 * mesh.n_cells}"
    cells = lines[k + 1 : k + 1 + mesh.n_cells]
    assert all(c.startswith("4 ") and len(c.split()) == 5 for c in cells)
    # node indices in range
    ids = np.array([c.split()[1:] for c in cells], dtype=int)
    assert ids.min() >= 0 and ids.max() < mesh.n_nodes
    k += 1 + mesh.n_cells
    assert lines[k] == f"CELL_TYPES {mesh.n_cells}"
    assert all(t == "9" for t in lines[k + 1 : k + 1 + mesh.n_cells])
    k += 1 + mesh.n_cells
    assert lines[k] == f"CELL_DATA {mesh.n_cells}"


def test_scalar_field_sections(tmp_path):
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=4)
    a = np.arange(mesh.n_cells, dtype=float)
    b = np.linspace(0, 1, mesh.n_cells)
    lines = _write(tmp_path, mesh, {"alpha_f": a, "beta_f": b})
    text = "\n".join(lines)
    for name in ("alpha_f", "beta_f"):
        assert f"SCALARS {name} double 1" in text
    # each SCALARS is followed by its lookup table and n_cells values
    idx = lines.index("SCALARS alpha_f double 1")
    assert lines[idx + 1] == "LOOKUP_TABLE default"
    vals = np.array(lines[idx + 2 : idx + 2 + mesh.n_cells], dtype=float)
    assert np.allclose(vals, a, rtol=1e-9)


def test_title_line_and_truncation(tmp_path):
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=4)
    lines = _write(tmp_path, mesh, {"q": np.zeros(mesh.n_cells)}, title="x" * 400)
    assert lines[1] == "x" * 255


def test_wrong_field_length_rejected(tmp_path):
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=4)
    with pytest.raises(ValueError, match="entries"):
        write_vtk(tmp_path / "bad.vtk", mesh, {"q": np.zeros(3)})


def test_snapshot_fields_zero_state():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    fields = snapshot_fields(ctx, np.zeros(ctx.layout.n_dofs))
    assert set(fields) == {"j_norm", "b_mag"}
    assert np.all(fields["j_norm"] == 0.0)
    assert np.all(fields["b_mag"] == 0.0)


def test_snapshot_fields_confine_current_to_winding():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    mesh = ctx.mesh
    rng = np.random.default_rng(23)
    u = rng.standard_normal(ctx.layout.n_dofs)
    fields = snapshot_fields(ctx, u)
    air = np.setdiff1d(np.arange(mesh.n_cells), mesh.coil_cells)
    assert np.all(fields["j_norm"][air] == 0.0)
    assert np.all(fields["b_mag"] >= 0.0)
    assert fields["j_norm"].shape == (mesh.n_cells,)


def _line_by_line_vtk(mesh, cell_data, title):
    """The snapshot text built one line at a time (the writer's oracle)."""
    lines = ["# vtk DataFile Version 3.0", title[:255], "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_nodes} double"]
    lines += [f"{r:.9e} {z:.9e} 0.0" for r, z in mesh.nodes]
    lines.append(f"CELLS {mesh.n_cells} {5 * mesh.n_cells}")
    lines += ["4 " + " ".join(str(n) for n in quad) for quad in mesh.quads]
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines += ["9"] * mesh.n_cells
    lines.append(f"CELL_DATA {mesh.n_cells}")
    for name, values in cell_data.items():
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [f"{v:.9e}" for v in np.asarray(values, dtype=float)]
    return ("\n".join(lines) + "\n").encode()


def test_snapshot_bytes_equal_the_line_by_line_text(tmp_path):
    mesh = small_mesh(n_turns=2, n_alpha=4, n_beta=4)
    rng = np.random.default_rng(29)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, -2.5, 5e-324]
    q = rng.standard_normal(mesh.n_cells) * 10.0 ** rng.uniform(-300.0, 300.0, mesh.n_cells)
    q[: len(special)] = special
    data = {"q": q, "ints": np.arange(-mesh.n_cells, 0)}
    title = "%s %d {} " + "t" * 300
    path = write_vtk(tmp_path / "out.vtk", mesh, data, title=title)
    assert path.read_bytes() == _line_by_line_vtk(mesh, data, title)
    # the geometry formatted once for several snapshots writes the same bytes
    shared = write_vtk(tmp_path / "shared.vtk", mesh, data, title=title, geometry=vtk_geometry(mesh))
    assert shared.read_bytes() == path.read_bytes()
