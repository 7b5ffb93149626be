"""Function spaces and DoF numbering for the four formulation variants.

Every variant is expressed through one common object: a sparse basis matrix
``B`` mapping the free unknown vector to circulations on *all* mesh edges.
Columns are, in block order,

* edge unknowns: columns of the identity, one per edge that carries its own
  circulation,
* nodal unknowns: columns of the discrete gradient ``Mesh.gradient`` (+1 on
  edges entering the node, -1 on edges leaving it, in the canonical +r/+z
  edge orientation), one per free node,
* cut unknowns: unit-circulation generators around winding holes, realized
  as radial jump sheets running from the axis into the winding,
* carrier unknowns (current-potential variant only): voltage-basis-weighted
  combinations of per-column sheets that make net column currents
  representable.

The curl of ``B u`` is then cellwise current, and the whole assembly works
on ``C @ B`` regardless of variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import polynomial as P

from .mesh import AIR, Mesh
from .variants import FormulationVariant


# --------------------------------------------------------------------------
# voltage distribution basis
# --------------------------------------------------------------------------


class VoltageBasis:
    """Shifted Legendre polynomials on the normalized winding coordinate.

    Orthogonal under the uniform weight, so the Gram matrix is
    diag(1/(2k+1)) and only the constant mode has nonzero mean; those two
    facts make the weak current rows well conditioned and let the k = 0 row
    pin the total current exactly.
    """

    def __init__(self, order: int):
        if order < 0:
            raise ValueError("polynomial order must be >= 0")
        self.order = int(order)
        self._coeffs = [self._shifted(k) for k in range(order + 1)]
        self._anti = [P.polyint(c) for c in self._coeffs]

    @staticmethod
    def _shifted(k: int) -> np.ndarray:
        leg = np.zeros(k + 1)
        leg[k] = 1.0
        c = np.polynomial.legendre.leg2poly(leg)
        shifted = np.zeros(1)
        for i, ci in enumerate(c):
            shifted = P.polyadd(shifted, ci * P.polypow([-1.0, 2.0], i))
        return shifted

    @property
    def n_funcs(self) -> int:
        return self.order + 1

    def eval(self, alpha) -> np.ndarray:
        """Values of all basis functions; shape (..., order + 1)."""
        a = np.asarray(alpha, dtype=float)
        return np.stack([P.polyval(a, c) for c in self._coeffs], axis=-1)

    def cell_means(self, a0, a1) -> np.ndarray:
        """Exact mean of each basis function over intervals [a0, a1]."""
        a0 = np.asarray(a0, dtype=float)
        a1 = np.asarray(a1, dtype=float)
        vals = [
            (P.polyval(a1, A) - P.polyval(a0, A)) / (a1 - a0) for A in self._anti
        ]
        return np.stack(vals, axis=-1)


# --------------------------------------------------------------------------
# jump sheets: cuts and current carriers
# --------------------------------------------------------------------------


def _sheet_columns(mesh: Mesh, sheets: list[tuple[int, int]]) -> sp.csr_matrix:
    """One column per jump sheet (terminal column, cell row) of the winding.

    A sheet is +1 on each vertical edge it crosses from the axis to its
    terminal cell, so its curl is +1 ampere (per unit DoF) in exactly that
    cell and zero elsewhere. It must end on the axis because the outer
    truncation boundary carries a zero-tangential-field condition that a
    jump sheet may not pierce.
    """
    rows, cols = [], []
    for k, (col, row) in enumerate(sheets):
        edges = mesh.vedge_id(np.arange(col + 1), np.full(col + 1, row))
        rows.append(edges)
        cols.append(np.full(edges.size, k))
    rows = np.concatenate(rows)
    return sp.csr_matrix(
        (np.ones(rows.size), (rows, np.concatenate(cols))),
        shape=(mesh.n_edges, len(sheets)),
    )


def _cut_columns(mesh: Mesh, holes: np.ndarray) -> sp.csr_matrix:
    """One unit-circulation cut per hole (turn id for the detailed model, 0 for the bulk).

    Rows are spread over the winding height so stacked sheets stay distinct;
    each terminal cell is the first winding column of its hole.
    """
    sheets = []
    for idx, hole in enumerate(holes):
        cells = np.nonzero(mesh.region == hole)[0]
        col = int(mesh.alpha_index[cells].min()) + mesh.coil_col0
        row = (idx * mesh.n_beta) // len(holes)
        if mesh.region[mesh.cell_id(col, row)] != hole:
            raise ValueError(f"cut line for hole {hole} terminates outside it")
        sheets.append((col, row))
    return _sheet_columns(mesh, sheets)


# --------------------------------------------------------------------------
# DoF layout
# --------------------------------------------------------------------------


@dataclass(eq=False)
class DofLayout:
    """Numbering of all unknowns of one variant on one mesh.

    ``basis`` maps the free field vector (edge | nodal | cut | carrier
    blocks) to circulations on every mesh edge; the voltage unknowns, one
    per voltage mode, are appended by the solver after the field blocks.

    The voltage modes constrain the winding current: mode k takes the value
    ``mode_means[s, k]`` on the winding cells of slice s (``cell_slice``),
    and its row pins the current it weighs to ``mode_turns[k]`` times the
    drive. The reference has one indicator mode per turn, each carrying its
    turn's current; the homogenized variants have the voltage basis over
    the radial columns, whose constant mode carries the ampere-turns.
    """

    mesh: Mesh
    variant: FormulationVariant
    basis: sp.csr_matrix
    blocks: dict[str, slice]
    cell_slice: np.ndarray  # slice of each winding cell, in ``mesh.coil_cells`` order
    mode_means: np.ndarray  # (n_slices, n_voltage_dofs)
    mode_turns: np.ndarray  # (n_voltage_dofs,)

    @property
    def n_voltage_dofs(self) -> int:
        return self.mode_means.shape[1]

    @property
    def n_field_dofs(self) -> int:
        return self.basis.shape[1]

    @property
    def n_dofs(self) -> int:
        """Total unknowns in a solve, voltage block included."""
        return self.n_field_dofs + self.n_voltage_dofs

    @cached_property
    def curl_basis(self) -> sp.csr_matrix:
        """Cell currents of the basis: (curl_basis @ u)_c = j_phi * area."""
        cb = (self.mesh.curl @ self.basis).tocsr()
        cb.eliminate_zeros()
        return cb


def _inside_conductor(mesh: Mesh, incidence: np.ndarray, full: int) -> np.ndarray:
    """Mask of the edges or nodes inside one conductor region.

    ``incidence`` holds the edges (``mesh.cell_edges``) or nodes
    (``mesh.quads``) of each cell. An entity is inside when all ``full`` of
    its incident cells (2 for an edge, 4 for a node) carry one winding tag;
    entities on the domain boundary have fewer incident cells.
    """
    ids = incidence.ravel()
    tags = np.repeat(mesh.region, incidence.shape[1])
    count = np.bincount(ids)
    lo = np.full(count.size, np.iinfo(tags.dtype).max)
    hi = np.full(count.size, AIR)
    np.minimum.at(lo, ids, tags)
    np.maximum.at(hi, ids, tags)
    return (count == full) & (lo == hi) & (lo >= 0)


def build_dof_layout(
    mesh: Mesh, variant: FormulationVariant, voltage_order: int = 3
) -> DofLayout:
    """Construct the unknown numbering for ``variant`` on ``mesh``.

    The per-variant rules:

    * detailed reference: edge unknowns on edges whose every incident cell
      belongs to one and the same turn, nodal unknowns elsewhere (air,
      inter-turn and interface nodes), one cut per turn; one indicator
      voltage mode per turn.
    * h-full: edge unknowns on every unconstrained edge, nothing else.
    * h-phi: edge unknowns strictly inside the bulk winding, nodal in air
      and on the interface, one cut for the winding.
    * t-omega: nodal unknowns everywhere, radial-edge unknowns strictly
      inside the winding, and voltage-order + 1 modal current carriers.

    The homogenized variants have voltage-order + 1 voltage modes.
    """
    if not np.any(mesh.coil_mask):
        raise ValueError("mesh has no winding region")
    if not isinstance(variant, FormulationVariant):
        raise ValueError(f"unknown variant {variant!r}")

    n_edges = mesh.n_edges
    edge_columns = sp.identity(n_edges, format="csr")
    vb = VoltageBasis(voltage_order)
    coil = mesh.coil_cells
    holes = np.unique(mesh.region[coil])  # the turns, or the bulk winding
    if variant.is_fcm:
        if mesh.n_alpha < vb.n_funcs:
            # fewer radial columns than voltage functions -> rank-deficient coupling
            raise ValueError(
                f"homogenized winding needs n_alpha >= voltage_order + 1 "
                f"({mesh.n_alpha} < {vb.n_funcs})"
            )
        spans = mesh.alpha_spans
        cell_slice = mesh.alpha_index[coil]
        mode_means = vb.cell_means(spans[:, 0], spans[:, 1])  # (n_alpha, p+1)
        mode_turns = np.zeros(vb.n_funcs)
        mode_turns[0] = mesh.geom.n_turns
    else:
        cell_slice = mesh.region[coil]  # the turn tags 0 .. n_turns - 1
        mode_means = np.identity(holes.size)
        mode_turns = np.ones(holes.size)

    columns: list[sp.csr_matrix] = []
    blocks: dict[str, slice] = {}
    pos = 0

    def add_block(name: str, mat: sp.csr_matrix):
        nonlocal pos
        if mat.shape[1] == 0:
            return
        columns.append(mat)
        blocks[name] = slice(pos, pos + mat.shape[1])
        pos += mat.shape[1]

    if variant is FormulationVariant.FCM_H_FULL:
        free_edges = np.ones(n_edges, dtype=bool)
        free_edges[mesh.constrained_edges] = False
        add_block("edge", edge_columns[:, free_edges])
    else:
        # edge unknowns inside a conductor, the gradient of a scalar potential
        # wherever they do not own the field
        inside = _inside_conductor(mesh, mesh.cell_edges, 2)
        free_nodes = np.ones(mesh.n_nodes, dtype=bool)
        if variant is FormulationVariant.FCM_T_OMEGA:
            inside[mesh.n_hedges :] = False  # radial (alpha) edges only
        else:
            free_nodes &= ~_inside_conductor(mesh, mesh.quads, 4)
        free_nodes[mesh.dirichlet_nodes] = False
        add_block("edge", edge_columns[:, inside])
        add_block("nodal", mesh.gradient[:, free_nodes])

        if variant is FormulationVariant.FCM_T_OMEGA:
            # modal net-current carriers: per-column sheets contracted with the
            # voltage basis; the pure radial-edge field carries zero net current
            # per column, so these close the space at minimal extra cost
            sheets = [(mesh.coil_col0 + j, 0) for j in range(mesh.n_alpha)]
            add_block("carrier", (_sheet_columns(mesh, sheets) @ sp.csr_matrix(mode_means)).tocsr())
        else:
            add_block("cut", _cut_columns(mesh, holes))

    basis = sp.hstack(columns, format="csr") if columns else sp.csr_matrix((n_edges, 0))
    return DofLayout(
        mesh=mesh,
        variant=variant,
        basis=basis,
        blocks=blocks,
        cell_slice=cell_slice,
        mode_means=mode_means,
        mode_turns=mode_turns,
    )


# --------------------------------------------------------------------------
# field evaluation
# --------------------------------------------------------------------------


def eval_field(layout: DofLayout, coeffs: np.ndarray, quad_id: int, local_point=(0.5, 0.5)):
    """Interpolated in-plane field and azimuthal current density in one cell.

    ``local_point`` is (xi, eta) in the unit square; the current density of
    the lowest-order edge interpolation is constant per cell. ``coeffs`` may
    be the field vector alone or the field vector with the voltage block
    appended (the voltage entries do not contribute to the field).
    """
    mesh = layout.mesh
    if not 0 <= quad_id < mesh.n_cells:
        raise ValueError(f"cell {quad_id} out of range")
    xi, eta = local_point
    if not (0.0 <= xi <= 1.0 and 0.0 <= eta <= 1.0):
        raise ValueError("local point outside the unit square")
    u = np.asarray(coeffs, dtype=float)
    if u.size == layout.n_dofs:
        u = u[: layout.n_field_dofs]
    elif u.size != layout.n_field_dofs:
        raise ValueError(f"coefficient vector has length {u.size}, expected "
                         f"{layout.n_field_dofs} or {layout.n_dofs}")
    x = layout.basis @ u
    b, t, l, r = layout.mesh.cell_edges[quad_id]
    dr = mesh.dr[quad_id]
    dz = mesh.dz[quad_id]
    h_r = (x[b] * (1.0 - eta) + x[t] * eta) / dr
    h_z = (x[l] * (1.0 - xi) + x[r] * xi) / dz
    curl = (-x[b] + x[t] + x[l] - x[r]) / mesh.area[quad_id]
    return np.array([h_r, h_z]), float(curl)
