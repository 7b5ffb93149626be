"""Function spaces and DoF numbering for the four formulation variants.

Every variant is expressed through one common object: a sparse basis matrix
``B`` mapping the free unknown vector to circulations on *all* mesh edges.
Columns are, in block order,

* edge unknowns: columns of the identity, one per edge that carries its own
  circulation,
* nodal unknowns: the discrete gradient of each free node's potential, read
  off ``Mesh.edge_nodes`` (+1 on edges entering the node, -1 on edges
  leaving it, in the canonical +r/+z edge orientation),
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
from math import comb

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import polynomial as P

from .mesh import Mesh
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
        # monomial coefficients of P_k(2x - 1): integers, exact at every order
        self._coeffs = [np.array([(-1) ** (k + j) * comb(k, j) * comb(k + j, j) for j in range(k + 1)],
                                 dtype=float) for k in range(order + 1)]
        self._anti = [P.polyint(c) for c in self._coeffs]

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


def _sheets(mesh: Mesh, cols: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges, and sheet of each, of jump sheets ending in the cells (cols[k], rows[k]).

    A sheet is +1 on each vertical edge it crosses from the axis to its
    terminal cell, so its curl is +1 ampere (per unit DoF) in exactly that
    cell and zero elsewhere. It must end on the axis because the outer
    truncation boundary carries a zero-tangential-field condition that a
    jump sheet may not pierce.
    """
    sheet = np.repeat(np.arange(cols.size), cols + 1)
    ir = np.arange(sheet.size) - np.repeat(np.cumsum(cols + 1) - (cols + 1), cols + 1)
    return mesh.vedge_id(ir, rows[sheet]), sheet


def _cut_sheets(mesh: Mesh, holes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One unit-circulation cut per hole (turn id for the detailed model, 0 for the bulk).

    Rows are spread over the winding height so stacked sheets stay distinct;
    each terminal cell is the first winding column of its hole.
    """
    coil = mesh.coil_cells
    seen = np.zeros((holes.size, mesh.n_r - 1), dtype=bool)  # hole x cell column
    seen[np.searchsorted(holes, mesh.region[coil]), mesh.alpha_index[coil] + mesh.coil_col0] = True
    cols = seen.argmax(axis=1)
    rows = (np.arange(holes.size) * mesh.n_beta) // holes.size
    outside = mesh.region[mesh.cell_id(cols, rows)] != holes
    if outside.any():
        raise ValueError(f"cut line for hole {holes[outside][0]} terminates outside it")
    return _sheets(mesh, cols, rows)


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


def _inside_conductor(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the edges and of the nodes inside one conductor region.

    An edge is inside when both its cells, a node when all four of its
    cells, carry one winding tag; entities on the domain boundary have
    fewer cells and are never inside.
    """
    nr, nz = mesh.n_r, mesh.n_z
    tags = mesh.region.reshape(nz - 1, nr - 1)
    across_z = (tags[:-1] == tags[1:]) & (tags[1:] >= 0)  # the two cells of each inner radial edge
    across_r = (tags[:, :-1] == tags[:, 1:]) & (tags[:, 1:] >= 0)  # ... of each inner axial edge
    edges = np.zeros(mesh.n_edges, dtype=bool)
    edges[: mesh.n_hedges].reshape(nz, nr - 1)[1:-1] = across_z
    edges[mesh.n_hedges :].reshape(nz - 1, nr)[:, 1:-1] = across_r
    nodes = np.zeros((nz, nr), dtype=bool)
    nodes[1:-1, 1:-1] = across_r[:-1] & across_r[1:] & across_z[:, :-1]
    return edges, nodes.ravel()


def build_dof_layout(
    mesh: Mesh, variant: FormulationVariant, voltage_order: int = 3
) -> DofLayout:
    """Construct the unknown numbering for ``variant`` on ``mesh``.

    The per-variant rules:

    * detailed reference: edge unknowns on edges whose every incident cell
      belongs to one and the same turn, nodal unknowns elsewhere (air,
      inter-turn and interface nodes), one cut per turn; one indicator
      voltage mode per turn.
    * h-full: edge unknowns on every edge not on the truncation boundary
      (both end nodes Dirichlet), nothing else.
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

    coil = mesh.coil_cells
    holes = np.unique(mesh.region[coil])  # the turns, or the bulk winding
    if variant.is_fcm:
        vb = VoltageBasis(voltage_order)
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

    n_edges = mesh.n_edges
    ends = mesh.edge_nodes.ravel()  # tail and head of each edge in turn
    free_nodes = np.ones(mesh.n_nodes, dtype=bool)
    free_nodes[mesh.dirichlet_nodes] = False
    if variant is FormulationVariant.FCM_H_FULL:
        # an edge with both ends on the truncation boundary lies on it
        free_ends = free_nodes[ends]
        edge_dofs = free_ends[0::2] | free_ends[1::2]
        free_nodes[:] = False  # no scalar potential
    else:
        # edge unknowns inside a conductor, the gradient of a scalar potential
        # wherever they do not own the field
        edge_dofs, inside_nodes = _inside_conductor(mesh)
        if variant is FormulationVariant.FCM_T_OMEGA:
            edge_dofs[mesh.n_hedges :] = False  # radial (alpha) edges only
        else:
            free_nodes &= ~inside_nodes

    # each block as its entries (edge, column, value) in row order, and its
    # width: a unit column per edge unknown; per nodal unknown, -1 on the
    # edges whose tail and +1 on those whose head it is, the free nodes
    # numbered by their running count
    own = np.flatnonzero(edge_dofs)
    at = free_nodes[ends]
    parts = {
        "edge": (own, np.arange(own.size), np.ones(own.size), own.size),
        "nodal": (np.repeat(np.arange(n_edges), 2)[at], (np.cumsum(free_nodes) - 1)[ends[at]],
                  np.tile([-1.0, 1.0], n_edges)[at], int(np.count_nonzero(free_nodes))),
    }
    if variant is FormulationVariant.FCM_T_OMEGA:
        # modal net-current carriers: per-column sheets contracted with the
        # voltage basis; the pure radial-edge field carries zero net current
        # per column, so these close the space at minimal extra cost
        edges, sheet = _sheets(mesh, mesh.coil_col0 + np.arange(mesh.n_alpha), np.zeros(mesh.n_alpha, int))
        per_column = sp.csr_matrix((np.ones(edges.size), (edges, sheet)), shape=(n_edges, mesh.n_alpha))
        carrier = (per_column @ sp.csr_matrix(mode_means)).tocoo()  # in stored order
        parts["carrier"] = carrier.row, carrier.col, carrier.data, carrier.shape[1]
    elif variant is not FormulationVariant.FCM_H_FULL:
        edges, sheet = _cut_sheets(mesh, holes)
        parts["cut"] = edges, sheet, np.ones(edges.size), holes.size

    # the blocks side by side, each row's entries block by block and in each
    # block's own order, as sp.hstack lays them out; a block without columns
    # has no span
    starts = np.cumsum([0] + [part[3] for part in parts.values()]).tolist()
    blocks = {name: slice(a, b) for name, a, b in zip(parts, starts[:-1], starts[1:]) if b > a}
    rows = np.concatenate([part[0] for part in parts.values()])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([part[1] + a for part, a in zip(parts.values(), starts)])
    vals = np.concatenate([part[2] for part in parts.values()])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_edges))])
    basis = sp.csr_matrix((vals[order], cols[order], indptr), shape=(n_edges, starts[-1]))
    return DofLayout(mesh=mesh, basis=basis, blocks=blocks, cell_slice=cell_slice,
                     mode_means=mode_means, mode_turns=mode_turns)


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
