"""Function spaces and DoF numbering for the four formulation variants.

Every variant is expressed through one common object: a sparse basis matrix
``B`` mapping the free unknown vector to circulations on *all* mesh edges.
Columns are, in block order,

* edge unknowns: unit vectors on the edges that carry their own circulation,
* nodal unknowns: discrete gradients (+1 on edges entering the node, -1 on
  edges leaving it, in the canonical +r/+z edge orientation),
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

    def gram(self) -> np.ndarray:
        """Exact integrals of products over [0, 1]."""
        n = self.n_funcs
        g = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                prod = P.polymul(self._coeffs[i], self._coeffs[j])
                anti = P.polyint(prod)
                g[i, j] = P.polyval(1.0, anti) - P.polyval(0.0, anti)
        return g

    def gram_condition(self) -> float:
        return float(np.linalg.cond(self.gram()))


# --------------------------------------------------------------------------
# cut functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CutFunction:
    """One unit-circulation generator: +1 on each crossed vertical edge.

    The jump sheet runs at a fixed winding cell-row from the axis to the
    cut's terminal column, so its curl is +1 ampere (per unit DoF) in exactly
    the terminal cell and zero elsewhere; it must end on the axis because the
    outer truncation boundary carries a zero-tangential-field condition that
    a jump sheet may not pierce.
    """

    hole: int
    edges: np.ndarray
    terminal_cell: int


@dataclass(frozen=True)
class CutBasis:
    cuts: tuple[CutFunction, ...]

    def __len__(self) -> int:
        return len(self.cuts)

    def circulation(self, cut_idx: int, loop_edges: np.ndarray, loop_signs: np.ndarray) -> float:
        """Signed coefficient sum of one cut function along an edge loop."""
        coeff = np.isin(loop_edges, self.cuts[cut_idx].edges).astype(float)
        return float(np.dot(coeff, loop_signs))


def _jump_sheet(mesh: Mesh, terminal_col: int, row: int) -> tuple[np.ndarray, int]:
    """Vertical edges crossed by a horizontal jump sheet ending in ``terminal_col``."""
    cols = np.arange(terminal_col + 1)
    edges = mesh.vedge_id(cols, np.full(cols.size, row))
    return edges, int(mesh.cell_id(terminal_col, row))


def build_cut_basis(mesh: Mesh, holes: list[int]) -> CutBasis:
    """One cut per hole (turn id for the detailed model, 0 for the bulk).

    Rows are spread over the winding height so stacked sheets stay distinct;
    each terminal cell is the first winding column of its hole.
    """
    if mesh.r_lines[0] > 0:
        raise ValueError("cut sheets must terminate on the axis; mesh has none")
    cuts = []
    n_holes = len(holes)
    for idx, hole in enumerate(holes):
        cells = np.nonzero(mesh.region == hole)[0]
        if cells.size == 0:
            raise ValueError(f"hole {hole} has no winding cells")
        first_col = int(mesh.alpha_index[cells].min()) + mesh.coil_col0
        row = (idx * mesh.n_beta) // max(n_holes, 1)
        edges, terminal = _jump_sheet(mesh, first_col, row)
        if mesh.region[terminal] != hole:
            raise ValueError(f"cut line for hole {hole} terminates outside it")
        cuts.append(CutFunction(hole=hole, edges=edges, terminal_cell=terminal))
    return CutBasis(cuts=tuple(cuts))


# --------------------------------------------------------------------------
# DoF layout
# --------------------------------------------------------------------------


@dataclass(eq=False)
class DofLayout:
    """Numbering of all unknowns of one variant on one mesh.

    ``basis`` maps the free field vector (edge | nodal | cut | carrier
    blocks) to circulations on every mesh edge; the separate voltage
    unknowns (per-turn voltages or distribution coefficients) are appended
    by the solver after the field blocks. ``constrained_edges`` lists edges
    whose total circulation is pinned to zero by the boundary conditions.
    """

    mesh: Mesh
    variant: FormulationVariant
    basis: sp.csr_matrix
    blocks: dict[str, slice]
    n_voltage_dofs: int
    constrained_edges: np.ndarray
    cut_basis: CutBasis | None
    voltage_basis: VoltageBasis | None

    @property
    def n_edge_dofs(self) -> int:
        s = self.blocks.get("edge")
        return (s.stop - s.start) if s else 0

    @property
    def n_nodal_dofs(self) -> int:
        s = self.blocks.get("nodal")
        return (s.stop - s.start) if s else 0

    @property
    def n_cut_dofs(self) -> int:
        s = self.blocks.get("cut")
        return (s.stop - s.start) if s else 0

    @property
    def n_carrier_dofs(self) -> int:
        s = self.blocks.get("carrier")
        return (s.stop - s.start) if s else 0

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


def _incident_cells_of_edges(mesh: Mesh):
    """Region ids of the cells on both sides of each edge (AIR-2 where absent)."""
    NONE = -2
    nr1 = mesh.n_r - 1
    nz1 = mesh.n_z - 1
    reg = mesh.region.reshape(nz1, nr1)

    h_lo = np.full((mesh.n_z, nr1), NONE, dtype=int)  # cell below a horizontal edge
    h_hi = np.full((mesh.n_z, nr1), NONE, dtype=int)  # cell above
    h_lo[1:, :] = reg
    h_hi[:-1, :] = reg

    v_lo = np.full((nz1, mesh.n_r), NONE, dtype=int)  # cell left of a vertical edge
    v_hi = np.full((nz1, mesh.n_r), NONE, dtype=int)  # cell right
    v_lo[:, 1:] = reg
    v_hi[:, :-1] = reg

    lo = np.concatenate([h_lo.ravel(), v_lo.ravel()])
    hi = np.concatenate([h_hi.ravel(), v_hi.ravel()])
    return lo, hi, NONE


def _gradient_columns(mesh: Mesh, nodes: np.ndarray) -> sp.csr_matrix:
    """Edge-circulation columns of nodal gradients for the given nodes."""
    en = mesh.edge_nodes
    n_edges = mesh.n_edges
    col_of = np.full(mesh.n_nodes, -1)
    col_of[nodes] = np.arange(nodes.size)
    rows, cols, vals = [], [], []
    head = col_of[en[:, 1]]
    tail = col_of[en[:, 0]]
    e_ids = np.arange(n_edges)
    m = head >= 0
    rows.append(e_ids[m]); cols.append(head[m]); vals.append(np.ones(m.sum()))
    m = tail >= 0
    rows.append(e_ids[m]); cols.append(tail[m]); vals.append(-np.ones(m.sum()))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_edges, nodes.size),
    )


def _unit_columns(n_edges: int, edges: np.ndarray) -> sp.csr_matrix:
    return sp.csr_matrix(
        (np.ones(edges.size), (edges, np.arange(edges.size))),
        shape=(n_edges, edges.size),
    )


def _cut_columns(n_edges: int, cut_basis: CutBasis) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for k, cut in enumerate(cut_basis.cuts):
        rows.append(cut.edges)
        cols.append(np.full(cut.edges.size, k))
        vals.append(np.ones(cut.edges.size))
    if not rows:
        return sp.csr_matrix((n_edges, 0))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_edges, len(cut_basis)),
    )


def build_dof_layout(
    mesh: Mesh, variant: FormulationVariant, voltage_order: int = 3
) -> DofLayout:
    """Construct the unknown numbering for ``variant`` on ``mesh``.

    The per-variant rules:

    * detailed reference: edge unknowns on edges whose every incident cell
      belongs to one and the same turn, nodal unknowns elsewhere (air,
      inter-turn and interface nodes), one cut per turn; voltage unknowns
      are the per-turn voltages.
    * h-full: edge unknowns on every unconstrained edge, nothing else.
    * h-phi: edge unknowns strictly inside the bulk winding, nodal in air
      and on the interface, one cut for the winding.
    * t-omega: nodal unknowns everywhere, radial-edge unknowns strictly
      inside the winding, and voltage-order + 1 modal current carriers.
    """
    if not np.any(mesh.coil_mask):
        raise ValueError("mesh has no winding region")
    if not isinstance(variant, FormulationVariant):
        raise ValueError(f"unknown variant {variant!r}")

    n_edges = mesh.n_edges
    constrained = mesh.constrained_edges
    is_constrained = np.zeros(n_edges, dtype=bool)
    is_constrained[constrained] = True

    lo, hi, NONE = _incident_cells_of_edges(mesh)
    vb = VoltageBasis(voltage_order)
    if variant.is_fcm and mesh.n_alpha < vb.n_funcs:
        # fewer radial columns than voltage functions -> rank-deficient coupling
        raise ValueError(
            f"homogenized winding needs n_alpha >= voltage_order + 1 "
            f"({mesh.n_alpha} < {vb.n_funcs})"
        )

    def conductor_interior_edges(same_turn: bool) -> np.ndarray:
        """Edges with every incident cell in the winding (same turn if asked)."""
        a, b = lo.copy(), hi.copy()
        one_sided = (a == NONE) ^ (b == NONE)
        a = np.where(a == NONE, b, a)
        b = np.where(b == NONE, a, b)
        inside = (a >= 0) & (b >= 0) & ~one_sided
        if same_turn:
            inside &= a == b
        return np.nonzero(inside & ~is_constrained)[0]

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

    cut_basis: CutBasis | None = None
    dirichlet = mesh.dirichlet_nodes

    if variant is FormulationVariant.FCM_H_FULL:
        free_edges = np.nonzero(~is_constrained)[0]
        add_block("edge", _unit_columns(n_edges, free_edges))
        n_voltage = vb.n_funcs

    elif variant in (FormulationVariant.REF_H_PHI, FormulationVariant.FCM_H_PHI):
        ref = variant is FormulationVariant.REF_H_PHI
        free_edges = conductor_interior_edges(same_turn=ref)
        add_block("edge", _unit_columns(n_edges, free_edges))

        # nodal space: everywhere the edge space does not own the field
        interior = np.zeros(mesh.n_nodes, dtype=bool)
        reg2d = mesh.region.reshape(mesh.n_z - 1, mesh.n_r - 1)
        irn, izn = np.meshgrid(np.arange(1, mesh.n_r - 1), np.arange(1, mesh.n_z - 1))
        c00 = reg2d[izn - 1, irn - 1]
        c10 = reg2d[izn - 1, irn]
        c01 = reg2d[izn, irn - 1]
        c11 = reg2d[izn, irn]
        same = (c00 == c10) & (c00 == c01) & (c00 == c11) & (c00 >= 0)
        if not ref:
            same = (c00 >= 0) & (c10 >= 0) & (c01 >= 0) & (c11 >= 0)
        interior[mesh.node_id(irn[same], izn[same])] = True
        keep = np.ones(mesh.n_nodes, dtype=bool)
        keep[dirichlet] = False
        keep &= ~interior
        free_nodes = np.nonzero(keep)[0]
        add_block("nodal", _gradient_columns(mesh, free_nodes))
        if free_nodes.size and dirichlet.size == 0:
            raise ValueError("scalar potential gauge not fixed: no constrained boundary nodes")

        winding_ids = np.unique(mesh.region[mesh.coil_mask])
        holes = winding_ids.tolist() if ref else [int(winding_ids[0])]
        cut_basis = build_cut_basis(mesh, holes)
        add_block("cut", _cut_columns(n_edges, cut_basis))
        n_voltage = len(cut_basis.cuts) if ref else vb.n_funcs

    elif variant is FormulationVariant.FCM_T_OMEGA:
        all_inside = conductor_interior_edges(same_turn=False)
        t_edges = all_inside[all_inside < mesh.n_hedges]  # radial (alpha) edges only
        add_block("edge", _unit_columns(n_edges, t_edges))

        keep = np.ones(mesh.n_nodes, dtype=bool)
        keep[dirichlet] = False
        free_nodes = np.nonzero(keep)[0]
        add_block("nodal", _gradient_columns(mesh, free_nodes))
        if dirichlet.size == 0:
            raise ValueError("scalar potential gauge not fixed: no constrained boundary nodes")

        # modal net-current carriers: per-column sheets contracted with the
        # voltage basis; the pure radial-edge field carries zero net current
        # per column, so these close the space at minimal extra cost
        spans = mesh.alpha_spans
        weights = vb.cell_means(spans[:, 0], spans[:, 1])  # (n_alpha, p+1)
        rows, cols = [], []
        for j in range(mesh.n_alpha):
            edges, _ = _jump_sheet(mesh, mesh.coil_col0 + j, 0)
            rows.append(edges)
            cols.append(np.full(edges.size, j))
        rows = np.concatenate(rows)
        sheet_mat = sp.csr_matrix(
            (np.ones(rows.size), (rows, np.concatenate(cols))),
            shape=(n_edges, mesh.n_alpha),
        )
        add_block("carrier", (sheet_mat @ sp.csr_matrix(weights)).tocsr())
        n_voltage = vb.n_funcs

    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown variant {variant!r}")

    basis = sp.hstack(columns, format="csr") if columns else sp.csr_matrix((n_edges, 0))
    return DofLayout(
        mesh=mesh,
        variant=variant,
        basis=basis,
        blocks=blocks,
        n_voltage_dofs=n_voltage,
        constrained_edges=constrained,
        cut_basis=cut_basis,
        voltage_basis=vb,
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
