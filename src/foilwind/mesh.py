"""Parametric pancake-winding geometry and structured rectilinear meshing.

The computational domain is the upper half of the meridian (r, z) plane:
the device is mirror-symmetric about z = 0, so only z >= 0 is meshed and a
symmetry condition (no radial field) is applied on the midplane. All cells
are axis-aligned rectangles from a tensor product of r-lines and z-lines,
which keeps edge/cell numbering closed-form and makes every Jacobian
trivially positive.

Conventions used throughout the package:

* node id      = iz * n_r + ir
* horizontal edge (along +r) id = iz * (n_r - 1) + ir
* vertical edge (along +z) id   = n_hedges + iz * n_r + ir
* cell id      = iz * (n_r - 1) + ir
* cell-local edge order: [bottom, top, left, right]
* the azimuthal current in a cell times its area equals the clockwise
  circulation (-bottom +top +left -right) of the in-plane field
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

MU0 = 4e-7 * np.pi

AIR = -1


@dataclass(frozen=True)
class CoilGeometry:
    """Pancake winding described in the meridian plane.

    ``cc_thickness`` is the radial build per turn and ``cc_width`` the axial
    tape width of the full device; the mesh only ever sees the upper half
    (height ``cc_width / 2``).
    """

    inner_radius: float
    n_turns: int
    cc_thickness: float
    cc_width: float
    air_radius_factor: float = 5.0
    homogenized: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.inner_radius < inf:
            raise ValueError("inner_radius must be positive and finite")
        if self.n_turns < 1:
            raise ValueError("n_turns must be >= 1")
        if not (0 < self.cc_thickness < inf and 0 < self.cc_width < inf):
            raise ValueError("conductor dimensions must be positive and finite")
        if not 1 < self.air_radius_factor < inf:
            raise ValueError("air_radius_factor must be finite and exceed 1")

    @property
    def radial_build(self) -> float:
        """Total radial extent of the winding (L_alpha)."""
        return self.n_turns * self.cc_thickness

    @property
    def outer_radius(self) -> float:
        return self.inner_radius + self.radial_build

    @property
    def half_width(self) -> float:
        return 0.5 * self.cc_width

    @property
    def domain_radius(self) -> float:
        return self.air_radius_factor * self.outer_radius


def _graded_sizes(span: float, h_first: float, ratio: float) -> np.ndarray:
    """Cell sizes h_first * ratio**k covering ``span``, rescaled to fit exactly.

    The fine end is at the start; rescaling keeps strict monotonicity and
    lands the last break on the far boundary without overshoot.
    """
    if span <= 0:
        return np.empty(0)
    if not (h_first > 0 and 1 <= ratio < inf):
        raise ValueError("need h_first > 0 and a finite ratio >= 1")
    sizes = [min(h_first, span)]
    while sum(sizes) < span:
        sizes.append(sizes[-1] * ratio)
    out = np.asarray(sizes, dtype=float)
    out *= span / out.sum()
    return out


def _lines_from(a: float, b: float, sizes: np.ndarray, fine_at_start: bool) -> np.ndarray:
    """Break the interval [a, b] using ``sizes`` (fine end toward a or b)."""
    if sizes.size == 0:
        return np.array([a, b])
    s = sizes if fine_at_start else sizes[::-1]
    lines = a + np.concatenate([[0.0], np.cumsum(s)])
    lines[-1] = b
    return lines


def mesh_structured(
    coil: CoilGeometry, n_alpha: int, n_beta: int, air_grading: float = 1.3
) -> "Mesh":
    """Mesh the half-model: uniform n_alpha x n_beta winding block, graded air.

    The winding block spans [inner_radius, outer_radius] x [0, half_width],
    and the air box [0, domain_radius] x [0, domain_radius]. For the detailed
    (per-turn) geometry, n_alpha must be a multiple of the turn count so turn
    interfaces land exactly on mesh lines; the cells of turn i carry region
    tag i, those of the homogenized winding tag 0.
    """
    if n_alpha < 1 or n_beta < 1:
        raise ValueError("n_alpha and n_beta must be >= 1")
    if not coil.homogenized and n_alpha % coil.n_turns:
        raise ValueError(
            f"detailed geometry needs n_alpha divisible by n_turns ({n_alpha} vs {coil.n_turns})"
        )

    r_in, r_out = coil.inner_radius, coil.outer_radius
    z_top = coil.half_width
    r_max = z_max = coil.domain_radius

    coil_r = np.linspace(r_in, r_out, n_alpha + 1)
    coil_z = np.linspace(0.0, z_top, n_beta + 1)
    dr = (r_out - r_in) / n_alpha
    dz = z_top / n_beta

    bore = _lines_from(0.0, r_in, _graded_sizes(r_in, dr, air_grading)[::-1], True)
    outer = _lines_from(r_out, r_max, _graded_sizes(r_max - r_out, dr, air_grading), True)
    above = _lines_from(z_top, z_max, _graded_sizes(z_max - z_top, dz, air_grading), True)

    r_lines = np.concatenate([bore[:-1], coil_r, outer[1:]])
    z_lines = np.concatenate([coil_z, above[1:]])
    coil_col0 = bore.size - 1

    n_rc = r_lines.size - 1
    n_zc = z_lines.size - 1
    region = np.full(n_rc * n_zc, AIR, dtype=int)
    cols = np.arange(n_rc)
    rows = np.arange(n_zc)
    in_alpha = (cols >= coil_col0) & (cols < coil_col0 + n_alpha)
    in_beta = rows < n_beta
    mask = np.outer(in_beta, in_alpha)
    if coil.homogenized:
        tag = np.zeros(n_alpha, dtype=int)
    else:
        per_turn = n_alpha // coil.n_turns
        tag = (cols[in_alpha] - coil_col0) // per_turn
    region2d = region.reshape(n_zc, n_rc)
    region2d[mask] = np.broadcast_to(tag, (n_beta, n_alpha)).ravel()

    mesh = Mesh(
        r_lines=r_lines,
        z_lines=z_lines,
        region=region2d.ravel(),
        geom=coil,
        n_alpha=n_alpha,
        n_beta=n_beta,
        coil_col0=coil_col0,
    )
    if np.any(mesh.area <= 0):
        raise ValueError("degenerate (zero-area) cell in generated mesh")
    return mesh


def _incidence(ends: np.ndarray, signs: list[float], n_cols: int) -> sp.csr_matrix:
    """CSR matrix with ``signs`` at the column ids ``ends[i]``, ascending, of each row i."""
    n_rows, per_row = ends.shape
    indptr = np.arange(0, ends.size + 1, per_row)
    return sp.csr_matrix((np.tile(signs, n_rows), ends.ravel(), indptr), shape=(n_rows, n_cols))


@dataclass(eq=False)
class Mesh:
    """Rectilinear half-model mesh with region tags and cached incidences.

    Immutable after construction; every derived array is cached on first
    access and safe to share across threads.
    """

    r_lines: np.ndarray
    z_lines: np.ndarray
    region: np.ndarray
    geom: CoilGeometry
    n_alpha: int
    n_beta: int
    coil_col0: int
    # the half-model stands for the full device mirrored about the midplane
    symmetry_factor: ClassVar[float] = 2.0

    # ---- counts -----------------------------------------------------------

    @property
    def n_r(self) -> int:
        return self.r_lines.size

    @property
    def n_z(self) -> int:
        return self.z_lines.size

    @property
    def n_nodes(self) -> int:
        return self.n_r * self.n_z

    @property
    def n_cells(self) -> int:
        return (self.n_r - 1) * (self.n_z - 1)

    @property
    def n_hedges(self) -> int:
        return (self.n_r - 1) * self.n_z

    @property
    def n_vedges(self) -> int:
        return self.n_r * (self.n_z - 1)

    @property
    def n_edges(self) -> int:
        return self.n_hedges + self.n_vedges

    # ---- id helpers (vectorized over numpy index arrays) ------------------

    def node_id(self, ir, iz):
        return np.asarray(iz) * self.n_r + np.asarray(ir)

    def hedge_id(self, ir, iz):
        return np.asarray(iz) * (self.n_r - 1) + np.asarray(ir)

    def vedge_id(self, ir, iz):
        return self.n_hedges + np.asarray(iz) * self.n_r + np.asarray(ir)

    def cell_id(self, ir, iz):
        return np.asarray(iz) * (self.n_r - 1) + np.asarray(ir)

    # ---- geometry arrays ---------------------------------------------------

    @cached_property
    def nodes(self) -> np.ndarray:
        rr, zz = np.meshgrid(self.r_lines, self.z_lines)
        return np.column_stack([rr.ravel(), zz.ravel()])

    @cached_property
    def quads(self) -> np.ndarray:
        """Counterclockwise node connectivity per cell."""
        ir, iz = self._cell_grid
        return np.column_stack(
            [
                self.node_id(ir, iz),
                self.node_id(ir + 1, iz),
                self.node_id(ir + 1, iz + 1),
                self.node_id(ir, iz + 1),
            ]
        )

    @cached_property
    def _cell_grid(self) -> tuple[np.ndarray, np.ndarray]:
        iz, ir = np.divmod(np.arange(self.n_cells), self.n_r - 1)
        return ir, iz

    @cached_property
    def edge_nodes(self) -> np.ndarray:
        """Oriented node pairs, canonical +r / +z direction (low id -> high id)."""
        ids = np.arange(self.n_nodes).reshape(self.n_z, self.n_r)
        h = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
        return np.vstack([h, np.column_stack([ids[:-1].ravel(), ids[1:].ravel()])])

    @cached_property
    def cell_edges(self) -> np.ndarray:
        """Per-cell edge ids in [bottom, top, left, right] order."""
        ir, iz = self._cell_grid
        return np.column_stack(
            [
                self.hedge_id(ir, iz),
                self.hedge_id(ir, iz + 1),
                self.vedge_id(ir, iz),
                self.vedge_id(ir + 1, iz),
            ]
        )

    @cached_property
    def dr(self) -> np.ndarray:
        return np.diff(self.r_lines)[self._cell_grid[0]]

    @cached_property
    def dz(self) -> np.ndarray:
        return np.diff(self.z_lines)[self._cell_grid[1]]

    @cached_property
    def r0(self) -> np.ndarray:
        """Left (inner) radius per cell."""
        return self.r_lines[self._cell_grid[0]]

    @cached_property
    def rbar(self) -> np.ndarray:
        return self.r0 + 0.5 * self.dr

    @cached_property
    def area(self) -> np.ndarray:
        return self.dr * self.dz

    @cached_property
    def volume(self) -> np.ndarray:
        """Half-model cell volumes 2*pi*rbar*area (exact for rectangles)."""
        return 2.0 * np.pi * self.rbar * self.area

    # ---- region / winding indexing ----------------------------------------

    @cached_property
    def coil_mask(self) -> np.ndarray:
        return self.region >= 0

    @cached_property
    def coil_cells(self) -> np.ndarray:
        return np.nonzero(self.coil_mask)[0]

    @cached_property
    def alpha_index(self) -> np.ndarray:
        """Winding column index per cell (0..n_alpha-1), -1 in air."""
        ir, iz = self._cell_grid
        idx = ir - self.coil_col0
        idx[~self.coil_mask] = -1
        return idx

    @cached_property
    def alpha_spans(self) -> np.ndarray:
        """(n_alpha, 2) normalized [0,1] radial span per winding column."""
        lines = self.r_lines[self.coil_col0 : self.coil_col0 + self.n_alpha + 1]
        a = (lines - lines[0]) / (lines[-1] - lines[0])
        return np.column_stack([a[:-1], a[1:]])

    # ---- boundary conditions -------------------------------------------------

    @cached_property
    def constrained_edges(self) -> np.ndarray:
        """Edges with zero prescribed tangential circulation: midplane, top, outer side.

        The axis edges stay free. The three sets are disjoint and each is
        ascending, so their concatenation is sorted.
        """
        nr, nz = self.n_r, self.n_z
        ir_h = np.arange(nr - 1)
        midplane = self.hedge_id(ir_h, 0)
        top = self.hedge_id(ir_h, nz - 1)
        side = self.vedge_id(np.full(nz - 1, nr - 1), np.arange(nz - 1))
        return np.concatenate([midplane, top, side])

    @cached_property
    def dirichlet_nodes(self) -> np.ndarray:
        """Nodes on the zero-potential boundary: midplane, top, outer side."""
        nr, nz = self.n_r, self.n_z
        bottom = self.node_id(np.arange(nr), 0)
        top = self.node_id(np.arange(nr), nz - 1)
        side = self.node_id(np.full(nz, nr - 1), np.arange(nz))
        return np.unique(np.concatenate([bottom, top, side]))

    # ---- discrete operators -------------------------------------------------

    @cached_property
    def curl(self) -> sp.csr_matrix:
        """Cell-by-edge incidence: (curl x)_c = j_phi * area of cell c.

        Row pattern (-1, +1, +1, -1) over [bottom, top, left, right]; dividing
        by the cell area gives the piecewise-constant azimuthal current
        density of the lowest-order edge interpolation.
        """
        return _incidence(self.cell_edges, [-1.0, 1.0, 1.0, -1.0], self.n_edges)

    @property
    def gradient(self) -> sp.csr_matrix:
        """Edge-by-node incidence: -1 at the tail, +1 at the head of each edge.

        The companion of ``curl`` (``curl @ gradient`` is zero). Built on
        each access: a layout reads it once.
        """
        return _incidence(self.edge_nodes, [-1.0, 1.0], self.n_nodes)

    def mass_matrix(self, mu: float = MU0) -> sp.csr_matrix:
        """Edge mass matrix with the axisymmetric 2*pi*r weight.

        Per-cell 2x2 blocks are integrated exactly (the integrands are at
        most cubic, which 2x2 Gauss reproduces); radial and axial edge
        families do not couple on axis-aligned rectangles. So the matrix has
        five diagonals: a radial edge couples with the radial edges a cell
        row above and below it, n_r - 1 ids away, and an axial edge with the
        axial edges beside it. A diagonal entry sums its edge's one or two
        cells, a sum whose IEEE value does not depend on the order; the
        conversion to CSR drops the zeros where no cell couples two edges.
        """
        nr, h, n = self.n_r, self.n_hedges, self.n_edges
        dr = np.diff(self.r_lines)[None, :]
        dz = np.diff(self.z_lines)[:, None]
        r0 = self.r_lines[None, :-1]
        c = 2.0 * np.pi * mu
        hb = (c * (r0 + 0.5 * dr) * dz / dr).ravel()  # a cell's id is that of its bottom edge
        hv = c * dr / dz
        # the diagonals at offsets 1 - n_r, -1, 0, 1, n_r - 1, stored by column
        diags = np.zeros((5, n))
        diags[0, : hb.size] = diags[4, nr - 1 : h] = hb / 6.0
        diags[2, : hb.size] = hb / 3.0
        diags[2, nr - 1 : h] += hb / 3.0
        lower, mid, upper = (d[h:].reshape(-1, nr) for d in diags[1:4])
        lower[:, :-1] = upper[:, 1:] = hv * (r0 / 6.0 + dr / 12.0)
        mid[:, :-1] = hv * (r0 / 3.0 + dr / 12.0)
        mid[:, 1:] += hv * (r0 / 3.0 + dr / 4.0)
        return sp.dia_matrix((diags, [1 - nr, -1, 0, 1, nr - 1]), shape=(n, n)).tocsr()

    # ---- loops and frames ----------------------------------------------------

    def loop_edges(self, ir0: int, ir1: int, iz0: int, iz1: int):
        """Edges and signs of the loop bounding cell-columns [ir0,ir1) x rows [iz0,iz1).

        Signed so that the circulation equals the enclosed azimuthal current
        (sum of cell curls) by the discrete Stokes identity: +top, -bottom,
        +left, -right.
        """
        irs = np.arange(ir0, ir1)
        izs = np.arange(iz0, iz1)
        edges = np.concatenate(
            [
                self.hedge_id(irs, iz1),
                self.hedge_id(irs, iz0),
                self.vedge_id(np.full(izs.size, ir0), izs),
                self.vedge_id(np.full(izs.size, ir1), izs),
            ]
        )
        signs = np.concatenate(
            [np.ones(irs.size), -np.ones(irs.size), np.ones(izs.size), -np.ones(izs.size)]
        )
        return edges, signs

    def winding_loop(self):
        """Loop lying exactly on the winding-block boundary."""
        return self.loop_edges(self.coil_col0, self.coil_col0 + self.n_alpha, 0, self.n_beta)
