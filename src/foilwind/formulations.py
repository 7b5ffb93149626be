"""Residual and Jacobian assembly for all formulation variants.

One symmetric saddle structure serves every variant. With ``u`` the field
unknowns and ``V`` the voltage unknowns,

    R_u = M (u - u_prev) / dt + (CB)^T d(u) (CB u) + G V
    R_V = G^T u - target(t)

where CB maps field unknowns to cell currents, d holds the cellwise
power-law resistive weights at the jc the caller passes in (the solver lags
it at u_prev), and G = (CB)^T Phi couples voltages to currents for every
variant, with Phi the value of each voltage mode on each winding cell
(``DofLayout``). Row k pins the current that mode k weighs to the mode's
ampere-turns at time t. The detailed reference has one indicator mode per
turn, so its G columns are unit vectors on the per-turn cut unknowns and
each multiplier is a turn voltage; the homogenized modes are the voltage
distribution polynomials, whose row 0 pins the total winding current and
whose rows 1..p shape its distribution.

Internally all constraints act on the half model, so targets are halved and
every reported quantity is scaled back to the full device elsewhere.

The eliminated unknowns E are the same for every variant: the unknowns
without curl whose basis columns touch no edge of a winding cell, the
exterior air (none for h-full, whose every edge has curl). Neither the curl
basis nor the coupling reaches them, so their rows are the linear mass rows
M_E (u - u_prev) / dt, and from the zero state on, u_E = -M_EE^-1 M_EK u_K
is a fixed linear function of the kept field unknowns K. Every state the
solver keeps satisfies it (``Elimination.lift``), the residual is evaluated
at that lifted state, where its E rows vanish and the K rows see the mass
through the Schur complement S0 = M_KK - M_KE M_EE^-1 M_EK, and Newton
iterates on K and the voltages only. Its tangent is affine in (1/dt, d_tan),
so an assembly hands the solver those two, and the ``Elimination`` fills
them into a fixed CSC pattern to be factored, the winding terms
C_K^T diag(d_tan) C_K by one sparse matrix-vector product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .materials import MaterialParams, JcKim, power_law
from .mesh import MU0
from .spaces import DofLayout


@dataclass(frozen=True)
class Excitation:
    """Sinusoidal per-turn transport current amplitude*sin(2*pi*f*t)."""

    amplitude: float
    frequency: float

    def __post_init__(self) -> None:
        if not (0 < self.frequency < math.inf and math.isfinite(self.amplitude)):
            raise ValueError("need a finite amplitude and a positive finite frequency")

    @property
    def period(self) -> float:
        return 1.0 / self.frequency

    def current(self, t: float) -> float:
        return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t)


# Every variant eliminates the exterior air (``AssemblyContext.elimination``);
# the potential inside the winding and on its rim stays. Eliminating it too
# put every kept t-omega unknown on the border of S0 (158 unknowns, 95 %
# dense at n_alpha 5, denser as n_alpha grows) and would couple ref's turns.
# fcm-h-full has curl on every edge (its air carries rho_air), so it
# eliminates nothing, and an elimination of nothing keeps SuperLU's defaults
# (COLAMD, threshold 1.0, relax 10): on fcm-h-full the symmetric ordering
# changed the step count and raised the loss by 0.36 %, and relax 1-8 saved
# only 2-4 % of a 10 ms factorization but moved its roundoff, which its step
# sequence follows. Only the COLAMD order is taken out of the loop: it is
# computed once for the pattern (``order`` {}), and again for the pruned fill
# of the zero start state, and each factorization keeps it (NATURAL), which
# repeats the factorization with the defaults bit for bit (see
# ``Elimination``): on the 182 tangents of the fcm-hfull benchmark workload,
# 6.95 -> 5.22 ms (median), all bit-equal.
#
# The other tangents are structurally symmetric, and a multiple-minimum-degree
# ordering of A^T + A (Liu, ACM TOMS 11, 1985) halves ref's LU fill on the
# tensor grid. The pattern is fixed, so that order is computed once and each
# factorization keeps it (NATURAL) in symmetric mode, preferring diagonal
# pivots (Li, ACM TOMS 31, 2005): a threshold of 1e-3 in place of 1.0, and
# relaxed supernodes of 1 column in place of 10. On the tangents of a run
# (2-core x86 host, best of 3 each):
# - pancake2d_ref, 0.0125 period (73 tangents): 0.67x the time per
#   factorization (quartiles 0.62-0.72x), median L+U 268k -> 256k, solutions
#   equal to 1e-13. relax=1 alone gave 0.72x at the same fill, the threshold
#   the fill; the order is the same with relax 1 and 10.
# - pancake2d_fcm_hphi, 0.5 period (441 tangents of 345 unknowns): 9, 8 and 2
#   off-diagonal pivots at thresholds 0.1, 1e-2 and <= 1e-3; median L+U 25.9k,
#   22.8k and 17.9k; 0.54, 0.50 and 0.38 ms (a unit d_tan fills 19.9k at 0.1).
#   The backward error stays <= 1e-17; max|U| / max|A| grows from 14 to 1e4.
# - pancake2d_fcm_tw (428 tangents of 344 unknowns, L+U 16.6k, 0.34 ms) and
#   ref take the 8 and 40 off-diagonal pivots of their zero-diagonal voltage
#   rows at every threshold from 0 to 0.1: their bits do not depend on it.
# Keep relax small, and never raise it to get fewer supernodes: with
# relax=256, SuperLU returned ref solutions with relative errors of 0.7 and
# 1.1, and one such process later aborted with "double free or corruption".
# Never pass panel_size: with 16 or 32, processes that factored ref's tangents
# later died by a segfault or an abort.
_SYMMETRIC = {"options": {"SymmetricMode": True}}
# splu options of the order computed once per elimination, and of each
# factorization in that order
_IN_ORDER = {"permc_spec": "NATURAL", "relax": 1, "diag_pivot_thresh": 1e-3, **_SYMMETRIC}
# the order depends on the pattern alone: the threshold of the factorizations
# gives the same perm_c as SuperLU's default of 1 on ref and fcm-tw, and 1.4x
# faster on ref
_ORDER = {**_IN_ORDER, "permc_spec": "MMD_AT_PLUS_A"}


@dataclass
class AssembledSystem:
    """Residual of one state and the data of its Newton tangent, for ``context.elimination``."""

    residual: np.ndarray
    # per-row sum of absolute term magnitudes; dominates |residual| entrywise
    # and provides the natural normalization for the solver's stopping test
    row_scale: np.ndarray
    dt: float
    d_tan: np.ndarray  # tangent resistive weight of each winding cell
    context: "AssemblyContext"


def impose_excitation(layout: DofLayout, excitation: Excitation, t: float) -> np.ndarray:
    """Full-device constraint targets at time ``t``: the ampere-turns of each voltage mode.

    Reference variant: the net current of every turn. Homogenized variants:
    the total winding ampere-turns for the constant mode, zero for the
    distribution-shaping modes.
    """
    turns = layout.mode_turns
    # a mode without turns gets +0, not the -0 of 0 times a negative current
    return np.where(turns != 0, turns * excitation.current(t), 0.0)


def _product_terms(c: sp.spmatrix):
    """Terms of C^T diag(d) C: each row k of C adds c_ki c_kj d_k to entry (i, j).

    Returns the entry rows i, columns j, source rows k and factors c_ki c_kj
    of every term.
    """
    c = c.tocoo()
    nz = np.arange(c.nnz)
    row_of = sp.csr_matrix((np.ones(c.nnz), (nz, c.row)), shape=(c.nnz, c.shape[0]))
    pairs = (row_of @ row_of.T).tocoo()
    i, j = pairs.row, pairs.col
    return c.col[i], c.col[j], c.row[i], c.data[i] * c.data[j]


def _csc_pattern(m: int, *parts: tuple[np.ndarray, np.ndarray]):
    """Fixed CSC pattern of an m x m matrix holding the entries of ``parts``.

    Each part is a pair (rows, cols). Returns the pattern's indices and
    indptr, and for each part the positions of its entries in the data
    array. A matrix whose entries are affine in a few parameters is then
    filled by combining data over the pattern, without rebuilding its
    structure.
    """
    # SciPy's compiled COO -> CSC conversion merges duplicates and sorts the
    # rows; boolean data and 32-bit coordinates keep its temporaries small
    n = sum(rows.size for rows, _ in parts)
    coords = (np.concatenate(a).astype(np.int32) for a in zip(*parts))
    pattern = sp.csc_matrix((np.ones(n, dtype=bool), tuple(coords)), shape=(m, m))
    # the sorted key col * m + row of every stored entry, in CSC order
    keys = np.repeat(np.arange(m, dtype=np.int64) * m, np.diff(pattern.indptr)) + pattern.indices
    pos = [np.searchsorted(keys, cols.astype(np.int64) * m + rows).astype(np.int32)
           for rows, cols in parts]
    return pattern.indices.astype(np.int32), pattern.indptr.astype(np.int32), pos


def _rows(m: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """The rows ``rows`` of ``m``, each in its stored order, in index arrays of their own."""
    start = m.indptr[rows]
    counts = m.indptr[rows + 1] - start
    indptr = np.zeros(rows.size + 1, dtype=m.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    gather = np.repeat(start - indptr[:-1], counts) + np.arange(indptr[-1], dtype=start.dtype)
    return sp.csr_matrix((m.data[gather], m.indices[gather], indptr), shape=(rows.size, m.shape[1]))


def _relabelled(indices: np.ndarray, indptr: np.ndarray, rank: np.ndarray):
    """A CSC pattern with row and column i relabelled rank[i].

    Each column keeps the storage order of its rows. Returns the new indices
    and indptr, and the position in the old data array of each new entry.
    """
    counts = np.diff(indptr)
    old = np.argsort(rank)  # new column c is old column old[c]
    new_indptr = np.zeros_like(indptr)
    np.cumsum(counts[old], out=new_indptr[1:])
    gather = np.repeat(indptr[old] - new_indptr[:-1], counts[old]) + np.arange(indices.size)
    return rank[indices[gather]].astype(np.int32), new_indptr, gather


class AssemblyContext:
    """Cached per-layout operators shared across time steps.

    Everything time- and state-independent is built once: the reduced mass
    matrix, the cell-current map, the voltage coupling, the constant air
    term, and the cell bookkeeping the resistive update needs.
    """

    def __init__(self, layout: DofLayout, materials: MaterialParams):
        self.layout = layout
        self.materials = materials
        mesh = layout.mesh
        self.mesh = mesh
        self.cb: sp.csr_matrix = layout.curl_basis
        # the edge mass is symmetric to the bit and sorted, so its transpose is
        # the CSC copy SciPy would make of it for this product: same bits
        self.mass: sp.csr_matrix = (layout.basis.T @ mesh.mass_matrix(MU0).T @ layout.basis).tocsr()
        m = self.mass
        self.abs_mass = sp.csr_matrix((np.abs(m.data), m.indices.copy(), m.indptr.copy()), shape=m.shape)
        self.coil = mesh.coil_cells
        # the rows of cb of the winding cells, and their transpose, both CSR;
        # each row keeps its order, and the transpose lists the winding cells
        # in ascending order, so its products are the sums over all cells less
        # the exact zeros of the cells off the winding
        cb_coil = _rows(self.cb, self.coil)
        self.winding_curl = (cb_coil, cb_coil.T.tocsr())
        self.coil_area = mesh.area[self.coil]
        # resistive diagonal weight rho -> rho * volume / area^2, half model
        self.coil_dweight = 2.0 * np.pi * mesh.rbar[self.coil] / self.coil_area

        # a space whose curl reaches an air cell (the all-edge one) cannot
        # represent an exactly curl-free air region, so a finite air
        # resistivity keeps stray currents negligible; the scalar potential
        # spaces are curl-free in air by construction, and cb stores no zeros
        self.air_matrix: sp.csr_matrix | None = None
        air = ~mesh.coil_mask
        if np.diff(self.cb.indptr)[air].any():
            # cb^T diag(d) cb over the air rows alone: each entry sums its cells
            # in ascending order and each row is sorted, as through the whole cb
            cb_air = _rows(self.cb, np.flatnonzero(air))
            scaled = cb_air.T.tocsr()
            rho = materials.rho_spurious_air
            d = rho * 2.0 * np.pi * mesh.rbar[air] / mesh.area[air]
            scaled.data *= d[scaled.indices]
            self.air_matrix = scaled @ cb_air
            self.air_matrix.sort_indices()

        # G = (CB)^T Phi, with Phi the value of each voltage mode on each
        # winding cell, gathered from the nonzeros of each slice's modes.
        # SciPy's product stores no exact zeros, so the reference's indicator
        # modes give one unit entry per turn, on its cut
        means = layout.mode_means
        slices, modes = np.nonzero(means)
        bounds = np.searchsorted(slices, np.arange(means.shape[0] + 1))
        phi = sp.csr_matrix((means[slices, modes], modes, bounds), shape=means.shape)
        self.coupling: sp.csr_matrix = self.winding_curl[1] @ _rows(phi, layout.cell_slice)

    # -- cell quantities ---------------------------------------------------------
    #
    # Every per-cell quantity of a state is evaluated here and nowhere else:
    # the circulation, the flux density, |j|/jc and the power-law resistivity.

    def _circulation(self, w: np.ndarray) -> np.ndarray:
        """Net azimuthal current j_phi * area of every winding cell, half model [A]."""
        return self.winding_curl[0] @ w[: self.layout.n_field_dofs]

    def flux_density(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell-centre flux density (b_r, b_z) of every cell [T]."""
        x = self.layout.basis @ w[: self.layout.n_field_dofs]
        e = self.mesh.cell_edges
        h_r = (x[e[:, 0]] + x[e[:, 1]]) / (2.0 * self.mesh.dr)
        h_z = (x[e[:, 2]] + x[e[:, 3]]) / (2.0 * self.mesh.dz)
        return MU0 * h_r, MU0 * h_z

    def jc_effective(self, w: np.ndarray) -> np.ndarray:
        """Engineering critical current density per winding cell at the field of ``w``.

        Any state may be passed. ``run_transient`` evaluates it once per time
        step, at the step's previous converged state, and passes that lagged
        jc to every assembly and to the dissipation of the step, which keeps
        the Newton tangent the plain power-law tangent; ``j_over_jc`` passes
        the state itself.
        """
        if not isinstance(self.materials.jc_model, JcKim):
            return np.full(self.coil.size, self.materials.jc_engineering())
        b_r, b_z = self.flux_density(w)
        return self.materials.jc_engineering(b_r[self.coil], b_z[self.coil])

    def cell_currents(self, w: np.ndarray) -> np.ndarray:
        """Azimuthal current density per winding cell."""
        return self._circulation(w) / self.coil_area

    def j_over_jc(self, w: np.ndarray) -> np.ndarray:
        """|j|/jc(b) per winding cell, jc at the field of ``w`` itself."""
        return np.abs(self.cell_currents(w)) / self.jc_effective(w)

    def slice_currents(self, w: np.ndarray) -> np.ndarray:
        """Net current per slice of the voltage modes, scaled to the full device [A].

        Slices are turns for the detailed reference and radial mesh columns
        for the homogenized variants.
        """
        amps = self._circulation(w)
        return self.mesh.symmetry_factor * np.bincount(self.layout.cell_slice, weights=amps)

    def _resistive(self, w: np.ndarray, jc: np.ndarray):
        """Winding circulation, |j| and power-law resistivity at critical density ``jc``."""
        x = self._circulation(w)
        j = np.abs(x) / self.coil_area
        return x, j, power_law(j, jc, self.materials)

    # -- assembly ---------------------------------------------------------------

    def assemble(
        self, w: np.ndarray, w_prev: np.ndarray, jc: np.ndarray, dt: float, t: float,
        excitation: Excitation,
    ) -> AssembledSystem:
        """Residual at ``w`` of the step from ``w_prev``, with the step's lagged ``jc``."""
        layout = self.layout
        nf = layout.n_field_dofs
        if w.shape != (layout.n_dofs,) or w_prev.shape != w.shape:
            raise ValueError("state vector does not match the unknown layout")
        u, v = w[:nf], w[nf:]
        u_prev = w_prev[:nf]

        x, j, re = self._resistive(w, jc)
        d_res = re.rho * self.coil_dweight
        d_tan = (re.rho + 2.0 * j**2 * re.drho_dj2) * self.coil_dweight

        # at the lifted states the mass acts on the kept unknowns through S0,
        # and the rows of the eliminated ones vanish
        elim = self.elimination
        mass_term = np.zeros(nf)
        mass_term[elim.kept] = elim.schur @ ((u - u_prev)[elim.kept] / dt)
        res_term = self.winding_curl[1] @ (d_res * x)
        coup_term = self.coupling @ v
        r_u = mass_term + res_term + coup_term
        # the mass scale must not lose the u - u_prev cancellation: roundoff
        # in the difference is set by |u| itself, not by the increment
        mass_scale = self.abs_mass @ ((np.abs(u) + np.abs(u_prev)) / dt)
        scale_u = mass_scale + np.abs(res_term) + np.abs(coup_term)
        if self.air_matrix is not None:
            air_term = self.air_matrix @ u
            r_u += air_term
            scale_u += np.abs(air_term)

        target = 0.5 * impose_excitation(layout, excitation, t)
        gtu = elim.coupling_t @ u
        r_v = gtu - target
        scale_v = np.abs(gtu) + np.abs(target)

        return AssembledSystem(
            residual=np.concatenate([r_u, r_v]),
            row_scale=np.concatenate([scale_u, scale_v]),
            dt=dt,
            d_tan=d_tan,
            context=self,
        )

    def jacobian(self, dt: float, d_tan: np.ndarray) -> sp.csc_matrix:
        """Tangent of ``assemble``'s residual at step ``dt`` and tangent weights ``d_tan``.

        It is the elimination's matrix in the numbering of the unknowns, with
        empty rows and columns for the eliminated ones, on which the residual
        does not depend.
        """
        elim = self.elimination
        a = elim.matrix(dt, d_tan).tocoo()
        rows, cols = elim.numbering[a.row], elim.numbering[a.col]
        return sp.csc_matrix((a.data, (rows, cols)), shape=(self.layout.n_dofs,) * 2)

    @cached_property
    def elimination(self) -> "Elimination":
        """The elimination behind every residual and Newton solve, built on first use."""
        # E: no curl (cb stores no zeros, and abs(cb) would sort the shared
        # layout.curl_basis in place), and no basis entry on a winding edge
        free = np.ones(self.layout.n_field_dofs, dtype=bool)
        free[self.cb.indices] = False
        free[self.layout.basis[self.mesh.cell_edges[self.coil].ravel()].indices] = False
        eliminated = np.flatnonzero(free)
        # with nothing to eliminate, SuperLU's COLAMD defaults (see _ORDER)
        if not eliminated.size:
            return Elimination(self, eliminated, {}, {"permc_spec": "NATURAL"})
        return Elimination(self, eliminated, _ORDER, _IN_ORDER)

    def dissipation(self, w: np.ndarray, jc: np.ndarray) -> float:
        """Instantaneous resistive power of the half model at critical density ``jc`` [W]."""
        x, _, re = self._resistive(w, jc)
        return float(np.sum(re.rho * self.coil_dweight * x ** 2))

    def power_balance(self, w: np.ndarray, w_prev: np.ndarray, dt: float) -> dict[str, float]:
        """Energy bookkeeping tested with the solution itself.

        At a converged step, magnetic energy rate + dissipation + voltage
        coupling power sum to the solver tolerance (Galerkin identity with
        the solution as test function), with jc lagged at ``w_prev`` as in the
        step.
        """
        nf = self.layout.n_field_dofs
        u, v = w[:nf], w[nf:]
        u_prev = w_prev[:nf]
        d_dt = float(u @ (self.mass @ ((u - u_prev) / dt)))
        diss = self.dissipation(w, self.jc_effective(w_prev))
        if self.air_matrix is not None:
            diss += float(u @ (self.air_matrix @ u))
        coupling = float(u @ (self.coupling @ v))
        return {
            "magnetic_energy_rate": d_dt,
            "dissipation": diss,
            "coupling_power": coupling,
            "imbalance": d_dt + diss + coupling,
        }


class Elimination:
    """The Newton tangent with a set E of field unknowns eliminated.

    With K the other field unknowns, and E a set that neither the curl basis
    (so neither the resistive nor the air term) nor the coupling reaches, the
    E rows of the residual are M_E (u - u_prev) / dt. ``lift`` keeps them at
    zero, u_E = -M_ee^-1 M_ek u_K, so the residual at a lifted state depends
    on K and the voltages only, through the constant Schur complement
    S0 = M_kk - M_ke M_ee^-1 M_ek (``schur``), and its tangent is

        [[S0/dt + C_k^T D C_k + A_kk, G_k],
         [G_k^T,                      0  ]].

    The correction of S0 is dense, but only on the border, the kept unknowns
    that M_ke reaches; elsewhere S0 is M_kk. A Newton iteration refills one
    CSC matrix over a fixed pattern of the tangent in place, as
    (S0 * (1/dt) + T) + A, to be factored with ``factor_options`` (splu
    options). A holds the constant air and coupling terms. T = C_k^T D C_k is
    ``tangent @ d_tan``: ``tangent`` has a row per pattern entry and a column
    per winding cell. A fill with exact zeros, which a run meets only at the
    zero start state, is pruned on a copy. ``solve`` leaves E unchanged, and
    the solver lifts each accepted state with one M_ee solve.

    With ``order`` (splu options), the fill-reducing column order SuperLU
    computes for the pattern is taken once, and the kept and voltage unknowns
    are numbered in it: row and column i of the matrix is unknown
    ``unknowns[i]``, so a factorization in the natural order keeps it. The
    symmetric orders list each column's rows by their new labels. With
    ``order`` {}, SuperLU's default COLAMD order, each column keeps the rows
    in the order the own numbering stores them, and a fill with exact zeros
    is numbered in the order of its own pattern, computed for that fill:
    SuperLU's depth-first search and its updates follow the storage order,
    and it takes row perm_c^-1[j] as column j's diagonal, so a factorization
    with ``{"permc_spec": "NATURAL"}`` is then the one with SuperLU's
    defaults, bit for bit. ``numbering`` is the numbering of the last
    ``matrix``; ``solve`` and ``AssemblyContext.jacobian`` read it.

    E = {} (h-full): the border is empty, S0 is M itself, ``lift`` changes
    nothing, and the matrix is the full Jacobian. In the own numbering (no
    ``order``), and where the cb entries are +-1 (all variants but t-omega),
    it equals ``bmat([[mass/dt + cb^T diag(d) cb + air, G], [G^T, None]])``
    bit for bit, because SciPy divides by dt as a product with 1/dt, sums in
    this order and stores no exact zeros.
    """

    BLOCK = 32  # columns of M_ee^-1 M_ek held at a time while forming S0

    def __init__(
        self, ctx: AssemblyContext, eliminated: np.ndarray, order=None, factor_options=None
    ):
        layout = ctx.layout
        self.factor_options = factor_options or {}  # keyword arguments of splu
        nf = layout.n_field_dofs
        self.n_dofs = layout.n_dofs
        self.eliminated = eliminated
        self.kept = kept = np.setdiff1d(np.arange(nf), eliminated)
        if ctx.coupling[eliminated].count_nonzero():
            raise ValueError("the voltage coupling reaches eliminated unknowns")
        if ctx.cb[:, eliminated].count_nonzero():
            raise ValueError("the curl basis reaches eliminated unknowns")
        nk = kept.size
        m = self.size = nk + layout.n_voltage_dofs
        self.unknowns = np.concatenate([kept, np.arange(nf, self.n_dofs)])
        # G^T for the constraint rows, in the sum order of the CSC matvec of G.T
        self.coupling_t = ctx.coupling.T.tocsr()

        mass_k, mass_e = ctx.mass[kept], ctx.mass[eliminated]
        # M_ee is symmetric positive definite: a symmetric ordering without
        # pivoting is stable and fills in far less than the default
        self.solve_ee = splu(
            mass_e[:, eliminated].tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        ).solve
        m_ke = mass_k[:, eliminated].tocsr()
        self.m_ek = mass_e[:, kept].tocsr()
        border = np.union1d(m_ke.nonzero()[0], self.m_ek.nonzero()[1])
        m_be = m_ke[border]
        corr = np.empty((border.size, border.size))
        # in column blocks, so that the dense M_ee^-1 M_ek is never whole
        for c in range(0, border.size, self.BLOCK):
            cols = slice(c, c + self.BLOCK)
            corr[:, cols] = m_be @ self.solve_ee(self.m_ek[:, border[cols]].toarray())
        corr = sp.coo_matrix(corr)
        corr = sp.csr_matrix((corr.data, (border[corr.row], border[corr.col])), shape=(nk, nk))
        self.schur = (mass_k[:, kept] - corr).tocsr()
        s0 = self.schur.tocoo()

        air = sp.csr_matrix((nf, nf)) if ctx.air_matrix is None else ctx.air_matrix
        air = air[kept][:, kept].tocoo()
        g = ctx.coupling[kept].tocoo()
        ti, tj, cells, factors = _product_terms(ctx.winding_curl[0][:, kept])
        entries = [
            (s0.row, s0.col),
            (ti, tj),
            (air.row, air.col),
            (np.concatenate([g.row, nk + g.col]), np.concatenate([nk + g.col, g.row])),
        ]

        def fill(rank: np.ndarray) -> None:
            """The pattern and data, with unknown i in row and column rank[i]."""
            self.indices, self.indptr, (s_pos, t_pos, air_pos, g_pos) = _csc_pattern(
                m, *[(rank[i], rank[j]) for i, j in entries]
            )
            self.s0 = np.zeros(self.indices.size)
            self.s0[s_pos] = s0.data
            # term k adds factors[k] * d[cells[k]] to data[t_pos[k]]; the CSC
            # matvec sums each entry's terms from zero in ascending cell order
            self.tangent = sp.csc_matrix(
                (factors, (t_pos, cells)), shape=(self.indices.size, ctx.coil.size)
            )
            # the constant terms are added in full: a scatter-add costs 20x more
            self.const = np.zeros(self.indices.size)
            self.const[air_pos] = air.data
            self.const[g_pos] = np.concatenate([g.data, g.data])

        self.order, self.rank = order, None
        rank = np.arange(m)
        if order:
            # the order depends on the pattern alone: factor once with every
            # entry stored, at dt = 1 and a unit tangent, straight from the entries
            rows, cols = (np.concatenate(a) for a in zip(*entries))
            data = np.concatenate([s0.data, factors, air.data, g.data, g.data])
            rank = splu(sp.csc_matrix((data, (rows, cols)), shape=(m, m)), **order).perm_c
            self.unknowns = self.unknowns[np.argsort(rank)]
        fill(rank)  # each column lists its rows by their labels
        if order == {}:
            # SuperLU's default order, computed for the filled pattern: each
            # column keeps the storage order of its rows
            data = self.s0 + self.tangent @ np.ones(ctx.coil.size) + self.const
            rank = splu(sp.csc_matrix((data, self.indices, self.indptr), shape=(m, m))).perm_c
            self.unknowns = self.unknowns[np.argsort(rank)]
            self.indices, self.indptr, gather = _relabelled(self.indices, self.indptr, rank)
            self.s0, self.const = self.s0[gather], self.const[gather]
            self.tangent = self.tangent[gather]
            self.rank = rank.copy()  # perm_c is a view that keeps the whole factor alive
        self.numbering = self.unknowns
        # one matrix over the pattern, refilled by each ``matrix`` call: SciPy
        # checks it and splu's canonical-format scan is answered once, here
        self._matrix = sp.csc_matrix(
            (np.empty(self.indices.size), self.indices, self.indptr), shape=(m, m)
        )
        self._matrix.has_canonical_format = True

    def matrix(self, dt: float, d_tan: np.ndarray) -> sp.csc_matrix:
        """The tangent left after the elimination, at step ``dt`` and tangent weights ``d_tan``.

        The matrix is valid until the next call, which refills its data in
        place: factor it, or copy it, before then. Its row and column i is
        unknown ``numbering[i]``.
        """
        jac = self._matrix
        data = jac.data
        np.multiply(self.s0, 1.0 / dt, out=data)
        data += self.tangent @ d_tan
        data += self.const
        self.numbering = self.unknowns
        if not data.all():  # a check costs a quarter of the pruning pass it saves
            if self.order == {}:
                return self._in_own_order(data)
            # eliminate_zeros works in place, so it prunes a copy of the shared pattern
            jac = jac.copy()
            jac.eliminate_zeros()
        return jac

    def _in_own_order(self, data: np.ndarray) -> sp.csc_matrix:
        """The fill ``data`` without its exact zeros, numbered in the order of its own pattern.

        That order is the one SuperLU's defaults compute for the pruned matrix
        in the unknowns' own numbering. A run meets one such fill, at the zero
        start state, so the order is computed for each call.
        """
        stored = data != 0
        kept = np.flatnonzero(stored)
        indptr = np.concatenate([[0], np.cumsum(stored)])[self.indptr].astype(np.int32)
        # back in the own numbering, where row and column i is unknown unknowns[rank][i]
        indices, indptr, back = _relabelled(self.indices[kept], indptr, np.argsort(self.rank))
        own = sp.csc_matrix((data[kept[back]], indices, indptr), shape=self._matrix.shape)
        rank = splu(own, **self.order).perm_c.copy()
        indices, indptr, gather = _relabelled(indices, indptr, rank)
        self.numbering = self.unknowns[self.rank][np.argsort(rank)]
        jac = sp.csc_matrix((data[kept[back[gather]]], indices, indptr), shape=self._matrix.shape)
        jac.has_canonical_format = True
        return jac

    def solve(self, lu, b: np.ndarray) -> np.ndarray:
        """Update for right-hand side ``b``, zero on E; ``lu`` factors the last ``matrix``."""
        du = np.zeros(self.n_dofs)
        du[self.numbering] = lu.solve(b[self.numbering])
        return du

    def lift(self, w: np.ndarray) -> np.ndarray:
        """``w`` with its eliminated unknowns set to -M_ee^-1 M_ek u_K; ``w`` itself if E = {}."""
        if not self.eliminated.size:
            return w
        w = w.copy()
        w[self.eliminated] = -self.solve_ee(self.m_ek @ w[self.kept])
        return w
