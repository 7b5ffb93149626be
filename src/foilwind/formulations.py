"""Residual and Jacobian assembly for all formulation variants.

One symmetric saddle structure serves every variant. With ``u`` the field
unknowns and ``V`` the voltage unknowns,

    R_u = M (u - u_prev) / dt + (CB)^T d(u) (CB u) + G V
    R_V = G^T u - target(t)

where CB maps field unknowns to cell currents, d holds the cellwise
resistive weights, and G couples voltages to currents:

* detailed reference: G columns are unit vectors on the per-turn cut
  unknowns (a turn's net current equals its cut circulation exactly), so
  each constraint row pins one turn current strongly and its multiplier is
  the turn voltage.
* homogenized variants: G = (CB)^T Phi with Phi the per-cell means of the
  voltage distribution polynomials; row 0 pins the total winding current
  (for the h-phi variant it reduces to a single entry on the coil cut, i.e.
  the strong cut constraint), rows 1..p shape the current distribution.

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
them into a fixed CSC pattern to be factored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .materials import MaterialParams, JcKim, jc_eval, power_law
from .mesh import MU0, Mesh
from .spaces import DofLayout, VoltageBasis
from .variants import FormulationVariant


@dataclass(frozen=True)
class Excitation:
    """Sinusoidal per-turn transport current amplitude*sin(2*pi*f*t)."""

    amplitude: float
    frequency: float

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    @property
    def period(self) -> float:
        return 1.0 / self.frequency

    def current(self, t: float) -> float:
        return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t)


class LinearSolve(NamedTuple):
    """How the Newton tangent of one variant is factored."""

    order: dict  # splu options of the ordering computed once per elimination
    factor_options: dict  # splu options of every Newton factorization


_SYMMETRIC = {"options": {"SymmetricMode": True}}
# splu options of the order computed once per elimination, and of each
# factorization in that order
_ORDER = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, **_SYMMETRIC}
_IN_ORDER = {"permc_spec": "NATURAL", "relax": 1, "diag_pivot_thresh": 1e-3, **_SYMMETRIC}

# Every variant eliminates the exterior air (``AssemblyContext.elimination``);
# the potential inside the winding and on its rim stays. Eliminating it too
# put every kept t-omega unknown on the border of S0 (158 unknowns, 95 %
# dense at n_alpha 5, denser as n_alpha grows) and would couple ref's turns.
# fcm-h-full has curl on every edge (its air carries rho_air), so it
# eliminates nothing. It keeps SuperLU's defaults (COLAMD, threshold 1.0,
# relax 10): the symmetric ordering changed its step count and raised its
# loss by 0.36 %, and relax 1-8 saved only 2-4 % of a 10 ms factorization but
# moved its roundoff, which its step sequence follows. Only the COLAMD order
# is taken out of the loop: it is computed once per pattern (``order`` {}) and
# each factorization keeps it (NATURAL), which repeats the factorization with
# the defaults bit for bit (see ``Elimination``): on the 182 tangents of the
# fcm-hfull benchmark workload, 6.95 -> 5.22 ms (median), all bit-equal.
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
NEWTON_LINEAR_SOLVE = {
    FormulationVariant.FCM_H_PHI: LinearSolve(_ORDER, _IN_ORDER),
    FormulationVariant.FCM_T_OMEGA: LinearSolve(_ORDER, _IN_ORDER),
    FormulationVariant.FCM_H_FULL: LinearSolve({}, {"permc_spec": "NATURAL"}),
    FormulationVariant.REF_H_PHI: LinearSolve(_ORDER, _IN_ORDER),
}


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
    """Full-device constraint targets at time ``t``.

    Reference variant: the net current of every turn (one entry per turn).
    Homogenized variants: total winding ampere-turns in the first entry,
    zeros for the distribution-shaping rows.
    """
    i_t = excitation.current(t)
    if layout.variant is FormulationVariant.REF_H_PHI:
        return np.full(layout.n_voltage_dofs, i_t)
    n_turns = layout.mesh.geom.n_turns
    tgt = np.zeros(layout.n_voltage_dofs)
    tgt[0] = n_turns * i_t
    return tgt


def spurious_air_term(mesh: Mesh, layout: DofLayout, rho_air: float = 1e-3) -> sp.csr_matrix:
    """Air-region resistive matrix for the all-edge variant.

    The all-edge space cannot represent an exactly curl-free air region, so
    a finite air resistivity keeps stray currents negligible; the scalar
    potential variants reject this term because their air is curl-free by
    construction.
    """
    if layout.variant is not FormulationVariant.FCM_H_FULL:
        raise ValueError("air resistivity applies to the all-edge variant only")
    cb = layout.curl_basis
    d = np.where(mesh.coil_mask, 0.0, rho_air * 2.0 * np.pi * mesh.rbar / mesh.area)
    return (cb.T @ sp.diags(d) @ cb).tocsr()


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


class _TangentFill:
    """Data of C^T diag(d) C over a fixed CSC pattern, from ``_product_terms``.

    Term k adds factors[k] * d[cells[k]] at data position pos[k]; each entry
    sums its terms from zero in ascending cell order.
    """

    def __init__(self, pos, cells, factors, nnz: int):
        order = np.lexsort((cells, pos))
        self.pos, self.cells, self.factors = pos[order], cells[order], factors[order]
        self.nnz = nnz

    def __call__(self, d: np.ndarray) -> np.ndarray:
        return np.bincount(self.pos, weights=self.factors * d[self.cells], minlength=self.nnz)

    def moved(self, gather: np.ndarray) -> "_TangentFill":
        """The same fill over a data array whose entry p is this one's entry gather[p]."""
        where = np.empty(gather.size, dtype=np.int32)
        where[gather] = np.arange(gather.size)
        return _TangentFill(where[self.pos], self.cells, self.factors, self.nnz)


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
        self.mass: sp.csr_matrix = (layout.basis.T @ mesh.mass_matrix(MU0) @ layout.basis).tocsr()
        self.abs_mass: sp.csr_matrix = abs(self.mass)
        self.coil = mesh.coil_cells
        self.coil_area = mesh.area[self.coil]
        # resistive diagonal weight rho -> rho * volume / area^2, half model
        self.coil_dweight = 2.0 * np.pi * mesh.rbar[self.coil] / self.coil_area

        if layout.variant is FormulationVariant.FCM_H_FULL:
            self.air_matrix = spurious_air_term(mesh, layout, materials.rho_spurious_air)
        else:
            self.air_matrix = None

        self.coupling = self._build_coupling()
        self._jc_lag: tuple[np.ndarray, np.ndarray] | None = None  # (w_prev, jc)

    # -- coupling ------------------------------------------------------------

    def _build_coupling(self) -> sp.csr_matrix:
        layout = self.layout
        mesh = self.mesh
        if layout.variant is FormulationVariant.REF_H_PHI:
            cut_block = layout.blocks["cut"]
            rows = np.arange(cut_block.start, cut_block.stop)
            cols = np.arange(layout.n_voltage_dofs)
            return sp.csr_matrix(
                (np.ones(rows.size), (rows, cols)),
                shape=(layout.n_field_dofs, layout.n_voltage_dofs),
            )
        vb: VoltageBasis = layout.voltage_basis
        spans = mesh.alpha_spans
        means = vb.cell_means(spans[:, 0], spans[:, 1])  # (n_alpha, p+1)
        phi_cells = np.zeros((mesh.n_cells, vb.n_funcs))
        phi_cells[self.coil] = means[mesh.alpha_index[self.coil]]
        return (self.cb.T.tocsr() @ sp.csr_matrix(phi_cells)).tocsr()

    # -- cell quantities ---------------------------------------------------------
    #
    # Every per-cell quantity of a state is evaluated here and nowhere else:
    # the circulation, the flux density, and the power-law resistivity.

    @cached_property
    def winding_curl(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """The rows of ``cb`` of the winding cells, and their transpose, both CSR.

        Each row keeps its order, and the transpose lists the winding cells in
        ascending order, so the resistive sums are those over all cells less
        the exact zeros of the cells without resistance. Built on first use.
        """
        cb = self.cb[self.coil]
        return cb, cb.T.tocsr()

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

        Any state may be passed. The solver passes the previous converged
        state (a lagged jc), which keeps the Newton tangent the plain
        power-law tangent; the reported |j|/jc figures pass the state itself.
        """
        model = self.materials.jc_model
        if not isinstance(model, JcKim):
            return np.full(self.coil.size, self.materials.jc_engineering())
        b_r, b_z = self.flux_density(w)
        jc = jc_eval(model, b_r[self.coil], b_z[self.coil])
        return self.materials.lambda_fill * jc

    def cell_currents(self, w: np.ndarray) -> np.ndarray:
        """Azimuthal current density per winding cell."""
        return self._circulation(w) / self.coil_area

    def slice_currents(self, w: np.ndarray) -> np.ndarray:
        """Net current per slice, scaled to the full device [A].

        Slices are turns for the detailed reference and radial mesh columns
        for the homogenized variants.
        """
        mesh = self.mesh
        amps = self._circulation(w)
        if self.layout.variant is FormulationVariant.REF_H_PHI:
            key = mesh.region[self.coil]
        else:
            key = mesh.alpha_index[self.coil]
        return mesh.symmetry_factor * np.bincount(key, weights=amps)

    def _lagged_jc(self, w_prev: np.ndarray) -> np.ndarray:
        """``jc_effective(w_prev)``, evaluated once per previous state.

        All assemblies and the dissipation of a time step share its w_prev, so
        a field-dependent jc is kept for the last w_prev seen.
        """
        if not isinstance(self.materials.jc_model, JcKim):
            return self.jc_effective(w_prev)
        if self._jc_lag is None or not np.array_equal(self._jc_lag[0], w_prev):
            self._jc_lag = (w_prev.copy(), self.jc_effective(w_prev))
        return self._jc_lag[1]

    def _resistive(self, w: np.ndarray, w_prev: np.ndarray):
        """Winding circulation, |j| and power-law resistivity at the lagged jc."""
        x = self._circulation(w)
        j = np.abs(x) / self.coil_area
        return x, j, power_law(j, self._lagged_jc(w_prev), self.materials)

    # -- assembly ---------------------------------------------------------------

    def assemble(
        self, w: np.ndarray, w_prev: np.ndarray, dt: float, t: float, excitation: Excitation
    ) -> AssembledSystem:
        layout = self.layout
        nf = layout.n_field_dofs
        if w.shape != (layout.n_dofs,) or w_prev.shape != w.shape:
            raise ValueError("state vector does not match the unknown layout")
        u, v = w[:nf], w[nf:]
        u_prev = w_prev[:nf]

        x, j, re = self._resistive(w, w_prev)
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
        return Elimination(self, np.flatnonzero(free), *NEWTON_LINEAR_SOLVE[self.layout.variant])

    def dissipation(self, w: np.ndarray, w_prev: np.ndarray) -> float:
        """Instantaneous resistive power of the half model [W]."""
        x, _, re = self._resistive(w, w_prev)
        return float(np.sum(re.rho * self.coil_dweight * x ** 2))

    def power_balance(self, w: np.ndarray, w_prev: np.ndarray, dt: float) -> dict[str, float]:
        """Energy bookkeeping tested with the solution itself.

        At a converged step, magnetic energy rate + dissipation + voltage
        coupling power sum to the solver tolerance (Galerkin identity with
        the solution as test function).
        """
        nf = self.layout.n_field_dofs
        u, v = w[:nf], w[nf:]
        u_prev = w_prev[:nf]
        d_dt = float(u @ (self.mass @ ((u - u_prev) / dt)))
        diss = self.dissipation(w, w_prev)
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
    (S0 * (1/dt) + T) + A, T the tangent and A the constant air and border
    terms, to be factored with ``factor_options`` (splu options); a fill
    with exact zeros is pruned on a copy. ``solve`` leaves E unchanged, and
    the solver lifts each accepted state with one M_ee solve.

    With ``order`` (splu options), the fill-reducing column order SuperLU
    computes for the pattern is taken once, and the kept and voltage unknowns
    are numbered in it: row and column i of the matrix is unknown
    ``unknowns[i]``, so a factorization in the natural order keeps it. The
    symmetric orders list each column's rows by their new labels. With
    ``order`` {}, SuperLU's default COLAMD order, each column keeps the rows
    in the order the own numbering stores them, and a fill with exact zeros
    is numbered in the order of its own pattern, computed once per pattern:
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
            self.tangent = _TangentFill(t_pos, cells, factors, self.indices.size)
            # the constant terms are added in full: a scatter-add costs 20x more
            self.const = np.zeros(self.indices.size)
            self.const[air_pos] = air.data
            self.const[g_pos] = np.concatenate([g.data, g.data])

        fill(np.arange(m))
        self.order, self.rank = order, None
        self._orders = {}  # the orders of pruned fills, by their stored entries
        if order is not None:
            # the order depends on the pattern alone: factor once with every
            # entry stored, at dt = 1 and a unit tangent
            data = self.s0 + self.tangent(np.ones(ctx.coil.size)) + self.const
            rank = splu(
                sp.csc_matrix((data, self.indices, self.indptr), shape=(m, m)), **order
            ).perm_c
            self.unknowns = self.unknowns[np.argsort(rank)]
            if order:
                fill(rank)  # each column lists its rows by their new labels
            else:
                # SuperLU's default order: each column keeps the storage
                # order of its rows
                self.indices, self.indptr, gather = _relabelled(self.indices, self.indptr, rank)
                self.s0, self.const = self.s0[gather], self.const[gather]
                self.tangent = self.tangent.moved(gather)
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
        data += self.tangent(d_tan)
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
        in the unknowns' own numbering; it is computed once per pattern.
        """
        stored = data != 0
        kept = np.flatnonzero(stored)
        indptr = np.concatenate([[0], np.cumsum(stored)])[self.indptr].astype(np.int32)
        # back in the own numbering, where row and column i is unknown unknowns[rank][i]
        indices, indptr, back = _relabelled(self.indices[kept], indptr, np.argsort(self.rank))
        key = np.packbits(stored).tobytes()
        if key not in self._orders:
            own = sp.csc_matrix((data[kept[back]], indices, indptr), shape=self._matrix.shape)
            self._orders[key] = splu(own, **self.order).perm_c.copy()
        rank = self._orders[key]
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
