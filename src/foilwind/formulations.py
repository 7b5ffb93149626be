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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


@dataclass
class AssembledSystem:
    residual: np.ndarray
    jacobian: sp.csc_matrix
    # per-row sum of absolute term magnitudes; dominates |residual| entrywise
    # and provides the natural normalization for the solver's stopping test
    row_scale: np.ndarray


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
        self.cbt: sp.csr_matrix = self.cb.T.tocsr()
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
        return (self.cbt @ sp.csr_matrix(phi_cells)).tocsr()

    # -- cell quantities ---------------------------------------------------------
    #
    # Every per-cell quantity of a state is evaluated here and nowhere else:
    # the circulation, the flux density, and the power-law resistivity.

    def _circulation(self, w: np.ndarray) -> np.ndarray:
        """Net azimuthal current j_phi * area of every cell, half model [A]."""
        return self.cb @ w[: self.layout.n_field_dofs]

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
        return self._circulation(w)[self.coil] / self.coil_area

    def slice_currents(self, w: np.ndarray) -> np.ndarray:
        """Net current per slice, scaled to the full device [A].

        Slices are turns for the detailed reference and radial mesh columns
        for the homogenized variants.
        """
        mesh = self.mesh
        amps = self._circulation(w)[self.coil]
        if self.layout.variant is FormulationVariant.REF_H_PHI:
            key = mesh.region[self.coil]
        else:
            key = mesh.alpha_index[self.coil]
        return mesh.symmetry_factor * np.bincount(key, weights=amps)

    def _resistive(self, w: np.ndarray, w_prev: np.ndarray):
        """Cell circulation, winding |j| and power-law resistivity at the lagged jc."""
        x = self._circulation(w)
        j = np.abs(x[self.coil]) / self.coil_area
        return x, j, power_law(j, self.jc_effective(w_prev), self.materials)

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
        d_res = np.zeros(self.mesh.n_cells)
        d_res[self.coil] = re.rho * self.coil_dweight
        d_tan = np.zeros(self.mesh.n_cells)
        d_tan[self.coil] = (re.rho + 2.0 * j**2 * re.drho_dj2) * self.coil_dweight

        mass_term = self.mass @ ((u - u_prev) / dt)
        res_term = self.cbt @ (d_res * x)
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
        gtu = self.coupling.T @ u
        r_v = gtu - target
        scale_v = np.abs(gtu) + np.abs(target)

        a = self.mass / dt + self.cbt @ sp.diags(d_tan) @ self.cb
        if self.air_matrix is not None:
            a = a + self.air_matrix
        jac = sp.bmat(
            [[a, self.coupling], [self.coupling.T, None]], format="csc"
        )

        return AssembledSystem(
            residual=np.concatenate([r_u, r_v]),
            jacobian=jac,
            row_scale=np.concatenate([scale_u, scale_v]),
        )

    def dissipation(self, w: np.ndarray, w_prev: np.ndarray) -> float:
        """Instantaneous resistive power of the half model [W]."""
        x, _, re = self._resistive(w, w_prev)
        return float(np.sum(re.rho * self.coil_dweight * x[self.coil] ** 2))

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
