"""Constitutive models: power-law superconductor resistivity and friends.

All functions are pure and vectorized over numpy arrays. Resistivities are
in Ohm*m, current densities in A/m^2, fields in T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Union

import numpy as np


@dataclass(frozen=True)
class JcConstant:
    j_c0: float

    def __post_init__(self) -> None:
        if not 0 < self.j_c0 < inf:
            raise ValueError("j_c0 must be positive and finite")


@dataclass(frozen=True)
class JcKim:
    """Field-dependent critical current density jc0 * b0 / (b0 + |b|).

    Stand-in for measured-fit models; exposed behind the same interface so a
    tabulated fit can replace it without touching the assembly.
    """

    j_c0: float
    b_0: float

    def __post_init__(self) -> None:
        if not (0 < self.j_c0 < inf and 0 < self.b_0 < inf):
            raise ValueError("j_c0 and b_0 must be positive and finite")


JcModel = Union[JcConstant, JcKim]


def jc_eval(model: JcModel, b_parallel=0.0, b_perp=0.0):
    """Critical current density at the given local flux-density components."""
    if isinstance(model, JcConstant):
        b = np.asarray(b_parallel) + np.asarray(b_perp)
        return np.broadcast_to(model.j_c0, b.shape) if b.shape else model.j_c0
    b = np.sqrt(np.asarray(b_parallel) ** 2 + np.asarray(b_perp) ** 2)
    return model.j_c0 * model.b_0 / (model.b_0 + b)


@dataclass(frozen=True)
class MaterialParams:
    e_c: float = 1e-4
    n_exponent: float = 25.0
    lambda_fill: float = 0.01
    rho_spurious_air: float = 1e-3
    jc_model: JcModel = field(default_factory=lambda: JcConstant(1e10))

    def __post_init__(self) -> None:
        if not 0 < self.e_c < inf:
            raise ValueError("e_c must be positive and finite")
        if not 1 <= self.n_exponent < inf:
            raise ValueError("n_exponent must be finite and >= 1")
        if not 0 < self.lambda_fill <= 1:
            raise ValueError("lambda_fill must be in (0, 1]")
        if not 0 < self.rho_spurious_air < inf:
            raise ValueError("rho_spurious_air must be positive and finite")

    def jc_engineering(self, b_parallel=0.0, b_perp=0.0):
        """Critical current density averaged over the full conductor cross-section."""
        return self.lambda_fill * jc_eval(self.jc_model, b_parallel, b_perp)


@dataclass(frozen=True)
class ResistivityEval:
    """Resistivity and its derivative with respect to ||j||^2.

    ``drho_dj2`` feeds the consistent Newton tangent
    d(rho j)/dj = rho + 2 j^2 drho_dj2.
    """

    rho: np.ndarray
    drho_dj2: np.ndarray


def power_law(j_norm, jc_eff, params: MaterialParams) -> ResistivityEval:
    """rho = (e_c / jc_eff) * (||j|| / jc_eff)**(n - 1) with consistent derivative.

    The derivative carries a floor of 1e-6*jc_eff on ||j|| so the tangent is
    finite at j = 0; the residual itself is exact everywhere.
    """
    j = np.asarray(j_norm, dtype=float)
    jc = np.asarray(jc_eff, dtype=float)
    if np.any(jc <= 0):
        raise ValueError("jc_eff must be positive")
    n = params.n_exponent
    rho = (params.e_c / jc) * (j / jc) ** (n - 1.0)
    floor = 1e-6 * jc
    drho = rho * (n - 1.0) / (2.0 * np.maximum(j, floor) ** 2)
    return ResistivityEval(rho=rho, drho_dj2=drho)

