"""2D axisymmetric magnetoquasistatics for HTS foil windings.

The package solves the eddy-current problem for a pancake (foil) winding in
the (r, z) half-plane with the magnetic field in-plane and the current purely
azimuthal. Four formulation variants share one assembly core:

* a detailed reference with per-turn current constraints,
* three homogenized variants (two magnetic-field based, one current-potential
  based) where the winding carries a polynomial voltage distribution and the
  total current is imposed through weak constraint rows.
"""

from .variants import FormulationVariant
from .mesh import CoilGeometry, Mesh, mesh_structured
from .materials import MaterialParams
from .solver import SolverConfig, SolutionTrace, run_transient
from .config import RunConfig, PRESETS

__all__ = [
    "FormulationVariant",
    "CoilGeometry",
    "Mesh",
    "mesh_structured",
    "MaterialParams",
    "SolverConfig",
    "SolutionTrace",
    "run_transient",
    "RunConfig",
    "PRESETS",
]

__version__ = "0.1.0"
