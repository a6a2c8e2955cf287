"""Enriched Galerkin flow solver for stationary incompressible Navier-Stokes.

Velocity space: continuous vector P1 enriched with one discontinuous linear
bubble per triangle; pressure space: piecewise constants with zero mean.
The viscous term is discretized with a symmetric interior penalty form, the
convective term with an upwind form, and an optional divergence-conforming
velocity reconstruction makes the scheme pressure-robust.
"""

__version__ = "0.1.0"

from .mesh import MeshTopology, build_unit_square_mesh, refine_uniform
from .quadrature import QuadRule, triangle_rule, edge_rule

__all__ = [
    "MeshTopology",
    "build_unit_square_mesh",
    "refine_uniform",
    "QuadRule",
    "triangle_rule",
    "edge_rule",
    "__version__",
]
