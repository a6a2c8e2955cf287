"""Discrete velocity and pressure spaces.

Velocity: continuous vector P1 on the vertices plus one discontinuous
"bubble" per triangle of the form c * (x - x_T), where x_T is the triangle
barycenter.  The bubble has constant Jacobian c * I and divergence 2c, so
every velocity function is affine on each triangle.  Pressure: piecewise
constants, used with the zero-mean constraint.

Degree-of-freedom layout (one flat velocity vector):
    vertex v, component i  ->  2 v + i
    bubble of triangle t   ->  2 nv + t
Pressure unknowns are indexed by triangle and live in their own block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshTopology

@dataclass(frozen=True)
class DofLayout:
    """Index bookkeeping between mesh entities and flat coefficient vectors."""

    num_vertices: int
    num_triangles: int

    @property
    def n_velocity(self) -> int:
        return 2 * self.num_vertices + self.num_triangles

    @property
    def n_pressure(self) -> int:
        return self.num_triangles


def layout_for(mesh: MeshTopology) -> DofLayout:
    return DofLayout(num_vertices=mesh.num_vertices, num_triangles=mesh.num_triangles)


def barycentric_coords(mesh: MeshTopology, t, x: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of points x (..., 2) relative to triangles t.

    t is one triangle index or an index array; its shape broadcasts against
    x.shape[:-1], so x[:, None, :] pairs each point with a row of triangles.
    """
    x = np.asarray(x, dtype=float)
    p = mesh.vertices[mesh.triangles[t]]  # t.shape + (3, 2)
    det = 2.0 * mesh.areas[t]
    vx = x[..., 0] - p[..., 0, 0]
    vy = x[..., 1] - p[..., 0, 1]
    lam1 = (vx * (p[..., 2, 1] - p[..., 0, 1]) - vy * (p[..., 2, 0] - p[..., 0, 0])) / det
    lam2 = ((p[..., 1, 0] - p[..., 0, 0]) * vy - (p[..., 1, 1] - p[..., 0, 1]) * vx) / det
    return np.stack([1.0 - lam1 - lam2, lam1, lam2], axis=-1)


@dataclass
class EGFunction:
    """Velocity field: nodal values (nv, 2) plus bubble coefficients (nt,)."""

    mesh: MeshTopology
    nodal: np.ndarray
    bubble: np.ndarray

    @classmethod
    def zero(cls, mesh: MeshTopology) -> "EGFunction":
        return cls(mesh, np.zeros((mesh.num_vertices, 2)), np.zeros(mesh.num_triangles))

    @classmethod
    def from_vector(cls, mesh: MeshTopology, vec: np.ndarray) -> "EGFunction":
        nv = mesh.num_vertices
        layout = layout_for(mesh)
        if vec.shape != (layout.n_velocity,):
            raise ValueError(f"expected velocity vector of length {layout.n_velocity}")
        return cls(mesh, vec[: 2 * nv].reshape(nv, 2).copy(), vec[2 * nv :].copy())

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.nodal.ravel(), self.bubble])

    def value(self, t: int, x: np.ndarray) -> np.ndarray:
        """Velocity at physical points x (shape (..., 2)) inside triangle t."""
        x = np.asarray(x, dtype=float)
        lam = barycentric_coords(self.mesh, t, x)
        nodal_part = np.einsum("...k,ki->...i", lam, self.nodal[self.mesh.triangles[t]])
        return nodal_part + self.bubble[t] * (x - self.mesh.barycenters[t])

    def jacobian(self, t: int) -> np.ndarray:
        """Constant velocity Jacobian J[i, j] = d v_i / d x_j on triangle t."""
        g = self.mesh.grad_lambda[t]  # (3, 2)
        J = np.einsum("ki,kj->ij", self.nodal[self.mesh.triangles[t]], g)
        return J + self.bubble[t] * np.eye(2)

    def divergence(self, t: int) -> float:
        return float(np.trace(self.jacobian(t)))


@dataclass
class PressureFunction:
    """Piecewise constant pressure, one value per triangle."""

    mesh: MeshTopology
    values: np.ndarray
