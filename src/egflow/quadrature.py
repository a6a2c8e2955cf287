"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules come from the conical product of a Gauss-Jacobi rule (which
absorbs the (1-x) Jacobian of the Duffy map) with a Gauss-Legendre rule, so
every rule has strictly positive weights and is exact for all polynomials up
to its declared total degree.  Rules are cached per degree; points are stored
in barycentric coordinates so that mapping to a physical triangle is a plain
matrix product with its vertex coordinates.

Edge rules are Gauss-Legendre on [0, 1] in the edge parameter s, exact to the
declared degree in s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np
from scipy.special import roots_jacobi

MAX_TRIANGLE_DEGREE = 6
MAX_EDGE_DEGREE = 7


@dataclass(frozen=True)
class QuadRule:
    """Points and positive weights; weights sum to the reference measure."""

    points: np.ndarray  # triangle: (nq, 3) barycentric; edge: (nq,) parameter
    weights: np.ndarray


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadRule:
    """Rule on the reference triangle {x, y >= 0, x + y <= 1}, weights sum 1/2."""
    if not 1 <= degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    m = ceil((degree + 1) / 2)
    tj, wj = roots_jacobi(m, 1.0, 0.0)  # weight (1 - t) on [-1, 1]
    tl, wl = np.polynomial.legendre.leggauss(m)
    x = (tj + 1.0) / 2.0
    eta = (tl + 1.0) / 2.0
    # int_T f = int_0^1 int_0^1 f(x, (1-x) eta) (1-x) deta dx
    wx = wj / 4.0
    we = wl / 2.0
    X, E = np.meshgrid(x, eta, indexing="ij")
    Y = (1.0 - X) * E
    W = np.outer(wx, we)
    pts = np.stack([1.0 - X - Y, X, Y], axis=-1).reshape(-1, 3)
    return QuadRule(points=pts, weights=W.ravel())


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> QuadRule:
    """Gauss rule on [0, 1] in the edge parameter, weights sum 1."""
    if not 1 <= degree <= MAX_EDGE_DEGREE:
        raise ValueError(f"unsupported edge quadrature degree {degree}")
    m = ceil((degree + 1) / 2)
    t, w = np.polynomial.legendre.leggauss(m)
    return QuadRule(points=(t + 1.0) / 2.0, weights=w / 2.0)


def map_to_triangle(rule: QuadRule, vertex_coords: np.ndarray) -> np.ndarray:
    """Physical quadrature points for triangles given as (..., 3, 2) vertex arrays."""
    return np.einsum("qk,...ki->...qi", rule.points, vertex_coords)
