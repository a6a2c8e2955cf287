"""Triangular meshes of the unit square with oriented edge topology.

Assembly of interior-penalty forms needs, for every edge, the two incident
triangles, a fixed unit normal, and the edge length; per triangle it needs
the area, the barycenter and the barycentric-coordinate gradients.  All of that
is computed once in the constructor and kept in flat numpy arrays so the
assembly loops can gather instead of recomputing geometry.  The arrays are
read-only: assembly caches what it derives from them on the mesh object.

Conventions fixed here and relied on everywhere else:
  * triangle vertices are counterclockwise,
  * an edge stores its vertex pair in ascending global index order, which
    also fixes the parameterization x(s) = (1-s)*p_a + s*p_b used for edge
    quadrature and reconstruction moments on both sides of the edge,
  * of the (at most two) incident triangles, the one with the smaller index
    is the "plus" side and the edge normal points from plus to minus; on
    boundary edges the normal is the outward one.
"""

from __future__ import annotations

import numpy as np


class MeshTopology:
    """Conforming triangulation with precomputed edge and geometry data.

    The edge incidence comes from the slot table that forms the edges (slot
    ``3t + k`` is local edge ``k`` of triangle ``t``): sorted by edge, the
    slots give each edge's triangles and its endpoints' local positions in
    them.  ``h_max`` is the longest edge.

    Parameters
    ----------
    vertices : (nv, 2) float array, finite coordinates
    triangles : (nt, 3) integer array, counterclockwise vertex triples
    """

    def __init__(self, vertices, triangles):
        # own copies: every array is made read-only below, and the caller's stay writable
        self.vertices = np.array(vertices, dtype=float)
        triangles = np.asarray(triangles)
        if not np.issubdtype(triangles.dtype, np.integer):
            raise ValueError(f"triangle vertex indices must be integers, not {triangles.dtype}")
        self.triangles = triangles.astype(np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (nv, 2)")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertex coordinates must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (nt, 3)")
        if self.triangles.min(initial=0) < 0 or self.triangles.max(initial=-1) >= len(self.vertices):
            raise ValueError("triangle vertex index out of range")
        self._build_geometry()
        self._build_edges()
        # assembly caches what it derives from these on the mesh
        # (assembly.discretization), so they must not change afterwards
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    # -- construction ---------------------------------------------------

    def _build_geometry(self):
        p = self.vertices[self.triangles]  # (nt, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 0.0):
            bad = int(np.argmax(det <= 0.0))
            raise ValueError(f"triangle {bad} is not counterclockwise (signed area {det[bad] / 2:g})")
        self.areas = 0.5 * det
        self.barycenters = p.mean(axis=1)
        # grad of barycentric coordinate k: perp(p_{k+2} - p_{k+1}) / (2 area)
        perp = lambda v: np.stack([-v[:, 1], v[:, 0]], axis=1)
        g0 = perp(p[:, 2] - p[:, 1])
        g1 = perp(p[:, 0] - p[:, 2])
        g2 = perp(p[:, 1] - p[:, 0])
        self.grad_lambda = np.stack([g0, g1, g2], axis=1) / (2.0 * self.areas)[:, None, None]

    def _build_edges(self):
        nt = len(self.triangles)
        tri = self.triangles
        # slot 3t + k is local edge k of triangle t, from local vertex k to (k+1) % 3
        raw = np.stack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]], axis=1).reshape(-1, 2)
        # local positions of each slot's endpoints, in ascending global order
        local = np.tile([[0, 1], [1, 2], [2, 0]], (nt, 1))
        local = np.where((raw[:, 0] > raw[:, 1])[:, None], local[:, ::-1], local)
        uniq, inverse = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        self.edge_vertices = uniq
        self.tri_to_edges = inverse.reshape(nt, 3)

        # incident triangles: plus = smaller index
        count = np.bincount(inverse, minlength=len(uniq))
        if count.max(initial=0) > 2:
            raise ValueError(f"edge {int(np.argmax(count > 2))} shared by more than two triangles")
        # a stable sort keeps each edge's slots in ascending triangle order
        slots = np.argsort(inverse, kind="stable")
        first = np.concatenate([[0], np.cumsum(count)[:-1]])
        plus = slots[first]
        minus = slots[np.minimum(first + 1, len(slots) - 1)]  # kept in range where an edge has one slot
        two = count == 2
        self.edge_tplus = plus // 3
        self.edge_tminus = np.where(two, minus // 3, -1)
        self.is_boundary_edge = ~two
        self.edge_local_plus = local[plus]
        self.edge_local_minus = np.where(two[:, None], local[minus], -1)

        pa = self.vertices[uniq[:, 0]]
        pb = self.vertices[uniq[:, 1]]
        tang = pb - pa
        self.edge_length = np.linalg.norm(tang, axis=1)
        if np.any(self.edge_length <= 0.0):
            raise ValueError("degenerate edge of zero length")
        self.h_max = float(self.edge_length.max())

        # unit normal pointing out of the plus triangle
        nrm = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / self.edge_length[:, None]
        to_bary = self.barycenters[self.edge_tplus] - pa
        flip = np.sum(nrm * to_bary, axis=1) > 0.0
        nrm[flip] *= -1.0
        self.edge_normal = nrm

        self.interior_edge_ids = np.flatnonzero(~self.is_boundary_edge)
        self.boundary_edge_ids = np.flatnonzero(self.is_boundary_edge)
        bmask = np.zeros(len(self.vertices), dtype=bool)
        bmask[uniq[self.is_boundary_edge].ravel()] = True
        self.is_boundary_vertex = bmask

    # -- accessors -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edge_vertices)


def build_unit_square_mesh(n: int) -> MeshTopology:
    """Structured right-triangle mesh of [0,1]^2 with n x n cells.

    Each cell is split along the diagonal from its lower-left to its
    upper-right corner, so the characteristic mesh size is the leg length
    1/n (the longest edge is sqrt(2)/n, available as h_max).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.stack([gx.ravel(), gy.ravel()], axis=1)

    # cells row by row (j slowest), two triangles per cell
    j, i = np.divmod(np.arange(n * n), n)
    ll = j * (n + 1) + i
    lr, ul = ll + 1, ll + n + 1
    ur = ul + 1
    triangles = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(-1, 3)
    return MeshTopology(vertices, triangles)


def refine_uniform(mesh: MeshTopology) -> MeshTopology:
    """Split every triangle into four congruent children via edge midpoints.

    Midpoint vertices are appended after the parent vertices, one per parent
    edge; children of boundary edges are again boundary edges.
    """
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.edge_vertices[:, 0]] + mesh.vertices[mesh.edge_vertices[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    tri = mesh.triangles
    m = nv + mesh.tri_to_edges  # (nt, 3): midpoint of local edge k
    children = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    children[0::4] = np.stack([tri[:, 0], m[:, 0], m[:, 2]], axis=1)
    children[1::4] = np.stack([tri[:, 1], m[:, 1], m[:, 0]], axis=1)
    children[2::4] = np.stack([tri[:, 2], m[:, 2], m[:, 1]], axis=1)
    children[3::4] = m
    return MeshTopology(vertices, children)
