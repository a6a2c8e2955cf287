"""Triangular meshes of the unit square with oriented edge topology.

Assembly of interior-penalty forms needs, for every edge, the two incident
triangles, a fixed unit normal, and the edge length; per triangle it needs
the area, the barycenter, the barycentric-coordinate gradients and the
orientation of its three edges relative to the stored normals.  All of that
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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

INTERIOR = "interior"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class Edge:
    """One mesh edge; a read-only view into the topology arrays."""

    vertices: tuple[int, int]
    t_plus: int
    t_minus: int
    normal: np.ndarray
    length: float
    kind: str


class MeshTopology:
    """Conforming triangulation with precomputed edge and geometry data.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise vertex triples
    """

    def __init__(self, vertices, triangles):
        # own copies: every array is made read-only below, and the caller's stay writable
        self.vertices = np.array(vertices, dtype=float)
        self.triangles = np.array(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (nv, 2)")
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
        # h_T = longest edge
        sides = np.stack(
            [
                np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
                np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
                np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
            ],
            axis=1,
        )
        self.h_tri = sides.max(axis=1)
        self.h_max = float(self.h_tri.max())
        # grad of barycentric coordinate k: perp(p_{k+2} - p_{k+1}) / (2 area)
        perp = lambda v: np.stack([-v[:, 1], v[:, 0]], axis=1)
        g0 = perp(p[:, 2] - p[:, 1])
        g1 = perp(p[:, 0] - p[:, 2])
        g2 = perp(p[:, 1] - p[:, 0])
        self.grad_lambda = np.stack([g0, g1, g2], axis=1) / (2.0 * self.areas)[:, None, None]

    def _build_edges(self):
        nt = len(self.triangles)
        tri = self.triangles
        # local edge k of a triangle joins vertices k and (k+1) % 3
        raw = np.stack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]], axis=1).reshape(-1, 2)
        keys = np.sort(raw, axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        ne = len(uniq)
        self.edge_vertices = uniq
        self.tri_to_edges = inverse.reshape(nt, 3)

        # incident triangles: plus = smaller index
        count = np.bincount(inverse, minlength=ne)
        if count.max(initial=0) > 2:
            raise ValueError(f"edge {int(np.argmax(count > 2))} shared by more than two triangles")
        # a stable sort keeps each edge's owners in ascending triangle order
        owner = np.repeat(np.arange(nt), 3)[np.argsort(inverse, kind="stable")]
        first = np.concatenate([[0], np.cumsum(count)[:-1]])
        tplus = owner[first]
        second = np.minimum(first + 1, len(owner) - 1)  # kept in range where an edge has one owner
        tminus = np.where(count == 2, owner[second], -1)
        self.edge_tplus = tplus
        self.edge_tminus = tminus
        self.is_boundary_edge = tminus < 0

        pa = self.vertices[uniq[:, 0]]
        pb = self.vertices[uniq[:, 1]]
        tang = pb - pa
        self.edge_length = np.linalg.norm(tang, axis=1)
        if np.any(self.edge_length <= 0.0):
            raise ValueError("degenerate edge of zero length")

        # unit normal pointing out of the plus triangle
        nrm = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / self.edge_length[:, None]
        to_bary = self.barycenters[tplus] - pa
        flip = np.sum(nrm * to_bary, axis=1) > 0.0
        nrm[flip] *= -1.0
        self.edge_normal = nrm

        # orientation sign: +1 where the stored normal is outward for the triangle
        sign = np.ones((nt, 3), dtype=np.int64)
        e_of = self.tri_to_edges
        sign[tminus[e_of] == np.arange(nt)[:, None]] = -1
        self.tri_edge_sign = sign

        # local position (0..2) of each edge endpoint inside either triangle
        def local_index(tris, verts):
            out = np.full(len(verts), -1, dtype=np.int64)
            ok = tris >= 0
            for k in range(3):
                hit = ok & (tri[tris.clip(min=0), k] == verts)
                out[hit] = k
            return out

        self.edge_local_plus = np.stack(
            [local_index(tplus, uniq[:, 0]), local_index(tplus, uniq[:, 1])], axis=1
        )
        self.edge_local_minus = np.stack(
            [local_index(tminus, uniq[:, 0]), local_index(tminus, uniq[:, 1])], axis=1
        )

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

    @cached_property
    def edges(self) -> list[Edge]:
        out = []
        for e in range(self.num_edges):
            out.append(
                Edge(
                    vertices=(int(self.edge_vertices[e, 0]), int(self.edge_vertices[e, 1])),
                    t_plus=int(self.edge_tplus[e]),
                    t_minus=int(self.edge_tminus[e]),
                    normal=self.edge_normal[e].copy(),
                    length=float(self.edge_length[e]),
                    kind=BOUNDARY if self.is_boundary_edge[e] else INTERIOR,
                )
            )
        return out

    def triangle_geometry(self, t: int):
        """(area, h_T, barycenter, [(edge id, outward normal), ...]) for one triangle."""
        normals = [
            (int(self.tri_to_edges[t, k]), self.tri_edge_sign[t, k] * self.edge_normal[self.tri_to_edges[t, k]])
            for k in range(3)
        ]
        return float(self.areas[t]), float(self.h_tri[t]), self.barycenters[t].copy(), normals

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in degrees."""
        p = self.vertices[self.triangles]
        angles = []
        for k in range(3):
            u = p[:, (k + 1) % 3] - p[:, k]
            v = p[:, (k + 2) % 3] - p[:, k]
            cosang = np.sum(u * v, axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return float(np.degrees(np.min(angles)))


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


def write_mesh_dump(mesh: MeshTopology, path) -> None:
    """Debugging dump: counts header, then vertex coordinates, then triples."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.num_vertices} {mesh.num_edges} {mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"{a} {b} {c}\n")
