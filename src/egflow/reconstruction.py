"""Divergence-conforming velocity reconstruction into lowest-order BDM.

The reconstruction R maps an enriched velocity v to the unique elementwise
linear vector field whose edge normal moments against {1, s} match those of
the average {v}.n_e on interior edges and vanish on boundary edges.  Because
a linear normal trace is determined by those two moments, the reconstructed
field has a continuous normal component across every interior edge and zero
normal flux through the boundary, i.e. it is H(div)-conforming with zero
normal boundary trace.

Representation: on each triangle the reconstruction is stored by its three
"virtual vertex values" in the local P1 basis, flattened as
(t, vertex a, component i) -> 6 t + 2 a + i, the rows of the exact embedding
E of enriched velocities into that basis (assembly._embedding_matrix).

Closed form, per triangle vertex.  Both {v}.n_e and the reconstructed
normal trace are linear along an edge, so matching their two moments is
matching their values at the two endpoints.  At local vertex a of triangle
t meet local edges a and (a + 2) mod 3 (edge k joins local vertices k and
k + 1); let N be the 2x2 matrix whose rows are their normals n_0, n_1.  The
reconstruction's value there is

    (R v)_{t,a} = N^-1 (g_0, g_1),   g_s = {v}(x_a) . n_s on an interior
                                     edge, 0 on a boundary edge,
    {v}(x_a)   = c_a + 1/2 sum_X b_X (x_a - x_X)

over the edge's two sides X, with c_a the nodal value at the vertex and b_X
the bubble of side X, centred at its barycenter x_X.  So a row of R reads
at most four dofs: its vertex's nodal value through P = sum over interior s
of N^-1[:, s] n_s^T (the identity when both edges are interior, the
projection I - N^-1[:, s] n_s^T when edge s is on the boundary, zero when
both are), the bubble of t through P/2 (x_a - x_t), and the bubble of the
neighbour across each interior edge s through N^-1[:, s] (x_a - x_X).n_s / 2.
R stores those entries and no others: an entry that is zero, such as a
normal component the geometry cancels, is not stored.

field_from_edge_moments uses the same frames: it turns each edge's two
moments into the trace's endpoint values and applies N^-1 at every vertex.

Everything here treats an edge with its global parameterization: endpoints
in ascending vertex order, s in [0, 1], shared by both incident triangles,
and the stored edge normal (out of the plus triangle).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import MeshTopology

# local edges meeting at local vertex a: edge a (a to a + 1) and edge a + 2 (a + 2 to a)
_VERTEX_EDGES = np.array([[0, 2], [1, 0], [2, 1]])


def _vertex_frames(mesh: MeshTopology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per triangle vertex (t, a): its two edges (nt, 3, 2), their normals n[t, a, s] and the columns inv[t, a, s] of N^-1."""
    edges = mesh.tri_to_edges[:, _VERTEX_EDGES]
    n = mesh.edge_normal[edges]  # (nt, 3, s, i)
    (n0x, n0y), (n1x, n1y) = np.moveaxis(n, (-2, -1), (0, 1))
    det = n0x * n1y - n0y * n1x
    inv = np.stack([np.stack([n1y, -n1x], axis=-1), np.stack([-n0y, n0x], axis=-1)], axis=-2) / det[..., None, None]
    return edges, n, inv


def _vertex_rows(mesh: MeshTopology) -> tuple[np.ndarray, np.ndarray]:
    """R's row (t, a, i) as five slots: values (nt, 3, 2, 5) and columns (nt, 3, 1, 5).

    The slots are the vertex's two nodal components, the bubble of t and
    the bubbles across the vertex's two edges; a boundary edge's slot
    points at t's own bubble and holds 0.
    """
    nt, nv = mesh.num_triangles, mesh.num_vertices
    edges, n, inv = _vertex_frames(mesh)
    boundary = mesh.is_boundary_edge[edges]
    cells = np.arange(nt)[:, None, None]
    neighbour = np.where(boundary, cells, mesh.edge_tplus[edges] + mesh.edge_tminus[edges] - cells)
    cols = np.empty((nt, 3, 1, 5), dtype=np.int32)
    cols[:, :, 0, :2] = 2 * mesh.triangles[:, :, None] + np.arange(2)
    cols[:, :, 0, 2] = 2 * nv + cells[:, :, 0]
    cols[:, :, 0, 3:] = 2 * nv + neighbour
    vals = np.empty((nt, 3, 2, 5))
    # the nodal part P; the identity stays exact where both edges are interior
    P = vals[..., :2]
    P[...] = np.eye(2) - np.einsum("tasi,tasj->taij", inv * boundary[..., None], n)
    P[boundary.all(axis=-1)] = 0.0  # off the axes, I - N^-1 N leaves rounding residue
    corner = mesh.vertices[mesh.triangles]  # x_a, (nt, 3, 2)
    vals[..., 2] = 0.5 * np.einsum("taij,taj->tai", P, corner - mesh.barycenters[:, None])
    reach = np.einsum("tasi,tasi->tas", corner[:, :, None] - mesh.barycenters[neighbour], n)
    vals[..., 3:] = np.einsum("tas,tasi->tais", np.where(boundary, 0.0, 0.5 * reach), inv)
    return vals, cols


def reconstruction_matrix(mesh: MeshTopology) -> sp.csr_matrix:
    """Sparse operator R from flat velocity vectors to BDM coefficient vectors, at most four entries a row."""
    nt = mesh.num_triangles
    vals, cols = _vertex_rows(mesh)
    keep = vals != 0.0
    indptr = np.zeros(6 * nt + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=-1).ravel(), out=indptr[1:])
    R = sp.csr_matrix(
        (vals[keep], np.broadcast_to(cols, vals.shape)[keep], indptr), shape=(6 * nt, 2 * mesh.num_vertices + nt)
    )
    R.sort_indices()  # a row's bubble columns are stored own first, then by edge
    return R


def field_from_edge_moments(mesh: MeshTopology, moments: np.ndarray) -> np.ndarray:
    """The flat (6 nt,) P1 coefficients whose edge moments against {1, s} are moments, shape (ne, 2).

    A linear trace g with moments (m0, m1) on an edge of length h has the
    endpoint values g(0) = (4 m0 - 6 m1) / h and g(1) = (6 m1 - 2 m0) / h;
    each vertex applies N^-1 to its two edges' values there.
    """
    edges, _, inv = _vertex_frames(mesh)
    m0, m1 = np.moveaxis(moments[edges], -1, 0)
    at_end = mesh.edge_vertices[edges, 1] == mesh.triangles[:, :, None]  # vertex a sits at s = 1
    g = np.where(at_end, 6.0 * m1 - 2.0 * m0, 4.0 * m0 - 6.0 * m1) / mesh.edge_length[edges]
    return np.einsum("tasi,tas->tai", inv, g).reshape(-1)
