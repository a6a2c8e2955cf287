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
E of enriched velocities into that basis (assembly._embedding_matrix, the
only code that knows the bubbles).  The operator is built once per mesh as a
sparse matrix on the flat velocity vector, R = L^-1 S D S^T L E, a
composition of three local pieces after E:

    L          each triangle's 6x6 edge moments of its own P1 traces
    S D S^T    gather each edge's two sides (S^T), take their mean on
               interior edges and zero on boundary edges (D), scatter back (S)
    L^-1       each triangle's inverse, from moments back to vertex values.

Everything here treats an edge with its global parameterization: endpoints
in ascending vertex order, s in [0, 1], shared by both incident triangles,
and the stored edge normal (out of the plus triangle).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import MeshTopology

# moments of the endpoint traces against s^j on [0, 1]:
# int (1-s) ds, int (1-s) s ds, int s ds, int s^2 ds
_M_A = (0.5, 1.0 / 6.0)
_M_B = (0.5, 1.0 / 3.0)


def local_moment_blocks(mesh: MeshTopology) -> np.ndarray:
    """Per-triangle 6x6 matrix of basis edge moments; rows (2k + j), cols (2a + i)."""
    nt = mesh.num_triangles
    cells = np.arange(nt)[:, None]
    L = np.zeros((nt, 6, 6))
    for k in range(3):
        e = mesh.tri_to_edges[:, k]
        n = mesh.edge_normal[e]  # (nt, 2)
        h = mesh.edge_length[e]
        side_plus = (mesh.edge_tplus[e] == cells[:, 0])[:, None]
        ends = np.where(side_plus, mesh.edge_local_plus[e], mesh.edge_local_minus[e])  # local vertices at s = 0, 1
        for j in range(2):
            for end, moment in ((ends[:, :1], _M_A[j]), (ends[:, 1:], _M_B[j])):
                L[cells, 2 * k + j, 2 * end + np.arange(2)] = (h * moment)[:, None] * n
    return L


def _block_diagonal(blocks: np.ndarray) -> sp.csr_matrix:
    """The sparse block-diagonal matrix of a stack of (nt, m, m) blocks."""
    nt, m, _ = blocks.shape
    cols = np.broadcast_to(np.arange(nt * m).reshape(nt, 1, m), blocks.shape)
    return sp.csr_matrix((blocks.ravel(), cols.ravel(), np.arange(0, blocks.size + 1, m)), shape=(nt * m, nt * m))


def reconstruction_matrix(mesh: MeshTopology, E: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sparse operator R from flat velocity vectors to BDM coefficient vectors, given the embedding E.

    Returns R and the (nt, 6, 6) block inverse L^-1 it was built with, which
    also turns edge moments of an exact field into its reconstruction.
    """
    nt = mesh.num_triangles
    L = local_moment_blocks(mesh)
    # S: triangle t's moment slot 2k + j reads row 2e + j of its k-th edge e
    src = (2 * mesh.tri_to_edges[:, :, None] + np.arange(2)).ravel()
    select = sp.csr_matrix((np.ones(6 * nt), src, np.arange(6 * nt + 1)), shape=(6 * nt, 2 * mesh.num_edges))
    # D: the mean of both sides on interior edges, zero on boundary edges
    average = select @ sp.diags(np.repeat(np.where(mesh.is_boundary_edge, 0.0, 0.5), 2)) @ select.T
    # SciPy's sparse products drop exact cancellations but leave columns unsorted
    L_inv = np.linalg.inv(L)
    R = _block_diagonal(L_inv) @ (average @ (_block_diagonal(L) @ E))
    R.sort_indices()
    return R, L_inv
