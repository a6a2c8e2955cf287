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
(t, vertex a, component i) -> 6 t + 2 a + i.  The operator itself is built
once per mesh as a sparse matrix acting on the flat velocity vector; it is
a composition of three local pieces:

    edge moments of {v}.n_e            (2 ne x n_velocity, zero boundary rows)
    gather each triangle's six moments (6 nt x 2 ne selection)
    per-triangle 6x6 moment-matrix inverse applied blockwise.

Everything here treats an edge with its global parameterization: endpoints
in ascending vertex order, s in [0, 1], shared by both incident triangles,
and the stored edge normal (out of the plus triangle).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import MeshTopology
from .spaces import layout_for

# moments of the endpoint traces against s^j on [0, 1]:
# int (1-s) ds, int (1-s) s ds, int s ds, int s^2 ds
_M_A = (0.5, 1.0 / 6.0)
_M_B = (0.5, 1.0 / 3.0)


def edge_moment_matrix(mesh: MeshTopology) -> sp.csr_matrix:
    """Moments int_e {v}.n_e s^j ds (j = 0, 1) as rows 2e + j; boundary rows zero."""
    layout = layout_for(mesh)
    nv2 = 2 * mesh.num_vertices
    ids = mesh.interior_edge_ids
    a, b = mesh.edge_vertices[ids, 0], mesh.edge_vertices[ids, 1]
    n = mesh.edge_normal[ids]
    h = mesh.edge_length[ids]
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    c1 = np.sum((pb - pa) * n, axis=1)
    rows, cols, vals = [], [], []
    for j in range(2):
        r = 2 * ids + j
        for i in range(2):
            rows += [r, r]
            cols += [2 * a + i, 2 * b + i]
            vals += [h * _M_A[j] * n[:, i], h * _M_B[j] * n[:, i]]
        # bubble of either side contributes half its trace (x(s) - x_T).n
        for t in (mesh.edge_tplus[ids], mesh.edge_tminus[ids]):
            c0 = np.sum((pa - mesh.barycenters[t]) * n, axis=1)
            # 0.5 * int (c0 + c1 s) s^j ds, scaled by h
            m = c0 + 0.5 * c1 if j == 0 else 0.5 * c0 + c1 / 3.0
            rows.append(r)
            cols.append(nv2 + t)
            vals.append(0.5 * h * m)
    shape = (2 * mesh.num_edges, layout.n_velocity)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsr()


def local_moment_blocks(mesh: MeshTopology) -> np.ndarray:
    """Per-triangle 6x6 matrix of basis edge moments; rows (2k + j), cols (2a + i)."""
    nt = mesh.num_triangles
    L = np.zeros((nt, 6, 6))
    for k in range(3):
        e = mesh.tri_to_edges[:, k]
        n = mesh.edge_normal[e]  # (nt, 2)
        h = mesh.edge_length[e]
        side_plus = mesh.edge_tplus[e] == np.arange(nt)
        la = np.where(side_plus, mesh.edge_local_plus[e, 0], mesh.edge_local_minus[e, 0])
        lb = np.where(side_plus, mesh.edge_local_plus[e, 1], mesh.edge_local_minus[e, 1])
        for j in range(2):
            row = 2 * k + j
            for i in range(2):
                L[np.arange(nt), row, 2 * la + i] += h * _M_A[j] * n[:, i]
                L[np.arange(nt), row, 2 * lb + i] += h * _M_B[j] * n[:, i]
    return L


def reconstruction_matrix(mesh: MeshTopology) -> sp.csr_matrix:
    """Sparse operator from flat velocity vectors to BDM coefficient vectors."""
    nt = mesh.num_triangles
    gamma = edge_moment_matrix(mesh)

    # selection of each triangle's edge-moment rows, in local edge order
    tgt = np.arange(6 * nt)
    src = (2 * mesh.tri_to_edges[:, :, None] + np.array([0, 1])[None, None, :]).reshape(-1)
    select = sp.coo_matrix((np.ones(6 * nt), (tgt, src)), shape=(6 * nt, 2 * mesh.num_edges)).tocsr()

    inv = np.linalg.inv(local_moment_blocks(mesh))  # (nt, 6, 6)
    rows = np.repeat(np.arange(6 * nt), 6)
    cols = (6 * np.repeat(np.arange(nt), 36) + np.tile(np.arange(6), 6 * nt)).reshape(-1)
    blockinv = sp.coo_matrix((inv.reshape(-1), (rows, cols)), shape=(6 * nt, 6 * nt)).tocsr()

    R = (blockinv @ select @ gamma).tocsr()
    R.sum_duplicates()
    R.eliminate_zeros()
    return R


def bdm_mass_matrix(mesh: MeshTopology) -> sp.csr_matrix:
    """Block-diagonal L2 mass matrix in the elementwise P1 basis (exact)."""
    nt = mesh.num_triangles
    scalar = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    block = np.kron(scalar, np.eye(2))  # ordering (2a + i)
    blocks = mesh.areas[:, None, None] * block[None, :, :]
    rows = np.repeat(np.arange(6 * nt), 6)
    cols = (6 * np.repeat(np.arange(nt), 36) + np.tile(np.arange(6), 6 * nt)).reshape(-1)
    return sp.coo_matrix((blocks.reshape(-1), (rows, cols)), shape=(6 * nt, 6 * nt)).tocsr()
