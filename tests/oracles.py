"""Reference implementations the tests check the package against.

None of this runs in the solver or the experiments.  Each function is a
direct, mostly scalar construction of something the package computes in
batched form (energy and mass Gram matrices; the viscous and divergence
matrices, the boundary loads and the jump terms of the error norms from
the tables and edge traces of the 7-dof enriched basis; the reconstruction
from the enriched basis's own edge moments; the BDM1 mass matrix; the
elementwise P1 embedding, enriched and reconstructed fields evaluated
point by point, edge traces and jumps one edge at a time, canonical
interpolants),
a dense GMRES built from the Krylov space itself, the node order of a
factorization from a graph formed by sparse products, point location
testing every candidate at once, the field dump written in one piece, the
fixed saddle blocks stacked by sp.bmat, or a small utility only the tests
need (rates, reading the convergence CSV, the tracemalloc peak of a call).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular
from scipy.spatial import cKDTree

import egflow.assembly as asm
from egflow.analysis import EDGE_ERROR_DEGREE, ConvergenceRow
from egflow.cli import CSV_HEADER, barycentric_coords, sample_velocity
from egflow.mesh import MeshTopology
from egflow.quadrature import edge_rule, map_to_triangle, triangle_rule
from egflow.reconstruction import local_moment_blocks
from egflow.solver import KRYLOV_BUDGET, KRYLOV_RTOL

VOLUME_QUAD_DEGREE = 6


# -- dof layout, pointwise velocity and pressure ---------------------------


def n_velocity(mesh: MeshTopology) -> int:
    """Length of a velocity coefficient vector: two nodal dofs per vertex, one bubble per cell."""
    return 2 * mesh.num_vertices + mesh.num_triangles


def vertex_dof(v: int, comp: int) -> int:
    return 2 * v + comp


def bubble_dof(num_vertices: int, t: int) -> int:
    return 2 * num_vertices + t


def pressure_mean(mesh: MeshTopology, p: np.ndarray) -> float:
    """Area-weighted mean of the cell pressures p."""
    return float(np.dot(mesh.areas, p) / np.sum(mesh.areas))


@dataclass
class EGFunction:
    """Velocity field: nodal values (nv, 2) plus bubble coefficients (nt,), evaluated point by point.

    The package passes the same field as the flat vector to_vector().  The
    bubble of triangle t is bubble[t] * (x - x_T), with x_T the barycenter,
    so its Jacobian is bubble[t] * I and its divergence 2 bubble[t].
    """

    mesh: MeshTopology
    nodal: np.ndarray
    bubble: np.ndarray

    @classmethod
    def zero(cls, mesh: MeshTopology) -> "EGFunction":
        return cls(mesh, np.zeros((mesh.num_vertices, 2)), np.zeros(mesh.num_triangles))

    @classmethod
    def from_vector(cls, mesh: MeshTopology, vec: np.ndarray) -> "EGFunction":
        nv = mesh.num_vertices
        if vec.shape != (n_velocity(mesh),):
            raise ValueError(f"expected velocity vector of length {n_velocity(mesh)}")
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


# -- the 7-dof enriched basis and its edge traces --------------------------


class EnrichedTables:
    """Per-triangle data of the local enriched velocity basis.

    6 nodal dofs (vertex, component) plus the barycenter bubble.  Every basis
    function is affine per triangle, so it is fixed by its values at the
    triangle's vertices, vertex_values[t, a, k, i], and its Jacobian
    jac[t, a] is constant.
    """

    def __init__(self, mesh: MeshTopology):
        nt, nv = mesh.num_triangles, mesh.num_vertices
        nodal = (2 * mesh.triangles[:, :, None] + np.arange(2)).reshape(nt, 6)
        self.dofmap = np.concatenate([nodal, 2 * nv + np.arange(nt)[:, None]], axis=1)
        self.nl = 7
        self.n_dofs = 2 * nv + nt
        vals = np.zeros((nt, self.nl, 3, 2))
        jac = np.zeros((nt, self.nl, 2, 2))
        for a in range(3):
            for i in range(2):
                vals[:, 2 * a + i, a, i] = 1.0
                jac[:, 2 * a + i, i, :] = mesh.grad_lambda[:, a, :]
        vals[:, 6] = mesh.vertices[mesh.triangles] - mesh.barycenters[:, None, :]
        jac[:, 6] = np.eye(2)
        self.vertex_values = vals
        self.jac = jac


class EdgeBatch:
    """The interior or the boundary edges, with the enriched basis traces of each side.

    Sides are indexed by X (plus first; boundary batches have only the plus
    side).  A trace is affine in the edge parameter s, so it is stored by its
    endpoint values: ends[e, X, a, j, i] is component i of basis function a
    of side X's triangle at s = j.
    """

    def __init__(self, mesh: MeshTopology, space: EnrichedTables, eids: np.ndarray):
        self.eids = eids
        self.interior = not mesh.is_boundary_edge[eids[0]]
        self.normal = mesh.edge_normal[eids]
        self.h = mesh.edge_length[eids]
        if self.interior:
            self.tris = np.stack([mesh.edge_tplus[eids], mesh.edge_tminus[eids]], axis=1)
            self.local = np.stack([mesh.edge_local_plus[eids], mesh.edge_local_minus[eids]], axis=1)
        else:
            self.tris = mesh.edge_tplus[eids][:, None]
            self.local = mesh.edge_local_plus[eids][:, None]
        basis = np.arange(space.nl)[None, None, :, None]
        self.ends = space.vertex_values[self.tris[:, :, None, None], basis, self.local[:, :, None, :]]
        self.dofs = space.dofmap[self.tris].reshape(len(eids), -1)

    def field_ends(self, zv: np.ndarray) -> np.ndarray:
        """(nE, sides, 2, 2) endpoint traces of a field from each side, given its vertex_values."""
        return zv[self.tris[:, :, None], self.local]


def edge_batches(mesh: MeshTopology, space: EnrichedTables) -> list[EdgeBatch]:
    """The non-empty batches of interior and of boundary edges, in that order."""
    return [EdgeBatch(mesh, space, eids) for eids in (mesh.interior_edge_ids, mesh.boundary_edge_ids) if len(eids)]


# -- Gram matrices of the enriched space -----------------------------------


def _sides(batch):
    """(side_sign, jump_sign, width) of an edge batch: signs per side and per stacked local index (X, a)."""
    side_sign = np.array([1.0, -1.0][: batch.tris.shape[1]])
    nl = batch.ends.shape[2]
    return side_sign, np.repeat(side_sign, nl), len(side_sign) * nl


def edge_products(batch, g: np.ndarray) -> np.ndarray:
    """Local matrices sum_q w_q g[e, X, Y, q] phi^X_a(s_q) . phi^Y_b(s_q), (nE, width, width)."""
    width = _sides(batch)[2]
    loc = np.einsum("exaji,exyjk,eybki->exayb", batch.ends, asm._hat_moments(g), batch.ends, optimize=True)
    return loc.reshape(len(batch.eids), width, width)


def mean_traces(batch) -> np.ndarray:
    """(nE, width, 2) edge means of the basis traces, jump signs applied."""
    _, jump_sign, width = _sides(batch)
    return jump_sign[None, :, None] * 0.5 * batch.ends.sum(axis=3).reshape(len(batch.eids), width, 2)


def viscous_blocks(mesh: MeshTopology):
    """Local blocks of the SIPG pieces on the enriched space.

    Returns (dofs, volume stiffness) and, per edge batch, (dofs,
    gradient-jump coupling, jump penalty).
    """
    space = EnrichedTables(mesh)
    stiffness = (space.dofmap, np.einsum("t,taij,tbij->tab", mesh.areas, space.jac, space.jac))
    nq = len(edge_rule(asm.EDGE_DEGREE).points)
    edges = []
    for batch in edge_batches(mesh, space):
        side_sign, _, width = _sides(batch)
        avg_factor = 1.0 / len(side_sign)
        int_jump = batch.h[:, None, None] * mean_traces(batch)
        avg_grad_n = avg_factor * np.einsum("exbij,ej->exbi", space.jac[batch.tris], batch.normal)
        coupling = np.einsum("eai,ebi->eab", int_jump, avg_grad_n.reshape(len(batch.eids), width, 2))
        # int [u].[v] ds: unit weight, signed by the pair of sides
        sign = np.multiply.outer(side_sign, side_sign)
        penalty = edge_products(batch, np.broadcast_to(sign[:, :, None], (len(batch.eids),) + sign.shape + (nq,)))
        edges.append((batch.dofs, coupling, penalty))
    return stiffness, edges


def _coo_sum(blocks: list[tuple[np.ndarray, np.ndarray]], n: int) -> sp.csr_matrix:
    """n x n matrix summed from stacks of square local blocks (dofs, values) in one COO matrix."""
    rows = [np.broadcast_to(dofs[:, :, None], vals.shape).ravel() for dofs, vals in blocks]
    cols = [np.broadcast_to(dofs[:, None, :], vals.shape).ravel() for dofs, vals in blocks]
    vals = [vals.ravel() for _, vals in blocks]
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)).tocsr()


def assemble_energy_gram(mesh: MeshTopology, penalty: float) -> sp.csr_matrix:
    """Gram matrix of the jump-augmented broken H1 norm: |grad|^2 + penalty |h^-1/2 [.]|^2."""
    stiffness, edges = viscous_blocks(mesh)
    return _coo_sum([stiffness] + [(dofs, penalty * pen) for dofs, _, pen in edges], n_velocity(mesh))


def enriched_viscous(mesh: MeshTopology, params: asm.FormParams) -> sp.csr_matrix:
    """The viscous matrix from local blocks on the 7-dof enriched basis."""
    stiffness, edges = viscous_blocks(mesh)
    blocks = [(dofs, params.penalty * pen - cons - cons.transpose(0, 2, 1)) for dofs, cons, pen in edges]
    return _coo_sum([stiffness] + blocks, n_velocity(mesh))


def enriched_divergence(mesh: MeshTopology) -> sp.csr_matrix:
    """The divergence matrix from local rows on the 7-dof enriched basis."""
    space = EnrichedTables(mesh)
    nt = mesh.num_triangles
    rows = [np.broadcast_to(np.arange(nt)[:, None], space.dofmap.shape)]
    cols = [space.dofmap]
    vals = [mesh.areas[:, None] * (space.jac[:, :, 0, 0] + space.jac[:, :, 1, 1])]
    for batch in edge_batches(mesh, space):
        # -<[u].n, {q}>: every side's pressure row sees the whole jump, averaged
        avg_factor = 1.0 / batch.tris.shape[1]
        jn = -avg_factor * batch.h[:, None] * np.einsum("ebi,ei->eb", mean_traces(batch), batch.normal)
        for tri_rows in batch.tris.T:
            rows.append(np.broadcast_to(tri_rows[:, None], jn.shape))
            cols.append(batch.dofs)
            vals.append(jn)
    flat = lambda arrays: np.concatenate([a.ravel() for a in arrays])
    return sp.coo_matrix((flat(vals), (flat(rows), flat(cols))), shape=(nt, space.n_dofs)).tocsr()


def boundary_data(mesh: MeshTopology, g_nodal: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(nE_boundary, nq, 2) P1 interpolant of nodal boundary data at edge parameters s."""
    return asm.along_edges(g_nodal[mesh.edge_vertices[mesh.boundary_edge_ids]], s)


def enriched_convective_boundary_load(mesh: MeshTopology, z, g_nodal: np.ndarray, params: asm.FormParams) -> np.ndarray:
    """assembly.convective_boundary_load from the boundary traces of the 7-dof enriched basis."""
    vec = np.zeros(n_velocity(mesh))
    if params.pressure_robust or not g_nodal.any():
        return vec
    batch = EdgeBatch(mesh, EnrichedTables(mesh), mesh.boundary_edge_ids)
    srule = edge_rule(asm.EDGE_DEGREE)
    s, w = srule.points, srule.weights
    ztr = asm.along_edges(batch.field_ends(asm.vertex_values(mesh, z))[:, 0], s)
    w_in = np.maximum(-np.einsum("eqi,ei->eq", ztr, batch.normal), 0.0)
    gq = boundary_data(mesh, g_nodal, s)
    gn = np.einsum("eqi,ei->eq", gq, batch.normal)
    traces = asm.along_edges(batch.ends[:, 0], s)
    loc = batch.h[:, None] * np.einsum("q,eq,eqi,eaqi->ea", w, w_in - 0.5 * gn, gq, traces)
    np.add.at(vec, batch.dofs.ravel(), loc.ravel())
    return vec


def enriched_sipg_boundary_load(mesh: MeshTopology, g_nodal: np.ndarray, params: asm.FormParams) -> np.ndarray:
    """assembly.sipg_boundary_load from the boundary traces and Jacobians of the 7-dof enriched basis."""
    vec = np.zeros(n_velocity(mesh))
    if not np.any(g_nodal):
        return vec
    space = EnrichedTables(mesh)
    batch = EdgeBatch(mesh, space, mesh.boundary_edge_ids)
    srule = edge_rule(asm.EDGE_DEGREE)
    s, w = srule.points, srule.weights
    gq = boundary_data(mesh, g_nodal, s)
    pen = params.penalty * np.einsum("q,eqi,eaqi->ea", w, gq, asm.along_edges(batch.ends[:, 0], s))
    gradn = np.einsum("eaij,ej->eai", space.jac[batch.tris[:, 0]], batch.normal)
    g_int = batch.h[:, None] * np.einsum("q,eqi->ei", w, gq)
    cons = np.einsum("eai,ei->ea", gradn, g_int)
    np.add.at(vec, batch.dofs.ravel(), (pen - cons).ravel())
    return vec


def enriched_edge_error_terms(mesh: MeshTopology, u_vertex: np.ndarray, ex, penalty: float) -> float:
    """analysis._edge_error_terms from the enriched edge batches' field traces."""
    rule = edge_rule(EDGE_ERROR_DEGREE)
    s, w = rule.points, rule.weights
    total = 0.0
    for batch in edge_batches(mesh, EnrichedTables(mesh)):
        traces = asm.along_edges(batch.field_ends(u_vertex), s)  # (nE, sides, nq, 2)
        if batch.interior:
            jump = traces[:, 0] - traces[:, 1]  # exact field is continuous, its jump cancels
        else:
            jump = ex.u(asm.along_edges(mesh.vertices[mesh.edge_vertices[batch.eids]], s)) - traces[:, 0]
        total += float(np.einsum("q,eqi,eqi->", w, jump, jump))
    return penalty * total


def assemble_mass(mesh: MeshTopology) -> sp.csr_matrix:
    """L2 mass matrix of the enriched velocity space, E^T M E through the elementwise P1 basis."""
    E = local_p1_embedding(mesh)
    return (E.T @ bdm_mass_matrix(mesh) @ E).tocsr()


# -- reconstruction --------------------------------------------------------


@dataclass
class BDMFunction:
    """Elementwise linear vector field with H(div) continuity by construction."""

    mesh: MeshTopology
    coeffs: np.ndarray  # (nt, 3, 2) virtual vertex values

    @classmethod
    def from_vector(cls, mesh: MeshTopology, vec: np.ndarray) -> "BDMFunction":
        return cls(mesh, vec.reshape(mesh.num_triangles, 3, 2).copy())

    def to_vector(self) -> np.ndarray:
        return self.coeffs.reshape(-1)

    def value(self, t: int, x: np.ndarray) -> np.ndarray:
        lam = barycentric_coords(self.mesh, t, x)
        return np.einsum("...k,ki->...i", lam, self.coeffs[t])

    def jacobian(self, t: int) -> np.ndarray:
        return np.einsum("ki,kj->ij", self.coeffs[t], self.mesh.grad_lambda[t])

    def divergence(self, t: int) -> float:
        return float(np.trace(self.jacobian(t)))


def local_p1_embedding(mesh: MeshTopology) -> sp.csr_matrix:
    """Exact embedding of enriched velocities into the elementwise P1 basis.

    Every enriched velocity is affine per triangle, so it equals the local P1
    field through its values at the triangle's vertices:
    nodal[v_a] + bubble_t * (p_a - x_T).
    """
    nv2 = 2 * mesh.num_vertices
    nt = mesh.num_triangles
    rows, cols, vals = [], [], []
    for t in range(nt):
        for a in range(3):
            v = mesh.triangles[t, a]
            offset = mesh.vertices[v] - mesh.barycenters[t]
            for i in range(2):
                r = 6 * t + 2 * a + i
                rows += [r, r]
                cols += [2 * v + i, nv2 + t]
                vals += [1.0, offset[i]]
    shape = (6 * nt, n_velocity(mesh))
    E = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    E.eliminate_zeros()
    return E


def reconstruct(v: EGFunction) -> BDMFunction:
    return BDMFunction.from_vector(v.mesh, asm.discretization(v.mesh).reconstruction @ v.to_vector())


# int (1-s) s^j ds and int s s^j ds on [0, 1], j = 0, 1
_EDGE_MOMENT_A = (0.5, 1.0 / 6.0)
_EDGE_MOMENT_B = (0.5, 1.0 / 3.0)


def edge_moment_matrix(mesh: MeshTopology) -> sp.csr_matrix:
    """Moments int_e {v}.n_e s^j ds (j = 0, 1) as rows 2e + j from the enriched basis; boundary rows zero."""
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
            vals += [h * _EDGE_MOMENT_A[j] * n[:, i], h * _EDGE_MOMENT_B[j] * n[:, i]]
        # bubble of either side contributes half its trace (x(s) - x_T).n
        for t in (mesh.edge_tplus[ids], mesh.edge_tminus[ids]):
            c0 = np.sum((pa - mesh.barycenters[t]) * n, axis=1)
            # 0.5 * int (c0 + c1 s) s^j ds, scaled by h
            m = c0 + 0.5 * c1 if j == 0 else 0.5 * c0 + c1 / 3.0
            rows.append(r)
            cols.append(nv2 + t)
            vals.append(0.5 * h * m)
    shape = (2 * mesh.num_edges, n_velocity(mesh))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsr()


def enriched_reconstruction_matrix(mesh: MeshTopology) -> sp.csr_matrix:
    """R from the enriched basis's own edge moments: per-triangle L^-1 of the selected rows of edge_moment_matrix."""
    nt = mesh.num_triangles
    tgt = np.arange(6 * nt)
    src = (2 * mesh.tri_to_edges[:, :, None] + np.array([0, 1])[None, None, :]).reshape(-1)
    select = sp.coo_matrix((np.ones(6 * nt), (tgt, src)), shape=(6 * nt, 2 * mesh.num_edges)).tocsr()
    inv = np.linalg.inv(local_moment_blocks(mesh))
    rows = np.repeat(np.arange(6 * nt), 6)
    cols = (6 * np.repeat(np.arange(nt), 36) + np.tile(np.arange(6), 6 * nt)).reshape(-1)
    blockinv = sp.coo_matrix((inv.reshape(-1), (rows, cols)), shape=(6 * nt, 6 * nt)).tocsr()
    R = (blockinv @ select @ edge_moment_matrix(mesh)).tocsr()
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


def bdm_divergence_matrix(mesh: MeshTopology) -> sp.csr_matrix:
    """Rows t: int_T div(phi_{a,i}) for the elementwise P1 basis (divergence is constant)."""
    nt = mesh.num_triangles
    vals = (mesh.areas[:, None, None] * mesh.grad_lambda).reshape(-1)  # (nt, 3, 2) -> flat
    rows = np.repeat(np.arange(nt), 6)
    cols = np.arange(6 * nt)
    return sp.coo_matrix((vals, (rows, cols)), shape=(nt, 6 * nt)).tocsr()


# -- edge traces and interpolation -----------------------------------------


def edge_points(mesh: MeshTopology, e: int, s: np.ndarray) -> np.ndarray:
    """Points x(s) = (1-s) p_a + s p_b on edge e; endpoint order is ascending."""
    s = np.asarray(s, dtype=float)
    a, b = mesh.edge_vertices[e]
    return (1.0 - s)[..., None] * mesh.vertices[a] + s[..., None] * mesh.vertices[b]


def jump_average(v: EGFunction, e: int, s: np.ndarray):
    """Jump and average of the velocity trace at edge parameters s.

    Interior edges: jump = plus trace - minus trace, average = their mean.
    Boundary edges carry the one-sided trace in both slots.
    """
    mesh = v.mesh
    x = edge_points(mesh, e, s)
    plus = v.value(int(mesh.edge_tplus[e]), x)
    tminus = int(mesh.edge_tminus[e])
    if tminus < 0:
        return plus.copy(), plus.copy()
    minus = v.value(tminus, x)
    return plus - minus, 0.5 * (plus + minus)


def interpolate_velocity(mesh: MeshTopology, w, div_w) -> EGFunction:
    """Canonical interpolant onto the enriched space.

    Nodal part: vertex interpolation of w.  Bubble part: on each triangle the
    coefficient is chosen so the interpolant's divergence has the same cell
    mean as div w, i.e. 2 c_T area_T = int_T (div w - div w_C).
    """
    nodal = np.asarray(w(mesh.vertices), dtype=float)
    rule = triangle_rule(VOLUME_QUAD_DEGREE)
    pts = map_to_triangle(rule, mesh.vertices[mesh.triangles])
    div_vals = np.asarray(div_w(pts), dtype=float)
    int_div = 2.0 * mesh.areas * np.einsum("q,tq->t", rule.weights, div_vals)
    div_nodal = np.einsum("tki,tki->t", nodal[mesh.triangles], mesh.grad_lambda)
    bubble = (int_div - mesh.areas * div_nodal) / (2.0 * mesh.areas)
    return EGFunction(mesh, nodal, bubble)


def project_pressure(mesh: MeshTopology, q) -> np.ndarray:
    """Cellwise mean projection onto piecewise constants: one value per cell."""
    rule = triangle_rule(VOLUME_QUAD_DEGREE)
    pts = map_to_triangle(rule, mesh.vertices[mesh.triangles])
    vals = np.asarray(q(pts), dtype=float)
    return 2.0 * np.einsum("q,tq->t", rule.weights, vals)


def locate_points_all_candidates(mesh: MeshTopology, pts: np.ndarray):
    """cli.locate_points with the barycentric coordinates of all k = 12 candidates of every point at once."""
    pts = np.asarray(pts, dtype=float)
    k = min(12, mesh.num_triangles)
    _, cand = cKDTree(mesh.barycenters).query(pts, k=k)
    cand = cand.reshape(len(pts), k)
    lam = barycentric_coords(mesh, cand, pts[:, None, :])  # (npts, k, 3)
    inside = lam.min(axis=-1) >= -1e-10
    first = np.argmax(inside, axis=1)  # nearest containing candidate
    found = inside[np.arange(len(pts)), first]
    first = np.where(found, first, 0)  # nearest triangle as fallback
    tri = cand[np.arange(len(pts)), first]
    bary = lam[np.arange(len(pts)), first]
    if not found.all():
        bary = np.clip(bary, 0.0, None)
        bary /= bary.sum(axis=-1, keepdims=True)
    return tri, bary, int((~found).sum())


def field_dump_at_once(mesh: MeshTopology, u_h: np.ndarray, p_h: np.ndarray, grid, path) -> None:
    """cli.write_field_dump with every row formatted into one string and written in one call."""
    rows = np.column_stack([grid.points, sample_velocity(mesh, u_h, grid), p_h[grid.triangles]])
    header = f"# nx={grid.nx} ny={grid.ny} fallback_points={grid.fallback}\n# x y u1 u2 p\n"
    Path(path).write_text(header + ("%.12e %.12e %.12e %.12e %.12e\n" * len(rows)) % tuple(rows.ravel().tolist()))


# -- convergence tables ----------------------------------------------------


def read_convergence_csv(path) -> list[ConvergenceRow]:
    """Inverse of write_convergence_csv (EOC blanks become None)."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized convergence CSV header in {path}")
    rows = []
    for line in lines[1:]:
        c = line.split(",")
        opt = lambda s: None if s == "" else float(s)
        rows.append(
            ConvergenceRow(
                h=float(c[0]),
                energy_err=float(c[1]),
                energy_eoc=opt(c[2]),
                energy_r_err=float("nan"),
                l2_u_err=float(c[3]),
                l2_u_eoc=opt(c[4]),
                l2_p_err=float(c[5]),
                l2_p_eoc=opt(c[6]),
            )
        )
    return rows


def least_squares_rate(hs, errors) -> float:
    """Slope of log(error) against log(h) in the least-squares sense."""
    hs, errors = np.asarray(hs, dtype=float), np.asarray(errors, dtype=float)
    if len(hs) < 2:
        raise ValueError("need at least two levels for a rate")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


# -- the saddle system and memory ------------------------------------------


def saddle_blocks_by_bmat(mesh: MeshTopology, params: asm.FormParams) -> SimpleNamespace:
    """The matrices of assembly._SaddleBlocks built as sp.bmat of the scaled and sliced A and B.

    mu A is a scaled copy of A, both restrictions are taken from the full
    matrices, and sp.bmat stacks [mu A_ff, -B_kept^T; B_kept, 0] through COO
    copies of all four blocks.
    """
    dofs = np.flatnonzero(np.repeat(mesh.is_boundary_vertex, 2))
    A = params.viscosity * asm.assemble_viscous(mesh, params)
    B = asm.assemble_divergence(mesh)
    free = np.setdiff1d(np.arange(A.shape[0]), dofs)
    A_free, B_free = A[free], B[:, free]
    B_kept = B_free[1:]
    return SimpleNamespace(
        matrix=asm._finalize(sp.bmat([[A_free[:, free], -B_kept.T], [B_kept, None]], format="csr")),
        viscous_lift=A_free[:, dofs],
        divergence_lift=B[:, dofs],
        pinned_row=sp.hstack([B_free[0], sp.csr_matrix((1, B_kept.shape[0]))], format="csr"),
    )


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of the call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_held(fn, *args) -> int:
    """The tracemalloc memory, in bytes, still allocated after fn(*args) returns and its result is dropped."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


# -- linear solves ----------------------------------------------------------


def dense_gmres(system, x0: np.ndarray | None, factor) -> tuple[np.ndarray, bool, int, int]:
    """GMRES on the dense matrix from x0, right-preconditioned by factor: (x, converged, iterations, cycles).

    The method and stopping tests of solver._krylov, built directly rather
    than by its Arnoldi recurrence and Givens rotations.  Each cycle takes an
    orthonormal basis Q of the Krylov space of A M from its residual r0,
    one vector A M q at a time (classical Gram-Schmidt, twice), keeps the
    preconditioned vectors Z = [M q_0, ..., M q_{k-1}], projects A Z onto
    Q, H = Q^T A Z, and takes the least-squares iterate x + Z y with y
    minimizing |(|r0| e_1) - H y|.  That residual is |r0| / |u| for the
    left null vector u of H with u_0 = 1, which a triangular solve gives
    without cancellation.  Keeping Z is the flexible form, which does not
    assume M linear: a single-precision factor rounds what it solves for,
    so M (Q y) differs from Z y in the seventh digit.  A cycle stops once it is a
    tenth of KRYLOV_RTOL |b|; the call converges when the recomputed
    |b - A x| reaches KRYLOV_RTOL |b|, and restarts otherwise while the
    KRYLOV_BUDGET iterations last.
    """
    A = system.matrix.toarray()
    M = factor.solve
    b = system.rhs
    x = np.zeros_like(b) if x0 is None else x0.copy()
    tol = KRYLOV_RTOL * np.linalg.norm(b)
    r = b - A @ x
    iterations = cycles = 0
    while np.linalg.norm(r) > tol and iterations < KRYLOV_BUDGET:
        cycles += 1
        beta = np.linalg.norm(r)
        Q = (r / beta)[:, None]
        Z = AZ = np.empty((len(b), 0))
        for k in range(1, KRYLOV_BUDGET - iterations + 1):
            Z = np.column_stack([Z, M(Q[:, -1])])
            w = A @ Z[:, -1]
            AZ = np.column_stack([AZ, w])
            for _ in range(2):
                w = w - Q @ (Q.T @ w)
            Q = np.column_stack([Q, w / np.linalg.norm(w)])
            H = Q.T @ AZ
            iterations += 1
            u = solve_triangular(H[1:], -H[0], trans="T")
            if beta / np.sqrt(1.0 + u @ u) <= 0.1 * tol:
                break
        y = np.linalg.lstsq(H, beta * np.eye(k + 1)[0], rcond=None)[0]
        x = x + Z @ y
        r = b - A @ x
    return x, np.linalg.norm(r) <= tol, iterations, cycles


def node_order_by_products(system) -> np.ndarray:
    """solver._node_order with the node graph member^T (|A| + |A|^T) member formed by float64 products.

    member is the unknown-to-node incidence; two nodes are joined when an
    entry of A or A^T couples their unknowns.  SuperLU's multiple minimum
    degree orders the graph, and the unknowns of each node follow in their
    own order.
    """
    n = system.matrix.shape[0]
    used, node = np.unique(system.blocks.nodes, return_inverse=True)
    member = sp.csr_matrix((np.ones(n), (np.arange(n), node)), shape=(n, len(used)))
    pattern = abs(system.matrix)
    graph = (member.T @ (pattern + pattern.T) @ member).tocsc()
    graph.data[:] = 1.0
    graph += len(used) * sp.eye(len(used), format="csc")
    rank = spla.spilu(
        graph,
        permc_spec="MMD_AT_PLUS_A",
        drop_tol=1e300,
        fill_factor=1,
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    ).perm_c
    return np.lexsort((np.arange(n), rank[node]))
