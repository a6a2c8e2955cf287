"""Sparse assembly of the discrete Navier-Stokes saddle system.

Forms (u trial velocity, v test velocity, q test pressure, z transport field):

  viscous     a(u, v)   = (grad u, grad v)_T
                        - <{grad u} n_e, [v]> - <{grad v} n_e, [u]>
                        + penalty <h_e^-1 [u], [v]>        over all edges
  divergence  b(u, q)   = (div u, q)_T - <[u].n_e, {q}>    over all edges
  convection  c(z; u, v) = (z.grad u, v)_T + 1/2 ((div z) u, v)_T
                        - 1/2 <[z].n_e, {u.v}>
                        + sum_T int_{inflow(z)} |{z}.n_T| (u_int - u_ext).v_int

with the one-sided conventions [w] = {w} = w on boundary edges.  The inflow
part of a triangle boundary is where {z}.n_T < 0, decided pointwise at the
edge quadrature points; on boundary edges the exterior trace of the trial
function is the prescribed boundary value, which contributes a right-hand
side term (see convective_boundary_load).

Dirichlet data enters twice: the nodal boundary dofs are eliminated from
the system with their values lifted into the right-hand side, and each
form's boundary-edge terms keep the reduced system consistent by moving
their data parts to the right-hand side
(sipg_boundary_load, divergence_boundary_load, convective_boundary_load).
All three loads vanish for homogeneous data.

A discrete velocity is one flat coefficient vector of length 2 nv + nt:
the continuous P1 part, dof 2 v + i for component i at vertex v, then one
bubble c (x - x_T) per cell, dof 2 nv + t for cell t.  The bubble has
Jacobian c I, so every velocity is affine on each triangle.  A discrete
pressure is one value per cell; solves return it with zero area-weighted
mean.

Convection and the body force read a velocity through a vertex map P into
the elementwise P1 basis lam_k e_i (rows 6 t + 2 k + i): the exact
embedding E of the affine-per-triangle enriched fields in the standard
scheme, the reconstruction R in the pressure-robust one.  So
C = P^T C_p1(P z) P and rhs = P^T (f, .)_p1 with the forms on the P1 basis.
Each convection term pairs trial and test functions only through u . v, so
C_p1 = C_s (x) I_2 for one scalar DG-P1 matrix C_s on the lam_k, and
C = sum_c P_c^T C_s P_c with P_c = P[c::2]; for P = E that is the enriched
matrix exactly.  Of C_s's volume, interior- and boundary-edge blocks, the
last vanish for P = R, whose fields have zero normal trace on the boundary.

Every basis function and discrete velocity here is affine on each
triangle, so it is fixed by its values at the three vertices, and its trace
along an edge is affine in the edge parameter s.  Volume integrals are
therefore taken exactly from vertex values and the moments of the
barycentric coordinates; a body force is integrated with a degree-6 triangle
rule.  Edge integrals see a pointwise weight g(s) only through three moments
per edge, the integrals of g (1-s)^2, g s(1-s) and g s^2 against the 4-point
Gauss rule, contracted with the endpoint traces.  That is exact for every
term except the upwind indicator, which is decided at the 4 Gauss points.

What is built when.  What every Picard step or the error norms read again
and depends only on the mesh is built once per mesh, on first use, in the
mesh's Discretization (discretization(mesh)) and kept there: E; the scalar
P1 basis with each edge's endpoint-hat dofs, lengths and normals, and, on
the first convection assembly, the fixed CSR pattern of C_s with the maps
from local entries to it; and the matrix R, built from the mesh alone,
one row per triangle vertex and component from the averaged normal
traces at that vertex (reconstruction.reconstruction_matrix).  The
viscous and divergence matrices A and B are built on the P1 basis and
read through E: SIPG acts on each velocity component alone, so
A = sum_c E_c^T A_s E_c with A_s the scalar DG-P1 SIPG matrix; and
B = B_s E.  The SIPG and convective boundary loads are E^T of scalar
loads on the boundary-edge hats, and the error norms read a field's edge
traces from its vertex values at the same hats and the exact field's
reconstruction from its edge moments
(reconstruction.field_from_edge_moments, per evaluation, by the same
per-vertex frames as R).  The solver and analysis.error_norms share all
of it.  For the viscosity and penalty last asked for, the Discretization
also keeps the blocks of the saddle system that no step changes
(_SaddleBlocks), and with them what the solver keeps across steps and
solves: the minimum-degree orders and the last accepted LU.  The Dirichlet dofs are
the boundary nodal dofs whatever the data, so they need no key.  The
blocks are the only reader of A and B: each build assembles both and
keeps only their restrictions to the free and Dirichlet unknowns.  A
Picard step evaluates only the transport field: its vertex values P z, one
batched contraction for the volume term, and per edge {w}.n and [w].n at
the Gauss points, whose upwind and skew weights form the three moments;
the local blocks then fill the fixed pattern of C_s by bincount.  The
step's convection stays in that factored form (ConvectionOperator): GMRES
applies it as P^T (C_s (P u)), and its saddle system lifts the Dirichlet
data through it.  C and the step's saddle matrix are assembled only when
a factorization reads SaddleSystem.matrix.

Linearization: the Picard matrix is c(z; u, v) with both the transport field
and the upwind geometry frozen at the previous iterate z.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import MeshTopology
from .quadrature import edge_rule, map_to_triangle, triangle_rule
from .reconstruction import reconstruction_matrix

VOLUME_DEGREE = 6
EDGE_DEGREE = 7  # 4-point Gauss
LID_VELOCITY = (1.0, 0.0)  # cavity lid, see lid_values

# int_T lam_k lam_l over the reference triangle (area 1/2)
_LAMBDA_MASS = (1.0 + np.eye(3)) / 24.0
# int_0^1 l_j l_k ds of the endpoint hats l = (1 - s, s) along an edge
_EDGE_HAT_MASS = (1.0 + np.eye(2)) / 6.0
# jump sign of the plus and the minus side of an edge; boundary edges have the plus side only
_SIDE_SIGN = np.array([1.0, -1.0])


def check_positive_finite(name: str, value) -> None:
    """Raise ValueError unless value is positive and finite; an integer past the float range is not finite."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # math.isfinite converts an integer to float
        finite = False
    if not (value > 0 and finite):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class FormParams:
    """Physical and scheme parameters shared by all forms.

    The viscosity and the SIPG jump penalty must be positive and finite;
    anything else raises ValueError here, before any form reads them.
    """

    viscosity: float = 1.0
    penalty: float = 10.0
    pressure_robust: bool = False

    def __post_init__(self):
        check_positive_finite("viscosity", self.viscosity)
        check_positive_finite("penalty", self.penalty)


# -- affine fields ---------------------------------------------------------


def vertex_values(mesh: MeshTopology, z: np.ndarray) -> np.ndarray:
    """(nt, 3, 2) values of the velocity with coefficients z at each triangle's vertices, E z (Discretization.embedding).

    The field is affine on each triangle, so these values fix it there, and
    along each edge it interpolates its two endpoint values.
    """
    return (discretization(mesh).embedding @ z).reshape(-1, 3, 2)


def field_jacobians(mesh: MeshTopology, zv: np.ndarray) -> np.ndarray:
    """(nt, 2, 2) constant Jacobians J[t, i, j] = d z_i / d x_j of a field with vertex_values zv."""
    return np.einsum("tki,tkj->tij", zv, mesh.grad_lambda)


def along_edges(ends: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Values at edge parameters s of fields affine along edges.

    ends (..., 2, d) holds the values at s = 0 and s = 1; the result has
    shape (..., nq, d).
    """
    return (1.0 - s)[:, None] * ends[..., :1, :] + s[:, None] * ends[..., 1:, :]


def _hat_moments(g: np.ndarray) -> np.ndarray:
    """sum_q w_q g(s_q) l_j(s_q) l_k(s_q) for the endpoint hats l = (1 - s, s); (..., nq) -> (..., 2, 2).

    The entries are the three moments of g against (1-s)^2, s(1-s) and s^2,
    which is all a product of two traces affine in s sees of g.
    """
    rule = edge_rule(EDGE_DEGREE)
    hats = np.stack([1.0 - rule.points, rule.points], axis=1)
    weighted = rule.weights[:, None, None] * hats[:, :, None] * hats[:, None, :]
    return (g @ weighted.reshape(len(rule.weights), 4)).reshape(g.shape[:-1] + (2, 2))


# -- element tables --------------------------------------------------------


def _embedding_matrix(mesh: MeshTopology) -> sp.csr_matrix:
    """E, the exact embedding of enriched velocities into the elementwise P1 basis.

    Every enriched velocity is affine per triangle, so E maps it to its
    values at each triangle's vertices: row 6 t + 2 k + i holds 1 at nodal
    dof 2 v_k + i and (x_k - x_T)_i at bubble dof 2 nv + t.
    """
    nt, nv = mesh.num_triangles, mesh.num_vertices
    offsets = mesh.vertices[mesh.triangles] - mesh.barycenters[:, None, :]
    nodal = 2 * mesh.triangles[:, :, None] + np.arange(2)
    bubble = np.broadcast_to(2 * nv + np.arange(nt)[:, None, None], nodal.shape)
    cols = np.stack([nodal, bubble], axis=-1)
    vals = np.stack([np.ones_like(offsets), offsets], axis=-1)
    E = sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, vals.size + 1, 2)), shape=(6 * nt, 2 * nv + nt))
    E.eliminate_zeros()
    return E


class _Pattern:
    """Fixed CSR structure of an n x n matrix summed from local blocks.

    Piece k is a stack of square local blocks over the dofs dofmaps[k];
    positions[k] sends its flattened entries to their slots in the CSR data
    array, so filling the matrix is one bincount per piece instead of a COO
    sort.  The structure is that of the scattered blocks of ones, and the
    slots are found chunk by chunk in its sorted (row, column) keys, so no
    index array over all local entries is sorted at once.
    """

    def __init__(self, n: int, dofmaps: list[np.ndarray]):
        ones = _scatter([(dofs, np.broadcast_to(1.0, dofs.shape + dofs.shape[1:])) for dofs in dofmaps], n)
        keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(ones.indptr)) + ones.indices

        def slots(dofs: np.ndarray) -> np.ndarray:
            chunks = _chunks(dofs, dofs.shape[1] ** 2)
            local_keys = ((d[:, :, None].astype(np.int64) * n + d[:, None, :]).ravel() for d in chunks)
            return np.concatenate([np.searchsorted(keys, k).astype(np.int32) for k in local_keys])

        self.positions = [slots(dofs) for dofs in dofmaps]
        self.indices = ones.indices.astype(np.int32)
        self.indptr = ones.indptr.astype(np.int32)
        self.shape = (n, n)

    def matrix(self, blocks: list[np.ndarray]) -> sp.csr_matrix:
        nnz = len(self.indices)
        data = sum(np.bincount(pos, weights=blk.ravel(), minlength=nnz) for pos, blk in zip(self.positions, blocks))
        mat = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)
        mat.eliminate_zeros()
        return mat


class _ScalarP1:
    """The scalar elementwise P1 basis lam_k, dof 3 t + k, of every form and boundary load.

    `cells[t]` holds triangle t's three dofs.  Along an edge only the hats of
    each side's two edge endpoints have a trace.  `edges` holds (dofs, h,
    normal) of the interior and then of the boundary edges; dofs[e, X, j] is
    the dof of side X that is 1 at endpoint j (mesh.edge_vertices[e, j]),
    so a field's endpoint traces are its vertex values at these dofs.
    """

    def __init__(self, mesh: MeshTopology):
        tris = np.stack([mesh.edge_tplus, mesh.edge_tminus], axis=1)
        local = np.stack([mesh.edge_local_plus, mesh.edge_local_minus], axis=1)
        dofs = (3 * tris[:, :, None] + local).astype(np.int32)  # boundary edges: plus side only
        sides = ((mesh.interior_edge_ids, 2), (mesh.boundary_edge_ids, 1))
        self.edges = [(dofs[ids, :n], mesh.edge_length[ids], mesh.edge_normal[ids]) for ids, n in sides]
        nt = mesh.num_triangles
        self.cells = np.arange(3 * nt, dtype=np.int32).reshape(nt, 3)

    @functools.cached_property
    def pattern(self) -> _Pattern:
        """The fixed CSR pattern of C_s, built on the first convection assembly."""
        edge_blocks = [d.reshape(len(d), 2 * d.shape[1]) for d, _, _ in self.edges]
        return _Pattern(self.cells.size, [self.cells] + edge_blocks)


class Discretization:
    """The mesh-bound data the forms read again at every Picard step, built on first use.

    One per mesh, see discretization().  Each piece is built the first time
    a form asks for it and then kept: the embedding E, the scalar P1 basis
    with its edge dofs and the pattern of convection, and the
    reconstruction R, which reads the mesh and nothing else kept here.
    The mesh arrays are read-only, so none of it can go stale.
    Of the fixed saddle blocks (_SaddleBlocks), which carry the solver's
    orders and kept LU, only those of the last viscosity and penalty asked
    for are kept: a request for another drops them, LU and all, before it
    builds its own.  Only the blocks read A and B.
    """

    def __init__(self, mesh: MeshTopology):
        # weak: the mesh keeps its Discretization, and a strong reference back
        # would leave both to the cycle collector instead of freeing them with the mesh
        self._mesh = weakref.ref(mesh)
        self._saddle: tuple | None = None  # (key, _SaddleBlocks) of the last key asked for

    @property
    def mesh(self) -> MeshTopology:
        return self._mesh()

    @functools.cached_property
    def scalar_p1(self) -> _ScalarP1:
        return _ScalarP1(self.mesh)

    @functools.cached_property
    def embedding(self) -> sp.csr_matrix:
        """E, the exact embedding of enriched velocities into the elementwise P1 basis (see _embedding_matrix)."""
        return _embedding_matrix(self.mesh)

    @functools.cached_property
    def reconstruction(self) -> sp.csr_matrix:
        # through this module's global, which tests and perfbench's tracing replace
        return reconstruction_matrix(self.mesh)

    def vertex_map(self, params: FormParams) -> sp.csr_matrix:
        """P, through which convection and the body force read a velocity: R if pressure-robust, else E."""
        return self.reconstruction if params.pressure_robust else self.embedding

    def saddle_blocks(self, params: FormParams) -> _SaddleBlocks:
        """The saddle blocks no Picard step changes for params' viscosity and penalty."""
        key = (params.viscosity, params.penalty)
        if self._saddle is None or self._saddle[0] != key:
            self._saddle = None  # free the old blocks and their LU before building
            self._saddle = key, _SaddleBlocks(self.mesh, params)
        return self._saddle[1]


def discretization(mesh: MeshTopology) -> Discretization:
    """The mesh's Discretization, created on the first call and kept on the mesh."""
    disc = vars(mesh).get("_discretization")
    if disc is None:
        disc = mesh._discretization = Discretization(mesh)
    return disc


_CHUNK_ENTRIES = 1 << 18  # local entries scattered at a time; bounds the transient index arrays


def _chunks(array: np.ndarray, entries_per_row: int):
    """Consecutive row slices of array, each covering at most _CHUNK_ENTRIES local entries; at least one."""
    step = max(1, _CHUNK_ENTRIES // entries_per_row)
    return (array[start : start + step] for start in range(0, max(len(array), 1), step))


def _scatter(blocks: list[tuple[np.ndarray, np.ndarray]], n: int) -> sp.csr_matrix:
    """n x n matrix summed from stacks of square local blocks, each given as (dofs, values)."""
    mat = sp.csr_matrix((n, n))
    for dofs, blk in blocks:
        width = blk.shape[1] * blk.shape[2]
        for d, b in zip(_chunks(dofs, width), _chunks(blk, width)):
            rows = np.broadcast_to(d[:, :, None], b.shape).ravel()
            cols = np.broadcast_to(d[:, None, :], b.shape).ravel()
            mat = mat + sp.csr_matrix((b.ravel(), (rows, cols)), shape=(n, n))
    return _finalize(mat)


def _finalize(mat: sp.csr_matrix) -> sp.csr_matrix:
    mat = mat.tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _components_sandwich(M_s: sp.csr_matrix, P: sp.csr_matrix) -> sp.csr_matrix:
    """sum_c P_c^T M_s P_c with P_c = P[c::2], the rows of P for velocity component c: M_s (x) I_2 read through P."""
    return _finalize(sum(Pc.T @ (M_s @ Pc) for Pc in (P[0::2], P[1::2])))


# -- viscous and divergence forms ----------------------------------------


def assemble_viscous(mesh: MeshTopology, params: FormParams) -> sp.csr_matrix:
    """Interior-penalty viscous matrix (symmetric; excludes the viscosity factor).

    SIPG acts on each velocity component alone, so A = sum_c E_c^T A_s E_c
    with A_s the scalar DG-P1 SIPG matrix on the hats lam_k (see _ScalarP1).
    """
    disc = discretization(mesh)
    scalar = disc.scalar_p1
    blocks = [(scalar.cells, np.einsum("t,tki,tli->tkl", mesh.areas, mesh.grad_lambda, mesh.grad_lambda))]
    for dofs, h, normal in scalar.edges:
        ne, sides = dofs.shape[:2]
        sign = _SIDE_SIGN[:sides]
        tris = dofs[:, :, 0] // 3
        # int_e [lam_k]: sign_X h/2 for side X's two endpoint hats, 0 for the hat of the opposite vertex
        int_jump = np.zeros((ne, sides, 3))
        half_h = np.broadcast_to(0.5 * np.multiply.outer(h, sign)[..., None], dofs.shape)
        np.put_along_axis(int_jump, dofs % 3, half_h, axis=2)
        # {grad lam_l . n} of all three hats of each side
        avg_grad_n = np.einsum("exli,ei->exl", mesh.grad_lambda[tris], normal) / sides
        cons = int_jump.reshape(ne, -1, 1) * avg_grad_n.reshape(ne, 1, -1)
        cells = (3 * tris[:, :, None] + np.arange(3)).reshape(ne, -1)
        blocks.append((cells, -cons - cons.transpose(0, 2, 1)))
        # rho/h <[u], [v]>: endpoint hats j, k of sides X, Y meet in rho sign_X sign_Y (1 + delta_jk)/6
        pen = params.penalty * np.einsum("x,y,jk->xjyk", sign, sign, _EDGE_HAT_MASS).reshape(2 * sides, 2 * sides)
        blocks.append((dofs.reshape(ne, -1), np.broadcast_to(pen, (ne,) + pen.shape)))
    A_s = _scatter(blocks, scalar.cells.size)
    return _components_sandwich(A_s, disc.embedding)


def assemble_divergence(mesh: MeshTopology) -> sp.csr_matrix:
    """Rows q (one per triangle), columns velocity dofs: b(u, q).

    The form sees a velocity only through its values and Jacobian, so
    B = B_s E with B_s on the elementwise P1 basis lam_k e_i (columns
    6 t + 2 k + i, as E's rows).
    """
    disc = discretization(mesh)
    scalar = disc.scalar_p1
    nt = mesh.num_triangles
    # (div lam_k e_i, 1)_T = |T| d_i lam_k
    rows = [np.repeat(np.arange(nt), 6)]
    cols = [np.arange(6 * nt)]
    vals = [(mesh.areas[:, None, None] * mesh.grad_lambda).ravel()]
    for dofs, h, normal in scalar.edges:
        ne, sides = dofs.shape[:2]
        # -<[u].n, {q}>: every side's pressure row sees the whole jump, averaged;
        # lam_k e_i of side X has int_e [.].n = sign_X h/2 n_i at its endpoint hats
        jn = -0.5 / sides * np.einsum("e,x,ei->exi", h, _SIDE_SIGN[:sides], normal)[:, :, None, :]
        jn = np.broadcast_to(jn, dofs.shape + (2,)).reshape(ne, -1)
        vec_cols = (2 * dofs[..., None] + np.arange(2)).reshape(ne, -1)
        for tri_rows in (dofs[:, :, 0] // 3).T:
            rows.append(np.broadcast_to(tri_rows[:, None], jn.shape))
            cols.append(vec_cols)
            vals.append(jn)
    flat = lambda arrays: np.concatenate([a.ravel() for a in arrays])
    B_s = _finalize(sp.coo_matrix((flat(vals), (flat(rows), flat(cols))), shape=(nt, 6 * nt)))
    return _finalize(B_s @ disc.embedding)


# -- convection ----------------------------------------------------------


def _edge_weights(h: np.ndarray, ends: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """h g[e, X, Y, q]: weight of test side X against trial side Y at edge Gauss point q.

    ends[e, X, j, i] are the endpoint values of the transport field from each
    side (one side on boundary edges); g collects the skew and upwind terms,
    one formula for both kinds of edge.  With zn_X = z_X.n and sign_X the
    jump sign of side X: zeta = mean_X zn_X is the averaged field;
    -1/2 <[z].n, {u.v}> pairs only one-sided traces, skew = -1/2 mean_X
    sign_X zn_X; each side's test rows see the jump where zeta enters that
    side, into_X = max(-sign_X zeta, 0).  g[X, X] = skew + into_X and
    g[X, Y] = -into_X for Y != X.
    """
    s = edge_rule(EDGE_DEGREE).points
    zn = along_edges(np.einsum("exji,ei->exj", ends, normal)[..., None], s)[..., 0]
    ne, sides, nq = zn.shape
    sign = _SIDE_SIGN[:sides]
    # sums over the sides start at side 0, which keeps its signed zeros, and run on contiguous slices
    zeta = sum((zn[:, x] for x in range(1, sides)), zn[:, 0]) / sides
    skew = -0.5 / sides * sum((sign[x] * zn[:, x] for x in range(1, sides)), zn[:, 0])
    g = np.empty((ne, sides, sides, nq))
    for x in range(sides):
        into = np.maximum(-sign[x] * zeta, 0.0)
        g[:, x] = -into[:, None]
        g[:, x, x] = skew + into
    g *= h[:, None, None, None]
    return g


class ConvectionOperator:
    """The Picard convection matrix C = sum_c P_c^T C_s P_c of one step, kept as its factors.

    C_s is the step's scalar DG-P1 matrix on the lam_k (see _ScalarP1) and
    P the vertex map (Discretization.vertex_map).  `C @ u` applies C as
    P^T (C_s (P u)), C_s acting on both velocity components at once, which
    is all a Krylov solve needs; matrix() assembles C for a factorization.
    """

    def __init__(self, scalar: sp.csr_matrix, vertex_map: sp.csr_matrix):
        self.scalar = scalar
        self.vertex_map = vertex_map

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        w = (self.vertex_map @ u).reshape(-1, 2)  # row 3 t + k, column i: P's row 6 t + 2 k + i
        return self.vertex_map.T @ (self.scalar @ w).ravel()

    def matrix(self) -> sp.csr_matrix:
        return _components_sandwich(self.scalar, self.vertex_map)


def assemble_convection(mesh: MeshTopology, z: np.ndarray, params: FormParams) -> ConvectionOperator:
    """Picard convection operator on the enriched space for the velocity coefficients z of the iterate.

    Both the transport field and the trial/test slots act through the vertex
    map P (Discretization.vertex_map): sum_c P_c^T C_s(P z) P_c, with C_s the
    scalar DG-P1 matrix on the lam_k (see _ScalarP1).  Only C_s is built.
    """
    disc = discretization(mesh)
    scalar = disc.scalar_p1
    P = disc.vertex_map(params)
    wv = (P @ z).reshape(mesh.num_triangles, 3, 2)
    Jw = field_jacobians(mesh, wv)
    divw = Jw[:, 0, 0] + Jw[:, 1, 1]
    # int_T lam_k (w . grad lam_l) = 2 |T| sum_m Lambda_km w_m . grad lam_l
    transport = np.einsum("km,tmj,tlj->tkl", _LAMBDA_MASS, wv, mesh.grad_lambda, optimize=True)
    blocks = [2.0 * mesh.areas[:, None, None] * (transport + 0.5 * divw[:, None, None] * _LAMBDA_MASS)]
    for dofs, h, normal in scalar.edges:
        g = _edge_weights(h, wv.reshape(-1, 2)[dofs], normal)
        width = 2 * dofs.shape[1]
        # side X's hat at endpoint j against side Y's hat at endpoint k
        blocks.append(_hat_moments(g).transpose(0, 1, 3, 2, 4).reshape(len(g), width, width))
    return ConvectionOperator(scalar.pattern.matrix(blocks), P)


# -- right-hand side -----------------------------------------------------


def assemble_load(mesh: MeshTopology, f, params: FormParams) -> np.ndarray:
    """Body-force functional (f, v) with the test functions read through the vertex map P."""
    rule = triangle_rule(VOLUME_DEGREE)
    fvals = np.asarray(f(map_to_triangle(rule, mesh.vertices[mesh.triangles])), dtype=float)
    f_lam = np.einsum("q,qk,tqi->tki", rule.weights, rule.points, fvals)
    # (f, lam_k e_i) over the elementwise P1 basis, flattened as P's rows 6 t + 2 k + i
    return discretization(mesh).vertex_map(params).T @ (2.0 * mesh.areas[:, None, None] * f_lam).ravel()


def _boundary_hat_load(mesh: MeshTopology, ends: np.ndarray, cells: np.ndarray | None = None) -> np.ndarray:
    """E^T of a load on the elementwise P1 basis lam_k e_i that lives on the boundary edges.

    ends[e, j, i] is the load on lam_j e_i, the hat that is 1 at endpoint j
    of boundary edge e (scalar_p1.edges[1]); cells[e, k, i], if given, the
    load on all three hats of the edge's triangle.
    """
    disc = discretization(mesh)
    dofs = disc.scalar_p1.edges[1][0][:, 0]
    load = np.zeros((3 * mesh.num_triangles, 2))  # row 3 t + k, column i: E's row 6 t + 2 k + i
    np.add.at(load, dofs, ends)
    if cells is not None:
        np.add.at(load, 3 * (dofs[:, :1] // 3) + np.arange(3), cells)
    return disc.embedding.T @ load.ravel()


def convective_boundary_load(mesh: MeshTopology, z: np.ndarray, g_nodal: np.ndarray, params: FormParams) -> np.ndarray:
    """Boundary data of the convective form: inflow and flux-average terms.

    The exterior trace of the trial velocity on a Dirichlet edge is the P1
    interpolant of the prescribed nodal values g_nodal (nv, 2), giving the
    inflow term |{z}.n| (g . v_int).  The one-sided average term
    -1/2 <[u].n, u.v> likewise turns into the data term -1/2 <(g.n) g, v>;
    it vanishes whenever the data carries no normal flux (g.n = 0), as with
    a tangential lid or enclosed flow, but without it any data with inflow
    or outflow would leave a boundary residual at the exact solution.
    Reconstructed fields have zero normal boundary trace, so the robust
    scheme has no boundary convection terms and the result is identically
    zero there.
    """
    if params.pressure_robust:
        return np.zeros(len(z))
    dofs, h, normal = discretization(mesh).scalar_p1.edges[1]
    s = edge_rule(EDGE_DEGREE).points
    g_ends = g_nodal[mesh.edge_vertices[mesh.boundary_edge_ids]]
    z_ends = vertex_values(mesh, z).reshape(-1, 2)[dofs[:, 0]]  # as assemble_convection reads the transport field
    # z.n and g.n at the edge Gauss points
    zn, gn = (along_edges(np.einsum("eji,ei->ej", f, normal)[..., None], s)[..., 0] for f in (z_ends, g_ends))
    # h <(|z.n|_in - 1/2 g.n) g, lam_j e_i> with g = sum_k l_k g_k along the edge
    weight = _hat_moments(np.maximum(-zn, 0.0) - 0.5 * gn)
    return _boundary_hat_load(mesh, h[:, None, None] * np.einsum("ejk,eki->eji", weight, g_ends))


def sipg_boundary_load(mesh: MeshTopology, g_nodal: np.ndarray, params: FormParams) -> np.ndarray:
    """Weak Dirichlet data terms of the viscous form on boundary edges.

    Substituting the exterior state g into the boundary jumps of the viscous
    form moves rho/h <g, v> - <(grad v) n, g> to the load, which keeps the
    scheme consistent for nonzero data: without these terms the boundary
    penalty would press the unconstrained bubble traces toward -g instead of
    letting the total trace approach g.  g enters as the P1 interpolant of
    the prescribed nodal values along each edge.  The result is the data
    part of the unscaled form; the caller applies the viscosity factor.
    """
    dofs, h, normal = discretization(mesh).scalar_p1.edges[1]
    g_ends = g_nodal[mesh.edge_vertices[mesh.boundary_edge_ids]]
    # rho/h <g, lam_j e_i> on the endpoint hats; h cancels against the edge length
    pen = params.penalty * np.einsum("jk,eki->eji", _EDGE_HAT_MASS, g_ends)
    # -<(grad lam_k e_i) n, g> = -(grad lam_k . n) int_e g_i on all three hats
    grad_n = np.einsum("ekj,ej->ek", mesh.grad_lambda[dofs[:, 0, 0] // 3], normal)
    cons = -0.5 * np.einsum("ek,e,eji->eki", grad_n, h, g_ends)
    return _boundary_hat_load(mesh, pen, cons)


def divergence_boundary_load(mesh: MeshTopology, g_nodal: np.ndarray) -> np.ndarray:
    """Continuity right-hand side -<g.n, q> from the boundary jump data.

    g enters as the P1 interpolant of the nodal values along each edge, so
    -<g.n, 1>_e = -h/2 (g_a + g_b).n from the edge's endpoint values.  Zero
    whenever the prescribed velocity is tangential (g.n = 0), as in the
    driven-cavity setup.
    """
    dofs, h, normal = discretization(mesh).scalar_p1.edges[1]
    g_ends = g_nodal[mesh.edge_vertices[mesh.boundary_edge_ids]]
    gn = 0.5 * h * np.einsum("eji,ei->e", g_ends, normal)
    vec = np.zeros(mesh.num_triangles)
    np.add.at(vec, dofs[:, 0, 0] // 3, -gn)
    return vec


# -- boundary data and the saddle system ---------------------------------


def lid_values(mesh: MeshTopology, leaky_corners: bool = True) -> np.ndarray:
    """(nv, 2) cavity Dirichlet data: LID_VELOCITY on the mesh's top side, zero at every other vertex.

    The lid is the boundary vertices within 1e-12 of the largest y.  By
    default its two corners, the lid vertices within 1e-12 of the smallest
    or largest x, take the lid value (leaky-cavity convention); with
    leaky_corners=False they stay at rest (watertight).
    """
    (xmin, _), (xmax, top) = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    x, y = mesh.vertices.T
    lid = mesh.is_boundary_vertex & (np.abs(y - top) < 1e-12)
    lid &= leaky_corners | ((np.abs(x - xmin) >= 1e-12) & (np.abs(x - xmax) >= 1e-12))
    return np.where(lid[:, None], LID_VELOCITY, 0.0)


def dirichlet_data(mesh: MeshTopology, g: np.ndarray | None) -> np.ndarray:
    """The checked (nv, 2) nodal Dirichlet data: row v is the velocity prescribed at vertex v.

    g is that array, or None for homogeneous data.  Anything but exactly
    shape (nv, 2) (nothing is broadcast), real finite values and zero rows
    off the boundary raises ValueError.  Every boundary vertex is
    constrained (_SaddleBlocks.dirichlet_dofs), a zero row holding it at
    rest; bubbles never are.  Returns a float copy.
    """
    shape = (mesh.num_vertices, 2)
    if g is None:
        return np.zeros(shape)
    try:
        array = np.asarray(g)
    except ValueError:  # ragged nesting
        array = np.empty(0)
    if array.shape != shape or array.dtype.kind not in "iuf":
        raise ValueError(f"Dirichlet data must be a real array of shape {shape}, got {type(g).__name__} {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError("Dirichlet data must be finite")
    off_boundary = np.flatnonzero(~mesh.is_boundary_vertex & np.any(array != 0, axis=1))
    if len(off_boundary):
        raise ValueError(f"Dirichlet data is nonzero at vertices off the boundary: {off_boundary.tolist()}")
    return array.astype(float)


@dataclass
class SaddleSystem:
    """Oseen system [mu A + C, -B^T; B, 0] on the free unknowns of one step.

    The unknowns are the unconstrained velocity dofs (`blocks.free`)
    followed by the pressures of cells 1..nt-1; the pressure of cell 0 is
    pinned to zero, and the Dirichlet values are lifted into rhs.  Cell 0's
    continuity row is left out of the square `matrix`: the left-hand sides
    of all continuity rows sum to zero, so one row is redundant when the
    data has zero net boundary flux and cannot hold otherwise.  It is kept
    as `blocks.pinned_row`/`pinned_rhs` so that the residual check still
    sees it.

    The system holds only what a step changes: the right-hand side, the
    Dirichlet values and `convection`, the step's ConvectionOperator on the
    full velocity space (None for Stokes).  Everything else, the kept LU
    included, belongs to `blocks`, shared by every step with the same
    viscosity and penalty.  apply() multiplies by the matrix without
    assembling it; `matrix` is assembled on first read, which only a
    factorization needs.
    """

    blocks: _SaddleBlocks
    rhs: np.ndarray
    pinned_rhs: float
    dirichlet_values: np.ndarray
    convection: ConvectionOperator | None

    @property
    def velocity(self) -> slice:
        return slice(0, len(self.blocks.free))

    @property
    def pressure(self) -> slice:
        return slice(len(self.blocks.free), self.blocks.matrix.shape[0])

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The fixed blocks plus the convection block on the free velocity dofs, assembled on first read."""
        fixed = self.blocks.matrix
        if self.convection is None:  # Stokes, or the step at a zero iterate
            return fixed
        free = self.blocks.free
        C_ff = self.convection.matrix()[free][:, free]
        # the convection block in the top-left corner, no entries in the pressure rows
        n = fixed.shape[0]
        indptr = np.concatenate([C_ff.indptr, np.full(n - len(free), C_ff.indptr[-1])])
        return _finalize(fixed + sp.csr_matrix((C_ff.data, C_ff.indices, indptr), shape=(n, n)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """matrix @ x without assembling matrix: the fixed blocks times x plus C on the free velocity dofs."""
        y = self.blocks.matrix @ x
        if self.convection is not None:
            free = self.blocks.free
            u = np.zeros(self.blocks.n_velocity)
            u[free] = x[self.velocity]
            y[self.velocity] += (self.convection @ u)[free]
        return y

    def expand(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full velocity and zero-mean pressure vectors from a solution x of matrix."""
        blocks = self.blocks
        u = np.empty(blocks.n_velocity)
        u[blocks.dirichlet_dofs] = self.dirichlet_values
        u[blocks.free] = x[self.velocity]
        p = np.concatenate([[0.0], x[self.pressure]])
        # B^T annihilates constants, so shifting p leaves every equation intact
        p -= (blocks.areas @ p) / blocks.areas.sum()
        return u, p

    def restrict(self, u: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The unknowns of matrix for full velocity and pressure vectors; the inverse of expand."""
        return np.concatenate([u[self.blocks.free], p[1:] - p[0]])


class _SaddleBlocks:
    """Everything a solve keeps for one viscosity and penalty on a mesh.

    The parts of the saddle system that no Picard step changes: the
    `dirichlet_dofs`, the nodal dofs of every boundary vertex, and the free
    velocity dofs `free`, both in increasing order; `matrix` = [mu A_ff,
    -B_kept^T; B_kept, 0] on the unknowns of SaddleSystem, the Dirichlet
    columns `viscous_lift` = mu A_fd and `divergence_lift` = B_d that lift
    the data into the right-hand side, the pinned continuity row, the
    number of velocity dofs and the cell areas; A and B are assembled here
    and kept only restricted.  A is scaled by mu in place and dropped once
    its free rows are taken, and `matrix` is stacked from CSR pieces
    (sp.bmat would copy all four blocks to COO), so no step holds a second
    copy of A or a COO copy of the system.  Each unknown sits at a mesh node,
    `nodes[i]`: vertex v for its nodal dofs, num_vertices + t for the
    bubble and the pressure of cell t.

    What the solver keeps across steps and solves lives here too: `orders`,
    minimum-degree orders of the saddle matrices factored on these unknowns,
    keyed by their sparsity pattern (a solve meets only a few patterns,
    Stokes and Oseen, each factored many times), and `factor`, the last LU
    (solver.OrderedFactor) whose solve passed the residual check, or None.
    """

    def __init__(self, mesh: MeshTopology, params: FormParams):
        dofs = np.flatnonzero(np.repeat(mesh.is_boundary_vertex, 2))  # dof 2 v + i of boundary vertex v
        A = assemble_viscous(mesh, params)
        A.data *= params.viscosity
        self.n_velocity = A.shape[0]
        free = np.setdiff1d(np.arange(self.n_velocity), dofs)
        A_free = A[free]
        del A
        B = assemble_divergence(mesh)
        B_free = B[:, free]
        # pinning cell 0 drops its pressure column and sets its continuity row aside
        B_kept = B_free[1:]
        self.free = free
        self.dirichlet_dofs = dofs
        self.areas = mesh.areas
        top = sp.hstack([A_free[:, free], -B_kept.T.tocsr()], format="csr")
        bottom = sp.hstack([B_kept, sp.csr_matrix((B_kept.shape[0],) * 2)], format="csr")
        self.matrix = _finalize(sp.vstack([top, bottom], format="csr"))
        self.viscous_lift = A_free[:, dofs]
        self.divergence_lift = B[:, dofs]
        self.pinned_row = sp.hstack([B_free[0], sp.csr_matrix((1, B_kept.shape[0]))], format="csr")
        nv = mesh.num_vertices
        velocity_nodes = np.where(free < 2 * nv, free // 2, free - nv)  # bubble dof 2 nv + t sits at node nv + t
        self.nodes = np.concatenate([velocity_nodes, nv + np.arange(1, B.shape[0])])
        self.orders: dict = {}
        self.factor = None  # solver.OrderedFactor


def build_saddle_system(
    mesh: MeshTopology,
    params: FormParams,
    convection: ConvectionOperator | None,
    load: np.ndarray,
    g_nodal: np.ndarray,
    continuity_load: np.ndarray,
) -> SaddleSystem:
    """The saddle system of one Picard step on its free unknowns; convection None for Stokes.

    g_nodal is the (nv, 2) Dirichlet data (dirichlet_data); the rows and
    columns of the boundary nodal dofs are dropped and their values lifted
    into the right-hand side.  continuity_load carries the boundary-data
    part of the divergence form (one entry per cell).  Everything but the convection comes from the
    blocks the mesh's Discretization keeps (_SaddleBlocks), which the system
    references, and the convection stays an operator: the data is lifted
    through it, and SaddleSystem.matrix adds it to the fixed blocks only
    when read.  The pressure of cell 0 is pinned; solver.solve_linear
    restores the zero area-weighted mean afterwards (SaddleSystem.expand).
    """
    blocks = discretization(mesh).saddle_blocks(params)
    dofs, free = blocks.dirichlet_dofs, blocks.free
    values = g_nodal.ravel()[dofs]
    momentum = load[free] - blocks.viscous_lift @ values
    if convection is not None and values.any():
        data = np.zeros(len(load))
        data[dofs] = values
        momentum -= (convection @ data)[free]
    continuity = continuity_load - blocks.divergence_lift @ values
    return SaddleSystem(
        blocks=blocks,
        rhs=np.concatenate([momentum, continuity[1:]]),
        pinned_rhs=float(continuity[0]),
        dirichlet_values=values,
        convection=convection,
    )
