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

In pressure-robust mode the convection form and the body-force functional
are evaluated on reconstructed arguments: C = R^T C_bdm(R z) R and
rhs = R^T (f, .)_bdm, where R is the sparse reconstruction operator.  Since
the reconstructed field has zero normal trace on the boundary, the boundary
convection terms drop out there automatically.

Every basis function and discrete velocity here is affine on each
triangle, so it is fixed by its values at the three vertices, and its trace
along an edge is affine in the edge parameter s.  Volume integrals are
therefore taken exactly from vertex values and the moments of the
barycentric coordinates; a body force is integrated with a degree-6 triangle
rule.  Edge integrals see a pointwise weight g(s) only through three moments
per edge, the integrals of g (1-s)^2, g s(1-s) and g s^2 against the 4-point
Gauss rule, contracted with the endpoint traces.  That is exact for every
term except the upwind indicator, which is decided at the 4 Gauss points.

What is built when.  Everything that depends only on the mesh is built once
per mesh, on first use, in the mesh's Discretization (discretization(mesh))
and kept there: per local basis the dof map, vertex values, Jacobians,
volume moments and mass-like block; the interior and boundary edge batches
reduced to endpoint traces; the fixed CSR pattern of the convection matrix
with the map from local entries to it; and the matrices R, B and, per
penalty, the unscaled viscous A.  The solver and analysis.error_norms share
them.  A Picard step evaluates only the transport field: its vertex values,
one batched contraction for the volume term, and per edge {z}.n and [z].n
at the Gauss points, whose upwind and skew weights form the three moments;
the local blocks then fill the fixed pattern by bincount.

Linearization: the Picard matrix is c(z; u, v) with both the transport field
and the upwind geometry frozen at the previous iterate z.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import MeshTopology
from .quadrature import edge_rule, map_to_triangle, triangle_rule
from .reconstruction import BDMFunction, reconstruction_matrix
from .spaces import DofLayout, EGFunction, layout_for

VOLUME_DEGREE = 6
EDGE_DEGREE = 7  # 4-point Gauss

# int_T lam_k lam_l over the reference triangle (area 1/2)
_LAMBDA_MASS = (1.0 + np.eye(3)) / 24.0


@dataclass(frozen=True)
class FormParams:
    """Physical and scheme parameters shared by all forms."""

    viscosity: float = 1.0
    penalty: float = 10.0
    pressure_robust: bool = False


# -- affine fields ---------------------------------------------------------


def vertex_values(z) -> np.ndarray:
    """(nt, 3, 2) values of an enriched or reconstructed field at each triangle's vertices.

    Both kinds are affine on each triangle, so these values fix the field
    there, and along each edge it interpolates its two endpoint values.
    """
    mesh = z.mesh
    if isinstance(z, EGFunction):
        offsets = mesh.vertices[mesh.triangles] - mesh.barycenters[:, None, :]
        return z.nodal[mesh.triangles] + z.bubble[:, None, None] * offsets
    if isinstance(z, BDMFunction):
        return z.coeffs
    raise TypeError(f"unsupported field type {type(z).__name__}")


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


class _SpaceTables:
    """Per-triangle data of one of the two local velocity bases.

    kind "eg": 6 nodal dofs (vertex, component) plus the barycenter bubble;
    kind "p1d": the 6 elementwise P1 dofs used for reconstructed fields.
    Every basis function is affine per triangle, so it is fixed by its values
    at the triangle's vertices, vertex_values[t, a, k, i], and its Jacobian
    is constant.  moments[t, a, i, k] = int_T phi_a,i lam_k / (2 |T|) and
    mass_like[t, a, b] = int_T phi_a . phi_b / (2 |T|).
    """

    def __init__(self, mesh: MeshTopology, kind: str):
        nt = mesh.num_triangles
        if kind == "eg":
            nv = mesh.num_vertices
            nodal = (2 * mesh.triangles[:, :, None] + np.arange(2)).reshape(nt, 6)
            self.dofmap = np.concatenate([nodal, 2 * nv + np.arange(nt)[:, None]], axis=1)
            self.nl = 7
            self.n_dofs = 2 * nv + nt
        elif kind == "p1d":
            self.dofmap = 6 * np.arange(nt)[:, None] + np.arange(6)[None, :]
            self.nl = 6
            self.n_dofs = 6 * nt
        else:
            raise ValueError(f"unknown space kind {kind!r}")
        self.dofmap = self.dofmap.astype(np.int32)  # halves the index arrays of every scatter
        vals = np.zeros((nt, self.nl, 3, 2))
        jac = np.zeros((nt, self.nl, 2, 2))
        for a in range(3):
            for i in range(2):
                vals[:, 2 * a + i, a, i] = 1.0
                jac[:, 2 * a + i, i, :] = mesh.grad_lambda[:, a, :]
        if kind == "eg":
            vals[:, 6] = mesh.vertices[mesh.triangles] - mesh.barycenters[:, None, :]
            jac[:, 6] = np.eye(2)
        self.vertex_values = vals
        self.jac = jac
        self.div = jac[:, :, 0, 0] + jac[:, :, 1, 1]
        self.moments = np.einsum("taki,kl->tail", vals, _LAMBDA_MASS)
        self.mass_like = np.einsum("taik,tbki->tab", self.moments, vals)


class _EdgeBatch:
    """The interior or the boundary edges, with the basis traces of each side.

    Sides are indexed by X (plus first; boundary batches have only the plus
    side).  A trace is affine in the edge parameter s, so it is stored by its
    endpoint values: ends[e, X, a, j, i] is component i of basis function a
    of side X's triangle at s = j.  The stacked local index (X, a) runs over
    width = sides * nl entries; jump_sign is +1 on the plus side's and -1 on
    the minus side's, and avg_factor is 1 / sides.
    """

    def __init__(self, mesh: MeshTopology, space: _SpaceTables, eids: np.ndarray):
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
        sides, nl = self.tris.shape[1], space.nl
        basis = np.arange(nl)[None, None, :, None]
        self.ends = space.vertex_values[self.tris[:, :, None, None], basis, self.local[:, :, None, :]]
        self.dofs = space.dofmap[self.tris].reshape(len(eids), sides * nl)
        self.side_sign = np.array([1.0, -1.0][:sides])
        self.jump_sign = np.repeat(self.side_sign, nl)
        self.avg_factor = 1.0 / sides
        self.width = sides * nl

    def field_ends(self, zv: np.ndarray) -> np.ndarray:
        """(nE, sides, 2, 2) endpoint traces of a field from each side, given its vertex_values."""
        return zv[self.tris[:, :, None], self.local]

    def products(self, g: np.ndarray) -> np.ndarray:
        """Local matrices sum_q w_q g[e, X, Y, q] phi^X_a(s_q) . phi^Y_b(s_q), (nE, width, width)."""
        loc = np.einsum("exaji,exyjk,eybki->exayb", self.ends, _hat_moments(g), self.ends, optimize=True)
        return loc.reshape(len(self.eids), self.width, self.width)

    def mean_traces(self) -> np.ndarray:
        """(nE, width, 2) edge means of the basis traces, jump signs applied."""
        return self.jump_sign[None, :, None] * 0.5 * self.ends.sum(axis=3).reshape(len(self.eids), self.width, 2)


class _Pattern:
    """Fixed CSR structure of an n x n matrix summed from local blocks.

    Piece k is a stack of square local blocks over the dofs dofmaps[k];
    positions[k] sends its flattened entries to their slots in the CSR data
    array, so filling the matrix is one bincount per piece instead of a COO
    sort.
    """

    def __init__(self, n: int, dofmaps: list[np.ndarray]):
        keys = [(dofs[:, :, None].astype(np.int64) * n + dofs[:, None, :]).ravel() for dofs in dofmaps]
        uniq, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        inverse = inverse.reshape(-1).astype(np.int32)  # half the memory; bincount widens it per call
        self.positions = np.split(inverse, np.cumsum([len(k) for k in keys])[:-1])
        self.indices = (uniq % n).astype(np.int32)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(uniq // n, minlength=n))]).astype(np.int32)
        self.shape = (n, n)

    def matrix(self, blocks: list[np.ndarray]) -> sp.csr_matrix:
        nnz = len(self.indices)
        data = sum(np.bincount(pos, weights=blk.ravel(), minlength=nnz) for pos, blk in zip(self.positions, blocks))
        mat = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)
        mat.eliminate_zeros()
        return mat


class Discretization:
    """Everything the forms need that depends only on the mesh, built on first use.

    One per mesh, see discretization().  Each piece is built the first time
    a form asks for it and then kept: the tables, edge batches and
    convection sparsity pattern of each local basis, the reconstruction R,
    the divergence matrix B and the unscaled viscous matrix A of each
    penalty.  The mesh arrays are read-only, so none of it can go stale.
    """

    def __init__(self, mesh: MeshTopology):
        # weak: the mesh keeps its Discretization, and a strong reference back
        # would leave both to the cycle collector instead of freeing them with the mesh
        self._mesh = weakref.ref(mesh)
        self._built: dict = {}

    @property
    def mesh(self) -> MeshTopology:
        return self._mesh()

    def _memo(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def space(self, kind: str) -> _SpaceTables:
        return self._memo(("space", kind), lambda: _SpaceTables(self.mesh, kind))

    def edge_batches(self, kind: str) -> list[_EdgeBatch]:
        """The non-empty batches of interior and of boundary edges, in that order."""

        def build():
            mesh = self.mesh
            ids = (mesh.interior_edge_ids, mesh.boundary_edge_ids)
            return [_EdgeBatch(mesh, self.space(kind), eids) for eids in ids if len(eids)]

        return self._memo(("edges", kind), build)

    def boundary_batch(self, kind: str) -> _EdgeBatch | None:
        return next((b for b in self.edge_batches(kind) if not b.interior), None)

    def convection_pattern(self, kind: str) -> _Pattern:
        def build():
            space = self.space(kind)
            return _Pattern(space.n_dofs, [space.dofmap] + [b.dofs for b in self.edge_batches(kind)])

        return self._memo(("pattern", kind), build)

    def reconstruction(self) -> sp.csr_matrix:
        return self._memo("R", lambda: reconstruction_matrix(self.mesh))

    def divergence(self) -> sp.csr_matrix:
        return self._memo("B", lambda: assemble_divergence(self.mesh))

    def viscous(self, params: FormParams) -> sp.csr_matrix:
        return self._memo(("A", params.penalty), lambda: assemble_viscous(self.mesh, params))


def discretization(mesh: MeshTopology) -> Discretization:
    """The mesh's Discretization, created on the first call and kept on the mesh."""
    disc = vars(mesh).get("_discretization")
    if disc is None:
        disc = mesh._discretization = Discretization(mesh)
    return disc


def _scatter(blocks: list[tuple[np.ndarray, np.ndarray]], n: int) -> sp.csr_matrix:
    """n x n matrix summed from stacks of square local blocks, each given as (dofs, values)."""
    rows = np.concatenate([np.broadcast_to(dofs[:, :, None], blk.shape).ravel() for dofs, blk in blocks])
    cols = np.concatenate([np.broadcast_to(dofs[:, None, :], blk.shape).ravel() for dofs, blk in blocks])
    vals = np.concatenate([blk.ravel() for _, blk in blocks])
    return _finalize(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


def _finalize(mat: sp.csr_matrix) -> sp.csr_matrix:
    mat = mat.tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _boundary_data(mesh: MeshTopology, g_nodal: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(nE_boundary, nq, 2) P1 interpolant of nodal boundary data at edge parameters s."""
    return along_edges(g_nodal[mesh.edge_vertices[mesh.boundary_edge_ids]], s)


def _transport(disc: Discretization, z, params: FormParams) -> tuple[str, np.ndarray]:
    """Local basis and vertex values of the field the forms transport with.

    In pressure-robust mode an enriched z acts through its reconstruction R z.
    """
    if not params.pressure_robust:
        return "eg", vertex_values(z)
    if isinstance(z, EGFunction):
        z = BDMFunction.from_vector(z.mesh, disc.reconstruction() @ z.to_vector())
    return "p1d", vertex_values(z)


# -- viscous and divergence forms ----------------------------------------


def _viscous_blocks(mesh: MeshTopology):
    """Local blocks of the SIPG pieces on the enriched space.

    Returns (dofs, volume stiffness) and, per edge batch, (dofs,
    gradient-jump coupling, jump penalty).
    """
    disc = discretization(mesh)
    space = disc.space("eg")
    stiffness = (space.dofmap, np.einsum("t,taij,tbij->tab", mesh.areas, space.jac, space.jac))
    nq = len(edge_rule(EDGE_DEGREE).points)
    edges = []
    for batch in disc.edge_batches("eg"):
        int_jump = batch.h[:, None, None] * batch.mean_traces()
        avg_grad_n = batch.avg_factor * np.einsum("exbij,ej->exbi", space.jac[batch.tris], batch.normal)
        coupling = np.einsum("eai,ebi->eab", int_jump, avg_grad_n.reshape(len(batch.eids), batch.width, 2))
        # int [u].[v] ds: unit weight, signed by the pair of sides
        sign = np.multiply.outer(batch.side_sign, batch.side_sign)
        penalty = batch.products(np.broadcast_to(sign[:, :, None], (len(batch.eids),) + sign.shape + (nq,)))
        edges.append((batch.dofs, coupling, penalty))
    return stiffness, edges


def assemble_viscous(mesh: MeshTopology, params: FormParams) -> sp.csr_matrix:
    """Interior-penalty viscous matrix (symmetric; excludes the viscosity factor)."""
    stiffness, edges = _viscous_blocks(mesh)
    blocks = [(dofs, params.penalty * pen - cons - cons.transpose(0, 2, 1)) for dofs, cons, pen in edges]
    return _scatter([stiffness] + blocks, layout_for(mesh).n_velocity)


def assemble_energy_gram(mesh: MeshTopology, penalty: float) -> sp.csr_matrix:
    """Gram matrix of the jump-augmented broken H1 norm: |grad|^2 + penalty |h^-1/2 [.]|^2."""
    stiffness, edges = _viscous_blocks(mesh)
    return _scatter([stiffness] + [(dofs, penalty * pen) for dofs, _, pen in edges], layout_for(mesh).n_velocity)


def assemble_mass(mesh: MeshTopology) -> sp.csr_matrix:
    """L2 mass matrix of the enriched velocity space."""
    space = discretization(mesh).space("eg")
    return _scatter([(space.dofmap, 2.0 * mesh.areas[:, None, None] * space.mass_like)], space.n_dofs)


def assemble_divergence(mesh: MeshTopology) -> sp.csr_matrix:
    """Rows q (one per triangle), columns velocity dofs: b(u, q)."""
    disc = discretization(mesh)
    space = disc.space("eg")
    nt = mesh.num_triangles
    rows = [np.broadcast_to(np.arange(nt)[:, None], space.dofmap.shape)]
    cols = [space.dofmap]
    vals = [mesh.areas[:, None] * space.div]
    for batch in disc.edge_batches("eg"):
        # -<[u].n, {q}>: every side's pressure row sees the whole jump, averaged
        jn = -batch.avg_factor * batch.h[:, None] * np.einsum("ebi,ei->eb", batch.mean_traces(), batch.normal)
        for tri_rows in batch.tris.T:
            rows.append(np.broadcast_to(tri_rows[:, None], jn.shape))
            cols.append(batch.dofs)
            vals.append(jn)
    flat = lambda arrays: np.concatenate([a.ravel() for a in arrays])
    return _finalize(sp.coo_matrix((flat(vals), (flat(rows), flat(cols))), shape=(nt, space.n_dofs)))


# -- convection ----------------------------------------------------------


def _convection_on_space(disc: Discretization, kind: str, zv: np.ndarray) -> sp.csr_matrix:
    """Picard convection matrix on one local basis for the field with vertex values zv."""
    mesh = disc.mesh
    space = disc.space(kind)
    Jz = np.einsum("tki,tkj->tij", zv, mesh.grad_lambda)
    divz = Jz[:, 0, 0] + Jz[:, 1, 1]
    # int_T phi_a . (grad phi_b) z: the basis moments against z's vertex values
    transport = np.einsum("taik,tkj,tbij->tab", space.moments, zv, space.jac, optimize=True)
    blocks = [2.0 * mesh.areas[:, None, None] * (transport + 0.5 * divz[:, None, None] * space.mass_like)]

    s = edge_rule(EDGE_DEGREE).points
    for batch in disc.edge_batches(kind):
        zn = along_edges(np.einsum("exji,ei->exj", batch.field_ends(zv), batch.normal)[..., None], s)[..., 0]
        if batch.interior:
            zeta = 0.5 * (zn[:, 0] + zn[:, 1])
            # -1/2 <[z].n, {u.v}> pairs only one-sided traces, with {.} = 1/2 (plus + minus)
            skew = -0.25 * (zn[:, 0] - zn[:, 1])
            # upwind: each side's test rows see the jump where the averaged field enters that side
            into_plus, into_minus = np.maximum(-zeta, 0.0), np.maximum(zeta, 0.0)
            g = np.stack(
                [np.stack([skew + into_plus, -into_plus], axis=1), np.stack([-into_minus, skew + into_minus], axis=1)],
                axis=1,
            )
        else:
            zeta = zn[:, 0]
            g = (-0.5 * zeta + np.maximum(-zeta, 0.0))[:, None, None, :]
        blocks.append(batch.products(batch.h[:, None, None, None] * g))
    return disc.convection_pattern(kind).matrix(blocks)


def assemble_convection(mesh: MeshTopology, z, params: FormParams) -> sp.csr_matrix:
    """Picard convection matrix on the enriched space for the iterate z.

    In pressure-robust mode both the transport data and the trial/test slots
    act through the reconstruction: R^T C_bdm(R z) R.
    """
    disc = discretization(mesh)
    kind, zv = _transport(disc, z, params)
    C = _convection_on_space(disc, kind, zv)
    if params.pressure_robust:
        R = disc.reconstruction()
        return _finalize(R.T @ C @ R)
    return C


# -- right-hand side -----------------------------------------------------


def assemble_load(mesh: MeshTopology, f, params: FormParams) -> np.ndarray:
    """Body-force functional (f, v); reconstructed test functions in robust mode."""
    disc = discretization(mesh)
    rule = triangle_rule(VOLUME_DEGREE)
    fvals = np.asarray(f(map_to_triangle(rule, mesh.vertices[mesh.triangles])), dtype=float)
    space = disc.space("p1d" if params.pressure_robust else "eg")
    # int_T phi_a . f = 2 |T| sum_k,i phi_a,i(vertex k) int lam_k f_i
    f_lam = np.einsum("q,qk,tqi->tki", rule.weights, rule.points, fvals)
    loc = 2.0 * mesh.areas[:, None] * np.einsum("taki,tki->ta", space.vertex_values, f_lam)
    vec = np.zeros(space.n_dofs)
    np.add.at(vec, space.dofmap.ravel(), loc.ravel())
    if params.pressure_robust:
        return disc.reconstruction().T @ vec
    return vec


def convective_boundary_load(mesh: MeshTopology, z, g_nodal: np.ndarray, params: FormParams) -> np.ndarray:
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
    layout = layout_for(mesh)
    vec = np.zeros(layout.n_velocity)
    if params.pressure_robust or not g_nodal.any():
        return vec
    batch = discretization(mesh).boundary_batch("eg")
    if batch is None:
        return vec
    srule = edge_rule(EDGE_DEGREE)
    s, w = srule.points, srule.weights
    ztr = along_edges(batch.field_ends(vertex_values(z))[:, 0], s)
    w_in = np.maximum(-np.einsum("eqi,ei->eq", ztr, batch.normal), 0.0)
    gq = _boundary_data(mesh, g_nodal, s)
    gn = np.einsum("eqi,ei->eq", gq, batch.normal)
    traces = along_edges(batch.ends[:, 0], s)
    loc = batch.h[:, None] * np.einsum("q,eq,eqi,eaqi->ea", w, w_in - 0.5 * gn, gq, traces)
    np.add.at(vec, batch.dofs.ravel(), loc.ravel())
    return vec


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
    layout = layout_for(mesh)
    vec = np.zeros(layout.n_velocity)
    disc = discretization(mesh)
    batch = disc.boundary_batch("eg")
    if batch is None or not np.any(g_nodal):
        return vec
    srule = edge_rule(EDGE_DEGREE)
    s, w = srule.points, srule.weights
    gq = _boundary_data(mesh, g_nodal, s)
    pen = params.penalty * np.einsum("q,eqi,eaqi->ea", w, gq, along_edges(batch.ends[:, 0], s))
    gradn = np.einsum("eaij,ej->eai", disc.space("eg").jac[batch.tris[:, 0]], batch.normal)
    g_int = batch.h[:, None] * np.einsum("q,eqi->ei", w, gq)
    cons = np.einsum("eai,ei->ea", gradn, g_int)
    np.add.at(vec, batch.dofs.ravel(), (pen - cons).ravel())
    return vec


def divergence_boundary_load(mesh: MeshTopology, g_nodal: np.ndarray) -> np.ndarray:
    """Continuity right-hand side -<g.n, q> from the boundary jump data.

    Zero whenever the prescribed velocity is tangential (g.n = 0), as in the
    driven-cavity setup.
    """
    vec = np.zeros(mesh.num_triangles)
    eids = mesh.boundary_edge_ids
    if not len(eids) or not np.any(g_nodal):
        return vec
    srule = edge_rule(EDGE_DEGREE)
    gq = _boundary_data(mesh, g_nodal, srule.points)
    gn = mesh.edge_length[eids] * np.einsum("q,eqi,ei->e", srule.weights, gq, mesh.edge_normal[eids])
    np.add.at(vec, mesh.edge_tplus[eids], -gn)
    return vec


# -- boundary data and the saddle system ---------------------------------


def lid_values(mesh: MeshTopology, lid=(1.0, 0.0), leaky_corners: bool = True) -> dict[int, tuple[float, float]]:
    """Cavity boundary data: lid velocity on y = 1, rest at rest.

    By default the two lid corners take the lid value (leaky-cavity
    convention); with leaky_corners=False they stay at rest (watertight).
    """
    out = {}
    xmin, xmax = mesh.vertices[:, 0].min(), mesh.vertices[:, 0].max()
    for v in np.flatnonzero(mesh.is_boundary_vertex):
        x, y = mesh.vertices[v]
        on_lid = abs(y - 1.0) < 1e-12
        if on_lid and not leaky_corners and (abs(x - xmin) < 1e-12 or abs(x - xmax) < 1e-12):
            on_lid = False
        out[int(v)] = tuple(lid) if on_lid else (0.0, 0.0)
    return out


def dirichlet_data(mesh: MeshTopology, g: dict[int, tuple[float, float]] | None):
    """(dofs, values, nodal array) of the constrained nodal velocity dofs.

    g maps boundary vertex -> velocity; unlisted boundary vertices are fixed
    to zero, non-boundary keys are rejected.  Bubbles are never constrained.
    """
    g = g or {}
    for v in g:
        if not mesh.is_boundary_vertex[v]:
            raise ValueError(f"vertex {v} is not on the boundary")
    nodal = np.zeros((mesh.num_vertices, 2))
    for v, val in g.items():
        nodal[v] = val
    bverts = np.flatnonzero(mesh.is_boundary_vertex)
    dofs = np.concatenate([2 * bverts, 2 * bverts + 1])
    values = np.concatenate([nodal[bverts, 0], nodal[bverts, 1]])
    order = np.argsort(dofs)
    return dofs[order], values[order], nodal


@dataclass
class SaddleSystem:
    """Oseen system [mu A + C, -B^T; B, 0] on the free unknowns of one step.

    The unknowns are the unconstrained velocity dofs (`free_velocity`, in
    increasing order) followed by the pressures of cells 1..nt-1; the
    pressure of cell 0 is pinned to zero, and the Dirichlet values are
    lifted into rhs.  Cell 0's continuity row is left out of the square
    `matrix`: the left-hand sides of all continuity rows sum to zero, so one
    row is redundant when the data has zero net boundary flux and cannot
    hold otherwise.  It is kept as `pinned_row`/`pinned_rhs` so that the
    residual check still sees it.

    `preconditioner` optionally holds the LU factor of a nearby matrix with
    the same layout; solver.solve_linear then solves by preconditioned GMRES.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    pinned_row: sp.csr_matrix
    pinned_rhs: float
    layout: DofLayout
    free_velocity: np.ndarray
    areas: np.ndarray
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray
    preconditioner: object | None = None  # scipy SuperLU

    @property
    def velocity(self) -> slice:
        return slice(0, len(self.free_velocity))

    @property
    def pressure(self) -> slice:
        return slice(len(self.free_velocity), self.matrix.shape[0])

    def expand(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full velocity and zero-mean pressure vectors from a solution x of matrix."""
        u = np.empty(self.layout.n_velocity)
        u[self.dirichlet_dofs] = self.dirichlet_values
        u[self.free_velocity] = x[self.velocity]
        p = np.concatenate([[0.0], x[self.pressure]])
        # B^T annihilates constants, so shifting p leaves every equation intact
        p -= (self.areas @ p) / self.areas.sum()
        return u, p


def build_saddle_system(
    mesh: MeshTopology,
    params: FormParams,
    convection: sp.csr_matrix,
    load: np.ndarray,
    dirichlet=None,
    continuity_load: np.ndarray | None = None,
) -> SaddleSystem:
    """Assemble the saddle system of one Picard step on its free unknowns.

    dirichlet is (dofs, values) over nodal velocity dofs; their rows and
    columns are dropped and their values lifted into the right-hand side.
    continuity_load carries the boundary-data part of the divergence form
    (zero when omitted).  The viscous and divergence matrices come from the
    mesh's Discretization.  The pressure of cell 0 is pinned;
    solver.solve_linear restores the zero area-weighted mean afterwards
    (SaddleSystem.expand).
    """
    layout = layout_for(mesh)
    disc = discretization(mesh)
    A = disc.viscous(params)
    B = disc.divergence()
    K = (params.viscosity * A + convection).tocsr()
    cont = np.zeros(layout.n_pressure) if continuity_load is None else np.asarray(continuity_load, dtype=float)

    if dirichlet is None:
        dofs = np.empty(0, dtype=np.int64)
        values = np.empty(0)
    else:
        dofs, values = np.asarray(dirichlet[0], dtype=np.int64), np.asarray(dirichlet[1], dtype=float)
    free = np.setdiff1d(np.arange(layout.n_velocity), dofs)

    K_free = K[free]
    B_free = B[:, free]
    momentum = load[free] - K_free[:, dofs] @ values
    continuity = cont - B[:, dofs] @ values
    # pinning cell 0 drops its pressure column and sets its continuity row aside
    B_kept = B_free[1:]
    mat = sp.bmat([[K_free[:, free], -B_kept.T], [B_kept, None]], format="csr")
    pinned_row = sp.hstack([B_free[0], sp.csr_matrix((1, B_kept.shape[0]))], format="csr")

    return SaddleSystem(
        matrix=_finalize(mat),
        rhs=np.concatenate([momentum, continuity[1:]]),
        pinned_row=pinned_row,
        pinned_rhs=float(continuity[0]),
        layout=layout,
        free_velocity=free,
        areas=mesh.areas,
        dirichlet_dofs=dofs,
        dirichlet_values=values,
    )
