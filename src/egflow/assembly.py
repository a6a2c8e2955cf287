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

Every discrete velocity here is affine on each triangle, so all volume
integrands are low-degree polynomials; a single degree-6 triangle rule and a
4-point Gauss edge rule are used for every form, which integrates everything
except the upwind indicator exactly.

Linearization: the Picard matrix is c(z; u, v) with both the transport field
and the upwind geometry frozen at the previous iterate z.  The optional
Newton correction (experimental) adds the volume derivative block
(u.grad z, v) + 1/2 ((div u) z, v) while keeping the upwind terms frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import MeshTopology
from .quadrature import edge_rule, triangle_rule
from .reconstruction import BDMFunction, reconstruction_matrix
from .spaces import DofLayout, EGFunction, layout_for

VOLUME_DEGREE = 6
EDGE_DEGREE = 7  # 4-point Gauss


@dataclass(frozen=True)
class FormParams:
    """Physical and scheme parameters shared by all forms."""

    viscosity: float = 1.0
    penalty: float = 10.0
    pressure_robust: bool = False
    use_newton_experimental: bool = False


# -- element tables ------------------------------------------------------


class _SpaceTables:
    """Per-triangle basis data for one of the two local velocity bases.

    kind "eg": 6 nodal dofs (vertex, component) plus the barycenter bubble;
    kind "p1d": the 6 elementwise P1 dofs used for reconstructed fields.
    Every basis function is affine per triangle, so its Jacobian is constant.
    """

    def __init__(self, mesh: MeshTopology, kind: str):
        self.mesh = mesh
        self.kind = kind
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
        jac = np.zeros((nt, self.nl, 2, 2))
        for a in range(3):
            for i in range(2):
                jac[:, 2 * a + i, i, :] = mesh.grad_lambda[:, a, :]
        if kind == "eg":
            jac[:, 6] = np.eye(2)
        self.jac = jac
        self.div = jac[:, :, 0, 0] + jac[:, :, 1, 1]

    def volume_values(self, lam: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Basis values at volume points; lam (nq, 3) barycentric, pts (nt, nq, 2)."""
        nt, nq = pts.shape[0], pts.shape[1]
        vals = np.zeros((nt, self.nl, nq, 2))
        for a in range(3):
            for i in range(2):
                vals[:, 2 * a + i, :, i] = lam[None, :, a]
        if self.kind == "eg":
            vals[:, 6] = pts - self.mesh.barycenters[:, None, :]
        return vals

    def edge_traces(self, tris, la, lb, s, x) -> np.ndarray:
        """One-sided basis traces along edges.

        tris, la, lb: (nE,) triangle of the side and local endpoint indices;
        s: (nq,) edge parameters; x: (nE, nq, 2) physical points.
        """
        nE, nq = x.shape[0], x.shape[1]
        lamk = np.zeros((nE, 3, nq))
        lamk[np.arange(nE), la, :] = 1.0 - s[None, :]
        lamk[np.arange(nE), lb, :] = s[None, :]
        vals = np.zeros((nE, self.nl, nq, 2))
        for a in range(3):
            for i in range(2):
                vals[:, 2 * a + i, :, i] = lamk[:, a, :]
        if self.kind == "eg":
            vals[:, 6] = x - self.mesh.barycenters[tris][:, None, :]
        return vals


class _EdgeBatch:
    """Stacked one-sided trace data for the interior or the boundary edges.

    Interior batches stack plus-side entries before minus-side entries, so
    jump_sign is +1 on the first nl entries and -1 on the rest; boundary
    batches are one-sided with jump = average = trace.
    """

    def __init__(self, mesh: MeshTopology, space: _SpaceTables, eids: np.ndarray, s: np.ndarray):
        self.eids = eids
        self.n = len(eids)
        ev = mesh.edge_vertices[eids]
        pa, pb = mesh.vertices[ev[:, 0]], mesh.vertices[ev[:, 1]]
        self.x = (1.0 - s)[None, :, None] * pa[:, None, :] + s[None, :, None] * pb[:, None, :]
        self.normal = mesh.edge_normal[eids]
        self.h = mesh.edge_length[eids]
        tp = mesh.edge_tplus[eids]
        self.t_plus = tp
        tr_p = space.edge_traces(tp, mesh.edge_local_plus[eids, 0], mesh.edge_local_plus[eids, 1], s, self.x)
        self.interior = not bool(mesh.is_boundary_edge[eids[0]]) if self.n else False
        if self.interior:
            tm = mesh.edge_tminus[eids]
            self.t_minus = tm
            tr_m = space.edge_traces(tm, mesh.edge_local_minus[eids, 0], mesh.edge_local_minus[eids, 1], s, self.x)
            self.traces = np.concatenate([tr_p, tr_m], axis=1)
            self.jacs = np.concatenate([space.jac[tp], space.jac[tm]], axis=1)
            self.dofs = np.concatenate([space.dofmap[tp], space.dofmap[tm]], axis=1)
            self.jump_sign = np.concatenate([np.ones(space.nl), -np.ones(space.nl)])
            self.avg_factor = 0.5
        else:
            self.t_minus = None
            self.traces = tr_p
            self.jacs = space.jac[tp]
            self.dofs = space.dofmap[tp]
            self.jump_sign = np.ones(space.nl)
            self.avg_factor = 1.0
        self.width = self.traces.shape[1]


def _edge_batches(mesh: MeshTopology, space: _SpaceTables, s: np.ndarray):
    out = []
    for eids in (mesh.interior_edge_ids, mesh.boundary_edge_ids):
        if len(eids):
            out.append(_EdgeBatch(mesh, space, eids, s))
    return out


def _scatter(rows_dof, cols_dof, vals, shape) -> sp.csr_matrix:
    rows = np.broadcast_to(rows_dof[:, :, None], vals.shape).ravel()
    cols = np.broadcast_to(cols_dof[:, None, :], vals.shape).ravel()
    mat = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    return mat


def _finalize(mat: sp.csr_matrix) -> sp.csr_matrix:
    mat = mat.tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _volume_points(mesh: MeshTopology, rule):
    return np.einsum("qk,tki->tqi", rule.points, mesh.vertices[mesh.triangles])


def _affine_rep(z) -> tuple[np.ndarray, np.ndarray]:
    """(value at barycenter, constant Jacobian) per triangle of an affine field."""
    mesh = z.mesh
    if isinstance(z, EGFunction):
        nodal = z.nodal[mesh.triangles]  # (nt, 3, 2)
        v0 = nodal.mean(axis=1)  # bubble vanishes at the barycenter
        J = np.einsum("tki,tkj->tij", nodal, mesh.grad_lambda)
        J = J + z.bubble[:, None, None] * np.eye(2)[None, :, :]
        return v0, J
    if isinstance(z, BDMFunction):
        v0 = z.coeffs.mean(axis=1)
        J = np.einsum("tki,tkj->tij", z.coeffs, mesh.grad_lambda)
        return v0, J
    raise TypeError(f"unsupported field type {type(z).__name__}")


def _field_at(v0, J, tris, x, centers) -> np.ndarray:
    """Evaluate the affine field on given triangles at points x (nE, nq, 2)."""
    off = x - centers[tris][:, None, :]
    return v0[tris][:, None, :] + np.einsum("eij,eqj->eqi", J[tris], off)


# -- viscous and divergence forms ----------------------------------------


def _viscous_pieces(mesh: MeshTopology):
    """(volume stiffness, gradient-jump coupling, jump penalty) on the enriched space."""
    space = _SpaceTables(mesh, "eg")
    n = space.n_dofs
    K = _scatter(
        space.dofmap,
        space.dofmap,
        np.einsum("t,taij,tbij->tab", mesh.areas, space.jac, space.jac),
        (n, n),
    )
    srule = edge_rule(EDGE_DEGREE)
    w = srule.weights
    cons = sp.csr_matrix((n, n))
    pen = sp.csr_matrix((n, n))
    for batch in _edge_batches(mesh, space, srule.points):
        jump = batch.jump_sign[None, :, None, None] * batch.traces
        int_jump = batch.h[:, None, None] * np.einsum("q,eaqi->eai", w, jump)
        avg_grad_n = batch.avg_factor * np.einsum("ebij,ej->ebi", batch.jacs, batch.normal)
        cons = cons + _scatter(batch.dofs, batch.dofs, np.einsum("eai,ebi->eab", int_jump, avg_grad_n), (n, n))
        pen_loc = np.einsum("q,eaqi,ebqi->eab", w, jump, jump)
        pen = pen + _scatter(batch.dofs, batch.dofs, pen_loc, (n, n))
    return K, cons, pen


def assemble_viscous(mesh: MeshTopology, params: FormParams) -> sp.csr_matrix:
    """Interior-penalty viscous matrix (symmetric; excludes the viscosity factor)."""
    K, cons, pen = _viscous_pieces(mesh)
    return _finalize(K - cons - cons.T + params.penalty * pen)


def assemble_energy_gram(mesh: MeshTopology, penalty: float) -> sp.csr_matrix:
    """Gram matrix of the jump-augmented broken H1 norm: |grad|^2 + penalty |h^-1/2 [.]|^2."""
    K, _, pen = _viscous_pieces(mesh)
    return _finalize(K + penalty * pen)


def assemble_mass(mesh: MeshTopology) -> sp.csr_matrix:
    """L2 mass matrix of the enriched velocity space."""
    space = _SpaceTables(mesh, "eg")
    rule = triangle_rule(VOLUME_DEGREE)
    pts = _volume_points(mesh, rule)
    phi = space.volume_values(rule.points, pts)
    vals = 2.0 * mesh.areas[:, None, None] * np.einsum("q,taqi,tbqi->tab", rule.weights, phi, phi)
    return _finalize(_scatter(space.dofmap, space.dofmap, vals, (space.n_dofs, space.n_dofs)))


def assemble_divergence(mesh: MeshTopology) -> sp.csr_matrix:
    """Rows q (one per triangle), columns velocity dofs: b(u, q)."""
    space = _SpaceTables(mesh, "eg")
    nt = mesh.num_triangles
    shape = (nt, space.n_dofs)
    rows = np.broadcast_to(np.arange(nt)[:, None], space.dofmap.shape)
    vol = sp.coo_matrix(
        ((mesh.areas[:, None] * space.div).ravel(), (rows.ravel(), space.dofmap.ravel())), shape=shape
    ).tocsr()

    srule = edge_rule(EDGE_DEGREE)
    w = srule.weights
    B = vol
    for batch in _edge_batches(mesh, space, srule.points):
        jump = batch.jump_sign[None, :, None, None] * batch.traces
        jn = batch.h[:, None] * np.einsum("q,ebqi,ei->eb", w, jump, batch.normal)
        sides = [batch.t_plus] if batch.t_minus is None else [batch.t_plus, batch.t_minus]
        for tri_rows in sides:
            prow = np.broadcast_to(tri_rows[:, None], jn.shape)
            B = B + sp.coo_matrix(
                ((-batch.avg_factor * jn).ravel(), (prow.ravel(), batch.dofs.ravel())), shape=shape
            ).tocsr()
    return _finalize(B)


# -- convection ----------------------------------------------------------


def _convection_on_space(mesh: MeshTopology, space: _SpaceTables, v0, Jz, h_factor=None) -> sp.csr_matrix:
    """Picard convection matrix on the given local basis for the affine field (v0, Jz)."""
    n = space.n_dofs
    rule = triangle_rule(VOLUME_DEGREE)
    pts = _volume_points(mesh, rule)
    zq = v0[:, None, :] + np.einsum("tij,tqj->tqi", Jz, pts - mesh.barycenters[:, None, :])
    divz = Jz[:, 0, 0] + Jz[:, 1, 1]
    phi = space.volume_values(rule.points, pts)
    transport = np.einsum("q,taqi,tbij,tqj->tab", rule.weights, phi, space.jac, zq)
    mass_like = np.einsum("q,taqi,tbqi->tab", rule.weights, phi, phi)
    vol = 2.0 * mesh.areas[:, None, None] * (transport + 0.5 * divz[:, None, None] * mass_like)
    C = _scatter(space.dofmap, space.dofmap, vol, (n, n))

    srule = edge_rule(EDGE_DEGREE)
    w = srule.weights
    for batch in _edge_batches(mesh, space, srule.points):
        zp = _field_at(v0, Jz, batch.t_plus, batch.x, mesh.barycenters)
        if batch.interior:
            zm = _field_at(v0, Jz, batch.t_minus, batch.x, mesh.barycenters)
            zeta = 0.5 * np.einsum("eqi,ei->eq", zp + zm, batch.normal)
            zjn = np.einsum("eqi,ei->eq", zp - zm, batch.normal)
            nl = space.nl
            same = np.zeros((batch.width, batch.width))
            same[:nl, :nl] = 1.0
            same[nl:, nl:] = 1.0
        else:
            zeta = np.einsum("eqi,ei->eq", zp, batch.normal)
            zjn = zeta
            same = np.ones((batch.width, batch.width))

        tr = batch.traces
        # -1/2 <[z].n, {u.v}>: products pair only one-sided traces
        skew = np.einsum("q,eq,eaqi,ebqi->eab", w, zjn, tr, tr) * same[None, :, :]
        loc = -0.5 * batch.avg_factor * skew
        # upwind: each side contributes where the averaged field enters it
        w_plus = np.maximum(-zeta, 0.0)
        nl = space.nl
        up_p = np.einsum("q,eq,eaqi,ebqi->eab", w, w_plus, tr, tr)
        up_p = up_p * batch.jump_sign[None, None, :]
        if batch.interior:
            up_p[:, nl:, :] = 0.0  # test rows of the plus side only
            w_minus = np.maximum(zeta, 0.0)
            up_m = np.einsum("q,eq,eaqi,ebqi->eab", w, w_minus, tr, tr)
            up_m = up_m * (-batch.jump_sign[None, None, :])
            up_m[:, :nl, :] = 0.0
            loc = loc + up_p + up_m
        else:
            loc = loc + up_p
        C = C + _scatter(batch.dofs, batch.dofs, batch.h[:, None, None] * loc, (n, n))
    return C


def assemble_convection(mesh: MeshTopology, z, params: FormParams, R: sp.csr_matrix | None = None) -> sp.csr_matrix:
    """Picard convection matrix on the enriched space for the iterate z.

    In pressure-robust mode both the transport data and the trial/test slots
    act through the reconstruction: R^T C_bdm(R z) R.
    """
    if params.pressure_robust:
        if R is None:
            R = reconstruction_matrix(mesh)
        zb = BDMFunction.from_vector(mesh, R @ z.to_vector()) if isinstance(z, EGFunction) else z
        v0, Jz = _affine_rep(zb)
        Cb = _convection_on_space(mesh, _SpaceTables(mesh, "p1d"), v0, Jz)
        return _finalize(R.T @ Cb @ R)
    v0, Jz = _affine_rep(z)
    return _finalize(_convection_on_space(mesh, _SpaceTables(mesh, "eg"), v0, Jz))


def newton_volume_blocks(mesh: MeshTopology, z, params: FormParams, R: sp.csr_matrix | None = None):
    """Experimental Newton correction: volume derivative block and its rhs shift.

    Linearizing the volume part of c(u; u, v) at z adds (u.grad z, v)
    + 1/2 ((div u) z, v) to the matrix and (z.grad z, v) + 1/2 ((div z) z, v)
    to the right-hand side; upwind set and weight stay frozen at z.
    """

    def blocks_on(space, v0, Jz):
        rule = triangle_rule(VOLUME_DEGREE)
        pts = _volume_points(mesh, rule)
        zq = v0[:, None, :] + np.einsum("tij,tqj->tqi", Jz, pts - mesh.barycenters[:, None, :])
        divz = Jz[:, 0, 0] + Jz[:, 1, 1]
        phi = space.volume_values(rule.points, pts)
        t1 = np.einsum("q,taqi,tij,tbqj->tab", rule.weights, phi, Jz, phi)
        t2 = 0.5 * np.einsum("q,taqi,tqi,tb->tab", rule.weights, phi, zq, space.div)
        mat = _scatter(space.dofmap, space.dofmap, 2.0 * mesh.areas[:, None, None] * (t1 + t2), (space.n_dofs,) * 2)
        r1 = np.einsum("q,taqi,tij,tqj->ta", rule.weights, phi, Jz, zq)
        r2 = 0.5 * divz[:, None] * np.einsum("q,taqi,tqi->ta", rule.weights, phi, zq)
        vec = np.zeros(space.n_dofs)
        np.add.at(vec, space.dofmap.ravel(), (2.0 * mesh.areas[:, None] * (r1 + r2)).ravel())
        return mat, vec

    if params.pressure_robust:
        if R is None:
            R = reconstruction_matrix(mesh)
        zb = BDMFunction.from_vector(mesh, R @ z.to_vector()) if isinstance(z, EGFunction) else z
        v0, Jz = _affine_rep(zb)
        mat, vec = blocks_on(_SpaceTables(mesh, "p1d"), v0, Jz)
        return _finalize(R.T @ mat @ R), R.T @ vec
    v0, Jz = _affine_rep(z)
    mat, vec = blocks_on(_SpaceTables(mesh, "eg"), v0, Jz)
    return _finalize(mat), vec


# -- right-hand side -----------------------------------------------------


def assemble_load(mesh: MeshTopology, f, params: FormParams, R: sp.csr_matrix | None = None) -> np.ndarray:
    """Body-force functional (f, v); reconstructed test functions in robust mode."""
    rule = triangle_rule(VOLUME_DEGREE)
    pts = _volume_points(mesh, rule)
    fvals = np.asarray(f(pts), dtype=float)
    space = _SpaceTables(mesh, "p1d" if params.pressure_robust else "eg")
    phi = space.volume_values(rule.points, pts)
    loc = 2.0 * mesh.areas[:, None] * np.einsum("q,taqi,tqi->ta", rule.weights, phi, fvals)
    vec = np.zeros(space.n_dofs)
    np.add.at(vec, space.dofmap.ravel(), loc.ravel())
    if params.pressure_robust:
        if R is None:
            R = reconstruction_matrix(mesh)
        return R.T @ vec
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
    space = _SpaceTables(mesh, "eg")
    srule = edge_rule(EDGE_DEGREE)
    s, w = srule.points, srule.weights
    eids = mesh.boundary_edge_ids
    if not len(eids):
        return vec
    batch = _EdgeBatch(mesh, space, eids, s)
    v0, Jz = _affine_rep(z)
    ztr = _field_at(v0, Jz, batch.t_plus, batch.x, mesh.barycenters)
    w_in = np.maximum(-np.einsum("eqi,ei->eq", ztr, batch.normal), 0.0)
    ev = mesh.edge_vertices[eids]
    ga, gb = g_nodal[ev[:, 0]], g_nodal[ev[:, 1]]
    gq = (1.0 - s)[None, :, None] * ga[:, None, :] + s[None, :, None] * gb[:, None, :]
    gn = np.einsum("eqi,ei->eq", gq, batch.normal)
    loc = batch.h[:, None] * np.einsum("q,eq,eqi,eaqi->ea", w, w_in - 0.5 * gn, gq, batch.traces)
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
    eids = mesh.boundary_edge_ids
    if not len(eids) or not np.any(g_nodal):
        return vec
    space = _SpaceTables(mesh, "eg")
    srule = edge_rule(EDGE_DEGREE)
    s, w = srule.points, srule.weights
    batch = _EdgeBatch(mesh, space, eids, s)
    ev = mesh.edge_vertices[eids]
    ga, gb = g_nodal[ev[:, 0]], g_nodal[ev[:, 1]]
    gq = (1.0 - s)[None, :, None] * ga[:, None, :] + s[None, :, None] * gb[:, None, :]
    pen = params.penalty * np.einsum("q,eqi,eaqi->ea", w, gq, batch.traces)
    gradn = np.einsum("eaij,ej->eai", batch.jacs, batch.normal)
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
    s, w = srule.points, srule.weights
    ev = mesh.edge_vertices[eids]
    ga, gb = g_nodal[ev[:, 0]], g_nodal[ev[:, 1]]
    gq = (1.0 - s)[None, :, None] * ga[:, None, :] + s[None, :, None] * gb[:, None, :]
    gn = mesh.edge_length[eids] * np.einsum("q,eqi,ei->e", w, gq, mesh.edge_normal[eids])
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
    viscous: sp.csr_matrix | None = None,
    divergence: sp.csr_matrix | None = None,
    continuity_load: np.ndarray | None = None,
) -> SaddleSystem:
    """Assemble the saddle system of one Picard step on its free unknowns.

    dirichlet is (dofs, values) over nodal velocity dofs; their rows and
    columns are dropped and their values lifted into the right-hand side.
    continuity_load carries the boundary-data part of the divergence form
    (zero when omitted).  The pressure of cell 0 is pinned; solver.solve_linear
    restores the zero area-weighted mean afterwards (SaddleSystem.expand).
    """
    layout = layout_for(mesh)
    A = assemble_viscous(mesh, params) if viscous is None else viscous
    B = assemble_divergence(mesh) if divergence is None else divergence
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
