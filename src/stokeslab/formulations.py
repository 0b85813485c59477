"""Assembly of the four Stokes formulations.

Schemes:

* ``galerkin`` -- classical mixed form: momentum 2*nu*(grad w : grad v)
  - (div w, p) = (w, b), continuity -(div v, q) = 0.
* ``wvm`` -- weak variational multiscale: the fine scales are eliminated in
  an integral sense, giving tau(xi) = b(xi) * int(b) / int(|grad b|^2) > 0.
* ``svm`` -- strong variational multiscale: the fine-scale problem is solved
  pointwise, giving tau(xi) = b(xi) / lap(b)(xi) < 0.
* ``enriched`` -- bubble-enriched Galerkin with per-element static
  condensation of the fine-scale velocity coefficients.

The stabilized weak forms substitute the fine-scale velocity
v' = (1/2nu)*tau_eff*r, with coarse residual r = 2*nu*lap(v) - grad(p) + b
and tau_eff = |tau| > 0, into the two-level coarse problem: the momentum
row gains c(w; v') = -int(2nu*lap(w) . v') and the continuity row gains
d(v'; q) = int(v' . grad q).  With the continuity convention
b(v;q) = -(div v, q) used throughout, the resulting pressure-pressure
stabilization block is symmetric negative semidefinite for both schemes,
matching the sign of the condensed enriched block -K_pf K_ff^-1 K_fp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import basis_table, element_geometry, eval_bubble, integrate
from .kinds import ElementKind
from .linalg import (LinearSystem, SingularMatrixError, SparseMatrix, StokesBlocks,
                     assemble_vector)
from .mesh import LOCAL_FACETS, Mesh
from .quadrature import facet_rule, rule_for

SCHEMES = ("galerkin", "wvm", "svm", "enriched")


@dataclass(frozen=True)
class FormulationConfig:
    scheme: str
    nu: float = 1.0
    bp_epsilon: float = 0.0
    body_force: object = None  # callable (..., dim) points -> (..., dim), or None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; valid: {SCHEMES}")
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be positive and finite, got {self.nu!r}")
        if not (np.isfinite(self.bp_epsilon) and self.bp_epsilon >= 0):
            raise ValueError(f"bp_epsilon must be finite and >= 0, got {self.bp_epsilon!r}")
        if self.bp_epsilon > 0 and self.scheme in ("wvm", "svm"):
            raise ValueError("bp_epsilon applies to galerkin/enriched schemes only")


@dataclass(frozen=True)
class DofMap:
    """Equal-order nodal dofs: velocity components first (node-major), then
    one pressure dof per node."""

    n_nodes: int
    dim: int

    @property
    def n_velocity(self) -> int:
        return self.n_nodes * self.dim

    @property
    def n_pressure(self) -> int:
        return self.n_nodes

    @property
    def total(self) -> int:
        return self.n_velocity + self.n_pressure

    def vdof(self, node: int, comp: int) -> int:
        return node * self.dim + comp

    def pdof(self, node: int) -> int:
        return self.n_velocity + node

    def velocity_dofs(self, nodes) -> np.ndarray:
        """Velocity dofs of nodes (..., n), node-major: (..., n * dim)."""
        nodes = np.asarray(nodes, dtype=np.intp)
        dofs = nodes[..., None] * self.dim + np.arange(self.dim)
        return dofs.reshape(*nodes.shape[:-1], -1)

    def pressure_dofs(self, nodes) -> np.ndarray:
        return self.n_velocity + np.asarray(nodes, dtype=np.intp)


def build_dofmap(mesh: Mesh) -> DofMap:
    return DofMap(n_nodes=mesh.n_nodes, dim=mesh.dim)


@dataclass(frozen=True)
class FineBlocks:
    """Fine-scale (bubble) blocks of the enriched scheme, stacked over the
    elements, from which the condensed bubble coefficients are recovered.

    Element e has the fine block kff[e] * I, velocity coupling
    K_cf = s[e] (x) I and pressure coupling K_pf = kpf[e].
    """

    kff: np.ndarray    # (n_el,)
    s: np.ndarray      # (n_el, nen)
    kpf: np.ndarray    # (n_el, nen, dim)
    f_f: np.ndarray    # (n_el, dim)


def _wvm_coefficient(table, geom) -> np.ndarray:
    """Element-level int(b) / int(|grad_x b|^2) over each mapped element."""
    int_b = integrate(geom.wdet, table.b)
    int_g2 = integrate(geom.wdet, np.einsum("...pi,...pi->...p", geom.gb, geom.gb))
    if np.any(~(int_g2 > 0)):
        raise ValueError("degenerate element: zero bubble energy")
    return int_b / int_g2


def tau_at(scheme: str, kind: ElementKind, node_coords, xi) -> float:
    """Stabilization parameter at a reference point of one element."""
    if scheme not in ("wvm", "svm"):
        raise ValueError(f"tau is defined for wvm/svm, not {scheme!r}")
    table = basis_table(kind, rule_for(kind))
    geom = element_geometry(table, node_coords)
    bub = eval_bubble(kind, xi)
    if scheme == "wvm":
        return bub.b * float(_wvm_coefficient(table, geom))
    # pointwise geometry for the Laplacian at xi
    from .basis import jacobian_calc, laplacian_physical

    jac = jacobian_calc(kind, node_coords, xi)
    return bub.b / laplacian_physical(bub.grad_xi, bub.hess_xi, jac)


def _element_stacks(mesh, config, condensed=True):
    """Element blocks and loads of every element of the mesh at once.

    Returns the blocks (Kvv (n_el, nen, nen), Kvp (n_el, nen, dim, nen),
    Kpv (n_el, nen, nen, dim), Kpp (n_el, nen, nen)), where the element
    velocity block is Kvv (x) I_dim, the loads (fv (n_el, nen, dim),
    fp (n_el, nen)) and the FineBlocks of the enriched scheme (else None).
    For ``condensed=False`` the enriched blocks are left uncondensed.
    """
    kind, dim = mesh.kind, mesh.dim
    n_el, nen = mesh.elements.shape
    table = basis_table(kind, rule_for(kind))
    geom = mesh.geometry
    nu = config.nu
    wdet, G, N = geom.wdet, geom.G, table.N
    if config.body_force is None:
        bf = np.zeros_like(geom.x)
    else:
        bf = np.broadcast_to(np.asarray(config.body_force(geom.x), dtype=float),
                             geom.x.shape)

    Kvv = 2.0 * nu * np.einsum("ep,epia,epib->eab", wdet, G, G)
    Gvp = np.einsum("ep,epia,pb->eiab", wdet, G, N)
    Kvp = -Gvp.transpose(0, 2, 1, 3)
    Kpv = Kvp.transpose(0, 3, 1, 2).copy()
    Kpp = np.zeros((n_el, nen, nen))
    fv = np.einsum("ep,pa,epi->eai", wdet, N, bf)
    fp = np.zeros((n_el, nen))

    if config.scheme in ("wvm", "svm"):
        # Substituting v' = (1/2nu)*tau_eff*r into the coarse-scale problem
        # (momentum += c(w,v'), continuity += d(v',q)) gives identical terms
        # for both schemes in tau_eff = |tau| > 0; only the scalar profile
        # of tau differs.  The resulting pp block is symmetric NSD.
        lapN = geom.lapN
        if config.scheme == "wvm":
            tau_eff = table.b * _wvm_coefficient(table, geom)[:, None]
        else:
            tau_eff = -(table.b / geom.lapb)
        tw = wdet * tau_eff
        Kvv -= 2.0 * nu * np.einsum("ep,epa,epb->eab", tw, lapN, lapN)
        Kvp += np.einsum("ep,epa,epib->eiab", tw, lapN, G).transpose(0, 2, 1, 3)
        Kpv += np.einsum("ep,epja,epb->eabj", tw, G, lapN)
        Kpp -= (1.0 / (2.0 * nu)) * np.einsum("ep,epia,epib->eab", tw, G, G)
        fv += np.einsum("ep,epa,epi->eai", tw, lapN, bf)
        fp -= (1.0 / (2.0 * nu)) * np.einsum("ep,epia,epi->ea", tw, G, bf)

    if config.bp_epsilon > 0.0:
        # pressure-Laplacian stabilization, eps ~ h^2; negative because the
        # continuity row here carries b(v;q) = -(div v, q)
        eps = config.bp_epsilon * geom.detJ ** (2.0 / dim)
        Kpp -= np.einsum("ep,epia,epib->eab", wdet * eps, G, G)

    fine = None
    if config.scheme == "enriched":
        gb, b = geom.gb, table.b
        s = 2.0 * nu * np.einsum("ep,epia,epi->ea", wdet, G, gb)
        kff = 2.0 * nu * integrate(wdet, np.einsum("epi,epi->ep", gb, gb))
        Kpf = -np.einsum("ep,pa,epi->eai", wdet, N, gb)
        f_f = np.einsum("ep,p,epi->ei", wdet, b, bf)
        bad = ~(np.isfinite(kff) & (kff > 0))
        if np.any(bad):
            e = int(np.argmax(bad))
            raise SingularMatrixError(
                f"singular fine block in element {e} (kff={kff[e]:.3e}); "
                "degenerate element"
            )
        fine = FineBlocks(kff=kff, s=s, kpf=Kpf, f_f=f_f)
        if condensed:
            # the fine block is kff * I, so condensation is scalar:
            # K_cf K_ff^-1 K_fc = (s s^T / kff) (x) I
            inv = 1.0 / kff
            s_inv = s * inv[:, None]
            Kpf_inv = Kpf * inv[:, None, None]
            Kvv -= s[:, :, None] * s[:, None, :] / kff[:, None, None]
            Kvp -= s_inv[:, :, None, None] * Kpf.transpose(0, 2, 1)[:, None, :, :]
            Kpv -= Kpf_inv[:, :, None, :] * s[:, None, :, None]
            Kpp -= np.matmul(Kpf_inv, Kpf.transpose(0, 2, 1))
            fv -= s_inv[:, :, None] * f_f[:, None, :]
            fp -= np.matmul(Kpf_inv, f_f[:, :, None])[:, :, 0]
    return (Kvv, Kvp, Kpv, Kpp), (fv, fp), fine


def _assemble(mesh, config, dofmap, condensed=True):
    """Global system from the element stacks.  Every block is summed on the
    mesh's node pattern in one call, and the right-hand side in another;
    only the uncondensed enriched system, whose fine dofs lie outside the
    blocks, gets its matrix at once."""
    (Kvv, Kvp, Kpv, Kpp), (fv, fp), fine = _element_stacks(mesh, config, condensed)
    n_el, nen, dim = Kvp.shape[:3]
    stack = np.concatenate([Kvv[None], Kvv[None] * 0.0, Kvp.transpose(2, 0, 1, 3),
                            Kpv.transpose(3, 0, 1, 2), Kpp[None]])
    sums = mesh.node_pattern.sum(stack.reshape(len(stack), -1))
    blocks = StokesBlocks(mesh.node_pattern, dim, K=sums[0], zero=sums[1],
                          G=sums[2:2 + dim], B=sums[2 + dim:2 + 2 * dim], Kpp=sums[-1])
    idx = [dofmap.velocity_dofs(mesh.elements), dofmap.pressure_dofs(mesh.elements)]
    loads = [fv.reshape(n_el, -1), fp]
    if condensed:
        rhs = assemble_vector(dofmap.total, np.concatenate(idx, 1), np.concatenate(loads, 1))
        return LinearSystem(None, rhs, blocks=blocks), fine
    # fine dofs appended per element; each fine entry belongs to one element
    total = dofmap.total + n_el * dim
    fdofs = dofmap.total + np.arange(n_el * dim).reshape(n_el, dim)
    coarse = np.concatenate(idx, 1)
    Kcf = np.concatenate([(fine.s[:, :, None, None] * np.eye(dim)).reshape(n_el, -1, dim),
                          fine.kpf], 1)
    Kff = fine.kff[:, None, None] * np.eye(dim)
    parts = [blocks.triplets(),
             (coarse[:, :, None], fdofs[:, None, :], Kcf),
             (fdofs[:, :, None], coarse[:, None, :], Kcf.transpose(0, 2, 1)),
             (fdofs[:, :, None], fdofs[:, None, :], Kff)]
    rows, cols, vals = (np.concatenate([np.broadcast_to(p[i], p[2].shape).ravel()
                                        for p in parts]) for i in range(3))
    rhs = assemble_vector(total, np.concatenate(idx + [fdofs], 1),
                          np.concatenate(loads + [fine.f_f], 1))
    return LinearSystem(SparseMatrix.from_triplets(total, total, rows, cols, vals), rhs), fine


def assemble(mesh: Mesh, config: FormulationConfig, dofmap: DofMap = None) -> LinearSystem:
    """Assemble the global (unconstrained) system for the configured scheme."""
    dofmap = dofmap or build_dofmap(mesh)
    system, _ = _assemble(mesh, config, dofmap)
    return system


def assemble_enriched(mesh: Mesh, config: FormulationConfig, dofmap: DofMap = None):
    """Condensed enriched system plus the stacked fine-scale blocks."""
    dofmap = dofmap or build_dofmap(mesh)
    if config.scheme != "enriched":
        raise ValueError("assemble_enriched requires scheme='enriched'")
    return _assemble(mesh, config, dofmap)


def assemble_enriched_full(mesh: Mesh, config: FormulationConfig, dofmap: DofMap = None):
    """Uncondensed three-field system with fine dofs appended per element.

    Used as the oracle for the static-condensation identity.
    """
    dofmap = dofmap or build_dofmap(mesh)
    if config.scheme != "enriched":
        raise ValueError("assemble_enriched_full requires scheme='enriched'")
    system, _ = _assemble(mesh, config, dofmap, condensed=False)
    return system


def recover_fine(solution, fine: FineBlocks, mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """Fine-scale coefficients beta per element from the condensed solution."""
    solution = np.asarray(solution, dtype=float)
    v = solution[dofmap.velocity_dofs(mesh.elements)].reshape(
        mesh.n_elements, -1, mesh.dim)
    p = solution[dofmap.pressure_dofs(mesh.elements)]
    rhs = (fine.f_f - np.einsum("ea,eai->ei", fine.s, v)
           - np.einsum("eai,ea->ei", fine.kpf, p))
    return rhs / fine.kff[:, None]


def _facet_shapes(kind: ElementKind, points):
    """Shape functions (n_q, nfn) of a kind's facet at facet rule points, and
    their derivatives along the facet's reference coordinates (n_q, fdim, nfn).
    """
    n_q = len(points)
    if kind is ElementKind.T3:  # 2-node edge on t in [0, 1]
        t = points[:, 0]
        return np.stack([1 - t, t], -1), np.broadcast_to([[-1.0, 1.0]], (n_q, 1, 2))
    if kind is ElementKind.Q4:  # 2-node edge on t in [-1, 1]
        t = points[:, 0]
        return (np.stack([(1 - t) / 2, (1 + t) / 2], -1),
                np.broadcast_to([[-0.5, 0.5]], (n_q, 1, 2)))
    u, v = points.T
    if kind is ElementKind.TET4:  # linear triangle
        return (np.stack([1 - u - v, u, v], -1),
                np.broadcast_to([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]], (n_q, 2, 3)))
    # B8: bilinear quadrilateral on [-1, 1]^2
    shp = 0.25 * np.stack([(1 - u) * (1 - v), (1 + u) * (1 - v),
                           (1 + u) * (1 + v), (1 - u) * (1 + v)], -1)
    du = 0.25 * np.stack([-(1 - v), (1 - v), (1 + v), -(1 + v)], -1)
    dv = 0.25 * np.stack([-(1 - u), -(1 + u), (1 + u), (1 - u)], -1)
    return shp, np.stack([du, dv], 1)


def add_traction(system: LinearSystem, mesh: Mesh, tag: str, traction,
                 dofmap: DofMap) -> None:
    """Add the facet traction term int(w . t) over a tagged boundary.

    traction follows the case-callable contract: it is called once with the
    (n_facets, n_q, dim) quadrature points and returns (..., dim) values.
    """
    pairs = mesh.boundary_faces.get(tag)
    if pairs is None:
        valid = ", ".join(sorted(mesh.boundary_faces))
        raise ValueError(f"unknown face tag {tag!r}; have: {valid}")
    frule = facet_rule(mesh.kind)
    shp, dshp = _facet_shapes(mesh.kind, frule.points)
    local = np.array(LOCAL_FACETS[mesh.kind])
    fnodes = mesh.elements[pairs[:, :1], local[pairs[:, 1]]]  # (n_f, nfn)
    coords = mesh.nodes[fnodes]
    x = np.einsum("qa,fai->fqi", shp, coords)
    tangents = np.einsum("qka,fai->fqki", dshp, coords)
    if mesh.dim == 2:
        jac = np.linalg.norm(tangents[:, :, 0], axis=-1)
    else:
        jac = np.linalg.norm(np.cross(tangents[:, :, 0], tangents[:, :, 1]), axis=-1)
    t = np.broadcast_to(np.asarray(traction(x), dtype=float), x.shape)
    values = np.einsum("fq,qa,fqi->fai", frule.weights * jac, shp, t)
    system.rhs += assemble_vector(system.rhs.size, dofmap.velocity_dofs(fnodes),
                                  values.reshape(len(fnodes), -1))
