"""Assembly of the four Stokes formulations.

Schemes:

* ``galerkin`` -- classical mixed form: momentum 2*nu*(grad w : grad v)
  - (div w, p) = (w, b), continuity -(div v, q) = 0.
* ``wvm`` -- weak variational multiscale: the fine scales are eliminated in
  an integral sense, giving tau(xi) = b(xi) * int(b) / int(|grad b|^2) > 0.
* ``svm`` -- strong variational multiscale: the fine-scale problem is solved
  pointwise, giving tau(xi) = b(xi) / lap(b)(xi), negative where lap(b) < 0.
* ``enriched`` -- bubble-enriched Galerkin with per-element static
  condensation of the fine-scale velocity coefficients.

The stabilized weak forms substitute the fine-scale velocity
v' = (1/2nu)*tau_eff*r, with coarse residual r = 2*nu*lap(v) - grad(p) + b
and tau_eff = tau (wvm) or -tau (svm), into the two-level coarse problem:
the momentum row gains c(w; v') = -int(2nu*lap(w) . v') and the continuity
row gains d(v'; q) = int(v' . grad q).  With the continuity convention
b(v;q) = -(div v, q) used throughout, the pressure-pressure stabilization
block is symmetric, and negative semidefinite like the condensed enriched
block -K_pf K_ff^-1 K_fp where tau_eff > 0: always for wvm, but for svm
only where lap(b) < 0, which fails at some points of distorted simplices.
Every scheme's coupling is symmetric, so it is stored once, as the
velocity-pressure block, and the pressure rows are its transpose.  One
element kernel serves all four: the same Galerkin stacks for every scheme,
to which wvm/svm add their stabilization terms in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import basis_table, element_geometry, integrate, tabulate
from .kinds import ElementKind
from .linalg import (LinearSystem, SingularMatrixError, SolveAccuracyError, TripletPattern,
                     split_dofs)
from .mesh import Mesh

SCHEMES = ("galerkin", "wvm", "svm", "enriched")


@dataclass(frozen=True)
class FormulationConfig:
    scheme: str
    nu: float = 1.0
    bp_epsilon: float = 0.0
    body_force: object = None  # callable (..., dim) points -> (..., dim), or None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown formulation {self.scheme!r}; "
                             f"valid schemes: {', '.join(SCHEMES)}")
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be positive and finite, got {self.nu!r}")
        if not (np.isfinite(self.bp_epsilon) and self.bp_epsilon >= 0):
            raise ValueError(f"bp_epsilon must be finite and >= 0, got {self.bp_epsilon!r}")
        if self.bp_epsilon > 0 and self.scheme in ("wvm", "svm"):
            raise ValueError("bp_epsilon applies to galerkin/enriched schemes only")


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


def _bubble_energy(geom) -> np.ndarray:
    """int(|grad_x b|^2) over each mapped element."""
    return integrate(geom.wdet, np.einsum("...pi,...pi->...p", geom.gb, geom.gb))


def _wvm_coefficient(table, geom) -> np.ndarray:
    """Element-level int(b) / int(|grad_x b|^2) over each mapped element."""
    energy = _bubble_energy(geom)
    if np.any(~(energy > 0)):
        raise ValueError("degenerate element: zero bubble energy")
    return integrate(geom.wdet, table.b) / energy


def tau_at(scheme: str, kind: ElementKind, node_coords, xi) -> float:
    """Stabilization parameter at a reference point of one element; svm's
    b / lap(b) comes from element_geometry, as in assembly."""
    if scheme not in ("wvm", "svm"):
        raise ValueError(f"tau is defined for wvm/svm, not {scheme!r}")
    point = tabulate(kind, np.asarray(xi, dtype=float)[None], np.ones(1))
    if scheme == "wvm":
        table = basis_table(kind)
        return float(point.b[0] * _wvm_coefficient(table, element_geometry(table, node_coords)))
    return float(point.b[0] / element_geometry(point, node_coords).lapb[0])


def _element_stacks(mesh, config):
    """Element blocks and loads of every element of the mesh at once.

    Returns the blocks as one (2 + dim, n_el, nen, nen) array: Kvv, where
    the element velocity block is Kvv (x) I_dim, the coupling of each
    velocity component to the pressure, whose transpose is the pressure
    rows, and Kpp; the loads (fv (n_el, nen, dim), fp (n_el, nen)) and the
    FineBlocks of the enriched scheme (else None); the enriched blocks and
    loads come with the fine scales condensed out.

    Every block and load is a stacked matmul over the flattened
    (quadrature, component) axis of G, a view of the geometry's
    C-contiguous G as (e, np*dim, nen); the blocks are written into their
    views of the one array, or added onto them, in place.  Every scheme
    forms the same Galerkin part, to which wvm/svm add their terms; the
    Brezzi-Pitkaranta term and the enriched fine blocks use the same
    operands, multiplied separately rather than concatenated, which would
    hold a second copy of G.
    """
    n_el, nen = mesh.elements.shape
    dim, geom, table, nu = mesh.dim, mesh.geometry, basis_table(mesh.kind), config.nu
    wdet, N = geom.wdet, table.N
    if config.body_force is None:
        bf = np.zeros_like(geom.x)
    else:
        bf = np.broadcast_to(np.asarray(config.body_force(geom.x), dtype=float),
                             geom.x.shape)

    K = np.zeros((2 + dim, n_el, nen, nen))
    Kvv, Kvp, Kpp = K[0], K[1:-1].transpose(1, 2, 0, 3), K[-1]  # Kvp: (e, nen, dim, nen)
    Gf = geom.G.reshape(n_el, -1, nen)  # (e, np*dim, nen)
    wG = (wdet[:, :, None, None] * geom.G).reshape(Gf.shape)
    np.matmul(np.swapaxes(wG, 1, 2), Gf, out=Kvv)
    np.matmul(wG.reshape(n_el, -1, dim, nen).transpose(0, 2, 3, 1), N, out=K[1:-1].swapaxes(0, 1))
    np.negative(Kvp, out=Kvp)
    del wG
    fp, tl = np.zeros((n_el, nen)), None
    if config.scheme in ("wvm", "svm"):
        # Substituting v' = (1/2nu)*tau_eff*r into the coarse-scale problem
        # (momentum += c(w,v'), continuity += d(v',q)) gives identical terms
        # for both schemes in tau_eff; only the scalar profile of tau
        # differs.  The pp block is NSD where tau_eff > 0 (see above).
        if config.scheme == "wvm":
            tau_eff = table.b * _wvm_coefficient(table, geom)[:, None]
        else:
            tau_eff = -(table.b / geom.lapb)
        tw = wdet * tau_eff
        tG = np.swapaxes((tw[:, :, None, None] * geom.G).reshape(Gf.shape), 1, 2)
        np.matmul(tG, Gf, out=Kpp)
        Kpp *= -(1.0 / (2.0 * nu))
        fp = -(1.0 / (2.0 * nu)) * (tG @ bf.reshape(n_el, -1, 1))[:, :, 0]
        del tG
        tl = np.swapaxes(tw[:, :, None] * geom.lapN, 1, 2)  # (e, nen, np)
        Kvv -= tl @ geom.lapN
        Kvp += (tl @ Gf.reshape(n_el, -1, dim * nen)).reshape(n_el, nen, dim, nen)
    fw = np.swapaxes(wdet[:, :, None] * N, 1, 2)  # (e, nen, np), formed after tG is freed
    if tl is not None:
        fw += tl
    Kvv *= 2.0 * nu
    fv = fw @ bf

    if config.bp_epsilon > 0.0:
        # pressure-Laplacian stabilization, eps ~ h^2; negative because the
        # continuity row here carries b(v;q) = -(div v, q)
        eps = config.bp_epsilon * geom.detJ ** (2.0 / dim)
        Kpp -= np.swapaxes(((wdet * eps)[:, :, None, None] * geom.G).reshape(Gf.shape), 1, 2) @ Gf

    fine = None
    if config.scheme == "enriched":
        gb, b = geom.gb, table.b
        s = 2.0 * nu * ((wdet[:, :, None] * gb).reshape(n_el, 1, -1) @ Gf)[:, 0]
        kff = 2.0 * nu * _bubble_energy(geom)
        Kpf = -(fw @ gb)
        f_f = ((wdet * b)[:, None, :] @ bf)[:, 0]
        bad = ~(np.isfinite(kff) & (kff > 0))
        if np.any(bad):
            e = int(np.argmax(bad))
            raise SingularMatrixError(
                f"singular fine block in element {e} (kff={kff[e]:.3e}); "
                "degenerate element"
            )
        fine = FineBlocks(kff=kff, s=s, kpf=Kpf, f_f=f_f)
        # the fine block is kff * I, so condensation is scalar:
        # K_cf K_ff^-1 K_fc = (s s^T / kff) (x) I
        inv = 1.0 / kff
        s_inv = s * inv[:, None]
        Kpf_inv = Kpf * inv[:, None, None]
        Kvv -= s[:, :, None] * s[:, None, :] / kff[:, None, None]
        Kvp -= s_inv[:, :, None, None] * Kpf.transpose(0, 2, 1)[:, None, :, :]
        Kpp -= np.matmul(Kpf_inv, Kpf.transpose(0, 2, 1))
        fv -= s_inv[:, :, None] * f_f[:, None, :]
        fp -= np.matmul(Kpf_inv, f_f[:, :, None])[:, :, 0]
    return K, (fv, fp), fine


def assemble(mesh: Mesh, config: FormulationConfig) -> tuple[LinearSystem, FineBlocks | None]:
    """Global (unconstrained) system of the configured scheme, and the
    FineBlocks of the enriched scheme (else None).  The one array of 2 + dim
    blocks is summed on the mesh's node pattern, and the dim + 1 load rows
    on the pattern of the element nodes.  A sum that is not finite (nu
    overflows a term) raises SolveAccuracyError."""
    dim = mesh.dim
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        K, (fv, fp), fine = _element_stacks(mesh, config)
        sums = mesh.node_pattern.sum(K.reshape(2 + dim, -1))
        del K  # freed before the mesh's pressure mass is summed below
        nodal = TripletPattern.build(mesh.n_nodes, 1, mesh.elements.ravel(),
                                     np.zeros(mesh.elements.size, dtype=np.intp))
        loads = nodal.sum(np.concatenate([fv.transpose(2, 0, 1), fp[None]]).reshape(dim + 1, -1))
    if not (np.isfinite(sums).all() and np.isfinite(loads).all()):
        raise SolveAccuracyError(
            f"the assembled {config.scheme} system is not finite at nu = {config.nu!r}")
    rhs = np.zeros(mesh.n_nodes * (dim + 1))
    velocity, pressure = split_dofs(rhs, dim)
    velocity[nodal.rows] += loads[:dim].T  # adding to +0.0 turns a -0.0 sum into +0.0
    pressure[nodal.rows] += loads[dim]
    return LinearSystem(mesh.node_pattern, K=sums[0], G=sums[1:1 + dim], Kpp=sums[-1],
                        M=mesh.pressure_mass, rhs=rhs, rhs0=rhs,
                        constraints=np.full(rhs.size, np.nan)), fine


def recover_fine(solution, fine: FineBlocks, mesh: Mesh) -> np.ndarray:
    """Fine-scale coefficients beta per element from the condensed solution."""
    velocity, pressure = split_dofs(np.asarray(solution, dtype=float), mesh.dim)
    v, p = velocity[mesh.elements], pressure[mesh.elements]
    rhs = (fine.f_f - np.einsum("ea,eai->ei", fine.s, v)
           - np.einsum("eai,ea->ei", fine.kpf, p))
    return rhs / fine.kff[:, None]
