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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import basis_table, element_geometry, integrate, tabulate
from .kinds import ElementKind
from .linalg import LinearSystem, SingularMatrixError, StokesBlocks, assemble_vector, split_dofs
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
            raise ValueError(f"unknown scheme {self.scheme!r}; valid: {SCHEMES}")
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


def _wvm_coefficient(table, geom) -> np.ndarray:
    """Element-level int(b) / int(|grad_x b|^2) over each mapped element."""
    int_b = integrate(geom.wdet, table.b)
    int_g2 = integrate(geom.wdet, np.einsum("...pi,...pi->...p", geom.gb, geom.gb))
    if np.any(~(int_g2 > 0)):
        raise ValueError("degenerate element: zero bubble energy")
    return int_b / int_g2


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

    Returns the blocks (Kvv (n_el, nen, nen), Kvp (n_el, nen, dim, nen),
    Kpv (n_el, nen, nen, dim), Kpp (n_el, nen, nen)), where the element
    velocity block is Kvv (x) I_dim, the loads (fv (n_el, nen, dim),
    fp (n_el, nen)) and the FineBlocks of the enriched scheme (else None);
    the enriched blocks and loads come with the fine scales condensed out.

    The wvm/svm terms are stacked matmuls over the flattened quadrature and
    component axes; the other terms keep their einsums, because acceptance
    criterion 2 solves singular enriched systems whose verdict turns on the
    last bits of these blocks.
    """
    kind, dim = mesh.kind, mesh.dim
    n_el, nen = mesh.elements.shape
    table = basis_table(kind)
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
        # for both schemes in tau_eff; only the scalar profile of tau
        # differs.  The pp block is NSD where tau_eff > 0 (see above).
        if config.scheme == "wvm":
            tau_eff = table.b * _wvm_coefficient(table, geom)[:, None]
        else:
            tau_eff = -(table.b / geom.lapb)
        tw = wdet * tau_eff
        tl = np.swapaxes(tw[:, :, None] * geom.lapN, 1, 2)  # (e, nen, np)
        tG = np.swapaxes((tw[:, :, None, None] * G).reshape(n_el, -1, nen), 1, 2)
        # one product for the coupling, so B_i is G_i^T bit for bit
        X = (tl @ G.reshape(n_el, -1, dim * nen)).reshape(n_el, nen, dim, nen)
        Kvv -= 2.0 * nu * (tl @ geom.lapN)
        Kvp += X
        Kpv += X.transpose(0, 3, 1, 2)
        Kpp -= (1.0 / (2.0 * nu)) * (tG @ G.reshape(n_el, -1, nen))
        fv += tl @ bf
        fp -= (1.0 / (2.0 * nu)) * (tG @ bf.reshape(n_el, -1, 1))[:, :, 0]

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


def assemble(mesh: Mesh, config: FormulationConfig) -> tuple[LinearSystem, FineBlocks | None]:
    """Global (unconstrained) system of the configured scheme, and the
    FineBlocks of the enriched scheme (else None).  Every block is summed
    on the mesh's node pattern in one call, and the right-hand side in
    another."""
    (Kvv, Kvp, Kpv, Kpp), (fv, fp), fine = _element_stacks(mesh, config)
    n_el, nen, dim = Kvp.shape[:3]
    stack = np.concatenate([Kvv[None], Kvp.transpose(2, 0, 1, 3),
                            Kpv.transpose(3, 0, 1, 2), Kpp[None]])
    sums = mesh.node_pattern.sum(stack.reshape(len(stack), -1))
    blocks = StokesBlocks(mesh.node_pattern, dim, K=sums[0], G=sums[1:1 + dim],
                          B=sums[1 + dim:1 + 2 * dim], Kpp=sums[-1])
    velocity, pressure = split_dofs(np.arange(mesh.n_nodes * (dim + 1)), dim)
    idx = np.concatenate([velocity[mesh.elements].reshape(n_el, -1), pressure[mesh.elements]], 1)
    rhs = assemble_vector(velocity.size + pressure.size, idx,
                          np.concatenate([fv.reshape(n_el, -1), fp], 1))
    return LinearSystem(blocks, rhs), fine


def recover_fine(solution, fine: FineBlocks, mesh: Mesh) -> np.ndarray:
    """Fine-scale coefficients beta per element from the condensed solution."""
    velocity, pressure = split_dofs(np.asarray(solution, dtype=float), mesh.dim)
    v, p = velocity[mesh.elements], pressure[mesh.elements]
    rhs = (fine.f_f - np.einsum("ea,eai->ei", fine.s, v)
           - np.einsum("eai,ea->ei", fine.kpf, p))
    return rhs / fine.kff[:, None]
