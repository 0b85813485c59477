"""Shape functions, bubble functions, and isoparametric Jacobian calculus.

Provides first and second parametric derivatives of the standard linear /
bilinear / trilinear bases, the standard bubble of each element kind, and
the machinery needed to evaluate physical Laplacians on distorted elements:
the divergence of the inverse Jacobian and the chain-rule Laplacian built
from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinds import ElementKind

# Reference corner coordinates, fixed node order (CCW / VTK).
_Q4_CORNERS = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
_B8_CORNERS = np.array(
    [
        (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
        (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
    ],
    dtype=float,
)


class SingularJacobianError(RuntimeError):
    """Raised when an element is (nearly) inverted at an evaluation point."""


@dataclass(frozen=True)
class BasisEval:
    """Shape values and parametric derivatives at one reference point.

    D2N rows hold the dim*dim second derivatives of one shape function in
    row-major (m, s) order; the layout matches the contraction used by the
    divergence-of-J-inverse identity.
    """

    N: np.ndarray        # (nen,)
    DN: np.ndarray       # (nen, dim)
    D2N: np.ndarray      # (nen, dim*dim)


@dataclass(frozen=True)
class BubbleEval:
    b: float
    grad_xi: np.ndarray   # (dim,)
    hess_xi: np.ndarray   # (dim, dim)


@dataclass(frozen=True)
class JacobianCalc:
    J: np.ndarray         # (dim, dim), dx/dxi
    Jinv: np.ndarray
    detJ: float
    divJinv: np.ndarray   # (dim,), d(Jinv[p,k])/dx_k


def eval_basis(kind: ElementKind, xi) -> BasisEval:
    """Evaluate N, DN, D2N at a reference coordinate."""
    xi = np.asarray(xi, dtype=float)
    d = kind.dim
    if kind is ElementKind.T3:
        x, y = xi
        N = np.array([1 - x - y, x, y])
        DN = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        D2N = np.zeros((3, 4))
    elif kind is ElementKind.TET4:
        x, y, z = xi
        N = np.array([1 - x - y - z, x, y, z])
        DN = np.array(
            [[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        D2N = np.zeros((4, 9))
    else:
        corners = _Q4_CORNERS if kind is ElementKind.Q4 else _B8_CORNERS
        scale = 0.25 if kind is ElementKind.Q4 else 0.125
        # factors[a, i] = 1 + xi_i * corner_{a,i}
        factors = 1.0 + corners * xi[None, :]
        N = scale * np.prod(factors, axis=1)
        nen = corners.shape[0]
        DN = np.empty((nen, d))
        for m in range(d):
            others = [i for i in range(d) if i != m]
            DN[:, m] = scale * corners[:, m] * np.prod(factors[:, others], axis=1)
        D2N = np.zeros((nen, d, d))
        for m in range(d):
            for s in range(d):
                if m == s:
                    continue
                others = [i for i in range(d) if i not in (m, s)]
                prod = np.prod(factors[:, others], axis=1) if others else 1.0
                D2N[:, m, s] = scale * corners[:, m] * corners[:, s] * prod
        D2N = D2N.reshape(nen, d * d)
    return BasisEval(N=N, DN=DN, D2N=D2N)


def eval_bubble(kind: ElementKind, xi) -> BubbleEval:
    """Evaluate the standard bubble of the element kind and its derivatives."""
    xi = np.asarray(xi, dtype=float)
    if kind is ElementKind.T3:
        x, y = xi
        s = 1 - x - y
        b = x * y * s
        grad = np.array([y * (s - x), x * (s - y)])
        hess = np.array([[-2 * y, s - x - y], [s - x - y, -2 * x]])
    elif kind is ElementKind.TET4:
        x, y, z = xi
        s = 1 - x - y - z
        b = x * y * z * s
        grad = np.array([y * z * (s - x), x * z * (s - y), x * y * (s - z)])
        hess = np.array(
            [
                [-2 * y * z, z * (s - x - y), y * (s - x - z)],
                [z * (s - x - y), -2 * x * z, x * (s - y - z)],
                [y * (s - x - z), x * (s - y - z), -2 * x * y],
            ]
        )
    else:
        d = kind.dim
        P = 1.0 - xi**2
        b = float(np.prod(P))
        grad = np.empty(d)
        hess = np.empty((d, d))
        for i in range(d):
            rest = np.prod([P[j] for j in range(d) if j != i])
            grad[i] = -2 * xi[i] * rest
            hess[i, i] = -2 * rest
            for j in range(i + 1, d):
                rest2 = np.prod([P[k] for k in range(d) if k not in (i, j)])
                hess[i, j] = hess[j, i] = 4 * xi[i] * xi[j] * rest2
    return BubbleEval(b=float(b), grad_xi=grad, hess_xi=hess)


def jacobian_calc(kind: ElementKind, node_coords, xi) -> JacobianCalc:
    """Jacobian, its inverse and determinant, and div(J^-1) at xi: the
    element_geometry of a one-point table.  Besides an inverted element, it
    refuses one whose detJ is tiny against its size, |detJ| < 1e-14 h^dim.
    """
    node_coords = np.asarray(node_coords, dtype=float)
    table = tabulate(kind, np.asarray(xi, dtype=float)[None], np.ones(1))
    J, detJ = jacobians(table.DN, node_coords)
    scale = float(np.max(np.ptp(node_coords, axis=0)))
    if detJ[0] < 1e-14 * max(scale, 1e-300) ** kind.dim:
        raise SingularJacobianError(
            f"singular Jacobian (detJ={detJ[0]:.3e}) at xi={np.asarray(xi)}")
    geom = element_geometry(table, node_coords)
    return JacobianCalc(J=J[0], Jinv=geom.Jinv[0], detJ=float(detJ[0]),
                        divJinv=geom.divJinv[0])


def laplacian_physical(grad_xi, hess_xi, jac: JacobianCalc) -> float:
    """Physical Laplacian of a scalar given its parametric grad/hess.

    lap = H : (Jinv Jinv^T) + grad_xi . div(J^-1); the second term is the
    curvature correction that vanishes for affine elements.  The products
    are those element_geometry forms for the bubble Laplacian at one point.
    """
    JJT = (jac.Jinv @ jac.Jinv.T).reshape(-1, 1)
    return float((np.ravel(hess_xi)[None] @ JJT
                  + np.asarray(grad_xi)[None] @ jac.divJinv[:, None])[0, 0])


@dataclass(frozen=True)
class BasisTable:
    """Shape and bubble data tabulated at a set of reference points."""

    points: np.ndarray    # (np, dim)
    weights: np.ndarray   # (np,)
    N: np.ndarray         # (np, nen)
    DN: np.ndarray        # (np, nen, dim)
    D2N: np.ndarray       # (np, nen, dim*dim), (m, s) row-major as in BasisEval
    b: np.ndarray         # (np,)
    gb: np.ndarray        # (np, dim)
    Hb: np.ndarray        # (np, dim*dim)


_TABLE_CACHE: dict = {}


def tabulate(kind: ElementKind, points, weights) -> BasisTable:
    """Tabulate basis/bubble data at the given reference points."""
    evals = [eval_basis(kind, xi) for xi in points]
    bubbles = [eval_bubble(kind, xi) for xi in points]
    return BasisTable(
        points=points,
        weights=weights,
        N=np.stack([e.N for e in evals]),
        DN=np.stack([e.DN for e in evals]),
        D2N=np.stack([e.D2N for e in evals]),
        b=np.array([bu.b for bu in bubbles]),
        gb=np.stack([bu.grad_xi for bu in bubbles]),
        Hb=np.stack([bu.hess_xi.ravel() for bu in bubbles]),
    )


def basis_table(kind: ElementKind, rule) -> BasisTable:
    """Tabulate (and cache) basis/bubble data for a quadrature rule."""
    key = (kind, rule.points.tobytes())
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = _TABLE_CACHE[key] = tabulate(kind, rule.points, rule.weights)
    return tab


@dataclass(frozen=True)
class ElementGeometry:
    """Per-quadrature-point geometric quantities of one element, or of a
    stack of elements; a stack adds its leading axes to every field."""

    detJ: np.ndarray      # (..., np)
    Jinv: np.ndarray      # (..., np, dim, dim)
    divJinv: np.ndarray   # (..., np, dim)
    G: np.ndarray         # (..., np, dim, nen) physical shape gradients
    lapN: np.ndarray      # (..., np, nen) physical shape Laplacians
    gb: np.ndarray        # (..., np, dim) physical bubble gradient
    lapb: np.ndarray      # (..., np) physical bubble Laplacian
    x: np.ndarray         # (..., np, dim) mapped quadrature points
    wdet: np.ndarray      # (..., np) weight * detJ


def jacobians(DN, coords):
    """J (..., np, dim, dim) and detJ (..., np) of coords (..., nen, dim) at
    the points of DN (np, nen, dim).  Refuses the first element whose detJ
    is not finite and positive, with its own minimum (a lone one is 0)."""
    J = np.einsum("...ni,pnm->...pim", coords, DN)
    detJ = np.linalg.det(J)
    per_element = detJ.reshape(-1, detJ.shape[-1])
    ok = (np.isfinite(per_element) & (per_element > 0)).all(axis=1)
    if not ok.all():
        e = int(np.argmin(ok))
        raise SingularJacobianError(
            f"element {e} is inverted (min detJ={per_element[e].min():.3e})")
    return J, detJ


def integrate(wdet, values) -> np.ndarray:
    """Quadrature sum of values (..., np) with weights wdet (..., np), one
    per element.  A stacked matmul makes each element's sum the same dot
    product as for a lone element."""
    return np.matmul(wdet[..., None, :], values[..., :, None])[..., 0, 0]


def element_geometry(table: BasisTable, coords) -> ElementGeometry:
    """Evaluate Jacobian calculus at every tabulated point of one element,
    coords (nen, dim), or of a stack of elements, coords (..., nen, dim).

    Each element's values are the same whether it is evaluated alone or in
    a stack.  The second derivatives are contracted over their flattened
    (m, s) axis by stacked matmuls, one small product per point.
    """
    coords = np.asarray(coords, dtype=float)
    d = coords.shape[-1]
    J, detJ = jacobians(table.DN, coords)
    Jinv = np.linalg.inv(J)
    JJT = (Jinv @ np.swapaxes(Jinv, -1, -2)).reshape(J.shape[:-2] + (d * d, 1))
    # H[n] = D2N[n] : JJT, so div(J^-1) = -Jinv xhat^T H needs no (i, m, s) array
    H = table.D2N @ JJT
    divJinv = -(Jinv @ (np.swapaxes(coords, -1, -2)[..., None, :, :] @ H))
    G = np.einsum("...pmi,pnm->...pin", Jinv, table.DN)
    lapN = (H + table.DN @ divJinv)[..., 0]
    gb = np.einsum("...pki,pk->...pi", Jinv, table.gb)
    lapb = (table.Hb[:, None, :] @ JJT + table.gb[:, None, :] @ divJinv)[..., 0, 0]
    divJinv = divJinv[..., 0]
    x = np.einsum("pn,...ni->...pi", table.N, coords)
    return ElementGeometry(
        detJ=detJ, Jinv=Jinv, divJinv=divJinv, G=G, lapN=lapN,
        gb=gb, lapb=lapb, x=x, wdet=table.weights * detJ,
    )
