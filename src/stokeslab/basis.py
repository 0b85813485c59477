"""Shape functions, bubble functions, and isoparametric Jacobian calculus.

`tabulate` evaluates the linear / bilinear / trilinear bases with their
first and second parametric derivatives, and each kind's standard bubble,
at a stack of reference points (a single point is a one-point table);
`basis_table` caches it at the kind's quadrature rule.  `element_geometry`
maps a table onto elements: Jacobians, div(J^-1) and physical Laplacians.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .kinds import ElementKind
from .quadrature import rule_for

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
    """Raised when an element is inverted at an evaluation point."""


@dataclass(frozen=True)
class BasisTable:
    """Shape and bubble data tabulated at a set of reference points."""

    points: np.ndarray    # (np, dim)
    weights: np.ndarray   # (np,)
    N: np.ndarray         # (np, nen)
    DN: np.ndarray        # (np, nen, dim)
    D2N: np.ndarray       # (np, nen, dim*dim), (m, s) row-major
    b: np.ndarray         # (np,)
    gb: np.ndarray        # (np, dim)
    Hb: np.ndarray        # (np, dim*dim)


def _prod(factors, start=1.0):
    """start * f0 * f1 * ..., multiplied left to right."""
    return reduce(np.multiply, factors, start)


def tabulate(kind: ElementKind, points, weights) -> BasisTable:
    """Tabulate N, DN, D2N and the bubble b, gb, Hb at reference points
    (np, dim), with array operations over the points.  Each value is formed
    by the same floating-point operations at every point, and the bubble
    Hessian's (j, i) entry is its (i, j) entry, i < j.

    Simplices use the coordinates x_i and s = 1 - sum x_i, with the bubble
    prod(x_i) * s; Q4/B8 use the factors 1 + c_ai x_i of the tensor basis and
    the bubble prod(1 - x_i^2).
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    x = list(points.T)

    def rest(seq, *skip):
        return [v for k, v in enumerate(seq) if k not in skip]

    if kind.is_simplex:
        s = reduce(np.subtract, x, 1.0)
        N = np.stack([s, *x], axis=-1)
        DN = np.repeat(np.vstack([-np.ones(d), np.eye(d)])[None], n, axis=0)
        D2N = np.zeros((n, d + 1, d * d))
        b = _prod(x + [s])
        gb = [_prod(rest(x, i)) * (s - x[i]) for i in range(d)]

        def hess(i, j):
            if i == j:
                return _prod(rest(x, i), -2)
            return _prod(rest(x, i, j)) * (s - x[i] - x[j])
    else:
        corners, scale = (_Q4_CORNERS, 0.25) if d == 2 else (_B8_CORNERS, 0.125)
        c = corners.T  # c[m]: (nen,); np.ones_like(N) below is Q4's empty product
        F = list(np.moveaxis(1.0 + corners * points[:, None, :], -1, 0))
        N = scale * _prod(F)
        DN = np.stack([scale * c[m] * _prod(rest(F, m)) for m in range(d)], axis=-1)
        D2N = np.stack([np.zeros_like(N) if m == k else
                        scale * c[m] * c[k] * _prod(rest(F, m, k), np.ones_like(N))
                        for m in range(d) for k in range(d)], axis=-1)
        P = [1.0 - v**2 for v in x]
        b = _prod(P)
        gb = [-2 * x[i] * _prod(rest(P, i)) for i in range(d)]

        def hess(i, j):
            if i == j:
                return -2 * _prod(rest(P, i))
            return 4 * x[i] * x[j] * _prod(rest(P, i, j))
    return BasisTable(
        points=points, weights=weights, N=N, DN=DN, D2N=D2N, b=b,
        gb=np.stack(gb, axis=-1),
        Hb=np.stack([hess(min(i, j), max(i, j)) for i in range(d) for j in range(d)],
                    axis=-1),
    )


@lru_cache(maxsize=None)
def basis_table(kind: ElementKind) -> BasisTable:
    """The tabulation of a kind at the points of its quadrature rule."""
    rule = rule_for(kind)
    return tabulate(kind, rule.points, rule.weights)


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


def integrate(wdet, values) -> np.ndarray:
    """Quadrature sum of values (..., np) with weights wdet (..., np), one
    per element.  A stacked matmul makes each element's sum the same dot
    product as for a lone element."""
    return np.matmul(wdet[..., None, :], values[..., :, None])[..., 0, 0]


def element_geometry(table: BasisTable, coords) -> ElementGeometry:
    """Evaluate Jacobian calculus at every tabulated point of one element,
    coords (nen, dim), or of a stack of elements, coords (..., nen, dim).

    Each element's values are the same whether it is evaluated alone or in
    a stack.  Refuses the first element whose detJ is not finite and
    positive, with its own minimum (a lone one is element 0).  The second
    derivatives are contracted over their flattened (m, s) axis by stacked
    matmuls, one small product per point.
    """
    coords = np.asarray(coords, dtype=float)
    d = coords.shape[-1]
    J = np.einsum("...ni,pnm->...pim", coords, table.DN)
    detJ = np.linalg.det(J)
    per_element = detJ.reshape(-1, detJ.shape[-1])
    ok = (np.isfinite(per_element) & (per_element > 0)).all(axis=1)
    if not ok.all():
        e = int(np.argmin(ok))
        raise SingularJacobianError(
            f"element {e} is inverted (min detJ={per_element[e].min():.3e})")
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
