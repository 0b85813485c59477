"""Shape functions, bubble functions, and isoparametric Jacobian calculus.

`tabulate` evaluates the linear / bilinear / trilinear bases with their
first and second parametric derivatives, and each kind's standard bubble,
at a stack of reference points (a single point is a one-point table);
`basis_table` caches it at the kind's quadrature rule.  `element_geometry`
maps a table onto elements: det J, div(J^-1), physical gradients and
Laplacians.
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
    stack of elements; a stack adds its leading axes to every field.  J^-1
    is a work array of element_geometry and is not kept: G holds it."""

    detJ: np.ndarray      # (..., np)
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


def detJ_net(kind: ElementKind, detJ):
    """Bernstein control net of det J on Q4/B8 elements, from its values
    detJ (E, 3^dim) at the kind's Gauss tensor rule, with each element
    divided by its largest |value|: (E, 5^dim) at the reference points
    meshgrid(*[(-1, -1/2, 0, 1/2, 1)] * dim, indexing="ij"), and the columns
    (nen,) of the corner nodes, whose entries are the (scaled) det J there.
    det J of a bi/trilinear map has degree <= 2 in each variable, so the
    Gauss values fix it, and it is > 0 on the whole element where every
    entry is > 0 (Johnen, Remacle & Geuzaine, J. Comput. Phys. 233, 2013).
    On Q4 each entry is a mean of corner values: the net is the corner test.
    """
    # per axis: the values at the 5 points, then the Bernstein coefficients of
    # the halves [-1, 0] and [0, 1], a midpoint one 2 p(mid) - mean(p(ends))
    t, g = np.linspace(-1, 1, 5)[:, None], np.sqrt(0.6)
    half = np.hstack([t * (t - g) / 1.2, 1 - t**2 / 0.6, t * (t + g) / 1.2])
    half[1::2] = 2 * half[1::2] - (half[:-1:2] + half[2::2]) / 2
    corners = _Q4_CORNERS if kind.dim == 2 else _B8_CORNERS
    scaled = detJ / np.abs(detJ).max(axis=-1, keepdims=True)
    net = scaled @ reduce(np.kron, [half] * kind.dim).T
    return net, np.ravel_multi_index((2 * corners.T + 2).astype(int), (5,) * kind.dim)


def element_geometry(table: BasisTable, coords) -> ElementGeometry:
    """Evaluate Jacobian calculus at every tabulated point of one element,
    coords (nen, dim), or of a stack of elements, coords (..., nen, dim).

    Each element's values are the same whether it is evaluated alone or in
    a stack.  Refuses the first element whose detJ is not finite or is
    below the smallest normal double, with its own minimum (a lone one is
    element 0): below it adj(J) / detJ loses digits.  detJ is numpy's det.
    Work arrays are component-major, (c..., np, E): each term is one product
    over all points added onto zeros; J, gb, x and G keep their einsum bits.
    G, the largest field, is formed one point at a time straight into its
    point-major output, so no component-major copy of it is ever whole.
    """
    coords = np.asarray(coords, dtype=float)
    lead, (nen, d), n_p = coords.shape[:-2], coords.shape[-2:], len(table.weights)
    X = np.ascontiguousarray(coords.reshape(-1, nen, d).T)  # (dim, nen, E)
    N, DN, D2N, gbh, Hb = (np.moveaxis(a, 0, -1)[..., None]  # table columns, (..., np, 1)
                           for a in (table.N, table.DN, table.D2N, table.gb, table.Hb))
    buf = np.empty((n_p, X.shape[-1]))

    def field(shape, terms, out=None, tmp=buf):  # component c adds a * b over terms(*c) onto zeros
        out = np.zeros(shape + tmp.shape) if out is None else out
        for c in np.ndindex(*shape):
            for a, b in terms(*c):
                out[c] += np.multiply(a, b, out=tmp)
        return out

    def point_major(a):  # as (..., np, c...), copied ~64 rows of E at a time: 3x faster
        out = np.empty(buf.shape[::-1] + a.shape[:-2])
        for p in range(0, n_p, step := max(1, 64 * n_p // a[..., 0].size)):
            out[:, p:p + step] = np.moveaxis(a[..., p:p + step, :], (-1, -2), (0, 1))
        return out.reshape(lead + out.shape[1:])

    J = field((d, d), lambda i, m: zip(X[i], DN[:, m]))
    with np.errstate(over="ignore", under="ignore"):
        det = np.linalg.det(np.moveaxis(J, (-1, -2), (0, 1))).T
    detJ = point_major(det)
    ok = (np.isfinite(det) & (det >= np.finfo(float).tiny)).all(axis=0)
    if not ok.all():
        e = int(np.argmin(ok))
        low = det[:, e].min()
        raise SingularJacobianError(f"element {e} is {'degenerate' if low >= 0 else 'inverted'} "
                                    f"(min detJ={low:.3e})")
    # the work array J^-1 = adj(J) / detJ; column k of a 3x3 adj(J) is row k+1 x row k+2 of J
    if d == 2:
        Jinv = np.swapaxes(J[::-1, ::-1], 0, 1) * np.reshape([1.0, -1.0, -1.0, 1.0], (2, 2, 1, 1))
    else:
        Jinv = np.empty_like(J)
        for i, k in np.ndindex(3, 3):
            a, b, m, n = (k + 1) % 3, (k + 2) % 3, (i + 1) % 3, (i + 2) % 3
            np.subtract(J[a, m] * J[b, n], np.multiply(J[a, n], J[b, m], out=buf), out=Jinv[i, k])
    Jinv /= det
    del J, det
    # H[n] = D2N[n] : J^-1 J^-T (nonzero columns only), div(J^-1) = -J^-1 (x^T H)
    JJT = field((d * d,), lambda k: zip(Jinv[k // d], Jinv[k % d]))
    H = field((nen,), lambda n: [t for t in zip(D2N[n], JJT) if t[0].any()])
    C = field((d,), lambda i: zip(X[i], H))
    divJinv = -field((d,), lambda q: zip(Jinv[q], C))
    lapb = field((), lambda: [*zip(Hb, JJT), *zip(gbh, divJinv)])
    lapN = point_major(field((nen,), lambda n: zip(DN[n], divJinv), out=H))
    del JJT, C, H
    gb = field((d,), lambda i: zip(Jinv[:, i], gbh))
    x = field((d,), lambda i: zip(N, X[i]))
    lapb, divJinv, gb, x = (point_major(a) for a in (lapb, divJinv, gb, x))
    G, tmp = np.empty(buf.shape[::-1] + (d, nen)), np.empty((d, nen, X.shape[-1]))
    for p in range(n_p):  # G[i, n] = sum over m of J^-1[m, i] DN[n, m], a point at a time
        G[:, p] = np.moveaxis(field((), lambda: [(Jinv[m, :, None, p], DN[:, m, p])
                                                 for m in range(d)], tmp=tmp), -1, 0)
    return ElementGeometry(detJ=detJ, divJinv=divJinv, G=G.reshape(lead + G.shape[1:]),
                           lapN=lapN, gb=gb, lapb=lapb, x=x, wdet=table.weights * detJ)
