"""Quadrature rules on the reference elements.

Tensor elements use Gauss-Legendre products.  Simplices use a symmetric
degree-6 rule on the triangle and a conical-product (Gauss-Jacobi) rule on
the tetrahedron.  All rules have strictly interior points with positive
weights, which the stabilized formulations rely on (the bubble Laplacian
vanishes at Q4/B8 reference corners).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kinds import ElementKind


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (n_points, dim)
    weights: np.ndarray  # (n_points,)
    exact_degree: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


# 1-D rules on [-1, 1] as (points, weights), to the last bit as
# scipy.special.roots_legendre(n) and roots_jacobi(4, alpha, 0.0) give them
# (numpy's leggauss differs by 1 ulp in the weights, which moves every output)
_GAUSS_LEGENDRE = {
    3: ((-0.7745966692414834, 0.0, 0.7745966692414834),
        (0.5555555555555558, 0.8888888888888883, 0.5555555555555558)),
    4: ((-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526),
        (0.3478548451374538, 0.6521451548625462, 0.6521451548625462, 0.3478548451374538)),
}
_GAUSS_JACOBI_4 = {  # weight (1 - x)^alpha
    2: ((-0.9029989011060054, -0.5227985248962753, 0.03409459020873491, 0.5917028357935458),
        (0.8871073248902219, 1.1476703183937156, 0.5490710973833848, 0.08281792599934465)),
    1: ((-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389),
        (0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234)),
}


def _tensor_gauss(dim: int, n: int) -> QuadratureRule:
    x, w = map(np.array, _GAUSS_LEGENDRE[n])
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    wts = np.ones(pts.shape[0])
    for g in wgrids:
        wts = wts * g.ravel()
    return QuadratureRule(pts, wts, exact_degree=2 * n - 1)


# Symmetric 12-point degree-6 triangle rule (weights scaled to area 1/2).
_TRI6_GROUPS = [
    (0.063089014491502, 0.050844906370207, 3),
    (0.249286745170910, 0.116786275726379, 3),
    ((0.310352451033785, 0.053145049844816), 0.082851075618374, 6),
]


def _triangle_deg6() -> QuadratureRule:
    pts, wts = [], []
    for loc, w, mult in _TRI6_GROUPS:
        if mult == 3:
            a = loc
            bary = [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]
        else:
            b, c = loc
            a = 1.0 - b - c
            bary = [
                (a, b, c), (b, a, c), (c, a, b),
                (a, c, b), (b, c, a), (c, b, a),
            ]
        for l0, l1, l2 in bary:
            pts.append((l1, l2))  # vertex order: (0,0), (1,0), (0,1)
            wts.append(w * 0.5)
    return QuadratureRule(np.array(pts), np.array(wts), exact_degree=6)


def _tet_conical() -> QuadratureRule:
    """Conical-product rule on the reference tetrahedron, exact to degree 7."""
    xu, wu = map(np.array, _GAUSS_JACOBI_4[2])
    xv, wv = map(np.array, _GAUSS_JACOBI_4[1])
    xw, ww = map(np.array, _GAUSS_LEGENDRE[4])
    # Map from [-1,1] to [0,1]; Jacobi weight (1-x)^a picks up 2^-a scaling.
    u, wu = 0.5 * (xu + 1), wu / 8.0
    v, wv = 0.5 * (xv + 1), wv / 4.0
    w, ww = 0.5 * (xw + 1), ww / 2.0
    pts, wts = [], []
    for ui, wui in zip(u, wu):
        for vi, wvi in zip(v, wv):
            for wi, wwi in zip(w, ww):
                x1 = ui
                x2 = vi * (1 - ui)
                x3 = wi * (1 - ui) * (1 - vi)
                pts.append((x1, x2, x3))
                wts.append(wui * wvi * wwi)
    return QuadratureRule(np.array(pts), np.array(wts), exact_degree=7)


@lru_cache(maxsize=None)
def rule_for(kind: ElementKind) -> QuadratureRule:
    """Return the quadrature rule used for a given element kind.

    One high-order rule serves every formulation: it integrates every
    bubble/stabilization integrand exactly (|grad b|^2 is degree 4 on T3,
    degree 6 on TET4, degree (2,4) on Q4 factors).
    """
    if kind is ElementKind.Q4:
        return _tensor_gauss(2, 3)
    if kind is ElementKind.B8:
        return _tensor_gauss(3, 3)
    if kind is ElementKind.T3:
        return _triangle_deg6()
    return _tet_conical()

