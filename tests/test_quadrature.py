"""Quadrature rules: reference measures, positivity, interiority, exactness."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from stokeslab.kinds import ElementKind
from stokeslab.quadrature import rule_for

ALL_KINDS = list(ElementKind)


REFERENCE_MEASURE = {ElementKind.T3: 0.5, ElementKind.TET4: 1.0 / 6.0,
                     ElementKind.Q4: 4.0, ElementKind.B8: 8.0}


def in_reference_element(kind, xi, tol=1e-12):
    xi = np.asarray(xi, dtype=float)
    if kind.is_simplex:
        return bool(np.all(xi >= -tol) and xi.sum() <= 1.0 + tol)
    return bool(np.all(np.abs(xi) <= 1.0 + tol))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weights_sum_to_reference_measure(kind):
    rule = rule_for(kind)
    assert rule.weights.sum() == pytest.approx(REFERENCE_MEASURE[kind], rel=1e-13)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weights_positive_points_strictly_interior(kind):
    rule = rule_for(kind)
    assert np.all(rule.weights > 0)
    for xi in rule.points:
        assert in_reference_element(kind, xi)
        # strictly interior: the bubble-quotient schemes divide by quantities
        # that vanish on the reference boundary
        if kind.is_simplex:
            assert np.all(xi > 1e-8) and xi.sum() < 1 - 1e-8
        else:
            assert np.all(np.abs(xi) < 1 - 1e-8)


def _box_monomial(alpha):
    """Exact integral of prod(xi_i^alpha_i) over [-1, 1]^d."""
    out = 1.0
    for a in alpha:
        out *= 0.0 if a % 2 else 2.0 / (a + 1)
    return out


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_monomial_exactness_to_stated_degree(kind):
    rule = rule_for(kind)
    d = kind.dim
    for alpha in itertools.product(range(rule.exact_degree + 1), repeat=d):
        if sum(alpha) > rule.exact_degree:
            continue
        approx = float(
            sum(w * np.prod(p**np.array(alpha)) for p, w in zip(rule.points, rule.weights))
        )
        if kind.is_simplex:
            # Dirichlet integral on the unit simplex: prod(a_i!) / (|a| + d)!
            exact = math.prod(math.factorial(a) for a in alpha) / math.factorial(
                sum(alpha) + d
            )
        else:
            exact = _box_monomial(alpha)
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_square_monomials_analytic_values():
    rule = rule_for(ElementKind.Q4)
    x = rule.points[:, 0]
    assert rule.weights @ np.ones_like(x) == pytest.approx(4.0, rel=1e-14)
    assert rule.weights @ x ** 2 == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_square_bubble_integrals():
    rule = rule_for(ElementKind.Q4)
    x, y = rule.points.T
    bub = rule.weights @ ((1 - x ** 2) * (1 - y ** 2))
    assert bub == pytest.approx(16.0 / 9.0, rel=1e-14)
    grad2 = rule.weights @ (
        (2 * x * (1 - y ** 2)) ** 2 + (2 * y * (1 - x ** 2)) ** 2
    )
    assert grad2 == pytest.approx(256.0 / 45.0, rel=1e-14)


def test_triangle_bubble_integral():
    rule = rule_for(ElementKind.T3)
    x, y = rule.points.T
    val = rule.weights @ (x * y * (1 - x - y))
    assert val == pytest.approx(1.0 / 120.0, rel=1e-13)


def test_one_dimensional_tables_are_the_scipy_roots_bit_for_bit():
    from scipy.special import roots_jacobi, roots_legendre

    from stokeslab.quadrature import _GAUSS_JACOBI_4, _GAUSS_LEGENDRE

    tables = [(table, roots_legendre(n)) for n, table in _GAUSS_LEGENDRE.items()]
    tables += [(table, roots_jacobi(4, float(alpha), 0.0))
               for alpha, table in _GAUSS_JACOBI_4.items()]
    assert len(tables) == 4
    for table, (x, w) in tables:
        assert np.array_equal(table[0], x) and np.array_equal(table[1], w)
        assert np.array(table).tobytes() == np.stack([x, w]).tobytes()  # signs of zero too


# sha256 of points.tobytes() + weights.tobytes() of the rules as they were
# built from scipy.special's roots; every assembled matrix depends on these bits
RULE_SHA256 = {
    ("rule_for", ElementKind.T3): "9ae84774123563ff39a2cd38d562f7ac822662cd5df364b043dd7b67f7d114d6",
    ("rule_for", ElementKind.TET4): "4338ad631ad7d7c29a52edf2ca0539c917d05a3d3edd302e8766922e2409e18d",
    ("rule_for", ElementKind.Q4): "96faff29333a41048e33b6a5fb7c881960f8328895cdb9f0e0acb398e54b586c",
    ("rule_for", ElementKind.B8): "7b487e5157325ebae3b17e060dd17011f91caa68cd2a105c2d8d4f431a92233d",
}


@pytest.mark.parametrize("rule, kind", [(f, k) for f in (rule_for,) for k in ALL_KINDS],
                         ids=lambda v: getattr(v, "__name__", None) or v.name)
def test_rules_keep_their_bytes(rule, kind):
    r = rule(kind)
    assert r.points.dtype == r.weights.dtype == np.float64
    digest = hashlib.sha256(r.points.tobytes() + r.weights.tobytes()).hexdigest()
    assert digest == RULE_SHA256[rule.__name__, kind]
