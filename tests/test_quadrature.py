"""Quadrature rules: reference measures, positivity, interiority, exactness."""

import itertools
import math

import numpy as np
import pytest

from stokeslab.kinds import ElementKind
from stokeslab.quadrature import QuadratureRule, facet_rule, rule_for

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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_facet_rule_measures(kind):
    rule = facet_rule(kind)
    assert isinstance(rule, QuadratureRule)
    assert np.all(rule.weights > 0)
    expected = {
        ElementKind.T3: 1.0,     # unit parameter edge
        ElementKind.Q4: 2.0,     # [-1, 1] edge
        ElementKind.B8: 4.0,     # [-1, 1]^2 face
        ElementKind.TET4: 0.5,   # unit reference triangle face
    }[kind]
    assert rule.weights.sum() == pytest.approx(expected, rel=1e-13)
