"""Shape functions, bubbles, and the isoparametric Jacobian calculus."""

import numpy as np
import pytest

from conftest import REFERENCE_CORNERS, distorted_element, random_interior_point
from stokeslab.basis import (
    _TABLE_CACHE,
    SingularJacobianError,
    basis_table,
    element_geometry,
    eval_basis,
    eval_bubble,
    jacobian_calc,
    laplacian_physical,
)
from stokeslab.formulations import tau_at
from stokeslab.kinds import ElementKind
from stokeslab.mesh import generate_grid
from stokeslab.quadrature import rule_for

ALL_KINDS = list(ElementKind)


# ---------------------------------------------------------------- shape basis

def test_square_center_values():
    be = eval_basis(ElementKind.Q4, (0.0, 0.0))
    assert np.allclose(be.N, 0.25)


def test_triangle_vertex_values():
    be = eval_basis(ElementKind.T3, (1.0, 0.0))
    assert np.allclose(be.N, [0.0, 1.0, 0.0])
    assert np.allclose(be.DN.sum(axis=0), 0.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_partition_of_unity_and_gradient_sum(kind, rng):
    for _ in range(100):
        xi = random_interior_point(kind, rng)
        be = eval_basis(kind, xi)
        assert be.N.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(be.DN.sum(axis=0), 0.0, atol=1e-13)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kronecker_delta_at_nodes(kind):
    corners = REFERENCE_CORNERS[kind]
    for a, xi in enumerate(corners):
        be = eval_basis(kind, xi)
        expect = np.zeros(len(corners))
        expect[a] = 1.0
        assert np.allclose(be.N, expect, atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_second_derivatives_match_finite_differences(kind, rng):
    d = kind.dim
    h = 1e-5
    for _ in range(5):
        xi = random_interior_point(kind, rng) * 0.9
        D2 = eval_basis(kind, xi).D2N.reshape(-1, d, d)
        assert np.allclose(D2, D2.transpose(0, 2, 1), atol=1e-12)
        for s in range(d):
            dp = xi.copy()
            dp[s] += h
            dm = xi.copy()
            dm[s] -= h
            fd = (eval_basis(kind, dp).DN - eval_basis(kind, dm).DN) / (2 * h)
            assert np.allclose(D2[:, :, s], fd, atol=5e-6)


# -------------------------------------------------------------------- bubbles

def test_square_bubble_center():
    bu = eval_bubble(ElementKind.Q4, (0.0, 0.0))
    assert bu.b == pytest.approx(1.0)
    assert np.allclose(bu.grad_xi, 0.0)
    assert np.allclose(bu.hess_xi, np.diag([-2.0, -2.0]))


def test_triangle_bubble_centroid():
    bu = eval_bubble(ElementKind.T3, (1 / 3, 1 / 3))
    assert bu.b == pytest.approx(1.0 / 27.0, rel=1e-14)


def test_square_bubble_gradient_point():
    bu = eval_bubble(ElementKind.Q4, (0.5, 0.0))
    assert np.allclose(bu.grad_xi, [-1.0, 0.0])


def _facet_points(kind, n, rng):
    """Random points on each facet of the reference element."""
    d = kind.dim
    pts = []
    if kind is ElementKind.T3:
        t = rng.uniform(0, 1, n)
        pts += [np.stack([t, np.zeros(n)], axis=1),
                np.stack([np.zeros(n), t], axis=1),
                np.stack([t, 1 - t], axis=1)]
    elif kind is ElementKind.TET4:
        a = rng.uniform(0, 1, n)
        b = rng.uniform(0, 1, n) * (1 - a)
        zero = np.zeros(n)
        pts += [np.stack([a, b, zero], axis=1),
                np.stack([a, zero, b], axis=1),
                np.stack([zero, a, b], axis=1),
                np.stack([a, b, 1 - a - b], axis=1)]
    else:
        for axis in range(d):
            for val in (-1.0, 1.0):
                block = rng.uniform(-1, 1, (n, d))
                block[:, axis] = val
                pts.append(block)
    return np.concatenate(pts)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bubble_vanishes_on_reference_boundary(kind, rng):
    for xi in _facet_points(kind, 20, rng):
        assert abs(eval_bubble(kind, xi).b) < 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bubble_positive_inside_symmetric_hessian(kind, rng):
    for _ in range(50):
        xi = random_interior_point(kind, rng)
        bu = eval_bubble(kind, xi)
        assert bu.b > 0
        assert np.allclose(bu.hess_xi, bu.hess_xi.T, atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bubble_laplacian_negative_at_quadrature_points(kind):
    table = basis_table(kind, rule_for(kind))
    geom = element_geometry(table, REFERENCE_CORNERS[kind])
    assert np.all(geom.lapb < 0)


# ----------------------------------------------------------- jacobian calculus

def test_rectangle_jacobian_constant():
    a, b = 1.5, 0.25
    coords = REFERENCE_CORNERS[ElementKind.Q4] * [a, b]
    jac = jacobian_calc(ElementKind.Q4, coords, (0.3, -0.7))
    assert np.allclose(jac.J, np.diag([a, b]))
    assert np.allclose(jac.divJinv, 0.0, atol=1e-14)
    assert np.allclose(jac.J @ jac.Jinv, np.eye(2), atol=1e-12)


def test_straight_triangle_divjinv_zero(rng):
    coords = np.array([(0.2, 0.1), (1.3, 0.4), (0.5, 1.7)])
    xi = random_interior_point(ElementKind.T3, rng)
    jac = jacobian_calc(ElementKind.T3, coords, xi)
    assert np.allclose(jac.divJinv, 0.0, atol=1e-14)


def test_degenerate_element_raises():
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    with pytest.raises(SingularJacobianError):
        jacobian_calc(ElementKind.Q4, coords, (0.0, 0.0))


def test_clockwise_element_raises():
    coords = REFERENCE_CORNERS[ElementKind.Q4][::-1]
    with pytest.raises(SingularJacobianError, match=r"element 0 is inverted \(min detJ=-"):
        jacobian_calc(ElementKind.Q4, coords, (0.0, 0.0))


def test_inverted_element_named_with_its_own_minimum():
    # the second and the fourth square of a stack are inverted, with detJ
    # -0.1 and -5 at every point: the first is named, with its own minimum
    corners = REFERENCE_CORNERS[ElementKind.Q4]
    flip = np.array([1.0, -1.0])
    coords = np.stack([corners, np.sqrt(0.1) * corners * flip, corners,
                       np.sqrt(5.0) * corners * flip])
    table = basis_table(ElementKind.Q4, rule_for(ElementKind.Q4))
    with pytest.raises(SingularJacobianError,
                       match=r"^element 1 is inverted \(min detJ=-1\.000e-01\)$"):
        element_geometry(table, coords)


def test_pointwise_calls_leave_the_table_cache_alone(rng):
    coords = distorted_element(ElementKind.Q4, rng)
    jacobian_calc(ElementKind.Q4, coords, (0.0, 0.0))
    tau_at("svm", ElementKind.Q4, coords, (0.0, 0.0))
    size = len(_TABLE_CACHE)
    for _ in range(100):
        xi = random_interior_point(ElementKind.Q4, rng)
        jacobian_calc(ElementKind.Q4, coords, xi)
        tau_at("svm", ElementKind.Q4, coords, xi)
    assert len(_TABLE_CACHE) == size


def _invert_map(kind, coords, x_target, xi_guess):
    """Newton-invert the isoparametric map x(xi) = x_target."""
    z = np.array(xi_guess, dtype=float)
    for _ in range(60):
        jz = jacobian_calc(kind, coords, z)
        r = coords.T @ eval_basis(kind, z).N - x_target
        z = z - jz.Jinv @ r
        if np.linalg.norm(r) < 1e-14:
            break
    return z


def _fd_divjinv(kind, coords, xi, h=1e-6):
    """Central finite difference of J^-1(x) columns along physical axes:
    d(Jinv[p,k])/dx_k, with the reference point found by exact map inversion."""
    d = kind.dim
    jac0 = jacobian_calc(kind, coords, xi)
    x0 = coords.T @ eval_basis(kind, xi).N
    out = np.zeros(d)
    for k in range(d):
        dx = np.zeros(d)
        dx[k] = h
        xi_p = _invert_map(kind, coords, x0 + dx, xi + jac0.Jinv @ dx)
        xi_m = _invert_map(kind, coords, x0 - dx, xi - jac0.Jinv @ dx)
        Jp = jacobian_calc(kind, coords, xi_p).Jinv
        Jm = jacobian_calc(kind, coords, xi_m).Jinv
        out += (Jp[:, k] - Jm[:, k]) / (2 * h)
    return out


def test_trapezoid_divjinv_matches_finite_differences():
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (1.2, 1.0), (0.0, 1.0)])
    xi = np.array([0.3, -0.2])
    jac = jacobian_calc(ElementKind.Q4, coords, xi)
    fd = _fd_divjinv(ElementKind.Q4, coords, xi)
    assert np.linalg.norm(jac.divJinv - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))


def test_half_square_bubble_laplacian():
    # map [-1,1]^2 to [0,1]^2: J = diag(1/2, 1/2)
    coords = (REFERENCE_CORNERS[ElementKind.Q4] + 1.0) / 2.0
    jac = jacobian_calc(ElementKind.Q4, coords, (0.0, 0.0))
    bu = eval_bubble(ElementKind.Q4, (0.0, 0.0))
    lap = laplacian_physical(bu.grad_xi, bu.hess_xi, jac)
    assert lap == pytest.approx(-16.0, rel=1e-13)


def shape_laplacians(be, jac):
    """Physical Laplacian of every shape function at the evaluation point."""
    d = jac.J.shape[0]
    JJT = jac.Jinv @ jac.Jinv.T
    D2 = be.D2N.reshape(-1, d, d)
    return np.einsum("nms,ms->n", D2, JJT) + be.DN @ jac.divJinv


def test_straight_triangle_shape_laplacian_zero(rng):
    coords = np.array([(0.0, 0.0), (2.0, 0.3), (0.4, 1.8)])
    xi = random_interior_point(ElementKind.T3, rng)
    be = eval_basis(ElementKind.T3, xi)
    jac = jacobian_calc(ElementKind.T3, coords, xi)
    assert np.allclose(shape_laplacians(be, jac), 0.0, atol=1e-14)


def _fd_laplacian_of_mapped_scalar(kind, coords, xi, ref_fn, h=1e-4):
    """FD Laplacian in physical space of a scalar defined on the reference
    element, sampled through local inversion of the isoparametric map."""
    d = kind.dim
    jac0 = jacobian_calc(kind, coords, xi)

    def value_at_physical_offset(dx):
        # invert x(xi0) + dx by Newton iteration on the map
        target = coords.T @ eval_basis(kind, xi).N + dx
        z = xi + jac0.Jinv @ dx
        for _ in range(60):
            jz = jacobian_calc(kind, coords, z)
            r = coords.T @ eval_basis(kind, z).N - target
            z = z - jz.Jinv @ r
            if np.linalg.norm(r) < 1e-14:
                break
        return ref_fn(z)

    f0 = value_at_physical_offset(np.zeros(d))
    lap = 0.0
    for k in range(d):
        dx = np.zeros(d)
        dx[k] = h
        lap += (value_at_physical_offset(dx) - 2 * f0 + value_at_physical_offset(-dx)) / h**2
    return lap


@pytest.mark.parametrize("kind", [ElementKind.Q4, ElementKind.B8])
def test_bubble_laplacian_matches_finite_differences_distorted(kind, rng):
    coords = distorted_element(kind, rng)
    xi = random_interior_point(kind, rng) * 0.5
    bu = eval_bubble(kind, xi)
    jac = jacobian_calc(kind, coords, xi)
    lap = laplacian_physical(bu.grad_xi, bu.hess_xi, jac)
    fd = _fd_laplacian_of_mapped_scalar(kind, coords, xi, lambda z: eval_bubble(kind, z).b)
    assert lap == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("kind", [ElementKind.Q4, ElementKind.B8])
def test_shape_laplacians_match_finite_differences_distorted(kind, rng):
    coords = distorted_element(kind, rng)
    xi = random_interior_point(kind, rng) * 0.5
    be = eval_basis(kind, xi)
    jac = jacobian_calc(kind, coords, xi)
    laps = shape_laplacians(be, jac)
    for a in range(kind.nodes_per_element):
        fd = _fd_laplacian_of_mapped_scalar(
            kind, coords, xi, lambda z, a=a: eval_basis(kind, z).N[a]
        )
        assert laps[a] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_element_geometry_matches_pointwise_calculus(kind, rng):
    coords = distorted_element(kind, rng, amount=0.1)
    table = basis_table(kind, rule_for(kind))
    geom = element_geometry(table, coords)
    for p, xi in enumerate(table.points[:4]):
        jac = jacobian_calc(kind, coords, xi)
        assert geom.detJ[p] == pytest.approx(jac.detJ, rel=1e-12)
        assert np.allclose(geom.divJinv[p], jac.divJinv, atol=1e-11)
        bu = eval_bubble(kind, xi)
        assert geom.lapb[p] == pytest.approx(
            laplacian_physical(bu.grad_xi, bu.hess_xi, jac), rel=1e-11
        )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pointwise_calculus_is_element_geometry_bit_for_bit(kind, rng):
    """jacobian_calc and laplacian_physical at a quadrature point give the
    bits that assembly reads from element_geometry there."""
    coords = distorted_element(kind, rng, amount=0.1)
    table = basis_table(kind, rule_for(kind))
    geom = element_geometry(table, coords)
    for p, xi in enumerate(table.points):
        jac = jacobian_calc(kind, coords, xi)
        assert jac.detJ == geom.detJ[p]
        assert jac.Jinv.tobytes() == geom.Jinv[p].tobytes()
        assert jac.divJinv.tobytes() == geom.divJinv[p].tobytes()
        bu = eval_bubble(kind, xi)
        assert laplacian_physical(bu.grad_xi, bu.hess_xi, jac) == geom.lapb[p]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_svm_tau_at_is_the_assembled_tau_bit_for_bit(kind, rng):
    coords = distorted_element(kind, rng, amount=0.1)
    table = basis_table(kind, rule_for(kind))
    geom = element_geometry(table, coords)
    for p, xi in enumerate(table.points):
        assert tau_at("svm", kind, coords, xi) == table.b[p] / geom.lapb[p]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_element_geometry_of_a_stack_matches_each_element(kind, rng):
    coords = np.stack([distorted_element(kind, rng, amount=0.1) for _ in range(5)])
    table = basis_table(kind, rule_for(kind))
    stack = element_geometry(table, coords)
    for e in range(len(coords)):
        alone = element_geometry(table, coords[e])
        for name in ("detJ", "Jinv", "divJinv", "G", "lapN", "gb", "lapb", "x", "wdet"):
            assert getattr(stack, name)[e].tobytes() == getattr(alone, name).tobytes()
    coords[3, 0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(SingularJacobianError,
                                                      match="element 3"):
        element_geometry(table, coords)


def _einsum_second_order(table, coords):
    """div(J^-1), lapN and lapb by the einsum chain element_geometry used
    before its second derivatives were contracted by matmul, each with the
    sum of the magnitudes of its terms, which bounds the roundoff of either."""
    d = coords.shape[-1]
    D2N = table.D2N.reshape(table.DN.shape + (d,))
    Hb = table.Hb.reshape(-1, d, d)
    J = np.einsum("...ni,pnm->...pim", coords, table.DN)
    Jinv = np.linalg.inv(J)
    JJT = np.einsum("...pik,...pjk->...pij", Jinv, Jinv)
    C = np.einsum("...ni,pnms->...pims", coords, D2N)
    divJinv = -np.einsum("...pqi,...pims,...pms->...pq", Jinv, C, JJT)
    lapN = (np.einsum("pnms,...pms->...pn", D2N, JJT)
            + np.einsum("pnm,...pm->...pn", table.DN, divJinv))
    lapb = (np.einsum("pms,...pms->...p", Hb, JJT)
            + np.einsum("pm,...pm->...p", table.gb, divJinv))
    a = np.abs
    div_mag = np.einsum("...pqi,...ni,pnms,...pms->...pq", a(Jinv), a(coords), a(D2N), a(JJT))
    lapN_mag = (np.einsum("pnms,...pms->...pn", a(D2N), a(JJT))
                + np.einsum("pnm,...pm->...pn", a(table.DN), div_mag))
    lapb_mag = (np.einsum("pms,...pms->...p", a(Hb), a(JJT))
                + np.einsum("pm,...pm->...p", a(table.gb), div_mag))
    return {"divJinv": (divJinv, div_mag), "lapN": (lapN, lapN_mag), "lapb": (lapb, lapb_mag)}


@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_second_order_geometry_matches_einsum_reference(kind, perturbed, rng):
    """A bubble Laplacian can cancel its terms (by up to ~2e3 on perturbed
    T3 grids), so the bound is on the terms, not on the value."""
    mesh = generate_grid(kind, 6 if kind.dim == 2 else 3)
    coords = mesh.nodes[mesh.elements]
    if perturbed:
        h = np.ptp(coords, axis=1).max()
        coords = coords + rng.uniform(-0.12 * h, 0.12 * h, coords.shape)
    table = basis_table(kind, rule_for(kind))
    geom = element_geometry(table, coords)
    for name, (want, magnitude) in _einsum_second_order(table, coords).items():
        assert np.all(np.abs(getattr(geom, name) - want) <= 1e-13 * magnitude), name
