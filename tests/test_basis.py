"""Shape functions, bubbles, and the isoparametric Jacobian calculus."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (REFERENCE_CORNERS, adjugate_inverse, at_point, distorted_element,
                      jacobians, perturb_interior, random_interior_point)
from stokeslab.basis import (SingularJacobianError, basis_table, detJ_net,
                             element_geometry, tabulate)
from stokeslab.formulations import tau_at
from stokeslab.kinds import ElementKind
from stokeslab.mesh import Mesh, MeshError, generate_grid
from stokeslab.quadrature import rule_for

ALL_KINDS = list(ElementKind)


# ---------------------------------------------------------------- shape basis

def test_square_center_values():
    be, _ = at_point(ElementKind.Q4, (0.0, 0.0))
    assert np.allclose(be.N, 0.25)


def test_triangle_vertex_values():
    be, _ = at_point(ElementKind.T3, (1.0, 0.0))
    assert np.allclose(be.N, [0.0, 1.0, 0.0])
    assert np.allclose(be.DN.sum(axis=0), 0.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_partition_of_unity_and_gradient_sum(kind, rng):
    for _ in range(100):
        xi = random_interior_point(kind, rng)
        be, _ = at_point(kind, xi)
        assert be.N.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(be.DN.sum(axis=0), 0.0, atol=1e-13)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kronecker_delta_at_nodes(kind):
    corners = REFERENCE_CORNERS[kind]
    for a, xi in enumerate(corners):
        be, _ = at_point(kind, xi)
        expect = np.zeros(len(corners))
        expect[a] = 1.0
        assert np.allclose(be.N, expect, atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_second_derivatives_match_finite_differences(kind, rng):
    d = kind.dim
    h = 1e-5
    for _ in range(5):
        xi = random_interior_point(kind, rng) * 0.9
        D2 = at_point(kind, xi)[0].D2N.reshape(-1, d, d)
        assert np.allclose(D2, D2.transpose(0, 2, 1), atol=1e-12)
        for s in range(d):
            dp = xi.copy()
            dp[s] += h
            dm = xi.copy()
            dm[s] -= h
            fd = (at_point(kind, dp)[0].DN - at_point(kind, dm)[0].DN) / (2 * h)
            assert np.allclose(D2[:, :, s], fd, atol=5e-6)


# -------------------------------------------------------------------- bubbles

def test_square_bubble_center():
    bu, _ = at_point(ElementKind.Q4, (0.0, 0.0))
    assert bu.b == pytest.approx(1.0)
    assert np.allclose(bu.gb, 0.0)
    assert np.allclose(bu.Hb, [-2.0, 0.0, 0.0, -2.0])


def test_triangle_bubble_centroid():
    bu, _ = at_point(ElementKind.T3, (1 / 3, 1 / 3))
    assert bu.b == pytest.approx(1.0 / 27.0, rel=1e-14)


def test_square_bubble_gradient_point():
    bu, _ = at_point(ElementKind.Q4, (0.5, 0.0))
    assert np.allclose(bu.gb, [-1.0, 0.0])


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
    points = _facet_points(kind, 20, rng)
    assert np.abs(tabulate(kind, points, np.ones(len(points))).b).max() < 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bubble_positive_inside_symmetric_hessian(kind, rng):
    for _ in range(50):
        xi = random_interior_point(kind, rng)
        bu, _ = at_point(kind, xi)
        H = bu.Hb.reshape(kind.dim, kind.dim)
        assert bu.b > 0
        assert np.allclose(H, H.T, atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bubble_laplacian_negative_at_quadrature_points(kind):
    geom = element_geometry(basis_table(kind), REFERENCE_CORNERS[kind])
    assert np.all(geom.lapb < 0)


# ----------------------------------------------------------- jacobian calculus

def test_rectangle_jacobian_constant():
    a, b = 1.5, 0.25
    coords = REFERENCE_CORNERS[ElementKind.Q4] * [a, b]
    point, jac = at_point(ElementKind.Q4, (0.3, -0.7), coords)
    assert jac.detJ == pytest.approx(a * b, rel=1e-14)
    assert np.allclose(jac.G, np.diag([1 / a, 1 / b]) @ point.DN.T, rtol=1e-14, atol=0)
    assert np.allclose(jac.divJinv, 0.0, atol=1e-14)


def test_straight_triangle_divjinv_zero(rng):
    coords = np.array([(0.2, 0.1), (1.3, 0.4), (0.5, 1.7)])
    xi = random_interior_point(ElementKind.T3, rng)
    _, jac = at_point(ElementKind.T3, xi, coords)
    assert np.allclose(jac.divJinv, 0.0, atol=1e-14)


def test_degenerate_element_raises():
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    with pytest.raises(SingularJacobianError):
        at_point(ElementKind.Q4, (0.0, 0.0), coords)


def test_clockwise_element_raises():
    coords = REFERENCE_CORNERS[ElementKind.Q4][::-1]
    with pytest.raises(SingularJacobianError, match=r"element 0 is inverted \(min detJ=-"):
        at_point(ElementKind.Q4, (0.0, 0.0), coords)


def test_inverted_element_named_with_its_own_minimum():
    # the second and the fourth square of a stack are inverted, with detJ
    # -0.1 and -5 at every point: the first is named, with its own minimum
    corners = REFERENCE_CORNERS[ElementKind.Q4]
    flip = np.array([1.0, -1.0])
    coords = np.stack([corners, np.sqrt(0.1) * corners * flip, corners,
                       np.sqrt(5.0) * corners * flip])
    table = basis_table(ElementKind.Q4)
    with pytest.raises(SingularJacobianError,
                       match=r"^element 1 is inverted \(min detJ=-1\.000e-01\)$"):
        element_geometry(table, coords)


def _jinv(kind, xi, coords):
    """LAPACK's J^-1 of the element coords at reference point xi."""
    return np.linalg.inv(coords.T @ at_point(kind, xi)[0].DN)


def _invert_map(kind, coords, x_target, xi_guess):
    """Newton-invert the isoparametric map x(xi) = x_target."""
    z = np.array(xi_guess, dtype=float)
    for _ in range(60):
        r = coords.T @ at_point(kind, z)[0].N - x_target
        z = z - _jinv(kind, z, coords) @ r
        if np.linalg.norm(r) < 1e-14:
            break
    return z


def _fd_divjinv(kind, coords, xi, h=1e-6):
    """Central finite difference of J^-1(x) columns along physical axes:
    d(Jinv[p,k])/dx_k, with the reference point found by exact map inversion."""
    d = kind.dim
    x0, Jinv0 = coords.T @ at_point(kind, xi)[0].N, _jinv(kind, xi, coords)
    out = np.zeros(d)
    for k in range(d):
        dx = np.zeros(d)
        dx[k] = h
        xi_p = _invert_map(kind, coords, x0 + dx, xi + Jinv0 @ dx)
        xi_m = _invert_map(kind, coords, x0 - dx, xi - Jinv0 @ dx)
        out += (_jinv(kind, xi_p, coords)[:, k] - _jinv(kind, xi_m, coords)[:, k]) / (2 * h)
    return out


def test_trapezoid_divjinv_matches_finite_differences():
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (1.2, 1.0), (0.0, 1.0)])
    xi = np.array([0.3, -0.2])
    _, jac = at_point(ElementKind.Q4, xi, coords)
    fd = _fd_divjinv(ElementKind.Q4, coords, xi)
    assert np.linalg.norm(jac.divJinv - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))


def test_half_square_bubble_laplacian():
    # map [-1,1]^2 to [0,1]^2: J = diag(1/2, 1/2)
    coords = (REFERENCE_CORNERS[ElementKind.Q4] + 1.0) / 2.0
    _, jac = at_point(ElementKind.Q4, (0.0, 0.0), coords)
    assert jac.lapb == pytest.approx(-16.0, rel=1e-13)


def test_straight_triangle_shape_laplacian_zero(rng):
    coords = np.array([(0.0, 0.0), (2.0, 0.3), (0.4, 1.8)])
    xi = random_interior_point(ElementKind.T3, rng)
    _, jac = at_point(ElementKind.T3, xi, coords)
    assert np.allclose(jac.lapN, 0.0, atol=1e-14)


def _fd_laplacian_of_mapped_scalar(kind, coords, xi, ref_fn, h=1e-4):
    """FD Laplacian in physical space of a scalar defined on the reference
    element, sampled through local inversion of the isoparametric map."""
    d = kind.dim
    x0 = coords.T @ at_point(kind, xi)[0].N

    def value_at_physical_offset(dx):
        return ref_fn(_invert_map(kind, coords, x0 + dx, xi + _jinv(kind, xi, coords) @ dx))

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
    _, jac = at_point(kind, xi, coords)
    fd = _fd_laplacian_of_mapped_scalar(kind, coords, xi, lambda z: at_point(kind, z)[0].b)
    assert jac.lapb == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("kind", [ElementKind.Q4, ElementKind.B8])
def test_shape_laplacians_match_finite_differences_distorted(kind, rng):
    coords = distorted_element(kind, rng)
    xi = random_interior_point(kind, rng) * 0.5
    _, jac = at_point(kind, xi, coords)
    for a in range(kind.nodes_per_element):
        fd = _fd_laplacian_of_mapped_scalar(
            kind, coords, xi, lambda z, a=a: at_point(kind, z)[0].N[a]
        )
        assert jac.lapN[a] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_tabulate_rows_are_one_point_tables(kind):
    """The cached table of a kind's rule is, row by row, the one-point
    tables of its points, bit for bit."""
    table = basis_table(kind)
    assert basis_table(kind) is table
    for p, xi in enumerate(table.points):
        point, _ = at_point(kind, xi)
        for name in ("N", "DN", "D2N", "b", "gb", "Hb"):
            assert getattr(point, name).tobytes() == getattr(table, name)[p].tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_element_geometry_matches_pointwise_calculus(kind, rng):
    """det J, the physical gradients and the mapped point, formed point by
    point with numpy's det and inv."""
    coords = distorted_element(kind, rng, amount=0.1)
    table = basis_table(kind)
    geom = element_geometry(table, coords)
    for p in range(len(table.points)):
        J = coords.T @ table.DN[p]
        Jinv = np.linalg.inv(J)
        assert geom.detJ[p] == pytest.approx(np.linalg.det(J), rel=1e-12)
        assert np.allclose(geom.G[p], Jinv.T @ table.DN[p].T, rtol=1e-12, atol=1e-12)
        assert np.allclose(geom.gb[p], Jinv.T @ table.gb[p], rtol=1e-12, atol=1e-12)
        assert np.allclose(geom.x[p], coords.T @ table.N[p], rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pointwise_calculus_is_element_geometry_bit_for_bit(kind, rng):
    """The geometry of a one-point table at a quadrature point has the bits
    that assembly reads from element_geometry there."""
    coords = distorted_element(kind, rng, amount=0.1)
    table = basis_table(kind)
    geom = element_geometry(table, coords)
    for p, xi in enumerate(table.points):
        _, jac = at_point(kind, xi, coords)
        for name in ("detJ", "divJinv", "G", "lapN", "gb", "lapb", "x"):
            assert getattr(jac, name).tobytes() == getattr(geom, name)[p].tobytes(), name


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_svm_tau_at_is_the_assembled_tau_bit_for_bit(kind, rng):
    coords = distorted_element(kind, rng, amount=0.1)
    table = basis_table(kind)
    geom = element_geometry(table, coords)
    for p, xi in enumerate(table.points):
        assert tau_at("svm", kind, coords, xi) == table.b[p] / geom.lapb[p]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_element_geometry_of_a_stack_matches_each_element(kind, rng):
    coords = np.stack([distorted_element(kind, rng, amount=0.1) for _ in range(5)])
    table = basis_table(kind)
    stack = element_geometry(table, coords)
    for e in range(len(coords)):
        alone = element_geometry(table, coords[e])
        for name in ("detJ", "divJinv", "G", "lapN", "gb", "lapb", "x", "wdet"):
            assert getattr(stack, name)[e].tobytes() == getattr(alone, name).tobytes()
    coords[3, 0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(SingularJacobianError,
                                                      match="element 3"):
        element_geometry(table, coords)


def _einsum_second_order(table, coords):
    """div(J^-1), lapN and lapb by an einsum chain over LAPACK's J^-1, a
    reference independent of element_geometry's elementwise sums, each with
    the sum of the magnitudes of its terms, which bounds the roundoff of
    either."""
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
    table = basis_table(kind)
    geom = element_geometry(table, coords)
    for name, (want, magnitude) in _einsum_second_order(table, coords).items():
        assert np.all(np.abs(getattr(geom, name) - want) <= 1e-13 * magnitude), name


# ------------------------------------------------- the closed-form inverse

def _grid(kind, perturbed, divisions=None):
    """A small grid, with every interior node moved by up to 0.2 of the
    grid step when perturbed."""
    mesh = generate_grid(kind, divisions or (4 if kind.dim == 2 else 2))
    if not perturbed:
        return mesh
    h = np.ptp(mesh.nodes[mesh.elements], axis=1).max()
    return perturb_interior(mesh, 0.2 * h, seed=0)


def _relative_error(got, want):
    """max |got - want| over each point's matrix, relative to max |want|."""
    return (np.abs(got - want).max(axis=(-1, -2)) / np.abs(want).max(axis=(-1, -2))).max()


@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_closed_form_inverse_matches_lapack(kind, perturbed):
    """The adjugate inverse whose bits G and gb carry (next tests, and
    test_formulations' G test) is as accurate as LAPACK's."""
    mesh = _grid(kind, perturbed)
    J = jacobians(mesh)
    Jinv = adjugate_inverse(J, mesh.geometry.detJ)
    assert _relative_error(Jinv, np.linalg.inv(J)) <= 1e-12
    assert np.abs(J @ Jinv - np.eye(kind.dim)).max() <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_element_geometry_never_calls_inv(kind, monkeypatch):
    calls = []
    real = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda *a, **k: calls.append(1) or real(*a, **k))
    mesh = _grid(kind, perturbed=True)
    element_geometry(basis_table(kind), mesh.nodes[mesh.elements])
    assert calls == []


@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_first_order_geometry_keeps_the_lapack_det_bytes(kind, perturbed):
    """detJ is numpy's det of the einsum J, wdet, x and the volumes follow
    from it and from the einsum of the mapped points."""
    mesh = _grid(kind, perturbed)
    table, geom = basis_table(kind), mesh.geometry
    detJ = np.linalg.det(jacobians(mesh))
    x = np.einsum("pn,...ni->...pi", table.N, mesh.nodes[mesh.elements])
    assert geom.detJ.tobytes() == detJ.tobytes()
    assert geom.wdet.tobytes() == (table.weights * detJ).tobytes()
    assert geom.x.tobytes() == x.tobytes()
    assert mesh.element_volumes().tobytes() == (detJ @ table.weights).tobytes()


@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_first_order_geometry_keeps_the_adjugate_and_einsum_bytes(kind, perturbed):
    """G and gb have the bits of the einsums over the point-major adjugate
    of the einsum J: the galerkin and enriched blocks rest on them
    (criterion 2)."""
    mesh = _grid(kind, perturbed)
    table, geom = basis_table(kind), mesh.geometry
    Jinv = adjugate_inverse(jacobians(mesh), geom.detJ)
    assert geom.G.tobytes() == np.einsum("...pmi,pnm->...pin", Jinv, table.DN).tobytes()
    assert geom.gb.tobytes() == np.einsum("...pki,pk->...pi", Jinv, table.gb).tobytes()


@pytest.mark.parametrize("kind, divisions, ratio", [(ElementKind.B8, 8, 1.66),
                                                    (ElementKind.Q4, 40, 1.49)])
def test_geometry_peak_memory_is_bounded_by_what_it_returns(kind, divisions, ratio):
    """The traced peak of one element_geometry call, over the bytes of the
    fields it returns, stays below that of the stacked-matmul kernel it
    replaced (1.664 on B8 8^3, 1.505 on Q4 40^2)."""
    mesh = generate_grid(kind, divisions)
    table, coords = basis_table(kind), mesh.nodes[mesh.elements]
    element_geometry(table, coords)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        geom = element_geometry(table, coords)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= ratio * sum(v.nbytes for v in vars(geom).values())


def _detJ(table, coords):
    """det J of elements (..., nen, dim) at every point of a table, of either
    sign (element_geometry refuses an inverted element)."""
    return np.linalg.det(np.einsum("...na,pnb->...pab", coords, table.DN))


@pytest.mark.parametrize("kind", [ElementKind.Q4, ElementKind.B8])
def test_tensor_rules_are_3_point_gauss_in_ij_order(kind):
    # the control net of det J reads the Gauss values in this order
    gauss = np.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])
    grids = np.meshgrid(*[gauss] * kind.dim, indexing="ij")
    assert np.array_equal(rule_for(kind).points, np.stack([g.ravel() for g in grids], axis=-1))


@pytest.mark.parametrize("kind", [ElementKind.Q4, ElementKind.B8])
def test_control_net_corners_are_detj_at_the_corners(kind, rng):
    coords = distorted_element(kind, rng, amount=0.2)
    corners = REFERENCE_CORNERS[kind]
    at_corners = element_geometry(tabulate(kind, corners, np.ones(len(corners))), coords)
    detJ = _detJ(basis_table(kind), coords)
    net, at = detJ_net(kind, detJ)
    assert np.allclose(net[at] * detJ.max(), at_corners.detJ, rtol=1e-13, atol=0)
    stack = np.stack([coords, coords * np.r_[-1.0, np.ones(kind.dim - 1)]])  # and mirrored
    assert np.all(np.sign(detJ_net(kind, _detJ(basis_table(kind), stack))[0][:, at])
                  == [[1], [-1]])


def test_q4_control_net_is_the_corner_test(rng):
    """det J is bilinear on Q4, so the net refuses an element exactly where
    det J at one of its corners is <= 0."""
    kind, corners = ElementKind.Q4, REFERENCE_CORNERS[ElementKind.Q4]
    coords = (corners + 1) / 2 + rng.uniform(-0.5, 0.5, (4000, *corners.shape))
    at_corners = np.stack([_detJ(tabulate(kind, c[None], np.ones(1)), coords)[:, 0]
                           for c in corners], axis=-1)
    net, _ = detJ_net(kind, _detJ(basis_table(kind), coords))
    refused = (at_corners <= 0).any(axis=1)
    assert 0 < refused.sum() < len(coords)
    assert np.array_equal((net <= 0).any(axis=1), refused)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_scaled_mesh_is_refused_or_inverted_accurately(kind):
    """A mesh scaled by 10^k either is refused, when its detJ overflows or
    falls below the smallest normal number, or gets a G as accurate as that
    of LAPACK's J^-1; no numpy warning is emitted on the way."""
    base = _grid(kind, perturbed=True, divisions=3 if kind.dim == 2 else 2)
    accepted = []
    for k in range(-170, 171):
        nodes = base.nodes * 10.0 ** k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                mesh = Mesh(nodes=nodes, elements=base.elements, kind=kind)
            except MeshError as exc:
                assert re.match(r"^element \d+ is degenerate \(min detJ=", str(exc)), str(exc)
                continue
        accepted.append(k)
        lapack_G = np.einsum("...pmi,pnm->...pin", np.linalg.inv(jacobians(mesh)),
                             basis_table(kind).DN)
        assert _relative_error(mesh.geometry.G, lapack_G) <= 1e-12, k
    # the refused scales are the two ends of the sweep
    assert accepted == list(range(accepted[0], accepted[-1] + 1))
    assert accepted[0] < -90 and accepted[-1] > 90


def test_subnormal_detj_is_refused_as_degenerate():
    coords = REFERENCE_CORNERS[ElementKind.Q4] * 1e-155
    with pytest.raises(SingularJacobianError,
                       match=r"^element 0 is degenerate \(min detJ=[0-9.]+e-3\d\d\)$"):
        element_geometry(basis_table(ElementKind.Q4), coords)
