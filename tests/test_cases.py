"""Benchmark case definitions: boundary data, body force, exact solutions."""

import dataclasses

import numpy as np
import pytest

from stokeslab.cases import (
    apply_case,
    case_by_name,
    case_constraints,
    pin_node,
)
from stokeslab.formulations import FormulationConfig, assemble
from stokeslab.kinds import ElementKind
from stokeslab.mesh import generate_grid


def test_case_registry():
    assert case_by_name("patch_constant", 3).dim == 3
    assert case_by_name("lid_cavity", 2).name == "lid_cavity"
    assert case_by_name("body_force_cavity").nu == 0.5
    with pytest.raises(ValueError, match="unknown case"):
        case_by_name("vortex_street")
    with pytest.raises(ValueError, match="2-D"):
        case_by_name("body_force_cavity", dim=3)
    with pytest.raises(ValueError):
        case_by_name("patch_constant", dim=4)


# --------------------------------------------------------------- patch test

def test_patch_exact_fields_constant():
    case = case_by_name("patch_constant", 2)
    x = np.array([0.37, 0.81])
    assert np.allclose(case.exact_velocity(x), [10.0, 0.0])
    assert case.exact_pressure(x) == 10.0
    assert np.allclose(case.exact_pressure_grad(x), 0.0)
    assert case.body_force is None


def test_patch_constraint_count_square_grid():
    mesh = generate_grid(ElementKind.Q4, 10)
    case = case_by_name("patch_constant", 2)
    cons = case_constraints(case, mesh)
    assert cons.shape == (mesh.n_nodes * 3,)
    # 40 perimeter nodes x 2 velocity components + 1 pressure pin
    assert np.count_nonzero(~np.isnan(cons)) == 40 * 2 + 1
    pressure = cons[mesh.n_nodes * 2:]
    assert np.flatnonzero(~np.isnan(pressure)).tolist() == [pin_node(case, mesh)]
    assert pressure[pin_node(case, mesh)] == 10.0


# --------------------------------------------------------------- lid cavity

def test_cavity_lid_and_wall_data_non_leaky():
    n = 6
    mesh = generate_grid(ElementKind.Q4, n)
    case = case_by_name("lid_cavity", 2)
    velocity = case_constraints(case, mesh)[:mesh.n_nodes * 2].reshape(-1, 2)
    lid_x = [node for node in mesh.nodeset("top") if velocity[node, 0] == 1.0]
    # the two lid corners belong to the vertical walls, so they carry v = 0
    assert len(lid_x) == n - 1
    for node in mesh.nodeset("top") & (mesh.nodeset("left") | mesh.nodeset("right")):
        assert velocity[node, 0] == 0.0
    # every boundary node has both components constrained, and no other node any
    boundary = np.zeros(mesh.n_nodes, dtype=bool)
    boundary[list(mesh.nodeset("all"))] = True
    assert np.array_equal(~np.isnan(velocity), np.repeat(boundary[:, None], 2, axis=1))


def test_cavity_3d_front_back_fix_only_out_of_plane():
    mesh = generate_grid(ElementKind.B8, (4, 4, 1))
    case = case_by_name("lid_cavity", 3)
    velocity = case_constraints(case, mesh)[:mesh.n_nodes * 3].reshape(-1, 3)
    interior_front = [
        n for n in mesh.nodeset("front")
        if n not in mesh.nodeset("left") | mesh.nodeset("right")
        | mesh.nodeset("top") | mesh.nodeset("bottom")
    ]
    assert interior_front
    for node in interior_front:
        vx, vy, vz = velocity[node]
        assert np.isnan(vx) and np.isnan(vy)  # in-plane free
        assert vz == 0.0  # out-of-plane fixed
    # mid-lid node away from walls still carries the lid velocity
    mid = [
        n for n in mesh.nodeset("top")
        if n not in mesh.nodeset("left") | mesh.nodeset("right")
    ]
    assert all(velocity[n, 0] == 1.0 for n in mid)


def test_later_tag_overrides_but_its_nan_component_keeps_the_earlier_value():
    mesh = generate_grid(ElementKind.Q4, 2)
    case = dataclasses.replace(case_by_name("lid_cavity", 2), dirichlet={
        "all": lambda x: np.full(x.shape, 3.0),
        "left": lambda x: np.stack([np.full(len(x), 4.0), np.full(len(x), np.nan)], -1),
    })
    velocity = case_constraints(case, mesh)[:mesh.n_nodes * 2].reshape(-1, 2)
    left = sorted(mesh.nodeset("left"))
    right_only = sorted(mesh.nodeset("all") - mesh.nodeset("left"))
    assert velocity[left].tolist() == [[4.0, 3.0]] * len(left)
    assert velocity[right_only].tolist() == [[3.0, 3.0]] * len(right_only)
    assert np.isnan(velocity[4]).all()  # the centre node


def test_cavity_pressure_pin_at_origin_corner():
    mesh = generate_grid(ElementKind.Q4, 4)
    case = case_by_name("lid_cavity", 2)
    node = pin_node(case, mesh)
    assert np.allclose(mesh.nodes[node], [0.0, 0.0])


# --------------------------------------------------------- body-force cavity

def test_body_force_exact_midpoint_values():
    case = case_by_name("body_force_cavity")
    x = np.array([0.5, 0.5])
    assert np.allclose(case.exact_velocity(x), [0.0, 0.0], atol=1e-15)
    assert case.exact_pressure(x) == pytest.approx(0.25)


def test_body_force_exact_velocity_vanishes_on_boundary(rng):
    case = case_by_name("body_force_cavity")
    for _ in range(50):
        t = rng.uniform(0, 1)
        for x in ([t, 0.0], [t, 1.0], [0.0, t], [1.0, t]):
            assert np.abs(case.exact_velocity(np.array(x))).max() < 1e-14


def test_body_force_exact_velocity_divergence_free(rng):
    case = case_by_name("body_force_cavity")
    h = 1e-6
    for _ in range(100):
        x = rng.uniform(0.05, 0.95, 2)
        div = 0.0
        for k in range(2):
            dp = x.copy()
            dp[k] += h
            dm = x.copy()
            dm[k] -= h
            div += (case.exact_velocity(dp)[k] - case.exact_velocity(dm)[k]) / (2 * h)
        assert abs(div) < 1e-6


def test_body_force_satisfies_momentum_balance(rng):
    """-2*nu*lap(v) + grad(p) - b = 0 pointwise, by finite differences."""
    case = case_by_name("body_force_cavity")
    nu = case.nu
    h = 1e-4
    for _ in range(20):
        x = rng.uniform(0.1, 0.9, 2)
        lap = -4.0 * case.exact_velocity(x)
        for k in range(2):
            dp = x.copy()
            dp[k] += h
            dm = x.copy()
            dm[k] -= h
            lap = lap + (case.exact_velocity(dp) + case.exact_velocity(dm))
        lap = lap / h**2
        resid = -2 * nu * lap + case.exact_pressure_grad(x) - case.body_force(x)
        assert np.abs(resid).max() < 1e-5


def test_exact_pressure_gradient_consistent(rng):
    case = case_by_name("body_force_cavity")
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(0.05, 0.95, 2)
        fd = np.array([
            (case.exact_pressure(x + [h, 0]) - case.exact_pressure(x - [h, 0])) / (2 * h),
            (case.exact_pressure(x + [0, h]) - case.exact_pressure(x - [0, h])) / (2 * h),
        ])
        assert np.allclose(case.exact_pressure_grad(x), fd, atol=1e-8)


@pytest.mark.parametrize("name,dim", [("patch_constant", 2), ("patch_constant", 3),
                                      ("body_force_cavity", 2)])
def test_exact_solution_matches_dirichlet_data(name, dim):
    case = case_by_name(name, dim)
    kind = ElementKind.Q4 if dim == 2 else ElementKind.B8
    mesh = generate_grid(kind, 3)
    for tag, fn in case.dirichlet.items():
        for node in mesh.nodeset(tag):
            x = mesh.nodes[node]
            data = np.asarray(fn(x), dtype=float)
            exact = np.asarray(case.exact_velocity(x), dtype=float)
            mask = ~np.isnan(data)
            assert np.abs(data[mask] - exact[mask]).max() < 1e-12


# ------------------------------------------------------------------ apply_case

def test_apply_case_unknown_tag_names_the_tag():
    mesh = generate_grid(ElementKind.Q4, 2)
    mesh.boundary_sets.pop("all")
    case = case_by_name("patch_constant", 2)
    system, _ = assemble(mesh, FormulationConfig(scheme="galerkin"))
    with pytest.raises(Exception, match="all"):
        apply_case(case, mesh, system)


def test_apply_case_dimension_mismatch():
    mesh = generate_grid(ElementKind.Q4, 2)
    case = case_by_name("patch_constant", 3)
    with pytest.raises(ValueError, match="2-D"):
        case_constraints(case, mesh)


def test_apply_case_folds_constraints():
    mesh = generate_grid(ElementKind.Q4, 3)
    case = case_by_name("patch_constant", 2)
    system, _ = assemble(mesh, FormulationConfig(scheme="svm"))
    out = apply_case(case, mesh, system)
    assert np.array_equal(out.constraints, case_constraints(case, mesh), equal_nan=True)
    node = next(iter(mesh.nodeset("all")))
    assert out.rhs[node * 2] == 10.0
    assert out.matrix.to_dense()[node * 2].tolist() == np.eye(out.rhs.size)[node * 2].tolist()
