"""Benchmark problems: boundary data, body forces, exact solutions.

Every case callable takes an array of points, shape (..., dim), and returns
the values at all of them at once: shape (..., dim) for the Dirichlet data,
the body force, the exact velocity and the exact pressure gradient, and
shape (...) for the exact pressure.  A single point (dim,) is the case
with no leading axes.

Dirichlet data may constrain a subset of velocity components at a node by
returning ``nan`` for the free components.  Tags are applied in declaration
order and later tags override earlier ones at shared nodes, which is how the
non-leaky cavity treatment (corner nodes belong to the vertical walls, not
the lid) is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import LinearSystem, apply_constraints, split_dofs
from .mesh import Mesh

CASE_NAMES = ("patch_constant", "lid_cavity", "body_force_cavity")


@dataclass(frozen=True)
class TestCase:
    name: str
    dim: int
    dirichlet: dict            # tag -> callable(x) -> velocity (nan = free comp)
    body_force: object         # callable(x) -> vector, or None
    pressure_pin: tuple        # (point, value)
    nu: float = 1.0
    exact_velocity: object = None
    exact_pressure: object = None
    exact_pressure_grad: object = None

    @property
    def has_exact(self) -> bool:
        return self.exact_velocity is not None


def _const(value):
    value = np.asarray(value, dtype=float)
    return lambda x: np.broadcast_to(value, np.shape(x)[:-1] + value.shape)


def patch_constant(dim: int) -> TestCase:
    """Constant-state patch test: v = (10, 0[, 0]), p = 10, b = 0."""
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    vel = np.zeros(dim)
    vel[0] = 10.0
    return TestCase(
        name="patch_constant",
        dim=dim,
        dirichlet={"all": _const(vel)},
        body_force=None,
        pressure_pin=(np.zeros(dim), 10.0),
        nu=1.0,
        exact_velocity=_const(vel),
        exact_pressure=_const(10.0),
        exact_pressure_grad=_const(np.zeros(dim)),
    )


def lid_cavity(dim: int) -> TestCase:
    """Lid-driven cavity on the unit square/cube, non-leaky corners.

    The walls are listed after the lid so wall data wins at shared nodes.
    The 3-D variant is the one-element-thick planar cavity: the front/back
    faces constrain only the out-of-plane component, the in-plane data
    repeats the 2-D pattern.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    lid = np.zeros(dim)
    lid[0] = 1.0
    zero = _const(np.zeros(dim))
    dirichlet = {"top": _const(lid), "left": zero, "right": zero, "bottom": zero}
    if dim == 3:
        out_of_plane = _const(np.array([np.nan, np.nan, 0.0]))
        dirichlet = {"front": out_of_plane, "back": out_of_plane, **dirichlet}
    return TestCase(
        name="lid_cavity",
        dim=dim,
        dirichlet=dirichlet,
        body_force=None,
        pressure_pin=(np.zeros(dim), 0.0),
        nu=1.0,
    )


def _bf_body(x):
    X, y = x[..., 0], x[..., 1]
    b1 = ((12 - 24 * y) * X**4 + (-24 + 48 * y) * X**3
          + (-48 * y + 72 * y**2 - 48 * y**3 + 12) * X**2
          + (-2 + 24 * y - 72 * y**2 + 48 * y**3) * X
          + 1 - 4 * y + 12 * y**2 - 8 * y**3)
    b2 = ((8 - 48 * y + 48 * y**2) * X**3 + (-12 + 72 * y - 72 * y**2) * X**2
          + (4 - 24 * y + 48 * y**2 - 48 * y**3 + 24 * y**4) * X
          - 12 * y**2 + 24 * y**3 - 12 * y**4)
    return np.stack([b1, b2], axis=-1)


def _bf_velocity(x):
    X, y = x[..., 0], x[..., 1]
    return np.stack(
        [X**2 * (1 - X) ** 2 * (2 * y - 6 * y**2 + 4 * y**3),
         -(y**2) * (1 - y) ** 2 * (2 * X - 6 * X**2 + 4 * X**3)], axis=-1
    )


def body_force_cavity() -> TestCase:
    """Body-force-driven cavity on the unit square with a known smooth
    solution: v vanishes on the whole boundary, p = x(1-x).

    The body force is consistent with the momentum operator
    -2*nu*lap(v) + grad(p) at nu = 1/2.
    """
    return TestCase(
        name="body_force_cavity",
        dim=2,
        dirichlet={"all": _const(np.zeros(2))},
        body_force=_bf_body,
        pressure_pin=(np.zeros(2), 0.0),
        nu=0.5,
        exact_velocity=_bf_velocity,
        exact_pressure=lambda x: x[..., 0] * (1 - x[..., 0]),
        exact_pressure_grad=lambda x: np.stack(
            [1 - 2 * x[..., 0], np.zeros_like(x[..., 0])], axis=-1),
    )


def case_by_name(name: str, dim: int = 2) -> TestCase:
    if name == "patch_constant":
        return patch_constant(dim)
    if name == "lid_cavity":
        return lid_cavity(dim)
    if name == "body_force_cavity":
        if dim != 2:
            raise ValueError("body_force_cavity is a 2-D problem")
        return body_force_cavity()
    raise ValueError(f"unknown case {name!r}; valid: {CASE_NAMES}")


def pin_node(case: TestCase, mesh: Mesh) -> int:
    """Index of the mesh node nearest the case's pressure-pin location."""
    point = np.asarray(case.pressure_pin[0], dtype=float)
    d2 = np.sum((mesh.nodes - point) ** 2, axis=1)
    return int(np.argmin(d2))


def case_constraints(case: TestCase, mesh: Mesh) -> np.ndarray:
    """Dirichlet velocity data plus the pressure pin, as the prescribed value
    of every dof (laid out as linalg.split_dofs reads it), NaN where the dof
    is free."""
    if case.dim != mesh.dim:
        raise ValueError(f"case is {case.dim}-D but mesh is {mesh.dim}-D")
    constraints = np.full(mesh.n_nodes * (mesh.dim + 1), np.nan)
    velocity, pressure = split_dofs(constraints, mesh.dim)
    for tag, fn in case.dirichlet.items():  # later tags override
        nodes = np.array(sorted(mesh.nodeset(tag)), dtype=np.intp)
        vals = np.broadcast_to(np.asarray(fn(mesh.nodes[nodes]), dtype=float),
                               (nodes.size, mesh.dim))
        velocity[nodes] = np.where(np.isnan(vals), velocity[nodes], vals)
    pressure[pin_node(case, mesh)] = case.pressure_pin[1]
    return constraints


def apply_case(case: TestCase, mesh: Mesh, system: LinearSystem) -> LinearSystem:
    """The system with the case's constraints folded in."""
    return apply_constraints(system, case_constraints(case, mesh))
