"""Shared helpers for the test suite."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from stokeslab.basis import _B8_CORNERS, _Q4_CORNERS, basis_table, element_geometry, tabulate
from stokeslab.formulations import assemble
from stokeslab.kinds import ElementKind
from stokeslab.linalg import SparseMatrix, split_dofs

REFERENCE_CORNERS = {
    ElementKind.T3: np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]),
    ElementKind.TET4: np.array(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    ),
    ElementKind.Q4: _Q4_CORNERS,
    ElementKind.B8: _B8_CORNERS,
}


def random_interior_point(kind, rng):
    """Uniform-ish random strictly interior reference coordinate."""
    d = kind.dim
    if kind.is_simplex:
        while True:
            xi = rng.uniform(0.05, 0.9, d)
            if xi.sum() < 0.95:
                return xi
    return rng.uniform(-0.9, 0.9, d)


def at_point(kind, xi, coords=None):
    """The one-point table of kind at reference point xi, as tau_at builds
    it, and the element geometry of coords there (None without coords),
    each with its point axis dropped."""
    table = tabulate(kind, np.asarray(xi, dtype=float)[None], np.ones(1))
    geom = None if coords is None else element_geometry(table, coords)

    def drop(obj):
        return SimpleNamespace(**{k: v[0] for k, v in vars(obj).items()})
    return drop(table), None if geom is None else drop(geom)


def jacobians(mesh):
    """J (..., p, dim, dim) at the quadrature points, by the einsum
    element_geometry forms it with."""
    return np.einsum("...ni,pnm->...pim", mesh.nodes[mesh.elements], basis_table(mesh.kind).DN)


def adjugate_inverse(J, detJ):
    """J^-1 = adj(J) / detJ, formed point by point on (..., p, dim, dim)
    arrays: column k of a 3x3 adjugate is the cross product of rows k+1 and
    k+2 of J.  Of jacobians(mesh) and the mesh's detJ it is the work array
    of element_geometry, bit for bit, that G and gb are formed from."""
    Jinv = np.empty_like(J)
    if J.shape[-1] == 2:
        np.multiply(np.swapaxes(J[..., ::-1, ::-1], -1, -2), [[1, -1], [-1, 1]], out=Jinv)
    else:
        for i, k in np.ndindex(3, 3):
            a, b, m, n = J[..., (k + 1) % 3, :], J[..., (k + 2) % 3, :], (i + 1) % 3, (i + 2) % 3
            np.subtract(a[..., m] * b[..., n], a[..., n] * b[..., m], out=Jinv[..., i, k])
    Jinv /= detJ[..., None, None]
    return Jinv


def distorted_element(kind, rng, amount=0.15):
    """Reference corners plus a random distortion that keeps detJ > 0."""
    base = REFERENCE_CORNERS[kind]
    scale = np.ptp(base, axis=0).max()
    for _ in range(50):
        coords = base + rng.uniform(-amount, amount, base.shape) * scale
        ok = True
        for xi in [random_interior_point(kind, rng) for _ in range(8)]:
            J = coords.T @ at_point(kind, xi)[0].DN
            if np.linalg.det(J) <= 1e-3:
                ok = False
                break
        if ok:
            return coords
    raise RuntimeError("could not build a valid distorted element")


def folded_cube(draw):
    """The unit B8 cube with each node moved by uniform(+-0.45), the draw-th
    (1-based) of default_rng(1)."""
    moves = np.random.default_rng(1).uniform(-0.45, 0.45, (draw, 8, 3))[-1]
    return (_B8_CORNERS + 1) / 2 + moves


def perturb_interior(mesh, amount, seed):
    """mesh with every interior node (outside the `all` node set) moved by
    uniform(-amount, amount) in each coordinate, drawn from default_rng(seed)."""
    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[list(mesh.nodeset("all"))] = False
    nodes = mesh.nodes.copy()
    nodes[interior] += np.random.default_rng(seed).uniform(-amount, amount,
                                                           (interior.sum(), mesh.dim))
    return dataclasses.replace(mesh, nodes=nodes)


def lexsort_sum(rows, cols, vals):
    """Reference triplet summation: one three-key lexsort by (row, col,
    value), then np.add.reduceat over each (row, col) group.  Returns the
    canonical (rows, cols, vals)."""
    order = np.lexsort((vals, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if not rows.size:
        return rows, cols, vals
    new_group = np.empty(rows.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.nonzero(new_group)[0]
    return rows[starts], cols[starts], np.add.reduceat(vals, starts)


def enriched_full(mesh, config):
    """The uncondensed enriched system (SparseMatrix, rhs) of config: the
    coarse dofs, then dim fine (bubble) dofs per element, element by element.

    Before condensation the enriched element blocks and loads are the
    Galerkin ones with the same nu, bp_epsilon and body force, so the
    coarse part is that Galerkin system; the FineBlocks give the rest.
    """
    system, _ = assemble(mesh, dataclasses.replace(config, scheme="galerkin"))
    _, fine = assemble(mesh, config)
    n_el, dim = fine.f_f.shape
    n = system.rhs.size
    velocity, pressure = split_dofs(np.arange(n), dim)
    coarse = np.concatenate([velocity[mesh.elements].reshape(n_el, -1),
                             pressure[mesh.elements]], 1)
    fdofs = n + np.arange(n_el * dim).reshape(n_el, dim)
    Kcf = np.concatenate([(fine.s[:, :, None, None] * np.eye(dim)).reshape(n_el, -1, dim),
                          fine.kpf], 1)
    parts = [system.triplets(),
             (coarse[:, :, None], fdofs[:, None, :], Kcf),
             (fdofs[:, :, None], coarse[:, None, :], Kcf.transpose(0, 2, 1)),
             (fdofs[:, :, None], fdofs[:, None, :], fine.kff[:, None, None] * np.eye(dim))]
    rows, cols, vals = (np.concatenate([np.broadcast_to(p[i], p[2].shape).ravel()
                                        for p in parts]) for i in range(3))
    total = n + fdofs.size
    rhs = np.concatenate([system.rhs, fine.f_f.ravel()])
    return SparseMatrix.from_triplets(total, total, rows, cols, vals), rhs


def fine_dofs_free(constraints, n):
    """Coarse-system constraints extended to the n dofs of an uncondensed
    enriched system: each appended fine dof is free (NaN)."""
    return np.pad(constraints, (0, n - constraints.size), constant_values=np.nan)


def solve_reduced(matrix, rhs, constraints):
    """x with each constrained dof at its value and the free dofs solved
    from the reduced system by scipy's spsolve."""
    from scipy.sparse.linalg import spsolve

    A = matrix.to_scipy()
    free = np.isnan(constraints)
    x = np.where(free, 0.0, constraints)
    x[free] = spsolve(A[free][:, free].tocsc(), rhs[free] - A[free][:, ~free] @ x[~free])
    return x


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# verdict lines collected by the acceptance gate, echoed after the run so
# they survive pytest's output capture even for passing tests
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
