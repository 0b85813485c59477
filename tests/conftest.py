"""Shared helpers for the test suite."""

import numpy as np
import pytest

from stokeslab.basis import _B8_CORNERS, _Q4_CORNERS
from stokeslab.kinds import ElementKind

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


def distorted_element(kind, rng, amount=0.15):
    """Reference corners plus a random distortion that keeps detJ > 0."""
    base = REFERENCE_CORNERS[kind]
    scale = np.ptp(base, axis=0).max()
    for _ in range(50):
        coords = base + rng.uniform(-amount, amount, base.shape) * scale
        from stokeslab.basis import eval_basis

        ok = True
        for xi in [random_interior_point(kind, rng) for _ in range(8)]:
            J = coords.T @ eval_basis(kind, xi).DN
            if np.linalg.det(J) <= 1e-3:
                ok = False
                break
        if ok:
            return coords
    raise RuntimeError("could not build a valid distorted element")


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
