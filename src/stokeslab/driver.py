"""Glue: assemble a case with a formulation, solve, and split the fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cases import TestCase, apply_case
from .formulations import (
    DofMap,
    FormulationConfig,
    assemble,
    assemble_enriched,
    build_dofmap,
    recover_fine,
)
from .linalg import solve_direct, solve_schur
from .mesh import Mesh


@dataclass(frozen=True)
class SolutionField:
    case: TestCase
    scheme: str
    mesh: Mesh
    dofmap: DofMap
    values: np.ndarray      # full dof vector
    velocity: np.ndarray    # (n_nodes, dim)
    pressure: np.ndarray    # (n_nodes,)
    fine: np.ndarray | None  # (n_elements, dim) bubble coefficients
    residual: float
    solver: str             # "schur-cg" or "lu"
    iterations: int         # CG iterations (0 for lu)


def solve_case(case: TestCase, mesh: Mesh, scheme: str, *,
               nu: float | None = None, bp_epsilon: float = 0.0,
               pivot_rtol: float = 1e-14,
               residual_rtol: float = 1e-10) -> SolutionField:
    """Assemble, constrain, and solve one benchmark problem.

    wvm and svm systems are solved by CG on the pressure Schur complement
    (``linalg.solve_schur``); where that route refuses the system (an
    indefinite velocity block, no convergence, a residual above
    ``residual_rtol``), and always for galerkin and enriched, whose pivot
    diagnostics matter, the sparse LU of ``linalg.solve_direct`` solves it.
    ``solver`` and ``iterations`` on the result say which one ran.

    ``pivot_rtol=0`` lets exactly singular-but-consistent systems (the
    enriched Q4/B8 patch test) run to completion so the unstable pressure
    can be observed; pair it with a relaxed ``residual_rtol``.
    """
    dofmap = build_dofmap(mesh)
    config = FormulationConfig(
        scheme=scheme,
        nu=case.nu if nu is None else nu,
        bp_epsilon=bp_epsilon,
        body_force=case.body_force,
    )
    fine_blocks = None
    if scheme == "enriched":
        system, fine_blocks = assemble_enriched(mesh, config, dofmap)
    else:
        system = assemble(mesh, config, dofmap)
    constrained = apply_case(case, mesh, dofmap, system)
    solved = None
    if scheme in ("wvm", "svm"):
        solved = solve_schur(constrained, residual_rtol=residual_rtol, pivot_rtol=pivot_rtol)
    if solved is None:
        x, res = solve_direct(constrained, pivot_rtol=pivot_rtol,
                              residual_rtol=residual_rtol)
        solver, iterations = "lu", 0
    else:
        x, res, iterations = solved
        solver = "schur-cg"
    velocity = x[: dofmap.n_velocity].reshape(mesh.n_nodes, mesh.dim)
    pressure = x[dofmap.n_velocity:]
    fine = None
    if fine_blocks is not None:
        fine = recover_fine(x, fine_blocks, mesh, dofmap)
    return SolutionField(
        case=case, scheme=scheme, mesh=mesh, dofmap=dofmap, values=x,
        velocity=velocity, pressure=pressure, fine=fine, residual=res,
        solver=solver, iterations=iterations,
    )
