"""Glue: assemble a case with a formulation, solve, and split the fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cases import TestCase, apply_case
from .formulations import FormulationConfig, assemble, recover_fine
from .linalg import solve_direct, solve_schur, split_dofs
from .mesh import Mesh


@dataclass(frozen=True)
class SolutionField:
    mesh: Mesh
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
    (``linalg.solve_schur``); where that route refuses the system (the band
    Cholesky of the velocity block fails, no convergence, a residual above
    ``residual_rtol``), and always for galerkin and enriched, whose pivot
    diagnostics matter, the SuperLU factor of ``linalg.solve_direct`` solves it.
    ``solver`` and ``iterations`` say which one ran; both report as
    ``residual`` the one block-matvec residual (``linalg._residual``).  With the
    one pressure pin of the cases, the CG solves for p - p_pin.

    ``pivot_rtol=0`` lets exactly singular-but-consistent systems (the
    enriched Q4/B8 patch test) run to completion so the unstable pressure
    can be observed; pair it with a relaxed ``residual_rtol``.
    """
    config = FormulationConfig(
        scheme=scheme,
        nu=case.nu if nu is None else nu,
        bp_epsilon=bp_epsilon,
        body_force=case.body_force,
    )
    system, fine_blocks = assemble(mesh, config)
    constrained = apply_case(case, mesh, system)
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
    velocity, pressure = split_dofs(x, mesh.dim)
    fine = None if fine_blocks is None else recover_fine(x, fine_blocks, mesh)
    return SolutionField(
        mesh=mesh, values=x,
        velocity=velocity, pressure=pressure, fine=fine, residual=res,
        solver=solver, iterations=iterations,
    )
