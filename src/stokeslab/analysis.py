"""Post-processing: error norms, convergence studies, the LBB eigenvalue
test for pure pressure modes, checkerboard amplitude, and vortex location."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import basis_table, integrate
from .cases import TestCase, case_by_name, case_constraints
from .driver import solve_case
from .formulations import FormulationConfig, assemble, assemble_enriched, build_dofmap
from .kinds import ElementKind
from .linalg import eig_sym_generalized
from .mesh import Mesh, generate_grid
from .quadrature import rule_for

ZERO_MODE_RTOL = 1e-10


@dataclass(frozen=True)
class ErrorReport:
    velocity_l2: float
    pressure_h1semi: float
    h: float


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    zero_count: int
    checkerboard_present: bool


def mesh_size(mesh: Mesh) -> float:
    """Largest element diameter (max pairwise node distance per element)."""
    coords = mesh.nodes[mesh.elements]  # (nel, nen, dim)
    diff = coords[:, :, None, :] - coords[:, None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max())


def error_norms(solution, case: TestCase, mesh: Mesh) -> ErrorReport:
    """Velocity L2 and pressure H1-seminorm errors against the exact fields,
    integrated with the assembly quadrature."""
    if not case.has_exact:
        raise ValueError(f"case {case.name!r} has no exact solution")
    elements = mesh.elements
    table = basis_table(mesh.kind, rule_for(mesh.kind))
    geom = mesh.geometry
    vh = np.matmul(table.N, solution.velocity[elements])
    gph = np.einsum("epin,en->epi", geom.G, solution.pressure[elements])
    vex = case.exact_velocity(geom.x)
    gpex = case.exact_pressure_grad(geom.x)
    v2 = integrate(geom.wdet, ((vh - vex) ** 2).sum(axis=-1))
    p2 = integrate(geom.wdet, ((gph - gpex) ** 2).sum(axis=-1))
    # element integrals added as a running sum in mesh order
    return ErrorReport(
        velocity_l2=np.sqrt(np.cumsum(v2)[-1]),
        pressure_h1semi=np.sqrt(np.cumsum(p2)[-1]),
        h=mesh_size(mesh),
    )


def convergence_study(case: TestCase, scheme: str, kind: ElementKind,
                      levels, *, bp_epsilon: float = 0.0):
    """Solve on a sequence of uniform grids and fit log-log error slopes.

    Returns (rows, slopes): rows of (h, velocity_l2, pressure_h1semi) and a
    dict with the fitted slopes, or {'exact': True} when every error is at
    machine precision and slope fitting is meaningless.
    """
    levels = list(levels)
    if len(levels) < 3:
        raise ValueError("need >= 3 levels for a slope fit")
    if not case.has_exact:
        raise ValueError(f"case {case.name!r} has no exact solution")
    rows = []
    for n in levels:
        divisions = (n,) * case.dim
        mesh = generate_grid(kind, divisions)
        sol = solve_case(case, mesh, scheme, bp_epsilon=bp_epsilon)
        rep = error_norms(sol, case, mesh)
        rows.append((rep.h, rep.velocity_l2, rep.pressure_h1semi))
    errs = np.array(rows)
    if errs[:, 1:].max() < 1e-10:
        return rows, {"exact": True}
    logh = np.log(errs[:, 0])
    slopes = {
        "velocity_l2": float(np.polyfit(logh, np.log(errs[:, 1]), 1)[0]),
        "pressure_h1semi": float(np.polyfit(logh, np.log(errs[:, 2]), 1)[0]),
    }
    return rows, slopes


def pressure_mass_matrix(mesh: Mesh) -> np.ndarray:
    """Dense nodal pressure mass matrix int(N_a N_b)."""
    N = basis_table(mesh.kind, rule_for(mesh.kind)).N
    Me = np.einsum("ep,pa,pb->eab", mesh.geometry.wdet, N, N)
    return mesh.node_pattern.matrix(mesh.node_pattern.sum(Me.ravel())).to_dense()


def _grid_parity_pattern(mesh: Mesh) -> np.ndarray:
    """(-1)^(i+j[+k]) nodal pattern from coordinate ranks on a structured grid."""
    ranks = np.zeros(mesh.n_nodes, dtype=int)
    for axis in range(mesh.dim):
        vals = np.round(mesh.nodes[:, axis], 9)
        uniq = np.unique(vals)
        ranks += np.searchsorted(uniq, vals)
    return np.where(ranks % 2 == 0, 1.0, -1.0)


def lbb_spectrum(mesh: Mesh, scheme: str) -> SpectrumReport:
    """Eigenvalues of the pressure Schur complement S = B A^-1 B^T + C
    against the pressure mass matrix, under homogeneous Dirichlet velocity.

    A and B are the Galerkin velocity block and coupling; C is the scheme's
    positive semidefinite pressure stabilization operator (zero for plain
    Galerkin).  The kernel of S is exactly the span of the surviving pure
    pressure modes: the hydrostatic mode, plus the checkerboard when the
    scheme fails to control it.
    """
    dofmap = build_dofmap(mesh)
    case = case_by_name("patch_constant", mesh.dim)
    cons = case_constraints(case, mesh, dofmap)
    fixed = {d for d in cons if d < dofmap.n_velocity}
    free_v = np.array(
        [d for d in range(dofmap.n_velocity) if d not in fixed], dtype=np.intp
    )
    if free_v.size == 0:
        raise ValueError("no interior velocity dofs")

    gal = assemble(mesh, FormulationConfig(scheme="galerkin", nu=1.0)).blocks
    n, dim = mesh.n_nodes, mesh.dim
    K = gal.pattern.matrix(gal.K).to_dense()
    A = np.zeros((n, dim, n, dim))
    for i in range(dim):
        A[:, i, :, i] = K
    A = A.reshape(n * dim, -1)[np.ix_(free_v, free_v)]
    B = np.stack([gal.pattern.matrix(Bj).to_dense() for Bj in gal.B], -1)
    B = np.ascontiguousarray(B.reshape(n, -1)[:, free_v])  # BLAS rounding follows layout

    if scheme == "galerkin":
        C = np.zeros((n, n))
    else:
        config = FormulationConfig(scheme=scheme, nu=1.0)
        stab = (assemble_enriched(mesh, config)[0] if scheme == "enriched"
                else assemble(mesh, config)).blocks
        C = -stab.pattern.matrix(stab.Kpp).to_dense()

    S = B @ np.linalg.solve(A, B.T) + C
    S = 0.5 * (S + S.T)
    M = pressure_mass_matrix(mesh)
    lam, Q = eig_sym_generalized(S, M)
    tol = ZERO_MODE_RTOL * np.abs(lam).max()
    zero = np.abs(lam) < tol
    zero_count = int(zero.sum())

    checkerboard = False
    if zero_count >= 2:
        pattern = _grid_parity_pattern(mesh)
        basis, _ = np.linalg.qr(Q[:, zero])
        proj = basis @ (basis.T @ pattern)
        corr = np.linalg.norm(proj) / np.linalg.norm(pattern)
        checkerboard = bool(corr > 0.9)
    return SpectrumReport(
        eigenvalues=lam, zero_count=zero_count, checkerboard_present=checkerboard
    )


def checkerboard_amplitude(solution, case: TestCase, mesh: Mesh) -> float:
    """Max nodal deviation of the computed pressure from the exact pressure."""
    pex = case.exact_pressure(mesh.nodes)
    return float(np.abs(solution.pressure - pex).max())


def locate_vortex(solution, mesh: Mesh) -> float:
    """Height of the main cavity vortex: the topmost zero crossing of v_x
    sampled along the vertical centerline x = 0.5."""
    nodes = mesh.nodes
    on_line = np.abs(nodes[:, 0] - 0.5) < 1e-9
    if mesh.dim == 3:
        on_line &= np.abs(nodes[:, 2] - nodes[:, 2].min()) < 1e-9
    idx = np.nonzero(on_line)[0]
    if idx.size < 2:
        raise ValueError("no centerline nodes at x = 0.5")
    order = np.argsort(nodes[idx, 1])
    ys = nodes[idx[order], 1]
    vx = solution.velocity[idx[order], 0]
    for k in range(len(ys) - 1, 0, -1):
        a, b = vx[k - 1], vx[k]
        if a == 0.0 and b == 0.0:
            continue
        if a * b <= 0.0 and not (a == 0.0 and k - 1 == 0):
            return float(ys[k - 1] + (ys[k] - ys[k - 1]) * (-a) / (b - a))
    raise ValueError("no sign change of v_x along the centerline")
