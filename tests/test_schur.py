"""Pressure Schur-complement CG (linalg.solve_schur) against the sparse LU,
and which solver solve_case picks."""

import dataclasses

import numpy as np
import pytest

from stokeslab import linalg
from stokeslab.cases import apply_case, case_by_name
from stokeslab.driver import solve_case
from stokeslab.formulations import FormulationConfig, assemble
from stokeslab.kinds import ElementKind
from stokeslab.linalg import SolveAccuracyError, solve_direct, solve_schur
from stokeslab.mesh import generate_grid

COMBOS = [(kind, case_name)
          for kind in ElementKind
          for case_name in ("patch_constant", "lid_cavity", "body_force_cavity")
          if not (case_name == "body_force_cavity" and kind.dim == 3)]


def _constrained(case, mesh, scheme):
    config = FormulationConfig(scheme=scheme, nu=case.nu, body_force=case.body_force)
    return apply_case(case, mesh, assemble(mesh, config)[0])


def _rel_diff(x, y):
    return np.abs(x - y).max() / np.abs(y).max()


def _perturbed_q4(n=30, amount=0.3):
    """Q4 n x n grid with interior nodes moved by up to amount * h."""
    mesh = generate_grid(ElementKind.Q4, n)
    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[list(mesh.nodeset("all"))] = False
    h = 1.0 / n
    nodes = mesh.nodes.copy()
    rng = np.random.default_rng(0)
    nodes[interior] += rng.uniform(-amount * h, amount * h, (interior.sum(), 2))
    return dataclasses.replace(mesh, nodes=nodes), interior


@pytest.mark.parametrize("scheme", ["wvm", "svm"])
@pytest.mark.parametrize("kind, case_name", COMBOS,
                         ids=[f"{k.name}-{c}" for k, c in COMBOS])
def test_schur_cg_matches_lu(kind, case_name, scheme):
    mesh = generate_grid(kind, 8 if kind.dim == 2 else 3)
    case = case_by_name(case_name, kind.dim)
    constrained = _constrained(case, mesh, scheme)
    x_lu, _ = solve_direct(constrained)
    sol = solve_case(case, mesh, scheme)
    assert sol.solver == "schur-cg"
    assert sol.iterations > 0
    assert sol.residual < 1e-12
    assert _rel_diff(sol.values, x_lu) <= 1e-10
    # the residual read from the blocks is the monolithic matrix's, to the bit
    A = constrained.matrix.to_scipy()
    assert sol.residual == linalg._residual(A, sol.values, constrained.rhs)


@pytest.mark.parametrize("scheme", ["wvm", "svm"])
def test_3d_cavity_with_different_free_sets_per_component(scheme):
    # one element thick: the front/back faces constrain the z component of
    # every node, the in-plane components stay free inside the square
    mesh = generate_grid(ElementKind.B8, (10, 10, 1))
    case = case_by_name("lid_cavity", 3)
    x_lu, _ = solve_direct(_constrained(case, mesh, scheme))
    sol = solve_case(case, mesh, scheme)
    assert sol.solver == "schur-cg"
    assert _rel_diff(sol.values, x_lu) <= 1e-10


def test_indefinite_velocity_block_falls_back_to_lu():
    mesh, interior = _perturbed_q4()
    case = case_by_name("lid_cavity", 2)
    system = _constrained(case, mesh, "svm")
    # the svm velocity block of one component has two negative eigenvalues
    K = system.blocks.pattern.matrix(system.blocks.K).to_dense()
    assert (np.linalg.eigvalsh(K[np.ix_(interior, interior)]) < 0).sum() == 2
    assert solve_schur(system) is None
    x_lu, res = solve_direct(system)
    sol = solve_case(case, mesh, "svm")
    assert sol.solver == "lu"
    assert sol.iterations == 0
    assert sol.values.tobytes() == x_lu.tobytes()
    assert sol.residual == res


@pytest.mark.parametrize("kind, scheme, bp_epsilon", [
    (ElementKind.Q4, "galerkin", 0.05),
    (ElementKind.T3, "enriched", 0.0),
])
def test_galerkin_and_enriched_use_lu(kind, scheme, bp_epsilon):
    mesh = generate_grid(kind, 6)
    sol = solve_case(case_by_name("lid_cavity", 2), mesh, scheme, bp_epsilon=bp_epsilon)
    assert sol.solver == "lu"
    assert sol.iterations == 0


def test_schur_refuses_when_cg_hits_its_cap(monkeypatch):
    mesh = generate_grid(ElementKind.Q4, 6)
    system = _constrained(case_by_name("lid_cavity", 2), mesh, "svm")
    assert solve_schur(system) is not None
    monkeypatch.setattr(linalg, "CG_MAXITER", 2)
    assert solve_schur(system) is None


def test_nan_body_force_is_a_solve_failure():
    base = case_by_name("body_force_cavity")
    case = dataclasses.replace(base, body_force=lambda x: np.full(x.shape, np.nan))
    with pytest.raises(SolveAccuracyError, match="not finite"):
        solve_case(case, generate_grid(ElementKind.Q4, 4), "svm")
