"""Pressure Schur-complement CG (linalg.solve_schur) against the sparse LU,
and which solver solve_case picks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import perturb_interior, schur_stacked
from test_equivalence import _grid

from stokeslab import linalg
from stokeslab.analysis import error_norms, pressure_mass_matrix
from stokeslab.cases import apply_case, case_by_name, case_constraints, pin_node
from stokeslab.driver import solve_case
from stokeslab.formulations import FormulationConfig, assemble
from stokeslab.kinds import ElementKind
from stokeslab.linalg import (SolveAccuracyError, apply_constraints, solve_direct,
                              solve_schur, split_dofs)
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
    mesh = perturb_interior(generate_grid(ElementKind.Q4, n), amount * (1.0 / n), seed=0)
    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[list(mesh.nodeset("all"))] = False
    return mesh, interior


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
    if case_name == "patch_constant":
        # g is roundoff below the stopping scale, so the CG takes no step
        # and the pressure is p_pin
        assert sol.iterations == 0
        assert (sol.pressure == 10.0).all()
    else:
        assert sol.iterations > 0
    assert sol.residual < 1e-12
    assert _rel_diff(sol.values, x_lu) <= 1e-10
    # the residual read from the blocks is the monolithic matrix's, but
    # B = G^T sums each pressure row in G's order, not the monolithic one:
    # that moved the residual by at most 9.3e-4 of itself over these cases
    A = constrained.matrix.to_scipy()
    assert sol.residual == pytest.approx(linalg._residual(A, sol.values, constrained.rhs),
                                         rel=1e-2, abs=0)


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
    K = system.pattern.matrix(system.K).to_dense()
    assert (np.linalg.eigvalsh(K[np.ix_(interior, interior)]) < 0).sum() == 2
    assert solve_schur(system) is None
    x_lu, res = solve_direct(system)
    sol = solve_case(case, mesh, "svm")
    assert sol.solver == "lu"
    assert sol.iterations == 0
    assert sol.values.tobytes() == x_lu.tobytes()
    assert sol.residual == res


def _counting_v_solves(monkeypatch):
    """A list that gains one entry per V^-1 solve of solve_schur, for
    systems whose velocity components share their free nodes."""
    solves = []

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, y):
            solves.append(1)
            return self.lu.solve(y)

    splu = linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu", lambda *a, **k: Counted(splu(*a, **k)))
    return solves


def test_not_positive_q_S_q_refuses_the_cg_and_iterations_count_its_steps(monkeypatch):
    # svm's tau changes sign on this distorted T3 grid, so its K_pp is
    # indefinite while every V block stays SPD: the q^T S q check refuses
    # the CG at its 8th product with S, one V^-1 solve for g before them.
    # Without it the refusal would wait for CG_MAXITER or never come
    mesh = perturb_interior(generate_grid(ElementKind.T3, 6), 0.12 / 6, seed=1)
    case = case_by_name("lid_cavity", 2)
    svm = _constrained(case, mesh, "svm")
    free_v, _ = split_dofs(np.isnan(svm.constraints), 2)
    K = svm.pattern.matrix(svm.K).to_dense()
    for c in range(2):
        free = free_v[:, c]
        assert np.linalg.eigvalsh(K[np.ix_(free, free)]).min() > 0
    solves = _counting_v_solves(monkeypatch)
    assert solve_schur(svm) is None
    assert len(solves) == 9
    assert solve_case(case, mesh, "svm").solver == "lu"
    # wvm converges: one V^-1 solve for g, one per step, one for v
    solves.clear()
    iterations = solve_schur(_constrained(case, mesh, "wvm"))[2]
    assert iterations == 35
    assert len(solves) == iterations + 2
    assert solve_case(case, mesh, "wvm").solver == "schur-cg"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_svm_falls_back_to_lu_on_distorted_q4_while_wvm_converges(seed):
    """On a 16x16 Q4 grid with interior nodes moved by up to 0.2h, svm's
    pointwise tau makes its velocity block indefinite, so the body-force
    cavity goes to LU; wvm's CG converges (50 iterations)."""
    mesh = perturb_interior(generate_grid(ElementKind.Q4, 16), 0.2 / 16, seed)
    case = case_by_name("body_force_cavity", 2)
    assert solve_case(case, mesh, "svm").solver == "lu"
    assert solve_case(case, mesh, "wvm").solver == "schur-cg"


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


def test_a_failed_ldlt_factor_sends_the_system_to_lu(monkeypatch):
    # SuperLU raises RuntimeError on a V it cannot factor; solve_schur
    # refuses the system, and solve_direct's own factor solves it
    splu = linalg.spla.splu

    def failing_ldlt(A, permc_spec=None, **options):
        if permc_spec == "MMD_AT_PLUS_A":
            raise RuntimeError("Factor is exactly singular")
        return splu(A, permc_spec=permc_spec, **options)

    monkeypatch.setattr(linalg.spla, "splu", failing_ldlt)
    assert solve_case(case_by_name("lid_cavity", 2), generate_grid(ElementKind.Q4, 4),
                      "svm").solver == "lu"


def test_a_non_finite_cg_solution_is_refused(monkeypatch):
    system = _constrained(case_by_name("lid_cavity", 2), generate_grid(ElementKind.Q4, 4), "svm")
    monkeypatch.setattr(linalg.spla, "cg", lambda A, b, **options: (np.full_like(b, np.nan), 0))
    assert solve_schur(system) is None


def _constant_pressure_defect(system):
    """max|G 1| over the free velocity rows and max|K_pp 1|, each relative
    to the block's largest absolute row sum."""
    free_v, _ = split_dofs(np.isnan(system.constraints), system.dim)
    ones = np.ones(system.pattern.n_rows)

    def defect(vals, rows):
        M = system.pattern.matrix(vals).to_dense()
        return np.abs(M @ ones)[rows].max(initial=0.0) / np.abs(M).sum(1).max()

    return (max(defect(system.G[c], free_v[:, c]) for c in range(system.dim)),
            defect(system.Kpp, slice(None)))


@pytest.mark.parametrize("seed", [None, 0, 1], ids=["uniform", "seed0", "seed1"])
@pytest.mark.parametrize("case_name", ["patch_constant", "lid_cavity"])
@pytest.mark.parametrize("scheme", ["wvm", "svm"])
@pytest.mark.parametrize("kind", list(ElementKind), ids=lambda k: k.name)
def test_constants_span_the_kernel_that_unpinning_relies_on(kind, scheme, case_name, seed):
    # S = B V^-1 G - K_pp maps constants to zero when G 1 vanishes on the
    # free velocity rows and K_pp 1 vanishes: then solve_schur may free the
    # pin, solve on all pressures and shift p afterwards
    system = _constrained(case_by_name(case_name, kind.dim), _grid(kind, seed), scheme)
    g_defect, kpp_defect = _constant_pressure_defect(system)
    assert g_defect <= 1e-13
    assert kpp_defect <= 1e-13


def test_unpinned_cg_iterations_on_the_q4_cavity():
    # 68 iterations at 40x40 with the pressure pin held in the CG; 44, 46
    # and 47 unpinned with the diagonal preconditioner; 28, 27 and 26 with
    # the pressure mass, so the count does not grow with the mesh
    for n in (20, 40, 80):
        sol = solve_case(case_by_name("lid_cavity", 2), generate_grid(ElementKind.Q4, n), "svm")
        assert sol.solver == "schur-cg"
        assert sol.iterations <= 32, n


def _preconditioner(system, monkeypatch):
    """The dense matrix of the preconditioner solve_schur hands to its CG."""
    grabbed = []
    monkeypatch.setattr(linalg.spla, "cg", lambda A, b, M, **options:
                        grabbed.append(M) or (b, 1))
    assert solve_schur(system) is None
    return np.stack([grabbed[0] @ e for e in np.eye(system.pattern.n_rows)], axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", list(ElementKind), ids=lambda k: k.name)
def test_preconditioner_is_spd_on_distorted_grids(kind, seed, monkeypatch):
    # three damped-Jacobi sweeps on M: p(D^-1 M) D^-1 with p(t) > 0 for
    # every t > 0 (two sweeps would not be, as D^-1 M reaches 3.4 on B8)
    n = 6 if kind.dim == 2 else 3
    mesh = perturb_interior(generate_grid(kind, n), 0.3 / n, seed)
    P = _preconditioner(_constrained(case_by_name("lid_cavity", kind.dim), mesh, "wvm"),
                        monkeypatch)
    assert np.abs(P - P.T).max() <= 1e-12 * np.abs(P).max()
    assert np.linalg.eigvalsh(0.5 * (P + P.T)).min() > 0  # r^T P r > 0 for every r


@pytest.mark.parametrize("scheme", ["galerkin", "wvm", "svm", "enriched"])
def test_the_solver_reads_the_one_pressure_mass_of_the_mesh(scheme):
    mesh = generate_grid(ElementKind.Q4, 5)
    system = assemble(mesh, FormulationConfig(scheme))[0]
    assert system.M is mesh.pressure_mass  # summed once per mesh
    dense = system.pattern.matrix(system.M).to_dense()
    assert pressure_mass_matrix(mesh).tobytes() == dense.tobytes()


@pytest.mark.parametrize("scheme", ["wvm", "svm"])
def test_pin_value_does_not_reach_the_velocity_at_small_nu(scheme):
    # CG solves for p - p_pin with the pin folded in at 0; with p_pin = 10
    # folded into the velocity rows, the fold's roundoff (and G 1's, times
    # p_pin) over 2 nu gave a velocity error of 4.9e3 at nu = 1e-20
    case = case_by_name("patch_constant", 2)
    mesh = generate_grid(ElementKind.Q4, 4)
    sol = solve_case(case, mesh, scheme, nu=1e-20)
    assert sol.solver == "schur-cg"
    assert error_norms(sol, case, mesh).velocity_l2 < 1e-12
    assert sol.pressure[pin_node(case, mesh)] == 10.0


def test_rhs0_folds_the_pressure_constraints_at_zero():
    case = case_by_name("patch_constant", 2)
    mesh = generate_grid(ElementKind.Q4, 4)
    system = assemble(mesh, FormulationConfig("svm"))[0]
    constraints = case_constraints(case, mesh)
    pressure = split_dofs(constraints, 2)[1]
    pressure[~np.isnan(pressure)] = 0.0
    folded = apply_case(case, mesh, system)
    assert folded.rhs0.tobytes() == apply_constraints(system, constraints).rhs.tobytes()
    assert folded.rhs.tobytes() != folded.rhs0.tobytes()


def test_b8_patch_pressure_in_the_kernel_stops_at_once():
    # the exact pressure is constant, so the reduced right-hand side is
    # roundoff; the stopping scale |B| |V^-1 f_v| + |f_p| does not vanish,
    # and g is below it before the first step
    case = case_by_name("patch_constant", 3)
    sol = solve_case(case, generate_grid(ElementKind.B8, 8), "svm")
    assert sol.solver == "schur-cg"
    assert sol.iterations == 0
    assert (sol.pressure == 10.0).all()


@pytest.mark.parametrize("scheme", ["svm", "wvm"])
@pytest.mark.parametrize("point, node", [
    ((0.0, 0.0), 0), ((0.5, 0.5), 144), ((1.0, 1.0), 288), ((0.0, 1.0), 272),
], ids=["first", "middle", "last", "lid-corner"])
def test_nonzero_pin_value_is_kept_exactly(point, node, scheme):
    # the CG runs in node order with the pin held as one index: the pin's
    # entry of g, the shift of p and p_pin all sit at that node.  Beside
    # the moving lid the pin's row of g differs from the unconstrained one,
    # so at the top-left corner, which is not the last node, setting the
    # entry of g at any other node gives a wrong pressure
    case = dataclasses.replace(case_by_name("lid_cavity", 2), pressure_pin=(point, 3.0))
    mesh = generate_grid(ElementKind.Q4, 16)
    assert pin_node(case, mesh) == node
    x_lu, _ = solve_direct(_constrained(case, mesh, scheme))
    sol = solve_case(case, mesh, scheme)
    assert sol.solver == "schur-cg"
    assert sol.pressure[node] == 3.0
    assert _rel_diff(sol.values, x_lu) <= 1e-10


def _strictly_increasing_rows(csr):
    """Whether the column indices of each row of csr strictly increase."""
    inside = np.ones(csr.nnz, dtype=bool)  # whether an entry follows one of its own row
    inside[csr.indptr[:-1][np.diff(csr.indptr) > 0]] = False
    return bool((np.diff(csr.indices)[inside[1:]] > 0).all())


@pytest.mark.parametrize("scheme, options", [
    ("galerkin", {"bp_epsilon": 0.05}),
    ("enriched", {"pivot_rtol": 0.0, "residual_rtol": np.inf}),
], ids=["galerkin-bp", "enriched"])
@pytest.mark.parametrize("kind", list(ElementKind), ids=lambda k: k.name)
def test_the_residual_receives_canonical_csrs(kind, scheme, options, monkeypatch):
    # abs(csr) keeps the order and bytes of a canonical CSR, which is what
    # lets the residual's |A|_inf add each row in its stored order
    received = []
    residual = linalg._residual
    monkeypatch.setattr(linalg, "_residual",
                        lambda csr, x, b: received.append(csr) or residual(csr, x, b))
    mesh = generate_grid(kind, 6 if kind.dim == 2 else 3)
    sol = solve_case(case_by_name("lid_cavity", kind.dim), mesh, scheme, **options)
    assert sol.solver == "lu"
    assert len(received) == 1
    csr = received[0]
    assert csr.format == "csr"
    assert _strictly_increasing_rows(csr)
    assert abs(csr).indices.tobytes() == csr.indices.tobytes()


@pytest.mark.parametrize("scheme", ["svm", "wvm"])
@pytest.mark.parametrize("case_name", ["lid_cavity", "patch_constant"])
@pytest.mark.parametrize("kind", list(ElementKind), ids=lambda k: k.name)
def test_the_schur_residual_is_the_stacked_matrix_residual_bit_for_bit(kind, case_name, scheme):
    # solve_schur adds each row of the constrained matrix in its CSR order
    # without stacking it; the 3-D lid cavity's free nodes differ by component
    system = _constrained(case_by_name(case_name, kind.dim),
                          generate_grid(kind, 6 if kind.dim == 2 else 3), scheme)
    free_v, _ = split_dofs(np.isnan(system.constraints), kind.dim)
    assert (free_v == free_v[:, :1]).all() == (kind.dim == 2 or case_name == "patch_constant")
    x, res, _ = solve_schur(system)
    A, perm = schur_stacked(system)
    assert _strictly_increasing_rows(A)
    assert res > 0
    assert res.hex() == linalg._residual(A, x[perm], system.rhs[perm]).hex()


def test_schur_allocates_less_than_two_copies_of_the_system():
    # the peak of the Python and numpy memory that solve_schur allocates
    # above its inputs, against the bytes of the monolithic constrained
    # matrix (float64 values and int32 columns); a residual check that
    # stacks the constrained matrix peaks at 2.59 times them
    system = _constrained(case_by_name("patch_constant", 3), generate_grid(ElementKind.B8, 8), "svm")
    nbytes = 12 * system.matrix.nnz
    assert solve_schur(system) is not None  # scipy's modules loaded
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert solve_schur(system) is not None
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * nbytes


def _schur_or_lu(system):
    solved = solve_schur(system)
    return solve_direct(system)[0] if solved is None else solved[0]


def test_pin_that_is_not_a_pure_pin_still_gives_the_constrained_solution():
    # the right wall leaves its normal velocity free, so G 1 no longer
    # vanishes on the free rows and the pin fixes more than a constant
    base = case_by_name("lid_cavity", 2)
    outflow = lambda x: np.broadcast_to([np.nan, 0.0], x.shape)  # noqa: E731
    case = dataclasses.replace(base, dirichlet={**base.dirichlet, "right": outflow})
    system = _constrained(case, generate_grid(ElementKind.Q4, 12), "svm")
    assert _constant_pressure_defect(system)[0] > 1e-3
    x_lu, _ = solve_direct(system)
    assert _rel_diff(_schur_or_lu(system), x_lu) <= 1e-10


def test_two_pressure_constraints_keep_the_constrained_free_set():
    case = case_by_name("lid_cavity", 2)
    mesh = generate_grid(ElementKind.Q4, 12)
    constraints = case_constraints(case, mesh)
    split_dofs(constraints, 2)[1][mesh.n_nodes // 2] = 0.5
    system = apply_constraints(assemble(mesh, FormulationConfig("svm", nu=case.nu))[0],
                               constraints)
    assert solve_schur(system) is None  # one gauge path: LU takes a second pin
    x_lu, _ = solve_direct(system)
    x = _schur_or_lu(system)
    assert split_dofs(x, 2)[1][mesh.n_nodes // 2] == 0.5
    assert _rel_diff(x, x_lu) <= 1e-10


def test_zero_data_returns_zero_without_an_iteration():
    # a zero lid leaves g = 0, which the CG returns before its first step
    base = case_by_name("lid_cavity", 2)
    zero = base.dirichlet["bottom"]
    case = dataclasses.replace(base, dirichlet={**base.dirichlet, "top": zero})
    sol = solve_case(case, generate_grid(ElementKind.Q4, 6), "svm")
    assert sol.solver == "schur-cg"
    assert sol.iterations == 0
    assert not sol.values.any()
    assert sol.residual == 0.0


def test_reduced_rhs_whose_norm_underflows_is_refused():
    # at nu = 1e160 the body force's g is about 2e-163 and |g| underflows
    # to 0, where scipy's cg returns g itself as p: a pressure range of
    # 3e-163 against 0.27 at nu = 1, which the residual check accepts
    case = dataclasses.replace(case_by_name("body_force_cavity", 2), nu=1e160)
    system = _constrained(case, generate_grid(ElementKind.Q4, 4), "svm")
    assert solve_schur(system) is None


def test_nan_body_force_is_a_solve_failure():
    base = case_by_name("body_force_cavity")
    case = dataclasses.replace(base, body_force=lambda x: np.full(x.shape, np.nan))
    with pytest.raises(SolveAccuracyError, match="not finite"):
        solve_case(case, generate_grid(ElementKind.Q4, 4), "svm")
