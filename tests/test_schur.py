"""Pressure Schur-complement CG (linalg.solve_schur) against the sparse LU,
and which solver solve_case picks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

from conftest import perturb_interior
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


def _constrained(case, mesh, scheme, bp_epsilon=0.0):
    config = FormulationConfig(scheme=scheme, nu=case.nu, bp_epsilon=bp_epsilon,
                               body_force=case.body_force)
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
    x_lu, res_lu = solve_direct(constrained)
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
    # both solvers report the residual of the same block matvecs
    _assert_block_residual(constrained, sol.values, sol.residual)
    _assert_block_residual(constrained, x_lu, res_lu)


@pytest.mark.parametrize("scheme", ["wvm", "svm"])
@pytest.mark.parametrize("kind, shape, factors", [
    (ElementKind.Q4, 8, 1),
    # one element thick: the front/back faces constrain the z component of
    # every node, and x and y share their free nodes
    (ElementKind.B8, (10, 10, 1), 1),
    # x and y are free on the front/back faces, z is not
    (ElementKind.B8, 3, 2),
], ids=["Q4-8x8", "B8-10x10x1", "B8-3x3x3"])
def test_3d_cavity_with_different_free_sets_per_component(kind, shape, factors, scheme,
                                                          monkeypatch):
    mesh = generate_grid(kind, shape)
    case = case_by_name("lid_cavity", kind.dim)
    x_lu, _ = solve_direct(_constrained(case, mesh, scheme))
    bands, _ = _counting_v_solves(monkeypatch)
    sol = solve_case(case, mesh, scheme)
    assert sol.solver == "schur-cg"
    assert len(bands) == factors  # one band Cholesky of K per distinct set of free nodes
    assert _rel_diff(sol.values, x_lu) <= 1e-10


@pytest.mark.parametrize("kind, shape, case_name, bandwidth", [
    (ElementKind.Q4, 80, "lid_cavity", 80),
    (ElementKind.B8, 16, "patch_constant", 241),
], ids=["Q4-80x80-cavity", "B8-16x16x16-patch"])
def test_the_band_of_v_is_the_grid_node_order(kind, shape, case_name, bandwidth, monkeypatch):
    # a grid numbers its nodes row by row, so a free node's neighbours lie
    # within one row (Q4) or one layer and a row (B8) of it; the reverse
    # Cuthill-McKee order of these grids is wider (157 and 631)
    system = _constrained(case_by_name(case_name, kind.dim), generate_grid(kind, shape), "svm")
    bandwidths, _ = _counting_v_solves(monkeypatch)
    assert solve_schur(system) is not None
    assert bandwidths == [bandwidth]


def _renumbered(mesh, seed):
    """mesh with its nodes numbered in a random order, and the new number
    of each old node."""
    old = np.random.default_rng(seed).permutation(mesh.n_nodes)
    new = np.argsort(old)
    sets = {tag: frozenset(new[sorted(nodes)].tolist())
            for tag, nodes in mesh.boundary_sets.items()}
    return dataclasses.replace(mesh, nodes=mesh.nodes[old], elements=new[mesh.elements],
                               boundary_sets=sets), new


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind, shape", [(ElementKind.Q4, 24), (ElementKind.B8, 6)],
                         ids=["Q4-24x24", "B8-6x6x6"])
def test_randomly_numbered_nodes_solve_on_the_rcm_band(kind, shape, seed, monkeypatch):
    # shuffled, the free nodes' own order spans nearly the whole set; the
    # RCM order brings the band back to within 3 times the grid's own
    # (Q4 24 -> 45, B8 31 and 31 -> 70 and 61)
    case = case_by_name("lid_cavity", kind.dim)
    mesh = generate_grid(kind, shape)
    bandwidths, _ = _counting_v_solves(monkeypatch)
    sol = solve_case(case, mesh, "svm")
    grid_bandwidths = bandwidths[:]
    bandwidths.clear()
    renumbered, new = _renumbered(mesh, seed)
    shuffled = solve_case(case, renumbered, "svm")
    assert shuffled.solver == "schur-cg"
    assert len(bandwidths) == len(grid_bandwidths)
    assert max(bandwidths) <= 3 * max(grid_bandwidths)
    back = np.concatenate([shuffled.velocity[new].ravel(), shuffled.pressure[new]])
    assert np.linalg.norm(back - sol.values) <= 1e-10 * np.linalg.norm(sol.values)


def test_components_that_share_free_nodes_share_one_factor(monkeypatch):
    # the front/back faces hold x at 0 as well as z: x and z are free on
    # the interior nodes, y on the faces too, so x and z share a factor
    mesh = generate_grid(ElementKind.B8, 4)
    constraints = case_constraints(case_by_name("lid_cavity", 3), mesh)
    velocity = split_dofs(constraints, 3)[0]
    velocity[np.isnan(velocity[:, 0]) & ~np.isnan(velocity[:, 2]), 0] = 0.0
    system = apply_constraints(assemble(mesh, FormulationConfig("wvm"))[0], constraints)
    free = ~np.isnan(velocity.T)
    assert (free[0] == free[2]).all() and not (free[0] == free[1]).all()
    x_lu, _ = solve_direct(system)
    bands, _ = _counting_v_solves(monkeypatch)
    x, res, _ = solve_schur(system)
    assert len(bands) == 2
    assert _rel_diff(x, x_lu) <= 1e-10
    _assert_block_residual(system, x, res)


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
    """Two lists that gain one entry per band Cholesky factor of V, its
    bandwidth, and one per band solve with such a factor, which takes one
    column for each component that shares the factor's free nodes."""
    factors, solves = [], []
    dpbtrf, dpbtrs = lapack.dpbtrf, lapack.dpbtrs

    def counted_factor(ab, **options):
        factors.append(len(ab) - 1)
        return dpbtrf(ab, **options)

    def counted_solve(U, y, **options):
        solves.append(1)
        return dpbtrs(U, y, **options)

    monkeypatch.setattr(lapack, "dpbtrf", counted_factor)
    monkeypatch.setattr(lapack, "dpbtrs", counted_solve)
    return factors, solves


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
    _, solves = _counting_v_solves(monkeypatch)
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
    # LAPACK's band Cholesky reports info > 0 on a V that is not positive
    # definite, here the negated V; solve_schur refuses the system, and
    # solve_direct's own factor solves it
    dpbtrf, failed = lapack.dpbtrf, []

    def failing_factor(ab, **options):
        U, info = dpbtrf(-ab, **options)
        failed.append(info)
        return U, info

    monkeypatch.setattr(lapack, "dpbtrf", failing_factor)
    assert solve_case(case_by_name("lid_cavity", 2), generate_grid(ElementKind.Q4, 4),
                      "svm").solver == "lu"
    assert failed == [1]


def test_a_v_pivot_below_pivot_rtol_refuses_the_cg(monkeypatch):
    # the pivots are the D of V = L D L^T, the squares of U's diagonal
    system = _constrained(case_by_name("lid_cavity", 2), generate_grid(ElementKind.Q4, 6), "svm")
    dpbtrf, diagonals = lapack.dpbtrf, []

    def factor(ab, **options):
        U, info = dpbtrf(ab, **options)
        diagonals.append(U[-1].copy())
        return U, info

    monkeypatch.setattr(lapack, "dpbtrf", factor)
    assert solve_schur(system) is not None
    D = diagonals[0] ** 2
    ratio = D.min() / D.max()
    assert solve_schur(system, pivot_rtol=0.99 * ratio) is not None
    assert solve_schur(system, pivot_rtol=1.01 * ratio) is None


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


def _csr_residual(system, x):
    """The relative residual of x that the solvers report, from scipy's CSR
    matvecs of the constrained matrix, which add each row in column order."""
    A = system.matrix.to_scipy()
    assert _strictly_increasing_rows(A)
    b = system.rhs
    denom = (abs(A) @ np.ones(A.shape[1])).max() * np.abs(x).max() + np.abs(b).max()
    return float(np.abs(A @ x - b).max() / denom)


def _block_residual(system, x):
    """The relative residual of x from scipy's CSR matvecs of the node
    blocks, each built by scipy's COO path: a velocity row of component c
    is K x_c + G_c p, a pressure row G_0^T x_0 + ... + K_pp p, with x 0 in
    the constrained columns, and the constrained rows are identity rows."""
    pattern, dim, b = system.pattern, system.dim, system.rhs
    free = np.isnan(system.constraints)

    def csr(vals):
        return sp.csr_matrix((vals, (pattern.rows, pattern.cols)),
                             shape=(pattern.n_rows, pattern.n_cols))

    out = []
    for y, f in ((np.where(free, x, 0.0), np.asarray), (free * 1.0, np.abs)):
        y_v, y_p = split_dofs(y, dim)
        rows_v = np.stack([csr(f(system.K)) @ y_v[:, c] + csr(f(G_c)) @ y_p
                           for c, G_c in enumerate(system.G)], 1)
        rows_p = np.zeros(y_p.size)
        for c, G_c in enumerate(system.G):
            rows_p += csr(f(G_c[pattern.transpose])) @ y_v[:, c]
        rows_p += csr(f(system.Kpp)) @ y_p
        out.append(np.concatenate([rows_v.ravel(), rows_p]))
    Ax, row_sums = out
    Ax[~free], row_sums[~free] = x[~free], 1.0
    denom = row_sums.max() * np.abs(x).max() + np.abs(b).max()
    return float(np.abs(Ax - b).max() / denom)


def _assert_block_residual(system, x, res):
    """res has the bits of _block_residual, and is within (k + 1) eps of
    _csr_residual, k the longest row of the constrained matrix: the bound
    on what adding each row's terms in another order can change."""
    assert res.hex() == _block_residual(system, x).hex()
    k = np.diff(system.matrix.to_scipy().indptr).max()
    assert abs(res - _csr_residual(system, x)) <= (k + 1) * np.finfo(float).eps


@pytest.mark.parametrize("scheme, options", [
    ("svm", {}), ("wvm", {}),
    ("galerkin", {"bp_epsilon": 0.05}),
    ("enriched", {"pivot_rtol": 0.0, "residual_rtol": np.inf}),
], ids=["svm", "wvm", "galerkin-bp", "enriched"])
@pytest.mark.parametrize("kind, case_name", COMBOS,
                         ids=[f"{k.name}-{c}" for k, c in COMBOS])
def test_both_solvers_report_the_block_matvec_residual(kind, case_name, scheme, options):
    # the Schur-CG and the LU share one residual, read from the blocks
    # without forming A; the 3-D lid cavity's free nodes differ by component
    case = case_by_name(case_name, kind.dim)
    mesh = generate_grid(kind, 6 if kind.dim == 2 else 3)
    sol = solve_case(case, mesh, scheme, **options)
    assert sol.solver == ("schur-cg" if scheme in ("svm", "wvm") else "lu")
    system = _constrained(case, mesh, scheme, options.get("bp_epsilon", 0.0))
    assert sol.residual > 0
    _assert_block_residual(system, sol.values, sol.residual)


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
