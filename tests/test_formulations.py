"""Assembly of the four schemes: tau, element blocks, condensation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import (REFERENCE_CORNERS, adjugate_inverse, enriched_full, fine_dofs_free,
                      jacobians, lexsort_sum, perturb_interior, solve_reduced)
from stokeslab.basis import basis_table, element_geometry, integrate
from stokeslab.cases import case_by_name, case_constraints
from stokeslab.formulations import (
    SCHEMES,
    FormulationConfig,
    _element_stacks,
    _wvm_coefficient,
    assemble,
    recover_fine,
    tau_at,
)
from stokeslab.kinds import ElementKind
from stokeslab.linalg import (SingularMatrixError, SparseMatrix, apply_constraints, solve_direct,
                             split_dofs)
from stokeslab.mesh import Mesh, generate_grid, load_mesh, wct_fixture_path


# -------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError, match="scheme"):
        FormulationConfig(scheme="bogus")
    with pytest.raises(ValueError, match="nu"):
        FormulationConfig(scheme="galerkin", nu=0.0)
    with pytest.raises(ValueError, match="bp_epsilon"):
        FormulationConfig(scheme="galerkin", bp_epsilon=-1.0)
    with pytest.raises(ValueError, match="bp_epsilon"):
        FormulationConfig(scheme="svm", bp_epsilon=0.1)
    with pytest.raises(ValueError, match="nu"):
        FormulationConfig(scheme="galerkin", nu=float("nan"))
    with pytest.raises(ValueError, match="nu"):
        FormulationConfig(scheme="galerkin", nu=float("inf"))
    with pytest.raises(ValueError, match="bp_epsilon"):
        FormulationConfig(scheme="galerkin", bp_epsilon=float("nan"))
    with pytest.raises(ValueError, match="bp_epsilon"):
        FormulationConfig(scheme="galerkin", bp_epsilon=float("inf"))
    FormulationConfig(scheme="enriched", bp_epsilon=0.1)  # allowed


# ------------------------------------------------------------------------ tau

def test_tau_reference_square():
    coords = REFERENCE_CORNERS[ElementKind.Q4]
    wvm = tau_at("wvm", ElementKind.Q4, coords, (0.0, 0.0))
    assert wvm == pytest.approx((16.0 / 9.0) / (256.0 / 45.0), rel=1e-13)
    assert wvm == pytest.approx(0.3125, rel=1e-13)
    svm = tau_at("svm", ElementKind.Q4, coords, (0.0, 0.0))
    assert svm == pytest.approx(-0.25, rel=1e-13)


def test_tau_unit_right_triangle_centroid():
    coords = REFERENCE_CORNERS[ElementKind.T3]
    svm = tau_at("svm", ElementKind.T3, coords, (1 / 3, 1 / 3))
    assert svm == pytest.approx(-1.0 / 36.0, rel=1e-13)


@pytest.mark.parametrize("kind", list(ElementKind))
def test_tau_signs_at_interior_points(kind, rng):
    from conftest import random_interior_point

    coords = REFERENCE_CORNERS[kind]
    for _ in range(10):
        xi = random_interior_point(kind, rng)
        assert tau_at("wvm", kind, coords, xi) > 0
        assert tau_at("svm", kind, coords, xi) < 0


def test_tau_requires_stabilized_scheme():
    with pytest.raises(ValueError, match="wvm/svm"):
        tau_at("galerkin", ElementKind.Q4, REFERENCE_CORNERS[ElementKind.Q4], (0, 0))


@pytest.mark.parametrize("kind", list(ElementKind))
def test_svm_tau_scales_with_squared_element_size(kind):
    coords = REFERENCE_CORNERS[kind]
    xi = np.full(kind.dim, 0.1)
    t1 = tau_at("svm", kind, coords, xi)
    t2 = tau_at("svm", kind, 2.0 * coords, xi)
    assert t2 / t1 == pytest.approx(4.0, abs=1e-9)


@pytest.mark.parametrize("kind", list(ElementKind))
def test_wvm_coefficient_refuses_a_zero_bubble_energy(kind):
    # a Mesh refuses such an element first, so its geometry is edited here
    table = basis_table(kind)
    geom = element_geometry(table, REFERENCE_CORNERS[kind][None])
    assert _wvm_coefficient(table, geom) > 0
    with pytest.raises(ValueError, match="degenerate element: zero bubble energy"):
        _wvm_coefficient(table, dataclasses.replace(geom, gb=np.zeros_like(geom.gb)))


# --------------------------------------------------------------- block structure

def _pp_block(system):
    return system.pattern.matrix(system.Kpp).to_dense()


def test_galerkin_pressure_pressure_block_zero():
    mesh = generate_grid(ElementKind.Q4, 3)
    system, _ = assemble(mesh, FormulationConfig(scheme="galerkin"))
    assert np.abs(_pp_block(system)).max() == 0.0


@pytest.mark.parametrize("scheme", ["wvm", "svm", "enriched"])
@pytest.mark.parametrize("kind", [ElementKind.T3, ElementKind.Q4])
def test_pressure_stabilization_operator_psd(scheme, kind):
    mesh = generate_grid(kind, 4)
    system, _ = assemble(mesh, FormulationConfig(scheme=scheme))
    C = -_pp_block(system)  # operator subtracted from the continuity row
    assert np.allclose(C, C.T, atol=1e-12)
    lam = np.linalg.eigvalsh(0.5 * (C + C.T))
    assert lam.min() > -1e-10 * max(1.0, lam.max())
    assert lam.max() > 0  # genuinely active


def test_svm_pressure_stabilization_indefinite_on_distorted_triangles():
    """svm's tau_eff = -b/lap(b) is positive only where lap(b) < 0; on this
    distorted T3 grid lap(b) >= 0 at some points and the svm operator is
    indefinite, while wvm's stays positive semidefinite."""
    mesh = perturb_interior(generate_grid(ElementKind.T3, 6), 0.12 * (1.0 / 6.0), seed=1)
    assert np.any(mesh.geometry.lapb >= 0)
    lam = {}
    for scheme in ("wvm", "svm"):
        C = -_pp_block(assemble(mesh, FormulationConfig(scheme=scheme))[0])
        lam[scheme] = np.linalg.eigvalsh(0.5 * (C + C.T))
    assert lam["svm"].min() < -1e-4 * lam["svm"].max()
    assert lam["wvm"].min() > -1e-10 * lam["wvm"].max()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", [ElementKind.Q4, ElementKind.T3])
def test_svm_pointwise_tau_is_unbounded_on_distorted_grids(kind, seed):
    """svm's tau_eff = -b/lap(b) on 16x16 grids whose interior nodes move by
    up to 0.2h: lap(b) >= 0 at some quadrature points (1.2-2.0% of them),
    and max|tau_eff|/h^2 is 1.5 to 65, against at most 0.0625 on the
    undistorted grid.  Stabilization theory needs 0 < tau <= C h^2 / 2nu."""
    n, b = 16, basis_table(kind).b
    h = 1.0 / n
    uniform = generate_grid(kind, n)
    bound = np.abs(b / uniform.geometry.lapb).max() / h**2
    lapb = perturb_interior(uniform, 0.2 * h, seed).geometry.lapb
    assert np.any(lapb >= 0)
    assert np.abs(b / lapb).max() / h**2 >= 10 * bound


def test_system_symmetry_galerkin_and_enriched():
    mesh = generate_grid(ElementKind.Q4, 3)
    for scheme in ("galerkin", "enriched"):
        A = assemble(mesh, FormulationConfig(scheme=scheme))[0].matrix.to_dense()
        assert np.abs(A - A.T).max() < 1e-12 * max(1.0, np.abs(A).max())


def test_single_square_velocity_block_rigid_translation():
    unit = generate_grid(ElementKind.Q4, 1)
    mesh = dataclasses.replace(unit, nodes=2.0 * unit.nodes)
    A = assemble(mesh, FormulationConfig(scheme="galerkin"))[0].matrix.to_dense()
    nv = mesh.n_nodes * mesh.dim
    Avv = A[:nv, :nv]
    ones_x = np.tile([1.0, 0.0], mesh.n_nodes)
    assert np.allclose(Avv @ ones_x, 0.0, atol=1e-13)


@pytest.mark.parametrize("kind", [ElementKind.T3, ElementKind.TET4])
def test_simplex_momentum_stabilization_vanishes(kind):
    """Linear shape functions have zero Laplacian, so the stabilized momentum
    block must coincide with the plain Galerkin momentum block on simplices."""
    mesh = generate_grid(kind, 2)
    gal = assemble(mesh, FormulationConfig(scheme="galerkin"))[0].matrix.to_dense()
    nv = mesh.n_nodes * mesh.dim
    for scheme in ("wvm", "svm"):
        stab = assemble(mesh, FormulationConfig(scheme=scheme))[0].matrix.to_dense()
        assert np.abs(stab[:nv, :] - gal[:nv, :]).max() < 1e-12
        # continuity row does change (pressure stabilization)
        assert np.abs(stab[nv:, nv:] - gal[nv:, nv:]).max() > 1e-12


@pytest.mark.parametrize("scheme", ["galerkin", "wvm", "svm"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_constant_state_is_discrete_solution(scheme, kind, rng):
    """The exact constant state annihilates every unconstrained residual row:
    interior momentum rows, all continuity rows, all stabilization terms."""
    mesh = generate_grid(kind, 2)
    case = case_by_name("patch_constant", mesh.dim)
    system, _ = assemble(mesh, FormulationConfig(scheme=scheme))
    nv = mesh.n_nodes * mesh.dim
    x = np.zeros(system.rhs.size)
    x[:nv:mesh.dim] = 10.0
    x[nv:] = 10.0
    resid = system.matrix.to_scipy() @ x - system.rhs
    free = np.isnan(case_constraints(case, mesh))
    assert np.abs(resid[free]).max() < 1e-10


def test_wvm_svm_differ_only_through_tau_profile_on_simplices():
    mesh = generate_grid(ElementKind.T3, 3)
    nv = mesh.n_nodes * mesh.dim
    wvm = assemble(mesh, FormulationConfig(scheme="wvm"))[0].matrix.to_dense()
    svm = assemble(mesh, FormulationConfig(scheme="svm"))[0].matrix.to_dense()
    # same sparsity and same sign pattern in the pp block
    pw, ps = wvm[nv:, nv:], svm[nv:, nv:]
    assert np.all((pw != 0) == (ps != 0))
    nz = pw != 0
    assert np.all(np.sign(pw[nz]) == np.sign(ps[nz]))


def test_brezzi_pitkaranta_block_negative_semidefinite():
    mesh = generate_grid(ElementKind.Q4, 3)
    plain, _ = assemble(mesh, FormulationConfig(scheme="galerkin"))
    aug, _ = assemble(mesh, FormulationConfig(scheme="galerkin", bp_epsilon=0.1))
    nv = mesh.n_nodes * mesh.dim
    diff = (aug.matrix.to_dense() - plain.matrix.to_dense())
    assert np.abs(diff[:nv, :]).max() == 0.0  # momentum rows untouched
    C = -diff[nv:, nv:]
    lam = np.linalg.eigvalsh(0.5 * (C + C.T))
    assert lam.min() > -1e-12 and lam.max() > 0


# -------------------------------------------------------------------- enriched

def test_enriched_fine_block_reference_square():
    unit = generate_grid(ElementKind.Q4, 1)
    mesh = dataclasses.replace(unit, nodes=2.0 * unit.nodes - 1.0)
    _, fine = assemble(mesh, FormulationConfig(scheme="enriched"))
    assert fine.kff.shape == (1,)
    assert fine.kff[0] == pytest.approx(512.0 / 45.0, rel=1e-13)


def test_enriched_zero_body_force_gives_zero_fine_rhs():
    mesh = generate_grid(ElementKind.Q4, 2)
    _, fine = assemble(mesh, FormulationConfig(scheme="enriched"))
    assert fine.f_f.shape == (mesh.n_elements, 2)
    assert np.allclose(fine.f_f, 0.0)


def test_enriched_non_finite_fine_block_names_the_element():
    mesh = generate_grid(ElementKind.Q4, 2)
    config = FormulationConfig(scheme="enriched", nu=1e308)  # 2 * nu overflows
    with np.errstate(all="ignore"), pytest.raises(SingularMatrixError,
                                                  match="fine block in element 0"):
        assemble(mesh, config)


def test_enriched_zero_data_recovers_zero_fine_field():
    mesh = generate_grid(ElementKind.Q4, 2)
    system, fine = assemble(mesh, FormulationConfig(scheme="enriched"))
    beta = recover_fine(np.zeros(system.rhs.size), fine, mesh)
    assert np.allclose(beta, 0.0)


def _solve_condensed_and_full(mesh, bp_epsilon):
    """Solve the body-force problem with the condensed and the uncondensed
    enriched forms; returns (coarse solution, fine recovery, full vector)."""
    case = case_by_name("body_force_cavity")
    config = FormulationConfig(scheme="enriched", nu=case.nu,
                               bp_epsilon=bp_epsilon, body_force=case.body_force)
    cond, fine = assemble(mesh, config)
    cons = case_constraints(case, mesh)
    x_cond, _ = solve_direct(apply_constraints(cond, cons))
    beta = recover_fine(x_cond, fine, mesh)

    matrix, rhs = enriched_full(mesh, config)
    x_full = solve_reduced(matrix, rhs, fine_dofs_free(cons, rhs.size))
    return x_cond, beta, x_full


def test_condensation_identity_and_fine_recovery():
    mesh = generate_grid(ElementKind.Q4, 2)
    x_cond, beta, x_full = _solve_condensed_and_full(mesh, bp_epsilon=0.08)
    assert np.abs(x_cond - x_full[:x_cond.size]).max() < 1e-10
    fine_full = x_full[x_cond.size:].reshape(mesh.n_elements, mesh.dim)
    assert np.abs(beta - fine_full).max() < 1e-10


def test_condensed_solution_satisfies_uncondensed_residual():
    mesh = generate_grid(ElementKind.Q4, 2)
    case = case_by_name("body_force_cavity")
    x_cond, beta, x_full = _solve_condensed_and_full(mesh, bp_epsilon=0.08)
    config = FormulationConfig(scheme="enriched", nu=case.nu, bp_epsilon=0.08,
                               body_force=case.body_force)
    matrix, rhs = enriched_full(mesh, config)
    x = np.concatenate([x_cond, beta.reshape(-1)])
    A = matrix.to_scipy()
    resid = A @ x - rhs
    free = np.isnan(fine_dofs_free(case_constraints(case, mesh), rhs.size))
    scale = abs(A).sum(axis=1).max() * np.abs(x).max()
    assert np.abs(resid[free]).max() < 1e-10 * scale


@pytest.mark.parametrize("scheme", ["galerkin", "wvm", "svm"])
def test_only_enriched_returns_fine_blocks(scheme):
    assert assemble(generate_grid(ElementKind.Q4, 1), FormulationConfig(scheme=scheme))[1] is None


# ------------------------------------------------------ element-order determinism

@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", list(ElementKind))
def test_assembly_independent_of_element_order(kind, scheme, rng):
    mesh = generate_grid(kind, 7 if kind.dim == 2 else 3)
    shuffled = Mesh(nodes=mesh.nodes,
                    elements=mesh.elements[rng.permutation(mesh.n_elements)],
                    kind=mesh.kind, boundary_sets=mesh.boundary_sets)
    config = FormulationConfig(scheme=scheme, nu=0.5,
                               bp_epsilon=0.0 if scheme in ("wvm", "svm") else 0.07,
                               body_force=_body_force)
    one, _ = assemble(mesh, config)
    two, _ = assemble(shuffled, config)
    for name in ("rows", "cols"):
        assert np.array_equal(getattr(one.pattern, name), getattr(two.pattern, name))
    for name in ("K", "G", "Kpp"):
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes()
    assert np.array_equal(one.matrix.rows, two.matrix.rows)
    assert np.array_equal(one.matrix.cols, two.matrix.cols)
    assert one.matrix.vals.tobytes() == two.matrix.vals.tobytes()
    assert np.abs(one.rhs).max() > 0
    assert one.rhs.tobytes() == two.rhs.tobytes()


# ---------------------------------------------- blocks against a monolithic scatter

def _monolithic_scatter(mesh, config, condensed=True):
    """The system scattered as one (nen * (dim + 1))^2 element matrix per
    element, the velocity block as Kvv (x) I_dim with +0.0 cross-component
    entries, and summed by the lexsort reference: (rows, cols, vals, rhs).
    With condensed=False, the enriched system before condensation: the
    Galerkin element blocks bordered by the fine blocks."""
    coarse = config if condensed else dataclasses.replace(config, scheme="galerkin")
    K, (fv, fp), _ = _element_stacks(mesh, coarse)
    Kvv, Kvp, Kpp = _blocks(K)
    n_el, nen, dim = Kvp.shape[:3]
    nd, eye = nen * dim, np.eye(dim)

    def kron_eye(A):
        return (A[:, :, None, :, None] * eye[:, None, :]).reshape(n_el, -1, A.shape[2] * dim)

    Kv = kron_eye(Kvv)
    Kv[:, np.arange(nd)[:, None] % dim != np.arange(nd) % dim] = 0.0
    Kvp = Kvp.reshape(n_el, nd, nen)
    blocks = [[Kv, Kvp], [Kvp.transpose(0, 2, 1), Kpp]]  # the pressure rows are Kvp^T
    # the dof layout written out by hand, independently of linalg.split_dofs
    e = mesh.elements
    idx = [(e[:, :, None] * dim + np.arange(dim)).reshape(n_el, nd), mesh.n_nodes * dim + e]
    loads = [fv.reshape(n_el, nd), fp]
    total = mesh.n_nodes * (dim + 1)
    if not condensed:
        fine = _element_stacks(mesh, config)[2]
        Kcf = kron_eye(fine.s[:, :, None])
        blocks[0].append(Kcf)
        blocks[1].append(fine.kpf)
        blocks.append([Kcf.transpose(0, 2, 1), fine.kpf.transpose(0, 2, 1),
                       fine.kff[:, None, None] * eye])
        idx.append(total + np.arange(n_el * dim).reshape(n_el, dim))
        loads.append(fine.f_f)
        total += n_el * dim
    K = np.concatenate([np.concatenate(row, axis=2) for row in blocks], axis=1)
    idx, loads = np.concatenate(idx, axis=1), np.concatenate(loads, axis=1)
    k = idx.shape[1]
    rows, cols, vals = lexsort_sum(np.repeat(idx, k, axis=1).ravel(), np.tile(idx, k).ravel(),
                                   K.ravel())
    at, _, f = lexsort_sum(idx.ravel(), np.zeros(idx.size, dtype=np.intp), loads.ravel())
    rhs = np.zeros(total)
    rhs[at] += f
    return rows, cols, vals, rhs


def _body_force(x):
    return np.stack([np.sin(3 * x[..., 0]) * x[..., 1] - x[..., -1] ** 2,
                     np.cos(x[..., 1]), x[..., 0] * x[..., -1]][:x.shape[-1]], axis=-1)


def _perturbed(mesh, seed=7):
    """mesh with every interior node moved by up to 0.1 of the grid step."""
    h = np.ptp(mesh.nodes[mesh.elements], axis=1).max()
    return perturb_interior(mesh, 0.1 * h, seed)


def _fold_monolithic(matrix, rhs, constraints):
    """Reference constraint folding on a monolithic matrix: (matrix, rhs)
    after symmetric row/column elimination of the constrained dofs."""
    n = rhs.size
    is_con = ~np.isnan(constraints)
    cvals = np.where(is_con, constraints, 0.0)
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
    rhs = rhs.copy()
    moved = is_con[cols] & ~is_con[rows]
    r, c, v = rows[moved], cols[moved], vals[moved]
    at = np.argsort(r * n + c)  # each row takes its terms in column order
    np.add.at(rhs, r[at], -v[at] * cvals[c[at]])
    rhs[is_con] = cvals[is_con]
    con = np.flatnonzero(is_con)
    keep = ~(is_con[rows] | is_con[cols])
    return SparseMatrix.from_triplets(n, n, np.concatenate([rows[keep], con]),
                                      np.concatenate([cols[keep], con]),
                                      np.concatenate([vals[keep], np.ones(con.size)])), rhs


def _random_constraints(n, dim):
    """About 30% of the n dofs prescribed, with standard-normal values; on
    a mesh of a few dozen nodes that takes in every velocity component and
    some pressures, so a node's row mixes constrained components."""
    rng = np.random.default_rng(0)
    constraints = np.where(rng.random(n) < 0.3, rng.standard_normal(n), np.nan)
    con_v, con_p = split_dofs(~np.isnan(constraints), dim)
    assert con_v.any(0).all() and con_p.any() and not con_p.all()
    return constraints


@pytest.mark.parametrize("kind, scheme, case_name", [
    *((kind, scheme, case_name) for kind in ElementKind
      for scheme in ("galerkin", "svm", "enriched")
      for case_name in ("lid_cavity", "patch_constant", "random")),  # pressure pin 0, 10
    # the shipped T3 mesh, whose node numbers are not a grid's; its only tag is "all"
    *(("wct", scheme, case_name) for scheme in SCHEMES
      for case_name in ("patch_constant", "random")),
])
def test_block_constraint_folding_matches_monolithic(kind, scheme, case_name):
    if kind == "wct":
        mesh = load_mesh(wct_fixture_path())
    else:
        mesh = _perturbed(generate_grid(kind, 5 if kind.dim == 2 else 3))
    dim = mesh.kind.dim
    system, _ = assemble(mesh, FormulationConfig(scheme=scheme, body_force=_body_force))
    if case_name == "random":
        constraints = _random_constraints(system.rhs.size, dim)
    else:
        constraints = case_constraints(case_by_name(case_name, dim), mesh)
    folded = apply_constraints(system, constraints)
    matrix, rhs = _fold_monolithic(system.matrix, system.rhs, constraints)
    assert folded.rhs.tobytes() == rhs.tobytes()
    for name in ("rows", "cols", "vals"):
        assert getattr(folded.matrix, name).tobytes() == getattr(matrix, name).tobytes()
    at_zero = constraints.copy()  # rhs0 folds the pressure values in at 0
    pressure = split_dofs(at_zero, dim)[1]
    pressure[~np.isnan(pressure)] = 0.0
    _, rhs0 = _fold_monolithic(system.matrix, system.rhs, at_zero)
    assert folded.rhs0.tobytes() == rhs0.tobytes()


def test_constraint_folding_allocates_less_than_half_the_monolithic_matrix():
    """The traced peak of the first apply_constraints call on the svm B8 8^3
    patch system, against the bytes of its unconstrained monolithic matrix
    (float64 values and int32 columns): 1.75 times them when the fold
    formed the (dim + 1)^2 triplets of every boundary entry, 0.39 when it
    reads the node blocks."""
    case = case_by_name("patch_constant", 3)
    mesh = generate_grid(ElementKind.B8, 8)
    system = assemble(mesh, FormulationConfig(scheme="svm", nu=case.nu))[0]
    constraints = case_constraints(case, mesh)
    nbytes = 12 * system.matrix.nnz
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        apply_constraints(system, constraints)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * nbytes


@pytest.mark.parametrize("scheme, bp_epsilon, condensed", [
    ("galerkin", 0.0, True), ("galerkin", 0.07, True), ("wvm", 0.0, True),
    ("svm", 0.0, True), ("enriched", 0.0, True), ("enriched", 0.07, False),
])
@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_blocks_match_monolithic_scatter(kind, perturbed, scheme, bp_epsilon, condensed):
    mesh = generate_grid(kind, 6 if kind.dim == 2 else 3)
    mesh = _perturbed(mesh) if perturbed else mesh
    for body_force in (None, _body_force):
        config = FormulationConfig(scheme=scheme, nu=0.7, bp_epsilon=bp_epsilon,
                                   body_force=body_force)
        system, _ = assemble(mesh, config)
        matrix, got_rhs = (system.matrix, system.rhs) if condensed else enriched_full(mesh, config)
        rows, cols, vals, rhs = _monolithic_scatter(mesh, config, condensed)
        # same entries, explicit zeros included, and the same bytes, sign
        # bits of the zeros included; the cross-component entries are +0.0
        assert matrix.rows.tobytes() == rows.tobytes()
        assert matrix.cols.tobytes() == cols.tobytes()
        assert matrix.vals.tobytes() == vals.tobytes()
        assert got_rhs.tobytes() == rhs.tobytes()
        n_v = mesh.n_nodes * mesh.dim
        cross = (rows < n_v) & (cols < n_v) & (rows % mesh.dim != cols % mesh.dim)
        assert cross.any() and vals[cross].tobytes() == np.zeros(cross.sum()).tobytes()
        if condensed:
            for i in range(mesh.dim):
                comp = (rows < n_v) & (cols < n_v) & (rows % mesh.dim == i) & (cols % mesh.dim == i)
                assert system.K.tobytes() == vals[comp].tobytes()


# ----------------------------------- G's layout, and the element stacks' formulas

def _blocks(K):
    """Kvv (e, nen, nen), Kvp (e, nen, dim, nen) and Kpp (e, nen, nen), as
    views of the one array of blocks that _element_stacks returns."""
    return K[0], K[1:-1].transpose(1, 2, 0, 3), K[-1]


def _einsum_G(mesh):
    Jinv = adjugate_inverse(jacobians(mesh), mesh.geometry.detJ)
    return np.einsum("...pmi,pnm->...pin", Jinv, basis_table(mesh.kind).DN)


@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_geometry_G_is_the_einsum_in_bytes_and_strides(kind, perturbed):
    """G holds the einsum's values with C-contiguous strides, (..., p, dim,
    nen), so the element kernel's (e, np*dim, nen) operand is a view of it."""
    mesh = generate_grid(kind, 6 if kind.dim == 2 else 3)
    mesh = _perturbed(mesh) if perturbed else mesh
    got, want = mesh.geometry.G, _einsum_G(mesh)
    assert got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert np.shares_memory(got.reshape(len(mesh.elements), -1, got.shape[-1]), got)


def _einsum_galerkin_stacks(mesh, config):
    """Reference galerkin/enriched element blocks and loads: the einsum
    formulas on the einsum G, with the enriched fine scales condensed out
    as _element_stacks condenses them."""
    table = basis_table(mesh.kind)
    geom, nu, dim = mesh.geometry, config.nu, mesh.dim
    wdet, G, N, b, gb = geom.wdet, _einsum_G(mesh), table.N, table.b, geom.gb
    n_el, nen = mesh.elements.shape
    bf = (np.zeros_like(geom.x) if config.body_force is None
          else np.broadcast_to(config.body_force(geom.x), geom.x.shape))
    Kvv = 2.0 * nu * np.einsum("ep,epia,epib->eab", wdet, G, G)
    Kvp = -np.einsum("ep,epia,pb->eiab", wdet, G, N).transpose(0, 2, 1, 3)
    Kpp = np.zeros((n_el, nen, nen))
    fv = np.einsum("ep,pa,epi->eai", wdet, N, bf)
    fp = np.zeros((n_el, nen))
    if config.bp_epsilon > 0.0:
        eps = config.bp_epsilon * geom.detJ ** (2.0 / dim)
        Kpp -= np.einsum("ep,epia,epib->eab", wdet * eps, G, G)
    if config.scheme == "enriched":
        s = 2.0 * nu * np.einsum("ep,epia,epi->ea", wdet, G, gb)
        kff = 2.0 * nu * integrate(wdet, np.einsum("epi,epi->ep", gb, gb))
        Kpf = -np.einsum("ep,pa,epi->eai", wdet, N, gb)
        f_f = np.einsum("ep,p,epi->ei", wdet, b, bf)
        s_inv, Kpf_inv = s * (1.0 / kff)[:, None], Kpf * (1.0 / kff)[:, None, None]
        Kvv -= s[:, :, None] * s[:, None, :] / kff[:, None, None]
        Kvp -= s_inv[:, :, None, None] * Kpf.transpose(0, 2, 1)[:, None, :, :]
        Kpp -= np.matmul(Kpf_inv, Kpf.transpose(0, 2, 1))
        fv -= s_inv[:, :, None] * f_f[:, None, :]
        fp -= np.matmul(Kpf_inv, f_f[:, :, None])[:, :, 0]
    return Kvv, Kvp, Kpp, fv, fp


def _einsum_stabilized_stacks(mesh, config):
    """Reference wvm/svm element blocks and loads: the Galerkin einsum
    stacks plus the stabilization terms by einsum formulas."""
    Kvv, Kvp, Kpp, fv, fp = _einsum_galerkin_stacks(
        mesh, dataclasses.replace(config, scheme="galerkin"))
    table = basis_table(mesh.kind)
    geom, nu = mesh.geometry, config.nu
    G, lapN = _einsum_G(mesh), geom.lapN
    bf = (np.zeros_like(geom.x) if config.body_force is None
          else np.broadcast_to(config.body_force(geom.x), geom.x.shape))
    if config.scheme == "wvm":
        tau_eff = table.b * _wvm_coefficient(table, geom)[:, None]
    else:
        tau_eff = -(table.b / geom.lapb)
    tw = geom.wdet * tau_eff
    Kvv -= 2.0 * nu * np.einsum("ep,epa,epb->eab", tw, lapN, lapN)
    Kvp += np.einsum("ep,epa,epib->eiab", tw, lapN, G).transpose(0, 2, 1, 3)
    Kpp -= (1.0 / (2.0 * nu)) * np.einsum("ep,epia,epib->eab", tw, G, G)
    fv += np.einsum("ep,epa,epi->eai", tw, lapN, bf)
    fp -= (1.0 / (2.0 * nu)) * np.einsum("ep,epia,epi->ea", tw, G, bf)
    return Kvv, Kvp, Kpp, fv, fp


@pytest.mark.parametrize("scheme, bp_epsilon", [
    ("galerkin", 0.0), ("galerkin", 0.07), ("wvm", 0.0), ("svm", 0.0),
    ("enriched", 0.0), ("enriched", 0.07),
])
@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_element_stacks_match_einsum_reference(kind, perturbed, scheme, bp_epsilon):
    mesh = generate_grid(kind, 6 if kind.dim == 2 else 3)
    mesh = _perturbed(mesh) if perturbed else mesh
    reference = (_einsum_stabilized_stacks if scheme in ("wvm", "svm")
                 else _einsum_galerkin_stacks)
    for body_force in (None, _body_force):
        config = FormulationConfig(scheme=scheme, nu=0.7, bp_epsilon=bp_epsilon,
                                   body_force=body_force)
        K, loads, _ = _element_stacks(mesh, config)
        assert K.flags.c_contiguous
        for name, got, want in zip(("Kvv", "Kvp", "Kpp", "fv", "fp"), _blocks(K) + loads,
                                   reference(mesh, config)):
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def test_assemble_peak_memory_is_bounded_by_G():
    """The traced peak of an svm B8 8^3 assemble call, after a warm-up call
    that builds the mesh's node pattern and pressure mass, over the bytes
    of the geometry's G: 2.716 when the element blocks were concatenated
    and summed by one stacked gather, 1.740 with one array of blocks that
    is summed one row at a time."""
    mesh = generate_grid(ElementKind.B8, 8)
    config = FormulationConfig(scheme="svm")
    assemble(mesh, config)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assemble(mesh, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.85 * mesh.geometry.G.nbytes


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", list(ElementKind))
def test_pressure_rows_are_coupling_transpose_bit_for_bit(kind, scheme):
    """In the matrix the LU factors, the pressure-velocity block is the
    velocity-pressure block transposed, to the last bit."""
    mesh = _perturbed(generate_grid(kind, 6 if kind.dim == 2 else 3))
    system, _ = assemble(mesh, FormulationConfig(scheme=scheme, nu=0.7, body_force=_body_force))
    A, n_v = system.matrix.to_scipy(), mesh.n_nodes * mesh.dim
    pv, vp_t = A[n_v:, :n_v], A[:n_v, n_v:].T.tocsr()
    for name in ("indptr", "indices", "data"):
        assert getattr(pv, name).tobytes() == getattr(vp_t, name).tobytes(), name
