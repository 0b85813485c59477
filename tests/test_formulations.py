"""Assembly of the four schemes: tau, element blocks, condensation, traction."""

import dataclasses

import numpy as np
import pytest

from conftest import REFERENCE_CORNERS, lexsort_sum
from stokeslab.cases import case_by_name, case_constraints
from stokeslab.formulations import (
    FormulationConfig,
    _element_stacks,
    assemble,
    assemble_enriched,
    assemble_enriched_full,
    add_traction,
    build_dofmap,
    recover_fine,
    tau_at,
)
from stokeslab.kinds import ElementKind
from stokeslab.linalg import (
    LinearSystem,
    SingularMatrixError,
    SparseMatrix,
    apply_constraints,
    solve_direct,
)
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


def test_dofmap_dense_and_disjoint():
    mesh = generate_grid(ElementKind.Q4, 3)
    dofmap = build_dofmap(mesh)
    seen = set()
    for n in range(mesh.n_nodes):
        for c in range(2):
            seen.add(dofmap.vdof(n, c))
        seen.add(dofmap.pdof(n))
    assert seen == set(range(dofmap.total))
    assert np.array_equal(dofmap.velocity_dofs([2]), [4, 5])
    assert np.array_equal(dofmap.pressure_dofs([2]), [dofmap.n_velocity + 2])


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


# --------------------------------------------------------------- block structure

def _pp_block(system):
    return system.blocks.pattern.matrix(system.blocks.Kpp).to_dense()


def test_galerkin_pressure_pressure_block_zero():
    mesh = generate_grid(ElementKind.Q4, 3)
    dofmap = build_dofmap(mesh)
    system = assemble(mesh, FormulationConfig(scheme="galerkin"), dofmap)
    assert np.abs(_pp_block(system)).max() == 0.0


@pytest.mark.parametrize("scheme", ["wvm", "svm", "enriched"])
@pytest.mark.parametrize("kind", [ElementKind.T3, ElementKind.Q4])
def test_pressure_stabilization_operator_psd(scheme, kind):
    mesh = generate_grid(kind, 4)
    dofmap = build_dofmap(mesh)
    system = assemble(mesh, FormulationConfig(scheme=scheme), dofmap)
    C = -_pp_block(system)  # operator subtracted from the continuity row
    assert np.allclose(C, C.T, atol=1e-12)
    lam = np.linalg.eigvalsh(0.5 * (C + C.T))
    assert lam.min() > -1e-10 * max(1.0, lam.max())
    assert lam.max() > 0  # genuinely active


def test_system_symmetry_galerkin_and_enriched():
    mesh = generate_grid(ElementKind.Q4, 3)
    for scheme in ("galerkin", "enriched"):
        A = assemble(mesh, FormulationConfig(scheme=scheme)).matrix.to_dense()
        assert np.abs(A - A.T).max() < 1e-12 * max(1.0, np.abs(A).max())


def test_single_square_velocity_block_rigid_translation():
    mesh = generate_grid(ElementKind.Q4, 1, extent=((0, 0), (2, 2)))
    dofmap = build_dofmap(mesh)
    A = assemble(mesh, FormulationConfig(scheme="galerkin"), dofmap).matrix.to_dense()
    Avv = A[: dofmap.n_velocity, : dofmap.n_velocity]
    ones_x = np.tile([1.0, 0.0], mesh.n_nodes)
    assert np.allclose(Avv @ ones_x, 0.0, atol=1e-13)


@pytest.mark.parametrize("kind", [ElementKind.T3, ElementKind.TET4])
def test_simplex_momentum_stabilization_vanishes(kind):
    """Linear shape functions have zero Laplacian, so the stabilized momentum
    block must coincide with the plain Galerkin momentum block on simplices."""
    mesh = generate_grid(kind, 2)
    dofmap = build_dofmap(mesh)
    gal = assemble(mesh, FormulationConfig(scheme="galerkin"), dofmap).matrix.to_dense()
    nv = dofmap.n_velocity
    for scheme in ("wvm", "svm"):
        stab = assemble(mesh, FormulationConfig(scheme=scheme), dofmap).matrix.to_dense()
        assert np.abs(stab[:nv, :] - gal[:nv, :]).max() < 1e-12
        # continuity row does change (pressure stabilization)
        assert np.abs(stab[nv:, nv:] - gal[nv:, nv:]).max() > 1e-12


@pytest.mark.parametrize("scheme", ["galerkin", "wvm", "svm"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_constant_state_is_discrete_solution(scheme, kind, rng):
    """The exact constant state annihilates every unconstrained residual row:
    interior momentum rows, all continuity rows, all stabilization terms."""
    mesh = generate_grid(kind, 2)
    dofmap = build_dofmap(mesh)
    case = case_by_name("patch_constant", mesh.dim)
    system = assemble(mesh, FormulationConfig(scheme=scheme), dofmap)
    x = np.zeros(dofmap.total)
    x[: dofmap.n_velocity : mesh.dim] = 10.0
    x[dofmap.n_velocity:] = 10.0
    resid = system.matrix.to_scipy() @ x - system.rhs
    constrained = set(case_constraints(case, mesh, dofmap))
    free = np.array([d for d in range(dofmap.total) if d not in constrained])
    assert np.abs(resid[free]).max() < 1e-10


def test_wvm_svm_differ_only_through_tau_profile_on_simplices():
    mesh = generate_grid(ElementKind.T3, 3)
    dofmap = build_dofmap(mesh)
    nv = dofmap.n_velocity
    wvm = assemble(mesh, FormulationConfig(scheme="wvm"), dofmap).matrix.to_dense()
    svm = assemble(mesh, FormulationConfig(scheme="svm"), dofmap).matrix.to_dense()
    # same sparsity and same sign pattern in the pp block
    pw, ps = wvm[nv:, nv:], svm[nv:, nv:]
    assert np.all((pw != 0) == (ps != 0))
    nz = pw != 0
    assert np.all(np.sign(pw[nz]) == np.sign(ps[nz]))


def test_brezzi_pitkaranta_block_negative_semidefinite():
    mesh = generate_grid(ElementKind.Q4, 3)
    dofmap = build_dofmap(mesh)
    plain = assemble(mesh, FormulationConfig(scheme="galerkin"), dofmap)
    aug = assemble(mesh, FormulationConfig(scheme="galerkin", bp_epsilon=0.1), dofmap)
    nv = dofmap.n_velocity
    diff = (aug.matrix.to_dense() - plain.matrix.to_dense())
    assert np.abs(diff[:nv, :]).max() == 0.0  # momentum rows untouched
    C = -diff[nv:, nv:]
    lam = np.linalg.eigvalsh(0.5 * (C + C.T))
    assert lam.min() > -1e-12 and lam.max() > 0


# -------------------------------------------------------------------- enriched

def test_enriched_fine_block_reference_square():
    mesh = generate_grid(ElementKind.Q4, 1, extent=((-1, -1), (1, 1)))
    _, fine = assemble_enriched(mesh, FormulationConfig(scheme="enriched"))
    assert fine.kff.shape == (1,)
    assert fine.kff[0] == pytest.approx(512.0 / 45.0, rel=1e-13)


def test_enriched_zero_body_force_gives_zero_fine_rhs():
    mesh = generate_grid(ElementKind.Q4, 2)
    _, fine = assemble_enriched(mesh, FormulationConfig(scheme="enriched"))
    assert fine.f_f.shape == (mesh.n_elements, 2)
    assert np.allclose(fine.f_f, 0.0)


def test_enriched_non_finite_fine_block_names_the_element():
    mesh = generate_grid(ElementKind.Q4, 2)
    config = FormulationConfig(scheme="enriched", nu=1e308)  # 2 * nu overflows
    with np.errstate(all="ignore"), pytest.raises(SingularMatrixError,
                                                  match="fine block in element 0"):
        assemble_enriched(mesh, config)


def test_enriched_zero_data_recovers_zero_fine_field():
    mesh = generate_grid(ElementKind.Q4, 2)
    dofmap = build_dofmap(mesh)
    _, fine = assemble_enriched(mesh, FormulationConfig(scheme="enriched"), dofmap)
    beta = recover_fine(np.zeros(dofmap.total), fine, mesh, dofmap)
    assert np.allclose(beta, 0.0)


def _solve_condensed_and_full(mesh, bp_epsilon):
    """Solve the body-force problem with the condensed and the uncondensed
    enriched forms; returns (coarse solution, fine recovery, full vector)."""
    case = case_by_name("body_force_cavity")
    dofmap = build_dofmap(mesh)
    config = FormulationConfig(scheme="enriched", nu=case.nu,
                               bp_epsilon=bp_epsilon, body_force=case.body_force)
    cond, fine = assemble_enriched(mesh, config, dofmap)
    cons = case_constraints(case, mesh, dofmap)
    cond.constraints = cons
    x_cond, _ = solve_direct(apply_constraints(cond))
    beta = recover_fine(x_cond, fine, mesh, dofmap)

    full = assemble_enriched_full(mesh, config, dofmap)
    full.constraints = dict(cons)
    x_full, _ = solve_direct(apply_constraints(full))
    return x_cond, beta, x_full, dofmap


def test_condensation_identity_and_fine_recovery():
    mesh = generate_grid(ElementKind.Q4, 2)
    x_cond, beta, x_full, dofmap = _solve_condensed_and_full(mesh, bp_epsilon=0.08)
    assert np.abs(x_cond - x_full[: dofmap.total]).max() < 1e-10
    fine_full = x_full[dofmap.total:].reshape(mesh.n_elements, mesh.dim)
    assert np.abs(beta - fine_full).max() < 1e-10


def test_condensed_solution_satisfies_uncondensed_residual():
    mesh = generate_grid(ElementKind.Q4, 2)
    case = case_by_name("body_force_cavity")
    x_cond, beta, x_full, dofmap = _solve_condensed_and_full(mesh, bp_epsilon=0.08)
    config = FormulationConfig(scheme="enriched", nu=case.nu, bp_epsilon=0.08,
                               body_force=case.body_force)
    full = assemble_enriched_full(mesh, config, dofmap)
    x = np.concatenate([x_cond, beta.reshape(-1)])
    A = full.matrix.to_scipy()
    resid = A @ x - full.rhs
    cons = set(case_constraints(case, mesh, dofmap))
    free = np.array([d for d in range(full.matrix.n_rows) if d not in cons])
    scale = abs(A).sum(axis=1).max() * np.abs(x).max()
    assert np.abs(resid[free]).max() < 1e-10 * scale


def test_assemble_enriched_rejects_other_schemes():
    mesh = generate_grid(ElementKind.Q4, 1)
    with pytest.raises(ValueError):
        assemble_enriched(mesh, FormulationConfig(scheme="svm"))
    with pytest.raises(ValueError):
        assemble_enriched_full(mesh, FormulationConfig(scheme="galerkin"))


# ------------------------------------------------------ element-order determinism

def test_assembly_independent_of_element_order(rng):
    mesh = generate_grid(ElementKind.Q4, 7)
    shuffled = Mesh(dim=mesh.dim, nodes=mesh.nodes,
                    elements=mesh.elements[rng.permutation(mesh.n_elements)],
                    kind=mesh.kind, boundary_sets=mesh.boundary_sets)
    config = FormulationConfig(scheme="svm", nu=0.5,
                               body_force=case_by_name("body_force_cavity").body_force)
    one = assemble(mesh, config)
    two = assemble(shuffled, config)
    for name in ("rows", "cols"):
        assert np.array_equal(getattr(one.blocks.pattern, name), getattr(two.blocks.pattern, name))
    for name in ("K", "zero", "G", "B", "Kpp"):
        assert getattr(one.blocks, name).tobytes() == getattr(two.blocks, name).tobytes()
    assert np.array_equal(one.matrix.rows, two.matrix.rows)
    assert np.array_equal(one.matrix.cols, two.matrix.cols)
    assert one.matrix.vals.tobytes() == two.matrix.vals.tobytes()
    assert np.abs(one.rhs).max() > 0
    assert one.rhs.tobytes() == two.rhs.tobytes()


# ---------------------------------------------- blocks against a monolithic scatter

def _monolithic_scatter(mesh, config, condensed=True):
    """The system scattered as one (nen * (dim + 1))^2 element matrix per
    element, the velocity block as Kvv (x) I_dim with its cross-component
    zeros, and summed by the lexsort reference: (rows, cols, vals, rhs)."""
    (Kvv, Kvp, Kpv, Kpp), (fv, fp), fine = _element_stacks(mesh, config, condensed)
    n_el, nen, dim = Kvp.shape[:3]
    nd, eye = nen * dim, np.eye(dim)

    def kron_eye(A):
        return (A[:, :, None, :, None] * eye[:, None, :]).reshape(n_el, -1, A.shape[2] * dim)

    dofmap = build_dofmap(mesh)
    blocks = [[kron_eye(Kvv), Kvp.reshape(n_el, nd, nen)], [Kpv.reshape(n_el, nen, nd), Kpp]]
    idx = [dofmap.velocity_dofs(mesh.elements), dofmap.pressure_dofs(mesh.elements)]
    loads = [fv.reshape(n_el, nd), fp]
    total = dofmap.total
    if not condensed:
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
    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[list(mesh.nodeset("all"))] = False
    h = np.ptp(mesh.nodes[mesh.elements], axis=1).max()
    nodes = mesh.nodes.copy()
    nodes[interior] += np.random.default_rng(seed).uniform(-0.1 * h, 0.1 * h,
                                                           (interior.sum(), mesh.dim))
    return dataclasses.replace(mesh, nodes=nodes)


@pytest.mark.parametrize("case_name", ["lid_cavity", "patch_constant"])  # pressure pin 0, 10
@pytest.mark.parametrize("scheme", ["galerkin", "svm", "enriched"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_block_constraint_folding_matches_monolithic(kind, scheme, case_name):
    mesh = _perturbed(generate_grid(kind, 5 if kind.dim == 2 else 3))
    dofmap = build_dofmap(mesh)
    system = assemble(mesh, FormulationConfig(scheme=scheme, body_force=_body_force), dofmap)
    system.constraints = case_constraints(case_by_name(case_name, kind.dim), mesh, dofmap)
    folded = apply_constraints(system)
    reference = apply_constraints(LinearSystem(system.matrix, system.rhs, system.constraints))
    assert folded.rhs.tobytes() == reference.rhs.tobytes()
    for name in ("rows", "cols", "vals"):
        assert getattr(folded.matrix, name).tobytes() == getattr(reference.matrix, name).tobytes()


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
        system = (assemble(mesh, config) if condensed
                  else assemble_enriched_full(mesh, config))
        rows, cols, vals, rhs = _monolithic_scatter(mesh, config, condensed)
        # same entries, explicit zeros included, and the same bytes, sign
        # bits of the zeros included
        assert system.matrix.rows.tobytes() == rows.tobytes()
        assert system.matrix.cols.tobytes() == cols.tobytes()
        assert system.matrix.vals.tobytes() == vals.tobytes()
        assert system.rhs.tobytes() == rhs.tobytes()
        assert np.signbit(vals[vals == 0]).any()
        if condensed:
            n_v = mesh.n_nodes * mesh.dim
            for i in range(mesh.dim):
                comp = (rows < n_v) & (cols < n_v) & (rows % mesh.dim == i) & (cols % mesh.dim == i)
                assert system.blocks.K.tobytes() == vals[comp].tobytes()


# -------------------------------------------------------------------- traction

@pytest.mark.parametrize("kind", list(ElementKind))
def test_constant_traction_integrates_to_face_area(kind):
    mesh = generate_grid(kind, 2)
    dofmap = build_dofmap(mesh)
    system = assemble(mesh, FormulationConfig(scheme="galerkin"), dofmap)
    base = system.rhs.copy()
    t = np.arange(1, mesh.dim + 1, dtype=float)  # (1, 2[, 3])
    add_traction(system, mesh, "right", lambda x: t, dofmap)
    delta = system.rhs - base
    for i in range(mesh.dim):
        total = delta[i::mesh.dim][: mesh.n_nodes].sum()
        assert total == pytest.approx(t[i], rel=1e-12)  # unit face area


def test_linear_traction_first_moment():
    mesh = generate_grid(ElementKind.Q4, 4)
    dofmap = build_dofmap(mesh)
    system = assemble(mesh, FormulationConfig(scheme="galerkin"), dofmap)
    base = system.rhs.copy()
    add_traction(system, mesh, "top",
                 lambda x: np.stack([x[..., 0], np.zeros_like(x[..., 0])], axis=-1),
                 dofmap)
    delta = system.rhs - base
    assert delta[0::2][: mesh.n_nodes].sum() == pytest.approx(0.5, rel=1e-12)


def test_constant_traction_over_loaded_mesh_boundary():
    mesh = load_mesh(wct_fixture_path())
    dofmap = build_dofmap(mesh)
    system = LinearSystem(SparseMatrix.from_triplets(dofmap.total, dofmap.total, [], [], []),
                          np.zeros(dofmap.total))
    add_traction(system, mesh, "all", lambda x: np.ones_like(x), dofmap)
    for i in range(mesh.dim):
        assert system.rhs[i:dofmap.n_velocity:mesh.dim].sum() == pytest.approx(4.0, rel=1e-12)


def test_traction_unknown_tag():
    mesh = generate_grid(ElementKind.Q4, 2)
    dofmap = build_dofmap(mesh)
    system = assemble(mesh, FormulationConfig(scheme="galerkin"), dofmap)
    with pytest.raises(ValueError, match="lid"):
        add_traction(system, mesh, "lid", lambda x: np.zeros(2), dofmap)
