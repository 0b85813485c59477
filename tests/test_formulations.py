"""Assembly of the four schemes: tau, element blocks, condensation."""

import dataclasses

import numpy as np
import pytest

from conftest import REFERENCE_CORNERS, enriched_full, fine_dofs_free, lexsort_sum, solve_reduced
from stokeslab.basis import basis_table
from stokeslab.cases import case_by_name, case_constraints
from stokeslab.formulations import (
    FormulationConfig,
    _element_stacks,
    _wvm_coefficient,
    assemble,
    recover_fine,
    tau_at,
)
from stokeslab.kinds import ElementKind
from stokeslab.linalg import SingularMatrixError, SparseMatrix, apply_constraints, solve_direct
from stokeslab.mesh import Mesh, generate_grid


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


# --------------------------------------------------------------- block structure

def _pp_block(system):
    return system.blocks.pattern.matrix(system.blocks.Kpp).to_dense()


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
    mesh = generate_grid(ElementKind.T3, 6)
    inner = np.all((mesh.nodes > 0) & (mesh.nodes < 1), axis=1)
    nodes = mesh.nodes.copy()
    h = 1.0 / 6.0
    nodes[inner] += np.random.default_rng(1).uniform(-0.12 * h, 0.12 * h, (inner.sum(), 2))
    mesh = Mesh(dim=2, nodes=nodes, elements=mesh.elements, kind=ElementKind.T3)
    assert np.any(mesh.geometry.lapb >= 0)
    lam = {}
    for scheme in ("wvm", "svm"):
        C = -_pp_block(assemble(mesh, FormulationConfig(scheme=scheme))[0])
        lam[scheme] = np.linalg.eigvalsh(0.5 * (C + C.T))
    assert lam["svm"].min() < -1e-4 * lam["svm"].max()
    assert lam["wvm"].min() > -1e-10 * lam["wvm"].max()


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

def test_assembly_independent_of_element_order(rng):
    mesh = generate_grid(ElementKind.Q4, 7)
    shuffled = Mesh(dim=mesh.dim, nodes=mesh.nodes,
                    elements=mesh.elements[rng.permutation(mesh.n_elements)],
                    kind=mesh.kind, boundary_sets=mesh.boundary_sets)
    config = FormulationConfig(scheme="svm", nu=0.5,
                               body_force=case_by_name("body_force_cavity").body_force)
    one, _ = assemble(mesh, config)
    two, _ = assemble(shuffled, config)
    for name in ("rows", "cols"):
        assert np.array_equal(getattr(one.blocks.pattern, name), getattr(two.blocks.pattern, name))
    for name in ("K", "G", "B", "Kpp"):
        assert getattr(one.blocks, name).tobytes() == getattr(two.blocks, name).tobytes()
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
    (Kvv, Kvp, Kpv, Kpp), (fv, fp), _ = _element_stacks(mesh, coarse)
    n_el, nen, dim = Kvp.shape[:3]
    nd, eye = nen * dim, np.eye(dim)

    def kron_eye(A):
        return (A[:, :, None, :, None] * eye[:, None, :]).reshape(n_el, -1, A.shape[2] * dim)

    Kv = kron_eye(Kvv)
    Kv[:, np.arange(nd)[:, None] % dim != np.arange(nd) % dim] = 0.0
    blocks = [[Kv, Kvp.reshape(n_el, nd, nen)], [Kpv.reshape(n_el, nen, nd), Kpp]]
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
    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[list(mesh.nodeset("all"))] = False
    h = np.ptp(mesh.nodes[mesh.elements], axis=1).max()
    nodes = mesh.nodes.copy()
    nodes[interior] += np.random.default_rng(seed).uniform(-0.1 * h, 0.1 * h,
                                                           (interior.sum(), mesh.dim))
    return dataclasses.replace(mesh, nodes=nodes)


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


@pytest.mark.parametrize("case_name", ["lid_cavity", "patch_constant"])  # pressure pin 0, 10
@pytest.mark.parametrize("scheme", ["galerkin", "svm", "enriched"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_block_constraint_folding_matches_monolithic(kind, scheme, case_name):
    mesh = _perturbed(generate_grid(kind, 5 if kind.dim == 2 else 3))
    system, _ = assemble(mesh, FormulationConfig(scheme=scheme, body_force=_body_force))
    constraints = case_constraints(case_by_name(case_name, kind.dim), mesh)
    folded = apply_constraints(system, constraints)
    matrix, rhs = _fold_monolithic(system.matrix, system.rhs, constraints)
    assert folded.rhs.tobytes() == rhs.tobytes()
    for name in ("rows", "cols", "vals"):
        assert getattr(folded.matrix, name).tobytes() == getattr(matrix, name).tobytes()


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
                assert system.blocks.K.tobytes() == vals[comp].tobytes()


# ----------------------------------------- stabilization terms as stacked matmuls

def _einsum_stabilized_stacks(mesh, config):
    """Reference wvm/svm element blocks and loads: the Galerkin stacks plus
    the stabilization terms by the einsum formulas the kernel used before
    they became stacked matmuls, on the mesh's own geometry."""
    (Kvv, Kvp, Kpv, Kpp), (fv, fp), _ = _element_stacks(
        mesh, dataclasses.replace(config, scheme="galerkin"))
    table = basis_table(mesh.kind)
    geom, nu = mesh.geometry, config.nu
    G, lapN = geom.G, geom.lapN
    bf = (np.zeros_like(geom.x) if config.body_force is None
          else np.broadcast_to(config.body_force(geom.x), geom.x.shape))
    if config.scheme == "wvm":
        tau_eff = table.b * _wvm_coefficient(table, geom)[:, None]
    else:
        tau_eff = -(table.b / geom.lapb)
    tw = geom.wdet * tau_eff
    Kvv -= 2.0 * nu * np.einsum("ep,epa,epb->eab", tw, lapN, lapN)
    Kvp += np.einsum("ep,epa,epib->eiab", tw, lapN, G).transpose(0, 2, 1, 3)
    Kpv += np.einsum("ep,epja,epb->eabj", tw, G, lapN)
    Kpp -= (1.0 / (2.0 * nu)) * np.einsum("ep,epia,epib->eab", tw, G, G)
    fv += np.einsum("ep,epa,epi->eai", tw, lapN, bf)
    fp -= (1.0 / (2.0 * nu)) * np.einsum("ep,epia,epi->ea", tw, G, bf)
    return Kvv, Kvp, Kpv, Kpp, fv, fp


@pytest.mark.parametrize("scheme", ["wvm", "svm"])
@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_stabilized_stacks_match_einsum_reference(kind, perturbed, scheme):
    mesh = generate_grid(kind, 6 if kind.dim == 2 else 3)
    mesh = _perturbed(mesh) if perturbed else mesh
    for body_force in (None, _body_force):
        config = FormulationConfig(scheme=scheme, nu=0.7, body_force=body_force)
        blocks, loads, _ = _element_stacks(mesh, config)
        for name, got, want in zip(("Kvv", "Kvp", "Kpv", "Kpp", "fv", "fp"), blocks + loads,
                                   _einsum_stabilized_stacks(mesh, config)):
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


@pytest.mark.parametrize("scheme", ["wvm", "svm"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_stabilized_pressure_coupling_is_transpose_bit_for_bit(kind, scheme):
    """B_i is G_i^T to the last bit: both come from one element product."""
    mesh = _perturbed(generate_grid(kind, 6 if kind.dim == 2 else 3))
    blocks = assemble(mesh, FormulationConfig(scheme=scheme, nu=0.7,
                                              body_force=_body_force))[0].blocks
    pattern = blocks.pattern
    transpose = np.lexsort((pattern.rows, pattern.cols))  # (col, row) order
    assert np.array_equal(pattern.rows[transpose], pattern.cols)
    for i in range(mesh.dim):
        assert blocks.B[i].tobytes() == blocks.G[i][transpose].tobytes()
