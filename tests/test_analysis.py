"""Error norms, convergence machinery, pressure-mode spectra, vortex location."""

import dataclasses

import numpy as np
import pytest

from conftest import perturb_interior
from stokeslab.analysis import (
    ZERO_MODE_RTOL,
    SpectrumReport,
    _grid_parity_pattern,
    checkerboard_amplitude,
    convergence_study,
    error_norms,
    lbb_spectrum,
    locate_vortex,
    mesh_size,
    pressure_mass_matrix,
)
from stokeslab.basis import basis_table
from stokeslab.cases import case_by_name
from stokeslab.driver import SolutionField, solve_case
from stokeslab.formulations import FormulationConfig, assemble
from stokeslab.kinds import ElementKind
from stokeslab.linalg import eig_sym_generalized, split_dofs
from stokeslab.mesh import generate_grid, load_mesh, wct_fixture_path


def _field(mesh, velocity, pressure):
    values = np.concatenate([velocity.reshape(-1), pressure])
    return SolutionField(mesh=mesh, values=values, velocity=velocity, pressure=pressure,
                         fine=None, residual=0.0, solver="lu", iterations=0)


def test_mesh_size_uniform_square_grid():
    mesh = generate_grid(ElementKind.Q4, 4)
    assert mesh_size(mesh) == pytest.approx(np.sqrt(2) / 4, rel=1e-12)


@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_mesh_size_is_the_all_pairs_maximum(kind, perturbed, rng):
    mesh = generate_grid(kind, 5 if kind.dim == 2 else 3)
    if perturbed:
        nodes = mesh.nodes + rng.uniform(-0.05, 0.05, mesh.nodes.shape)
        mesh = dataclasses.replace(mesh, nodes=nodes)
    coords = mesh.nodes[mesh.elements]
    diff = coords[:, :, None, :] - coords[:, None, :, :]
    assert mesh_size(mesh) == float(np.sqrt((diff**2).sum(axis=-1)).max())


def test_error_norms_exact_interpolant_is_zero():
    mesh = generate_grid(ElementKind.Q4, 3)
    case = case_by_name("patch_constant", 2)
    v = np.tile([10.0, 0.0], (mesh.n_nodes, 1))
    p = np.full(mesh.n_nodes, 10.0)
    rep = error_norms(_field(mesh, v, p), case, mesh)
    assert rep.velocity_l2 < 1e-12
    assert rep.pressure_h1semi < 1e-12
    assert rep.h == pytest.approx(mesh_size(mesh))


def test_pressure_seminorm_ignores_constant_shift():
    mesh = generate_grid(ElementKind.Q4, 4)
    case = case_by_name("body_force_cavity")
    v = np.array([case.exact_velocity(x) for x in mesh.nodes])
    p = np.array([case.exact_pressure(x) for x in mesh.nodes])
    r0 = error_norms(_field(mesh, v, p), case, mesh)
    r7 = error_norms(_field(mesh, v, p + 7.0), case, mesh)
    assert r7.pressure_h1semi == pytest.approx(r0.pressure_h1semi, rel=1e-12)
    assert r7.velocity_l2 == pytest.approx(r0.velocity_l2, rel=1e-12)


def test_velocity_error_of_zero_field_against_unit_flow():
    mesh = generate_grid(ElementKind.Q4, 5)
    base = case_by_name("patch_constant", 2)
    case = type(base)(
        name="unit_flow", dim=2, dirichlet=base.dirichlet, body_force=None,
        pressure_pin=base.pressure_pin, nu=1.0,
        exact_velocity=lambda x: np.array([1.0, 0.0]),
        exact_pressure=lambda x: 0.0,
        exact_pressure_grad=lambda x: np.zeros(2),
    )
    v = np.zeros((mesh.n_nodes, 2))
    p = np.zeros(mesh.n_nodes)
    rep = error_norms(_field(mesh, v, p), case, mesh)
    assert rep.velocity_l2 == pytest.approx(1.0, rel=1e-12)


def test_error_norms_require_exact_solution():
    mesh = generate_grid(ElementKind.Q4, 2)
    case = case_by_name("lid_cavity", 2)
    v = np.zeros((mesh.n_nodes, 2))
    with pytest.raises(ValueError, match="exact"):
        error_norms(_field(mesh, v, np.zeros(mesh.n_nodes)), case, mesh)


def test_convergence_study_requires_exact_solution_before_any_solve():
    with pytest.raises(ValueError, match="^case 'lid_cavity' has no exact solution$"):
        convergence_study(case_by_name("lid_cavity", 2), "svm", ElementKind.Q4, (2, 4, 8))


def test_linear_fields_reproduced_exactly():
    mesh = generate_grid(ElementKind.T3, 4)
    base = case_by_name("patch_constant", 2)
    case = type(base)(
        name="linear", dim=2, dirichlet=base.dirichlet, body_force=None,
        pressure_pin=base.pressure_pin, nu=1.0,
        exact_velocity=lambda x: np.stack(
            [2 * x[..., 0] - x[..., 1], x[..., 0] + 3 * x[..., 1]], axis=-1),
        exact_pressure=lambda x: 1.0 + 4 * x[..., 0] - 2 * x[..., 1],
        exact_pressure_grad=lambda x: np.broadcast_to([4.0, -2.0], x.shape),
    )
    v = case.exact_velocity(mesh.nodes)
    p = case.exact_pressure(mesh.nodes)
    rep = error_norms(_field(mesh, v, p), case, mesh)
    assert rep.velocity_l2 < 1e-12
    assert rep.pressure_h1semi < 1e-12


@pytest.mark.parametrize("kind", list(ElementKind))
def test_error_norms_of_random_fields_on_distorted_grids(kind):
    """Random nodal fields on a 0.12h-perturbed grid against smooth exact
    fields: both norms match a reference that forms grad p_h point by point
    from J^-1 and the parametric shape gradients, not from the stored G."""
    n = 4 if kind.dim == 2 else 3
    mesh = perturb_interior(generate_grid(kind, n), 0.12 / n, seed=3)
    base = case_by_name("patch_constant", kind.dim)
    case = dataclasses.replace(
        base, name="smooth",
        exact_velocity=lambda x: np.sin(3.0 * x + 1.0),
        exact_pressure=lambda x: np.cos(x).prod(axis=-1),
        exact_pressure_grad=lambda x: np.cos(2.0 * x),
    )
    rng = np.random.default_rng(11)
    v, p = rng.standard_normal((mesh.n_nodes, kind.dim)), rng.standard_normal(mesh.n_nodes)
    rep = error_norms(_field(mesh, v, p), case, mesh)

    table, geom = basis_table(kind), mesh.geometry
    vh = table.N @ v[mesh.elements]
    dp = (np.swapaxes(table.DN, 1, 2) @ p[mesh.elements][:, None, :, None])[..., 0]
    gph = (np.swapaxes(geom.Jinv, -1, -2) @ dp[..., None])[..., 0]
    v2 = (geom.wdet * ((vh - case.exact_velocity(geom.x)) ** 2).sum(-1)).sum()
    p2 = (geom.wdet * ((gph - case.exact_pressure_grad(geom.x)) ** 2).sum(-1)).sum()
    assert rep.velocity_l2 == pytest.approx(np.sqrt(v2), rel=1e-13)
    assert rep.pressure_h1semi == pytest.approx(np.sqrt(p2), rel=1e-13)
    assert rep.pressure_h1semi > 1.0  # the random field's gradient dominates


def test_convergence_study_flags_exactly_reproduced_case():
    case = case_by_name("patch_constant", 2)
    rows, slopes = convergence_study(case, "svm", ElementKind.Q4, (2, 3, 4))
    assert slopes == {"exact": True}
    assert len(rows) == 3


def test_convergence_study_needs_three_levels():
    case = case_by_name("patch_constant", 2)
    with pytest.raises(ValueError, match="3 levels"):
        convergence_study(case, "svm", ElementKind.Q4, (2, 4))


@pytest.mark.parametrize("levels, repeated", [((8, 8, 8), 8), ((4, 8, 4, 16), 4)])
def test_convergence_study_refuses_repeated_levels(levels, repeated):
    # a slope fitted to equal h values means nothing (numpy warns RankWarning)
    case = case_by_name("body_force_cavity")
    with pytest.raises(ValueError, match=f"^level {repeated} is repeated"):
        convergence_study(case, "svm", ElementKind.Q4, levels)


@pytest.mark.parametrize("scheme", ["svm", "wvm"])
def test_body_force_pressure_error_lives_on_the_boundary_nodes(scheme):
    # criterion 9's pressure slope is capped by an O(h) boundary-node layer:
    # at 64x64 the interior nodes are exact to 1.1e-7 (svm) and 3.8e-8 (wvm),
    # while the boundary-node error halves with h (slopes 0.976 and 0.992)
    case = case_by_name("body_force_cavity")
    levels = (8, 16, 32, 64)
    boundary_errors = []
    for n in levels:
        mesh = generate_grid(ElementKind.Q4, n)
        error = np.abs(solve_case(case, mesh, scheme).pressure
                       - case.exact_pressure(mesh.nodes))
        boundary_errors.append(error[sorted(mesh.nodeset("all"))].max())
    wall_distance = np.minimum(mesh.nodes, 1 - mesh.nodes).min(axis=1)
    assert error[wall_distance > 0.25].max() <= 1e-6
    slope = np.polyfit(np.log(levels), -np.log(boundary_errors), 1)[0]
    assert 0.8 <= slope <= 1.2


# ----------------------------------------------------------------- spectra

def test_pressure_mass_matrix_total_mass():
    mesh = generate_grid(ElementKind.Q4, 3)
    M = pressure_mass_matrix(mesh)
    assert np.allclose(M, M.T, atol=1e-14)
    assert M.sum() == pytest.approx(1.0, rel=1e-12)  # unit-square volume


@pytest.mark.parametrize("scheme,kind,expect_zero,expect_cb", [
    ("svm", ElementKind.Q4, 1, False),
    ("wvm", ElementKind.Q4, 1, False),
    ("svm", ElementKind.T3, 1, False),
])
def test_small_grid_pressure_mode_counts(scheme, kind, expect_zero, expect_cb):
    mesh = generate_grid(kind, 6)
    report = lbb_spectrum(mesh, scheme)
    assert report.zero_count == expect_zero
    assert report.checkerboard_present is expect_cb
    lam = report.eigenvalues
    assert np.all(np.diff(lam) >= -1e-12)
    assert lam.min() > -1e-10 * np.abs(lam).max()


def test_galerkin_equal_order_square_grid_has_checkerboard_mode():
    mesh = generate_grid(ElementKind.Q4, 6)
    report = lbb_spectrum(mesh, "galerkin")
    assert report.zero_count >= 2
    assert report.checkerboard_present


def test_galerkin_equal_order_structured_triangles_unstable():
    mesh = generate_grid(ElementKind.T3, 6)
    report = lbb_spectrum(mesh, "galerkin")
    assert report.zero_count > 1  # spurious modes beyond the hydrostatic one


@pytest.mark.parametrize("scheme", ["galerkin", "wvm", "svm", "enriched"])
def test_hydrostatic_mode_always_present(scheme):
    mesh = generate_grid(ElementKind.Q4, 5)
    report = lbb_spectrum(mesh, scheme)
    assert report.zero_count >= 1


def test_lbb_spectrum_rejects_unknown_scheme():
    mesh = generate_grid(ElementKind.Q4, 3)
    with pytest.raises(ValueError, match="scheme"):
        lbb_spectrum(mesh, "bogus")


def test_lbb_spectrum_degenerate_single_element():
    mesh = generate_grid(ElementKind.Q4, 1)
    with pytest.raises(ValueError, match="interior velocity"):
        lbb_spectrum(mesh, "svm")


def _expanded_spectrum(mesh, scheme):
    """Reference for lbb_spectrum: A expanded to the dense velocity matrix
    K (x) I_dim over the node-major (node, component) dofs, restricted to
    the interior nodes' dofs, and S = B A^-1 B^T + C solved as a whole."""
    n, dim = mesh.n_nodes, mesh.dim
    interior = np.ones(n, dtype=bool)
    interior[list(mesh.nodeset("all"))] = False
    free_v = split_dofs(np.arange(n * (dim + 1)), dim)[0][interior].ravel()
    gal = assemble(mesh, FormulationConfig(scheme="galerkin", nu=1.0))[0]
    K = gal.pattern.matrix(gal.K).to_dense()
    A = np.zeros((n, dim, n, dim))
    for i in range(dim):
        A[:, i, :, i] = K
    A = A.reshape(n * dim, -1)[np.ix_(free_v, free_v)]
    B = np.stack([gal.pattern.matrix(Gj).to_dense() for Gj in gal.G]).T  # B = G^T
    B = B.reshape(n, -1)[:, free_v]
    stab = assemble(mesh, FormulationConfig(scheme=scheme, nu=1.0))[0]
    S = B @ np.linalg.solve(A, B.T) - stab.pattern.matrix(stab.Kpp).to_dense()
    lam, Q = eig_sym_generalized(S, pressure_mass_matrix(mesh))
    zero = np.abs(lam) < ZERO_MODE_RTOL * np.abs(lam).max()
    checkerboard = False
    if zero.sum() >= 2:
        pattern = _grid_parity_pattern(mesh)
        basis, _ = np.linalg.qr(Q[:, zero])
        checkerboard = np.linalg.norm(basis @ (basis.T @ pattern)) > 0.9 * np.linalg.norm(pattern)
    return SpectrumReport(lam, int(zero.sum()), bool(checkerboard))


@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("scheme", ["galerkin", "wvm", "svm", "enriched"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_spectrum_matches_the_expanded_velocity_matrix(kind, scheme, perturbed):
    n = 6 if kind.dim == 2 else 3
    mesh = generate_grid(kind, n)
    if perturbed:
        mesh = perturb_interior(mesh, 0.12 / n, seed=0)
    got, want = lbb_spectrum(mesh, scheme), _expanded_spectrum(mesh, scheme)
    scale = np.abs(want.eigenvalues).max()
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-12 * scale
    assert got.zero_count == want.zero_count
    assert got.checkerboard_present == want.checkerboard_present


@pytest.mark.parametrize("scheme", ["galerkin", "wvm", "svm", "enriched"])
def test_acute_fixture_spectrum(scheme):
    """On the acute fixture the Galerkin pressure Schur complement has one
    nearly singular mode besides the hydrostatic one (3.6e-6; the next is
    1.1e-4), which the stabilized schemes lift above 1e-2 (4.0e-2 to 4.6e-2)."""
    report = lbb_spectrum(load_mesh(wct_fixture_path()), scheme)
    assert report.zero_count == 1
    lowest = np.sort(np.abs(report.eigenvalues))[1]
    if scheme == "galerkin":
        assert 1e-6 <= lowest <= 1e-5
    else:
        assert lowest >= 1e-2


# --------------------------------------------------------------- diagnostics

def test_checkerboard_amplitude_of_exact_field_is_zero():
    mesh = generate_grid(ElementKind.Q4, 4)
    case = case_by_name("patch_constant", 2)
    v = np.tile([10.0, 0.0], (mesh.n_nodes, 1))
    p = np.full(mesh.n_nodes, 10.0)
    assert checkerboard_amplitude(_field(mesh, v, p), case, mesh) == 0.0


def test_locate_vortex_rigid_rotation():
    mesh = generate_grid(ElementKind.Q4, 10)
    case = case_by_name("lid_cavity", 2)
    v = np.stack([mesh.nodes[:, 1] - 0.7, -(mesh.nodes[:, 0] - 0.5)], axis=1)
    y = locate_vortex(_field(mesh, v, np.zeros(mesh.n_nodes)), mesh)
    assert y == pytest.approx(0.7, abs=1e-12)


def test_locate_vortex_needs_centerline_and_sign_change():
    mesh = generate_grid(ElementKind.Q4, 10)
    case = case_by_name("lid_cavity", 2)
    v = np.ones((mesh.n_nodes, 2))
    with pytest.raises(ValueError, match="sign change"):
        locate_vortex(_field(mesh, v, np.zeros(mesh.n_nodes)), mesh)
    odd = generate_grid(ElementKind.Q4, 3)  # no nodes on x = 0.5
    v3 = np.ones((odd.n_nodes, 2))
    with pytest.raises(ValueError, match="centerline"):
        locate_vortex(_field(odd, v3, np.zeros(odd.n_nodes)), odd)


def test_solve_case_reports_small_residual():
    mesh = generate_grid(ElementKind.Q4, 6)
    case = case_by_name("body_force_cavity")
    sol = solve_case(case, mesh, "svm")
    assert sol.residual < 1e-12
    assert sol.velocity.shape == (mesh.n_nodes, 2)
    assert sol.fine is None
