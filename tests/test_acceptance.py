"""Acceptance gate: the ten headline behaviors, one pass/fail line each.

Each test prints a single CRITERION line (also to the unredirected stdout so
the verdicts are visible during a captured pytest run) and then asserts.
Criterion 9's pressure-gradient convergence slope is a known shortfall of
the method as implemented; see the criterion docstring.
"""

import time

import numpy as np

import conftest

from stokeslab.analysis import (
    checkerboard_amplitude,
    convergence_study,
    lbb_spectrum,
    locate_vortex,
)
from stokeslab.cases import case_by_name, case_constraints
from stokeslab.driver import solve_case
from stokeslab.formulations import FormulationConfig, assemble, tau_at
from stokeslab.kinds import ElementKind
from stokeslab.linalg import SparseMatrix
from stokeslab.mesh import generate_grid, load_mesh, triangle_angles, wct_fixture_path

from conftest import (REFERENCE_CORNERS, at_point, distorted_element, enriched_full,
                      fine_dofs_free, random_interior_point, solve_reduced)


def _report(num, ok, detail):
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    conftest.CRITERION_LINES.append(line)
    return ok


def _patch_amplitude(kind, divisions, scheme, **kw):
    mesh = generate_grid(kind, divisions)
    case = case_by_name("patch_constant", kind.dim)
    sol = solve_case(case, mesh, scheme, **kw)
    vmax = np.abs(sol.velocity - case.exact_velocity(mesh.nodes[0])).max()
    return max(vmax, checkerboard_amplitude(sol, case, mesh))


def test_criterion_01_stabilized_patch_exactness():
    """Stabilized schemes reproduce the constant state to solver precision."""
    t0 = time.time()
    worst = 0.0
    for kind, div in ((ElementKind.Q4, (10, 10)), (ElementKind.B8, (2, 2, 2)),
                      (ElementKind.B8, (8, 8, 8))):
        for scheme in ("wvm", "svm"):
            worst = max(worst, _patch_amplitude(kind, div, scheme))
    dt = time.time() - t0
    ok = worst < 1e-8 and dt < 60.0
    assert _report(1, ok, f"stabilized patch max nodal error {worst:.2e} "
                          f"(< 1e-8), {dt:.1f}s")


def test_criterion_02_enriched_patch_oscillations_grow():
    """Bubble-enriched Q4/B8 show large checkerboard oscillations that do
    not shrink under refinement, unlike the oscillation-free svm runs."""
    results = {}
    for kind, divs in ((ElementKind.Q4, [(10, 10), (20, 20)]),
                       (ElementKind.B8, [(2, 2, 2), (8, 8, 8)])):
        case = case_by_name("patch_constant", kind.dim)
        pairs = []
        for div in divs:
            mesh = generate_grid(kind, div)
            enr = checkerboard_amplitude(
                solve_case(case, mesh, "enriched", pivot_rtol=0.0,
                           residual_rtol=np.inf), case, mesh)
            svm = checkerboard_amplitude(
                solve_case(case, mesh, "svm"), case, mesh)
            pairs.append((enr, svm))
        results[kind.value] = pairs
    ok = True
    parts = []
    for kv, pairs in results.items():
        ratio_ok = all(e >= 10 * s for e, s in pairs)
        growth_ok = pairs[1][0] >= 0.95 * pairs[0][0]
        ok = ok and ratio_ok and growth_ok
        parts.append(f"{kv} enriched {pairs[0][0]:.3g}->{pairs[1][0]:.3g} "
                     f"vs svm {max(s for _, s in pairs):.1e}")
    assert _report(2, ok, "; ".join(parts))


def test_criterion_03_enriched_tetrahedra_stable():
    mesh = generate_grid(ElementKind.TET4, (3, 2, 1))
    assert mesh.n_elements == 36
    case = case_by_name("patch_constant", 3)
    sol = solve_case(case, mesh, "enriched")
    amp = checkerboard_amplitude(sol, case, mesh)
    ok = amp < 1e-8
    assert _report(3, ok, f"enriched TET4 36-element patch amplitude {amp:.2e} (< 1e-8)")


def test_criterion_04_galerkin_on_acute_triangulation():
    mesh = load_mesh(wct_fixture_path())
    max_deg = float(np.degrees(triangle_angles(mesh).max()))
    case = case_by_name("patch_constant", 2)
    sol = solve_case(case, mesh, "galerkin")
    amp = checkerboard_amplitude(sol, case, mesh)
    ok = mesh.n_elements >= 300 and max_deg < 90.0 and amp < 1e-6
    assert _report(4, ok, f"galerkin on {mesh.n_elements}-triangle acute fixture "
                          f"(max angle {max_deg:.2f} deg): amplitude {amp:.2e} (< 1e-6)")


def test_criterion_05_pressure_mode_census():
    t0 = time.time()
    t3 = lbb_spectrum(generate_grid(ElementKind.T3, 10), "enriched")
    q4 = lbb_spectrum(generate_grid(ElementKind.Q4, 10), "enriched")
    dt = time.time() - t0
    ok = (t3.zero_count == 1 and not t3.checkerboard_present
          and q4.zero_count == 2 and q4.checkerboard_present and dt < 60.0)
    assert _report(5, ok, f"enriched T3 zero modes {t3.zero_count} (=1); enriched "
                          f"Q4 zero modes {q4.zero_count} (=2) with checkerboard "
                          f"{q4.checkerboard_present}, {dt:.1f}s")


def test_criterion_06_static_condensation_identity():
    mesh = generate_grid(ElementKind.Q4, 2)
    case = case_by_name("body_force_cavity")
    sol = solve_case(case, mesh, "enriched", bp_epsilon=0.08)
    config = FormulationConfig(scheme="enriched", nu=case.nu, bp_epsilon=0.08,
                               body_force=case.body_force)
    matrix, rhs = enriched_full(mesh, config)
    x_full = solve_reduced(matrix, rhs, fine_dofs_free(case_constraints(case, mesh), rhs.size))
    n_coarse = sol.values.size
    coarse_diff = np.abs(sol.values - x_full[:n_coarse]).max()
    fine_diff = np.abs(
        sol.fine - x_full[n_coarse:].reshape(mesh.n_elements, 2)
    ).max()
    ok = coarse_diff < 1e-10 and fine_diff < 1e-10
    assert _report(6, ok, f"condensed vs full solve: coarse diff {coarse_diff:.1e}, "
                          f"fine diff {fine_diff:.1e} (< 1e-10)")


def test_criterion_07_jacobian_calculus_identities(rng):
    from test_basis import _fd_divjinv, _fd_laplacian_of_mapped_scalar

    worst = 0.0
    for kind in (ElementKind.Q4, ElementKind.B8):
        for _ in range(20):
            coords = distorted_element(kind, rng)
            xi = random_interior_point(kind, rng) * 0.5
            _, jac = at_point(kind, xi, coords)
            fd = _fd_divjinv(kind, coords, xi)
            scale = max(1.0, np.linalg.norm(fd))
            worst = max(worst, np.linalg.norm(jac.divJinv - fd) / scale)
            fd_lap = _fd_laplacian_of_mapped_scalar(
                kind, coords, xi, lambda z: at_point(kind, z)[0].b)
            worst = max(worst, abs(jac.lapb - fd_lap) / max(1.0, abs(fd_lap)))
    ok = worst < 1e-5
    assert _report(7, ok, f"div(J^-1) and physical Laplacian vs finite differences "
                          f"on 20 distorted Q4+B8 elements: rel err {worst:.1e} (< 1e-5)")


def test_criterion_08_cavity_vortex_height():
    t0 = time.time()
    sol3 = solve_case(case_by_name("lid_cavity", 3),
                      generate_grid(ElementKind.B8, (10, 10, 1)), "svm")
    y3 = locate_vortex(sol3, sol3.mesh)
    sol2 = solve_case(case_by_name("lid_cavity", 2),
                      generate_grid(ElementKind.Q4, 40), "svm")
    y2 = locate_vortex(sol2, sol2.mesh)
    dt = time.time() - t0
    ok = abs(y3 - 0.753) <= 0.02 and abs(y2 - 0.756) <= 0.01 and dt < 120.0
    assert _report(8, ok, f"svm vortex: B8 10x10x1 y={y3:.4f} (0.753 +/- 0.02), "
                          f"Q4 40x40 y={y2:.4f} (0.756 +/- 0.01), {dt:.1f}s")


def test_criterion_09_manufactured_convergence_rates():
    """Velocity converges at second order with small absolute error.  The
    pressure-gradient error is dominated by an O(h)-amplitude boundary-node
    layer (at 64x64 the nodes farther than 0.25 from the wall are within
    1.1e-7 (svm) and 3.8e-8 (wvm) of the exact pressure, while the
    boundary-node error falls with slope 0.98 (svm) and 0.99 (wvm);
    test_analysis checks both), which caps the
    observed seminorm slope near 0.6 on these levels; the [0.7, 1.6]
    expectation is not attainable with this stabilization scaling, so this
    criterion is left honestly red rather than tuned around."""
    case = case_by_name("body_force_cavity")
    ok = True
    parts = []
    for scheme in ("svm", "wvm"):
        rows, slopes = convergence_study(case, scheme, ElementKind.Q4, (8, 16, 32))
        sv, sp = slopes["velocity_l2"], slopes["pressure_h1semi"]
        verr = rows[-1][1]
        ok = ok and 1.7 <= sv <= 2.3 and 0.7 <= sp <= 1.6 and verr < 1e-3
        parts.append(f"{scheme}: v-slope {sv:.2f} (in [1.7,2.3]), p-slope {sp:.2f} "
                     f"(in [0.7,1.6]), v-err@32 {verr:.1e} (< 1e-3)")
    assert _report(9, ok, "; ".join(parts))


def test_criterion_10_invariant_suite(rng):
    checks = []

    # partition of unity at random interior points, every kind
    pu = True
    for kind in ElementKind:
        for _ in range(25):
            xi = random_interior_point(kind, rng)
            be, _ = at_point(kind, xi)
            pu = pu and abs(be.N.sum() - 1.0) < 1e-13 \
                and np.abs(be.DN.sum(axis=0)).max() < 1e-13
    checks.append(("partition of unity", pu))

    # bubble vanishes on the reference boundary
    bv = True
    for kind in (ElementKind.Q4, ElementKind.B8):
        for axis in range(kind.dim):
            for val in (-1.0, 1.0):
                xi = rng.uniform(-1, 1, kind.dim)
                xi[axis] = val
                bv = bv and abs(at_point(kind, xi)[0].b) < 1e-14
    for t in rng.uniform(0, 1, 10):
        bv = bv and abs(at_point(ElementKind.T3, (t, 1 - t))[0].b) < 1e-14
        bv = bv and abs(at_point(ElementKind.T3, (t, 0.0))[0].b) < 1e-14
    checks.append(("bubble boundary vanishing", bv))

    # pointwise stabilization parameter scales with the squared element size
    ratios = []
    for kind in ElementKind:
        coords = REFERENCE_CORNERS[kind]
        xi = np.full(kind.dim, 0.12)
        ratios.append(tau_at("svm", kind, 2.0 * coords, xi)
                      / tau_at("svm", kind, coords, xi))
    tau_ok = all(abs(r - 4.0) <= 1e-9 for r in ratios)
    checks.append(("svm tau h^2 scaling ratio 4.0", tau_ok))

    # pressure stabilization operator (negated continuity pp block) is PSD
    psd = True
    for scheme in ("wvm", "svm", "enriched"):
        mesh = generate_grid(ElementKind.Q4, 4)
        system, _ = assemble(mesh, FormulationConfig(scheme=scheme))
        C = -system.pattern.matrix(system.Kpp).to_dense()
        lam = np.linalg.eigvalsh(0.5 * (C + C.T))
        psd = psd and lam.min() > -1e-10 * max(1.0, lam.max())
    checks.append(("pressure stabilization operator PSD", psd))

    # triplet assembly independent of insertion order, bit for bit
    n, m = 20, 200
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    vals = rng.standard_normal(m)
    A = SparseMatrix.from_triplets(n, n, rows, cols, vals)
    perm = rng.permutation(m)
    B = SparseMatrix.from_triplets(n, n, rows[perm], cols[perm], vals[perm])
    det = (A.vals.tobytes() == B.vals.tobytes()
           and np.array_equal(A.rows, B.rows) and np.array_equal(A.cols, B.cols))
    checks.append(("triplet-order determinism", det))

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name} {'ok' if flag else 'FAILED'}" for name, flag in checks)
    assert _report(10, ok, detail)
