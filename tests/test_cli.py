"""Command-line interface: verbs, exit codes, deterministic artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stokeslab
from conftest import folded_cube
from stokeslab.cli import main
from stokeslab.kinds import ElementKind
from stokeslab.mesh import Mesh, generate_grid, wct_fixture_path, write_mesh
from stokeslab.vtk_io import read_vtk


def _parse_kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def test_run_patch_writes_artifacts(tmp_path, capsys):
    vtk = tmp_path / "field.vtk"
    csv = tmp_path / "summary.csv"
    code = main([
        "run", "--case", "patch", "--formulation", "svm",
        "--mesh", "grid:Q4:10x10", "--out", str(vtk), "--csv", str(csv),
    ])
    assert code == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert kv["n_elements"] == "100"
    assert float(kv["checkerboard_amplitude"]) < 1e-8
    points, cells, cell_type, data = read_vtk(vtk)
    assert cell_type == 9
    assert np.allclose(data["velocity"][:, 0], 10.0, atol=1e-8)
    assert csv.exists()


def test_run_csv_byte_determinism(tmp_path):
    csvs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["run", "--case", "patch", "--formulation", "wvm",
                     "--mesh", "grid:T3:6x6", "--csv", str(path)]) == 0
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]


def test_run_csv_values_are_the_stdout_values(tmp_path, capsys):
    csv = tmp_path / "summary.csv"
    assert main(["run", "--case", "bodyforce", "--formulation", "wvm",
                 "--mesh", "grid:T3:6x6", "--csv", str(csv)]) == 0
    kv = _parse_kv(capsys.readouterr().out)
    lines = csv.read_text().splitlines()
    assert lines[0] == "quantity,value"
    assert dict(line.split(",") for line in lines[1:]) == kv
    assert kv["n_nodes"] == "49"
    for key in ("solve_residual", "velocity_l2_error", "pressure_h1semi_error"):
        # 17 significant digits: the printed float reads back to itself
        assert "%.17g" % float(kv[key]) == kv[key]


def test_run_cavity_reports_vortex(capsys):
    code = main(["run", "--case", "cavity", "--formulation", "svm",
                 "--mesh", "grid:Q4:10x10"])
    assert code == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert 0.6 < float(kv["vortex_y"]) < 0.9


def test_unknown_formulation_is_usage_error(capsys):
    code = main(["run", "--case", "patch", "--formulation", "nope",
                 "--mesh", "grid:Q4:4x4"])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_unknown_case_is_usage_error():
    assert main(["run", "--case", "nope", "--mesh", "grid:Q4:4x4"]) == 2


def test_bad_mesh_spec_is_usage_error():
    assert main(["run", "--case", "patch", "--formulation", "svm",
                 "--mesh", "grid:Q4:4"]) == 2
    assert main(["run", "--case", "patch", "--formulation", "svm",
                 "--mesh", "grid:Z9:4x4"]) == 2
    assert main(["run", "--case", "patch", "--formulation", "svm",
                 "--mesh", "/no/such/file.mesh"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["run", "--case", "patch", "--mesh", "grid:Q4"],
     "bad mesh spec 'grid:Q4'; want grid:KIND:NxM[xL]"),
    (["run", "--case", "patch", "--mesh", "grid:Q4:4xa"], "bad division list in 'grid:Q4:4xa'"),
    (["convergence", "--element", "q4", "--levels", "8,x"], "bad --levels '8,x'"),
    (["run", "--case", "patch2d", "--mesh", "grid:B8:2x2x2"],
     "case 'patch2d' does not match a 3-D mesh"),
], ids=["grid-parts", "grid-divisions", "levels", "patch2d-on-3d"])
def test_malformed_argument_is_usage_error(argv, message, capsys):
    assert main([*argv, "--formulation", "svm"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_non_finite_mesh_coordinate_is_usage_error(tmp_path, capsys):
    from stokeslab.kinds import ElementKind
    from stokeslab.mesh import generate_grid, write_mesh

    path = tmp_path / "nan.mesh"
    write_mesh(generate_grid(ElementKind.Q4, 2), path)
    lines = path.read_text().splitlines()
    lines[lines.index("nodes 9") + 5] = "nan 0.5"  # node 4, the centre
    path.write_text("\n".join(lines) + "\n")
    code = main(["run", "--case", "patch", "--formulation", "svm",
                 "--mesh", str(path)])
    assert code == 2
    assert "node 4" in capsys.readouterr().err


def test_non_finite_viscosity_is_usage_error(capsys):
    code = main(["run", "--case", "patch", "--formulation", "svm",
                 "--mesh", "grid:Q4:4x4", "--nu", "nan"])
    assert code == 2
    assert "nu" in capsys.readouterr().err


def test_singular_solve_is_numerical_failure(capsys):
    # equal-order Galerkin on a square grid retains a checkerboard mode:
    # the pinned system is singular
    code = main(["run", "--case", "patch", "--formulation", "galerkin",
                 "--mesh", "grid:Q4:6x6"])
    assert code == 1
    assert "singular" in capsys.readouterr().err.lower()


def test_exactly_singular_factor_writes_nothing_to_stdout(tmp_path, capfd):
    # Galerkin on a distorted TET4 grid: SuperLU meets an exactly zero pivot,
    # and its BLAS calls print their errors at the C level before it raises
    from test_equivalence import _grid

    from stokeslab.kinds import ElementKind
    from stokeslab.mesh import write_mesh

    path = tmp_path / "tet4.mesh"
    write_mesh(_grid(ElementKind.TET4, 1), path)
    code = main(["run", "--case", "patch", "--formulation", "galerkin", "--mesh", str(path)])
    out, err = capfd.readouterr()
    assert code == 1
    assert out == ""
    assert "numerical failure: Factor is exactly singular" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case, nu", [("cavity", "1e160"), ("bodyforce", "1e-200"),
                                      ("patch", "1e308"), ("patch", "1e-320")])
def test_overflowing_residual_scale_is_numerical_failure(case, nu, capsys):
    # the residual scale |A|_inf max|x| + max|b| overflows to inf, which
    # refuses the Schur-CG solve; the bodyforce run used to exit 0 with
    # solve_residual = 0 and an infinite velocity error.  At nu = 1e308 and
    # 1e-320 a term of the assembled system overflows, which is refused
    # before any solve
    code = main(["run", "--case", case, "--formulation", "svm",
                 "--mesh", "grid:Q4:4x4", "--nu", nu])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("numerical failure:")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_enriched_condensation_is_numerical_failure(capsys):
    # kff is finite at nu = 1e200, but the condensed s s^T / kff overflows
    code = main(["run", "--case", "patch", "--formulation", "enriched",
                 "--mesh", "grid:T3:4x4", "--nu", "1e200"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "numerical failure: the assembled enriched system is not finite at nu = 1e+200\n"


def test_infinite_residual_tolerance_admits_an_overflowing_residual(capsys):
    assert main(["run", "--case", "cavity", "--formulation", "svm", "--mesh", "grid:Q4:4x4",
                 "--nu", "1e160", "--residual-rtol", "inf"]) == 0
    assert _parse_kv(capsys.readouterr().out)["solve_residual"] == "inf"


def test_patch_at_extreme_viscosity_is_solved_exactly(capsys):
    # the reduced right-hand side of the constant-pressure patch is below the
    # CG's stopping scale, so the CG takes no step and the pressure is p_pin
    assert main(["run", "--case", "patch", "--formulation", "svm", "--mesh", "grid:Q4:4x4",
                 "--nu", "1e160"]) == 0
    out = _parse_kv(capsys.readouterr().out)
    assert out["checkerboard_amplitude"] == "0"
    assert out["pressure_h1semi_error"] == "0"


@pytest.mark.parametrize("option, value", [
    ("--pivot-rtol", "nan"), ("--residual-rtol", "nan"), ("--residual-rtol", "-1"),
])
def test_nan_or_negative_solver_tolerance_is_usage_error(option, value, capsys):
    # with --pivot-rtol nan the singular galerkin system used to pass with a
    # huge checkerboard amplitude
    code = main(["run", "--case", "patch", "--formulation", "galerkin",
                 "--mesh", "grid:Q4:6x6", option, value])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: {option[2:].replace('-', '_')} must be >= 0")


@pytest.mark.parametrize("spec", ["grid:Q4:160x160", str(wct_fixture_path())],
                         ids=["grid", "file"])
@pytest.mark.parametrize("option, value", [
    ("--pivot-rtol", "nan"), ("--pivot-rtol", "-1"), ("--residual-rtol", "nan"),
])
def test_bad_solver_tolerance_is_refused_before_the_mesh(spec, option, value,
                                                         monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("mesh built or loaded before the tolerances were checked")

    monkeypatch.setattr("stokeslab.cli.generate_grid", refuse)
    monkeypatch.setattr("stokeslab.cli.load_mesh", refuse)
    assert main(["run", "--case", "cavity", "--formulation", "svm",
                 "--mesh", spec, option, value]) == 2
    assert f"{option[2:].replace('-', '_')} must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["grid:Q4:200x200", str(wct_fixture_path())],
                         ids=["grid", "file"])
@pytest.mark.parametrize("options, message", [
    (["--nu", "nan"], "nu must be positive and finite, got nan"),
    (["--nu", "-1"], "nu must be positive and finite, got -1.0"),
    (["--bp-epsilon", "nan"], "bp_epsilon must be finite and >= 0, got nan"),
    (["--bp-epsilon", "0.1"], "bp_epsilon applies to galerkin/enriched schemes only"),
    (["--formulation", "nope"], "unknown formulation 'nope'"),
    (["--case", "nope"], "unknown case 'nope'"),
])
def test_bad_formulation_options_are_refused_before_the_mesh(spec, options, message,
                                                             monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("mesh built or loaded before the options were checked")

    monkeypatch.setattr("stokeslab.cli.generate_grid", refuse)
    monkeypatch.setattr("stokeslab.cli.load_mesh", refuse)
    assert main(["run", "--case", "cavity", "--formulation", "svm",
                 "--mesh", spec, *options]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("spec", ["grid:Q4:5x5", "grid:B8:3x3x3"])
def test_cavity_without_centerline_nodes_is_refused_before_the_solve(spec, tmp_path,
                                                                     monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("solved before the centerline was checked")

    monkeypatch.setattr("stokeslab.cli.solve_case", refuse)
    out = tmp_path / "field.vtk"
    assert main(["run", "--case", "cavity", "--formulation", "svm",
                 "--mesh", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: no centerline nodes at x = 0.5\n"
    assert not out.exists()


@pytest.mark.parametrize("node_2, element, message", [
    ("nan 1", "0 1 2 3", "node 2 has a non-finite coordinate [nan, 1.0]"),
    ("1 1", "0 3 2 1", "element 0 is inverted (min detJ=-2.500e-01)"),
], ids=["non-finite", "clockwise"])
def test_mesh_file_validation_error_names_the_file(node_2, element, message, tmp_path,
                                                   capsys):
    path = tmp_path / "square.mesh"
    path.write_text("\n".join(["stokeslab-mesh v1", "dim 2", "kind Q4", "nodes 4",
                               "0 0", "1 0", node_2, "0 1", "elements 1", element]) + "\n")
    assert main(["mesh-info", "--mesh", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("kind, nodes, message", [
    ("Q4", ["0 0", "1 0", "1 1", "0.5 0.45"],
     "element 0 is inverted at node 3 (corner detJ=-1.250e-02)"),
    ("B8", ["0 0 0", "1 0 0", "1 1 0", "0 1 0", "0 0 1", "1 0 1", "0.6 0.6 0.6", "0 1 1"],
     "element 0 is inverted at node 6 (corner detJ=-2.500e-02)"),
    ("B8", [" ".join(f"{c:.17g}" for c in p) for p in folded_cube(362)],
     "element 0 may fold between its nodes: det J is not certified positive near "
     "reference point (-0.5, -1.0, -1.0) (control net -8.108e-03)"),
], ids=["Q4", "B8", "B8-between-corners"])
def test_mesh_file_folded_at_a_corner_is_refused(kind, nodes, message, tmp_path, capsys):
    """Each element has detJ > 0 at every quadrature point (test_mesh.py),
    but detJ < 0 at one corner node, or (the last) on a face between them."""
    path = tmp_path / "folded.mesh"
    path.write_text("\n".join(["stokeslab-mesh v1", f"dim {len(nodes[0].split())}",
                               f"kind {kind}", f"nodes {len(nodes)}", *nodes, "elements 1",
                               " ".join(str(n) for n in range(len(nodes)))]) + "\n")
    assert main(["mesh-info", "--mesh", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_run_refuses_a_mesh_without_the_case_tags_before_the_solve(tmp_path, monkeypatch,
                                                                   capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("solved before the boundary tags were checked")

    monkeypatch.setattr("stokeslab.cli.solve_case", refuse)
    grid = generate_grid(ElementKind.Q4, 4)
    path = tmp_path / "all.mesh"
    write_mesh(Mesh(grid.nodes, grid.elements, grid.kind,
                    {"all": grid.boundary_sets["all"]}), path)
    assert main(["run", "--case", "cavity", "--formulation", "svm", "--mesh", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown boundary tag 'top'; have: all\n"


@pytest.mark.parametrize("argv", [["mesh-info"], ["run", "--case", "patch",
                                                "--formulation", "svm"]],
                         ids=["mesh-info", "run"])
@pytest.mark.parametrize("nodes, elements, message", [
    (["0 0", "1 0", "1 1", "0 1", "2 2"], ["0 1 2 3"], "node 4 belongs to no element"),
    (["0 0", "1 0", "1 1", "0 1"], [], "mesh has no elements"),
], ids=["unreferenced-node", "no-elements"])
def test_mesh_file_with_a_node_outside_every_element_is_refused(argv, nodes, elements,
                                                                message, tmp_path, capsys):
    path = tmp_path / "square.mesh"
    path.write_text("\n".join(["stokeslab-mesh v1", "dim 2", "kind Q4",
                               f"nodes {len(nodes)}", *nodes,
                               f"elements {len(elements)}", *elements,
                               "nodeset all 4", "0 1 2 3"]) + "\n")
    assert main([*argv, "--mesh", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_convergence_emits_levels_and_slope(tmp_path, capsys):
    csv = tmp_path / "conv.csv"
    code = main(["convergence", "--case", "bodyforce", "--formulation", "svm",
                 "--element", "q4", "--levels", "4,6,8", "--csv", str(csv)])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 4
    assert lines[-1].startswith("slope,")
    slope_v = float(lines[-1].split(",")[1])
    assert 1.5 < slope_v < 2.5
    assert csv.read_text().splitlines()[0] == "h,velocity_l2,pressure_h1semi"


def test_convergence_of_an_exact_case_prints_an_exact_slope(capsys):
    # the patch is solved to roundoff on every level, so no rate is fitted
    assert main(["convergence", "--case", "patch", "--formulation", "svm",
                 "--element", "q4", "--levels", "2,4,8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[-1] == "slope,exact,exact"


def test_convergence_needs_three_levels(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("grid built for too few levels")

    monkeypatch.setattr("stokeslab.analysis.generate_grid", refuse)
    assert main(["convergence", "--case", "bodyforce", "--formulation", "svm",
                 "--element", "q4", "--levels", "8"]) == 2
    assert "need >= 3 levels" in capsys.readouterr().err


def test_convergence_level_below_one_is_refused_before_any_grid(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("grid built before the levels were checked")

    monkeypatch.setattr("stokeslab.analysis.generate_grid", refuse)
    assert main(["convergence", "--case", "bodyforce", "--formulation", "svm",
                 "--element", "q4", "--levels", "128,160,0"]) == 2
    assert capsys.readouterr() == ("", "error: level 0 is below 1; a grid needs at least "
                                       "one division\n")


def test_repeated_nodeset_is_refused(tmp_path, capsys):
    path = tmp_path / "square.mesh"
    path.write_text("\n".join(["stokeslab-mesh v1", "dim 2", "kind Q4", "nodes 4",
                               "0 0", "1 0", "1 1", "0 1", "elements 1", "0 1 2 3",
                               "nodeset all 4", "0 1 2 3", "nodeset all 1", "0"]) + "\n")
    assert main(["run", "--case", "patch", "--formulation", "svm", "--mesh", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}:13: nodeset all is repeated\n")


def test_convergence_repeated_levels_are_usage_error(capsys):
    assert main(["convergence", "--case", "bodyforce", "--formulation", "svm",
                 "--element", "q4", "--levels", "8,8,8"]) == 2
    assert "level 8 is repeated" in capsys.readouterr().err


def test_convergence_bad_formulation_options_are_refused_before_the_mesh(monkeypatch,
                                                                          capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("mesh built before the options were checked")

    monkeypatch.setattr("stokeslab.analysis.generate_grid", refuse)
    assert main(["convergence", "--element", "q4", "--formulation", "svm",
                 "--bp-epsilon", "0.1", "--levels", "150,180,200"]) == 2
    assert capsys.readouterr().err == (
        "error: bp_epsilon applies to galerkin/enriched schemes only\n")


def test_eigen_element_suffix_selects_scheme(tmp_path, capsys):
    csv = tmp_path / "eig.csv"
    code = main(["eigen", "--element", "q4-svm", "--n", "5", "--csv", str(csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "# zero_count = 1" in out
    assert "# checkerboard_present = False" in out
    assert csv.read_text().startswith("# zero_count = 1")


def test_eigen_element_without_suffix_is_galerkin(capsys):
    assert main(["eigen", "--element", "q4", "--n", "4"]) == 0
    bare = capsys.readouterr().out
    assert main(["eigen", "--element", "q4-galerkin", "--n", "4"]) == 0
    assert bare == capsys.readouterr().out
    assert "# checkerboard_present = True" in bare


@pytest.mark.parametrize("element, message", [
    ("q4-bogus", "unknown formulation 'bogus'"),
    ("q4-", "unknown formulation ''"),
])
def test_eigen_unknown_scheme_suffix_is_usage_error(element, message, capsys):
    assert main(["eigen", "--element", element, "--n", "4"]) == 2
    assert message in capsys.readouterr().err


def test_eigen_single_element_is_usage_error():
    assert main(["eigen", "--element", "q4-svm", "--n", "1"]) == 2


def test_mesh_info_reports_statistics(capsys):
    code = main(["mesh-info", "--mesh", "grid:B8:2x2x2"])
    assert code == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert kv["kind"] == "B8"
    assert kv["n_elements"] == "8"
    assert float(kv["volume"]) == pytest.approx(1.0)
    assert "top" in kv["nodesets"]


def test_mesh_info_on_shipped_fixture(capsys):
    code = main(["mesh-info", "--mesh", str(wct_fixture_path())])
    assert code == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert kv["kind"] == "T3"
    assert int(kv["n_elements"]) >= 300


@pytest.mark.parametrize("argv, spec", [
    (["run", "--case", "patch", "--formulation", "svm", "--mesh", "grid:B8:33x32x32"],
     "grid:B8:33x32x32"),
    (["run", "--case", "cavity", "--formulation", "svm", "--mesh", "grid:T3:400x400"],
     "grid:T3:400x400"),
    (["convergence", "--case", "bodyforce", "--formulation", "svm", "--element", "q4",
      "--levels", "8,16,400"], "--levels 8,16,400"),
    (["eigen", "--element", "q4-enriched", "--n", "49"], "--n 49"),
])
def test_oversized_grid_is_refused_before_allocation(argv, spec, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("generate_grid called for an oversized grid")

    monkeypatch.setattr("stokeslab.cli.generate_grid", refuse)
    monkeypatch.setattr("stokeslab.analysis.generate_grid", refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert spec in err and "exceed the limit" in err


@pytest.mark.parametrize("argv", [
    ["convergence", "--element", "q4", "--levels", "4,8,16", "--nu", "7"],
    ["eigen", "--element", "q4-svm", "--n", "4", "--nu", "9"],
    ["eigen", "--element", "q4-svm", "--n", "4", "--bp-epsilon", "0.5"],
    ["eigen", "--element", "q4", "--n", "4", "--formulation", "svm"],
])
def test_options_a_verb_ignores_are_refused(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_mesh_file_above_the_dof_limit_is_refused(monkeypatch, capsys):
    path = str(wct_fixture_path())  # 281 nodes, 843 dofs, "nodes 281" on line 4
    monkeypatch.setattr("stokeslab.mesh.MAX_DOFS", 843)
    assert main(["mesh-info", "--mesh", path]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("Mesh built for an oversized mesh file")

    monkeypatch.setattr("stokeslab.mesh.Mesh", refuse)
    monkeypatch.setattr("stokeslab.mesh.MAX_DOFS", 842)
    assert main(["mesh-info", "--mesh", path]) == 2
    assert f"{path}:4: 843 dofs exceed the limit of 842" in capsys.readouterr().err


def test_size_limits_admit_the_largest_measured_runs():
    from stokeslab.cli import MAX_DENSE_DOFS, MAX_DOFS, UsageError, _check_size
    from stokeslab.kinds import ElementKind

    _check_size("b8", ElementKind.B8, (32, 32, 32), MAX_DOFS)
    _check_size("q4", ElementKind.Q4, (48, 48), MAX_DENSE_DOFS)
    with pytest.raises(UsageError, match="143,748"):
        _check_size("b8", ElementKind.B8, (33, 32, 32), MAX_DOFS)
    with pytest.raises(UsageError, match="7,203"):
        _check_size("q4", ElementKind.Q4, (49, 48), MAX_DENSE_DOFS)


_SCIPY_PROBE = """
import json, sys
import stokeslab.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded, solvers = {"import": scipy_modules()}, []
for verb, argv in [("eigen", ["eigen", "--element", "q4-enriched", "--n", "4"]),
                   ("mesh-info", ["mesh-info", "--mesh", "grid:B8:3x3x3"])]:
    assert cli.main(argv) == 0
    loaded[verb] = scipy_modules()
solve_case = cli.solve_case
cli.solve_case = lambda *a, **k: solvers.append(solve_case(*a, **k)) or solvers[-1]
assert cli.main(["run", "--case", "cavity", "--formulation", "svm",
                 "--mesh", "grid:Q4:4x4"]) == 0
loaded["run"] = scipy_modules()
print(json.dumps({"loaded": loaded, "solver": solvers[0].solver}))
"""


def test_importing_the_package_loads_none_of_its_modules():
    env = dict(os.environ, PYTHONPATH=str(Path(stokeslab.__file__).parents[1]))
    probe = "import sys, stokeslab; print([m for m in sys.modules if m.startswith('stokeslab.')])"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_eigen_and_mesh_info_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(stokeslab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    loaded = result["loaded"]
    assert loaded["import"] == loaded["eigen"] == loaded["mesh-info"] == []
    assert "scipy.sparse.linalg" in loaded["run"]  # the first solve imports it
    assert result["solver"] == "schur-cg"


@pytest.mark.parametrize("argv, code", [
    (["mesh-info", "--mesh", "grid:Q4:2x2"], 0),
    (["run", "--case", "cavity", "--formulation", "svm", "--mesh", "grid:Q4:4x4",
      "--pivot-rtol", "nan"], 2),
], ids=["mesh-info", "nan-pivot-rtol"])
def test_the_module_entry_point_exits_with_mains_code(argv, code):
    # `python -m stokeslab.cli`, which scripts/golden.py runs, hands main's
    # return value to sys.exit
    env = dict(os.environ, PYTHONPATH=str(Path(stokeslab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "stokeslab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == "error: pivot_rtol must be >= 0, got nan\n"
    else:
        assert proc.stdout
