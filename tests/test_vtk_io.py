"""VTK legacy writer/reader round-trip and deterministic CSV output."""

import numpy as np
import pytest

from stokeslab.kinds import ElementKind
from stokeslab.mesh import generate_grid
from stokeslab.vtk_io import read_vtk, write_csv, write_vtk


@pytest.mark.parametrize("kind", list(ElementKind))
def test_vtk_round_trip(tmp_path, kind):
    mesh = generate_grid(kind, 2)
    rng = np.random.default_rng(5)
    vel = rng.standard_normal((mesh.n_nodes, mesh.dim))
    pres = rng.standard_normal(mesh.n_nodes)
    path = tmp_path / "out.vtk"
    write_vtk(path, mesh, {"velocity": vel, "pressure": pres})
    points, cells, cell_type, data = read_vtk(path)
    assert cell_type == mesh.kind.vtk_cell_type
    assert np.array_equal(cells, mesh.elements)
    assert np.allclose(points[:, : mesh.dim], mesh.nodes)
    assert np.allclose(points[:, mesh.dim:], 0.0)
    assert np.array_equal(data["velocity"][:, : mesh.dim], vel)  # exact floats
    assert np.array_equal(data["pressure"], pres)


def test_vtk_byte_determinism(tmp_path):
    mesh = generate_grid(ElementKind.Q4, 3)
    vel = np.outer(np.sin(np.arange(mesh.n_nodes)), [1.0, -0.5])
    a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_vtk(a, mesh, {"velocity": vel})
    write_vtk(b, mesh, {"velocity": vel})
    assert a.read_bytes() == b.read_bytes()


def test_vtk_reader_rejects_non_vtk(tmp_path):
    p = tmp_path / "x.vtk"
    p.write_text("hello\nworld\n")
    with pytest.raises(ValueError, match="not a legacy VTK"):
        read_vtk(p)


def test_vtk_reader_rejects_binary_header(tmp_path):
    p = tmp_path / "x.vtk"
    p.write_text("# vtk DataFile Version 3.0\nt\nBINARY\nDATASET UNSTRUCTURED_GRID\n")
    with pytest.raises(ValueError, match="ASCII"):
        read_vtk(p)


def test_csv_formatting_and_determinism(tmp_path):
    # cells arrive formatted: write_csv joins them as given
    rows = [("1", "0.10000000000000001", "label"), ("2", "inf", "")]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        write_csv(p, ("n", "value", "name"), rows, comments=("note",))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == "# note\nn,value,name\n1,0.10000000000000001,label\n2,inf,\n"


def _q4_lines(tmp_path):
    """The lines of a Q4 3x3 file with one vector and one scalar field."""
    mesh = generate_grid(ElementKind.Q4, 3)
    path = tmp_path / "q4.vtk"
    write_vtk(path, mesh, {"velocity": np.ones((mesh.n_nodes, 2)),
                           "pressure": np.arange(mesh.n_nodes, dtype=float)})
    return path.read_text().splitlines(keepends=True)


def _refusal(tmp_path, lines):
    path = tmp_path / "x.vtk"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        read_vtk(path)
    return str(info.value).removeprefix(f"{path}: ")


# indices from 0: POINTS on 4 with rows 5-20, CELLS on 21 with rows 22-30,
# CELL_TYPES on 31 with rows 32-40, POINT_DATA on 41, VECTORS on 42 with
# rows 43-58, and SCALARS on 59 with LOOKUP_TABLE on 60 and rows 61-76
@pytest.mark.parametrize("keep, section", [
    (6, "POINTS"), (20, "POINTS"), (30, "CELLS"), (35, "CELL_TYPES"),
    (50, "VECTORS"), (73, "SCALARS")])
def test_vtk_reader_refuses_a_file_cut_short(tmp_path, keep, section):
    assert _refusal(tmp_path, _q4_lines(tmp_path)[:keep]) == f"{section} section cut short"


@pytest.mark.parametrize("drop, section", [
    (4, "POINTS"), (21, "CELLS"), (31, "CELL_TYPES"), (41, "POINT_DATA")])
def test_vtk_reader_refuses_a_missing_section(tmp_path, drop, section):
    lines = _q4_lines(tmp_path)
    assert _refusal(tmp_path, lines[:drop]) == f"{section} section missing"
    del lines[drop]  # the header goes, its rows stay
    assert _refusal(tmp_path, lines) == f"{section} section missing"


def test_vtk_reader_refuses_a_malformed_cell_row(tmp_path):
    lines = _q4_lines(tmp_path)
    lines[24] = "4 1 2 3\n"
    assert _refusal(tmp_path, lines) == "malformed cell row 2"


def test_vtk_reader_refuses_mixed_cell_types(tmp_path):
    lines = _q4_lines(tmp_path)
    lines[33] = "5\n"
    assert _refusal(tmp_path, lines) == "mixed cell types not supported"


@pytest.mark.parametrize("line, name", [("NORMALS n double\n", "NORMALS"), ("\n", "")])
def test_vtk_reader_refuses_an_unsupported_attribute(tmp_path, line, name):
    lines = _q4_lines(tmp_path)
    lines.insert(59, line)
    assert _refusal(tmp_path, lines) == f"unsupported attribute {name!r}"


def test_vtk_reader_refuses_fewer_cell_types_than_cells(tmp_path):
    lines = _q4_lines(tmp_path)
    lines[31] = "CELL_TYPES 8\n"
    del lines[40]  # 8 type rows for the 9 cells
    assert _refusal(tmp_path, lines) == "CELL_TYPES count 8 is not 9"


def test_vtk_reader_refuses_point_data_for_another_point_count(tmp_path):
    lines = _q4_lines(tmp_path)
    lines[41] = "POINT_DATA 15\n"
    assert _refusal(tmp_path, lines) == "POINT_DATA count 15 is not 16"


@pytest.mark.parametrize("header", ["CELLS 9 44\n", "CELLS 9\n"])
def test_vtk_reader_refuses_a_cells_size_that_is_not_its_rows(tmp_path, header):
    lines = _q4_lines(tmp_path)
    assert lines[21] == "CELLS 9 45\n"
    lines[21] = header
    assert _refusal(tmp_path, lines) == "CELLS size is not the count of integers in its rows"
