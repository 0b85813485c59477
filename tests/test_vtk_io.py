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
