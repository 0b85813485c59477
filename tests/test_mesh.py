"""Mesh generation, validation, file round-trip, and the acute fixture."""

import re
import sys

import numpy as np
import pytest

from conftest import folded_cube
from stokeslab import basis
from stokeslab.analysis import error_norms
from stokeslab.basis import basis_table
from stokeslab.cases import case_by_name
from stokeslab.cli import main
from stokeslab.driver import solve_case
from stokeslab.formulations import FormulationConfig, assemble
from stokeslab.kinds import ElementKind
from stokeslab.mesh import (
    Mesh,
    MeshError,
    generate_grid,
    load_mesh,
    triangle_angles,
    wct_fixture_path,
    write_mesh,
)
from stokeslab.quadrature import rule_for

ALL_KINDS = list(ElementKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unit_box_volume_and_counts(kind):
    mesh = generate_grid(kind, 3)
    assert mesh.element_volumes().sum() == pytest.approx(1.0, rel=1e-12)
    per_cell = {ElementKind.Q4: 1, ElementKind.T3: 2,
                ElementKind.B8: 1, ElementKind.TET4: 6}[kind]
    assert mesh.n_elements == 3 ** kind.dim * per_cell
    assert mesh.n_nodes == 4 ** kind.dim


def test_anisotropic_divisions():
    mesh = generate_grid(ElementKind.Q4, (4, 2))
    assert mesh.n_elements == 8
    assert mesh.element_volumes().sum() == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(mesh.element_volumes(), 1.0 / 8.0, rtol=1e-12)


def test_boundary_tags_partition_box_surface():
    mesh = generate_grid(ElementKind.B8, 2)
    sets = mesh.boundary_sets
    for tag in ("left", "right", "bottom", "top", "front", "back"):
        assert len(sets[tag]) == 9
    assert len(sets["all"]) == 27 - 1  # all nodes except the center


# nodes and elements of the smallest grids, written out: every output byte
# depends on this numbering (x fastest, cells in node order)
GRID_NUMBERING = {
    (ElementKind.Q4, (2, 1)): (
        [[0, 0], [0.5, 0], [1, 0], [0, 1], [0.5, 1], [1, 1]],
        [[0, 1, 4, 3], [1, 2, 5, 4]],
    ),
    (ElementKind.T3, (1, 1)): (
        [[0, 0], [1, 0], [0, 1], [1, 1]],
        [[0, 1, 3], [0, 3, 2]],
    ),
    (ElementKind.B8, (1, 1, 2)): (
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
         [0, 0, 0.5], [1, 0, 0.5], [0, 1, 0.5], [1, 1, 0.5],
         [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
        [[0, 1, 3, 2, 4, 5, 7, 6], [4, 5, 7, 6, 8, 9, 11, 10]],
    ),
    (ElementKind.TET4, (1, 1, 1)): (
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
         [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
        [[0, 1, 3, 7], [0, 3, 2, 7], [0, 2, 6, 7],
         [0, 6, 4, 7], [0, 4, 5, 7], [0, 5, 1, 7]],
    ),
}


@pytest.mark.parametrize("kind, divisions", list(GRID_NUMBERING))
def test_grid_numbering(kind, divisions):
    nodes, elements = GRID_NUMBERING[kind, divisions]
    mesh = generate_grid(kind, divisions)
    assert mesh.nodes.tolist() == nodes
    assert mesh.elements.tolist() == elements


def test_unknown_nodeset_errors_with_tag_name():
    mesh = generate_grid(ElementKind.Q4, 2)
    with pytest.raises(MeshError, match="nope"):
        mesh.nodeset("nope")


def test_tet_split_conforms_and_fills_each_cell():
    mesh = generate_grid(ElementKind.TET4, (2, 1, 1))
    assert mesh.n_elements == 12
    vols = mesh.element_volumes()
    assert np.all(vols > 0)
    assert vols.sum() == pytest.approx(1.0, rel=1e-12)
    # each hexahedral cell is filled exactly by its 6 tets
    assert vols[:6].sum() == pytest.approx(0.5, rel=1e-12)


def test_inverted_element_rejected():
    nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(MeshError, match="inverted"):
        Mesh(nodes=nodes, elements=np.array([[0, 2, 1]]), kind=ElementKind.T3)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_inverted_simplex_named_by_index(kind):
    mesh = generate_grid(kind, 2)
    elements = mesh.elements.copy()
    elements[3, :2] = elements[3, 1::-1]
    with pytest.raises(MeshError, match=r"^element 3 is inverted \(min detJ=-"):
        Mesh(nodes=mesh.nodes, elements=elements, kind=kind)


@pytest.mark.parametrize("kind, node, moved", [(ElementKind.Q4, 3, (0.5, 0.45)),
                                              (ElementKind.B8, 6, (0.6, 0.6, 0.6))])
def test_element_folded_at_a_corner_is_refused(kind, node, moved):
    """detJ is positive at every quadrature point of these elements, but
    negative at one corner node: the corner test, not the points, refuses
    them."""
    mesh = generate_grid(kind, 1)
    nodes = mesh.nodes.copy()
    nodes[mesh.elements[0, node]] = moved
    assert basis.element_geometry(basis_table(kind), nodes[mesh.elements]).detJ.min() > 0
    with pytest.raises(MeshError, match=rf"^element 0 is inverted at node "
                                        rf"{mesh.elements[0, node]} \(corner detJ=-"):
        Mesh(nodes=nodes, elements=mesh.elements, kind=kind)


@pytest.mark.parametrize("draw, point", [(362, "(-0.5, -1.0, -1.0)"),
                                         (883, "(1.0, 1.0, 0.5)"),
                                         (1496, "(1.0, -0.5, 1.0)"),
                                         (1933, "(1.0, -0.5, -1.0)"),
                                         (1937, "(-1.0, 0.5, 1.0)")])
def test_element_folded_between_its_corners_is_refused(draw, point):
    """detJ is positive at the corners and at every quadrature point of
    these elements, but negative on a face (sampled on 17^3 points): the
    control net of detJ, not the corner test, refuses them."""
    nodes = folded_cube(draw)
    assert basis.element_geometry(basis_table(ElementKind.B8), nodes).detJ.min() > 0
    g = np.linspace(-1, 1, 17)
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    DN = basis.tabulate(ElementKind.B8, grid, np.ones(len(grid))).DN
    detJ = np.linalg.det(np.einsum("na,pnb->pab", nodes, DN))
    assert detJ[(np.abs(grid) == 1).all(axis=1)].min() > 0 > detJ.min()
    with pytest.raises(MeshError, match=rf"^element 0 may fold between its nodes: det J is not "
                                        rf"certified positive near reference point "
                                        rf"{re.escape(point)} \(control net -"):
        Mesh(nodes=nodes, elements=np.arange(8)[None], kind=ElementKind.B8)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_geometry_pass_per_mesh(kind, rng, monkeypatch):
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    geometry = counted("element_geometry", basis.element_geometry)
    for name, module in list(sys.modules.items()):
        if name.startswith("stokeslab") and hasattr(module, "element_geometry"):
            monkeypatch.setattr(module, "element_geometry", geometry)
    monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
    # the validity check, assembly, error norms and volumes share one pass,
    # the only place where J and detJ are formed
    mesh = generate_grid(kind, 4 if kind.dim == 2 else 2)
    case = case_by_name("patch_constant", kind.dim)
    assemble(mesh, FormulationConfig(scheme="enriched"))
    error_norms(solve_case(case, mesh, "svm"), case, mesh)
    mesh.element_volumes()
    assert calls == ["element_geometry", "det"]

    # the volumes keep the bytes of detJ evaluated at every point
    nodes = mesh.nodes + rng.uniform(-0.02, 0.02, mesh.nodes.shape)
    mesh = Mesh(nodes=nodes, elements=mesh.elements, kind=kind)
    J = np.einsum("eni,pnm->epim", nodes[mesh.elements], basis_table(kind).DN)
    dets = np.linalg.det(J)
    assert mesh.element_volumes().tobytes() == (dets @ rule_for(kind).weights).tobytes()


def test_repeated_node_index_rejected():
    nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(MeshError, match="repeated"):
        Mesh(nodes=nodes, elements=np.array([[0, 1, 1]]), kind=ElementKind.T3)


def test_out_of_range_node_rejected():
    nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    for bad in (5, -1):
        with pytest.raises(MeshError, match=f"element 0 references node {bad} of 3"):
            Mesh(nodes=nodes, elements=np.array([[0, 1, bad]]), kind=ElementKind.T3)


@pytest.mark.parametrize("nodes, elements, message", [
    ([(0, 0), (1, 0), (0, 1), (1, 1)], [[0, 1, 2]], "node 3 belongs to no element"),
    ([(0, 0), (1, 0), (0, 1)], np.empty((0, 3), dtype=int), "mesh has no elements"),
])
def test_node_outside_every_element_rejected(nodes, elements, message):
    with pytest.raises(MeshError, match=f"^{message}$"):
        Mesh(nodes=np.array(nodes, dtype=float), elements=np.array(elements),
             kind=ElementKind.T3)


def test_zero_divisions_rejected():
    with pytest.raises(MeshError, match="divisions"):
        generate_grid(ElementKind.Q4, (0, 2))


def test_wrong_division_count_rejected():
    with pytest.raises(MeshError, match="^need 2 divisions for Q4$"):
        generate_grid(ElementKind.Q4, (2, 2, 2))


@pytest.mark.parametrize("nodes", [np.zeros((3, 3)), np.zeros(6)], ids=["3-D", "flat"])
def test_nodes_of_the_wrong_shape_rejected(nodes):
    with pytest.raises(MeshError, match=r"^nodes must be \(n_nodes, dim\)$"):
        Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]), kind=ElementKind.T3)


def test_elements_of_the_wrong_arity_rejected():
    nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    with pytest.raises(MeshError, match="^elements must have 3 nodes for T3$"):
        Mesh(nodes=nodes, elements=np.array([[0, 1, 3, 2]]), kind=ElementKind.T3)


# ------------------------------------------------------------------- file I/O

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_write_load_round_trip(tmp_path, kind):
    mesh = generate_grid(kind, 2)
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    back = load_mesh(path)
    assert back.kind is mesh.kind
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.elements, mesh.elements)
    for tag, nset in mesh.boundary_sets.items():
        assert back.boundary_sets[tag] == frozenset(nset)


def _write(tmp_path, text):
    p = tmp_path / "bad.mesh"
    p.write_text(text)
    return p


def test_bad_header_rejected(tmp_path):
    p = _write(tmp_path, "not-a-mesh\n")
    with pytest.raises(MeshError, match="bad header"):
        load_mesh(p)


def test_bad_kind_rejected(tmp_path):
    p = _write(tmp_path, "stokeslab-mesh v1\ndim 2\nkind Z9\n")
    with pytest.raises(MeshError, match="unknown element kind"):
        load_mesh(p)


def test_truncated_nodes_rejected(tmp_path):
    p = _write(tmp_path, "stokeslab-mesh v1\ndim 2\nkind T3\nnodes 3\n0 0\n1 0\n")
    with pytest.raises(MeshError, match="unexpected end"):
        load_mesh(p)


@pytest.mark.parametrize("text, line, message", [
    ("stokeslab-mesh v1\ndim 2\nkind T3\nnodes 1000000000000000\n0 0\n",
     4, "node count 1000000000000000 exceeds the 1 lines left"),
    ("stokeslab-mesh v1\ndim 2\nkind T3\nnodes 3\n0 0\n1 0\n0 1\nelements 5\n0 1 2\n",
     8, "element count 5 exceeds the 1 lines left"),
], ids=["nodes", "elements"])
def test_count_beyond_the_file_is_refused_before_allocation(tmp_path, monkeypatch, capsys,
                                                             text, line, message):
    # the count is checked first, so nothing is allocated for it
    p = _write(tmp_path, text)
    shapes, empty = [], np.empty
    monkeypatch.setattr(np, "empty", lambda shape, *a, **k: shapes.append(shape) or empty(shape, *a, **k))
    with pytest.raises(MeshError, match=f"^{re.escape(str(p))}:{line}: {message} "):
        load_mesh(p)
    count = int(message.split()[2])
    assert all(shape[0] != count for shape in shapes)
    assert main(["mesh-info", "--mesh", str(p)]) == 2
    assert f"{p}:{line}: {message}" in capsys.readouterr().err


def test_wrong_coordinate_count_rejected(tmp_path):
    p = _write(
        tmp_path,
        "stokeslab-mesh v1\ndim 2\nkind T3\nnodes 1\n0 0 0\n",
    )
    with pytest.raises(MeshError, match="needs 2 coordinates"):
        load_mesh(p)


_TRIANGLE = "stokeslab-mesh v1\ndim 2\nkind T3\nnodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1 2\n"


@pytest.mark.parametrize("text, line, count", [
    (_TRIANGLE.replace("nodes 3", "nodes x"), 4, "'x'"),
    (_TRIANGLE.replace("nodes 3", "nodes -1"), 4, "'-1'"),
    (_TRIANGLE.replace("elements 1", "elements 1.5"), 8, "'1.5'"),
    (_TRIANGLE + "nodeset all z\n0\n", 10, "'z'"),
], ids=["nodes-x", "nodes-negative", "elements-float", "nodeset-z"])
def test_bad_count_line_rejected(tmp_path, text, line, count):
    p = _write(tmp_path, text)
    with pytest.raises(MeshError, match=f"bad.mesh:{line}: .* non-negative integer, got {count}"):
        load_mesh(p)


@pytest.mark.parametrize("text, line, message", [
    (_TRIANGLE.replace("dim 2", "dim -1"), 2, "dim must be a non-negative integer, got '-1'"),
    (_TRIANGLE.replace("dim 2", "dim 3"), 3, "dim 3 inconsistent with kind T3"),
    (_TRIANGLE + "nodeset all 2\n0 q\n", 11, "bad node index in nodeset all"),
    # the second block would otherwise replace the first without a word
    (_TRIANGLE + "nodeset all 3\n0 1 2\nnodeset all 1\n0\n", 12, "nodeset all is repeated"),
    # the end of the file has no line, so only the path is named
    ("stokeslab-mesh v1\n", None, "unexpected end of file while reading dim"),
    (_TRIANGLE.replace("dim 2", "dimension 2"), 2,
     "expected 'dim <value>', got 'dimension 2'"),
    (_TRIANGLE.replace("\n1 0\n", "\n1 x\n"), 6, "bad coordinate in node 1"),
    (_TRIANGLE.replace("\n0 1 2\n", "\n0 1\n"), 9, "element 0 needs 3 node indices"),
    (_TRIANGLE.replace("\n0 1 2\n", "\n0 1 z\n"), 9, "bad node index in element 0"),
    (_TRIANGLE + "nodeset all\n", 10,
     "expected 'nodeset <name> <count>', got 'nodeset all'"),
    (_TRIANGLE + "nodeset all 1\n0 1\n", 11, "nodeset all has 2 indices, expected 1"),
], ids=["dim-negative", "dim-kind", "nodeset-index-q", "nodeset-repeated", "eof-after-header",
        "dim-key", "node-coordinate", "element-arity", "element-index", "nodeset-header",
        "nodeset-size"])
def test_bad_line_named_by_path_and_line(tmp_path, capsys, text, line, message):
    p = _write(tmp_path, text)
    where = p if line is None else f"{p}:{line}"
    with pytest.raises(MeshError) as err:
        load_mesh(p)
    assert str(err.value) == f"{where}: {message}"
    assert main(["mesh-info", "--mesh", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {where}: {message}\n"


def test_nodeset_out_of_range_rejected(tmp_path):
    p = _write(
        tmp_path,
        "stokeslab-mesh v1\ndim 2\nkind T3\nnodes 3\n0 0\n1 0\n0 1\n"
        "elements 1\n0 1 2\nnodeset all 1\n7\n",
    )
    with pytest.raises(MeshError, match="references node"):
        load_mesh(p)


@pytest.mark.parametrize("bad", [-1, 9])
def test_directly_built_mesh_checks_its_nodesets(bad):
    """-1 would wrap to the last node, and 9 fail later with an IndexError."""
    mesh = generate_grid(ElementKind.Q4, 2)
    with pytest.raises(MeshError, match=f"^nodeset all references node {bad} of 9$"):
        Mesh(mesh.nodes, mesh.elements, mesh.kind, {"all": frozenset({bad, 0})})


def test_comments_and_blank_lines_ignored(tmp_path):
    p = _write(
        tmp_path,
        "# comment\nstokeslab-mesh v1\n\ndim 2\nkind T3  # inline\n"
        "nodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1 2\n",
    )
    mesh = load_mesh(p)
    assert mesh.n_elements == 1


# ------------------------------------------------------------- acute fixture

def test_acute_fixture_loads_with_strictly_acute_angles():
    mesh = load_mesh(wct_fixture_path())
    assert mesh.kind is ElementKind.T3
    assert mesh.n_elements >= 300
    angles = triangle_angles(mesh)
    assert angles.shape == (mesh.n_elements, 3)
    assert np.degrees(angles.max()) < 90.0
    assert np.allclose(angles.sum(axis=1), np.pi, atol=1e-12)
    assert mesh.element_volumes().sum() == pytest.approx(1.0, rel=1e-12)
    assert "all" in mesh.boundary_sets


def test_angle_audit_rejects_non_triangle_mesh():
    mesh = generate_grid(ElementKind.Q4, 2)
    with pytest.raises(MeshError, match="T3"):
        triangle_angles(mesh)


def test_right_triangle_angles_exact():
    nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    mesh = Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]), kind=ElementKind.T3)
    ang = np.sort(triangle_angles(mesh)[0])
    assert np.allclose(ang, [np.pi / 4, np.pi / 4, np.pi / 2], atol=1e-12)
