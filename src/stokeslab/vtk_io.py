"""Legacy VTK (3.0 ASCII) export of nodal fields, plus CSV helpers.

The writer emits an unstructured grid with POINT_DATA vectors/scalars; the
reader understands exactly the grammar the writer produces and exists so
round-trip tests can validate the files without external tooling.  Floats
are printed with 17 significant digits (FLOAT_FMT) so identical runs give
byte-identical artifacts; the CSV writer takes cells the caller has already
formatted with it.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

FLOAT_FMT = "%.17g"
_XYZ_FMT = " ".join([FLOAT_FMT] * 3)


def _rows(row_fmt, table) -> str:
    """One line per row of a 2-D table, formatted by one % over the repeated
    row format ("" for a table without rows)."""
    return "\n".join([row_fmt] * len(table)) % tuple(table.ravel().tolist())


def write_vtk(path, mesh: Mesh, point_data: dict) -> None:
    """Write mesh + nodal fields.  point_data maps name -> (n_nodes,) scalar
    array or (n_nodes, dim) vector array."""
    n = mesh.n_nodes
    pts3 = np.zeros((n, 3))
    pts3[:, : mesh.dim] = mesh.nodes
    nen = mesh.kind.nodes_per_element
    sections = [
        "# vtk DataFile Version 3.0",
        "stokeslab field output",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n} double",
        _rows(_XYZ_FMT, pts3),
        f"CELLS {mesh.n_elements} {mesh.n_elements * (nen + 1)}",
        _rows(f"{nen}" + " %d" * nen, mesh.elements),
        f"CELL_TYPES {mesh.n_elements}",
        "\n".join([str(mesh.kind.vtk_cell_type)] * mesh.n_elements),
        f"POINT_DATA {n}",
    ]
    for name, data in point_data.items():
        data = np.asarray(data, dtype=float)
        if data.ndim == 2:
            vec3 = np.zeros((n, 3))
            vec3[:, : data.shape[1]] = data
            sections += [f"VECTORS {name} double", _rows(_XYZ_FMT, vec3)]
        else:
            sections += [f"SCALARS {name} double 1", "LOOKUP_TABLE default",
                         _rows(FLOAT_FMT, data[:, None])]
    with open(path, "w") as fh:
        fh.write("\n".join(s for s in sections if s) + "\n")


def read_vtk(path):
    """Parse a file written by write_vtk into (points (n,3), cells (nel, nen),
    cell_type, point_data dict).  Each section is a header line and the rows
    it counts, one per point in a point field; a missing header, a section
    cut short or a count that disagrees with another raises ValueError."""
    with open(path) as fh:
        lines = [line.split() for line in fh]
    if not lines or lines[0][:5] != "# vtk DataFile Version 3.0".split():
        raise ValueError(f"{path}: not a legacy VTK 3.0 file")
    if lines[2:4] != [["ASCII"], ["DATASET", "UNSTRUCTURED_GRID"]]:
        raise ValueError(f"{path}: expected ASCII unstructured grid")
    at = 4  # the line of the next section's header

    def section(name, count=None, skip=0, want=None):
        """Header `name` at line `at` counting `want` (if given), and its rows
        after `skip`; moves `at` on."""
        nonlocal at
        head = lines[at] if at < len(lines) else []
        if head[:1] != [name] or len(head) < 2:
            raise ValueError(f"{path}: {name} section missing")
        if want is not None and int(head[1]) != want:
            raise ValueError(f"{path}: {name} count {head[1]} is not {want}")
        start = at + 1 + skip
        at = start + (int(head[1]) if count is None else count)
        if at > len(lines):
            raise ValueError(f"{path}: {name} section cut short")
        return head, lines[start:at]

    points = np.array([[float(t) for t in row] for row in section("POINTS")[1]])
    head, rows = section("CELLS")
    cells = [[int(t) for t in row] for row in rows]
    for k, row in enumerate(cells):
        if row[:1] != [len(row) - 1]:
            raise ValueError(f"{path}: malformed cell row {k}")
    if head[2:] != [str(sum(map(len, cells)))]:
        raise ValueError(f"{path}: CELLS size is not the count of integers in its rows")
    types = {int(t) for row in section("CELL_TYPES", want=len(cells))[1] for t in row}
    if len(types) != 1:
        raise ValueError(f"{path}: mixed cell types not supported")
    section("POINT_DATA", 0, want=len(points))
    point_data = {}
    while at < len(lines):
        kind = (lines[at] or [""])[0]
        if kind not in ("VECTORS", "SCALARS"):
            raise ValueError(f"{path}: unsupported attribute {kind!r}")
        head, rows = section(kind, len(points), kind == "SCALARS")
        values = np.array([[float(t) for t in row] for row in rows])
        point_data[head[1]] = values[:, 0] if kind == "SCALARS" else values
    return points, np.array([row[1:] for row in cells]), types.pop(), point_data


def write_csv(path, header, rows, comments=()) -> None:
    """Write a small CSV of cells that arrive already formatted as strings."""
    lines = [f"# {c}" for c in comments]
    lines += [",".join(row) for row in [header, *rows]]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
