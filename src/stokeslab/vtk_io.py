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
    """Parse a file written by write_vtk.

    Returns (points (n,3), cells (nel, nen), cell_type, point_data dict).
    """
    with open(path) as fh:
        tokens_by_line = [line.split() for line in fh]
    lines = tokens_by_line
    if not lines or lines[0][:5] != "# vtk DataFile Version 3.0".split():
        raise ValueError(f"{path}: not a legacy VTK 3.0 file")
    if lines[2] != ["ASCII"] or lines[3] != ["DATASET", "UNSTRUCTURED_GRID"]:
        raise ValueError(f"{path}: expected ASCII unstructured grid")
    i = 4
    if lines[i][0] != "POINTS":
        raise ValueError(f"{path}: POINTS section missing")
    n = int(lines[i][1])
    i += 1
    points = np.array([[float(t) for t in lines[i + k]] for k in range(n)])
    i += n
    if lines[i][0] != "CELLS":
        raise ValueError(f"{path}: CELLS section missing")
    nel = int(lines[i][1])
    i += 1
    cells = []
    for k in range(nel):
        row = [int(t) for t in lines[i + k]]
        if len(row) != row[0] + 1:
            raise ValueError(f"{path}: malformed cell row {k}")
        cells.append(row[1:])
    i += nel
    if lines[i][0] != "CELL_TYPES":
        raise ValueError(f"{path}: CELL_TYPES section missing")
    i += 1
    types = {int(lines[i + k][0]) for k in range(nel)}
    if len(types) != 1:
        raise ValueError(f"{path}: mixed cell types not supported")
    i += nel
    if lines[i][0] != "POINT_DATA":
        raise ValueError(f"{path}: POINT_DATA section missing")
    i += 1
    point_data = {}
    while i < len(lines):
        head = lines[i]
        if not head:
            i += 1
            continue
        if head[0] == "VECTORS":
            vals = np.array(
                [[float(t) for t in lines[i + 1 + k]] for k in range(n)]
            )
            point_data[head[1]] = vals
            i += 1 + n
        elif head[0] == "SCALARS":
            vals = np.array([float(lines[i + 2 + k][0]) for k in range(n)])
            point_data[head[1]] = vals
            i += 2 + n
        else:
            raise ValueError(f"{path}: unsupported attribute {head[0]!r}")
    return points, np.array(cells), types.pop(), point_data


def write_csv(path, header, rows, comments=()) -> None:
    """Write a small CSV of cells that arrive already formatted as strings."""
    lines = [f"# {c}" for c in comments]
    lines += [",".join(row) for row in [header, *rows]]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
