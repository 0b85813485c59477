"""Structured mesh generation, mesh file I/O, and boundary tagging."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from .basis import basis_table, element_geometry
from .kinds import ElementKind, kind_from_name
from .linalg import TripletPattern
from .quadrature import rule_for

# Boundary tags of a box: the low and the high side of each axis.
_AXIS_TAGS = (("left", "right"), ("bottom", "top"), ("front", "back"))

# Local facets (edges in 2-D, faces in 3-D), corner indices per kind.
LOCAL_FACETS = {
    ElementKind.T3: [(0, 1), (1, 2), (2, 0)],
    ElementKind.Q4: [(0, 1), (1, 2), (2, 3), (3, 0)],
    ElementKind.TET4: [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)],
    ElementKind.B8: [
        (0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
        (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
    ],
}

# Simplices of a grid cell, by cell corner (VTK order), each positively
# oriented.  The hexahedron uses the Kuhn 6-tet split: every tet contains the
# 0-6 main diagonal so shared faces between translated cells conform.
_SIMPLEX_SPLIT = {
    ElementKind.T3: [(0, 1, 2), (0, 2, 3)],
    ElementKind.TET4: [
        (0, 1, 2, 6), (0, 2, 3, 6), (0, 3, 7, 6),
        (0, 7, 4, 6), (0, 4, 5, 6), (0, 5, 1, 6),
    ],
}


class MeshError(ValueError):
    """Raised for malformed mesh definitions or files."""


@dataclass(frozen=True)
class Mesh:
    """Immutable finite element mesh.

    boundary_sets maps tag names to node-index sets; boundary_faces, derived
    from them and the element topology, maps the same tags to facets for
    traction application.
    """

    dim: int
    nodes: np.ndarray       # (n_nodes, dim)
    elements: np.ndarray    # (n_elements, nodes_per_element)
    kind: ElementKind
    boundary_sets: dict = field(default_factory=dict)

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        elements = np.ascontiguousarray(np.asarray(self.elements, dtype=np.intp))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        nodes.setflags(write=False)
        elements.setflags(write=False)
        self._validate()

    def _validate(self):
        if self.dim != self.kind.dim:
            raise MeshError(f"dim {self.dim} inconsistent with kind {self.kind.value}")
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.dim:
            raise MeshError("nodes must be (n_nodes, dim)")
        finite = np.isfinite(self.nodes).all(axis=1)
        if not finite.all():
            n = int(np.argmin(finite))
            raise MeshError(f"node {n} has a non-finite coordinate {self.nodes[n].tolist()}")
        nen = self.kind.nodes_per_element
        if self.elements.ndim != 2 or self.elements.shape[1] != nen:
            raise MeshError(f"elements must have {nen} nodes for {self.kind.value}")
        n = self.n_nodes
        outside = (self.elements < 0) | (self.elements >= n)
        conn = np.sort(self.elements, axis=1)
        repeated = (conn[:, 1:] == conn[:, :-1]).any(axis=1)
        bad = outside.any(axis=1) | repeated
        if bad.any():
            e = int(np.argmax(bad))
            if not outside[e].any():
                raise MeshError(f"element {e} has repeated node indices")
            node = self.elements[e][outside[e]][0]
            raise MeshError(f"element {e} references node {node} of {n}")
        dets = self._jacobian_dets()
        bad = ~(dets > 0)  # also catches NaN
        if np.any(bad):
            e = int(np.nonzero(np.any(bad, axis=1))[0][0])
            raise MeshError(
                f"element {e} is inverted (min detJ={dets[e].min():.3e})"
            )

    def _jacobian_dets(self) -> np.ndarray:
        """detJ of every element at each of its quadrature points."""
        all_DN = basis_table(self.kind, rule_for(self.kind)).DN
        DN = all_DN[:1] if self.kind.is_simplex else all_DN  # J is constant on a simplex
        J = np.einsum("eni,pnm->epim", self.nodes[self.elements], DN)
        return np.repeat(np.linalg.det(J), len(all_DN) // len(DN), axis=1)

    @cached_property
    def geometry(self):
        """Element geometry at the quadrature points of every element."""
        return element_geometry(basis_table(self.kind, rule_for(self.kind)),
                                self.nodes[self.elements])

    @cached_property
    def node_pattern(self) -> TripletPattern:
        """The (node, node) pairs of every element, in element-matrix order,
        as the pattern on which element blocks are summed."""
        nen = self.elements.shape[1]
        return TripletPattern.build(self.n_nodes, self.n_nodes,
                                    np.repeat(self.elements, nen, axis=1).ravel(),
                                    np.tile(self.elements, nen).ravel())

    @cached_property
    def boundary_faces(self) -> dict:
        """Boundary facets of each tag of boundary_sets, as (n, 2) rows of
        (element, local facet) in element order.

        A facet is on the boundary when exactly one element has it; a tag
        keeps the boundary facets whose nodes are all in its set.
        """
        local = np.array(LOCAL_FACETS[self.kind])
        facets = self.elements[:, local].reshape(-1, local.shape[1])
        _, which, count = np.unique(np.sort(facets, axis=1), axis=0,
                                    return_inverse=True, return_counts=True)
        boundary = np.nonzero(count[which.reshape(-1)] == 1)[0]
        pairs = np.stack(np.divmod(boundary, len(local)), axis=1)
        facets = facets[boundary]
        faces = {}
        for tag, nset in self.boundary_sets.items():
            inside = np.zeros(self.n_nodes, dtype=bool)
            inside[np.fromiter(nset, dtype=np.intp, count=len(nset))] = True
            faces[tag] = pairs[inside[facets].all(axis=1)]
            faces[tag].setflags(write=False)
        return faces

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def nodeset(self, tag: str) -> frozenset:
        try:
            return self.boundary_sets[tag]
        except KeyError:
            valid = ", ".join(sorted(self.boundary_sets))
            raise MeshError(f"unknown boundary tag {tag!r}; have: {valid}") from None

    def element_volumes(self) -> np.ndarray:
        return self._jacobian_dets() @ rule_for(self.kind).weights


def _box_extent(extent, dim):
    if extent is None:
        return np.zeros(dim), np.ones(dim)
    lo, hi = np.asarray(extent[0], dtype=float), np.asarray(extent[1], dtype=float)
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise MeshError(f"extent must give {dim} coordinates per corner")
    if np.any(hi - lo <= 0):
        raise MeshError("degenerate extent: all side lengths must be positive")
    return lo, hi


def _face_tag_sets(nodes, lo, hi, tol=1e-12):
    span = hi - lo
    sets = {}
    for axis, tags in enumerate(_AXIS_TAGS[:nodes.shape[1]]):
        for tag, value in zip(tags, (lo[axis], hi[axis])):
            mask = np.abs(nodes[:, axis] - value) <= tol * max(span[axis], 1.0)
            sets[tag] = frozenset(np.nonzero(mask)[0].tolist())
    sets["all"] = frozenset().union(*sets.values())
    return sets


def generate_grid(kind: ElementKind, divisions, extent=None) -> Mesh:
    """Generate a structured grid on an axis-aligned box.

    divisions is an int (uniform) or a per-axis tuple.  Nodes are numbered
    with x fastest, and so are the cells.  T3/TET4 meshes are produced by
    splitting each quad into 2 triangles / each hex into 6 tetrahedra (Kuhn
    split, conforming across cells).
    """
    dim = kind.dim
    if np.isscalar(divisions):
        divisions = (int(divisions),) * dim
    divisions = tuple(int(d) for d in divisions)
    if len(divisions) != dim:
        raise MeshError(f"need {dim} divisions for {kind.value}")
    if any(d < 1 for d in divisions):
        raise MeshError(f"divisions must be >= 1, got {divisions}")
    lo, hi = _box_extent(extent, dim)

    axes = [np.linspace(lo[a], hi[a], divisions[a] + 1) for a in range(dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel(order="F") for g in grids], axis=-1)

    # corners of the unit cell in VTK order, and each corner's id offset
    corners = np.array([square + lift for lift in product((0, 1), repeat=dim - 2)
                        for square in ((0, 0), (1, 0), (1, 1), (0, 1))])
    shape = tuple(d + 1 for d in divisions)
    ids = np.arange(nodes.shape[0]).reshape(shape, order="F")
    first = ids[tuple(slice(d) for d in divisions)].ravel(order="F")
    cells = first[:, None] + corners @ np.cumprod((1,) + shape[:-1])
    if kind.is_simplex:
        elements = cells[:, _SIMPLEX_SPLIT[kind]].reshape(-1, dim + 1)
    else:
        elements = cells

    return Mesh(dim=dim, nodes=nodes, elements=elements, kind=kind,
                boundary_sets=_face_tag_sets(nodes, lo, hi))


def load_mesh(path) -> Mesh:
    """Load a mesh from the line-oriented `stokeslab-mesh v1` text format."""
    path = Path(path)
    lines = path.read_text().splitlines()
    tokens = []
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            tokens.append((ln, stripped))
    pos = 0

    def next_line(what):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshError(f"{path}: unexpected end of file while reading {what}")
        ln, text = tokens[pos]
        pos += 1
        return ln, text

    ln, header = next_line("header")
    if header != "stokeslab-mesh v1":
        raise MeshError(f"{path}:{ln}: bad header {header!r}")

    def expect_kv(key, what):
        ln, text = next_line(what)
        parts = text.split()
        if len(parts) != 2 or parts[0] != key:
            raise MeshError(f"{path}:{ln}: expected '{key} <value>', got {text!r}")
        return ln, parts[1]

    def count(ln, text, what):
        try:
            n = int(text)
        except ValueError:
            n = -1
        if n < 0:
            raise MeshError(f"{path}:{ln}: {what} must be a non-negative integer, got {text!r}")
        return n

    dim = count(*expect_kv("dim", "dim"), "dim")
    ln, kval = expect_kv("kind", "kind")
    try:
        kind = kind_from_name(kval)
    except ValueError as exc:
        raise MeshError(f"{path}:{ln}: {exc}") from None

    ln, nval = expect_kv("nodes", "node count")
    n_nodes = count(ln, nval, "node count")
    nodes = np.empty((n_nodes, dim))
    for i in range(n_nodes):
        ln, text = next_line(f"node {i}")
        parts = text.split()
        if len(parts) != dim:
            raise MeshError(f"{path}:{ln}: node {i} needs {dim} coordinates")
        try:
            nodes[i] = [float(p) for p in parts]
        except ValueError:
            raise MeshError(f"{path}:{ln}: bad coordinate in node {i}") from None

    ln, mval = expect_kv("elements", "element count")
    n_elems = count(ln, mval, "element count")
    nen = kind.nodes_per_element
    elements = np.empty((n_elems, nen), dtype=np.intp)
    for e in range(n_elems):
        ln, text = next_line(f"element {e}")
        parts = text.split()
        if len(parts) != nen:
            raise MeshError(f"{path}:{ln}: element {e} needs {nen} node indices")
        try:
            elements[e] = [int(p) for p in parts]
        except ValueError:
            raise MeshError(f"{path}:{ln}: bad node index in element {e}") from None

    boundary_sets = {}
    while pos < len(tokens):
        ln, text = next_line("nodeset")
        parts = text.split()
        if len(parts) != 3 or parts[0] != "nodeset":
            raise MeshError(f"{path}:{ln}: expected 'nodeset <name> <count>', got {text!r}")
        name = parts[1]
        size = count(ln, parts[2], f"nodeset {name} count")
        idx = []
        while len(idx) < size:
            ln, text = next_line(f"nodeset {name}")
            try:
                idx.extend(int(p) for p in text.split())
            except ValueError:
                raise MeshError(f"{path}:{ln}: bad node index in nodeset {name}") from None
        if len(idx) != size:
            raise MeshError(f"{path}:{ln}: nodeset {name} has {len(idx)} indices, expected {size}")
        bad = [i for i in idx if i < 0 or i >= n_nodes]
        if bad:
            raise MeshError(f"{path}:{ln}: nodeset {name} references node {bad[0]} of {n_nodes}")
        boundary_sets[name] = frozenset(idx)

    return Mesh(dim=dim, nodes=nodes, elements=elements, kind=kind,
                boundary_sets=boundary_sets)


def write_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the `stokeslab-mesh v1` text format."""
    out = ["stokeslab-mesh v1", f"dim {mesh.dim}", f"kind {mesh.kind.value}"]
    out.append(f"nodes {mesh.n_nodes}")
    for p in mesh.nodes:
        out.append(" ".join(f"{c:.17g}" for c in p))
    out.append(f"elements {mesh.n_elements}")
    for conn in mesh.elements:
        out.append(" ".join(str(int(i)) for i in conn))
    for name in sorted(mesh.boundary_sets):
        idx = sorted(mesh.boundary_sets[name])
        out.append(f"nodeset {name} {len(idx)}")
        for start in range(0, len(idx), 16):
            out.append(" ".join(str(i) for i in idx[start:start + 16]))
    Path(path).write_text("\n".join(out) + "\n")


def triangle_angles(mesh: Mesh) -> np.ndarray:
    """Interior angles (radians) of every triangle, shape (n_elements, 3)."""
    if mesh.kind is not ElementKind.T3:
        raise MeshError("angle audit applies to T3 meshes only")
    p = mesh.nodes[mesh.elements][:, :, None, :]  # vertex v is the row p[:, v]
    a = np.roll(p, -1, axis=1) - p
    b = np.roll(p, -2, axis=1) - p
    # matmul, not einsum: a (1, 2) @ (2, 1) product rounds like the dot a @ b
    ab, aa, bb = ((x @ y.swapaxes(-1, -2))[..., 0, 0] for x, y in ((a, b), (a, a), (b, b)))
    cosang = ab / (np.sqrt(aa) * np.sqrt(bb))
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def wct_fixture_path() -> Path:
    """Path of the shipped well-centered (acute) triangulation of the unit square."""
    return Path(resources.files("stokeslab").joinpath("data/wct_square.mesh"))
