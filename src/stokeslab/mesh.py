"""Structured mesh generation, mesh file I/O, and boundary tagging."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from .basis import SingularJacobianError, basis_table, detJ_net, element_geometry
from .kinds import ElementKind, kind_from_name
from .linalg import TripletPattern

# Dof limit at the largest run measured (2-vCPU machine): the B8 32x32x32 svm
# patch, 143,748 dofs at 1.48 GB peak RSS.
MAX_DOFS = 143_748

# Boundary tags of a box: the low and the high side of each axis.
_AXIS_TAGS = (("left", "right"), ("bottom", "top"), ("front", "back"))

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

    boundary_sets maps tag names to node-index sets.
    """

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
        for name, idx in self.boundary_sets.items():
            bad = sorted(i for i in idx if not 0 <= i < n)
            if bad:
                raise MeshError(f"nodeset {name} references node {bad[0]} of {n}")
        if not self.n_elements:
            raise MeshError("mesh has no elements")
        used = np.zeros(n, dtype=bool)
        used[self.elements] = True
        if not used.all():
            raise MeshError(f"node {int(np.argmin(used))} belongs to no element")
        try:
            self.geometry
        except SingularJacobianError as exc:
            raise MeshError(str(exc)) from None
        if not self.kind.is_simplex:  # detJ > 0 at the points, but certified between them?
            detJ = self.geometry.detJ
            net, corners = detJ_net(self.kind, detJ)
            bad = net <= 0
            if bad[:, corners].any():
                e, a = np.argwhere(bad[:, corners])[0]
                raise MeshError(f"element {e} is inverted at node {self.elements[e, a]} "
                                f"(corner detJ={net[e, corners[a]] * detJ[e].max():.3e})")
            if bad.any():
                e = int(np.argmax(bad.any(axis=1)))
                k = int(np.argmin(net[e]))
                point = tuple((np.array(np.unravel_index(k, (5,) * self.dim)) / 2 - 1).tolist())
                raise MeshError(f"element {e} may fold between its nodes: det J is not certified "
                                f"positive near reference point {point} "
                                f"(control net {net[e, k] * detJ[e].max():.3e})")

    @cached_property
    def geometry(self):
        """Element geometry at the quadrature points of every element,
        evaluated once, by the validity check."""
        return element_geometry(basis_table(self.kind), self.nodes[self.elements])

    @cached_property
    def node_pattern(self) -> TripletPattern:
        """The (node, node) pairs of every element, in element-matrix order,
        as the pattern on which element blocks are summed."""
        nen = self.elements.shape[1]
        return TripletPattern.build(self.n_nodes, self.n_nodes,
                                    np.repeat(self.elements, nen, axis=1).ravel(),
                                    np.tile(self.elements, nen).ravel())

    @cached_property
    def pressure_mass(self) -> np.ndarray:
        """The nodal mass int(N_a N_b), summed once on node_pattern (nnz,)."""
        N = basis_table(self.kind).N
        return self.node_pattern.sum(np.einsum("ep,pa,pb->eab", self.geometry.wdet, N, N).ravel())

    @property
    def dim(self) -> int:
        return self.kind.dim

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
        return self.geometry.detJ @ basis_table(self.kind).weights


def _face_tag_sets(nodes, tol=1e-12):
    sets = {}
    for axis, tags in enumerate(_AXIS_TAGS[:nodes.shape[1]]):
        for tag, value in zip(tags, (0.0, 1.0)):
            mask = np.abs(nodes[:, axis] - value) <= tol
            sets[tag] = frozenset(np.nonzero(mask)[0].tolist())
    sets["all"] = frozenset().union(*sets.values())
    return sets


def generate_grid(kind: ElementKind, divisions) -> Mesh:
    """Generate a structured grid on the unit box.

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

    axes = [np.linspace(0.0, 1.0, d + 1) for d in divisions]
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

    return Mesh(nodes, elements, kind, _face_tag_sets(nodes))


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

    def count(ln, text, what, one_per_line=False):
        """A count; one that needs a line per item is checked against the
        lines left before anything is allocated for it."""
        try:
            n = int(text)
        except ValueError:
            n = -1
        if n < 0:
            raise MeshError(f"{path}:{ln}: {what} must be a non-negative integer, got {text!r}")
        if one_per_line and n > len(tokens) - pos:
            raise MeshError(f"{path}:{ln}: {what} {n} exceeds the {len(tokens) - pos} "
                            "lines left (unexpected end of file)")
        return n

    dim = count(*expect_kv("dim", "dim"), "dim")
    ln, kval = expect_kv("kind", "kind")
    try:
        kind = kind_from_name(kval)
    except ValueError as exc:
        raise MeshError(f"{path}:{ln}: {exc}") from None
    if dim != kind.dim:
        raise MeshError(f"{path}:{ln}: dim {dim} inconsistent with kind {kind.value}")

    ln, nval = expect_kv("nodes", "node count")
    n_nodes = count(ln, nval, "node count", one_per_line=True)
    dofs = n_nodes * (dim + 1)
    if dofs > MAX_DOFS:
        raise MeshError(f"{path}:{ln}: {dofs:,} dofs exceed the limit of {MAX_DOFS:,}")
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
    n_elems = count(ln, mval, "element count", one_per_line=True)
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
        if name in boundary_sets:
            raise MeshError(f"{path}:{ln}: nodeset {name} is repeated")
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
        boundary_sets[name] = frozenset(idx)

    try:
        return Mesh(nodes, elements, kind, boundary_sets)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None


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
