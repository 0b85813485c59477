"""Structured mesh generation, mesh file I/O, and boundary tagging."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .basis import basis_table
from .kinds import ElementKind, kind_from_name
from .quadrature import rule_for

_FACE_TAGS_2D = ("left", "right", "bottom", "top")
_FACE_TAGS_3D = ("left", "right", "bottom", "top", "front", "back")

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

# Kuhn 6-tet split of a hexahedron (VTK corner order); every tet contains
# the 0-6 main diagonal so shared faces between translated cells conform.
_KUHN_TETS = [
    (0, 1, 2, 6), (0, 2, 3, 6), (0, 3, 7, 6),
    (0, 7, 4, 6), (0, 4, 5, 6), (0, 5, 1, 6),
]


class MeshError(ValueError):
    """Raised for malformed mesh definitions or files."""


@dataclass(frozen=True)
class Mesh:
    """Immutable finite element mesh.

    boundary_sets maps tag names to node-index sets; boundary_faces maps tag
    names to (element, local-facet) pairs for traction application.
    """

    dim: int
    nodes: np.ndarray       # (n_nodes, dim)
    elements: np.ndarray    # (n_elements, nodes_per_element)
    kind: ElementKind
    boundary_sets: dict = field(default_factory=dict)
    boundary_faces: dict = field(default_factory=dict)

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
        for e, conn in enumerate(self.elements):
            if conn.min() < 0 or conn.max() >= n:
                raise MeshError(
                    f"element {e} references node {conn.max()} of {n}"
                )
            if len(set(conn.tolist())) != nen:
                raise MeshError(f"element {e} has repeated node indices")
        rule = rule_for(self.kind)
        table = basis_table(self.kind, rule)
        coords = self.nodes[self.elements]  # (nel, nen, dim)
        J = np.einsum("eni,pnm->epim", coords, table.DN)
        dets = np.linalg.det(J)
        bad = ~(dets > 0)  # also catches NaN
        if np.any(bad):
            e = int(np.nonzero(np.any(bad, axis=1))[0][0])
            raise MeshError(
                f"element {e} is inverted (min detJ={dets[e].min():.3e})"
            )

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
        rule = rule_for(self.kind)
        table = basis_table(self.kind, rule)
        coords = self.nodes[self.elements]
        J = np.einsum("eni,pnm->epim", coords, table.DN)
        return np.linalg.det(J) @ rule.weights


def _box_extent(extent, dim):
    if extent is None:
        return np.zeros(dim), np.ones(dim)
    lo, hi = np.asarray(extent[0], dtype=float), np.asarray(extent[1], dtype=float)
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise MeshError(f"extent must give {dim} coordinates per corner")
    if np.any(hi - lo <= 0):
        raise MeshError("degenerate extent: all side lengths must be positive")
    return lo, hi


def _face_tag_sets(nodes, lo, hi, dim, tol=1e-12):
    span = hi - lo
    planes = {
        "left": (0, lo[0]), "right": (0, hi[0]),
        "bottom": (1, lo[1]), "top": (1, hi[1]),
    }
    if dim == 3:
        planes.update({"front": (2, lo[2]), "back": (2, hi[2])})
    sets = {}
    for tag, (axis, value) in planes.items():
        mask = np.abs(nodes[:, axis] - value) <= tol * max(span[axis], 1.0)
        sets[tag] = frozenset(np.nonzero(mask)[0].tolist())
    sets["all"] = frozenset().union(*sets.values())
    return sets


def _face_pair_sets(mesh_nodes, elements, kind, tag_sets):
    facets = LOCAL_FACETS[kind]
    out = {tag: [] for tag in tag_sets if tag != "all"}
    for e, conn in enumerate(elements):
        for lf, facet in enumerate(facets):
            fnodes = set(int(conn[i]) for i in facet)
            for tag, nset in tag_sets.items():
                if tag != "all" and fnodes <= nset:
                    out[tag].append((e, lf))
    return {tag: tuple(pairs) for tag, pairs in out.items()}


def generate_grid(kind: ElementKind, divisions, extent=None) -> Mesh:
    """Generate a structured grid on an axis-aligned box.

    divisions is an int (uniform) or a per-axis tuple.  T3/TET4 meshes are
    produced by splitting each quad into 2 triangles / each hex into 6
    tetrahedra (Kuhn split, conforming across cells).
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
    shape = tuple(d + 1 for d in divisions)

    if dim == 2:
        nx, ny = divisions
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        nodes = np.stack([X.ravel(order="F"), Y.ravel(order="F")], axis=-1)

        def nid(i, j):
            return j * (nx + 1) + i

        quads = []
        for j in range(ny):
            for i in range(nx):
                quads.append((nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)))
        if kind is ElementKind.Q4:
            elements = np.array(quads)
        else:
            elements = np.array(
                [t for a, b, c, d in quads for t in ((a, b, c), (a, c, d))]
            )
    else:
        nx, ny, nz = divisions
        X, Y, Z = np.meshgrid(axes[0], axes[1], axes[2], indexing="ij")
        nodes = np.stack(
            [X.ravel(order="F"), Y.ravel(order="F"), Z.ravel(order="F")], axis=-1
        )

        def nid(i, j, k):
            return (k * (ny + 1) + j) * (nx + 1) + i

        hexes = []
        for k in range(nz):
            for j in range(ny):
                for i in range(nx):
                    hexes.append((
                        nid(i, j, k), nid(i + 1, j, k),
                        nid(i + 1, j + 1, k), nid(i, j + 1, k),
                        nid(i, j, k + 1), nid(i + 1, j, k + 1),
                        nid(i + 1, j + 1, k + 1), nid(i, j + 1, k + 1),
                    ))
        if kind is ElementKind.B8:
            elements = np.array(hexes)
        else:
            tets = []
            for h in hexes:
                for t in _KUHN_TETS:
                    conn = [h[i] for i in t]
                    # enforce positive orientation
                    p = nodes[conn]
                    if np.linalg.det(p[1:] - p[0]) < 0:
                        conn[1], conn[2] = conn[2], conn[1]
                    tets.append(tuple(conn))
            elements = np.array(tets)

    tag_sets = _face_tag_sets(nodes, lo, hi, dim)
    faces = _face_pair_sets(nodes, elements, kind, tag_sets)
    return Mesh(dim=dim, nodes=nodes, elements=elements, kind=kind,
                boundary_sets=tag_sets, boundary_faces=faces)


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

    ln, dval = expect_kv("dim", "dim")
    try:
        dim = int(dval)
    except ValueError:
        raise MeshError(f"{path}:{ln}: dim must be an integer") from None
    ln, kval = expect_kv("kind", "kind")
    try:
        kind = kind_from_name(kval)
    except ValueError as exc:
        raise MeshError(f"{path}:{ln}: {exc}") from None

    ln, nval = expect_kv("nodes", "node count")
    n_nodes = int(nval)
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
    n_elems = int(mval)
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
        name, count = parts[1], int(parts[2])
        idx = []
        while len(idx) < count:
            ln, text = next_line(f"nodeset {name}")
            idx.extend(int(p) for p in text.split())
        if len(idx) != count:
            raise MeshError(f"{path}:{ln}: nodeset {name} has {len(idx)} indices, expected {count}")
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
    angles = np.empty((mesh.n_elements, 3))
    for e, conn in enumerate(mesh.elements):
        p = mesh.nodes[conn]
        for v in range(3):
            a = p[(v + 1) % 3] - p[v]
            b = p[(v + 2) % 3] - p[v]
            cosang = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            angles[e, v] = np.arccos(np.clip(cosang, -1.0, 1.0))
    return angles


def wct_fixture_path() -> Path:
    """Path of the shipped well-centered (acute) triangulation of the unit square."""
    return Path(resources.files("stokeslab").joinpath("data/wct_square.mesh"))
