"""Generate the acute-triangulation fixture of the unit square.

An 8-triangle acute triangulation of the square (two interior points, one
split point on the bottom and top edges) is optimized numerically to
minimize the largest interior angle, refined by edge-midpoint subdivision
(which preserves every angle), and written to
src/stokeslab/data/wct_square.mesh.

The perfectly regular midpoint refinement admits one spurious global
pressure mode beyond the hydrostatic constant (a vertex/midpoint two-level
pattern), which would make the pinned Galerkin system singular.  A small
deterministic jiggle of the interior nodes (well inside the acuteness
margin) breaks that exact structure while keeping every angle below 88
degrees.
"""

import numpy as np
from scipy.optimize import minimize

from stokeslab.kinds import ElementKind
from stokeslab.mesh import Mesh, triangle_angles, write_mesh


def pattern(params):
    px, qx, ex, ey, fx, fy = params
    verts = np.array([
        (0.0, 0.0),   # A 0
        (1.0, 0.0),   # B 1
        (1.0, 1.0),   # C 2
        (0.0, 1.0),   # D 3
        (px, 0.0),    # P 4  split on the bottom edge
        (qx, 1.0),    # Q 5  split on the top edge
        (ex, ey),     # E 6  interior
        (fx, fy),     # F 7  interior
    ])
    # pinwheel connectivity: corners in 2 triangles, edge splits in 3,
    # interior points in 5 -- the degree pattern that admits an all-acute
    # placement (an edge split in only 2 triangles forces a right angle)
    tris = [
        (0, 4, 6), (4, 7, 6), (4, 1, 7), (1, 2, 7),
        (2, 5, 7), (7, 5, 6), (5, 3, 6), (3, 0, 6),
    ]
    return verts, tris


def max_angle(params):
    verts, tris = pattern(params)
    worst = 0.0
    for tri in tris:
        a, b, c = (verts[i] for i in tri)
        u, v = b - a, c - a
        area = 0.5 * (u[0] * v[1] - u[1] * v[0])
        if area <= 1e-9:
            return 10.0
        for p0, p1, p2 in ((a, b, c), (b, c, a), (c, a, b)):
            u, v = p1 - p0, p2 - p0
            ang = np.arccos(
                np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1, 1)
            )
            worst = max(worst, ang)
    return worst


def refine(verts, tris):
    verts = list(map(tuple, verts))
    index = {v: i for i, v in enumerate(verts)}

    def midpoint(i, j):
        m = tuple((np.array(verts[i]) + np.array(verts[j])) / 2.0)
        if m not in index:
            index[m] = len(verts)
            verts.append(m)
        return index[m]

    out = []
    for a, b, c in tris:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return np.array(verts), out


def main():
    best = None
    rng = np.random.default_rng(11)
    for _ in range(400):
        x0 = np.concatenate([
            rng.uniform(0.15, 0.85, 2), rng.uniform(0.05, 0.95, 4)
        ])
        if max_angle(x0) > 3:  # skip inverted starting configurations
            continue
        res = minimize(max_angle, x0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 8000})
        if best is None or res.fun < best.fun:
            best = res
    deg = np.degrees(best.fun)
    print(f"optimized params {best.x}, max angle {deg:.6f} deg")
    assert deg < 90.0, "pattern is not acute"

    verts, tris = pattern(best.x)
    for _ in range(3):
        verts, tris = refine(verts, tris)
    verts = np.asarray(verts, dtype=float)
    tris = np.asarray(tris, dtype=np.intp)

    on_boundary = (
        (np.abs(verts[:, 0]) < 1e-12) | (np.abs(verts[:, 0] - 1) < 1e-12)
        | (np.abs(verts[:, 1]) < 1e-12) | (np.abs(verts[:, 1] - 1) < 1e-12)
    )

    # break the exact midpoint-refinement structure (see module docstring):
    # displace each interior node by up to 1.5% of its shortest incident edge
    rng = np.random.default_rng(42)
    minlen = np.full(len(verts), np.inf)
    for a, b, c in tris:
        for i, j in ((a, b), (b, c), (c, a)):
            length = np.linalg.norm(verts[i] - verts[j])
            minlen[i] = min(minlen[i], length)
            minlen[j] = min(minlen[j], length)
    disp = rng.uniform(-1.0, 1.0, verts.shape) * (0.015 * minlen)[:, None]
    disp[on_boundary] = 0.0
    verts = verts + disp

    # orient CCW
    for k, (a, b, c) in enumerate(tris):
        u, v = verts[b] - verts[a], verts[c] - verts[a]
        if u[0] * v[1] - u[1] * v[0] < 0:
            tris[k] = (a, c, b)
    boundary_sets = {"all": np.nonzero(on_boundary)[0]}
    mesh = Mesh(verts, tris, ElementKind.T3, boundary_sets)
    angles = triangle_angles(mesh)
    print(f"{mesh.n_elements} triangles, max angle {np.degrees(angles.max()):.6f} deg")
    assert np.degrees(angles.max()) < 90.0
    write_mesh(mesh, "src/stokeslab/data/wct_square.mesh")
    print("wrote src/stokeslab/data/wct_square.mesh")


if __name__ == "__main__":
    main()
