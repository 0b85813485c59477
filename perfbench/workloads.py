"""The four benchmark workloads: CLI argv, the reason each exists, and the
check that decides whether a pass produced correct output.

Every workload is a fixed grid, so its inputs do not depend on the seed.
A check returns a list of problems; an empty list means the pass is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple  # "{tmp}" is replaced by the pass's output directory
    warmup_argv: tuple  # the same command on a small grid
    check: Callable  # (stdout, tmp: Path, expect: dict) -> list of problems
    expect: dict = field(default_factory=dict)
    reference: str = "bulk"  # speed.KERNELS entry closest to the pass's work


def _key_values(stdout: str) -> dict:
    """'key = value' lines of `run` output."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_cavity(stdout, tmp, expect):
    problems = []
    vortex_y = float(_key_values(stdout)["vortex_y"])
    if not abs(vortex_y - expect["vortex_y"]) <= expect["vortex_tol"]:
        problems.append(f"vortex_y {vortex_y!r} not within {expect['vortex_tol']} "
                        f"of {expect['vortex_y']}")
    from stokeslab.vtk_io import read_vtk
    points, _, _, point_data = read_vtk(tmp / "field.vtk")
    if points.shape[0] != expect["n_nodes"]:
        problems.append(f"VTK has {points.shape[0]} points, want {expect['n_nodes']}")
    for name in ("velocity", "pressure"):
        data = point_data.get(name)
        if data is None or not all(math.isfinite(v) for v in data.ravel()):
            problems.append(f"VTK field {name!r} missing or not finite")
    if not (tmp / "summary.csv").is_file():
        problems.append("summary.csv not written")
    return problems


def check_patch(stdout, tmp, expect):
    amp = float(_key_values(stdout)["checkerboard_amplitude"])
    if not amp < expect["amplitude_max"]:
        return [f"checkerboard_amplitude {amp!r} not < {expect['amplitude_max']}"]
    return []


def check_eigen(stdout, tmp, expect):
    comments = _key_values(stdout.replace("# ", ""))
    problems = []
    if int(comments["zero_count"]) != expect["zero_count"]:
        problems.append(f"zero_count {comments['zero_count']}, want {expect['zero_count']}")
    if comments["checkerboard_present"] != "True":
        problems.append("checkerboard mode not detected")
    return problems


def check_convergence(stdout, tmp, expect):
    rows = [line.split(",") for line in stdout.splitlines() if line]
    levels = [tuple(map(float, r)) for r in rows if r[0] != "slope"]
    slope = float(next(r for r in rows if r[0] == "slope")[1])
    finest_error = min(levels)[1]  # the row with the smallest h
    problems = []
    lo, hi = expect["velocity_slope"]
    if not lo <= slope <= hi:
        problems.append(f"velocity slope {slope!r} not in [{lo}, {hi}]")
    if not finest_error < expect["finest_velocity_error_max"]:
        problems.append(f"finest velocity error {finest_error!r} not < "
                        f"{expect['finest_velocity_error_max']}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        "cavity-q4-svm",
        "Assembly-heavy Q4 cavity (19,683 dofs) with small LU fill; "
        "the only workload that writes VTK and CSV",
        ("run", "--case", "cavity", "--formulation", "svm",
         "--mesh", "grid:Q4:80x80",
         "--out", "{tmp}/field.vtk", "--csv", "{tmp}/summary.csv"),
        ("run", "--case", "cavity", "--formulation", "svm",
         "--mesh", "grid:Q4:8x8",
         "--out", "{tmp}/field.vtk", "--csv", "{tmp}/summary.csv"),
        check_cavity,
        {"vortex_y": 0.76498, "vortex_tol": 1e-4, "n_nodes": 81 * 81},
    ),
    Workload(
        "patch-b8-svm",
        "Factorisation-heavy 3-D B8 patch (19,652 dofs, nnz 1.88M) on the "
        "same formulations layer with the 8-node kernel",
        ("run", "--case", "patch3d", "--formulation", "svm",
         "--mesh", "grid:B8:16x16x16"),
        ("run", "--case", "patch3d", "--formulation", "svm",
         "--mesh", "grid:B8:4x4x4"),
        check_patch,
        {"amplitude_max": 1e-8},  # criterion 1
    ),
    Workload(
        "eigen-q4-enriched",
        "Dense 289x289 generalized eigenproblem after condensed-enriched "
        "assembly; the sparse LU is idle",
        ("eigen", "--element", "q4-enriched", "--n", "16"),
        ("eigen", "--element", "q4-enriched", "--n", "4"),
        check_eigen,
        {"zero_count": 2},  # criterion 5
        reference="small",
    ),
    Workload(
        "convergence-bodyforce-q4-svm",
        "Four mesh levels with a body force, so per-point Python case "
        "callables run inside assembly and error_norms",
        ("convergence", "--case", "bodyforce", "--formulation", "svm",
         "--element", "q4", "--levels", "8,16,32,64"),
        ("convergence", "--case", "bodyforce", "--formulation", "svm",
         "--element", "q4", "--levels", "4,8,16"),
        check_convergence,
        # criterion 9's velocity part; its pressure band is red on purpose
        {"velocity_slope": (1.7, 2.3), "finest_velocity_error_max": 1e-3},
    ),
)}
