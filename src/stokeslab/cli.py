"""Command-line front end: run | convergence | eigen | mesh-info.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analysis
from .cases import CASE_NAMES, case_by_name
from .driver import solve_case
from .formulations import FormulationConfig
from .kinds import ElementKind, kind_from_name
from .linalg import SingularMatrixError, SolveAccuracyError, _check_tolerances
from .mesh import MAX_DOFS, MeshError, generate_grid, load_mesh
from .vtk_io import FLOAT_FMT, write_csv, write_vtk


class UsageError(Exception):
    pass


# Dof limit of the dense matrices of `eigen`, at the largest run measured
# (2-vCPU machine): the Q4 48x48 enriched spectrum, 7,203 dofs, 7.4 s at 613 MB.
# Every other grid and mesh file is held to mesh.MAX_DOFS.
MAX_DENSE_DOFS = 7_203


def _check_size(spec: str, kind: ElementKind, divisions, limit: int) -> None:
    """Refuse a grid above the dof limit before anything is allocated."""
    dofs = math.prod(n + 1 for n in divisions) * (kind.dim + 1)
    if dofs > limit:
        raise UsageError(f"{spec}: {dofs:,} dofs exceed the limit of {limit:,}")


_CASE_ALIASES = {
    "patch": "patch_constant",
    "patch2d": "patch_constant",
    "patch3d": "patch_constant",
    "cavity": "lid_cavity",
    "bodyforce": "body_force_cavity",
    "body-force": "body_force_cavity",
}


def _case_name(name: str) -> str:
    canonical = _CASE_ALIASES.get(name, name)
    if canonical not in CASE_NAMES:
        valid = sorted(set(CASE_NAMES) | set(_CASE_ALIASES))
        raise UsageError(f"unknown case {name!r}; valid: {', '.join(valid)}")
    return canonical


def _resolve_case(name: str, dim: int):
    canonical = _case_name(name)
    if name == "patch2d" and dim != 2 or name == "patch3d" and dim != 3:
        raise UsageError(f"case {name!r} does not match a {dim}-D mesh")
    return case_by_name(canonical, dim)


def _resolve_mesh(spec: str):
    """grid:KIND:NxM[xL] or a mesh file path."""
    if spec.startswith("grid:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad mesh spec {spec!r}; want grid:KIND:NxM[xL]")
        kind = kind_from_name(parts[1])
        try:
            divisions = tuple(int(t) for t in parts[2].lower().split("x"))
        except ValueError:
            raise UsageError(f"bad division list in {spec!r}") from None
        if len(divisions) != kind.dim:
            raise UsageError(
                f"{kind.name} needs {kind.dim} divisions, got {len(divisions)}"
            )
        _check_size(spec, kind, divisions, MAX_DOFS)
        return generate_grid(kind, divisions)
    return load_mesh(spec)


def _parse_element(spec: str):
    """'q4' or 'q4-enriched' -> (kind, scheme), galerkin without a suffix."""
    base, sep, suffix = spec.partition("-")
    kind = kind_from_name(base)
    return kind, FormulationConfig(suffix).scheme if sep else "galerkin"


def cmd_run(args) -> int:
    # options and the case name are refused before the mesh is built (every
    # case's own nu is valid), and a mesh the post-processing cannot read or
    # that lacks a boundary tag of the case before the solve
    _check_tolerances(args.pivot_rtol, args.residual_rtol)
    _case_name(args.case)
    FormulationConfig(args.formulation, nu=1.0 if args.nu is None else args.nu,
                      bp_epsilon=args.bp_epsilon)
    mesh = _resolve_mesh(args.mesh)
    case = _resolve_case(args.case, mesh.dim)
    if case.name == "lid_cavity":
        analysis.centerline_nodes(mesh)
    for tag in case.dirichlet:
        mesh.nodeset(tag)
    sol = solve_case(
        case, mesh, args.formulation,
        nu=args.nu, bp_epsilon=args.bp_epsilon,
        pivot_rtol=args.pivot_rtol, residual_rtol=args.residual_rtol,
    )
    if args.out:
        write_vtk(args.out, mesh, {"velocity": sol.velocity,
                                   "pressure": sol.pressure})
    rows = [
        ("n_nodes", mesh.n_nodes),
        ("n_elements", mesh.n_elements),
        ("n_dofs", sol.values.size),
        ("solve_residual", sol.residual),
    ]
    if case.name == "patch_constant":
        amp = analysis.checkerboard_amplitude(sol, case, mesh)
        rows.append(("checkerboard_amplitude", amp))
    if case.name == "lid_cavity":
        rows.append(("vortex_y", analysis.locate_vortex(sol, mesh)))
    if case.has_exact:
        rep = analysis.error_norms(sol, case, mesh)
        rows += [("velocity_l2_error", rep.velocity_l2),
                 ("pressure_h1semi_error", rep.pressure_h1semi)]
    rows = [(key, FLOAT_FMT % val if isinstance(val, float) else str(val)) for key, val in rows]
    if args.csv:
        write_csv(args.csv, ("quantity", "value"), rows)
    for key, val in rows:
        print(f"{key} = {val}")
    return 0


def cmd_convergence(args) -> int:
    try:
        levels = [int(t) for t in args.levels.split(",")]
    except ValueError:
        raise UsageError(f"bad --levels {args.levels!r}") from None
    kind = kind_from_name(args.element)
    _check_size(f"--levels {args.levels}", kind, (max(levels),) * kind.dim, MAX_DOFS)
    case = _resolve_case(args.case, kind.dim)
    FormulationConfig(args.formulation, bp_epsilon=args.bp_epsilon)  # refused before any mesh
    rows, slopes = analysis.convergence_study(
        case, args.formulation, kind, levels, bp_epsilon=args.bp_epsilon
    )
    out_rows = [(FLOAT_FMT % h, FLOAT_FMT % ev, FLOAT_FMT % ep)
                for h, ev, ep in rows]
    if "exact" in slopes:
        out_rows.append(("slope", "exact", "exact"))
    else:
        out_rows.append(("slope", FLOAT_FMT % slopes["velocity_l2"],
                         FLOAT_FMT % slopes["pressure_h1semi"]))
    if args.csv:
        write_csv(args.csv, ("h", "velocity_l2", "pressure_h1semi"), out_rows)
    for row in out_rows:
        print(",".join(str(c) for c in row))
    return 0


def cmd_eigen(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    kind, scheme = _parse_element(args.element)
    _check_size(f"--n {args.n}", kind, (args.n,) * kind.dim, MAX_DENSE_DOFS)
    mesh = generate_grid(kind, (args.n,) * kind.dim)
    report = analysis.lbb_spectrum(mesh, scheme)
    comments = [
        f"zero_count = {report.zero_count}",
        f"checkerboard_present = {report.checkerboard_present}",
    ]
    rows = [(str(i), FLOAT_FMT % lam) for i, lam in enumerate(report.eigenvalues)]
    if args.csv:
        write_csv(args.csv, ("index", "lambda"), rows, comments=comments)
    for c in comments:
        print(f"# {c}")
    for i, lam in rows:
        print(f"{i},{lam}")
    return 0


def cmd_mesh_info(args) -> int:
    mesh = _resolve_mesh(args.mesh)
    vols = mesh.element_volumes()
    print(f"kind = {mesh.kind.name}")
    print(f"dim = {mesh.dim}")
    print(f"n_nodes = {mesh.n_nodes}")
    print(f"n_elements = {mesh.n_elements}")
    print(f"h_max = {FLOAT_FMT % analysis.mesh_size(mesh)}")
    print(f"volume = {FLOAT_FMT % vols.sum()}")
    print("nodesets = " + ", ".join(sorted(mesh.boundary_sets)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokeslab",
        description="Mixed finite-element laboratory for the Stokes problem.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--formulation", default="galerkin")
        p.add_argument("--csv", default=None)

    run = sub.add_parser("run", help="solve one case and export fields")
    run.add_argument("--case", required=True)
    run.add_argument("--mesh", required=True)
    run.add_argument("--out", default=None, help="VTK output path")
    run.add_argument("--pivot-rtol", dest="pivot_rtol", type=float, default=1e-14)
    run.add_argument("--residual-rtol", dest="residual_rtol", type=float,
                     default=1e-10)
    run.add_argument("--nu", type=float, default=None,
                     help="viscosity override (default: per-case value)")
    run.add_argument("--bp-epsilon", dest="bp_epsilon", type=float, default=0.0)
    common(run)
    run.set_defaults(func=cmd_run)

    conv = sub.add_parser("convergence", help="mesh-refinement error study")
    conv.add_argument("--case", default="body_force_cavity")
    conv.add_argument("--element", required=True)
    conv.add_argument("--levels", required=True,
                      help="comma-separated divisions, e.g. 8,16,32")
    conv.add_argument("--bp-epsilon", dest="bp_epsilon", type=float, default=0.0)
    common(conv)
    conv.set_defaults(func=cmd_convergence)

    eig = sub.add_parser("eigen", help="pure-pressure-mode eigenvalue test")
    eig.add_argument("--element", required=True,
                     help="kind with optional scheme suffix, e.g. q4-enriched")
    eig.add_argument("--n", type=int, required=True)
    eig.add_argument("--csv", default=None)
    eig.set_defaults(func=cmd_eigen)

    info = sub.add_parser("mesh-info", help="mesh statistics")
    info.add_argument("--mesh", required=True)
    info.set_defaults(func=cmd_mesh_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, SolveAccuracyError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
