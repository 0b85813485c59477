"""stokeslab: a mixed finite-element laboratory for the Stokes problem.

Four formulations of the incompressible Stokes equations with equal-order
nodal velocity/pressure interpolation: classical Galerkin, weak and strong
variational multiscale stabilization, and bubble-enriched Galerkin with
static condensation.
"""

from .analysis import (
    ErrorReport,
    SpectrumReport,
    checkerboard_amplitude,
    convergence_study,
    error_norms,
    lbb_spectrum,
    locate_vortex,
    mesh_size,
)
from .cases import (
    TestCase,
    apply_case,
    body_force_cavity,
    case_by_name,
    lid_cavity,
    patch_constant,
)
from .driver import SolutionField, solve_case
from .formulations import (
    FineBlocks,
    FormulationConfig,
    assemble,
    recover_fine,
    tau_at,
)
from .kinds import ElementKind, kind_from_name
from .linalg import (
    LinearSystem,
    SingularMatrixError,
    SolveAccuracyError,
    SparseMatrix,
    apply_constraints,
    eig_sym_generalized,
    solve_direct,
    solve_schur,
)
from .mesh import Mesh, MeshError, generate_grid, load_mesh, write_mesh, wct_fixture_path
from .quadrature import QuadratureRule, rule_for

__version__ = "1.0.0"
