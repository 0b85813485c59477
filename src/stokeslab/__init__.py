"""stokeslab: a mixed finite-element laboratory for the Stokes problem.

Four formulations of the incompressible Stokes equations with equal-order
nodal velocity/pressure interpolation: classical Galerkin, weak and strong
variational multiscale stabilization, and bubble-enriched Galerkin with
static condensation.
"""

__version__ = "1.0.0"
