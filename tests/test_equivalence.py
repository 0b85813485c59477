"""The paper's equivalence result and its counterexample, on assembled systems.

On simplices the condensed bubble-enriched system is the wvm system: the
bubble condensation -K_pf K_ff^-1 K_fp is wvm's pressure stabilization with
its tau.  On Q4/B8 it is not: one bubble per element gives a condensed
pressure block of rank <= dim, while any tau > 0 on a set of positive
measure, wvm's and svm's among them, gives rank nen - 1.  That rank is the
counterexample.

A fit of tau >= 0 as point masses is not one.  A single point mass at the
centroid reproduces the block on Q4, square or distorted, and on the B8
cube; the residual left by such a fit on an even Gauss grid (0.048 at 8x8
on Q4, 0.11 at 6^3 on B8) only says that the grid has no point at the
centroid.  Only distorted B8 elements leave a residual at every grid.
"""

import numpy as np
import pytest

from conftest import REFERENCE_CORNERS, perturb_interior
from stokeslab.basis import element_geometry, tabulate
from stokeslab.cases import case_by_name
from stokeslab.formulations import FormulationConfig, assemble
from stokeslab.kinds import ElementKind
from stokeslab.mesh import Mesh, generate_grid

NU = 0.7
SEEDS = [None, 0, 1, 2]  # None: the regular grid


def _body_force_3d(x):
    return np.stack([np.sin(np.pi * x[..., 0]) * x[..., 1],
                     x[..., 2] ** 2 - x[..., 0], np.cos(x[..., 1]) + x[..., 2]], -1)


BODY_FORCE = {2: case_by_name("body_force_cavity").body_force, 3: _body_force_3d}


def _grid(kind, seed):
    """6x6 or 3x3x3 unit grid; with a seed, interior nodes moved by up to 0.12h."""
    n = 6 if kind.dim == 2 else 3
    mesh = generate_grid(kind, n)
    return mesh if seed is None else perturb_interior(mesh, 0.12 / n, seed)


def _gaps(kind, seed, body_force):
    """Max-norm differences of the enriched blocks and rhs from wvm's,
    relative to wvm's."""
    mesh = _grid(kind, seed)
    bf = BODY_FORCE[kind.dim] if body_force else None
    enr, wvm = (assemble(mesh, FormulationConfig(scheme, nu=NU, body_force=bf))[0]
                for scheme in ("enriched", "wvm"))
    pairs = {name: (getattr(enr, name), getattr(wvm, name))
             for name in ("K", "G", "Kpp")}
    pairs["rhs"] = (enr.rhs, wvm.rhs)
    return {name: np.abs(a - b).max() / max(np.abs(b).max(), np.finfo(float).tiny)
            for name, (a, b) in pairs.items()}


@pytest.mark.parametrize("body_force", [False, True], ids=["no-force", "force"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", [ElementKind.T3, ElementKind.TET4])
def test_condensed_enriched_is_wvm_on_simplices(kind, seed, body_force):
    gaps = _gaps(kind, seed, body_force)
    assert max(gaps.values()) <= 1e-12, gaps


@pytest.mark.parametrize("body_force", [False, True], ids=["no-force", "force"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", [ElementKind.Q4, ElementKind.B8])
def test_condensed_enriched_is_not_wvm_on_tensor_elements(kind, seed, body_force):
    assert _gaps(kind, seed, body_force)["Kpp"] >= 0.1


@pytest.mark.parametrize("kind, enriched_rank, stabilized_rank", [
    (ElementKind.T3, 2, 2), (ElementKind.TET4, 3, 3),
    (ElementKind.Q4, 2, 3), (ElementKind.B8, 3, 7),
])
def test_element_pressure_block_ranks(kind, enriched_rank, stabilized_rank):
    """The pressure block of one reference element: enriched has rank
    <= dim, wvm and svm nen - 1."""
    nen = kind.nodes_per_element
    mesh = Mesh(REFERENCE_CORNERS[kind], [list(range(nen))], kind)
    ranks = {}
    for scheme in ("enriched", "wvm", "svm"):
        system = assemble(mesh, FormulationConfig(scheme, nu=NU))[0]
        ranks[scheme] = np.linalg.matrix_rank(system.pattern.matrix(system.Kpp).to_dense())
    assert ranks == {"enriched": enriched_rank, "wvm": stabilized_rank,
                     "svm": stabilized_rank}


def _tau_fit_residual(kind, coords, n):
    """Relative residual of the best fit of one element's condensed
    standard-bubble pressure block by point masses tau_q >= 0 at the n^dim
    Gauss points: sum_q tau_q (-grad N_a . grad N_b)(x_q)."""
    from scipy.optimize import nnls

    mesh = Mesh(coords, [list(range(kind.nodes_per_element))], kind)
    system = assemble(mesh, FormulationConfig("enriched", nu=NU))[0]
    target = system.pattern.matrix(system.Kpp).to_dense()
    x = np.polynomial.legendre.leggauss(n)[0]
    points = np.stack(np.meshgrid(*[x] * kind.dim, indexing="ij"), -1).reshape(-1, kind.dim)
    G = element_geometry(tabulate(kind, points, np.ones(len(points))), coords).G
    columns = -np.einsum("pia,pib->abp", G, G).reshape(-1, len(points))
    return nnls(columns, target.ravel())[1] / np.linalg.norm(target)


def _moved(kind, seed, amount):
    """The reference corners of kind, moved by up to amount (None: not moved)."""
    coords = REFERENCE_CORNERS[kind]
    if seed is None:
        return coords
    return coords + np.random.default_rng(seed).uniform(-amount, amount, coords.shape)


@pytest.mark.parametrize("kind, seed", [(ElementKind.Q4, None), (ElementKind.Q4, 0),
                                        (ElementKind.Q4, 1), (ElementKind.Q4, 2),
                                        (ElementKind.B8, None)])
def test_centroid_point_mass_reproduces_the_pressure_block(kind, seed):
    assert _tau_fit_residual(kind, _moved(kind, seed, 0.3), 1) < 1e-12


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_point_masses_reproduce_the_pressure_block_of_distorted_b8(seed, n):
    assert _tau_fit_residual(ElementKind.B8, _moved(ElementKind.B8, seed, 0.2), n) >= 5e-3
