"""Sparse assembly, direct and Schur-complement solves, and a generalized
symmetric eigensolver.

Triplets are summed in two phases.  The pattern phase (TripletPattern)
depends only on the (row, col) positions: a stable argsort of the key
row * n_cols + col puts each entry's duplicates next to each other.  The
numeric phase sorts the values within each group and adds each group with
one np.add.reduceat, so shuffled triplet order produces a bit-identical
compressed matrix.  A mesh computes its node pattern once, and every block
of an equal-order Stokes system (LinearSystem) is summed on it; the load
vector is summed on the pattern of the element nodes, one column wide.

scipy.sparse and scipy.sparse.linalg are imported by the functions that use
them, so that importing stokeslab loads no scipy; ``linalg.sp`` and
``linalg.spla`` still name the two modules.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


# solve_schur: CG stops when its residual is below CG_RTOL times the scale of
# the terms of the reduced right-hand side, and gives up after CG_MAXITER
# iterations
CG_RTOL = 1e-13
CG_MAXITER = 1000


def __getattr__(name):
    if name == "sp":
        import scipy.sparse
        return scipy.sparse
    if name == "spla":
        import scipy.sparse.linalg
        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SingularMatrixError(RuntimeError):
    """Raised when a factorization meets a (near-)zero pivot."""


class SolveAccuracyError(RuntimeError):
    """Raised when a solve fails its residual check or is not finite."""


class _NotPositive(ArithmeticError):
    """Raised by solve_schur's S where q^T S q <= 0, to stop scipy's CG."""


@dataclass(frozen=True)
class TripletPattern:
    """The compressed entries of a list of (row, col) triplet positions, and
    how to sum any values given at those positions into them."""

    n_rows: int
    n_cols: int
    rows: np.ndarray     # (nnz,) entries, sorted by (row, col)
    cols: np.ndarray
    order: np.ndarray    # the triplets in (row, col) order, ties in input order
    starts: np.ndarray   # (nnz,) where each entry's group starts in that order
    groups: tuple        # one (n, c) array per size c > 1: positions of each group

    @classmethod
    def build(cls, n_rows, n_cols, rows, cols) -> "TripletPattern":
        order = np.argsort(np.asarray(rows, dtype=np.int64) * n_cols + cols, kind="stable")
        rows, cols = rows[order], cols[order]
        new_group = np.ones(rows.size, dtype=bool)
        new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(new_group)
        sizes = np.diff(starts, append=rows.size)
        groups = tuple(starts[sizes == c, None] + np.arange(c)
                       for c in np.unique(sizes[sizes > 1]))
        rows, cols = rows[starts], cols[starts]
        for a in (rows, cols, order, starts, *groups):
            a.setflags(write=False)
        return cls(n_rows, n_cols, rows, cols, order, starts, groups)

    def sum(self, vals) -> np.ndarray:
        """Entry values (..., nnz) summed from triplet values (..., n_triplets).

        The groups of each size c sort as one (n, c) array, so nothing is
        padded however uneven the duplication.  The stable sort puts NaN
        last and keeps equal values (+0.0 and -0.0, NaNs) in input order.
        """
        vals = np.asarray(vals, dtype=float)
        lead, m = vals.shape[:-1], self.order.size
        v = vals[..., self.order].reshape(math.prod(lead), m)
        for idx in self.groups:
            v[:, idx] = np.sort(v[:, idx], axis=-1, kind="stable")
        starts = (self.starts + m * np.arange(len(v))[:, None]).ravel()
        return np.add.reduceat(v.ravel(), starts).reshape(lead + (self.rows.size,))

    @cached_property
    def transpose(self) -> np.ndarray:
        """vals[transpose] are the entry values of the transpose, for a symmetric pattern."""
        return np.lexsort((self.rows, self.cols))

    def matrix(self, vals) -> "SparseMatrix":
        """The matrix with the entry values vals (nnz,)."""
        vals.setflags(write=False)
        return SparseMatrix(self.n_rows, self.n_cols, self.rows, self.cols, vals)


@dataclass(frozen=True)
class SparseMatrix:
    """Compressed sparse matrix built from (row, col, value) triplets."""

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_triplets(cls, n_rows, n_cols, rows, cols, vals) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("triplet arrays must have identical shapes")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows
                          or cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("triplet index out of range")
        pattern = TripletPattern.build(n_rows, n_cols, rows, cols)
        return pattern.matrix(pattern.sum(vals))

    @property
    def nnz(self) -> int:
        return self.vals.size

    def to_scipy(self) -> "scipy.sparse.csr_matrix":
        import scipy.sparse as sp
        return sp.csr_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.n_rows, self.n_cols)
        )

    def to_dense(self) -> np.ndarray:
        A = np.zeros((self.n_rows, self.n_cols))
        A[self.rows, self.cols] += self.vals  # entries are unique: each is 0.0 + v
        return A


def split_dofs(x, dim):
    """Views (velocity (n_nodes, dim), pressure (n_nodes,)) of a vector x over
    the dofs of an equal-order Stokes system.

    This is the one place that fixes the dof layout: the dim velocity
    components of every node, node-major, then one pressure per node.
    Split np.arange(n_nodes * (dim + 1)) to get the dof numbers.
    """
    n = len(x) // (dim + 1)
    return x[:n * dim].reshape(n, dim), x[n * dim:]


def _residual(csr, x, b) -> float:
    """max|A x - b| / (|A|_inf max|x| + max|b|), 0 when the denominator is
    0, and inf when the denominator or the quotient is not finite: a scale
    that overflows would otherwise report a residual of 0.  csr is
    canonical (sorted, unique indices), so abs(csr) keeps its rows' order."""
    with np.errstate(over="ignore", invalid="ignore"):
        # row sums as a product with ones: each row adds in its stored order
        norm = (abs(csr) @ np.ones(csr.shape[1])).max()
        denom = norm * np.abs(x).max() + np.abs(b).max()
        res = np.abs(csr @ x - b).max() / denom if denom != 0 else 0.0
    return float(res) if np.isfinite(denom) and np.isfinite(res) else math.inf


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """An equal-order Stokes system as node-by-node blocks on one pattern,
    its right-hand side, and the point constraints folded into them.

    With the dofs ordered velocity (node-major, dim components), then
    pressure, the matrix is [K (x) I_dim, G; G^T, Kpp]: G[i] couples velocity
    component i (rows) to pressure, stored once, as the pressure rows are
    its transpose.  The cross-component velocity entries are explicit +0.0
    entries, so LU sees the pattern of the whole element matrix.

    ``constraints`` holds the prescribed value of each dof, NaN where the
    dof is free; only apply_constraints makes a system with any.  ``rhs0``
    folds the pressure constraints in at 0, and M is the pressure mass.
    ``matrix`` is the monolithic matrix with the rows and columns of the
    constrained dofs replaced by identity rows and columns, built from the
    blocks on first use.
    """

    pattern: TripletPattern  # n_nodes x n_nodes, symmetric
    K: np.ndarray    # (nnz,)
    G: np.ndarray    # (dim, nnz)
    Kpp: np.ndarray  # (nnz,)
    M: np.ndarray    # (nnz,)
    rhs: np.ndarray
    rhs0: np.ndarray
    constraints: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.G)

    def triplets(self, entries=slice(None)):
        """The monolithic matrix as unique (rows, cols, vals) triplets, or
        the triplets of the node-by-node blocks at the given pattern entries,
        in the same order."""
        n, d = self.pattern.n_rows, self.dim
        velocity, pressure = split_dofs(np.arange(n * (d + 1)), d)
        dofs = np.concatenate([velocity, pressure[:, None]], 1)  # (n, d + 1) per node
        K = self.K[entries]
        vals = np.zeros((K.size, d + 1, d + 1))
        vals[:, range(d), range(d)] = K[:, None]
        vals[:, :d, d] = self.G[:, entries].T
        vals[:, d, :d] = self.G[:, self.pattern.transpose[entries]].T
        vals[:, d, d] = self.Kpp[entries]
        return (np.broadcast_to(dofs[self.pattern.rows[entries]][:, :, None], vals.shape).ravel(),
                np.broadcast_to(dofs[self.pattern.cols[entries]][:, None, :], vals.shape).ravel(),
                vals.ravel())

    @cached_property
    def matrix(self) -> SparseMatrix:
        rows, cols, vals = self.triplets()
        n = self.rhs.size
        is_con = ~np.isnan(self.constraints)
        con = np.flatnonzero(is_con)
        keep = ~(is_con[rows] | is_con[cols])
        return SparseMatrix.from_triplets(n, n, np.concatenate([rows[keep], con]),
                                          np.concatenate([cols[keep], con]),
                                          np.concatenate([vals[keep], np.ones(con.size)]))


def apply_constraints(system: LinearSystem, constraints) -> LinearSystem:
    """The system with the point constraints folded in by symmetric
    row/column elimination: constraints holds each dof's prescribed value,
    NaN where the dof is free.

    Constrained rows become identity rows with the prescribed value on the
    right-hand side; columns are eliminated into the rhs so the reduced
    problem is exactly the constrained problem.
    """
    n = len(system.rhs)
    constraints = np.asarray(constraints, dtype=float)
    if constraints.shape != (n,):
        raise ValueError(f"constraints have shape {constraints.shape}, want ({n},)")
    is_con = ~np.isnan(constraints)
    values = np.array([np.where(is_con, constraints, 0.0)] * 2)  # for rhs, and for rhs0
    split_dofs(values[1], system.dim)[1][:] = 0.0  # with the pressures at 0
    rhs = np.array([system.rhs] * 2, dtype=float)
    # only the blocks of a row node with a free dof and a column node with a
    # constrained dof hold terms that move
    con_v, con_p = split_dofs(is_con, system.dim)
    any_free, any_con = ~(con_v.all(1) & con_p), con_v.any(1) | con_p
    pattern = system.pattern
    rows, cols, vals = system.triplets(
        np.flatnonzero(any_free[pattern.rows] & any_con[pattern.cols]))
    moved = is_con[cols] & ~is_con[rows]
    r, c, v = rows[moved], cols[moved], vals[moved]
    at = np.argsort(r * n + c)  # each row takes its terms in column order
    for out, cvals in zip(rhs, values):
        np.add.at(out, r[at], -v[at] * cvals[c[at]])
    rhs[:, is_con] = values[:, is_con]
    return replace(system, rhs=rhs[0], rhs0=rhs[1], constraints=constraints)


def _check_tolerances(pivot_rtol, residual_rtol) -> None:
    """Refuse a NaN or negative tolerance: every comparison with NaN is
    false, so it would switch its check off.  inf is allowed."""
    for name, value in (("pivot_rtol", pivot_rtol), ("residual_rtol", residual_rtol)):
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")


def solve_direct(system: LinearSystem, pivot_rtol: float = 1e-14,
                 residual_rtol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Direct sparse-LU solve with a residual check.

    Returns the solution x and its relative residual
    max|A x - b| / (|A|_inf max|x| + max|b|), the quantity checked against
    residual_rtol (0 when the denominator is 0, inf when it overflows).

    Raises SingularMatrixError when a pivot falls below pivot_rtol times the
    largest pivot: the signature of a missing pressure constraint or of an
    exactly singular (unstable) formulation.  Set pivot_rtol=0 to attempt the
    back-substitution anyway and observe the unstable solution.  Raises
    SolveAccuracyError when x is not finite or its residual is too large,
    and ValueError for a NaN or negative tolerance.
    """
    _check_tolerances(pivot_rtol, residual_rtol)
    import scipy.sparse.linalg as spla
    A = system.matrix.to_scipy()  # one CSR for the factor, matvecs and norm
    b = np.asarray(system.rhs, dtype=float)
    saved = os.dup(1)
    os.dup2(2, 1)  # SuperLU's BLAS calls print to fd 1 on an exactly singular factor
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc
    finally:
        os.dup2(saved, 1)
        os.close(saved)
    pivots = np.abs(lu.U.diagonal())
    scale = float(pivots.max()) if pivots.size else 0.0
    if scale == 0.0 or pivots.min() < pivot_rtol * scale:
        raise SingularMatrixError(
            f"singular matrix: min pivot {pivots.min():.3e} vs scale {scale:.3e}"
        )
    x = lu.solve(b)
    # one step of iterative refinement buys several digits on ill-conditioned
    # stabilized saddle-point systems at negligible cost; skipped when the
    # factorization is numerically singular (pivot_rtol = 0 escape hatch),
    # where the correction would only add arbitrary null-space content
    if pivots.min() >= 1e-14 * scale:
        x = x + lu.solve(b - A @ x)
    if not np.all(np.isfinite(x)):
        raise SolveAccuracyError("solution is not finite")
    res = _residual(A, x, b)
    if res > residual_rtol:
        raise SolveAccuracyError(
            f"solve residual {res:.3e} exceeds {residual_rtol:.1e}"
        )
    return x, res


def _csr(pattern, vals, row_of, col_of, shape):
    """The CSR of vals[i] at (row_of[i, r], col_of[i, c]) for each pattern entry
    (r, c) where both are >= 0, broadcast over i; row_of increases with (i, r)."""
    import scipy.sparse as sp
    rows, cols = np.broadcast_arrays(row_of[:, pattern.rows], col_of[:, pattern.cols])
    keep = (rows >= 0) & (cols >= 0)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=shape[0]))])
    return sp.csr_matrix((np.broadcast_to(vals, keep.shape)[keep], cols[keep], indptr), shape=shape)


def solve_schur(system: LinearSystem, residual_rtol: float = 1e-10,
                pivot_rtol: float = 1e-14):
    """Solve a stabilized Stokes system by CG on its pressure Schur
    complement, or return None where that route does not apply.

    On the free (unconstrained) velocity dofs, ordered component by
    component, and all pressures, the system reads
    [V G; B K_pp] [v; p] = [f_v; f_p], where V is K on each component's
    free nodes, and B = G^T, the CSR of G's transpose; every operator is
    a canonical CSR (sorted, unique indices in each row).  K is factored
    once per component, or once for all of them when they have the same
    free nodes, as an LDL^T (no row pivoting);
    preconditioned CG then solves S p = g = B V^-1 f_v - f_p with
    S = B V^-1 G - K_pp, and v = V^-1 (f_v - G p).  As S ~ M / 2nu, M the
    pressure mass, CG is preconditioned by three damped-Jacobi sweeps on M
    from 0, omega = 1/2: z = p(D^-1 M) D^-1 r, p(t) = (1 - (1 - t/2)^3) / t > 0.

    CG always runs on all pressures, in node order.  When one pressure dof
    is constrained, its node is the pin, and CG solves for p - p_pin with
    the pin folded in at 0 (rhs0): the pin's entry of g is set so that the
    entries of g sum to 0, p is shifted to 0 at the pin, v is recovered,
    and p_pin is added.  Where G 1 vanishes on the free velocity rows and
    K_pp 1 = 0, the constants are the kernel of this S, and CG works on the
    quotient by them without the small eigenvalue that a pin leaves.  Where
    they are not, the shifted p does not solve the constrained system, and
    the residual check refuses it.
    The CG is scipy's cg from p = 0.  It stops before a step where
    |r| < CG_RTOL (| |B| |V^-1 f_v| | + |f_p|), a scale that does not cancel
    when the exact pressure lies in the kernel, so a roundoff g takes no
    step; and S raises to stop it on a direction q with q^T S q <= 0.

    Returns (x, residual, cg_iterations), the residual as in solve_direct,
    of the constrained system.
    Returns None when more than one pressure dof or every velocity dof is
    constrained, a factor pivoted rows or has a pivot <= pivot_rtol
    times its largest (V is not positive definite), |g| underflows to 0
    (cg would return g), q^T S q is not positive, CG takes CG_MAXITER
    steps, x is not finite, or the residual exceeds residual_rtol.
    Raises ValueError as solve_direct does.
    """
    _check_tolerances(pivot_rtol, residual_rtol)
    pattern, n, dim = system.pattern, system.pattern.n_rows, system.dim
    b = np.asarray(system.rhs, dtype=float)
    free = np.isnan(system.constraints)
    free_v, free_p = split_dofs(free, dim)
    comps = [c for c in range(dim) if free_v[:, c].any()]
    pinned = np.flatnonzero(~free_p)
    if not comps or pinned.size > 1:
        return None
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    nodes = free_v[:, comps].T  # each component's free nodes, numbered component-major
    v_of = np.where(nodes, np.cumsum(nodes, dtype=np.int32).reshape(nodes.shape) - 1, -1)
    starts = np.cumsum([0, *nodes.sum(1)])  # the first row of each component in V
    V = _csr(pattern, system.K, v_of, v_of, (starts[-1],) * 2)
    shared = (nodes == nodes[0]).all()
    lus = []
    for s, e in zip(starts[:1] if shared else starts[:-1], starts[1:]):
        try:
            lu = spla.splu(V[s:e, s:e].tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        except RuntimeError:
            return None
        pivots = lu.U.diagonal()  # D of the LDL^T, whose signs are V's inertia
        if (not np.array_equal(lu.perm_r, lu.perm_c)
                or not pivots.min() > pivot_rtol * pivots.max()):
            return None
        lus.append(lu)
    if shared:
        def v_solve(y):
            return lus[0].solve(y.reshape(len(comps), -1).T).T.ravel()
    else:
        def v_solve(y):
            return np.concatenate([lu.solve(y[s:e]) for lu, s, e in zip(lus, starts, starts[1:])])

    dofs_v, dofs_p = split_dofs(np.arange(b.size), dim)
    vf = dofs_v.T[comps][nodes]
    p_of = np.arange(n, dtype=np.int32)[None]
    G = _csr(pattern, system.G[comps], v_of, p_of, (vf.size, n))
    B = G.T.tocsr()
    Kpp, M = (_csr(pattern, vals, p_of, p_of, (n, n)) for vals in (system.Kpp, system.M))
    h = 0.5 / M.diagonal()  # omega D^-1

    def precondition(r):  # three damped-Jacobi sweeps on M z = r
        z = h * r
        for _ in range(2):
            z += h * (r - M @ z)
        return z

    def apply_S(q):
        Sq = B @ v_solve(G @ q) - Kpp @ q
        if not q @ Sq > 0:
            raise _NotPositive
        return Sq

    f_v, f_p = system.rhs0[vf], system.rhs0[dofs_p]  # the pin's f_p is 0
    steps = []  # one entry per CG step
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        w = v_solve(f_v)
        g = B @ w - f_p
        # |B| |w| does not cancel where the exact pressure lies in S's kernel
        scale = np.linalg.norm(abs(B) @ np.abs(w)) + np.linalg.norm(f_p)
        for pin in pinned:  # the pin's entry of g is unknown: make g orthogonal to 1
            g[pin] = -np.delete(g, pin).sum()
        if g.any() and not np.linalg.norm(g) > 0:  # cg would return g as p
            return None
        try:
            p, info = spla.cg(spla.LinearOperator((n, n), apply_S, dtype=float), g,
                              rtol=0.0, atol=CG_RTOL * scale, maxiter=CG_MAXITER,
                              M=spla.LinearOperator((n, n), precondition, dtype=float),
                              callback=steps.append)
        except _NotPositive:
            return None
    if info:
        return None
    p -= p[pinned].sum()  # p - p_pin is 0 at the pin; sums of at most one entry
    x = b.copy()  # constrained rows are identity rows
    x[vf] = v_solve(f_v - G @ p)
    x[dofs_p] = p + b[dofs_p[pinned]].sum()  # and p_pin is added
    if not np.all(np.isfinite(x)):
        return None
    # the residual of the whole constrained matrix, its dofs permuted to
    # (vf, pf, constrained), the pf blocks taken by the free_p mask; every
    # block is CSR, the zero ones too, so bmat stacks rows without a COO copy
    con = np.flatnonzero(~free)
    sizes = (vf.size, n - pinned.size, con.size)
    A = [[sp.csr_matrix((r, c)) for c in sizes] for r in sizes]
    G = G[:, free_p]  # and each of the CG's operators is freed in turn
    B = B[free_p]
    Kpp = Kpp[free_p][:, free_p]
    A[0][:2], A[1][:2], A[2][2] = [V, G], [B, Kpp], sp.identity(con.size, format="csr")
    perm = np.concatenate([vf, dofs_p[free_p], con])
    res = _residual(sp.bmat(A, format="csr"), x[perm], b[perm])
    if res > residual_rtol:
        return None
    return x, res, len(steps)


def eig_sym_generalized(S, M):
    """Solve S q = lambda M q for symmetric S and SPD M.

    Uses the Cholesky reduction M = L L^T followed by LAPACK's symmetric
    eigensolver on L^-1 S L^-T.  Returns eigenvalues in ascending order and
    the matrix of M-orthonormal eigenvectors (one per column).
    """
    S = np.asarray(S, dtype=float)
    M = np.asarray(M, dtype=float)
    if S.shape != M.shape or S.shape[0] != S.shape[1]:
        raise ValueError("S and M must be square with matching shapes")
    asym = np.abs(S - S.T).max()
    if asym > 1e-10 * max(1.0, np.abs(S).max()):
        raise ValueError(f"S is not symmetric (asymmetry {asym:.3e})")
    S = 0.5 * (S + S.T)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"M is not symmetric positive definite: {exc}") from exc
    Linv_S = np.linalg.solve(L, S)
    C = np.linalg.solve(L, Linv_S.T).T  # L^-1 S L^-T
    C = 0.5 * (C + C.T)
    lam, U = np.linalg.eigh(C)
    Q = np.linalg.solve(L.T, U)
    return lam, Q
