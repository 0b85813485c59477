"""Sparse assembly, direct (SuperLU) and Schur-complement (CG, with a band
Cholesky of the velocity block) solves, and a generalized symmetric eigensolver.

Triplets are summed in two phases.  The pattern phase (TripletPattern)
depends only on the (row, col) positions: a stable argsort of the key
row * n_cols + col puts each entry's duplicates next to each other, and the
row pointer of every CSR on the pattern is found once.  The numeric phase
sorts the values within each group of three or more and adds each group with
one np.add.reduceat, so shuffled triplet order produces a bit-identical
compressed matrix.  A mesh computes its node pattern once, and every block of
an equal-order Stokes system (LinearSystem) is summed and constrained on it,
its pressure rows G^T read off the mirrored entries of G; the load vector is
summed on the pattern of the element nodes, one column wide.

scipy is imported by the functions that use it, so that importing stokeslab
loads no scipy; ``linalg.sp`` and ``linalg.spla`` still name the two modules.
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
    indptr: np.ndarray   # (n_rows + 1,) where each row's entries start: the CSR row pointer
    order: np.ndarray    # the triplets in (row, col) order, ties in input order
    starts: np.ndarray   # (nnz,) where each entry's group starts in that order
    groups: tuple        # one (n, c) array per size c > 2: positions of each group

    @classmethod
    def build(cls, n_rows, n_cols, rows, cols) -> "TripletPattern":
        order = np.argsort(np.asarray(rows, dtype=np.int64) * n_cols + cols, kind="stable")
        rows, cols = rows[order], cols[order]
        new_group = np.ones(rows.size, dtype=bool)
        new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(new_group)
        sizes = np.diff(starts, append=rows.size)
        groups = tuple(starts[sizes == c, None] + np.arange(c)
                       for c in np.unique(sizes[sizes > 2]))
        rows, cols = rows[starts], cols[starts]
        indptr = np.searchsorted(rows, np.arange(n_rows + 1))
        for a in (rows, cols, indptr, order, starts, *groups):
            a.setflags(write=False)
        return cls(n_rows, n_cols, rows, cols, indptr, order, starts, groups)

    def sum(self, vals) -> np.ndarray:
        """Entry values (..., nnz) summed from triplet values (..., n_triplets),
        one row of values at a time.

        The groups of each size c > 2 sort as one (n, c) array, so nothing is
        padded however uneven the duplication.  The stable sort puts NaN
        last and keeps equal values (+0.0 and -0.0, NaNs) in input order.
        A pair needs no sort: a + b == b + a to the bit unless both are NaN,
        and two NaNs the sort would keep in input order.
        """
        vals = np.asarray(vals, dtype=float)
        lead = vals.shape[:-1]
        out = np.empty((math.prod(lead), self.rows.size))
        for row, summed in zip(vals.reshape(len(out), vals.shape[-1]), out):
            v = row[self.order]
            for idx in self.groups:
                v[idx] = np.sort(v[idx], axis=-1, kind="stable")
            np.add.reduceat(v, self.starts, out=summed)
        return out.reshape(lead + (self.rows.size,))

    def matrix(self, vals) -> "SparseMatrix":
        """The matrix with the entry values vals (nnz,), by a read-only view of them."""
        vals = vals.view()
        vals.setflags(write=False)
        return SparseMatrix(self.n_rows, self.n_cols, self.rows, self.cols, self.indptr, vals)


@dataclass(frozen=True)
class SparseMatrix:
    """Compressed sparse matrix built from (row, col, value) triplets."""

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    indptr: np.ndarray  # the CSR row pointer of rows
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
        """The CSR of the entries, which are unique and sorted by (row, col):
        their values and columns as they are, and the row pointer that their
        pattern formed once.  Every scipy CSR of stokeslab is built here."""
        import scipy.sparse as sp
        return sp.csr_matrix((self.vals, self.cols, self.indptr), shape=(self.n_rows, self.n_cols))

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


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """An equal-order Stokes system as node-by-node blocks on one pattern,
    its right-hand side, and the point constraints folded into them.

    With the dofs ordered velocity (node-major, dim components), then
    pressure, the matrix is [K (x) I_dim, G; G^T, Kpp]: G[i] couples velocity
    component i (rows) to pressure, stored once: the pressure rows are its
    mirrored entries.  The cross-component velocity entries are explicit +0.0
    entries, so LU sees the pattern of the whole element matrix.

    ``constraints`` holds the prescribed value of each dof, NaN where the
    dof is free; only apply_constraints makes a system with any.  ``rhs0``
    folds the pressure constraints in at 0, and M is the pressure mass.
    ``matrix`` is the monolithic matrix with the rows and columns of the
    constrained dofs replaced by identity rows and columns, built from the
    blocks on first use; only the sparse LU reads it.
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

    @cached_property
    def matrix(self) -> SparseMatrix:
        n, d, pattern = self.rhs.size, self.dim, self.pattern
        velocity, pressure = split_dofs(np.arange(n), d)
        dofs = np.concatenate([velocity, pressure[:, None]], 1)  # (n_nodes, d + 1)
        vals = np.zeros((self.K.size, d + 1, d + 1))
        vals[:, range(d), range(d)] = self.K[:, None]
        vals[:, :d, d] = vals[:, d, :d] = self.G.T
        vals[:, d, d] = self.Kpp
        rows = np.broadcast_to(dofs[pattern.rows][:, :, None], vals.shape).copy()
        cols = np.broadcast_to(dofs[pattern.cols][:, None, :], vals.shape).copy()
        rows[:, d, :d], cols[:, d, :d] = cols[:, :d, d], rows[:, :d, d]  # G^T: G mirrored
        is_con = ~np.isnan(self.constraints)
        con, keep = np.flatnonzero(is_con), ~(is_con[rows] | is_con[cols]).ravel()
        return SparseMatrix.from_triplets(n, n, np.concatenate([rows.ravel()[keep], con]),
                                          np.concatenate([cols.ravel()[keep], con]),
                                          np.concatenate([vals.ravel()[keep], np.ones(con.size)]))


def apply_constraints(system: LinearSystem, constraints) -> LinearSystem:
    """The system with the point constraints folded in by symmetric
    row/column elimination: constraints holds each dof's prescribed value,
    NaN where the dof is free.

    Constrained rows become identity rows with the prescribed value on the
    right-hand side; columns are eliminated into the rhs so the reduced
    problem is exactly the constrained problem.  Each free row subtracts its
    terms from b in the monolithic matrix's column order, read off the node
    blocks: a velocity row of component k those of K, then of G_k; a pressure
    row those of G^T node-major, the components interleaved, then of K_pp,
    where the G^T terms are G's mirrored entries, sorted by column node.
    """
    n, dim, pattern = len(system.rhs), system.dim, system.pattern
    constraints = np.asarray(constraints, dtype=float)
    if constraints.shape != (n,):
        raise ValueError(f"constraints have shape {constraints.shape}, want ({n},)")
    is_con = ~np.isnan(constraints)
    values = np.array([np.where(is_con, constraints, 0.0)] * 2)  # for rhs, and for rhs0
    split_dofs(values[1], dim)[1][:] = 0.0  # with the pressures at 0
    rhs = np.array([system.rhs] * 2, dtype=float)
    # only the entries of a row node with a free dof and a column node with a constrained one move
    con_v, con_p = split_dofs(is_con, dim)
    any_free, any_con = ~(con_v.all(1) & con_p), con_v.any(1) | con_p
    e = np.flatnonzero(any_free[pattern.rows] & any_con[pattern.cols])
    m = np.flatnonzero(any_con[pattern.rows] & any_free[pattern.cols])  # their mirrors
    dofs_v, dofs_p = split_dofs(np.arange(n), dim)
    rc, cr, p = (pattern.rows, pattern.cols), (pattern.cols, pattern.rows), dofs_p[:, None]
    # (row dofs, column dofs, values, entries, their row and column nodes) of each block,
    # in the order a row takes them; G^T's are the mirrors, the row and column swapped
    for rows, cols, vals, at, (r, c) in ((dofs_v, dofs_v, system.K[None], e, rc),
                                         (dofs_v, p, system.G, e, rc),
                                         (p, dofs_v, system.G, m, cr),
                                         (p, p, system.Kpp[None], e, rc)):
        rows, cols, vals = rows[r[at]], cols[c[at]], vals[:, at].T
        moved = is_con[cols] & ~is_con[rows]
        rows, cols, vals = (np.broadcast_to(a, moved.shape)[moved] for a in (rows, cols, vals))
        for out, cvals in zip(rhs, values):
            np.add.at(out, rows, -vals * cvals[cols])
    rhs[:, is_con] = values[:, is_con]
    return replace(system, rhs=rhs[0], rhs0=rhs[1], constraints=constraints)


def _residual(system: LinearSystem, x) -> float:
    """max|A x - b| / (|A|_inf max|x| + max|b|) of A = system.matrix and
    b = system.rhs: 0 when the denominator is 0, and inf when it or the
    quotient is not finite, where a scale that overflows would report 0.

    A x and the row sums of |A| are CSR matvecs of the node blocks, with x
    set to 0 in the constrained columns: a velocity row of component c is
    K x_c + G_c p, and a pressure row is G_0^T x_0 + ... + K_pp p, where
    G_c^T x_c is the CSC matvec of G_c's transpose, which adds each row in
    column order as G_c^T's CSR would.  The constrained dofs' rows are
    identity rows.
    """
    pattern, dim, b = system.pattern, system.dim, system.rhs
    free = np.isnan(system.constraints)
    Ax, row_sums = np.zeros(b.size), np.zeros(b.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for out, y, f in ((Ax, np.where(free, x, 0.0), np.asarray), (row_sums, free * 1.0, np.abs)):
            (out_v, out_p), (y_v, y_p) = split_dofs(out, dim), split_dofs(y, dim)
            out_v += pattern.matrix(f(system.K)).to_scipy() @ y_v
            for c, G_c in enumerate(system.G):
                G = pattern.matrix(f(G_c)).to_scipy()
                out_v[:, c] += G @ y_p
                out_p += G.T @ y_v[:, c]
            out_p += pattern.matrix(f(system.Kpp)).to_scipy() @ y_p
        Ax[~free], row_sums[~free] = x[~free], 1.0
        denom = row_sums.max() * np.abs(x).max() + np.abs(b).max()
        res = np.abs(Ax - b).max() / denom if denom != 0 else 0.0
    return float(res) if np.isfinite(denom) and np.isfinite(res) else math.inf


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
    max|A x - b| / (|A|_inf max|x| + max|b|) for A = system.matrix, the
    quantity checked against residual_rtol, as _residual computes it.

    Raises SingularMatrixError when a pivot falls below pivot_rtol times the
    largest pivot: the signature of a missing pressure constraint or of an
    exactly singular (unstable) formulation.  Set pivot_rtol=0 to attempt the
    back-substitution anyway and observe the unstable solution.  Raises
    SolveAccuracyError when x is not finite or its residual is too large,
    and ValueError for a NaN or negative tolerance.
    """
    _check_tolerances(pivot_rtol, residual_rtol)
    import scipy.sparse.linalg as spla
    A = system.matrix.to_scipy()  # one CSR for the factor and the refinement
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
    res = _residual(system, x)
    if res > residual_rtol:
        raise SolveAccuracyError(
            f"solve residual {res:.3e} exceeds {residual_rtol:.1e}"
        )
    return x, res


def solve_schur(system: LinearSystem, residual_rtol: float = 1e-10,
                pivot_rtol: float = 1e-14):
    """Solve a stabilized Stokes system by CG on its pressure Schur
    complement, or return None where that route does not apply.

    On the free (unconstrained) velocity dofs, ordered component by component,
    and all pressures, the system reads [V G; B K_pp] [v; p] = [f_v; f_p],
    where V is K on each component's free nodes, and B = G^T, each read from
    the node pattern.  V is factored by LAPACK's band Cholesky V = U^T U
    (dpbtrf) once per distinct set of free nodes, whose components are the
    columns of one band solve (dpbtrs).  The band holds K's upper triangle
    (r <= c in node numbering; K's triangles differ in their last bits), in
    the set's node order unless the reverse Cuthill-McKee order of the node
    pattern, restricted to the set, gives a narrower band.  Preconditioned CG
    then solves S p = g = B V^-1 f_v - f_p with S = B V^-1 G - K_pp, and
    v = V^-1 (f_v - G p).  As S ~ M / 2nu, M the
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

    Returns (x, residual, cg_iterations), the residual of the constrained
    system that solve_direct reports for the same x (_residual).
    Returns None when more than one pressure dof or every velocity dof is
    constrained, a band Cholesky fails (V is not positive definite) or has
    a pivot D = diag(U)^2 <= pivot_rtol times its largest, |g| underflows
    to 0 (cg would return g), q^T S q is not positive, CG takes CG_MAXITER
    steps, x is not finite, or the residual exceeds residual_rtol.
    Raises ValueError as solve_direct does.
    """
    _check_tolerances(pivot_rtol, residual_rtol)
    pattern, n, dim = system.pattern, system.pattern.n_rows, system.dim
    b = np.asarray(system.rhs, dtype=float)
    free_v, free_p = split_dofs(np.isnan(system.constraints), dim)
    nodes = free_v.T  # each component's free nodes, numbered component-major
    comps = [c for c in range(dim) if nodes[c].any()]
    pinned = np.flatnonzero(~free_p)
    if not comps or pinned.size > 1:
        return None
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from scipy.linalg.lapack import dpbtrf, dpbtrs
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    Kpp, M = (pattern.matrix(vals).to_scipy() for vals in (system.Kpp, system.M))
    rcm = reverse_cuthill_mckee(M, symmetric_mode=True)  # M has the node pattern
    sets = nodes[comps]  # the free nodes of each component that has any
    starts = np.cumsum([0, *sets.sum(1)])  # the first row of each component in V
    first = (sets[:, None] == sets).all(-1).argmax(1)  # the first component with the same set
    factors = []
    for k in np.unique(first):  # one factor per distinct set of free nodes
        free = sets[k]
        e = np.flatnonzero(free[pattern.rows] & free[pattern.cols] & (pattern.rows <= pattern.cols))
        at = min((np.cumsum(free) - 1, np.cumsum(free[rcm])[np.argsort(rcm)] - 1),
                 key=lambda at: np.abs(at[pattern.rows[e]] - at[pattern.cols[e]]).max())
        lo, hi = np.sort([at[pattern.rows[e]], at[pattern.cols[e]]], axis=0)
        bw = (hi - lo).max()
        band = np.zeros((bw + 1, free.sum()), order="F")  # LAPACK's upper band storage
        band[bw + lo - hi, hi] = system.K[e]
        U, info = dpbtrf(band, overwrite_ab=1)
        pivots = U[bw] ** 2  # the D of V = L D L^T, L unit lower triangular
        if info or not pivots.min() > pivot_rtol * pivots.max():
            return None
        # the V rows of the components that share the set, in band order
        factors.append((U, np.add.outer(starts[:-1][first == k], np.argsort(at[free]))))

    def v_solve(y):  # one band solve per factor, a column per component
        out = np.empty_like(y)
        for U, in_band in factors:
            out[in_band] = dpbtrs(U, y[in_band].T)[0].T
        return out

    dofs_v, dofs_p = split_dofs(np.arange(b.size), dim)
    vf = dofs_v.T[nodes]
    G = sp.vstack([pattern.matrix(G_c).to_scipy()[free] for G_c, free in zip(system.G, nodes)],
                  format="csr")  # by component, then by node
    B = G.T  # a CSC, whose matvec adds each row in the order of B's CSR
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
    res = _residual(system, x)
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
