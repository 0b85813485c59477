"""Sparse assembly, direct and Schur-complement solves, and a generalized
symmetric eigensolver.

Triplets are summed in two phases.  The pattern phase (TripletPattern)
depends only on the (row, col) positions: a stable argsort of the key
row * n_cols + col puts each entry's duplicates next to each other.  The
numeric phase sorts the values within each group and adds each group with
one np.add.reduceat, so shuffled triplet order produces a bit-identical
compressed matrix.  A mesh computes its node pattern once, and every block
of an equal-order Stokes system (StokesBlocks) is summed on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


# solve_schur: CG stops when its residual falls to CG_RTOL times the reduced
# right-hand side, and gives up after CG_MAXITER iterations
CG_RTOL = 1e-13
CG_MAXITER = 1000


class SingularMatrixError(RuntimeError):
    """Raised when a factorization meets a (near-)zero pivot."""


class SolveAccuracyError(RuntimeError):
    """Raised when a solve fails its residual check or is not finite."""


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

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.n_rows, self.n_cols)
        )

    def to_dense(self) -> np.ndarray:
        A = np.zeros((self.n_rows, self.n_cols))
        np.add.at(A, (self.rows, self.cols), self.vals)
        return A


@dataclass(frozen=True)
class StokesBlocks:
    """An equal-order Stokes matrix as node-by-node blocks on one pattern.

    With the dofs ordered velocity (node-major, dim components), then
    pressure, the matrix is [K (x) I_dim, G; B, Kpp]: G[i] couples velocity
    component i (rows) to pressure, B[i] pressure (rows) to velocity
    component i.  The cross-component velocity entries are explicit zeros,
    each the element sum of K * 0, so an all-negative group keeps the sign
    bit (-0.0) that the monolithic assembly gives it.
    """

    pattern: TripletPattern  # n_nodes x n_nodes
    dim: int
    K: np.ndarray     # (nnz,)
    zero: np.ndarray  # (nnz,) the cross-component entries
    G: np.ndarray     # (dim, nnz)
    B: np.ndarray     # (dim, nnz)
    Kpp: np.ndarray   # (nnz,)

    def triplets(self):
        """The monolithic matrix as unique (rows, cols, vals) triplets."""
        n, d = self.pattern.n_rows, self.dim

        def dofs(nodes):  # (nnz, d + 1): the velocity dofs, then the pressure
            return np.concatenate([nodes[:, None] * d + np.arange(d), n * d + nodes[:, None]], 1)

        vals = np.empty((self.K.size, d + 1, d + 1))
        vals[:, :d, :d] = self.zero[:, None, None]
        vals[:, range(d), range(d)] = self.K[:, None]
        vals[:, :d, d] = self.G.T
        vals[:, d, :d] = self.B.T
        vals[:, d, d] = self.Kpp
        return (np.broadcast_to(dofs(self.pattern.rows)[:, :, None], vals.shape).ravel(),
                np.broadcast_to(dofs(self.pattern.cols)[:, None, :], vals.shape).ravel(),
                vals.ravel())


def _norm_inf(csr) -> float:
    if not csr.shape[0]:
        return 0.0
    # row sums as a product with ones: each row adds in its stored order
    # (abs(csr) would sort the indices of a matrix that is not canonical)
    csr = sp.csr_matrix((np.abs(csr.data), csr.indices, csr.indptr), shape=csr.shape)
    return float((csr @ np.ones(csr.shape[1])).max())


def _residual(csr, x, b) -> float:
    """max|A x - b| / (|A|_inf max|x| + max|b|), 0 when the denominator is 0."""
    denom = _norm_inf(csr) * np.abs(x).max() + np.abs(b).max()
    return float(np.abs(csr @ x - b).max() / denom) if denom > 0 else 0.0


def assemble_vector(n, idx, values) -> np.ndarray:
    """Length-n vector summed from values at the indices idx (same shape).

    The sum goes through the sorted reduction of from_triplets, so the order
    of the entries cannot change the result's bytes.
    """
    col = SparseMatrix.from_triplets(n, 1, idx.ravel(),
                                     np.zeros(idx.size, dtype=np.intp), values.ravel())
    out = np.zeros(n)
    out[col.rows] += col.vals  # adding to +0.0 also turns a -0.0 sum into +0.0
    return out


class LinearSystem:
    """Assembled system with (optionally not yet applied) point constraints.

    A Stokes system carries its blocks in place of a matrix; ``matrix`` is
    then built from them on first use, constraints folded in once applied.
    """

    def __init__(self, matrix, rhs, constraints=None, constraints_applied=False,
                 blocks=None):
        if matrix is not None:
            self.matrix = matrix
        self.rhs = rhs
        self.constraints = {} if constraints is None else constraints  # dof -> value
        self.constraints_applied = constraints_applied
        self.blocks = blocks

    @cached_property
    def matrix(self) -> SparseMatrix:
        cons = self.constraints if self.constraints_applied else {}
        return _folded(self.rhs.size, *self.blocks.triplets(), cons)


def _folded(n, rows, cols, vals, constraints) -> SparseMatrix:
    """n x n matrix of unique triplets with the rows and columns of the
    constrained dofs replaced by identity rows and columns."""
    con = np.fromiter(constraints, dtype=np.intp, count=len(constraints))
    is_con = np.zeros(n, dtype=bool)
    is_con[con] = True
    keep = ~(is_con[rows] | is_con[cols])
    return SparseMatrix.from_triplets(n, n, np.concatenate([rows[keep], con]),
                                      np.concatenate([cols[keep], con]),
                                      np.concatenate([vals[keep], np.ones(con.size)]))


def apply_constraints(system: LinearSystem) -> LinearSystem:
    """Fold point constraints by symmetric row/column elimination.

    Constrained rows become identity rows with the prescribed value on the
    right-hand side; columns are eliminated into the rhs so the reduced
    problem is exactly the constrained problem.
    """
    n = len(system.rhs)
    rhs = np.array(system.rhs, dtype=float)
    cvals = np.zeros(n)
    is_con = np.zeros(n, dtype=bool)
    for dof, val in system.constraints.items():
        is_con[dof] = True
        cvals[dof] = val
    blocks = system.blocks
    if blocks is not None:
        rows, cols, vals = blocks.triplets()
    else:
        rows, cols, vals = system.matrix.rows, system.matrix.cols, system.matrix.vals
    moved = is_con[cols] & ~is_con[rows]
    r, c, v = rows[moved], cols[moved], vals[moved]
    at = np.argsort(r * n + c)  # each row takes its terms in column order
    np.add.at(rhs, r[at], -v[at] * cvals[c[at]])
    rhs[is_con] = cvals[is_con]
    matrix = None if blocks is not None else _folded(n, rows, cols, vals, system.constraints)
    return LinearSystem(matrix, rhs, dict(system.constraints), True, blocks)


def solve_direct(system: LinearSystem, pivot_rtol: float = 1e-14,
                 residual_rtol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Direct sparse-LU solve with a residual check.

    Returns the solution x and its relative residual
    max|A x - b| / (|A|_inf max|x| + max|b|), the quantity checked against
    residual_rtol (0 when the denominator is 0).

    Raises SingularMatrixError when a pivot falls below pivot_rtol times the
    largest pivot: the signature of a missing pressure constraint or of an
    exactly singular (unstable) formulation.  Set pivot_rtol=0 to attempt the
    back-substitution anyway and observe the unstable solution.  Raises
    SolveAccuracyError when x is not finite or its residual is too large.
    """
    if system.constraints and not system.constraints_applied:
        raise ValueError("apply_constraints before solving")
    if system.matrix.n_rows != system.matrix.n_cols:
        raise ValueError("matrix must be square")
    A = system.matrix.to_scipy()  # one CSR for the factor, matvecs and norm
    b = np.asarray(system.rhs, dtype=float)
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc
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


def solve_schur(system: LinearSystem, residual_rtol: float = 1e-10,
                pivot_rtol: float = 1e-14):
    """Solve a stabilized Stokes system by CG on its pressure Schur
    complement, or return None where that route does not apply.

    Reads the system's blocks.  On the free (unconstrained) dofs, with the
    velocities ordered component by component, the system reads
    [V G; B K_pp] [v; p] = [f_v; f_p], where V is K on each component's
    free nodes.  K is factored once per component, or once for all of them
    when they have the same free nodes, as an LDL^T (no row pivoting);
    preconditioned CG then solves S p = B V^-1 f_v - f_p with
    S = B V^-1 G - K_pp and the preconditioner
    diag(B diag(V)^-1 B^T) - diag(K_pp), and v = V^-1 (f_v - G p).

    Returns (x, residual, cg_iterations), the residual as in solve_direct.
    Returns None for a system without blocks, when a factor pivoted rows or
    has a pivot <= pivot_rtol times its largest (V is not positive
    definite), the preconditioner or q^T S q is not positive, CG has not
    converged after CG_MAXITER iterations, x is not finite, or the residual
    exceeds residual_rtol.
    """
    if system.constraints and not system.constraints_applied:
        raise ValueError("apply_constraints before solving")
    blocks = system.blocks
    if blocks is None:
        return None
    n, dim = blocks.pattern.n_rows, blocks.dim
    n_v = n * dim
    b = np.asarray(system.rhs, dtype=float)
    free = np.ones(b.size, dtype=bool)
    free[list(system.constraints)] = False
    nodes = [np.flatnonzero(free[c:n_v:dim]) for c in range(dim)]  # free, per component
    comps = [c for c in range(dim) if nodes[c].size]
    p_nodes = np.flatnonzero(free[n_v:])
    if not comps or p_nodes.size == 0:
        return None
    K, Kpp = (blocks.pattern.matrix(v).to_scipy() for v in (blocks.K, blocks.Kpp))
    Vs = [K[nodes[c]][:, nodes[c]] for c in comps]
    shared = all(np.array_equal(nodes[comps[0]], nodes[c]) for c in comps)
    lus = []
    for k in Vs[:1] if shared else Vs:
        try:
            lu = spla.splu(k.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
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
        cuts = np.cumsum([nodes[c].size for c in comps])[:-1]

        def v_solve(y):
            return np.concatenate([lu.solve(part)
                                   for lu, part in zip(lus, np.split(y, cuts))])

    vf = np.concatenate([c + dim * nodes[c] for c in comps])
    pf = n_v + p_nodes
    G = sp.vstack([blocks.pattern.matrix(blocks.G[c]).to_scipy()[nodes[c]][:, p_nodes]
                   for c in comps], format="csr")
    # B with its columns in velocity dof order, so each row adds its terms
    # in the column order of the monolithic matrix
    B = sp.csr_matrix((blocks.B.T.ravel(), (blocks.pattern.cols[:, None] * dim
                                            + np.arange(dim)).ravel(), K.indptr * dim),
                      shape=(n, n_v))[p_nodes][:, vf]
    Kpp = Kpp[p_nodes][:, p_nodes]
    d = (B.multiply(B) @ (1.0 / np.concatenate([K.diagonal()[nodes[c]] for c in comps]))
         - Kpp.diagonal())
    if not np.all(d > 0):
        return None
    f_v, f_p = b[vf], b[pf]
    cg = _pcg(lambda q: B @ v_solve(G @ q) - Kpp @ q, B @ v_solve(f_v) - f_p, 1.0 / d)
    if cg is None:
        return None
    p, iterations = cg
    x = b.copy()  # constrained rows are identity rows
    x[pf] = p
    x[vf] = v_solve(f_v - G @ p)
    if not np.all(np.isfinite(x)):
        return None
    # the residual of the whole constrained matrix, its dofs permuted to
    # (vf, pf, constrained); every block is CSR, so bmat keeps each row's order
    con = np.flatnonzero(~free)
    sizes = (vf.size, pf.size, con.size)
    M = [[sp.csr_matrix((r, c)) for c in sizes] for r in sizes]
    M[0][:2], M[1][:2] = [sp.block_diag(Vs, format="csr"), G], [B, Kpp]
    M[2][2] = sp.identity(con.size, format="csr")
    perm = np.concatenate([vf, pf, con])
    res = _residual(sp.bmat(M, format="csr"), x[perm], b[perm])
    if res > residual_rtol:
        return None
    return x, res, iterations


def _pcg(apply_S, g, d_inv):
    """Preconditioned CG on S p = g from p = 0.  Returns (p, iterations), or
    None when q^T S q <= 0 or when |r| > CG_RTOL |g| after CG_MAXITER steps."""
    p, r = np.zeros_like(g), g
    g_norm = np.linalg.norm(g)
    if g_norm == 0:
        return p, 0
    z = d_inv * r
    q, rz = z, r @ z
    for it in range(1, CG_MAXITER + 1):
        Sq = apply_S(q)
        qSq = q @ Sq
        if not qSq > 0:
            return None
        alpha = rz / qSq
        p = p + alpha * q
        r = r - alpha * Sq
        if np.linalg.norm(r) <= CG_RTOL * g_norm:
            return p, it
        z = d_inv * r
        rz, rz_old = r @ z, rz
        q = z + (rz / rz_old) * q
    return None


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
