"""Sparse assembly, direct solves, and a generalized symmetric eigensolver.

The triplet accumulation is deterministic and permutation-invariant: entries
are sorted by (row, col, value) before duplicate summation, so shuffled
triplet order produces a bit-identical compressed matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    """Raised when a factorization meets a (near-)zero pivot."""


class SolveAccuracyError(RuntimeError):
    """Raised when a direct solve fails its residual check."""


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
        order = np.lexsort((vals, cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            new_group = np.empty(rows.size, dtype=bool)
            new_group[0] = True
            new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.nonzero(new_group)[0]
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
        for a in (rows, cols, vals):
            a.setflags(write=False)
        return cls(n_rows=n_rows, n_cols=n_cols, rows=rows, cols=cols, vals=vals)

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

    def matvec(self, x) -> np.ndarray:
        return self.to_scipy() @ np.asarray(x, dtype=float)

    def dense_block(self, row_idx, col_idx) -> np.ndarray:
        """Dense submatrix for the given row/column index arrays."""
        return self.to_scipy()[np.ix_(np.asarray(row_idx), np.asarray(col_idx))].toarray()

    def norm_inf(self) -> float:
        if not self.n_rows:
            return 0.0
        # row sums as a product with ones: each row adds in column order
        return float((abs(self.to_scipy()) @ np.ones(self.n_cols)).max())


def assemble_blocks(n, idx, blocks) -> SparseMatrix:
    """n x n matrix summed from dense blocks (n_blocks, k, k), block b
    placed on the rows and columns idx[b] (idx is (n_blocks, k))."""
    k = idx.shape[1]
    rows = np.repeat(idx, k, axis=1)
    cols = np.tile(idx, k)
    return SparseMatrix.from_triplets(n, n, rows.ravel(), cols.ravel(), blocks.ravel())


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


@dataclass
class LinearSystem:
    """Assembled system with (optionally not yet applied) point constraints."""

    matrix: SparseMatrix
    rhs: np.ndarray
    constraints: dict = field(default_factory=dict)  # dof index -> value
    constraints_applied: bool = False


def apply_constraints(system: LinearSystem) -> LinearSystem:
    """Fold point constraints by symmetric row/column elimination.

    Constrained rows become identity rows with the prescribed value on the
    right-hand side; columns are eliminated into the rhs so the reduced
    problem is exactly the constrained problem.
    """
    A, rhs = system.matrix, np.array(system.rhs, dtype=float)
    if not system.constraints:
        return LinearSystem(A, rhs, {}, constraints_applied=True)
    n = A.n_rows
    cvals = np.zeros(n)
    is_con = np.zeros(n, dtype=bool)
    for dof, val in system.constraints.items():
        if is_con[dof]:
            raise ValueError(f"dof {dof} constrained twice")
        is_con[dof] = True
        cvals[dof] = val

    keep = ~(is_con[A.rows] | is_con[A.cols])
    col_con = is_con[A.cols] & ~is_con[A.rows]
    np.add.at(rhs, A.rows[col_con], -A.vals[col_con] * cvals[A.cols[col_con]])

    con_idx = np.nonzero(is_con)[0]
    rows = np.concatenate([A.rows[keep], con_idx])
    cols = np.concatenate([A.cols[keep], con_idx])
    vals = np.concatenate([A.vals[keep], np.ones(con_idx.size)])
    rhs[con_idx] = cvals[con_idx]
    matrix = SparseMatrix.from_triplets(A.n_rows, A.n_cols, rows, cols, vals)
    return LinearSystem(matrix, rhs, dict(system.constraints), constraints_applied=True)


def solve_direct(system: LinearSystem, pivot_rtol: float = 1e-14,
                 residual_rtol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Direct sparse-LU solve with a residual check.

    Returns the solution x and its relative residual
    max|A x - b| / (|A|_inf max|x| + max|b|), the quantity checked against
    residual_rtol (0 when the denominator is 0).

    Raises SingularMatrixError when a pivot falls below pivot_rtol times the
    largest pivot: the signature of a missing pressure constraint or of an
    exactly singular (unstable) formulation.  Set pivot_rtol=0 to attempt the
    back-substitution anyway and observe the unstable solution.
    """
    A = system.matrix
    if A.n_rows != A.n_cols:
        raise ValueError("matrix must be square")
    if system.constraints and not system.constraints_applied:
        raise ValueError("apply_constraints before solving")
    b = np.asarray(system.rhs, dtype=float)
    try:
        lu = spla.splu(A.to_scipy().tocsc())
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
        x = x + lu.solve(b - A.matvec(x))
    denom = A.norm_inf() * np.abs(x).max() + np.abs(b).max()
    res = float(np.abs(A.matvec(x) - b).max() / denom) if denom > 0 else 0.0
    if res > residual_rtol:
        raise SolveAccuracyError(
            f"solve residual {res:.3e} exceeds {residual_rtol:.1e}"
        )
    return x, res


def dense_inverse(A) -> np.ndarray:
    """Inverse of a small dense block (per-element fine-scale block)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular fine block: {exc}") from exc
    resid = np.abs(A @ inv - np.eye(n)).max()
    if not np.isfinite(resid) or resid > 1e-12 * max(1.0, np.abs(A).max()):
        raise SingularMatrixError(
            f"fine block inversion residual {resid:.3e}; degenerate element"
        )
    return inv


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
