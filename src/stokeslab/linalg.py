"""Sparse assembly, direct and Schur-complement solves, and a generalized
symmetric eigensolver.

The triplet accumulation is deterministic and permutation-invariant: entries
are sorted by (row, col, value) before duplicate summation, so shuffled
triplet order produces a bit-identical compressed matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        return cls._canonical(n_rows, n_cols, rows, cols, vals)

    @classmethod
    def _canonical(cls, n_rows, n_cols, rows, cols, vals) -> "SparseMatrix":
        """Matrix from triplets already sorted by (row, col) and unique."""
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

    def dense_block(self, row_idx, col_idx) -> np.ndarray:
        """Dense submatrix for the given row/column index arrays."""
        return self.to_scipy()[np.ix_(np.asarray(row_idx), np.asarray(col_idx))].toarray()


def _norm_inf(csr) -> float:
    if not csr.shape[0]:
        return 0.0
    # row sums as a product with ones: each row adds in column order
    return float((abs(csr) @ np.ones(csr.shape[1])).max())


def _residual(csr, x, b) -> float:
    """max|A x - b| / (|A|_inf max|x| + max|b|), 0 when the denominator is 0."""
    denom = _norm_inf(csr) * np.abs(x).max() + np.abs(b).max()
    return float(np.abs(csr @ x - b).max() / denom) if denom > 0 else 0.0


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
    rows, cols, vals = A.rows[keep], A.cols[keep], A.vals[keep]
    # the kept entries are still sorted and unique; the identity entries go
    # in at their sorted places, so the result needs no new sort
    at = np.searchsorted(rows * n + cols, con_idx * n + con_idx)
    rows = np.insert(rows, at, con_idx)
    cols = np.insert(cols, at, con_idx)
    vals = np.insert(vals, at, 1.0)
    rhs[con_idx] = cvals[con_idx]
    matrix = SparseMatrix._canonical(A.n_rows, A.n_cols, rows, cols, vals)
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
    back-substitution anyway and observe the unstable solution.  Raises
    SolveAccuracyError when x is not finite or its residual is too large.
    """
    if system.matrix.n_rows != system.matrix.n_cols:
        raise ValueError("matrix must be square")
    if system.constraints and not system.constraints_applied:
        raise ValueError("apply_constraints before solving")
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


def solve_schur(system: LinearSystem, n_velocity: int, dim: int,
                residual_rtol: float = 1e-10, pivot_rtol: float = 1e-14):
    """Solve a stabilized saddle-point system by CG on its pressure Schur
    complement, or return None where that route does not apply.

    The first n_velocity unknowns are velocities, node-major with dim
    components; the rest are pressures.  On the free (unconstrained) dofs
    the system reads [V G; B K_pp] [v; p] = [f_v; f_p], where V must be
    block-diagonal by velocity component.  Each component block is factored
    once as an LDL^T (no row pivoting); preconditioned CG then solves
    S p = B V^-1 f_v - f_p with S = B V^-1 G - K_pp and the preconditioner
    diag(B diag(V)^-1 B^T) - diag(K_pp), and v = V^-1 (f_v - G p).

    Returns (x, residual, cg_iterations), the residual as in solve_direct.
    Returns None when a velocity entry couples two components, a component
    factor pivoted rows or has a pivot <= pivot_rtol times its largest (V is
    not positive definite), the preconditioner or q^T S q is not positive,
    CG has not converged after CG_MAXITER iterations, x is not finite, or
    the residual exceeds residual_rtol.
    """
    if system.constraints and not system.constraints_applied:
        raise ValueError("apply_constraints before solving")
    A = system.matrix.to_scipy()
    b = np.asarray(system.rhs, dtype=float)
    Avv = A[:n_velocity, :n_velocity].tocoo()
    if np.any((Avv.row % dim != Avv.col % dim) & (Avv.data != 0)):
        return None
    free = np.ones(A.shape[0], dtype=bool)
    free[list(system.constraints)] = False
    # free dofs of each velocity component that has any
    comps = [c + dim * np.flatnonzero(free[c:n_velocity:dim]) for c in range(dim)]
    comps = [c for c in comps if c.size]
    pf = n_velocity + np.flatnonzero(free[n_velocity:])
    if not comps or pf.size == 0:
        return None
    blocks = [A[c][:, c].tocsc() for c in comps]
    # components with the same free nodes have the same block (the velocity
    # block is K (x) I): then one factor serves them all
    shared = all(np.array_equal(comps[0] // dim, c // dim)
                 and all(np.array_equal(getattr(blocks[0], a), getattr(k, a))
                         for a in ("indptr", "indices", "data"))
                 for c, k in zip(comps[1:], blocks[1:]))
    lus = []
    for k in blocks[:1] if shared else blocks:
        try:
            lu = spla.splu(k, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
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
        cuts = np.cumsum([c.size for c in comps])[:-1]

        def v_solve(y):
            return np.concatenate([lu.solve(part)
                                   for lu, part in zip(lus, np.split(y, cuts))])

    vf = np.concatenate(comps)
    Ap = A[pf]
    B, Kpp = Ap[:, vf], Ap[:, pf]
    G = A[vf][:, pf]
    d = B.multiply(B) @ (1.0 / A.diagonal()[vf]) - Kpp.diagonal()
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
    res = _residual(A, x, b)
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
