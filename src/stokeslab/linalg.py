"""Sparse assembly, direct and Schur-complement solves, and a generalized
symmetric eigensolver.

Triplets are summed in two phases.  The pattern phase (TripletPattern)
depends only on the (row, col) positions: a stable argsort of the key
row * n_cols + col puts each entry's duplicates next to each other.  The
numeric phase sorts the values within each group and adds each group with
one np.add.reduceat, so shuffled triplet order produces a bit-identical
compressed matrix.  A mesh computes its node pattern once, and every block
of an equal-order Stokes system (StokesBlocks) is summed on it.

scipy.sparse and scipy.sparse.linalg are imported by the functions that use
them, so that importing stokeslab loads no scipy; ``linalg.sp`` and
``linalg.spla`` still name the two modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


# solve_schur: CG stops when its residual falls to CG_RTOL times the reduced
# right-hand side, and gives up after CG_MAXITER iterations
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


@dataclass(frozen=True)
class StokesBlocks:
    """An equal-order Stokes matrix as node-by-node blocks on one pattern.

    With the dofs ordered velocity (node-major, dim components), then
    pressure, the matrix is [K (x) I_dim, G; B, Kpp]: G[i] couples velocity
    component i (rows) to pressure, B[i] pressure (rows) to velocity
    component i.  The cross-component velocity entries are explicit +0.0
    entries, so LU sees the pattern of the whole element matrix.
    """

    pattern: TripletPattern  # n_nodes x n_nodes
    dim: int
    K: np.ndarray    # (nnz,)
    G: np.ndarray    # (dim, nnz)
    B: np.ndarray    # (dim, nnz)
    Kpp: np.ndarray  # (nnz,)

    def triplets(self):
        """The monolithic matrix as unique (rows, cols, vals) triplets."""
        n, d = self.pattern.n_rows, self.dim
        velocity, pressure = split_dofs(np.arange(n * (d + 1)), d)
        dofs = np.concatenate([velocity, pressure[:, None]], 1)  # (n, d + 1) per node
        vals = np.zeros((self.K.size, d + 1, d + 1))
        vals[:, range(d), range(d)] = self.K[:, None]
        vals[:, :d, d] = self.G.T
        vals[:, d, :d] = self.B.T
        vals[:, d, d] = self.Kpp
        return (np.broadcast_to(dofs[self.pattern.rows][:, :, None], vals.shape).ravel(),
                np.broadcast_to(dofs[self.pattern.cols][:, None, :], vals.shape).ravel(),
                vals.ravel())


def _norm_inf(csr) -> float:
    if not csr.shape[0]:
        return 0.0
    import scipy.sparse as sp
    # row sums as a product with ones: each row adds in its stored order
    # (abs(csr) would sort the indices of a matrix that is not canonical)
    csr = sp.csr_matrix((np.abs(csr.data), csr.indices, csr.indptr), shape=csr.shape)
    return float((csr @ np.ones(csr.shape[1])).max())


def _residual(csr, x, b) -> float:
    """max|A x - b| / (|A|_inf max|x| + max|b|), 0 when the denominator is
    0, and inf when the denominator or the quotient is not finite: a scale
    that overflows would otherwise report a residual of 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        denom = _norm_inf(csr) * np.abs(x).max() + np.abs(b).max()
        res = np.abs(csr @ x - b).max() / denom if denom != 0 else 0.0
    return float(res) if np.isfinite(denom) and np.isfinite(res) else math.inf


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
    """An equal-order Stokes system as its blocks and right-hand side, and
    the point constraints folded into them.

    ``constraints`` holds the prescribed value of each dof, NaN where the
    dof is free; only apply_constraints makes a system with any.
    ``matrix`` is the monolithic matrix with the rows and columns of the
    constrained dofs replaced by identity rows and columns, built from the
    blocks on first use.
    """

    def __init__(self, blocks: StokesBlocks, rhs, constraints=None):
        self.blocks = blocks
        self.rhs = rhs
        self.constraints = np.full(len(rhs), np.nan) if constraints is None else constraints

    @cached_property
    def matrix(self) -> SparseMatrix:
        rows, cols, vals = self.blocks.triplets()
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
    cvals = np.where(is_con, constraints, 0.0)
    rhs = np.array(system.rhs, dtype=float)
    rows, cols, vals = system.blocks.triplets()
    moved = is_con[cols] & ~is_con[rows]
    r, c, v = rows[moved], cols[moved], vals[moved]
    at = np.argsort(r * n + c)  # each row takes its terms in column order
    np.add.at(rhs, r[at], -v[at] * cvals[c[at]])
    rhs[is_con] = cvals[is_con]
    return LinearSystem(system.blocks, rhs, constraints)


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
    Returns None when a factor pivoted rows or has a pivot <= pivot_rtol
    times its largest (V is not positive definite), the preconditioner or
    q^T S q is not positive, CG has not converged after CG_MAXITER
    iterations, x is not finite, or the residual exceeds residual_rtol.
    Raises ValueError as solve_direct does.
    """
    _check_tolerances(pivot_rtol, residual_rtol)
    blocks = system.blocks
    n, dim = blocks.pattern.n_rows, blocks.dim
    b = np.asarray(system.rhs, dtype=float)
    free = np.isnan(system.constraints)
    free_v, free_p = split_dofs(free, dim)
    nodes = [np.flatnonzero(free_v[:, c]) for c in range(dim)]  # free, per component
    comps = [c for c in range(dim) if nodes[c].size]
    p_nodes = np.flatnonzero(free_p)
    if not comps or p_nodes.size == 0:
        return None
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
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

    dofs_v, dofs_p = split_dofs(np.arange(b.size), dim)
    vf = np.concatenate([dofs_v[nodes[c], c] for c in comps])
    pf = dofs_p[p_nodes]
    G = sp.vstack([blocks.pattern.matrix(blocks.G[c]).to_scipy()[nodes[c]][:, p_nodes]
                   for c in comps], format="csr")
    # B with its columns in velocity dof order, so each row adds its terms
    # in the column order of the monolithic matrix
    B = sp.csr_matrix((blocks.B.T.ravel(), dofs_v[blocks.pattern.cols].ravel(),
                       K.indptr * dim), shape=(n, dofs_v.size))[p_nodes][:, vf]
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


@np.errstate(over="ignore", invalid="ignore")
def _pcg(apply_S, g, d_inv):
    """Preconditioned CG on S p = g from p = 0.  Returns (p, iterations), or
    None when q^T S q <= 0 or when |r| > CG_RTOL |g| after CG_MAXITER steps;
    an overflow ends in one of the two, so numpy's warning is silenced."""
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
