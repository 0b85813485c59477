"""Sparse assembly, constraint elimination, direct solve, eigensolver."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lexsort_sum
from stokeslab.linalg import (
    LinearSystem,
    SingularMatrixError,
    SolveAccuracyError,
    SparseMatrix,
    TripletPattern,
    apply_constraints,
    eig_sym_generalized,
    solve_direct,
    solve_schur,
    split_dofs,
)


# ------------------------------------------------------------ sparse triplets

def test_scipy_modules_resolve_on_first_use():
    """perfbench's linalg.factor_s span patches ``stokeslab.linalg.spla.splu``."""
    import scipy.sparse
    import scipy.sparse.linalg

    from stokeslab import linalg

    assert linalg.sp is scipy.sparse
    assert linalg.spla.splu is scipy.sparse.linalg.splu
    with pytest.raises(AttributeError, match="no attribute 'spl'"):
        linalg.spl


def test_duplicate_triplets_accumulate():
    A = SparseMatrix.from_triplets(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
    assert A.nnz == 2
    assert np.allclose(A.to_dense(), [[3.0, 0.0], [0.0, 5.0]])


def test_out_of_range_triplet_rejected():
    with pytest.raises(ValueError, match="out of range"):
        SparseMatrix.from_triplets(2, 2, [2], [0], [1.0])


def test_mismatched_triplet_shapes_rejected():
    with pytest.raises(ValueError, match="identical shapes"):
        SparseMatrix.from_triplets(2, 2, [0, 1], [0], [1.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_triplet_order_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n = 12
    m = rng.integers(1, 60)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    vals = rng.standard_normal(m)
    A = SparseMatrix.from_triplets(n, n, rows, cols, vals)
    perm = rng.permutation(m)
    B = SparseMatrix.from_triplets(n, n, rows[perm], cols[perm], vals[perm])
    # bit-identical compressed storage, not merely numerically close
    assert np.array_equal(A.rows, B.rows)
    assert np.array_equal(A.cols, B.cols)
    assert A.vals.tobytes() == B.vals.tobytes()
    # a pattern whose duplicates are all pairs, which sum without a sort;
    # two NaNs add in input order, so they are left out
    keys = np.repeat(rng.choice(n * n, size=rng.integers(1, 30), replace=False), 2)
    rows, cols = keys // n, keys % n
    vals = np.where(rng.random(keys.size) < 0.5,
                    rng.choice(SPECIAL[~np.isnan(SPECIAL)], keys.size),
                    rng.standard_normal(keys.size))
    assert TripletPattern.build(n, n, rows, cols).groups == ()
    perm = rng.permutation(keys.size)
    with np.errstate(invalid="ignore"):  # inf + -inf
        A = SparseMatrix.from_triplets(n, n, rows, cols, vals)
        B = SparseMatrix.from_triplets(n, n, rows[perm], cols[perm], vals[perm])
        _assert_same(lexsort_sum(rows, cols, vals), A.rows, A.cols, A.vals)
    _assert_same((A.rows, A.cols, A.vals), B.rows, B.cols, B.vals)


# values that sort and add in awkward ways: signed zeros, NaNs of either
# sign, infinities, ties, and magnitudes far apart
SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e16, 1.0, -1.0, 0.5])


def _awkward_triplets(rng):
    """Shuffled triplets on few positions, plus the group [1e16, 1, 1, 1, 1, 1],
    which np.add.reduceat does not add left to right."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, 60))
    rows = np.concatenate([rng.integers(0, n, m), np.full(6, n)])
    cols = np.concatenate([rng.integers(0, n, m), np.zeros(6, dtype=int)])
    vals = np.where(rng.random(m) < 0.5, rng.choice(SPECIAL, m), rng.integers(-2, 3, m) * 0.5)
    vals = np.concatenate([vals, [1e16, 1, 1, 1, 1, 1]])
    perm = rng.permutation(rows.size)
    return n + 1, rows[perm], cols[perm], vals[perm]


def _assert_same(ref, rows, cols, vals):
    assert rows.tobytes() == ref[0].tobytes()
    assert cols.tobytes() == ref[1].tobytes()
    assert vals.tobytes() == ref[2].tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf + -inf
@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pattern_sum_matches_lexsort_reference(seed):
    n, rows, cols, vals = _awkward_triplets(np.random.default_rng(seed))
    A = SparseMatrix.from_triplets(n, n, rows, cols, vals)
    _assert_same(lexsort_sum(rows, cols, vals), A.rows, A.cols, A.vals)
    csr, coo = A.to_scipy(), sp.csr_matrix((A.vals, (A.rows, A.cols)), shape=(n, n))
    assert csr.has_canonical_format
    assert all(getattr(csr, a).tobytes() == getattr(coo, a).tobytes()
               for a in ("indptr", "indices", "data"))


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf + -inf
@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_one_pattern_sums_many_value_arrays(seed):
    rng = np.random.default_rng(seed)
    n, rows, cols, vals = _awkward_triplets(rng)
    pattern = TripletPattern.build(n, n, rows, cols)
    stack = np.stack([vals, rng.permutation(vals), rng.standard_normal(vals.size),
                      rng.choice(SPECIAL, vals.size)])
    sums = pattern.sum(stack)
    for v, summed in zip(stack, sums):
        _assert_same(lexsort_sum(rows, cols, v), pattern.rows, pattern.cols, summed)
        assert pattern.sum(v).tobytes() == summed.tobytes()


def test_pattern_forms_the_read_only_row_pointer_its_csrs_share():
    # rows 0, 2 and 4 are empty; row 3 has a duplicate
    pattern = TripletPattern.build(5, 5, np.array([3, 1, 3, 1, 3]), np.array([1, 2, 4, 0, 1]))
    assert pattern.indptr.tolist() == [0, 0, 2, 2, 4, 4]
    assert not pattern.indptr.flags.writeable
    A = pattern.matrix(pattern.sum([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert A.indptr is pattern.indptr
    assert A.to_scipy().indptr.tolist() == [0, 0, 2, 2, 4, 4]
    assert A.to_dense()[3].tolist() == [0.0, 6.0, 0.0, 0.0, 3.0]


# ------------------------------------------------------------------ dof layout

@pytest.mark.parametrize("dim", [2, 3])
def test_split_dofs_dense_disjoint_and_writable_views(dim):
    n = 16
    velocity, pressure = split_dofs(np.arange(n * (dim + 1)), dim)
    assert velocity.shape == (n, dim) and pressure.shape == (n,)
    assert np.array_equal(np.sort(np.concatenate([velocity.ravel(), pressure])),
                          np.arange(n * (dim + 1)))
    assert np.array_equal(velocity[2], 2 * dim + np.arange(dim))  # [4, 5] in 2-D
    assert pressure[2] == n * dim + 2
    x = np.zeros(n * (dim + 1))
    velocity, pressure = split_dofs(x, dim)
    velocity[2, 1] = 1.0
    pressure[2] = 2.0
    assert x[2 * dim + 1] == 1.0 and x[n * dim + 2] == 2.0 and x.sum() == 3.0


# ------------------------------------------------------------------ constraints

def _stokes_system(K, G, Kpp, rhs):
    """Stokes system from dense node blocks: K and Kpp (n, n), G (dim, n, n),
    every node pair in the pattern, with the identity as the pressure mass."""
    n = len(K)
    pattern = TripletPattern.build(n, n, np.repeat(np.arange(n), n), np.tile(np.arange(n), n))
    K, G = (np.asarray(a, dtype=float) for a in (K, G))
    rhs = np.asarray(rhs, dtype=float)
    return LinearSystem(pattern, K=K.ravel(), G=G.reshape(len(G), -1),
                        Kpp=np.asarray(Kpp, dtype=float).ravel(), M=np.eye(n).ravel(), rhs=rhs,
                        rhs0=rhs, constraints=np.full(rhs.size, np.nan))


def _system_from_dense(A, b):
    """An even-sized dense A as a dim-1 Stokes system on the full node
    pattern: K = A[:n, :n], G = A[:n, n:], Kpp = A[n:, n:].  The pressure
    rows A[n:, :n] must be G^T, the only coupling LinearSystem holds."""
    A = np.asarray(A, dtype=float)
    n = len(A) // 2
    if not np.array_equal(A[n:, :n], A[:n, n:].T):
        raise ValueError("the pressure rows of A are not its pressure columns transposed")
    return _stokes_system(A[:n, :n], A[None, :n, n:], A[n:, n:], b)


def test_constrained_rows_become_identity():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    sys0 = _system_from_dense(A, [1.0, 2.0])
    out = apply_constraints(sys0, [5.0, np.nan])
    D = out.matrix.to_dense()
    assert np.allclose(D[0], [1.0, 0.0])
    assert np.allclose(D[:, 0], [1.0, 0.0])
    assert out.rhs[0] == 5.0
    # column elimination moved A[1,0]*5 to the rhs
    assert out.rhs[1] == pytest.approx(2.0 - 1.0 * 5.0)


def test_constraining_dof_to_exact_value_preserves_solution(rng):
    n = 10
    A = rng.standard_normal((n, n))
    A = A.T @ A + n * np.eye(n)
    x_exact = rng.standard_normal(n)
    b = A @ x_exact
    constraints = np.full(n, np.nan)
    constraints[3] = x_exact[3]
    x, _ = solve_direct(apply_constraints(_system_from_dense(A, b), constraints))
    assert np.allclose(x, x_exact, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_constraint_folding_matches_from_triplets(seed):
    # the folded matrix must equal, byte for byte, the canonical matrix of
    # the same entries (every entry of the full node pattern) from from_triplets
    rng = np.random.default_rng(seed)
    n = 16
    m = rng.integers(1, 120)
    A = SparseMatrix.from_triplets(n, n, rng.integers(0, n, m), rng.integers(0, n, m),
                                   rng.standard_normal(m)).to_dense()
    A[n // 2:, :n // 2] = A[:n // 2, n // 2:].T
    con = rng.choice(n, rng.integers(1, n), replace=False)
    constraints = np.full(n, np.nan)
    constraints[con] = 1.0
    out = apply_constraints(_system_from_dense(A, np.zeros(n)), constraints)
    is_con = np.zeros(n, dtype=bool)
    is_con[con] = True
    rows, cols = np.divmod(np.arange(n * n), n)
    keep = ~(is_con[rows] | is_con[cols])
    ref = SparseMatrix.from_triplets(
        n, n, np.concatenate([rows[keep], con]), np.concatenate([cols[keep], con]),
        np.concatenate([A[rows, cols][keep], np.ones(con.size)]))
    assert out.matrix.rows.tobytes() == ref.rows.tobytes()
    assert out.matrix.cols.tobytes() == ref.cols.tobytes()
    assert out.matrix.vals.tobytes() == ref.vals.tobytes()
    assert not out.matrix.vals.flags.writeable


@pytest.mark.parametrize("size", [1, 3])
def test_constraint_vector_of_the_wrong_length_is_refused(size):
    with pytest.raises(ValueError, match=r"constraints have shape \(%d,\), want \(2,\)" % size):
        apply_constraints(_system_from_dense(np.eye(2), [1.0, 1.0]), np.zeros(size))


# ----------------------------------------------------------------- direct solve

def test_identity_solve():
    x, res = solve_direct(_system_from_dense(np.eye(4), [1.0, 0.0, 0.0, 0.0]))
    assert res == 0.0
    assert np.allclose(x, [1.0, 0.0, 0.0, 0.0])


def test_small_hand_solved_system():
    x, _ = solve_direct(_system_from_dense([[2.0, 1.0], [1.0, 3.0]], [3.0, 5.0]))
    assert np.allclose(x, [0.8, 1.4], atol=1e-14)


def test_random_spd_residual(rng):
    n = 50
    A = rng.standard_normal((n, n))
    A = A.T @ A + np.eye(n)
    b = rng.standard_normal(n)
    x, reported = solve_direct(_system_from_dense(A, b))
    res = np.abs(A @ x - b).max() / (np.abs(A).sum(axis=1).max() * np.abs(x).max()
                                     + np.abs(b).max())
    assert res < 1e-10
    assert 0.0 <= reported < 1e-10


def test_singular_matrix_detected():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        solve_direct(_system_from_dense(A, [1.0, 2.0]))


def test_pivot_escape_hatch_with_relaxed_residual():
    # numerically singular but factorable: default pivot check refuses,
    # pivot_rtol=0 lets the back-substitution run
    A = np.array([[1.0, 0.0], [0.0, 1e-20]])
    sys0 = _system_from_dense(A, [1.0, 0.0])
    with pytest.raises(SingularMatrixError):
        solve_direct(sys0)
    x, _ = solve_direct(sys0, pivot_rtol=0.0, residual_rtol=np.inf)
    assert x[0] == pytest.approx(1.0)


def test_zero_residual_tolerance_raises(rng):
    A = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    A[4:, :4] = A[:4, 4:].T
    b = rng.standard_normal(8)
    with pytest.raises(SolveAccuracyError, match="residual"):
        solve_direct(_system_from_dense(A, b), residual_rtol=0.0)


# ----------------------------------------------------------- schur-complement CG

# one node with two velocity components (K = 2 for each) and one pressure
SADDLE = dict(K=[[2.0]], G=[[[1.0]], [[-1.0]]], Kpp=[[-0.5]])


def test_schur_small_saddle_point_system():
    b = [1.0, 2.0, 0.5]
    system = _stokes_system(**SADDLE, rhs=b)
    dense = [[2.0, 0.0, 1.0], [0.0, 2.0, -1.0], [1.0, -1.0, -0.5]]
    assert np.array_equal(system.matrix.to_dense(), dense)
    x, res, iterations = solve_schur(system)
    assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-13, atol=0)
    assert res < 1e-15
    assert iterations == 1


def test_schur_refuses_indefinite_velocity_block():
    assert solve_schur(_stokes_system(**dict(SADDLE, K=[[-2.0]]), rhs=[1.0, 2.0, 0.5])) is None


@pytest.mark.parametrize("rhs", [[np.nan, 1.0], [1.0, np.nan]])
def test_nan_rhs_is_refused_by_both_solvers(rhs):
    system = _stokes_system([[2.0]], [[[1.0]]], [[-1.0]], rhs)
    with pytest.raises(SolveAccuracyError, match="not finite"):
        solve_direct(system)
    assert solve_schur(system) is None


@pytest.mark.parametrize("solver", [solve_direct, solve_schur])
@pytest.mark.parametrize("tolerance", [
    dict(pivot_rtol=np.nan), dict(residual_rtol=np.nan),
    dict(pivot_rtol=-1e-14), dict(residual_rtol=-1.0),
], ids=["pivot-nan", "residual-nan", "pivot-negative", "residual-negative"])
def test_nan_or_negative_tolerance_is_refused(solver, tolerance):
    # every comparison with NaN is false, so a NaN would switch its check off
    (name, value), = tolerance.items()
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {value}$"):
        solver(_stokes_system(**SADDLE, rhs=[1.0, 2.0, 0.5]), **tolerance)


def test_schur_allows_an_infinite_residual_tolerance():
    # solve_direct's escape hatch above pairs pivot_rtol=0 with inf
    x, _, _ = solve_schur(_stokes_system(**SADDLE, rhs=[1.0, 2.0, 0.5]), residual_rtol=np.inf)
    assert np.allclose(x, [5 / 6, 2 / 3, -2 / 3], rtol=1e-14, atol=0)


# ------------------------------------------------------------------ eigensolver

def test_eig_diag_identity():
    lam, Q = eig_sym_generalized(np.diag([0.0, 1.0, 2.0]), np.eye(3))
    assert np.allclose(lam, [0.0, 1.0, 2.0], atol=1e-12)


def test_eig_identity_vs_diag_mass():
    lam, _ = eig_sym_generalized(np.eye(2), np.diag([1.0, 4.0]))
    assert np.allclose(np.sort(lam), [0.25, 1.0], atol=1e-12)


def test_eig_reconstruction_and_m_orthonormality(rng):
    n = 30
    S = rng.standard_normal((n, n))
    S = 0.5 * (S + S.T)
    M = rng.standard_normal((n, n))
    M = M.T @ M + n * np.eye(n)
    lam, Q = eig_sym_generalized(S, M)
    assert np.all(np.diff(lam) >= -1e-12)
    assert np.allclose(Q.T @ M @ Q, np.eye(n), atol=1e-8)
    assert np.abs(M @ Q @ np.diag(lam) @ Q.T @ M - S).max() < 1e-8 * max(
        1.0, np.abs(S).max()
    )


@pytest.mark.parametrize("S, M", [(np.eye(2), np.eye(3)), (np.ones((2, 3)), np.ones((2, 3)))],
                         ids=["mismatched", "not-square"])
def test_eig_rejects_mismatched_or_non_square_shapes(S, M):
    with pytest.raises(ValueError, match="square with matching shapes"):
        eig_sym_generalized(S, M)


def test_eig_rejects_asymmetric_s():
    S = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        eig_sym_generalized(S, np.eye(2))


def test_eig_rejects_indefinite_mass():
    with pytest.raises(ValueError, match="positive definite"):
        eig_sym_generalized(np.eye(2), np.diag([1.0, -1.0]))
