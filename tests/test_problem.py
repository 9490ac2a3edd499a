"""ELL stencil assembly, right-hand side, precision copies, export."""

import numpy as np
import pytest

from mxpbench.geometry import GlobalProblem
from mxpbench.problem import (PAD, UNRESOLVED, generate_matrix, generate_rhs,
                              row_dot, to_low_precision, write_matrix_market)

from _oracles import (dense_stencil_3d, ell_to_dense, owns_global, seq_spmv,
                      structure_signature)


def _single_rank(nx, ny, nz):
    gp = GlobalProblem.from_local(nx, ny, nz, 1)
    return generate_matrix(gp.domain(0))


def test_row_nnz_classes_on_4cubed():
    A = _single_rank(4, 4, 4)
    vals, counts = np.unique(A.row_nnz, return_counts=True)
    assert list(vals) == [8, 12, 18, 27]
    assert list(counts) == [8, 24, 24, 8]   # corners, edges, faces, interior
    assert A.nnz_total == 1000              # (3*4 - 2)^3


def test_interior_rows_have_27_entries_on_16cubed():
    A = _single_rank(16, 16, 16)
    assert np.sum(A.row_nnz == 27) == 14 ** 3
    assert A.nnz_total == (3 * 16 - 2) ** 3


def test_diagonal_value_and_position():
    A = _single_rank(4, 4, 4)
    rows = np.arange(A.n_rows)
    assert np.all(A.values[rows, A.diag_pos] == 26.0)
    assert np.array_equal(A.col_global[rows, A.diag_pos], rows)
    # everything else in a row is -1 or padding
    mask = np.ones_like(A.values, dtype=bool)
    mask[rows, A.diag_pos] = False
    offvals = A.values[mask]
    offcols = A.col_idx[mask]
    assert np.all(offvals[offcols != PAD] == -1.0)
    assert np.all(offvals[offcols == PAD] == 0.0)


def test_entries_sorted_by_global_column():
    A = _single_rank(4, 6, 4)
    for i in range(A.n_rows):
        cg = A.col_global[i, :A.row_nnz[i]]
        assert np.all(np.diff(cg) > 0), f"row {i} not ascending"
        assert np.all(A.col_idx[i, A.row_nnz[i]:] == PAD)


def test_dense_agreement_on_4cubed():
    A = _single_rank(4, 4, 4)
    D = ell_to_dense(A)
    assert np.array_equal(D, dense_stencil_3d(4, 4, 4))


def test_rhs_is_row_sums():
    A = _single_rank(4, 4, 4)
    vecs = generate_rhs(A)
    assert np.array_equal(vecs.b, 27.0 - A.row_nnz)   # 26 - (nnz-1)
    A16 = _single_rank(16, 16, 16)
    b16 = generate_rhs(A16).b
    assert np.sum(b16 == 0.0) == 14 ** 3   # interior rows balance exactly


def test_two_rank_split_marks_remote_columns():
    gp = GlobalProblem.from_local(4, 4, 4, 2)     # stacked along z
    A0 = generate_matrix(gp.domain(0))
    unresolved = A0.col_idx == UNRESOLVED
    assert unresolved.sum() == 100            # (2+3+3+2)^2 face references
    remote = np.unique(A0.col_global[unresolved])
    assert len(remote) == 16                  # one 4x4 plane of halo points
    d1 = gp.domain(1)
    assert all(owns_global(d1, int(g)) for g in remote)
    # rows at the interface keep their full stencil width
    face_rows = np.flatnonzero(unresolved.any(axis=1))
    assert len(face_rows) == 16
    assert np.all(A0.row_nnz[face_rows] >= 12)


def test_low_precision_copy_shares_structure():
    A = _single_rank(4, 4, 4)
    L = to_low_precision(A)
    assert L.values.dtype == np.float32
    assert np.array_equal(L.values.astype(np.float64), A.values)  # exact
    assert L.col_idx is A.col_idx
    assert L.col_global is A.col_global
    assert L.row_nnz is A.row_nnz
    assert structure_signature(L) == structure_signature(A)


def test_structure_signature_distinguishes_problems():
    assert structure_signature(_single_rank(4, 4, 4)) != \
        structure_signature(_single_rank(2, 2, 2))


def test_spmv_cols_replaces_padding():
    A = _single_rank(2, 2, 2)
    cols = A.spmv_cols()
    assert cols.min() >= 0
    assert cols.max() < A.n_rows


def test_packed_rows_are_shared_and_fixed_per_key():
    A = _single_rank(4, 4, 4)
    L = to_low_precision(A)
    rows = np.arange(0, A.n_rows, 3)
    vals, cols = A.packed("every third", rows)
    assert np.array_equal(vals, A.values[rows])
    assert np.array_equal(cols, A.spmv_cols()[rows])
    vals_lo, cols_lo = L.packed("every third", rows)
    assert cols_lo is cols
    assert vals_lo.dtype == np.float32 and np.array_equal(vals_lo, vals)
    with pytest.raises(ValueError, match="another array"):
        A.packed("every third", rows.copy())


def test_matrix_market_output(tmp_path):
    A = _single_rank(2, 2, 2)
    rows = A.col_global[np.arange(A.n_rows), A.diag_pos]
    path = tmp_path / "box.mtx"
    write_matrix_market(path, A, rows, 8)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("%%MatrixMarket matrix coordinate real")
    n, m, nnz = (int(t) for t in lines[1].split())
    assert (n, m, nnz) == (8, 8, 64)          # 2^3 box: all pairs adjacent
    assert len(lines) == 2 + nnz
    triplets = [ln.split() for ln in lines[2:]]
    assert all(len(t) == 3 for t in triplets)
    r0, c0, v0 = triplets[0]
    assert (int(r0), int(c0)) == (1, 1)       # 1-based indices
    assert float(v0) == 26.0
    got = np.zeros((8, 8))
    for r, c, v in triplets:
        got[int(r) - 1, int(c) - 1] = float(v)
    assert np.array_equal(got, dense_stencil_3d(2, 2, 2))


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n_rows", [1, 2, 7, 4096])
def test_row_dot_adds_slots_in_order(n_rows, dtype, order):
    # Non-integer products make any other summation order show in the low
    # bits, and tobytes() tells -0.0 from +0.0 where array_equal does not.
    # Stored matrices are column-major; the kernel must not depend on it.
    rng = np.random.default_rng(n_rows)
    for draw in range(max(1, 200 // n_rows)):
        vals = np.asarray(rng.standard_normal((n_rows, 27)), dtype, order=order)
        cols = np.asarray(rng.integers(0, 64, size=(n_rows, 27)), order=order)
        x = rng.standard_normal(64).astype(dtype)
        vals[rng.random(vals.shape) < 0.1] = -0.0
        x[rng.random(64) < 0.1] = -0.0
        if draw == 0:     # all products -0.0: the in-order sum reads +0.0
            vals[0], cols[0], x[0] = -0.0, 0, 1.5
        want, _ = seq_spmv(vals, cols, x)
        assert row_dot(vals, cols, x).tobytes() == want.tobytes(), draw
