"""ELL stencil assembly, right-hand side, precision copies, export."""

from dataclasses import fields

import numpy as np
import pytest

from mxpbench.comm import RankWorld
from mxpbench.geometry import GlobalProblem
from mxpbench.multigrid import build_hierarchy
from mxpbench.problem import (generate_matrix, generate_rhs, to_low_precision,
                              write_matrix_market)

from _oracles import (dense_stencil_3d, ell_to_dense, from_chunks, owns_global,
                      padding_mask, row_dot, seq_spmv, structure_signature,
                      with_sets)


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
    off = np.ones_like(A.values, dtype=bool)
    off[rows, A.diag_pos] = False
    pad = padding_mask(A)
    assert np.all(A.values[off & ~pad] == -1.0)
    assert np.all(A.values[pad] == 0.0)


def test_entries_sorted_by_global_column():
    A = _single_rank(4, 6, 4)
    for i in range(A.n_rows):
        cg = A.col_global[i, :A.row_nnz[i]]
        assert np.all(np.diff(cg) > 0), f"row {i} not ascending"
        assert np.all(A.col_idx[i, A.row_nnz[i]:] == i)   # padding


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
    n = A0.n_rows
    remote = A0.col_idx >= n
    assert remote.sum() == 100                # (2+3+3+2)^2 face references
    # they land in slots n..n+15, one 4x4 plane of rank 1's points, whose
    # global ids ascend with the slot
    assert A0.n_cols_extended == n + 16
    slots, first = np.unique(A0.col_idx[remote], return_index=True)
    assert np.array_equal(slots, np.arange(n, n + 16))
    ids = A0.col_global[remote][first]
    assert np.all(np.diff(ids) > 0)
    d1 = gp.domain(1)
    assert all(owns_global(d1, int(g)) for g in ids)
    assert np.array_equal(np.unique(A0.col_global[remote]), ids)
    # rows at the interface keep their full stencil width
    face_rows = np.flatnonzero(remote.any(axis=1))
    assert len(face_rows) == 16
    assert np.all(A0.row_nnz[face_rows] >= 12)


def test_low_precision_copy_shares_structure():
    A = with_sets(_single_rank(4, 4, 4))
    L = to_low_precision(A)
    assert L.values.dtype == np.float32
    assert np.array_equal(L.values.astype(np.float64), A.values)  # exact
    assert L.chunk_cols is A.chunk_cols
    assert L.col_gid is A.col_gid
    assert L.row_nnz is A.row_nnz
    assert L.diag_pos is A.diag_pos
    assert L.sets is None       # float64 row sets would refuse its vectors
    assert structure_signature(L) == structure_signature(A)


def test_structure_signature_distinguishes_problems():
    assert structure_signature(_single_rank(4, 4, 4)) != \
        structure_signature(_single_rank(2, 2, 2))


def test_every_level_indexes_in_range_and_pads_with_its_own_row():
    # Kernels read col_idx as stored: every entry indexes the halo-tailed
    # vector, and each padding slot holds its own
    # row with the value 0.0, in both precisions.
    gp = GlobalProblem.from_local(8, 8, 8, 2)

    def worker(world, rank):
        h = build_hierarchy(gp.domain(rank), 3, world, rank)
        for lv in h.levels:
            A = lv.A_hi
            pad = padding_mask(A)
            assert pad.any() and A.n_cols_extended > A.n_rows
            assert A.col_idx.dtype == np.int32
            assert A.col_idx.min() >= 0
            assert A.col_idx.max() < A.n_cols_extended
            own = np.broadcast_to(np.arange(A.n_rows)[:, None], pad.shape)
            assert np.array_equal(A.col_idx[pad], own[pad])
            assert np.all(A.values[pad] == 0.0)
            assert np.all(lv.A_lo.values[pad] == 0.0)
        return len(h.levels)

    assert RankWorld(2).run(worker) == [3, 3]


def _stencil_gids(dom, perm):
    """Each stored row's global id, and the ascending global ids of its
    in-grid 3x3x3 neighbours (itself included; -1 past its count), from grid
    coordinates alone."""
    g = dom.coords()[:, perm] + np.array([[dom.ox], [dom.oy], [dom.oz]])
    gdims = np.array([[dom.gnx], [dom.gny], [dom.gnz]])
    steps = np.indices((3, 3, 3)).reshape(3, -1) - 1
    nb = g[:, :, None] + steps[:, None, :]            # 3 x n x 27
    inside = ((nb >= 0) & (nb < gdims[:, :, None])).all(axis=0)
    ids = np.where(inside, nb[0] + dom.gnx * (nb[1] + dom.gny * nb[2]),
                   np.iinfo(np.int64).max)
    ids = np.sort(ids, axis=1)
    ids[np.arange(27) >= inside.sum(axis=1)[:, None]] = -1
    return g[0] + dom.gnx * (g[1] + dom.gny * g[2]), ids


@pytest.mark.parametrize("ranks", [2, 8])
def test_levels_store_two_entry_arrays_and_derive_global_ids(ranks):
    # Only the value and column chunks hold one entry per slot, padded to
    # whole 256-row chunks; col_global, derived from the per-column ids,
    # names every row's stencil neighbours from the grid, and a padding
    # slot names the row itself.
    gp = GlobalProblem.from_local(4, 4, 4, ranks)

    def worker(world, rank):
        h = build_hierarchy(gp.domain(rank), 3, world, rank)
        for lv in h.levels:
            own, want = _stencil_gids(lv.domain, lv.coloring.perm)
            for A in (lv.A_hi, lv.A_lo):
                n, width = A.n_rows, A.width
                stored = -(-n // 256) * 256 * width
                big = {f.name for f in fields(A)
                       if isinstance(getattr(A, f.name), np.ndarray)
                       and getattr(A, f.name).size == stored}
                assert big == {"chunk_values", "chunk_cols"}
                assert A.n_cols_extended == len(A.col_gid)
                pad = padding_mask(A)
                assert np.array_equal(np.where(pad, -1, A.col_global), want)
                assert np.array_equal(
                    A.col_global[pad], np.broadcast_to(own[:, None],
                                                       pad.shape)[pad])
        return len(h.levels)

    assert RankWorld(ranks).run(worker) == [3] * ranks


def _packs(chunks, n, want):
    """True if the SELL ``chunks`` hold the rows ``want`` of n, then padding
    rows of zeros."""
    rows = from_chunks(chunks)
    return (len(rows) == -(-n // 256) * 256 and np.array_equal(rows[:n], want)
            and not rows[n:].any())


def test_kernel_sets_pack_the_rows_they_name_in_chunks():
    gp = GlobalProblem.from_local(4, 4, 4, 2)

    def worker(world, rank):
        h = build_hierarchy(gp.domain(rank), 2, world, rank)
        fine, coarse = h.levels
        color0 = fine.coloring.color_offsets[1]
        for A in (fine.A_hi, fine.A_lo):
            # one pack: exactly the rows that read a halo slot, and its
            # relax set's one block is their colour-0 rows
            dot, relax0 = A.sets.halo
            vals, cols, rows = dot.arrays
            assert np.array_equal(
                rows, np.flatnonzero((A.col_idx >= A.n_rows).any(axis=1)))
            assert _packs(vals, len(rows), A.values[rows])
            assert _packs(cols, len(rows), A.col_idx[rows])
            assert all(a is b for a, b in zip(relax0.arrays, dot.arrays))
            assert relax0.n_blocks == 1
            assert list(relax0.arrays[-1]) == [0, np.sum(rows < color0)]
            f2c, dot, nnz = A.sets.restrict
            vals, cols, _ = dot.arrays
            assert f2c is coarse.f2c
            assert _packs(vals, len(f2c), A.values[f2c])
            assert _packs(cols, len(f2c), A.col_idx[f2c])
            assert nnz == A.row_nnz[f2c].sum()
        return True

    assert RankWorld(2).run(worker) == [True, True]


@pytest.mark.parametrize("shape", [(4, 4, 4), (16, 16, 17)])
def test_generate_matrix_writes_sell_chunks(shape):
    # 64 rows fill part of one chunk; 4,352 rows are 17 chunks, the last
    # one full.  The derived n x 27 arrays read the same entries.
    A = generate_matrix(GlobalProblem.from_local(*shape, 1).domain(0))
    for chunks, derived in ((A.chunk_values, A.values),
                            (A.chunk_cols, A.col_idx)):
        assert chunks.shape == (-(-A.n_rows // 256), A.width, 256)
        assert _packs(chunks, A.n_rows, derived)
        assert derived.shape == (A.n_rows, A.width)
    assert np.array_equal(A.col_global, A.col_gid[A.col_idx])


def test_derived_entry_arrays_refuse_writes():
    A = _single_rank(4, 4, 4)
    for name in ("values", "col_idx", "col_global"):
        derived = getattr(A, name)
        with pytest.raises(ValueError, match="read-only"):
            derived[0, A.diag_pos[0]] = 0
    assert A.values[0, A.diag_pos[0]] == 26.0


def test_matrix_market_output(tmp_path):
    A = _single_rank(2, 2, 2)
    path = tmp_path / "box.mtx"
    write_matrix_market(path, A)
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
    # The helper packs either layout into SELL chunks for the kernel.
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
