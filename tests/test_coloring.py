"""Multicolor orderings: greedy and randomized, plus the system permutation."""

import numpy as np

from mxpbench.coloring import (_jones_plassmann, _neighbors, color,
                               permute_system)
from mxpbench.geometry import GlobalProblem
from mxpbench.problem import generate_matrix, generate_rhs

from _oracles import (check_coloring, dense_stencil_2d, dense_stencil_3d,
                      ell_from_dense, ell_to_dense, greedy_color_dense,
                      identity_coloring, jpl_color_sequential,
                      local_adjacency, local_pattern)


def _stencil_matrix(nx, ny, nz, ranks=1, rank=0):
    gp = GlobalProblem.from_local(nx, ny, nz, ranks)
    return generate_matrix(gp.domain(rank))


def test_greedy_uses_8_colors_on_3d_stencil():
    for dims in ((4, 4, 4), (8, 8, 8), (4, 6, 8)):
        A = _stencil_matrix(*dims)
        c = color(A, "greedy")
        assert c.num_colors == 8
        assert check_coloring(A, c)


def test_greedy_uses_4_colors_on_2d_stencil():
    for nx, ny in ((4, 4), (6, 5), (8, 8)):
        A = ell_from_dense(dense_stencil_2d(nx, ny))
        c = color(A, "greedy")
        assert c.num_colors == 4
        assert check_coloring(A, c)


def _rank_blocks():
    """Each rank block of an 8-rank 8^3 split (blocks hold UNRESOLVED halo)."""
    return [_stencil_matrix(8, 8, 8, ranks=8, rank=r) for r in range(8)]


def test_greedy_matches_first_fit_oracle():
    A = _stencil_matrix(4, 4, 4)
    c = color(A, "greedy")
    assert np.array_equal(c.color, greedy_color_dense(dense_stencil_3d(4, 4, 4)))
    for A in [_stencil_matrix(4, 6, 8)] + _rank_blocks():
        c = color(A, "greedy")
        assert np.array_equal(c.color, greedy_color_dense(local_pattern(A)))


def test_jpl_matches_sequential_oracle():
    for A in [_stencil_matrix(4, 4, 4), _stencil_matrix(16, 16, 16)] \
            + _rank_blocks():
        adj = local_adjacency(A)
        for seed in range(20):
            c = color(A, "jpl", seed=seed)
            assert np.array_equal(c.color, jpl_color_sequential(adj, seed))


class _ConstantRng:
    def random(self, n):
        return np.full(n, 0.5)


def test_jpl_weight_ties_go_to_the_higher_row():
    # With every weight equal, the key (w[i], i) orders rows by index alone,
    # so Jones-Plassmann is first-fit greedy in descending row order.
    for A in [_stencil_matrix(4, 4, 4), _stencil_matrix(4, 6, 8)] \
            + _rank_blocks()[:2]:
        D = local_pattern(A)
        got = _jones_plassmann(_neighbors(A), _ConstantRng())
        assert np.array_equal(got, greedy_color_dense(D[::-1, ::-1])[::-1])


def test_jpl_valid_for_100_seeds():
    A = _stencil_matrix(4, 4, 4)
    for seed in range(100):
        c = color(A, "jpl", seed=seed)
        assert check_coloring(A, c)
        assert c.num_colors <= 28     # max degree + 1 for the 27-point stencil


def test_jpl_deterministic_per_seed():
    A = _stencil_matrix(4, 4, 4)
    a = color(A, "jpl", seed=11)
    b = color(A, "jpl", seed=11)
    assert np.array_equal(a.color, b.color)
    assert np.array_equal(a.perm, b.perm)


def test_check_coloring_rejects_conflicts():
    A = _stencil_matrix(2, 2, 2)
    c = identity_coloring(A.n_rows)   # one color for an all-coupled box
    assert not check_coloring(A, c)


def test_identity_coloring_shape():
    c = identity_coloring(5)
    assert c.num_colors == 1
    assert np.array_equal(c.perm, np.arange(5))
    assert list(c.color_offsets) == [0, 5]


def test_permutation_sorts_by_color_then_row():
    A = _stencil_matrix(4, 4, 4)
    c = color(A, "greedy")
    sorted_colors = c.color[c.perm]
    assert np.all(np.diff(sorted_colors) >= 0)
    for cc in range(c.num_colors):
        lo, hi = c.color_offsets[cc], c.color_offsets[cc + 1]
        block = c.perm[lo:hi]
        assert np.all(np.diff(block) > 0)       # ascending original ids
        assert np.all(c.color[block] == cc)
    assert np.array_equal(c.iperm[c.perm], np.arange(A.n_rows))


def test_permute_system_is_symmetric_permutation():
    A = _stencil_matrix(4, 4, 4)
    vecs = generate_rhs(A)
    c = color(A, "greedy")
    Ap, (bp,) = permute_system(A, [vecs.b], c)
    D = dense_stencil_3d(4, 4, 4)
    P = np.eye(A.n_rows)[c.perm]
    assert np.array_equal(ell_to_dense(Ap), P @ D @ P.T)
    assert np.array_equal(bp, vecs.b[c.perm])
    # global column ids are untouched by the symmetric relabeling
    assert np.array_equal(Ap.col_global, A.col_global[c.perm])
    rows = np.arange(Ap.n_rows)
    assert np.all(Ap.values[rows, Ap.diag_pos] == 26.0)


def test_permuted_rows_keep_ascending_global_order():
    A = _stencil_matrix(4, 4, 4, ranks=2, rank=0)
    vecs = generate_rhs(A)
    c = color(A, "greedy")
    Ap, _ = permute_system(A, [vecs.b], c)
    for i in range(Ap.n_rows):
        cg = Ap.col_global[i, :Ap.row_nnz[i]]
        assert np.all(np.diff(cg) > 0)
