"""Multicolor orderings: greedy and randomized, colored-order assembly, and
the system permutation it replaces."""

from dataclasses import fields

import numpy as np

from mxpbench.coloring import _jones_plassmann, color, permute_system
from mxpbench.geometry import GlobalProblem
from mxpbench.problem import generate_matrix, generate_rhs

from _oracles import (check_coloring, colors_of, dense_stencil_3d,
                      ell_to_dense, greedy_color_dense, greedy_color_sequential,
                      identity_coloring, jpl_color_sequential,
                      local_adjacency, local_pattern, owned_neighbors)


def _domain(nx, ny, nz, ranks=1, rank=0):
    return GlobalProblem.from_local(nx, ny, nz, ranks).domain(rank)


def _stencil_matrix(nx, ny, nz, ranks=1, rank=0):
    return generate_matrix(_domain(nx, ny, nz, ranks, rank))


def _rank_domains(local, ranks):
    """Every rank's box of a ``ranks``-rank split of ``local``^3 boxes."""
    return [_domain(local, local, local, ranks, r) for r in range(ranks)]


def _box_domains():
    """Boxes of every kind: 1-rank boxes, some with axes of length 1, every
    rank of an 8-rank 8^3 split and of a 2-rank 16^3 split."""
    return ([_domain(*dims) for dims in ((4, 4, 4), (4, 6, 8), (3, 5, 7),
                                         (6, 6, 1), (1, 3, 4), (1, 1, 1))]
            + _rank_domains(8, 8) + _rank_domains(16, 2))


def test_greedy_uses_8_colors_on_3d_stencil():
    for dims in ((4, 4, 4), (8, 8, 8), (4, 6, 8)):
        dom = _domain(*dims)
        c = color(dom, "greedy")
        assert c.num_colors == 8
        assert check_coloring(generate_matrix(dom), c)


def test_greedy_uses_4_colors_on_2d_stencil():
    # A depth-1 box: the 27-point stencil couples only its 3x3 plane.
    for nx, ny in ((4, 4), (6, 5), (8, 8)):
        dom = _domain(nx, ny, 1)
        c = color(dom, "greedy")
        assert c.num_colors == 4
        assert check_coloring(generate_matrix(dom), c)


def test_greedy_matches_first_fit_oracle():
    c = color(_domain(4, 4, 4), "greedy")
    assert np.array_equal(colors_of(c),
                          greedy_color_dense(dense_stencil_3d(4, 4, 4)))
    for dom in _box_domains():
        c = color(dom, "greedy")
        adj = local_adjacency(generate_matrix(dom))
        assert np.array_equal(colors_of(c), greedy_color_sequential(adj))


def test_jpl_matches_sequential_oracle():
    for dom in [_domain(4, 4, 4), _domain(16, 16, 16)] + _rank_domains(8, 8):
        adj = local_adjacency(generate_matrix(dom))
        for seed in range(20):
            c = color(dom, "jpl", seed=seed)
            assert np.array_equal(colors_of(c),
                                  jpl_color_sequential(adj, seed))


class _ConstantRng:
    def random(self, n):
        return np.full(n, 0.5)


def test_jpl_weight_ties_go_to_the_higher_row():
    # With every weight equal, the key (w[i], i) orders rows by index alone,
    # so Jones-Plassmann is first-fit greedy in descending row order.
    for A in [_stencil_matrix(4, 4, 4), _stencil_matrix(4, 6, 8)] \
            + [generate_matrix(d) for d in _rank_domains(8, 8)[:2]]:
        D = local_pattern(A)
        got = _jones_plassmann(owned_neighbors(A), _ConstantRng())
        assert np.array_equal(got, greedy_color_dense(D[::-1, ::-1])[::-1])


def test_jpl_valid_for_100_seeds():
    dom = _domain(4, 4, 4)
    A = generate_matrix(dom)
    for seed in range(100):
        c = color(dom, "jpl", seed=seed)
        assert check_coloring(A, c)
        assert c.num_colors <= 28     # max degree + 1 for the 27-point stencil


def test_jpl_deterministic_per_seed():
    dom = _domain(4, 4, 4)
    a = color(dom, "jpl", seed=11)
    b = color(dom, "jpl", seed=11)
    assert np.array_equal(a.color_offsets, b.color_offsets)
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
    c = color(_domain(4, 4, 4), "greedy")
    want = greedy_color_dense(dense_stencil_3d(4, 4, 4))
    assert c.color_offsets[-1] == 64
    for cc in range(c.num_colors):
        lo, hi = c.color_offsets[cc], c.color_offsets[cc + 1]
        block = c.perm[lo:hi]
        assert np.all(np.diff(block) > 0)       # ascending original ids
        assert np.all(want[block] == cc)
    assert np.array_equal(c.iperm[c.perm], np.arange(64))


def test_generated_in_colored_order_equals_the_permuted_system():
    for dom in _box_domains():
        A = generate_matrix(dom)
        for strategy, seed in (("greedy", 0), ("jpl", 0), ("jpl", 3),
                               ("jpl", 11)):
            c = color(dom, strategy, seed)
            got = generate_matrix(dom, c.perm)
            ref = permute_system(A, c)
            for f in fields(ref):
                a, b = getattr(got, f.name), getattr(ref, f.name)
                if isinstance(b, np.ndarray):    # same bytes, same layout
                    assert a.dtype == b.dtype and a.strides == b.strides
                    assert np.array_equal(a, b), f.name
                else:
                    assert a == b, f.name


def test_permute_system_is_symmetric_permutation():
    dom = _domain(4, 4, 4)
    A = generate_matrix(dom)
    vecs = generate_rhs(A)
    c = color(dom, "greedy")
    Ap = permute_system(A, c)
    D = dense_stencil_3d(4, 4, 4)
    P = np.eye(A.n_rows)[c.perm]
    assert np.array_equal(ell_to_dense(Ap), P @ D @ P.T)
    assert np.array_equal(generate_rhs(Ap).b, vecs.b[c.perm])
    # global column ids are untouched by the symmetric relabeling
    assert np.array_equal(Ap.col_global, A.col_global[c.perm])
    rows = np.arange(Ap.n_rows)
    assert np.all(Ap.values[rows, Ap.diag_pos] == 26.0)


def test_permuted_rows_keep_ascending_global_order():
    dom = _domain(4, 4, 4, ranks=2, rank=0)
    Ap = generate_matrix(dom, color(dom, "greedy").perm)
    for i in range(Ap.n_rows):
        cg = Ap.col_global[i, :Ap.row_nnz[i]]
        assert np.all(np.diff(cg) > 0)
