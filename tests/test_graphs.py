"""Graph generators, matrix construction, and the edge-list/CSV file formats."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import FINITE_DOUBLES, choice_preferential_attachment
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_scope import (
    Graph,
    GraphMatrixKind,
    assign_uniform_weights,
    build_matrix,
    generate_preferential_attachment,
    generate_ring,
    read_matrix_csv,
    write_graph_tsv,
    write_matrix_csv,
)
from spectral_scope.graphs import _pick

# =========================================================================
# Generators
# =========================================================================


def test_pa_two_nodes_is_the_single_edge():
    g = generate_preferential_attachment(2, 1, seed=0)
    assert g.n == 2
    assert [tuple(sorted((u, v))) for u, v, _ in g.edges] == [(0, 1)]


def test_pa_edge_count_follows_construction_rule():
    # clique on m nodes plus m attachments per later node
    g = generate_preferential_attachment(10, 2, seed=7)
    assert g.num_edges == 1 + 2 * 8 == 17
    g3 = generate_preferential_attachment(12, 3, seed=1)
    assert g3.num_edges == 3 + 3 * 9


def test_pa_is_deterministic_per_seed():
    a = generate_preferential_attachment(10, 2, seed=7)
    b = generate_preferential_attachment(10, 2, seed=7)
    assert a.edges == b.edges


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_pa_is_connected(seed):
    g = generate_preferential_attachment(9, 2, seed=seed)
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == set(range(g.n))


@pytest.mark.parametrize("n, m", [(10, 2), (30, 3), (7, 1), (5, 5), (12, 4), (2, 1), (1, 1)])
def test_pa_draws_the_edges_of_one_choice_call_per_target(n, m):
    for seed in range(150):
        assert generate_preferential_attachment(n, m, seed=seed) == choice_preferential_attachment(
            n, m, seed=seed
        ), seed


@settings(max_examples=300, deadline=None)
@given(
    weight=st.lists(st.integers(0, 50), min_size=1, max_size=40).filter(any),
    seed=st.integers(0, 2**63),
    data=st.data(),
)
def test_a_pick_is_the_index_choice_returns_for_its_uniform(weight, seed, data):
    w = np.array(weight, dtype=float)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _pick(weight, twin.random()) == rng.choice(len(w), p=w / w.sum())
    # what choice does with its draw; a different rounding or side of the
    # search shows only at the cdf's own entries and their neighbours
    cdf = np.cumsum(w / w.sum())
    cdf /= cdf[-1]
    edges = [float(v) for c in cdf for v in (np.nextafter(c, 0), c, np.nextafter(c, 1)) if v < 1]
    u = data.draw(st.sampled_from(edges) | st.floats(0, 1, exclude_max=True))
    assert _pick(weight, u) == int(cdf.searchsorted(u, side="right"))


@settings(max_examples=150, deadline=None)
@given(
    shape=st.integers(1, 70).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(n, 8)))),
    seed=st.integers(0, 2**63),
)
def test_pa_leaves_a_passed_generator_where_choice_leaves_it(shape, seed):
    n, m = shape
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert generate_preferential_attachment(n, m, seed=ours) == choice_preferential_attachment(n, m, seed=ref)
    assert ours.bit_generator.state == ref.bit_generator.state


def test_ring_directed_orients_every_edge_forward():
    g = generate_ring(3, directed=True)
    assert [(u, v) for u, v, _ in g.edges] == [(0, 1), (1, 2), (2, 0)]
    g8 = generate_ring(8, directed=True)
    assert g8.num_edges == 8
    out_degree = np.zeros(8, dtype=int)
    for u, _, _ in g8.edges:
        out_degree[u] += 1
    assert np.all(out_degree == 1)


def test_ring_two_nodes_undirected_is_one_edge():
    g = generate_ring(2, directed=False)
    assert [(u, v) for u, v, _ in g.edges] == [(0, 1)]


def test_uniform_weights_stay_in_range_and_repeat():
    g = generate_ring(8, directed=True)
    w1 = assign_uniform_weights(g, -1.0, 1.0, seed=3)
    w2 = assign_uniform_weights(g, -1.0, 1.0, seed=3)
    assert w1.edges == w2.edges
    assert all(-1.0 <= w < 1.0 for _, _, w in w1.edges)
    assert [(u, v) for u, v, _ in w1.edges] == [(u, v) for u, v, _ in g.edges]


def test_uniform_weights_degenerate_interval_pins_weights():
    g = generate_ring(5)
    w = assign_uniform_weights(g, 1.0, 1.0 + 1e-12, seed=0)
    assert all(abs(wi - 1.0) < 1e-11 for _, _, wi in w.edges)


# =========================================================================
# Matrix construction
# =========================================================================

SWAP_GRAPH = Graph(n=2, edges=((0, 1, 1.0),), directed=False)


def test_adjacency_of_single_undirected_edge():
    M = build_matrix(SWAP_GRAPH, GraphMatrixKind.ADJACENCY)
    assert np.array_equal(M, [[0.0, 1.0], [1.0, 0.0]])


def test_laplacian_of_single_undirected_edge():
    M = build_matrix(SWAP_GRAPH, GraphMatrixKind.LAPLACIAN)
    assert np.array_equal(M, [[1.0, -1.0], [-1.0, 1.0]])


def test_normalized_adjacency_of_single_undirected_edge():
    M = build_matrix(SWAP_GRAPH, GraphMatrixKind.ROW_STOCHASTIC)
    assert np.array_equal(M, [[0.0, 1.0], [1.0, 0.0]])


def test_multi_edge_weights_sum():
    g = Graph(n=2, edges=((0, 1, 0.5), (0, 1, 0.25)))
    M = build_matrix(g, GraphMatrixKind.ADJACENCY)
    assert M[0, 1] == M[1, 0] == 0.75


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_normalized_rows_sum_to_one_for_positive_weights(seed):
    g = generate_preferential_attachment(8, 2, seed=seed)
    g = assign_uniform_weights(g, 0.1, 2.0, seed=seed)
    M = build_matrix(g, GraphMatrixKind.ROW_STOCHASTIC)
    assert np.max(np.abs(M.sum(axis=1) - 1.0)) < 1e-12


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_laplacian_annihilates_the_ones_vector(seed):
    g = generate_preferential_attachment(8, 2, seed=seed)
    g = assign_uniform_weights(g, -1.0, 1.0, seed=seed)
    L = build_matrix(g, GraphMatrixKind.LAPLACIAN)
    assert np.max(np.abs(L @ np.ones(8))) < 1e-12


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_adjacency_sparsity_matches_edge_set(seed):
    g = generate_preferential_attachment(8, 2, seed=seed)
    g = assign_uniform_weights(g, 0.5, 1.5, seed=seed)
    A = build_matrix(g, GraphMatrixKind.ADJACENCY)
    allowed = set()
    for u, v, _ in g.edges:
        allowed.add((u, v))
        allowed.add((v, u))
    assert set(zip(*np.nonzero(A))) <= allowed


def test_degree_matrix_is_diagonal_of_row_sums():
    g = assign_uniform_weights(generate_ring(5), -1.0, 1.0, seed=9)
    A = build_matrix(g, GraphMatrixKind.ADJACENCY)
    D = build_matrix(g, GraphMatrixKind.DEGREE)
    assert np.array_equal(D, np.diag(A.sum(axis=1)))


# =========================================================================
# File formats
# =========================================================================


def test_graph_tsv_holds_the_header_and_every_edge_to_17_digits(tmp_path):
    g = Graph(n=3, edges=((0, 1, 0.1), (2, 0, -1.5), (0, 1, 1e-300)), directed=True)
    write_graph_tsv(g, tmp_path / "g.tsv")
    assert (tmp_path / "g.tsv").read_text() == "# n=3 directed=1\n0\t1\t0.10000000000000001\n2\t0\t-1.5\n0\t1\t1e-300\n"


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(FINITE_DOUBLES, min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=100, deadline=None)
def test_matrix_csv_roundtrip_is_exact(rows):
    M = np.array(rows)
    with tempfile.TemporaryDirectory() as tmp:
        write_matrix_csv(M, Path(tmp) / "m.csv")
        back = read_matrix_csv(Path(tmp) / "m.csv")
    # tobytes, since array_equal takes -0.0 for 0.0
    assert back.shape == M.shape and back.tobytes() == M.tobytes()
