"""Canonical labeling: relabeling invariance and color handling."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfactor import canon, corpus
from specfactor.canon import canonical_key, canonical_labeling
from specfactor.constructions import complete_graph, cycle, petersen
from specfactor.graph import Graph

from conftest import random_graph, reference_canonical_labeling


def permuted(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_key_is_isomorphism_invariant(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 9)
    g = random_graph(n, rng.random(), rng)
    perm = list(range(n))
    rng.shuffle(perm)
    assert canonical_key(g) == canonical_key(permuted(g, perm))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_labeling_permutation_is_consistent(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 9)
    g = random_graph(n, rng.random(), rng)
    key, perm = canonical_labeling(g)
    # perm[i] names the original vertex placed at canonical position i
    assert sorted(perm) == list(range(n))
    rebuilt = Graph(
        n,
        [
            (perm.index(u), perm.index(v))
            for u, v in g.edges()
        ],
    )
    assert rebuilt.rows == key[0]


def test_distinct_graphs_have_distinct_keys():
    # non-isomorphic pairs with equal degree sequences
    c6 = cycle(6)
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert canonical_key(c6) != canonical_key(two_triangles)


def test_colors_enter_the_key():
    g = cycle(4)
    plain = canonical_key(g)
    colored = canonical_key(g, colors=[0, 1, 0, 1])
    assert plain != colored
    # recoloring consistently with an automorphism leaves the key alone
    assert colored == canonical_key(g, colors=[1, 0, 1, 0])


def test_colored_key_carries_input_colors():
    g = cycle(4)
    key = canonical_key(g, colors=[0, 1, 0, 1])
    assert sorted(key[1]) == [0, 0, 1, 1]


@pytest.mark.parametrize("colors", [[0, 1, 0], [0, 1, 0, 1, 0]])
def test_color_list_must_match_vertex_count(colors):
    with pytest.raises(ValueError, match="color list length"):
        canonical_labeling(cycle(4), colors)


def test_canonical_graph_is_reproducible():
    # the canonical form, rebuilt as a graph, is its own canonical form
    g = petersen()
    cg = Graph.from_rows(canonical_key(g)[0])
    assert Graph.from_rows(canonical_key(cg)[0]) == cg
    assert canonical_key(cg) == canonical_key(g)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_labeling_matches_full_signature_reference(data):
    n = data.draw(st.integers(min_value=0, max_value=11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, k in zip(pairs, keep) if k])
    color = st.integers(min_value=-2, max_value=2) | st.integers()
    colors = data.draw(st.none() | st.lists(color, min_size=n, max_size=n))
    assert canonical_labeling(g, colors) == reference_canonical_labeling(g, colors)[:2]


def test_enumerator_labelings_match_reference(monkeypatch):
    made = []

    def recording_key(g, colors=None):
        made.append((g, None if colors is None else tuple(colors)))
        return canonical_key(g, colors)

    monkeypatch.setattr(corpus, "canonical_key", recording_key)
    monkeypatch.setattr(corpus, "_connected_cache", {})
    monkeypatch.setattr(corpus, "_regular_cache", {})
    for n in range(1, 7):
        corpus.enumerate_connected_graphs(n)
    corpus.enumerate_connected_regular(8, 3)
    corpus.enumerate_connected_regular(9, 4)
    assert len(made) > 1000
    for g, colors in made:
        assert canonical_labeling(g, colors) == reference_canonical_labeling(g, colors)[:2]


def _cube() -> Graph:
    return Graph(8, [(v, v ^ 1 << i) for v in range(8) for i in range(3) if v < v ^ 1 << i])


# a frontier state of the (10, 5) regular enumeration, colored by its deficits
_STATE_10_5 = Graph.from_rows([28, 540, 355, 419, 227, 540, 532, 536, 524, 482])


@pytest.mark.parametrize(
    "g, colors",
    [
        (petersen(), None),
        (cycle(8), None),
        (_cube(), [bin(v).count("1") % 2 for v in range(8)]),
        (Graph(6, [(u, v) for u in range(3) for v in range(3, 6)]), None),
        (_STATE_10_5, [5 - d for d in _STATE_10_5.degrees()]),
    ],
    ids=["petersen", "cycle8", "cube_bipartition", "k33", "state_10_5"],
)
def test_node_budget_admits_exactly_the_reference_search(g, colors, monkeypatch):
    key, perm, nodes = reference_canonical_labeling(g, colors)
    monkeypatch.setattr(canon, "_NODE_BUDGET", nodes)
    assert canonical_labeling(g, colors) == (key, perm)
    monkeypatch.setattr(canon, "_NODE_BUDGET", nodes - 1)
    with pytest.raises(RuntimeError, match="node budget exceeded"):
        canonical_labeling(g, colors)


@pytest.mark.parametrize("n", [7, 8, 15, 16, 17])
def test_packed_counts_match_reference_where_counts_reach_n_minus_1(n):
    # n.bit_length() bits per packed count; these n sit at both sides of a
    # change in that width, and K_n's counts reach n - 1
    rng = random.Random(n)
    full = complete_graph(n)
    # K_n minus the matching {0, 1}, {2, 3}, ...; uncolored, its search
    # tree grows like (n - 1)!!, too large for the reference beyond n = 8
    unmatched = Graph.from_rows([r & ~(1 << (v ^ 1)) for v, r in enumerate(full.rows)])
    two = [(v // 2) % 2 for v in range(n)]
    three = [(v // 2) % 3 - 1 for v in range(n)]
    cases = [(unmatched, two), (unmatched, three)]
    if n <= 8:
        cases.append((unmatched, None))
    for g in (full, random_graph(n, 0.5, rng), random_graph(n, 0.85, rng)):
        cases += [(g, None), (g, two), (g, three)]
    for g, colors in cases:
        assert canonical_labeling(g, colors) == reference_canonical_labeling(g, colors)[:2]
