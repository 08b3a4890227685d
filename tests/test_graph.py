"""Core graph type: construction, accessors, and the set operations."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfactor.constructions import (
    complete_graph,
    cycle,
    empty_graph,
    matching,
    path,
)
from specfactor.graph import (
    Graph,
    bits,
    complement,
    connected_components,
    disjoint_union,
    induced_subgraph,
    join,
)

from conftest import random_graph


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.edge_count == 4
    assert g.degrees() == (2, 2, 2, 2)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert tuple(g.neighbors(0)) == (1, 3)
    assert g.is_regular()
    assert g.is_connected()
    assert sum(g.degrees()) == 2 * g.edge_count


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_empty_graph_edge_cases():
    g = Graph(0, [])
    assert g.n == 0
    assert g.edges() == []
    assert g.is_connected()  # vacuously
    assert Graph(1, []).is_connected()
    assert not Graph(2, []).is_connected()


def test_equality_and_hash_are_label_sensitive():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    c = Graph(3, [(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_complement_examples():
    assert complement(complete_graph(4)) == empty_graph(4)
    assert complement(empty_graph(3)) == complete_graph(3)
    # complete_graph is built as a complement, so check it against its edges
    for n in range(9):
        assert complete_graph(n) == Graph(n, combinations(range(n), 2))
    c5 = cycle(5)
    cc = complement(c5)
    assert cc.degrees() == (2, 2, 2, 2, 2)
    assert cc.is_connected()
    assert complement(cc) == c5


def test_join_examples():
    assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)
    g = join(complete_graph(3), empty_graph(2))
    assert g.n == 5
    assert g.edge_count == 9
    assert sorted(g.degrees(), reverse=True) == [4, 4, 4, 3, 3]
    kab = join(empty_graph(2), empty_graph(3))
    assert kab.edge_count == 6
    assert sorted(kab.degrees()) == [2, 2, 2, 3, 3]


def test_disjoint_union_examples():
    assert disjoint_union(complete_graph(1), complete_graph(1)) == empty_graph(2)
    g = disjoint_union(complete_graph(3), complete_graph(3))
    assert g.n == 6 and g.edge_count == 6
    assert g.is_regular() and not g.is_connected()
    h = disjoint_union(path(4), matching(1))
    assert h.n == 6 and h.edge_count == 4


def test_induced_subgraph_examples():
    assert induced_subgraph(complete_graph(5), [0, 1, 2]) == complete_graph(3)
    p = induced_subgraph(cycle(5), [0, 1, 2])
    assert p == path(3)
    assert induced_subgraph(complete_graph(4), []).n == 0
    with pytest.raises(ValueError):
        induced_subgraph(complete_graph(3), [0, 5])


def test_bits():
    assert list(bits(0)) == []
    assert list(bits(1)) == [0]
    assert list(bits(1 << 40)) == [40]
    assert list(bits(0b1011_0010)) == [1, 4, 5, 7]
    mask = (1 << 63) | (1 << 33) | 5
    assert list(bits(mask)) == [0, 2, 33, 63]


def test_connected_components_examples():
    assert connected_components(complete_graph(4)) == [[0, 1, 2, 3]]
    two = connected_components(disjoint_union(complete_graph(3), complete_graph(3)))
    assert two == [[0, 1, 2], [3, 4, 5]]
    assert connected_components(empty_graph(3)) == [[0], [1], [2]]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    return random_graph(n, p, random.Random(seed))


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_complement_involution_and_edge_count(g):
    cg = complement(g)
    assert complement(cg) == g
    assert g.edge_count + cg.edge_count == g.n * (g.n - 1) // 2


@given(small_graphs(), small_graphs())
@settings(max_examples=100, deadline=None)
def test_join_degree_law(g1, g2):
    j = join(g1, g2)
    assert j.n == g1.n + g2.n
    assert j.edge_count == g1.edge_count + g2.edge_count + g1.n * g2.n
    for v in range(g1.n):
        assert j.degree(v) == g1.degree(v) + g2.n
    for v in range(g2.n):
        assert j.degree(g1.n + v) == g2.degree(v) + g1.n


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_components_partition(g):
    comps = connected_components(g)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(g.n))
    assert len(set(seen)) == g.n
    for comp in comps:
        sub = induced_subgraph(g, comp)
        assert sub.is_connected()
    # no edges between different components
    where = {}
    for i, comp in enumerate(comps):
        for v in comp:
            where[v] = i
    for u, v in g.edges():
        assert where[u] == where[v]


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_induced_subgraph_preserves_adjacency(g):
    rng = random.Random(g.n * 977 + g.edge_count)
    vs = sorted(v for v in range(g.n) if rng.random() < 0.5)
    sub = induced_subgraph(g, vs)
    assert sub.n == len(vs)
    for i, u in enumerate(vs):
        for j, v in enumerate(vs):
            assert sub.has_edge(i, j) == g.has_edge(u, v)
