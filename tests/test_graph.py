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
    matching,
    path,
)
from specfactor.graph import (
    Graph,
    bits,
    complement,
    component_masks,
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
    assert g.rows == (0b1010, 0b0101, 0b1010, 0b0101)
    assert tuple(bits(g.row(0))) == (1, 3)
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
    with pytest.raises(ValueError, match="outside 0..1"):
        Graph.from_rows([0b100, 0])
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_rows([0b1])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph.from_rows([0b10, 0])


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
    assert complement(complete_graph(4)) == Graph(4)
    assert complement(Graph(3)) == complete_graph(3)
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
    g = join(complete_graph(3), Graph(2))
    assert g.n == 5
    assert g.edge_count == 9
    assert sorted(g.degrees(), reverse=True) == [4, 4, 4, 3, 3]
    kab = join(Graph(2), Graph(3))
    assert kab.edge_count == 6
    assert sorted(kab.degrees()) == [2, 2, 2, 3, 3]


def test_disjoint_union_examples():
    assert disjoint_union(complete_graph(1), complete_graph(1)) == Graph(2)
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
    with pytest.raises(ValueError, match="vertex 5 out of range"):
        induced_subgraph(complete_graph(3), [0, 5])
    # a repeated vertex is refused, not silently merged
    with pytest.raises(ValueError, match="lists vertex 1 more than once"):
        induced_subgraph(complete_graph(3), [1, 0, 1])


def test_bits():
    def want(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    dense = (1 << 64) - 1 - (1 << 17) - (1 << 40)
    for mask in (0, 1, 255, 256, 0xFFFF, 1 << 16, (1 << 16) | 1, 1 << 40, 0b1011_0010, dense):
        assert list(bits(mask)) == want(mask)
    # a returned value cannot corrupt the shared byte tables
    for mask in (0b1011_0010, 0x1234, (1 << 40) | 5):
        got = bits(mask)
        try:
            got[0] = 99  # type: ignore[index]
        except TypeError:
            pass
        assert list(bits(mask)) == want(mask)


def test_connected_components_examples():
    assert component_masks(complete_graph(4)) == [0b1111]
    two = component_masks(disjoint_union(complete_graph(3), complete_graph(3)))
    assert two == [0b000111, 0b111000]
    assert component_masks(Graph(3)) == [0b001, 0b010, 0b100]
    # restricted to a vertex mask: the path 0-1-2-3 minus vertex 1
    assert component_masks(path(4), 0b1101) == [0b0001, 0b1100]


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
    comps = [list(bits(m)) for m in component_masks(g)]
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
            assert sub.row(i) >> j & 1 == g.row(u) >> v & 1
