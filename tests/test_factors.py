"""Degree-constrained spanning subgraphs: existence, deficiency, criticality.

The solver sends each graph edge to a two-node widget and each vertex v to
f(v) slot nodes, so a maximum matching gives a maximum subgraph with
bounded degrees.  These tests check the bookkeeping and the agreement
with the subset sweep and edge-subset references.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from specfactor.constructions import (
    complete_graph,
    cycle,
    empty_graph,
    path,
    petersen,
    star,
)
from specfactor.factors import (
    deficiency,
    has_f_factor,
    is_k_critical,
    k_factor,
)
from specfactor import factors
from specfactor.graph import Graph
from specfactor.oracle import STPair, brute_force_deficiency, delta

from conftest import random_graph, reference_f_factor

import pytest


def test_one_factor_examples():
    assert k_factor(complete_graph(4), 1).exists
    assert k_factor(petersen(), 1).exists
    assert not k_factor(cycle(5), 1).exists
    assert k_factor(cycle(5), 1).deficiency == 1
    assert not k_factor(star(4), 1).exists


def test_two_factor_examples():
    rep = k_factor(cycle(4), 2)
    assert rep.exists
    assert sorted(rep.edges) == sorted(cycle(4).edges())
    assert k_factor(complete_graph(5), 2).exists
    assert k_factor(petersen(), 2).exists


def test_star_two_factor_deficiency():
    # K_{1,4} at k = 2: best bounded subgraph is two edges, so the
    # deficit is 2*5 - 2*2 = 6
    rep = k_factor(star(4), 2)
    assert not rep.exists
    assert rep.deficiency == 6
    assert deficiency(star(4), 2) == 6


def test_zero_k_and_empty_graph():
    assert deficiency(cycle(4), 0) == 0
    rep = k_factor(cycle(4), 0)
    assert rep.exists and rep.edges == ()
    assert k_factor(Graph(0, []), 1).exists


def test_odd_degree_sum_is_infeasible_not_an_error():
    rep = has_f_factor(complete_graph(4), [1, 1, 1, 2])
    assert not rep.exists
    assert rep.deficiency == 1


def test_demand_above_degree_is_infeasible_not_an_error():
    rep = has_f_factor(path(3), [2, 2, 2])
    assert not rep.exists
    assert rep.deficiency == 2


def test_factor_certificate_meets_degrees():
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        g = random_graph(rng.randrange(2, 9), 0.6, rng)
        k = rng.randrange(1, 4)
        rep = k_factor(g, k)
        if not rep.exists:
            continue
        found += 1
        degs = [0] * g.n
        for u, v in rep.edges:
            assert g.has_edge(u, v)
            degs[u] += 1
            degs[v] += 1
        assert degs == [k] * g.n
    assert found > 20


def test_deficiency_parity_matches_demand_sum():
    rng = random.Random(13)
    for _ in range(300):
        g = random_graph(rng.randrange(1, 9), rng.random(), rng)
        k = rng.randrange(0, 4)
        assert deficiency(g, k) % 2 == (k * g.n) % 2


def test_exists_iff_zero_deficiency():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng.randrange(1, 9), rng.random(), rng)
        k = rng.randrange(1, 4)
        rep = k_factor(g, k)
        assert rep.exists == (rep.deficiency == 0)
        assert rep.deficiency == deficiency(g, k)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=75, deadline=None)
def test_agrees_with_subset_sweep(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(1, 8), rng.random(), rng)
    k = rng.randrange(1, 4)
    want, _ = brute_force_deficiency(g, k)
    assert deficiency(g, k) == want


def test_max_bounded_subgraph_respects_caps():
    g = complete_graph(5)
    caps = [1, 2, 2, 1, 0]
    edges = factors._bounded_subgraph(g, caps)
    degs = [0] * 5
    for u, v in edges:
        assert g.has_edge(u, v)
        degs[u] += 1
        degs[v] += 1
    assert all(d <= c for d, c in zip(degs, caps))
    # vertex 4 is excluded, and K4 with caps (1, 2, 2, 1) holds 3 edges
    assert len(edges) == 3
    # caps (1,..,1) reduces to maximum matching
    for n in range(2, 8):
        assert len(factors._bounded_subgraph(complete_graph(n), [1] * n)) == n // 2


def _specs(n: int, k: int):
    yield [k] * n
    for x in range(n):
        for fx in (k - 1, k + 1):
            if fx >= 0:
                f = [k] * n
                f[x] = fx
                yield f


def test_f_factor_agrees_with_edge_subset_reference(connected_by_n):
    # the uniform spec and every one-vertex k +- 1 spec, as is_k_critical
    # asks them, against an edge-subset enumeration that uses no matching
    checked = 0
    for n in range(1, 7):
        for g in connected_by_n[n]:
            for k in range(4):
                for f in _specs(n, k):
                    exists, defect = reference_f_factor(g, f)
                    rep = has_f_factor(g, f)
                    assert (rep.exists, rep.deficiency) == (exists, defect), (g.edges(), f)
                    if exists:
                        degs = [0] * n
                        for u, v in rep.edges:
                            assert g.has_edge(u, v)
                            degs[u] += 1
                            degs[v] += 1
                        assert degs == f
                    else:
                        assert rep.edges is None
                    checked += 1
    assert checked > 5000


def test_criticality_examples():
    assert is_k_critical(complete_graph(3), 1)
    assert is_k_critical(complete_graph(5), 1)
    assert is_k_critical(cycle(5), 1)
    assert is_k_critical(complete_graph(5), 3)
    # even k*n: near-factors have odd degree sums, so never critical
    assert not is_k_critical(cycle(4), 1)
    assert not is_k_critical(complete_graph(4), 1)
    # has a factor: excluded by definition
    assert not is_k_critical(petersen(), 1)
    # the center of K_{1,2} may take degree 2, so even the path on three
    # vertices counts
    assert is_k_critical(star(2), 1)
    # K_{1,4}: a leaf can reach neither degree 0 nor 2 while the other
    # three leaves stay at 1, so it is not critical
    assert not is_k_critical(star(4), 1)
    with pytest.raises(ValueError):
        is_k_critical(cycle(5), 0)


def test_critical_graphs_have_deficiency_one():
    rng = random.Random(23)
    hits = 0
    for _ in range(400):
        n = rng.choice([3, 5, 7])
        g = random_graph(n, 0.7, rng)
        if is_k_critical(g, 1):
            hits += 1
            assert deficiency(g, 1) == 1
    assert hits > 10


def test_certificate_cross_check():
    # the Tutte pair witnessing a deficiency comes from the independent sweep
    rep = k_factor(cycle(5), 1)
    value, pair = brute_force_deficiency(cycle(5), 1)
    assert rep.deficiency == value == 1
    assert delta(cycle(5), 1, pair).delta == -1
    rep2 = k_factor(complete_graph(4), 1)
    assert rep2.exists and brute_force_deficiency(complete_graph(4), 1) == (0, STPair((), ()))
