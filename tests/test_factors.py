"""Degree-constrained spanning subgraphs: existence, deficiency, criticality.

The solver sends each vertex v to min(f(v), d(v)) slot nodes and each
graph edge to a two-node widget, or, between two one-slot vertices, to an
edge joining their slots, so a maximum matching gives a maximum subgraph
with bounded degrees.  These tests check the bookkeeping and the agreement
with the subset sweep and edge-subset references.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from specfactor.constructions import (
    complete_graph,
    cycle,
    path,
    petersen,
    star,
)
from specfactor.corpus import random_regular
from specfactor.factors import (
    deficiency,
    has_f_factor,
    is_k_critical,
    k_factor,
)
from specfactor import factors, matching
from specfactor.graph import Graph, bits, join
from specfactor.oracle import STPair, brute_force_deficiency, delta

from conftest import (
    adjacency_lists,
    naive_delta_f,
    random_graph,
    reference_f_factor,
    reference_is_k_critical,
)

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


@pytest.mark.parametrize("spec,message", [
    ([1, 1], "length must equal vertex count"),
    ([1, -1, 1], "vertex 1 must be non-negative"),
    ([1.9, 1, 1], "vertex 0 must be an integer, got 1.9"),
    ([1, "2", 1], "vertex 1 must be an integer, got '2'"),
    ([1, 1, None], "vertex 2 must be an integer, got None"),
])
def test_degree_spec_errors(spec, message):
    with pytest.raises(ValueError, match=message):
        has_f_factor(path(3), spec)


def test_k_must_be_an_integer():
    # refused, not truncated: k = 1.7 used to answer the k = 1 query
    for call, k in [(k_factor, 1.7), (deficiency, 1.7), (is_k_critical, 1.5), (k_factor, "1")]:
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            call(complete_graph(3), k)
    # integer types other than int are fine
    assert k_factor(complete_graph(4), True).exists


def test_barrier_attains_deficiency_for_general_specs():
    # the Tutte pair read off the matching is optimal: delta_f(S, T) hits
    # -deficiency, the least value any disjoint pair can take
    rng = random.Random(7)
    deficient = zero_cap = over_cap = 0
    for _ in range(2000):
        g = random_graph(rng.randrange(1, 11), rng.random(), rng)
        f = [rng.randrange(5) for _ in range(g.n)]
        rep = has_f_factor(g, f)
        assert (rep.barrier is None) == rep.exists
        if rep.exists:
            continue
        s, t = rep.barrier
        assert not set(s) & set(t)
        assert naive_delta_f(g, f, s, t) == -rep.deficiency, (g.rows, f)
        deficient += 1
        zero_cap += 0 in f
        over_cap += any(fv > d for fv, d in zip(f, g.degrees()))
    assert deficient > 1000 and zero_cap > 500 and over_cap > 500


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
            assert g.row(u) >> v & 1
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
    edges, low, high = factors._bounded_subgraph(g, caps)
    assert (low, high) == (0, 0)  # every cap is met
    degs = [0] * 5
    for u, v in edges:
        assert g.row(u) >> v & 1
        degs[u] += 1
        degs[v] += 1
    assert all(d <= c for d, c in zip(degs, caps))
    # vertex 4 is excluded, and K4 with caps (1, 2, 2, 1) holds 3 edges
    assert len(edges) == 3
    # caps (1,..,1) reduces to maximum matching
    for n in range(2, 8):
        edges, low, high = factors._bounded_subgraph(complete_graph(n), [1] * n)
        assert len(edges) == n // 2
        # odd K_n: every vertex is missable, so both low and high
        full = (1 << n) - 1
        assert (low, high) == ((0, 0) if n % 2 == 0 else (full, full))
        # odd K_n: the one odd component of G - (empty, empty) is the barrier
        assert k_factor(complete_graph(n), 1).barrier == (None if n % 2 == 0 else ((), ()))


def _specs(n: int, k: int):
    yield [k] * n
    for x in range(n):
        for fx in (k - 1, k + 1):
            if fx >= 0:
                f = [k] * n
                f[x] = fx
                yield f


def test_f_factor_agrees_with_edge_subset_reference(connected_by_n):
    # the uniform spec and every one-vertex k +- 1 spec, the near-factor
    # queries of k-criticality, against an edge-subset enumeration that uses
    # no matching
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
                            assert g.row(u) >> v & 1
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
    # K1 has no edges: only k = 1 lets its one vertex drop to degree 0
    assert is_k_critical(Graph(1, []), 1)
    assert not is_k_critical(Graph(1, []), 3)
    # the wheel W4 at k = 3: each rim vertex has degree exactly k, so k + 1
    # is out of reach there and only the k - 1 near-factor serves it
    wheel = join(Graph(1), cycle(4))
    assert wheel.degrees() == (4, 3, 3, 3, 3)
    assert is_k_critical(wheel, 3)
    # K5 less two edges at vertex 0: degree k - 1 there rules out every
    # other vertex's near-factor
    low = Graph(5, [e for e in complete_graph(5).edges() if e not in ((0, 1), (0, 2))])
    assert low.degree(0) == 2
    assert not is_k_critical(low, 3)
    with pytest.raises(ValueError):
        is_k_critical(cycle(5), 0)


def test_criticality_agrees_with_reference_on_connected_graphs(connected_by_n):
    queries = critical = 0
    for n in range(1, 9):
        for g in connected_by_n[n]:
            for k in range(1, 5):
                got = is_k_critical(g, k)
                assert got == reference_is_k_critical(g, k), (g.edges(), k)
                queries += 1
                critical += got
    assert (queries, critical) == (48452, 884)


def test_criticality_agrees_with_reference_on_random_graphs():
    # disconnected graphs and isolated vertices included
    rng = random.Random(29)
    critical = 0
    for _ in range(2000):
        g = random_graph(rng.randrange(0, 12), rng.random(), rng)
        k = rng.randrange(1, 5)
        got = is_k_critical(g, k)
        assert got == reference_is_k_critical(g, k), (g.n, g.edges(), k)
        critical += got
    assert critical > 50


@pytest.mark.parametrize("n,r", [(21, 4), (31, 4), (25, 6), (33, 8)])
def test_criticality_agrees_with_reference_on_random_regular(n, r):
    for seed in range(10):
        g = random_regular(n, r, seed)
        for k in (1, r - 1):
            assert is_k_critical(g, k) == reference_is_k_critical(g, k), (seed, k)


def test_criticality_runs_one_matching(monkeypatch):
    calls = []

    def counting(n, adj, start):
        calls.append(n)
        return matching._max_matching_adj(n, adj, start)

    monkeypatch.setattr(factors, "_max_matching_adj", counting)
    # odd k*n and minimum degree >= k: one matching per query
    for g, k in [(cycle(5), 1), (complete_graph(5), 3), (star(4), 1),
                 (random_regular(21, 4, 0), 3), (random_regular(25, 6, 1), 5)]:
        calls.clear()
        is_k_critical(g, k)
        assert len(calls) == 1, (g.edges(), k)
    # even k*n, or a vertex below degree k: none
    for g, k in [(cycle(4), 1), (petersen(), 1), (complete_graph(5), 2), (path(5), 3)]:
        calls.clear()
        is_k_critical(g, k)
        assert calls == [], (g.edges(), k)


def test_augmenting_searches_are_pinned(monkeypatch):
    # the greedy start leaves few slots exposed; pairing every edge's two
    # nodes instead leaves every slot exposed and runs 341 and 176 here
    searches = []
    search = matching._blossom_search

    def counting(adj, match):
        find_path, p, even = search(adj, match)

        def counted(root):
            searches.append(root)
            return find_path(root)

        return counted, p, even

    monkeypatch.setattr(matching, "_blossom_search", counting)
    for n in range(20, 42):
        k_factor(random_regular(n, 4, 0), 1)
    assert len(searches) == 46
    searches.clear()
    for n in range(21, 42, 2):
        is_k_critical(random_regular(n, 4, 0), 1)
    assert len(searches) == 27


def test_gadget_start_is_a_greedy_bounded_subgraph():
    rng = random.Random(29)
    joined = mixed = 0
    for _ in range(300):
        g = random_graph(rng.randrange(0, 14), rng.random(), rng)
        caps = [rng.randrange(0, 5) for _ in range(g.n)]
        links, adj, ends_of, slots_of, start = factors._gadget(g, caps)
        # layout: slots vertex by vertex from 0, then one pair of edge nodes
        # per edge that is not joined slot to slot
        slots = [min(c, d) for c, d in zip(caps, g.degrees())]
        assert [len(r) for r in slots_of] == slots
        assert [x for r in slots_of for x in r] == list(range(sum(slots)))
        assert [link[:2] for link in links] == g.edges()
        pairs = 0
        for u, v, p, q in links:
            if slots[u] == 1 == slots[v]:
                assert (p, q) == (slots_of[v][0], slots_of[u][0])
                joined += 1
            else:
                assert adj[p] == [q, *slots_of[u]] and adj[q] == [p, *slots_of[v]]
                pairs += 1
        assert len(adj) == sum(slots) + 2 * pairs
        for v in range(g.n):
            assert ends_of[v] == [p if u == v else q for u, w, p, q in links if v in (u, w)]
            assert all(adj[s] == ends_of[v] for s in slots_of[v])
            kinds = {slots[w] == 1 == slots[v] for w in bits(g.row(v))}
            mixed += len(kinds) == 2
        # start is a matching of the gadget
        assert all(start[start[v]] == v and start[v] in adj[v] for v in range(len(adj)) if start[v] != -1)
        taken = [0] * g.n
        skipped = []
        for u, v, p, q in links:
            if start[p] in slots_of[u]:
                assert start[q] in slots_of[v]
                taken[u] += 1
                taken[v] += 1
            else:
                assert start[q] not in slots_of[v]
                skipped.append((u, v))
        # exposed: exactly the slots greedy left free, and no edge it skipped
        # joins two vertices that both still have one
        assert all(start[x] != -1 for x in range(sum(slots), len(adj)))
        for v in range(g.n):
            assert [start[s] for s in slots_of[v]].count(-1) == slots[v] - taken[v]
        free = [taken[v] < slots[v] for v in range(g.n)]
        assert not any(free[u] and free[v] for u, v in skipped)
        assert start.count(-1) == sum(slots) - sum(taken)
    assert joined > 150 and mixed > 150


def test_k1_gadget_is_the_graph(connected_by_n):
    # every slot count is 1, so every edge is joined and node v is vertex v
    for n in range(2, 8):
        for g in connected_by_n[n]:
            _, adj, ends_of, slots_of, _ = factors._gadget(g, [1] * n)
            assert len(adj) == n
            assert adj == ends_of == adjacency_lists(g)
            assert slots_of == [range(v, v + 1) for v in range(n)]
    # K1's one vertex has no slot
    assert factors._gadget(Graph(1), [1])[1] == []


def test_gadgets_mixing_joined_and_edge_node_edges_agree_with_references():
    # caps from {0, 1, 2}: a one-slot vertex next to both a one-slot and a
    # zero- or two-slot neighbour has both kinds of edge
    rng = random.Random(47)
    mixed = critical = 0
    while mixed < 300:
        g = random_graph(rng.randrange(3, 9), rng.uniform(0.3, 0.8), rng)
        caps = [rng.randrange(0, 3) for _ in range(g.n)]
        slots = [min(c, d) for c, d in zip(caps, g.degrees())]
        kinds = [{slots[w] == 1 for w in bits(g.row(v))} for v in range(g.n) if slots[v] == 1]
        # the edge-subset reference holds 2^e degree rows
        if {True, False} not in kinds or g.edge_count > 14:
            continue
        mixed += 1
        exists, defect = reference_f_factor(g, caps)
        rep = has_f_factor(g, caps)
        assert (rep.exists, rep.deficiency) == (exists, defect), (g.edges(), caps)
        if exists:
            assert len(set(rep.edges)) == len(rep.edges)
            degs = [0] * g.n
            for u, v in rep.edges:
                assert g.row(u) >> v & 1
                degs[u] += 1
                degs[v] += 1
            assert degs == caps
        got = is_k_critical(g, 1)
        assert got == reference_is_k_critical(g, 1), g.edges()
        critical += got
    assert critical > 10


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
