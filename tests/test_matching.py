"""Maximum matching in general graphs, checked against exhaustive references
and against the full-scan blossom search kept in conftest."""

from __future__ import annotations

import random
import signal
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfactor.constructions import (
    complete_graph,
    cycle,
    matching,
    path,
    petersen,
    star,
)
from specfactor import factors
from specfactor.corpus import random_regular
from specfactor.graph import Graph, induced_subgraph, join
from specfactor.matching import _max_matching_adj
from specfactor.oracle import brute_force_deficiency

from conftest import (
    greedy_matching,
    matching_number,
    max_matching,
    random_graph,
    reference_max_matching,
    reference_missable,
)


def exhaustive_matching_number(g: Graph) -> int:
    """Reference: try all edge subsets of each size, largest first."""
    edges = g.edges()
    for size in range(g.n // 2, 0, -1):
        for combo in combinations(edges, size):
            used = set()
            ok = True
            for u, v in combo:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                return size
    return 0


def test_hand_examples():
    assert matching_number(path(4)) == 2
    assert matching_number(path(5)) == 2
    assert matching_number(cycle(5)) == 2
    assert matching_number(cycle(6)) == 3
    assert matching_number(petersen()) == 5
    assert matching_number(star(4)) == 1
    assert matching_number(Graph(6)) == 0
    assert matching_number(matching(4)) == 4
    for n in range(1, 9):
        assert matching_number(complete_graph(n)) == n // 2


def test_complete_bipartite():
    for a, b in [(1, 3), (2, 2), (2, 5), (3, 3)]:
        g = join(Graph(a), Graph(b))
        assert matching_number(g) == min(a, b)


def test_max_matching_is_a_matching():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng.randrange(0, 12), rng.random(), rng)
        mm = max_matching(g)
        used = set()
        for u, v in mm:
            assert g.has_edge(u, v)
            assert u not in used and v not in used
            used.add(u)
            used.add(v)
        assert len(mm) == matching_number(g)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_matches_exhaustive_reference(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(0, 9), rng.random(), rng)
    assert matching_number(g) == exhaustive_matching_number(g)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_agrees_with_degree_one_deficiency(seed):
    # the unmatched-vertex count equals the worst Tutte deficit at k = 1,
    # computed by the completely separate subset sweep
    rng = random.Random(seed)
    g = random_graph(rng.randrange(1, 10), rng.random(), rng)
    deficit, _ = brute_force_deficiency(g, 1)
    assert 2 * matching_number(g) == g.n - deficit


def test_augmenting_through_blossoms():
    # two triangles bridged by an edge force odd-cycle handling
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    assert matching_number(g) == 3


def _marks(size: int, nodes: list[int]) -> list[bool]:
    marks = [False] * size
    for v in nodes:
        marks[v] = True
    return marks


def _check_missable(n: int, adj: list[list[int]]) -> int:
    """Assert that the search returns v iff nu(G - v) = nu(G); return the
    missable count."""
    g = Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
    missable = _marks(n, _max_matching_adj(n, adj, [-1] * n))
    nu = matching_number(g)
    for v in range(n):
        rest = induced_subgraph(g, [u for u in range(n) if u != v])
        assert missable[v] == (matching_number(rest) == nu), (g.edges(), v)
    return sum(missable)


def test_missable_nodes_are_those_some_maximum_matching_misses():
    rng = random.Random(31)
    graphs = [cycle(5), cycle(7), petersen(), path(5), star(3),
              Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])]
    graphs += [random_graph(rng.randrange(1, 13), rng.random(), rng) for _ in range(300)]
    assert sum(_check_missable(g.n, [list(g.neighbors(v)) for v in range(g.n)])
               for g in graphs) > 300


def _full_gadget(g: Graph, caps) -> tuple[list[list[int]], list[list[int]]]:
    """(adj, ends_of) of the slot gadget with no edge joined slot to slot:
    slots numbered as in factors._gadget, then two edge nodes for every
    edge, each joined to the slots of its end."""
    first = [0]
    for v in range(g.n):
        first.append(first[-1] + min(caps[v], g.degree(v)))
    adj: list[list[int]] = [[] for _ in range(first[-1])]
    ends_of: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        a, b = len(adj), len(adj) + 1
        adj += [[b], [a]]
        for node, w in ((a, u), (b, v)):
            for s in range(first[w], first[w + 1]):
                adj[node].append(s)
                adj[s].append(node)
            ends_of[w].append(node)
    return adj, ends_of


def test_missable_on_factor_gadgets():
    # slot gadgets have twin slot nodes and many blossoms through edge pairs;
    # an edge joined slot to slot carries the marks of the two edge nodes it
    # replaces, checked against the full gadget's reference marks
    rng = random.Random(37)
    joined = 0
    for _ in range(150):
        g = random_graph(rng.randrange(1, 7), rng.random(), rng)
        caps = [rng.randrange(0, 4) for _ in range(g.n)]
        _, adj, ends_of, slots_of, _ = factors._gadget(g, caps)
        _check_missable(len(adj), adj)
        marks = _marks(len(adj), _max_matching_adj(len(adj), adj, [-1] * len(adj)))
        full, full_ends_of = _full_gadget(g, caps)
        full_marks = reference_missable(full, reference_max_matching(full))
        slots = [s for r in slots_of for s in r]
        assert [marks[s] for s in slots] == [full_marks[s] for s in slots]
        for v in range(g.n):
            assert [marks[e] for e in ends_of[v]] == [full_marks[e] for e in full_ends_of[v]]
        joined += (len(full) - len(adj)) // 2
    assert joined > 50


@pytest.fixture
def watchdog():
    """Fail, rather than hang, when the search loops forever: a stale blossom
    base can send lca round a cycle.  The checks take about a second."""

    def stop(signum, frame):
        raise AssertionError("the matching search did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_agrees_with_reference(adj: list[list[int]], starts) -> tuple[list[int], list[bool]]:
    """Same exposed count and missable marks as the full-scan search, from
    every start; returns the reference's (match, missable)."""
    ref = reference_max_matching(adj)
    ref_missable = reference_missable(adj, ref)
    for start in starts:
        got = list(start)
        missable = _max_matching_adj(len(adj), adj, got)
        assert got.count(-1) == ref.count(-1)
        assert all(got[got[v]] == v and got[v] in adj[v] for v in range(len(adj)) if got[v] != -1)
        assert _marks(len(adj), missable) == ref_missable
    return ref, ref_missable


@pytest.mark.usefixtures("watchdog")
def test_engine_agrees_with_full_scan_reference_on_slot_gadgets():
    rng = random.Random(41)
    sizes = []
    for _ in range(300):
        n = rng.randrange(20, 71)
        g = random_graph(n, rng.uniform(0.5, 3.0) / n, rng)
        caps = [rng.randrange(0, 5) for _ in range(n)]
        _, adj, _, _, start = factors._gadget(g, caps)
        _assert_agrees_with_reference(adj, [start, [-1] * len(adj)])
        sizes.append(len(adj))
    assert max(sizes) > 250


@pytest.mark.usefixtures("watchdog")
def test_engine_agrees_with_full_scan_reference_on_plain_graphs():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randrange(1, 60)
        g = random_graph(n, rng.uniform(0.5, 4.0) / n, rng)
        adj = [list(g.neighbors(v)) for v in range(n)]
        _assert_agrees_with_reference(adj, [greedy_matching(adj), [-1] * n])


@pytest.mark.usefixtures("watchdog")
@pytest.mark.parametrize("n,r,k", [(158, 12, 5), (101, 10, 3)])
def test_engine_agrees_with_full_scan_reference_at_witness_scale(n, r, k):
    g = random_regular(n, r, 1)
    _, adj, ends_of, slots_of, start = factors._gadget(g, [k] * n)
    ref, missable = _assert_agrees_with_reference(adj, [start])
    # the bounded subgraph has |matching| edges less one per edge-node pair
    pairs = (len(adj) - sum(len(r) for r in slots_of)) // 2
    nu = (len(adj) - ref.count(-1)) // 2 - pairs
    assert factors.k_factor(g, k).deficiency == k * n - 2 * nu
    critical = (k * n) % 2 == 1 and ref.count(-1) == 1 and all(
        missable[slots_of[x][0]] or any(missable[e] for e in ends_of[x]) for x in range(n)
    )
    assert factors.is_k_critical(g, k) == critical
