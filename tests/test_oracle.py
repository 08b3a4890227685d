"""Exhaustive disjoint-pair sweep, checked against a base-3 re-derivation."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfactor.constructions import complete_graph, cycle, star
from specfactor.factors import deficiency as engine_deficiency
from specfactor import oracle
from specfactor.graph import Graph, disjoint_union
from specfactor.oracle import (
    STPair,
    brute_force_deficiency,
    brute_force_deficiency_multi,
    brute_force_has_k_factor,
    delta,
    optimal_pairs,
)

from conftest import naive_deficiency, naive_delta, random_graph, reference_sweep


def test_delta_breakdown_example():
    # C6 with S = {0}, T = {3}: removing both leaves two paths, each with
    # one edge into T and odd demand, so tau = 2 and the terms cancel
    b = delta(cycle(6), 1, ((0,), (3,)))
    assert b.k_s == 1
    assert b.degree_sum == 2
    assert b.k_t == 1
    assert b.tau == 2
    assert b.delta == 0


def test_delta_empty_pair_counts_odd_components():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    b = delta(g, 1, ((), ()))
    assert b.tau == 2 and b.delta == -2
    # at k = 2 each triangle has even demand, so it is not odd
    assert delta(g, 2, ((), ())).tau == 0
    # K5 at k = 2: single component, 2*5 even, so no odd component
    assert delta(complete_graph(5), 2, ((), ())).delta == 0


def test_delta_accepts_stpair_and_tuples():
    g = cycle(5)
    assert delta(g, 1, STPair((0,), (2,))).delta == delta(g, 1, ((0,), (2,))).delta


def test_delta_rejects_overlap_and_range():
    g = cycle(5)
    with pytest.raises(ValueError):
        delta(g, 1, ((0,), (0,)))
    with pytest.raises(ValueError):
        delta(g, 1, ((7,), ()))
    # a repeated vertex would be echoed back while counted once
    with pytest.raises(ValueError, match="S lists vertex 0 more than once"):
        delta(g, 1, ((0, 0), ()))
    with pytest.raises(ValueError, match="T lists vertex 3 more than once"):
        delta(g, 1, STPair((1,), (3, 2, 3)))
    # k meets the sweeps' rule instead of giving a meaningless breakdown
    for k, message in [
        (1.5, "k must be an integer, got 1.5"),
        ("1", "k must be an integer, got '1'"),
        (-1, "k must be non-negative"),
        (oracle._MAX_K + 1, "k must be at most"),
    ]:
        with pytest.raises(ValueError, match=message):
            delta(g, k, ((0,), (1,)))


def test_deficiency_examples():
    assert brute_force_deficiency(star(4), 1) == (3, STPair((0,), ()))
    assert brute_force_deficiency(cycle(4), 1) == (0, STPair((), ()))
    assert brute_force_deficiency(star(4), 2)[0] == 6
    assert brute_force_deficiency(complete_graph(5), 1)[0] == 1
    assert brute_force_deficiency(Graph(3), 1)[0] == 3


def test_deficiency_cap():
    # the sweep's one bound is the 16 vertices its uint16 pair tables cover
    assert brute_force_deficiency(Graph(15), 1)[0] == 15
    with pytest.raises(ValueError, match="n <= 16, got n = 17"):
        brute_force_deficiency(Graph(17), 1)


def test_cap_and_k_ceilings():
    g = cycle(5)
    for call in (brute_force_deficiency, optimal_pairs, brute_force_has_k_factor):
        with pytest.raises(ValueError, match="n <= 16"):
            call(cycle(17), 1)
    with pytest.raises(ValueError, match="n <= 16"):
        brute_force_deficiency_multi(cycle(40), [1])
    with pytest.raises(ValueError, match="k must be at most"):
        brute_force_deficiency(g, oracle._MAX_K + 1)
    # refused, not a TypeError from inside the sweep
    for call, k in [(brute_force_deficiency, 1.5), (optimal_pairs, "1"), (brute_force_has_k_factor, None)]:
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            call(g, k)
    with pytest.raises(ValueError, match="k must be an integer, got 2.0"):
        brute_force_deficiency_multi(g, [1, 2.0])
    # the largest k still fits the sweep's int32 arithmetic: T = V wins
    assert brute_force_deficiency(g, oracle._MAX_K) == (
        5 * oracle._MAX_K - 10,
        STPair((), (0, 1, 2, 3, 4)),
    )


def _assert_same_sweep(g, ks):
    for collect_for in (None, *ks):
        got = oracle._sweep(g, ks, collect_for)
        assert got == reference_sweep(g, ks, collect_for), (g.rows, collect_for)


def test_sweep_matches_scalar_loop_in_order_on_small_corpus(connected_by_n):
    # values, first maximizers and the order of the gathered optimal pairs
    for n in range(1, 7):
        for g in connected_by_n[n]:
            _assert_same_sweep(g, (1, 2, 3, 4))


def test_sweep_matches_scalar_loop_in_order_on_random_graphs():
    rng = random.Random(43)
    graphs = [random_graph(rng.randrange(1, 9), rng.random(), rng) for _ in range(60)]
    assert any(not g.is_connected() for g in graphs)
    for g in graphs:
        _assert_same_sweep(g, (1, 2, 3, 4))


def test_sweep_matches_scalar_loop_across_blocks(monkeypatch):
    # blocks of 7 pairs cut through the pair lists of most U
    monkeypatch.setattr(oracle, "_BLOCK_PAIRS", 7)
    rng = random.Random(47)
    for _ in range(20):
        _assert_same_sweep(random_graph(rng.randrange(1, 7), rng.random(), rng), (1, 2))


def test_sweep_memory_is_bounded_at_default_cap():
    code = textwrap.dedent(
        """
        import resource
        from specfactor.constructions import cycle
        from specfactor.oracle import brute_force_deficiency_multi

        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out = brute_force_deficiency_multi(cycle(14), (1, 2, 3))
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(after - before, out[3][0])
        """
    )
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    grown_kib, deficiency = map(int, proc.stdout.split())
    # C14 has a 1- and a 2-factor; for k = 3 every vertex lacks one degree
    assert deficiency == 14
    assert grown_kib < 64 * 1024


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_delta_matches_naive(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(1, 7), rng.random(), rng)
    k = rng.randrange(1, 4)
    pool = list(range(g.n))
    rng.shuffle(pool)
    cut1 = rng.randrange(0, g.n + 1)
    cut2 = rng.randrange(cut1, g.n + 1)
    s = tuple(sorted(pool[:cut1]))
    t = tuple(sorted(pool[cut1:cut2]))
    assert delta(g, k, (s, t)).delta == naive_delta(g, k, s, t)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_deficiency_matches_naive(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(1, 7), rng.random(), rng)
    k = rng.randrange(1, 4)
    assert brute_force_deficiency(g, k)[0] == naive_deficiency(g, k)


def test_multi_k_matches_single_k():
    rng = random.Random(29)
    ks = [1, 2, 3]
    for _ in range(50):
        g = random_graph(rng.randrange(1, 8), rng.random(), rng)
        multi = brute_force_deficiency_multi(g, ks)
        for k in ks:
            d, pair = brute_force_deficiency(g, k)
            assert multi[k] == (d, pair)
            assert delta(g, k, pair).delta == -d


def test_optimal_pairs_are_exactly_the_maximizers():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng.randrange(1, 6), rng.random(), rng)
        k = rng.randrange(1, 3)
        d, pairs = optimal_pairs(g, k)
        assert brute_force_deficiency(g, k)[0] == d
        seen = set()
        for pair in pairs:
            assert delta(g, k, pair).delta == -d
            seen.add((pair.s, pair.t))
        assert len(seen) == len(pairs)
        # every pair achieving the optimum is listed
        count = 0
        pool = list(range(g.n))
        for code in range(3 ** g.n):
            s, t = [], []
            c = code
            for v in pool:
                c, which = divmod(c, 3)
                if which == 1:
                    s.append(v)
                elif which == 2:
                    t.append(v)
            if naive_delta(g, k, tuple(s), tuple(t)) == -d:
                count += 1
        assert count == len(pairs)


def test_first_maximizer_is_deterministic():
    a = brute_force_deficiency(star(4), 1)
    b = brute_force_deficiency(star(4), 1)
    assert a == b
    _, pairs = optimal_pairs(star(4), 1)
    assert pairs[0] == a[1]


def test_has_k_factor_consistency():
    rng = random.Random(37)
    for _ in range(100):
        g = random_graph(rng.randrange(1, 8), rng.random(), rng)
        k = rng.randrange(1, 4)
        has = brute_force_has_k_factor(g, k)
        assert has == (brute_force_deficiency(g, k)[0] == 0)
        assert has == (engine_deficiency(g, k) == 0)


def test_sweep_agrees_with_matching_engine():
    rng = random.Random(41)
    for _ in range(150):
        g = random_graph(rng.randrange(1, 9), rng.random(), rng)
        k = rng.randrange(1, 4)
        assert brute_force_deficiency(g, k)[0] == engine_deficiency(g, k)
