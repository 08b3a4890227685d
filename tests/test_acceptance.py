"""Acceptance gate: one test per acceptance criterion, at stated tolerances.

Each criterion is a single test so `pytest -v` prints one pass/fail line
per item.  Criterion 2 is split into its two clauses.  The odd-r clause
checks extremal_odd_m1 against the cubic P.  The even-r clause checks
extremal_odd_m2 against Q, the characteristic polynomial of its equitable
quotient, and keeps a finding in the gate: the root of the registered
m = 2 cubic f1 lies below r - 2/(r+2), the least average degree in the
class, so no class member (this construction included) attains it.
Criterion 3 reports the actual root ordering; its acceptance is that the
minimum is root(f1).
"""

from __future__ import annotations

import math
import random

import pytest

from specfactor.constructions import (
    extremal_even,
    extremal_odd_m1,
    extremal_odd_m2,
    extremal_odd_m3,
    petersen,
)
from specfactor.corpus import enumerate_connected_regular, random_class_member
from specfactor.factors import deficiency as engine_deficiency
from specfactor.factors import k_factor
from specfactor.graph import Graph, bits, component_masks, induced_subgraph
from specfactor.oracle import brute_force_deficiency_multi, delta
from specfactor.spectral import (
    cubic_family,
    eigenvalues,
    largest_root,
    quotient_eigenvalues,
    rho1,
    rho1_value,
    rho2,
)
from specfactor.theorems import (
    check_lemma_3_1,
    classify_hypothesis,
    ordering_report,
    verify_thm_3_2,
    verify_thm_3_3,
)

from conftest import random_graph

TOL = 1e-9


def test_criterion_01_extremal_spectra_match_closed_forms():
    for r in range(4, 13):
        for m in range(2, r + 2, 2):
            lam1 = eigenvalues(extremal_even(r, m))[0]
            want = 0.5 * (r - 2 + math.sqrt((r + 2) ** 2 - 4 * m))
            assert lam1 == pytest.approx(want, abs=TOL), (r, m)
    for r in range(3, 13):
        start = 3 if r % 2 == 1 else 4
        for m in range(start, r + 2, 2):
            if m < 3:
                continue
            lam1 = eigenvalues(extremal_odd_m3(r, m))[0]
            want = 0.5 * (r - 3 + math.sqrt((r + 3) ** 2 - 4 * m))
            assert lam1 == pytest.approx(want, abs=TOL), (r, m)


def test_criterion_02a_cubic_case_odd_r():
    for r in range(3, 12, 2):
        lam1 = eigenvalues(extremal_odd_m1(r))[0]
        root = largest_root(cubic_family("P", r))
        assert lam1 == pytest.approx(root, abs=TOL), r


def test_criterion_02b_cubic_case_even_r():
    # every class member is connected, irregular and of even order n >= r+2,
    # so its radius exceeds its average degree r - 2/n >= r - 2/(r+2); the
    # construction attains root(Q), its quotient cubic, while root(f1) sits
    # below that floor (the registered rho2(r, 2) is a threshold no graph in
    # the class reaches)
    for r in range(4, 13, 2):
        lam1 = eigenvalues(extremal_odd_m2(r))[0]
        root_q = largest_root(cubic_family("Q", r))
        assert lam1 == pytest.approx(root_q, abs=TOL), r
        root_f1 = largest_root(cubic_family("f1", r))
        assert root_f1 < r - 2 / (r + 2), r


def test_criterion_03_root_ordering_minimum_is_f1():
    for r in range(4, 13, 2):
        rep = ordering_report(r)
        assert rep["min_is_f1"], (r, rep["ordering"], rep["roots"])


def test_criterion_04_engine_agrees_with_exhaustive_oracle(connected_by_n):
    ks = [1, 2, 3, 4]
    checked = 0
    for n in range(1, 9):
        for g in connected_by_n[n]:
            want = brute_force_deficiency_multi(g, ks)
            for k in ks:
                got = engine_deficiency(g, k)
                assert got == want[k][0], (n, k)
                rep = k_factor(g, k)
                assert rep.exists == (got == 0)
                # the engine's Tutte pair certifies every "no" answer
                assert (rep.barrier is None) == rep.exists
                if got:
                    assert delta(g, k, rep.barrier).delta == -got, (n, k)
            checked += 1
    assert checked == 1 + 1 + 2 + 6 + 21 + 112 + 853 + 11117


def test_criterion_05_parity_law_hundred_thousand_tuples():
    rng = random.Random(20260814)
    trials = 0
    while trials < 100_000:
        g = random_graph(rng.randrange(1, 11), rng.random(), rng)
        for _ in range(50):
            k = rng.randrange(1, 5)
            labels = [rng.randrange(3) for _ in range(g.n)]
            s = tuple(v for v, c in enumerate(labels) if c == 1)
            t = tuple(v for v, c in enumerate(labels) if c == 2)
            assert delta(g, k, (s, t)).delta % 2 == (k * g.n) % 2
            trials += 1


def test_criterion_06_even_r_sweep_quartic():
    corpus = []
    for n in (5, 6, 7, 8, 9, 10):
        corpus.extend(enumerate_connected_regular(n, 4))
    for k in (1, 3):
        rep = verify_thm_3_2(4, k, 4, corpus)
        assert rep.details["threshold"] == pytest.approx(1 + math.sqrt(7), abs=1e-12)
        assert rep.tested == len(corpus)
        assert rep.passed, rep.counterexamples


def test_criterion_07_odd_r_sweep_cubic():
    corpus = []
    for n in (6, 8, 10):
        corpus.extend(enumerate_connected_regular(n, 3))
    rep = verify_thm_3_3(3, 2, 3, corpus)
    assert rep.details["threshold"] == pytest.approx(rho1_value(3, 2), abs=1e-12)
    assert rep.passed, rep.counterexamples
    # the 10-vertex 3-regular Kneser graph in the corpus: third eigenvalue 1,
    # and its only 2-factors are pairs of 5-cycles
    pet = petersen()
    lam = eigenvalues(pet)
    assert lam[2] == pytest.approx(1.0, abs=TOL)
    assert lam[2] < rho1_value(3, 2)
    rep_factor = k_factor(pet, 2)
    assert rep_factor.exists
    cycles = component_masks(Graph(10, rep_factor.edges))
    assert sorted(c.bit_count() for c in cycles) == [5, 5]


def test_criterion_08_sampled_class_members_stay_above_threshold():
    floor_even = rho1(4, 2).value - TOL
    for i in range(500):
        g = random_class_member(4, 2, "even", seed=i)
        assert eigenvalues(g)[0] >= floor_even, i
    floor_odd = rho2(3, 1).value - TOL
    for i in range(500):
        g = random_class_member(3, 1, "odd", seed=i)
        assert eigenvalues(g)[0] >= floor_odd, i


def test_criterion_09_deficiency_decomposition_sweep():
    # every corpus graph whose parameters satisfy a hypothesis condition,
    # with no k-factor and not k-critical, must decompose; the premise is
    # unsatisfiable at these orders, so the sweep must come back all-clear
    # and a 16-vertex cubic instance exercises the live path, where the
    # factor engine's Tutte pair puts the hub in S (k = 1) or T (k = 2)
    applicable = 0
    for r, sizes in ((3, (4, 6, 8, 10)), (4, (5, 6, 7, 8, 9, 10))):
        corpus = []
        for n in sizes:
            corpus.extend(enumerate_connected_regular(n, r))
        for g in corpus:
            for k in range(1, r):
                for m in range(1, r + 2):
                    parity = "odd" if g.n % 2 else "even"
                    if classify_hypothesis(r, k, m, parity).condition is None:
                        continue
                    res = check_lemma_3_1(g, k, m)
                    if res.applicable:
                        applicable += 1
                        assert res.satisfied, (r, k, m)
    assert applicable == 0

    edges = []
    base = 0
    hub = 15
    for _ in range(3):
        o = base
        edges += [(o, o + 1), (o, o + 2), (o, o + 3), (o + 1, o + 2),
                  (o + 1, o + 3), (o + 2, o + 4), (o + 3, o + 4)]
        edges.append((o + 4, hub))
        base += 5
    vehicle = Graph(16, edges)
    res1 = check_lemma_3_1(vehicle, 1, 2)
    assert res1.applicable and res1.satisfied and res1.deficiency == 2
    assert (res1.s, res1.t) == ((hub,), ())
    assert len(res1.subgraphs) >= res1.deficiency + 1
    for sub in res1.subgraphs:
        h = induced_subgraph(vehicle, sub)
        assert 2 * h.edge_count >= 3 * h.n - (2 - 1)
    res2 = check_lemma_3_1(vehicle, 2, 2)
    assert res2.applicable and res2.satisfied
    assert (res2.s, res2.t) == ((), (hub,))


def test_criterion_10_interlacing_trials():
    # the subset form of interlacing needs pairwise non-adjacent subsets
    # (the use case is components of a vertex-deleted remainder), so the
    # sampler deletes a random separator and draws subsets from distinct
    # components
    rng = random.Random(97)
    trials = 0
    multi = 0
    while trials < 10_000:
        g = random_graph(rng.randrange(4, 11), 0.5, rng)
        lam_g = eigenvalues(g)
        for _ in range(20):
            keep = [v for v in range(g.n) if rng.random() < 0.75]
            if not keep:
                continue
            comps = [list(bits(m)) for m in component_masks(induced_subgraph(g, keep))]
            s = rng.randrange(1, min(3, len(comps)) + 1)
            rng.shuffle(comps)
            subs = []
            for comp in comps[:s]:
                chosen = rng.sample(comp, rng.randrange(1, len(comp) + 1))
                subs.append(sorted(keep[i] for i in chosen))
            best = min(eigenvalues(induced_subgraph(g, sub))[0] for sub in subs)
            assert lam_g[s - 1] >= best - TOL
            if s > 1:
                multi += 1
            trials += 1
    assert multi > 1000

    trials = 0
    while trials < 10_000:
        g = random_graph(rng.randrange(2, 11), 0.5, rng)
        lam1 = eigenvalues(g)[0]
        for _ in range(20):
            s = rng.randrange(1, min(4, g.n) + 1)
            labels = [rng.randrange(s) for _ in range(g.n)]
            parts = [[v for v, c in enumerate(labels) if c == i] for i in range(s)]
            parts = [p for p in parts if p]
            lam_q = quotient_eigenvalues(g, parts)
            assert lam1 >= lam_q[0] - TOL
            trials += 1
