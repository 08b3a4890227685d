"""Verification campaigns, hypothesis classification, and the deficiency
decomposition check.

The m = 2 even-r minimality campaign records a genuine finding: the claimed
minimizer's spectral radius sits above the registered cubic-root threshold,
so the campaign reports it as a counterexample instead of passing.  The
tests here freeze that behavior rather than mask it.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from specfactor.canon import canonical_key
from specfactor.constructions import complete_graph, cycle, extremal_odd_m1, extremal_odd_m2, petersen
from specfactor.corpus import enumerate_connected_regular
from specfactor.graph import Graph, disjoint_union
from specfactor.graph6 import to_graph6
from specfactor import theorems
from specfactor.oracle import brute_force_deficiency
from specfactor.factors import k_factor
from specfactor.spectral import cubic_family, eigenvalues, largest_root, rho2
from specfactor.theorems import (
    check_lemma_3_1,
    classify_hypothesis,
    ordering_report,
    verify_thm_2_1,
    verify_thm_2_2,
    verify_thm_3_2,
    verify_thm_3_3,
)


def test_classify_condition_grid():
    assert classify_hypothesis(4, 1, 4, "even").condition == "i"
    assert classify_hypothesis(4, 1, 4, "odd").condition is None
    assert classify_hypothesis(4, 3, 4, "even").condition == "i"
    assert classify_hypothesis(3, 2, 3).condition == "ii"
    assert classify_hypothesis(3, 2, 3, "odd").condition == "ii"
    assert classify_hypothesis(3, 1, 2).condition == "iii"
    assert classify_hypothesis(5, 3, 2).condition == "iii"
    # r and k both even: no clause covers it
    assert classify_hypothesis(4, 2, 4).condition is None
    assert classify_hypothesis(6, 2, 3).condition is None
    # arithmetic bounds can fail each clause
    assert classify_hypothesis(4, 1, 2, "even").condition is None  # k*m < r
    assert classify_hypothesis(3, 1, 1).condition is None  # r > k*m_star


def test_classify_m_star_and_m0():
    p = classify_hypothesis(5, 2, 4)
    assert p.m_star == 5 and p.m0 == 3
    q = classify_hypothesis(5, 2, 3)
    assert q.m_star == 3 and q.m0 == 3


def test_classify_domain():
    with pytest.raises(ValueError):
        classify_hypothesis(4, 4, 2)
    with pytest.raises(ValueError):
        classify_hypothesis(4, 0, 2)
    with pytest.raises(ValueError):
        classify_hypothesis(4, 1, 0)
    with pytest.raises(ValueError):
        classify_hypothesis(4, 1, 2, "sideways")


def test_even_family_minimality_campaign():
    rep = verify_thm_2_1(4, 2, samples=6, seed=0)
    assert rep.passed
    assert rep.tested == 7  # extremal member plus samples
    assert rep.hypothesis_count == rep.conclusion_count == rep.tested
    assert rep.details["threshold"] == pytest.approx(1 + math.sqrt(7), abs=1e-12)
    assert rep.details["extremal_attained"] is True
    assert rep.margins["min"] >= -1e-9


def test_even_family_campaign_at_degree_six():
    # at r = 6 rejecting whole stub pairings needs thousands of shuffles per
    # member, more than the budget on these seeds
    for seed in (1, 2):
        rep = verify_thm_2_1(6, 2, samples=60, seed=seed)
        assert rep.passed
        assert rep.tested == rep.conclusion_count == 61


def test_odd_family_m1_campaign():
    rep = verify_thm_2_2(3, 1, samples=6, seed=1)
    assert rep.passed
    assert rep.details["extremal_attained"] is True
    assert rep.details["threshold"] == pytest.approx(2.8557725066359887, abs=1e-10)


def test_odd_family_m3_campaign():
    rep = verify_thm_2_2(5, 3, samples=6, seed=2)
    assert rep.passed
    assert rep.details["threshold"] == pytest.approx(1 + math.sqrt(13), abs=1e-12)


def test_odd_family_m2_campaign_reports_finding():
    # the registered cubic-root threshold for m = 2 is not attained by the
    # claimed minimizer; the campaign must say so, not hide it
    rep = verify_thm_2_2(4, 2, samples=2, seed=0)
    assert not rep.passed
    assert rep.counterexamples == ["EU~o"]
    assert rep.details["extremal_attained"] is False
    assert rep.details["extremal_lambda1"] > rep.details["threshold"] + 1e-3


def test_odd_family_m2_class_minimum_is_the_construction(connected_by_n):
    # exhaustive evidence for criterion 02b at r = 4: over the m = 2 class
    # (connected, max degree 4, 2e = 4n - 2, even order) on 6 and 8
    # vertices, the least spectral radius is root(Q), attained at n = 6 by
    # extremal_odd_m2(4) alone; every member on 8 vertices is larger
    def members(n):
        return [
            g for g in connected_by_n[n]
            if max(g.degrees()) <= 4 and 2 * g.edge_count == 4 * n - 2
        ]

    root_q = largest_root(cubic_family("Q", 4))
    six = members(6)
    assert len(six) == 3
    radii = [eigenvalues(g)[0] for g in six]
    least = min(radii)
    assert least == pytest.approx(root_q, abs=1e-9)
    minimizers = [g for g, lam in zip(six, radii) if lam <= least + 1e-9]
    assert [canonical_key(g) for g in minimizers] == [canonical_key(extremal_odd_m2(4))]
    eight = members(8)
    assert len(eight) == 35
    assert min(eigenvalues(g)[0] for g in eight) > least + 1e-9


def test_campaign_report_serialization():
    rep = verify_thm_2_1(4, 2, samples=2, seed=3)
    d = rep.to_dict()
    assert d["passed"] == rep.passed
    assert d["tested"] == rep.tested
    assert isinstance(d["counterexamples"], list)
    assert set(d) == {
        "corpus", "tested", "hypothesis_count", "conclusion_count",
        "counterexamples", "margins", "details", "passed",
    }


def test_campaign_sample_domain():
    with pytest.raises(ValueError):
        verify_thm_2_1(4, 2, samples=-1)
    with pytest.raises(ValueError):
        verify_thm_2_1(3, 2, samples=1)  # threshold domain: r >= 4


def test_class_campaigns_refuse_orders_above_the_cap_before_building(monkeypatch):
    built = []
    for name in ("extremal_even", "extremal_odd_m1", "extremal_odd_m2", "extremal_odd_m3"):
        monkeypatch.setattr(theorems, name, lambda *args: built.append(args))
    cap = "2049 vertices exceeds the cap of 2048"
    with pytest.raises(ValueError, match=cap):
        verify_thm_2_1(2048, 2, samples=0)
    for m in (1, 3):
        with pytest.raises(ValueError, match=cap):
            verify_thm_2_2(2047, m, samples=0)
    for m in (2, 4):  # even r: the next order above the cap is 2050
        with pytest.raises(ValueError, match="2050 vertices exceeds"):
            verify_thm_2_2(2048, m, samples=0)
    assert built == []


def test_even_r_odd_k_campaign_over_quartics():
    corpus = []
    for n in (5, 6, 7, 8):
        corpus.extend(enumerate_connected_regular(n, 4))
    rep = verify_thm_3_2(4, 1, 4, corpus)
    assert rep.passed
    assert rep.tested == len(corpus)
    assert rep.details["threshold"] == pytest.approx(1 + math.sqrt(7), abs=1e-12)
    # the companion threshold is smaller here, so the stated minimum
    # picks the other branch; the report must record that honestly
    assert rep.details["min_is_rho1"] is False
    rep3 = verify_thm_3_2(4, 3, 4, corpus)
    assert rep3.passed


def test_even_r_campaign_domain():
    corpus = enumerate_connected_regular(6, 4)
    with pytest.raises(ValueError):
        verify_thm_3_2(3, 1, 4, corpus)  # r must be even
    with pytest.raises(ValueError):
        verify_thm_3_2(4, 2, 4, corpus)  # k must be odd
    with pytest.raises(ValueError):
        verify_thm_3_2(4, 1, 2, corpus)  # m >= 3
    with pytest.raises(ValueError):
        verify_thm_3_2(4, 1, 3, corpus)  # k*m below r
    with pytest.raises(ValueError):
        verify_thm_3_2(4, 1, 4, [])
    with pytest.raises(ValueError):
        verify_thm_3_2(4, 1, 4, [disjoint_union(complete_graph(5), complete_graph(5))])
    with pytest.raises(ValueError):
        verify_thm_3_2(4, 1, 4, [petersen()])  # wrong degree


def test_odd_r_campaign_over_cubics():
    corpus = []
    for n in (4, 6, 8):
        corpus.extend(enumerate_connected_regular(n, 3))
    rep = verify_thm_3_3(3, 2, 3, corpus)
    assert rep.passed
    assert rep.tested == len(corpus)
    assert "variants" in rep.details
    rep2 = verify_thm_3_3(3, 1, 2, corpus)
    assert rep2.passed
    assert rep2.details["threshold"] == pytest.approx(2.8557725066359887, abs=1e-9)


def test_odd_r_campaign_domain():
    corpus = enumerate_connected_regular(6, 3)
    with pytest.raises(ValueError):
        verify_thm_3_3(4, 1, 3, corpus)  # r must be odd
    with pytest.raises(ValueError):
        verify_thm_3_3(3, 1, 1, corpus)  # no condition holds
    with pytest.raises(ValueError):
        verify_thm_3_3(3, 2, 3, [])


def _reaches_the_corpus(campaign, r, k, m) -> bool:
    # the corpus is checked only after every hypothesis rule has passed
    try:
        campaign(r, k, m, [])
    except ValueError as exc:
        return str(exc) == "corpus must contain at least one graph"
    raise AssertionError("an empty corpus was accepted")


def test_regular_campaigns_need_no_second_parity_check():
    # condition (i) already needs r even, k odd and 1 <= k < r, and
    # conditions (ii) and (iii) need r odd, so neither campaign restates them
    accepted = {"3.2": 0, "3.3": 0}
    for r in range(2, 13):
        for k in range(-1, r + 2):
            for m in range(-1, r + 4):
                if _reaches_the_corpus(verify_thm_3_2, r, k, m):
                    assert r % 2 == 0 and k % 2 == 1 and 1 <= k < r and m >= 3
                    accepted["3.2"] += 1
                if _reaches_the_corpus(verify_thm_3_3, r, k, m):
                    assert r % 2 == 1 and 1 <= k < r
                    accepted["3.3"] += 1
    # the counts from when both campaigns also re-checked the parities
    assert accepted == {"3.2": 126, "3.3": 236}


def test_class_campaign_can_fail(monkeypatch):
    # a planted threshold 0.05 above rho1 refutes the extremal member and
    # every sample that sits within 0.05 of it
    real = theorems.rho1

    def raised(r, m):
        t = real(r, m)
        return dataclasses.replace(t, value=t.value + 0.05)

    monkeypatch.setattr(theorems, "rho1", raised)
    rep = verify_thm_2_1(4, 2, 20, seed=0)
    assert (rep.tested, rep.conclusion_count) == (21, 17)
    assert not rep.passed and rep.details["extremal_attained"] is False
    assert rep.counterexamples == ["D~w", "D|{", "D~k", "D~s"]
    assert rep.counterexamples[0] == rep.details["extremal_graph6"]


# K4 with its edge 2-3 subdivided by vertex 4
_K4_SUBDIVIDED = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4))


def _three_blob_vehicle(blob=_K4_SUBDIVIDED) -> Graph:
    # three copies of a blob whose last vertex alone has degree two, those
    # vertices wired to a single hub: cubic, with the default blob 16
    # vertices and degree-one deficit 2
    size = max(max(e) for e in blob) + 1
    hub = 3 * size
    edges = []
    for o in range(0, hub, size):
        edges += [(o + u, o + v) for u, v in blob]
        edges.append((o + size - 1, hub))
    return Graph(hub + 1, edges)


def test_odd_r_campaign_judges_graphs_outside_the_hypothesis(monkeypatch):
    # the default blob is extremal_odd_m1(3), the only graph with degrees
    # (3, 3, 3, 3, 2), so the vehicle is the cubic sharpness witness: no 1-
    # or 2-factor, and lambda3 equal to the m = 1 threshold
    assert canonical_key(Graph(5, _K4_SUBDIVIDED)) == canonical_key(extremal_odd_m1(3))
    w = _three_blob_vehicle()
    assert not k_factor(w, 1).exists and not k_factor(w, 2).exists
    assert eigenvalues(w)[2] == pytest.approx(rho2(3, 1).value, abs=1e-12)
    for k, m in ((1, 2), (2, 3)):
        rep = verify_thm_3_3(3, k, m, [w])
        assert rep.hypothesis_count == 0 and rep.passed
        assert all(rep.details["variant_supported_by_data"].values())

    def raised(r, m):
        t = rho2(r, m)
        return dataclasses.replace(t, value=t.value + 0.1)

    # a threshold 0.1 higher puts the witness inside the hypothesis
    monkeypatch.setattr(theorems, "rho2", raised)
    rep = verify_thm_3_3(3, 1, 2, [w])
    assert rep.hypothesis_count == 1
    assert rep.counterexamples == [to_graph6(w)] and not rep.passed
    # at (3, 2, 3) the witness stays outside, and its lambda3 now refutes
    # the raised rho2(r, m-2) variant
    rep = verify_thm_3_3(3, 2, 3, [w])
    assert rep.hypothesis_count == 0 and rep.passed
    assert rep.details["variant_supported_by_data"] == {"rho1(r,m-1)": True, "rho2(r,m-2)": False}


def test_variant_check_queries_factors_only_below_a_variant(monkeypatch):
    # the witness sits on the stated threshold and below neither variant, so
    # judging the variants needs no factor query at all
    w = _three_blob_vehicle()
    calls = []

    def counted(g, k):
        calls.append((g.n, k))
        return k_factor(g, k)

    monkeypatch.setattr(theorems, "k_factor", counted)
    for k, m, supported in ((1, 2, {"rho2(r,m-1)": True}),
                            (2, 3, {"rho1(r,m-1)": True, "rho2(r,m-2)": True})):
        rep = verify_thm_3_3(3, k, m, [w])
        assert rep.hypothesis_count == 0 and rep.passed
        assert rep.details["variant_supported_by_data"] == supported
    assert calls == []


_VEHICLE_BLOBS = ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (10, 11, 12, 13, 14))


def test_deficiency_decomposition_on_live_graph():
    # the factor engine's Tutte pair is the sweep's lone maximizer ({15}, {})
    g = _three_blob_vehicle()
    assert g.is_regular() and g.degree(0) == 3
    for m in (2, 3):  # a looser deficit bound is also satisfied
        res = check_lemma_3_1(g, 1, m)
        assert res.applicable
        assert res.condition == "iii"
        assert res.deficiency == 2
        assert (res.s, res.t) == ((15,), ())
        assert res.satisfied
        assert res.subgraphs == _VEHICLE_BLOBS
        for sub in res.subgraphs:
            sub_edges = sum(1 for u, v in g.edges() if u in sub and v in sub)
            assert 2 * sub_edges >= 3 * len(sub) - (m - 1)


def test_deficiency_decomposition_even_k_on_same_vehicle():
    # same graph, k = 2: the worst pair puts the hub in the degree-sum side
    g = _three_blob_vehicle()
    for m in (2, 3):
        res = check_lemma_3_1(g, 2, m)
        assert res.applicable and res.condition == "ii"
        assert (res.s, res.t) == ((), (15,))
        assert res.deficiency == 2 and res.satisfied
        assert res.subgraphs == _VEHICLE_BLOBS


def test_deficiency_decomposition_above_the_sweep_cap():
    # prisms with one edge subdivided as blobs: cubic on 22 vertices, past
    # the sweep's 16, and answered from the factor engine's pair alone
    big = _three_blob_vehicle(((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                               (0, 3), (1, 4), (2, 6), (5, 6)))
    assert big.n == 22 and big.is_regular() and big.degree(0) == 3
    res = check_lemma_3_1(big, 1, 2)
    assert (res.s, res.t) == ((21,), ()) and res.deficiency == 2 and res.satisfied
    assert res.subgraphs == tuple(tuple(range(o, o + 7)) for o in (0, 7, 14))


def test_lemma_rejects_an_engine_pair_that_misses_the_deficiency(monkeypatch):
    # oracle.delta rechecks the engine's pair; a wrong one must not go unnoticed
    real = theorems.k_factor

    def wrong_pair(g, k):
        return dataclasses.replace(real(g, k), barrier=((0,), (1,)))

    monkeypatch.setattr(theorems, "k_factor", wrong_pair)
    with pytest.raises(RuntimeError, match="does not attain its deficiency"):
        check_lemma_3_1(_three_blob_vehicle(), 1, 2)


def test_deficiency_decomposition_gates():
    assert not check_lemma_3_1(cycle(4), 1, 2).applicable  # has a factor
    r = check_lemma_3_1(disjoint_union(cycle(3), cycle(3)), 1, 2)
    assert not r.applicable and "connected" in r.reason
    r2 = check_lemma_3_1(complete_graph(5), 1, 1)
    assert not r2.applicable and "condition" in r2.reason
    r3 = check_lemma_3_1(cycle(6), 1, 2)
    assert not r3.applicable  # even cycles have a perfect matching
    r4 = check_lemma_3_1(complete_graph(5), 1, 2)
    assert not r4.applicable
    r5 = check_lemma_3_1(cycle(5), 1, 2)
    assert not r5.applicable and "condition" in r5.reason  # odd order, even r
    r6 = check_lemma_3_1(Graph(3, [(0, 1), (1, 2)]), 1, 2)
    assert not r6.applicable and r6.reason == "input graph is not regular"
    r7 = check_lemma_3_1(cycle(4), 2, 2)
    assert not r7.applicable and r7.reason == "k outside 1 <= k < r"
    with pytest.raises(ValueError):
        check_lemma_3_1(_three_blob_vehicle(), 1, 0)


def test_critical_graph_is_not_a_decomposition_target():
    # K5 missing nothing: 1-critical, so the decomposition premise fails
    res = check_lemma_3_1(complete_graph(5), 1, 5)
    assert not res.applicable


def test_root_ordering_report():
    rep = ordering_report(4)
    roots = rep["roots"]
    assert roots["f1"] == pytest.approx(3.6261980685272936, abs=1e-10)
    assert roots["f2"] == pytest.approx(2 + math.sqrt(3), abs=1e-10)
    assert roots["f3"] == pytest.approx(3.820089374374788, abs=1e-10)
    assert rep["ordering"] == "f1<f2<f3"
    assert rep["min_is_f1"] is True
    assert rep["attained"]["two_p3_matches_f2"] is True
    assert rep["attained"]["claw_matches_f3"] is True
    assert rep["attained"]["odd_m2_matches_f1"] is False
    for r in (6, 8, 10):
        rr = ordering_report(r)
        assert rr["min_is_f1"] is True
        assert rr["roots"]["f1"] < rr["roots"]["f2"] < rr["roots"]["f3"]
    with pytest.raises(ValueError):
        ordering_report(5)


def test_profile_deficiency_matches_oracle_on_vehicle():
    g = _three_blob_vehicle()
    from specfactor.factors import deficiency

    assert deficiency(g, 1) == brute_force_deficiency(g, 1)[0] == 2
    small = complete_graph(5)
    got, _ = brute_force_deficiency(small, 1)
    assert got == 1
