"""The benchmark's own tests: each output check passes the package's real
answers and rejects a planted wrong one.

    python3 -m pytest perfbench -q
"""

import contextlib
import copy
import dataclasses
import io
import json
import random
from pathlib import Path

import pytest

import run

run.import_program()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from specfactor import Graph, cli, oracle, spectral, to_graph6  # noqa: E402


@pytest.fixture(scope="module")
def crosscheck():
    wl = workloads.OracleCrosscheck()
    wl.ORDERS = ((7, 4), (8, 3))
    inputs = wl.build(3)
    res = wl.run_pass(inputs, False)
    assert wl.check(inputs, res.outputs) == 0
    return wl, inputs, res.outputs


def test_neg_delta_matches_package_delta():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(2, 8)
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
        g = Graph(n, edges)
        roles = [rng.randrange(3) for _ in range(n)]
        s = [v for v in range(n) if roles[v] == 1]
        t = [v for v in range(n) if roles[v] == 2]
        k = rng.randrange(1, 4)
        assert checks.neg_delta(n, edges, k, s, t) == -oracle.delta(g, k, (s, t)).delta


def test_crosscheck_rejects_engine_deficiency_off_by_one(crosscheck):
    wl, inputs, outputs = crosscheck
    n, edges, _ = inputs[0]
    multi, engine, reports, pairs = outputs[0]
    assert not wl.check_one(0, n, edges, (multi, [engine[0] + 1] + engine[1:], reports, pairs))


def test_crosscheck_rejects_oracle_deficiency_off_by_one(crosscheck):
    wl, inputs, outputs = crosscheck
    n, edges, _ = inputs[0]
    multi, engine, reports, pairs = outputs[0]
    bad = dict(multi)
    bad[2] = (multi[2][0] + 1, multi[2][1])
    assert not wl.check_one(0, n, edges, (bad, engine, reports, pairs))


def test_crosscheck_rejects_pair_that_misses_the_deficiency(crosscheck):
    wl, inputs, outputs = crosscheck
    i = next(i for i, out in enumerate(outputs) if out[3] is not None)
    n, edges, _ = inputs[i]
    multi, engine, reports, (value, found) = outputs[i]
    wrong = oracle.STPair(tuple(range(n)), ())
    assert checks.neg_delta(n, edges, 1, wrong.s, wrong.t) != value
    assert not wl.check_one(i, n, edges, (multi, engine, reports, (value, found + [wrong])))


def test_crosscheck_rejects_factor_with_missing_edge(crosscheck):
    wl, inputs, outputs = crosscheck
    i = next(i for i, out in enumerate(outputs) if out[2][1].exists)
    n, edges, _ = inputs[i]
    multi, engine, reports, pairs = outputs[i]
    bad = list(reports)
    bad[1] = dataclasses.replace(reports[1], edges=reports[1].edges[1:])
    assert not wl.check_one(i, n, edges, (multi, engine, bad, pairs))


def _gen_regular(n, r):
    wl = workloads.ColdEnumeration()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(wl.argv("regular", n, r))
    return wl, code, json.loads(buf.getvalue())


def _with_graphs(envelope, graphs):
    env = copy.deepcopy(envelope)
    env["payload"]["graphs"] = graphs
    env["payload"]["count"] = len(graphs)
    return json.dumps(env)


def test_enumeration_check_accepts_real_output_and_rejects_count_off_by_one():
    wl, code, env = _gen_regular(10, 3)
    assert wl.check_one("regular", 10, 3, code, json.dumps(env))
    graphs = env["payload"]["graphs"]
    assert not wl.check_one("regular", 10, 3, code, _with_graphs(env, graphs[:-1]))
    bumped = copy.deepcopy(env)
    bumped["payload"]["count"] += 1
    assert not wl.check_one("regular", 10, 3, code, json.dumps(bumped))


def test_enumeration_check_rejects_isomorphic_duplicate():
    wl, code, env = _gen_regular(10, 3)
    graphs = env["payload"]["graphs"]
    n, adj = checks.read_graph6(graphs[0])
    perm = list(range(n))[::-1]
    relabeled = Graph(n, [(perm[u], perm[v]) for u, v in checks.edge_list(adj)])
    planted = graphs[:-1] + [to_graph6(relabeled)]
    assert to_graph6(relabeled) != graphs[0]
    assert not wl.check_one("regular", 10, 3, code, _with_graphs(env, planted))


def test_isomorphic_on_relabelings_and_non_isomorphic_pairs():
    rng = random.Random(2)
    for _ in range(30):
        n = 8
        edges = {(u, v) for v in range(n) for u in range(v) if rng.random() < 0.4}
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        perm = list(range(n))
        rng.shuffle(perm)
        other = [set() for _ in range(n)]
        for u, v in edges:
            other[perm[u]].add(perm[v])
            other[perm[v]].add(perm[u])
        assert checks.isomorphic(adj, other)
    # C6 and two triangles: same degrees, not isomorphic
    c6 = [{(v - 1) % 6, (v + 1) % 6} for v in range(6)]
    two_k3 = [{1, 2}, {0, 2}, {0, 1}, {4, 5}, {3, 5}, {3, 4}]
    assert not checks.isomorphic(c6, two_k3)


@pytest.fixture(scope="module")
def sampling():
    wl = workloads.ClassSampling()
    wl.CAMPAIGNS = tuple((name, r, m, 3) for name, r, m, _ in wl.CAMPAIGNS)
    seed = wl.build(4)
    res = wl.run_pass(seed, False)
    assert wl.check(seed, res.outputs) == 0
    return wl, res.outputs


def test_sampling_check_rejects_perturbed_threshold_and_tested_count(sampling):
    wl, outputs = sampling
    for campaign, rep in zip(wl.CAMPAIGNS, outputs):
        bad = copy.deepcopy(rep)
        bad.details["threshold"] += 1e-6
        assert not wl.check_one(*campaign, bad)
        bad = copy.deepcopy(rep)
        bad.details["extremal_lambda1"] -= 1e-6
        assert not wl.check_one(*campaign, bad)
        bad = copy.deepcopy(rep)
        bad.tested += 1
        assert not wl.check_one(*campaign, bad)


def test_p_root_is_the_m1_threshold():
    for r in (3, 5, 7, 9):
        assert abs(checks.p_root(r) - spectral.rho2(r, 1).value) < 1e-9


@pytest.fixture(scope="module")
def campaign():
    wl = workloads.RegularCampaign()
    wl.QUARTIC_ORDERS = (20, 21, 23)
    wl.CUBIC_ORDERS = (20, 22)
    corpora = wl.build(6)
    res = wl.run_pass(corpora, False)
    assert wl.check(corpora, res.outputs) == 0
    return wl, corpora, res.outputs


def test_campaign_check_rejects_hypothesis_count_off_by_one(campaign):
    wl, corpora, outputs = campaign
    for (name, r, k, m), rep in zip(wl.CAMPAIGNS, outputs):
        bad = copy.deepcopy(rep)
        bad.hypothesis_count += 1
        assert not wl.check_one(name, r, k, m, corpora, bad)
        bad = copy.deepcopy(rep)
        bad.margins["min"] += 1e-6
        assert not wl.check_one(name, r, k, m, corpora, bad)


def test_campaign_check_rejects_perturbed_eigenvalue(campaign, monkeypatch):
    wl, corpora, outputs = campaign
    real = spectral.eigenvalues

    def perturbed(g):
        lams = real(g)
        lams[2] += 1e-6
        return lams

    monkeypatch.setattr(spectral, "eigenvalues", perturbed)
    fresh = workloads.RegularCampaign()
    name, r, k, m = fresh.CAMPAIGNS[0]
    assert not fresh.check_one(name, r, k, m, corpora, outputs[0])


def test_traced_self_times_add_up_to_the_pass(sampling):
    wl, _ = sampling
    res = wl.run_pass(4, True)
    layers = res.layers
    total = sum(layers[name] for name in tracing.SELF_TIME_METRICS)
    assert abs(total - layers["bench.traced_pass_s"]) < 1e-6
    assert layers["corpus.members"] == sum(c[-1] for c in wl.CAMPAIGNS)
    assert layers["corpus.pairings"] >= layers["corpus.members"]
    assert layers["spectral.calls"] > 0 and layers["theorems.self_s"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["graphs_per_s", "setup_s", "peak_rss_mb"]
