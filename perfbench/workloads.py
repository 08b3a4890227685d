"""The four workloads: inputs made from the seed, one timed pass, output checks.

Each workload repeats the same pass over the same inputs.  `run_pass`
returns the pass's wall time and its outputs; `check` compares the outputs
with the references in `checks` and returns how many operations failed.
Import this module only after `run.import_program()` has put the package on
the path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import resource
import subprocess
import sys
import time
from collections import defaultdict
from functools import partial
from itertools import combinations
from pathlib import Path

from specfactor import Graph, cli, factors, oracle, spectral, theorems

import checks
from tracing import Tracer, installed

TOL = 1e-9


@dataclasses.dataclass
class PassResult:
    seconds: float
    step_seconds: list[float]
    outputs: list
    layers: dict | None = None
    spans: list | None = None
    rss_mb: float | None = None


def _timed(make_steps, trace: bool) -> PassResult:
    """Run the pass's steps in order, timing each; traced passes also record spans.

    The steps are made after the wrappers are installed, so that the package
    functions they bind are the traced ones.
    """
    clock = time.perf_counter
    times, outputs = [], []

    def run_steps():
        for step in make_steps():
            t0 = clock()
            outputs.append(step())
            times.append(clock() - t0)

    if not trace:
        t0 = clock()
        run_steps()
        return PassResult(clock() - t0, times, outputs)
    tracer = Tracer()
    with installed(tracer):
        t0 = clock()
        with tracer.root():
            run_steps()
        seconds = clock() - t0
    return PassResult(seconds, times, outputs, tracer.layer_metrics(), tracer.spans)


class _InProcess:
    """A workload whose pass runs in the benchmark's own process."""

    def run_pass(self, inputs, trace: bool) -> PassResult:
        return _timed(lambda: self.steps(inputs), trace)


def _random_connected(rng: random.Random, n: int) -> list[tuple[int, int]]:
    while True:
        p = rng.uniform(0.3, 0.7)
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        if checks.is_connected(n, edges):
            return edges


def _random_regular(rng: random.Random, n: int, r: int) -> list[tuple[int, int]]:
    """Connected r-regular graph from the stub-pairing model, by rejection."""
    stubs = [v for v in range(n) for _ in range(r)]
    while True:
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = sorted(stubs[i : i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            edges = sorted(edges)
            if checks.is_connected(n, edges):
                return edges


class OracleCrosscheck(_InProcess):
    """Tutte oracle against the matching engine on random connected graphs."""

    # (order, graphs per pass): 3^n sweeps weighted so each order takes a
    # comparable share of the pass, so a change that helps one order but
    # hurts another still shows
    ORDERS = ((7, 30), (8, 18), (9, 3))
    KS = (1, 2, 3)

    def __init__(self) -> None:
        self._memo: dict = {}

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        inputs = []
        for n, count in self.ORDERS:
            for _ in range(count):
                edges = _random_connected(rng, n)
                inputs.append((n, edges, Graph(n, edges)))
        return inputs

    def graphs(self, inputs) -> int:
        return len(inputs)

    def ops(self, inputs) -> int:
        return len(inputs)

    def _one(self, g):
        multi = oracle.brute_force_deficiency_multi(g, self.KS)
        engine = [factors.deficiency(g, k) for k in self.KS]
        reports = [factors.k_factor(g, k) for k in self.KS]
        pairs = oracle.optimal_pairs(g, 1) if multi[1][0] > 0 else None
        return multi, engine, reports, pairs

    def steps(self, inputs) -> list:
        return [partial(self._one, g) for _, _, g in inputs]

    def _neg_delta(self, i, n, edges, k, pair) -> int:
        key = (i, k, pair.s, pair.t)
        if key not in self._memo:
            self._memo[key] = checks.neg_delta(n, edges, k, pair.s, pair.t)
        return self._memo[key]

    def check_one(self, i, n, edges, result) -> bool:
        multi, engine, reports, pairs = result
        for k, eng, rep in zip(self.KS, engine, reports):
            d, first = multi[k]
            if eng != d or (d - k * n) % 2 != 0:
                return False
            if rep.exists != (d == 0) or rep.deficiency != d:
                return False
            if d == 0:
                if first.s or first.t or not checks.check_factor(n, edges, k, rep.edges):
                    return False
            elif rep.edges is not None:
                return False
            if self._neg_delta(i, n, edges, k, first) != d:
                return False
        if (multi[1][0] > 0) != (pairs is not None):
            return False
        if pairs is not None:
            value, found = pairs
            if value != multi[1][0] or not found:
                return False
            if any(self._neg_delta(i, n, edges, 1, p) != value for p in found):
                return False
        return True

    def check(self, inputs, outputs) -> int:
        return sum(
            not self.check_one(i, n, edges, res)
            for i, ((n, edges, _), res) in enumerate(zip(inputs, outputs))
        )


class ColdEnumeration:
    """`specfactor gen` through cli.main, each pass in a fresh process."""

    COMMANDS = (
        ("connected", 7, None),
        ("regular", 9, 4),
        ("regular", 10, 3),
        ("regular", 10, 4),
        ("regular", 10, 5),
        ("regular", 10, 6),
    )

    def __init__(self) -> None:
        self._memo: dict = {}

    def build(self, seed: int) -> list:
        # the corpora are exhaustive, so the seed changes nothing here
        return list(self.COMMANDS)

    @staticmethod
    def argv(kind, n, r) -> list[str]:
        if kind == "connected":
            return ["gen", "connected", "--n", str(n)]
        return ["gen", "regular", "--n", str(n), "--r", str(r)]

    def graphs(self, inputs) -> int:
        return sum(
            checks.CONNECTED_COUNTS[n] if kind == "connected" else checks.REGULAR_COUNTS[(n, r)]
            for kind, n, r in inputs
        )

    def ops(self, inputs) -> int:
        return len(inputs)

    def run_pass(self, inputs, trace: bool) -> PassResult:
        run_py = Path(__file__).with_name("run.py")
        cmd = [sys.executable, str(run_py), "--cold-pass", "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"cold pass exited {proc.returncode}: {proc.stderr.strip()}")
        return PassResult(**json.loads(proc.stdout.strip().splitlines()[-1]))

    @classmethod
    def child_pass(cls, trace: bool) -> dict:
        """One pass inside the fresh process: every command through cli.main."""

        def command(kind, n, r):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(cls.argv(kind, n, r))
            return code, buf.getvalue()

        res = _timed(lambda: [partial(command, *c) for c in cls.COMMANDS], trace)
        res.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return dataclasses.asdict(res)

    def check_one(self, kind, n, r, code, text) -> bool:
        if code != 0:
            return False
        env = json.loads(text)
        graphs = env["payload"]["graphs"]
        expected = checks.CONNECTED_COUNTS[n] if kind == "connected" else checks.REGULAR_COUNTS[(n, r)]
        if env["status"] != "ok" or env["payload"]["count"] != expected or len(graphs) != expected:
            return False
        groups = defaultdict(list)
        for line in graphs:
            try:
                gn, adj = checks.read_graph6(line)
            except ValueError:
                return False
            if gn != n or not checks.is_connected(gn, checks.edge_list(adj)):
                return False
            if r is not None and any(len(a) != r for a in adj):
                return False
            groups[checks.invariant(adj)].append(adj)
        return not any(
            checks.isomorphic(a, b) for group in groups.values() for a, b in combinations(group, 2)
        )

    def check(self, inputs, outputs) -> int:
        failed = 0
        for (kind, n, r), (code, text) in zip(inputs, outputs):
            key = (kind, n, r, code, text)
            if key not in self._memo:
                self._memo[key] = self.check_one(kind, n, r, code, text)
            failed += not self._memo[key]
        return failed


class ClassSampling(_InProcess):
    """Class-minimality campaigns (Theorems 2.1/2.2) on pairing-model samples."""

    # thm2.2 at m = 2 is left out: it reports its construction as a
    # counterexample by design
    # (theorem, r, m, samples).  A member's cost varies with its order (Jacobi
    # is cubic in n) and, at r = 5, with its geometric count of rejected
    # shuffles, so a pass needs several hundred members for its time to
    # depend little on the seed
    CAMPAIGNS = (
        ("thm2.1", 4, 2, 180),
        ("thm2.1", 4, 4, 180),
        ("thm2.2", 4, 4, 180),
        ("thm2.2", 3, 1, 300),
        ("thm2.2", 5, 3, 30),
    )

    def __init__(self) -> None:
        self._memo: dict = {}

    def build(self, seed: int) -> int:
        return seed

    def graphs(self, seed) -> int:
        return sum(samples + 1 for *_, samples in self.CAMPAIGNS)

    def ops(self, seed) -> int:
        return len(self.CAMPAIGNS)

    def steps(self, seed) -> list:
        return [
            partial(theorems.verify_thm_2_1 if name == "thm2.1" else theorems.verify_thm_2_2,
                    r, m, samples, seed=seed)
            for name, r, m, samples in self.CAMPAIGNS
        ]

    @staticmethod
    def closed_form(name: str, r: int, m: int) -> float:
        if name == "thm2.1":
            return checks.rho_even(r, m)
        return checks.p_root(r) if m == 1 else checks.rho_odd(r, m)

    def _extremal_lambda1(self, graph6: str) -> float:
        if graph6 not in self._memo:
            n, adj = checks.read_graph6(graph6)
            self._memo[graph6] = checks.spectrum(n, checks.edge_list(adj))[0]
        return self._memo[graph6]

    def check_one(self, name, r, m, samples, rep) -> bool:
        want = self.closed_form(name, r, m)
        d = rep.details
        return (
            rep.passed
            and rep.tested == samples + 1
            and rep.hypothesis_count == rep.conclusion_count == rep.tested
            and abs(d["threshold"] - want) <= TOL
            and abs(d["extremal_lambda1"] - want) <= TOL
            and abs(self._extremal_lambda1(d["extremal_graph6"]) - want) <= TOL
        )

    def check(self, seed, outputs) -> int:
        return sum(
            not self.check_one(*campaign, rep)
            for campaign, rep in zip(self.CAMPAIGNS, outputs)
        )


class RegularCampaign(_InProcess):
    """Eigenvalue-to-factor campaigns (Theorems 3.2/3.3) on random regular graphs."""

    # odd orders send every 4-regular graph under the lambda2 threshold
    # through is_k_critical, which is where matching takes its share; cubic
    # graphs need even order
    QUARTIC_ORDERS = tuple(range(20, 42)) * 2
    CUBIC_ORDERS = tuple(range(20, 42, 2))
    # (theorem, r, k, m); thresholds from the closed form rho_even(r, m0 - 1)
    # for thm3.2 (m0 = 3) and rho_even(r, m - 1) for thm3.3 with m odd
    CAMPAIGNS = (("thm3.2", 4, 1, 4), ("thm3.3", 3, 2, 3), ("thm3.3", 3, 1, 3))

    def __init__(self) -> None:
        self._spectra: dict = {}

    def build(self, seed: int) -> dict:
        rng = random.Random(seed)
        corpora = {}
        for r, orders in ((4, self.QUARTIC_ORDERS), (3, self.CUBIC_ORDERS)):
            corpora[r] = []
            for n in orders:
                edges = _random_regular(rng, n, r)
                corpora[r].append((n, edges, Graph(n, edges)))
        return corpora

    def graphs(self, corpora) -> int:
        return sum(len(corpora[r]) for _, r, _, _ in self.CAMPAIGNS)

    def ops(self, corpora) -> int:
        return len(self.CAMPAIGNS)

    def steps(self, corpora) -> list:
        return [
            partial(theorems.verify_thm_3_2 if name == "thm3.2" else theorems.verify_thm_3_3,
                    r, k, m, [g for _, _, g in corpora[r]])
            for name, r, k, m in self.CAMPAIGNS
        ]

    def spectra(self, r: int, corpora) -> list[list[float] | None]:
        """eigvalsh spectra of the corpus, or None where the package's own
        eigenvalues disagree with eigvalsh by more than TOL."""
        if r not in self._spectra:
            out = []
            for n, edges, g in corpora[r]:
                ref = checks.spectrum(n, edges)
                ours = spectral.eigenvalues(g)
                ok = len(ours) == n and all(abs(a - b) <= TOL for a, b in zip(ours, ref))
                out.append(ref if ok else None)
            self._spectra[r] = out
        return self._spectra[r]

    def check_one(self, name, r, k, m, corpora, rep) -> bool:
        spectra = self.spectra(r, corpora)
        if any(s is None for s in spectra):
            return False
        thr = checks.rho_even(r, 2 if name == "thm3.2" else m - 1)
        lams = [s[1] if name == "thm3.2" and len(s) % 2 == 1 else s[2] for s in spectra]
        margins = [lam - thr for lam in lams]
        hyp = sum(1 for lam in lams if lam < thr - TOL)
        got = rep.margins
        return (
            rep.passed
            and rep.tested == len(spectra)
            and rep.hypothesis_count == hyp
            and abs(rep.details["threshold"] - thr) <= TOL
            and abs(got["min"] - min(margins)) <= TOL
            and abs(got["max"] - max(margins)) <= TOL
            and abs(got["mean"] - sum(margins) / len(margins)) <= TOL
        )

    def check(self, corpora, outputs) -> int:
        return sum(
            not self.check_one(name, r, k, m, corpora, rep)
            for (name, r, k, m), rep in zip(self.CAMPAIGNS, outputs)
        )


WORKLOADS = {
    "oracle_crosscheck": OracleCrosscheck,
    "cold_enumeration": ColdEnumeration,
    "class_sampling": ClassSampling,
    "regular_campaign": RegularCampaign,
}
