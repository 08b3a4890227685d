"""Shared fixtures: corpora, random graphs, and independent references.

The naive deficiency reference here recomputes the Tutte functional from
its definition with a base-3 assignment counter and a union-find rebuilt
per pair, so the optimized sweep in the package is checked against an
implementation that shares no code with it; its degree-spec form
naive_delta_f checks the factor engine's Tutte pairs.  The cyclic Jacobi solver here
is the reference for the package's eigvalsh spectra, the full-signature
canonical labeling is the reference for the package's splitter refinement,
the per-vertex near-factor loop is the reference for the package's
one-matching k-criticality rule, and the full-scan blossom search from a
plain greedy start is the reference for the package's matching engine.
"""

from __future__ import annotations

import functools
import math
import random
import signal

import numpy as np
import pytest

from specfactor.corpus import enumerate_connected_graphs, enumerate_connected_regular
from specfactor.factors import has_f_factor, k_factor
from specfactor.graph import Graph, bits, component_masks
from specfactor.matching import _max_matching_adj


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def naive_delta(g: Graph, k: int, s: tuple[int, ...], t: tuple[int, ...]) -> int:
    return naive_delta_f(g, [k] * g.n, s, t)


def naive_delta_f(g: Graph, f, s: tuple[int, ...], t: tuple[int, ...]) -> int:
    """Lovasz's delta_f(S, T) = f(S) + sum over x in T of d_{G-S}(x) - f(T)
    - tau, where tau counts the components C of G - (S u T) with
    e(C, T) + f(C) odd; its minimum over disjoint pairs is -deficiency."""
    n = g.n
    sset, tset = set(s), set(t)
    rest = [v for v in range(n) if v not in sset and v not in tset]
    uf = _UnionFind(n)
    for u, v in g.edges():
        if u in rest and v in rest:
            uf.union(u, v)
    comps: dict[int, list[int]] = {}
    for v in rest:
        comps.setdefault(uf.find(v), []).append(v)
    tau = 0
    for comp in comps.values():
        e_to_t = sum(1 for u, v in g.edges() if (u in comp) != (v in comp) and (u in tset or v in tset))
        if (e_to_t + sum(f[v] for v in comp)) % 2 == 1:
            tau += 1
    degree_sum = sum(
        sum(1 for w in bits(g.row(x)) if w not in sset) for x in t
    )
    return sum(f[v] for v in s) + degree_sum - sum(f[v] for v in t) - tau


def naive_deficiency(g: Graph, k: int) -> int:
    worst = 0
    n = g.n
    for code in range(3 ** n):
        s, t = [], []
        c = code
        for v in range(n):
            c, which = divmod(c, 3)
            if which == 1:
                s.append(v)
            elif which == 2:
                t.append(v)
        worst = min(worst, naive_delta(g, k, tuple(s), tuple(t)))
    return -worst


# seconds any one test may run; the slowest, criterion 04, takes about 20
TEST_TIME_LIMIT = 300


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test that runs past TEST_TIME_LIMIT instead of hanging the
    suite.  A fixture that arms its own, shorter alarm (the matching
    watchdog) replaces this one for the test and restores it after."""

    def stop(signum, frame):
        pytest.fail(f"{request.node.nodeid} did not finish in {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(TEST_TIME_LIMIT)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def connected_by_n() -> dict[int, list[Graph]]:
    return {n: enumerate_connected_graphs(n) for n in range(1, 9)}


@pytest.fixture(scope="session")
def cubic_corpus() -> list[Graph]:
    out: list[Graph] = []
    for n in (4, 6, 8, 10):
        out.extend(enumerate_connected_regular(n, 3))
    return out


@pytest.fixture(scope="session")
def quartic_corpus() -> list[Graph]:
    out: list[Graph] = []
    for n in (5, 6, 7, 8, 9, 10):
        out.extend(enumerate_connected_regular(n, 4))
    return out


def reference_sweep(g: Graph, ks, collect_for=None):
    """The sweep as a scalar loop over pairs, in the package's sweep order.

    U = S u T ascends as a bitmask integer and T descends over the submasks
    of U.  Returns (best, arg, gathered) exactly as oracle._sweep does: the
    best -delta per k, the first pair attaining it as (S mask, T mask), and
    for k == collect_for every optimal pair in visiting order.
    """
    n = g.n
    rows = g.rows
    deg = [r.bit_count() for r in rows]
    full = (1 << n) - 1
    best: dict[int, int] = {}
    arg: dict[int, tuple[int, int]] = {}
    gathered: list[tuple[int, int]] = []
    for u in range(full + 1):
        cdata = []
        for comp in component_masks(g, full & ~u):
            oc = 0
            m = u
            while m:
                lsb = m & -m
                if (rows[lsb.bit_length() - 1] & comp).bit_count() & 1:
                    oc |= lsb
                m ^= lsb
            cdata.append((oc, comp.bit_count() & 1))
        tsub = u
        while True:
            smask = u ^ tsub
            szdiff = smask.bit_count() - tsub.bit_count()
            degsum = 0
            m = tsub
            while m:
                lsb = m & -m
                x = lsb.bit_length() - 1
                degsum += deg[x] - (rows[x] & smask).bit_count()
                m ^= lsb
            tau_even = 0
            tau_odd = 0
            for oc, codd in cdata:
                pe = (tsub & oc).bit_count() & 1
                tau_even += pe
                tau_odd += pe ^ codd
            for k in ks:
                tau = tau_odd if k & 1 else tau_even
                val = tau - degsum - k * szdiff
                prev = best.get(k)
                if prev is None or val > prev:
                    best[k] = val
                    arg[k] = (smask, tsub)
                    if k == collect_for:
                        gathered = [(smask, tsub)]
                elif val == prev and k == collect_for:
                    gathered.append((smask, tsub))
            if tsub == 0:
                break
            tsub = (tsub - 1) & u
    return best, arg, gathered


@functools.lru_cache(maxsize=1)
def _subset_degrees(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Degree vector and size of every edge subset of g, one row per subset."""
    edges = g.edges()
    chosen = (np.arange(1 << len(edges))[:, None] >> np.arange(len(edges))) & 1
    incidence = np.zeros((len(edges), g.n), dtype=np.int64)
    for i, (u, v) in enumerate(edges):
        incidence[i, u] = incidence[i, v] = 1
    return chosen @ incidence, chosen.sum(axis=1)


def reference_f_factor(g: Graph, f) -> tuple[bool, int]:
    """(exists, deficiency) for degree spec f by enumerating edge subsets.

    The deficiency is sum(f) - 2 max |F| over subgraphs F with
    deg_F(v) <= f(v) for every v; no matching or gadget is involved.
    """
    degs, sizes = _subset_degrees(g)
    fits = np.all(degs <= np.asarray(f), axis=1)
    defect = sum(f) - 2 * int(sizes[fits].max())
    return defect == 0, defect


def adjacency_lists(g: Graph) -> list[list[int]]:
    """Neighbors of each vertex, ascending."""
    return [list(bits(row)) for row in g.rows]


def max_matching(g: Graph) -> list[tuple[int, int]]:
    """Edges of a maximum matching of g, each pair sorted, list sorted."""
    adj = adjacency_lists(g)
    match = [-1] * g.n
    _max_matching_adj(g.n, adj, match)
    return sorted((v, match[v]) for v in range(g.n) if match[v] > v)


def matching_number(g: Graph) -> int:
    return len(max_matching(g))


def _reference_blossom_search(adj: list[list[int]], match: list[int]):
    """The blossom search with a full scan of all nodes per contraction.

    Returns (find_path, p, used) like matching._blossom_search.
    """
    n = len(adj)
    p = [0] * n
    base = [0] * n
    used = [False] * n
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
        visited = [False] * n
        while True:
            a = base[a]
            visited[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if visited[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> int:
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        q = [root]
        head = 0
        while head < len(q):
            v = q[head]
            head += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    return find_path, p, used


def greedy_matching(adj: list[list[int]]) -> list[int]:
    """match[]: each node in turn takes its first free neighbour."""
    match = [-1] * len(adj)
    for v, nbrs in enumerate(adj):
        for u in nbrs:
            if match[v] == -1 and match[u] == -1:
                match[v], match[u] = u, v
    return match


def reference_max_matching(adj: list[list[int]]) -> list[int]:
    """match[] of a maximum matching: the greedy start, then the full-scan
    search per exposed node."""
    match = greedy_matching(adj)
    find_path, p, _ = _reference_blossom_search(adj, match)
    for v in range(len(adj)):
        if match[v] == -1:
            u = find_path(v)
            while u != -1:
                pv = p[u]
                ppv = match[pv]
                match[u], match[pv] = pv, u
                u = ppv
    return match


def reference_missable(adj: list[list[int]], match: list[int]) -> list[bool]:
    """Nodes some maximum matching leaves exposed, by the full-scan search."""
    find_path, _, used = _reference_blossom_search(adj, match)
    missable = [False] * len(adj)
    for root, mate in enumerate(match):
        if mate == -1:
            if find_path(root) != -1:
                raise RuntimeError("matching not maximum")
            missable = [m or u for m, u in zip(missable, used)]
    return missable


def reference_is_k_critical(g: Graph, k: int) -> bool:
    """k-criticality by its definition: no k-factor, and for every vertex x
    an f-factor with f = k except k + 1 or k - 1 at x, one query each."""
    if (k * g.n) % 2 == 0 or k_factor(g, k).exists:
        return False
    for x in range(g.n):
        f = [k] * g.n
        found = False
        for fx in (k + 1, k - 1):
            f[x] = fx
            if has_f_factor(g, f).exists:
                found = True
                break
        if not found:
            return False
    return True


def jacobi_eigenvalues(a: np.ndarray, off_tol: float = 1e-12) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, descending."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    if n <= 1:
        return np.diag(a).copy()

    tol_sq = off_tol * off_tol
    for _ in range(80):
        # summing the off-diagonal squares directly avoids the cancellation
        # floor of ||A||^2 - ||diag||^2, which never reaches tol_sq
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        off_sq = float(np.sum(off * off))
        if off_sq <= tol_sq:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-15:
                    continue
                app, aqq = a[p, p], a[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi iteration failed to converge")
    return np.sort(np.diag(a))[::-1].copy()


def _reference_refine(n: int, rows, colors: list[int]) -> list[int]:
    """Rank every vertex by (color, counts into every color class) until stable."""
    while True:
        classes: dict[int, int] = {}
        for v in range(n):
            classes[colors[v]] = classes.get(colors[v], 0) | (1 << v)
        masks = [classes[c] for c in sorted(classes)]
        sigs = [
            (colors[v], tuple((rows[v] & m).bit_count() for m in masks))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def reference_canonical_labeling(g: Graph, colors=None):
    """(key, perm, search nodes) by full-signature refinement and the same search.

    Every round recomputes each vertex's counts into every class, and a
    search child marks its individualized vertex with color -1; the package
    must return the same (key, perm) and visit the same number of nodes.
    """
    n = g.n
    rows = g.rows
    init = tuple(colors) if colors is not None else (0,) * n
    if n == 0:
        return ((), ()), (), 0
    nbrs = [list(bits(r)) for r in rows]
    best: list = [None, None]
    nodes = [0]

    def leaf(cols: list[int]) -> None:
        perm = sorted(range(n), key=lambda v: cols[v])
        pos = [0] * n
        for i, v in enumerate(perm):
            pos[v] = i
        newrows = [0] * n
        for v in range(n):
            for u in nbrs[v]:
                newrows[pos[v]] |= 1 << pos[u]
        key = (tuple(newrows), tuple(init[v] for v in perm))
        if best[0] is None or key > best[0]:
            best[0], best[1] = key, tuple(perm)

    def search(cols: list[int]) -> None:
        nodes[0] += 1
        counts: dict[int, int] = {}
        for c in cols:
            counts[c] = counts.get(c, 0) + 1
        big = [c for c in sorted(counts) if counts[c] > 1]
        if not big:
            leaf(cols)
            return
        tried: list[int] = []
        for v in [v for v in range(n) if cols[v] == big[0]]:
            vb = 1 << v
            skip = any(
                rows[u] & ~(vb | 1 << u) == rows[v] & ~(vb | 1 << u) for u in tried
            )
            tried.append(v)
            if not skip:
                child = list(cols)
                child[v] = -1
                search(_reference_refine(n, rows, child))

    search(_reference_refine(n, rows, list(init)))
    return best[0], best[1], nodes[0]
