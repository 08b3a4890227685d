"""Independent references for the benchmark's output checks.

Nothing here imports specfactor: graphs are (n, edge list) pairs or
adjacency sets, so a fault in the package cannot hide itself by being used
to check its own answers.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# OEIS A001349: connected graphs on n vertices, n = 1..7
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# connected r-regular graphs on n vertices (Meringer's tables)
REGULAR_COUNTS = {(9, 4): 16, (10, 3): 19, (10, 4): 59, (10, 5): 60, (10, 6): 21}


class UnionFind:
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


def is_connected(n: int, edges) -> bool:
    uf = UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    return len({uf.find(v) for v in range(n)}) <= 1


def neg_delta(n: int, edges, k: int, s, t) -> int:
    """-delta(S, T) from the definition: tau - k|S| - sum_{x in T} d_{G-S}(x) + k|T|,
    with tau the components C of G - (S u T) where e(C, T) + k|C| is odd."""
    s, t = set(s), set(t)
    if s & t:
        raise ValueError("S and T overlap")
    removed = s | t
    uf = UnionFind(n)
    for u, v in edges:
        if u not in removed and v not in removed:
            uf.union(u, v)
    size: dict[int, int] = {}
    to_t: dict[int, int] = {}
    for v in range(n):
        if v not in removed:
            root = uf.find(v)
            size[root] = size.get(root, 0) + 1
            to_t.setdefault(root, 0)
    degsum = 0
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if a in t and b not in s:
                degsum += 1
            if a in t and b not in removed:
                to_t[uf.find(b)] += 1
    tau = sum(1 for root in size if (to_t[root] + k * size[root]) % 2 == 1)
    return tau - k * len(s) - degsum + k * len(t)


def check_factor(n: int, edges, k: int, factor_edges) -> bool:
    """factor_edges are distinct edges of the graph giving every vertex degree k."""
    have = {(min(u, v), max(u, v)) for u, v in edges}
    picked = [(min(u, v), max(u, v)) for u, v in factor_edges]
    if len(set(picked)) != len(picked) or not set(picked) <= have:
        return False
    deg = [0] * n
    for u, v in picked:
        deg[u] += 1
        deg[v] += 1
    return all(d == k for d in deg)


def read_graph6(line: str) -> tuple[int, list[set[int]]]:
    """Decode a graph6 line with n <= 62 into adjacency sets."""
    data = [ord(c) - 63 for c in line.strip()]
    if not data or any(not 0 <= x <= 63 for x in data) or data[0] > 62:
        raise ValueError(f"not a small graph6 line: {line!r}")
    n = data[0]
    bits = [(x >> s) & 1 for x in data[1:] for s in range(5, -1, -1)]
    need = n * (n - 1) // 2
    if len(data) - 1 != (need + 5) // 6 or any(bits[need:]):
        raise ValueError(f"bad graph6 length or padding: {line!r}")
    adj: list[set[int]] = [set() for _ in range(n)]
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adj[i].add(j)
                adj[j].add(i)
            idx += 1
    return n, adj


def edge_list(adj: list[set[int]]) -> list[tuple[int, int]]:
    return [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]


def _vertex_signatures(adj: list[set[int]]) -> list[tuple]:
    deg = [len(a) for a in adj]
    sigs = []
    for v, a in enumerate(adj):
        tri = sum(1 for x, y in combinations(sorted(a), 2) if y in adj[x])
        sigs.append((deg[v], tri, tuple(sorted(deg[u] for u in a))))
    return sigs


def invariant(adj: list[set[int]]) -> tuple:
    """Isomorphism invariant: the sorted per-vertex (degree, triangles,
    neighbour degrees) signatures."""
    return (len(adj), tuple(sorted(_vertex_signatures(adj))))


def isomorphic(a: list[set[int]], b: list[set[int]]) -> bool:
    """Backtracking search for an adjacency-preserving bijection that
    respects the per-vertex signatures."""
    n = len(a)
    if n != len(b):
        return False
    sa, sb = _vertex_signatures(a), _vertex_signatures(b)
    if sorted(sa) != sorted(sb):
        return False
    order = sorted(range(n), key=lambda v: (-len(a[v]), v))
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or sb[w] != sa[v]:
                continue
            if all((image[u] in b[w]) == (u in a[v]) for u in order[:i]):
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
        image[v] = -1
        return False

    return extend(0)


def rho_even(r: int, m: int) -> float:
    """(r - 2 + sqrt((r+2)^2 - 4m)) / 2."""
    return 0.5 * (r - 2 + math.sqrt((r + 2) ** 2 - 4 * m))


def rho_odd(r: int, m: int) -> float:
    """(r - 3 + sqrt((r+3)^2 - 4m)) / 2, the odd-family closed form for m >= 3."""
    return 0.5 * (r - 3 + math.sqrt((r + 3) ** 2 - 4 * m))


def p_root(r: int) -> float:
    """Greatest real root of P = x^3 - (r-2)x^2 - 2rx + (r-1), from numpy.roots."""
    roots = np.roots([1.0, -(r - 2.0), -2.0 * r, r - 1.0])
    return float(max(z.real for z in roots if abs(z.imag) < 1e-9))


def spectrum(n: int, edges) -> list[float]:
    """Adjacency eigenvalues, descending, from numpy.linalg.eigvalsh."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return [float(x) for x in np.linalg.eigvalsh(a)[::-1]]
