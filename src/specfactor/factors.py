"""Factor solving by gadget reduction to maximum matching.

The solver uses one gadget: each edge becomes two joined edge nodes and
vertex v gets min(f(v), d(v)) slot nodes joined to v's edge nodes.  A
maximum matching yields a maximum subgraph with deg(v) <= f(v), of size nu;
def = sum(f) - 2*nu, and at def = 0 that subgraph is an f-factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph
from .matching import _max_matching_adj


@dataclass(frozen=True)
class FactorReport:
    exists: bool
    degrees: tuple[int, ...]
    edges: tuple[tuple[int, int], ...] | None
    deficiency: int


def _normalize_spec(g: Graph, spec: Sequence[int]) -> list[int]:
    f = [int(x) for x in spec]
    if len(f) != g.n:
        raise ValueError("degree spec length must equal vertex count")
    for v, fv in enumerate(f):
        if fv < 0:
            raise ValueError(f"degree spec is negative at vertex {v}")
    return f


def _bounded_subgraph(g: Graph, caps: Sequence[int]) -> list[tuple[int, int]]:
    """Edges of a maximum subgraph with deg(v) <= caps[v] for every v.

    Gadget: edge i becomes nodes 2i, 2i+1 (joined), then vertex v gets
    min(caps[v], d(v)) slot nodes joined to all of v's edge nodes.  In a
    maximum matching of it no edge has both nodes free, so the edges whose
    nodes are both matched to slots form the maximum bounded subgraph and
    nu = |matching| - e(g).
    """
    edges = g.edges()
    ends_of: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        ends_of[u].append(2 * i)
        ends_of[v].append(2 * i + 1)
    adj = [[node ^ 1] for node in range(2 * len(edges))]
    for v in range(g.n):
        for _ in range(min(caps[v], len(ends_of[v]))):
            for e_node in ends_of[v]:
                adj[e_node].append(len(adj))
            adj.append(list(ends_of[v]))
    match = _max_matching_adj(len(adj), adj)
    picked = []
    for i, (u, v) in enumerate(edges):
        a, b = 2 * i, 2 * i + 1
        if match[a] == -1 and match[b] == -1:
            raise RuntimeError("matching not maximum")
        if match[a] not in (-1, b) and match[b] not in (-1, a):
            picked.append((u, v))
    return picked


def deficiency(g: Graph, k: int) -> int:
    """k*n - 2*nu_k, where nu_k is the maximum size of a subgraph with all
    degrees at most k.  Zero exactly when a k-factor exists."""
    return k_factor(g, k).deficiency


def has_f_factor(g: Graph, spec: Sequence[int]) -> FactorReport:
    """Decide whether g has a spanning subgraph with degrees exactly f.

    One maximum subgraph with deg(v) <= f(v) gives the deficiency
    sum(f) - 2*nu; it is zero exactly when that subgraph has degree f(v)
    at every v, and then the subgraph is the returned factor (some
    f-factor, not a canonical one).
    """
    f = _normalize_spec(g, spec)
    picked = _bounded_subgraph(g, f)
    defect = sum(f) - 2 * len(picked)
    factor: tuple[tuple[int, int], ...] | None = None
    if defect == 0:
        factor = tuple(picked)
        degs = [0] * g.n
        for u, v in factor:
            degs[u] += 1
            degs[v] += 1
        if degs != f:
            raise RuntimeError("factor does not meet its degree spec")
    return FactorReport(
        exists=factor is not None,
        degrees=tuple(f),
        edges=factor,
        deficiency=defect,
    )


def k_factor(g: Graph, k: int) -> FactorReport:
    """Spanning k-regular subgraph query; deficiency is filled in either way."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return has_f_factor(g, [k] * g.n)


def is_k_critical(g: Graph, k: int) -> bool:
    """No k-factor, but for every vertex x some spanning subgraph hits
    degree k everywhere except k-1 or k+1 at x."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if (k * g.n) % 2 == 0:
        # near-factor degree sums k*n +- 1 are odd, so they cannot exist;
        # graphs with a k-factor are excluded by definition as well
        return False
    if k_factor(g, k).exists:
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
