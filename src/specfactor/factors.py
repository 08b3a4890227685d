"""Factor solving by gadget reduction to maximum matching.

The solver uses one gadget: each edge becomes two joined edge nodes and
vertex v gets min(f(v), d(v)) slot nodes joined to v's edge nodes.  A
maximum matching yields a maximum subgraph with deg(v) <= f(v), of size nu;
def = sum(f) - 2*nu, and at def = 0 that subgraph is an f-factor.

k-criticality answers all 2n near-factor queries (f = k but k +- 1 at one
vertex) from one matching of the k-gadget and the missable nodes that the
same pass returns; `is_k_critical` gives the rule and why it is exact (a
vertex's slot nodes are twins, and with f <= d an f-factor is a perfect
matching of the f-gadget).
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


def _gadget(
    g: Graph, caps: Sequence[int]
) -> tuple[list[tuple[int, int]], list[list[int]], list[list[int]], list[range], list[int]]:
    """The slot gadget: (edges, adj, ends_of, slots_of, start).

    Edge i becomes nodes 2i, 2i+1 (joined); ends_of[v] lists the edge nodes
    on v's side.  Vertex v then gets min(caps[v], d(v)) slot nodes,
    slots_of[v], each joined to all of ends_of[v], so v's slot nodes are
    twins.  start is a matching of the gadget from a greedy bounded
    subgraph: an edge whose ends both have a free slot takes one slot at
    each end, any other edge matches its two nodes, so only the slots that
    greedy leaves free are exposed.
    """
    edges = g.edges()
    ends_of: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        ends_of[u].append(2 * i)
        ends_of[v].append(2 * i + 1)
    adj = [[node ^ 1] for node in range(2 * len(edges))]
    slots_of = []
    for v in range(g.n):
        first = len(adj)
        for _ in range(min(caps[v], len(ends_of[v]))):
            for e_node in ends_of[v]:
                adj[e_node].append(len(adj))
            adj.append(list(ends_of[v]))
        slots_of.append(range(first, len(adj)))
    start = [node ^ 1 if node < 2 * len(edges) else -1 for node in range(len(adj))]
    taken = [0] * g.n
    for i, (u, v) in enumerate(edges):
        if taken[u] < len(slots_of[u]) and taken[v] < len(slots_of[v]):
            for node, w in ((2 * i, u), (2 * i + 1, v)):
                start[node] = slots_of[w][taken[w]]
                start[start[node]] = node
                taken[w] += 1
    return edges, adj, ends_of, slots_of, start


def _bounded_subgraph(g: Graph, caps: Sequence[int]) -> list[tuple[int, int]]:
    """Edges of a maximum subgraph with deg(v) <= caps[v] for every v.

    In a maximum matching of the slot gadget no edge has both nodes free,
    so the edges whose nodes are both matched to slots form the maximum
    bounded subgraph and nu = |matching| - e(g).
    """
    edges, adj, _, _, match = _gadget(g, caps)
    _max_matching_adj(len(adj), adj, match)
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
    degree k everywhere except k-1 or k+1 at x.

    Decided from one matching of the k-gadget.  A vertex of degree below k
    rules out the near-factor at every other vertex, so then only K1 at
    k = 1 is critical.  Otherwise every cap is k <= d(v), so an f-factor
    with f <= d exists exactly when the f-gadget has a perfect matching.
    Lowering f(x) to k-1 deletes one of x's slot nodes, and raising it to
    k+1 adds one more; x's slot nodes are twins, so which one does not
    matter.  The k-gadget has an odd number of nodes (so no k-factor), and
    either change leaves a perfect matching exactly when the k-gadget has
    one exposed node and, for k-1, a slot node of x is missable (some
    maximum matching leaves it exposed), or, for k+1, an edge node of x is
    missable (the new slot takes it).  That edge-node test needs no
    d(x) > k check: when x has d(x) = k slots, a matching that leaves one
    of x's edge nodes exposed leaves one of its slots exposed too.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if (k * g.n) % 2 == 0:
        # near-factor degree sums k*n +- 1 are odd, so they cannot exist;
        # graphs with a k-factor are excluded by definition as well
        return False
    if min(g.degrees()) < k:
        return g.n == 1 and k == 1
    _, adj, ends_of, slots_of, match = _gadget(g, [k] * g.n)
    missable = set(_max_matching_adj(len(adj), adj, match))
    if match.count(-1) != 1:
        return False
    return all(
        slots_of[x][0] in missable or any(e in missable for e in ends_of[x])
        for x in range(g.n)
    )
