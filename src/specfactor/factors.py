"""Factor solving by gadget reduction to maximum matching.

The solver uses one gadget: vertex v gets min(f(v), d(v)) slot nodes, an
edge between two one-slot vertices joins their slots, and any other edge
becomes two joined edge nodes, each joined to the slots of its end.  A
maximum matching yields a maximum subgraph with deg(v) <= f(v), of size nu;
def = sum(f) - 2*nu, and at def = 0 that subgraph is an f-factor.  At
k = 1 the gadget is the graph itself.

At def > 0 the missable marks of the same matching give the canonical
Tutte pair (S, T) with delta_f(S, T) = -def (Lovasz, JCT 8, 1970; Lovasz
& Plummer, Matching Theory, ch. 10); for f = k, `oracle.delta` checks it.

k-criticality answers all 2n near-factor queries (f = k but k +- 1 at one
vertex) from one matching of the k-gadget and the missable nodes that the
same pass returns; `is_k_critical` gives the rule and why it is exact (a
vertex's slot nodes are twins, and with f <= d an f-factor is a perfect
matching of the f-gadget).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .graph import Graph, as_count, as_integer, bits
from .matching import _max_matching_adj

Pair = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class FactorReport:
    """edges: some f-factor, if any; barrier: the Tutte pair at deficiency > 0."""

    exists: bool
    edges: tuple[tuple[int, int], ...] | None
    deficiency: int
    barrier: Pair | None


def _normalize_spec(g: Graph, spec: Sequence[int]) -> list[int]:
    f = [as_count(x, f"degree spec at vertex {v}") for v, x in enumerate(spec)]
    if len(f) != g.n:
        raise ValueError("degree spec length must equal vertex count")
    return f


def _gadget(
    g: Graph, caps: Sequence[int]
) -> tuple[list[tuple[int, int, int, int]], list[list[int]], list[list[int]], list[range], list[int]]:
    """The slot gadget: (links, adj, ends_of, slots_of, start).

    Vertex v gets min(caps[v], d(v)) slot nodes, slots_of[v], numbered
    vertex by vertex from 0, so v's slots are twins.  An edge between two
    one-slot vertices joins their slots; any other edge becomes two joined
    edge nodes, each joined to every slot of its end.  ends_of[v] lists,
    in neighbour order, the node v's slots meet on each edge: v's edge
    node, or the neighbour's slot.  links holds (u, v, p, q) per edge in
    g.edges() order, with p in ends_of[u] and q in ends_of[v].  At k = 1,
    with no isolated vertex, the gadget is g itself.

    A joined edge is the path s_u - a - b - s_v with its degree-2 nodes
    contracted: every maximum matching loses one edge, and a (b) is
    missable in the full gadget iff s_v (s_u) is in the joined one, while
    s_u and s_v keep their marks.  So marks read through ends_of mean what
    they mean for edge nodes.

    start is a matching from a greedy bounded subgraph: an edge whose ends
    both have a free slot matches p and q to one slot at their ends, any
    other edge matches its edge nodes if it has them, so only the slots
    greedy leaves free are exposed.
    """
    slots = [min(c, d) for c, d in zip(caps, g.degrees())]
    first = [0, *accumulate(slots)]
    slots_of = [range(a, b) for a, b in zip(first, first[1:])]
    adj: list[list[int]] = [[] for _ in range(first[-1])]
    start = [-1] * first[-1]
    ends_of: list[list[int]] = [[] for _ in range(g.n)]
    # each vertex's lowest slot that the greedy start has not taken
    free = first[:-1]
    links = []
    for u, row in enumerate(g.rows):
        for v in bits(row >> (u + 1) << (u + 1)):
            if slots[u] == 1 == slots[v]:
                p, q = first[v], first[u]
                adj[q].append(p)
                adj[p].append(q)
            else:
                p, q = len(adj), len(adj) + 1
                adj += ([q, *slots_of[u]], [p, *slots_of[v]])
                for s in slots_of[u]:
                    adj[s].append(p)
                for s in slots_of[v]:
                    adj[s].append(q)
                start += (q, p)
            a, b = free[u], free[v]
            if a < first[u + 1] and b < first[v + 1]:
                # on a joined edge a = q and b = p: the two slots pair up
                start[a], start[p], start[b], start[q] = p, a, q, b
                free[u], free[v] = a + 1, b + 1
            ends_of[u].append(p)
            ends_of[v].append(q)
            links.append((u, v, p, q))
    return links, adj, ends_of, slots_of, start


def _bounded_subgraph(g: Graph, caps: Sequence[int]) -> tuple[list[tuple[int, int]], Pair | None]:
    """Edges of a maximum subgraph with deg(v) <= caps[v] for every v, and
    its Tutte pair (S, T) when it misses some cap (else None).

    An edge (u, v, p, q) is taken when p is matched to a slot of u and q to
    a slot of v (for a joined edge: its two slots to each other).  A
    maximum matching never leaves p and q both free, and its taken edges
    form a maximum bounded subgraph.

    The pair comes from the same matching's missable marks.  v is low
    (below caps[v] in some optimal subgraph) when caps[v] > d(v) or its
    first slot is marked (slots are twins); v is high when a node of
    ends_of[v] is marked (never when caps[v] >= d(v): such an exposed edge
    node would meet an exposed slot).  S = high - low, T = low - high.
    """
    links, adj, ends_of, slots_of, match = _gadget(g, caps)
    missable = _max_matching_adj(len(adj), adj, match)
    picked = []
    for u, v, p, q in links:
        if match[p] == -1 and match[q] == -1:
            raise RuntimeError("matching not maximum")
        if match[p] in slots_of[u] and match[q] in slots_of[v]:
            picked.append((u, v))
    if sum(caps) == 2 * len(picked):
        return picked, None
    marked = set(missable)
    s: list[int] = []
    t: list[int] = []
    for v, (slots, ends) in enumerate(zip(slots_of, ends_of)):
        low = len(slots) < caps[v] or not marked.isdisjoint(slots[:1])
        high = not marked.isdisjoint(ends)
        if high != low:
            (s if high else t).append(v)
    return picked, (tuple(s), tuple(t))


def deficiency(g: Graph, k: int) -> int:
    """k*n - 2*nu_k, where nu_k is the maximum size of a subgraph with all
    degrees at most k.  Zero exactly when a k-factor exists."""
    return k_factor(g, k).deficiency


def has_f_factor(g: Graph, spec: Sequence[int]) -> FactorReport:
    """Decide whether g has a spanning subgraph with degrees exactly f.

    One maximum subgraph with deg(v) <= f(v) gives the deficiency
    sum(f) - 2*nu; it is zero exactly when that subgraph has degree f(v)
    at every v, and then the subgraph is the returned factor (some
    f-factor, not a canonical one).  Otherwise barrier holds the canonical
    Tutte pair, with delta_f(S, T) = -deficiency.
    """
    f = _normalize_spec(g, spec)
    picked, barrier = _bounded_subgraph(g, f)
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
        edges=factor,
        deficiency=defect,
        barrier=barrier,
    )


def k_factor(g: Graph, k: int) -> FactorReport:
    """Spanning k-regular subgraph query; deficiency is filled in either way."""
    return has_f_factor(g, [as_count(k, "k")] * g.n)


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
    of x's edge nodes exposed leaves one of its slots exposed too.  The
    test reads ends_of[x], where a joined edge's slot carries the mark of
    the edge node it replaces (see `_gadget`).
    """
    k = as_integer(k, "k")
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
