"""Graph corpora: exhaustive small-graph enumeration and seeded random models.

Connected graphs are enumerated by vertex extension (every connected graph
has a non-cut vertex, so each one on n vertices arises from a connected
graph on n-1 by attaching a new vertex to a non-empty subset).  Connected
regular graphs grow by one saturation step per round: each state, a graph
with a deficit (r minus degree) per vertex, joins the open vertex v with the
fewest ways to saturate it to each set of deficit-many open non-neighbours.  A
child is kept when it is complete and connected; an incomplete child goes
on when each component has an open vertex and each open vertex has at least
its deficit in open non-neighbours.  The next round holds the canonical
(rows, deficits) keys of those children.  Both enumerations keep the first
graph found per canonical key, keying finished regular graphs with triangle
counts per vertex as colors, which split the equitable root cell.  When
a < b are twins (rows equal outside {a, b}, so equal deficits; in a state,
neither is v), the swap (a b) fixes the vertex being joined and maps an
extension holding b but not a onto an earlier isomorphic one: it is skipped.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .graph import Graph, bits, complement, component_masks
from .canon import canonical_key, canonical_labeling  # noqa: F401 (traced by perfbench)
from .spectral import check_class

_MAX_CONNECTED_N = 8
_MAX_REGULAR_N = 10
# attempts before a sampler gives up
_TRIES = 2000

_connected_cache: dict[int, list[Graph]] = {}
_regular_cache: dict[tuple[int, int], list[Graph]] = {}


def enumerate_connected_graphs(n: int) -> list[Graph]:
    """All connected simple graphs on n vertices, one per isomorphism class."""
    if not 1 <= n <= _MAX_CONNECTED_N:
        raise ValueError(f"enumeration capped at 1 <= n <= {_MAX_CONNECTED_N}")
    if n in _connected_cache:
        return _connected_cache[n]
    if n == 1:
        out = [Graph(1)]
    else:
        found: dict[tuple, Graph] = {}
        new = n - 1
        for parent in enumerate_connected_graphs(n - 1):
            twins = _twins(parent.rows, range(new))
            for sub in range(1, 1 << new):
                if all(sub & ab != b for ab, b in twins):
                    rows = [r | (sub >> u & 1) << new for u, r in enumerate(parent.rows)]
                    child = Graph._trusted(rows + [sub])
                    found.setdefault(canonical_key(child), child)
        out = list(found.values())
    _connected_cache[n] = out
    return out


def _open_vertex(rows: Sequence[int], deficits: Sequence[int]) -> tuple[int, int, Sequence[int]]:
    """(width, v, candidates) for the first open vertex v with the fewest ways
    to saturate it: candidates are the other open vertices not adjacent to v,
    and width = C(len(candidates), deficits[v]).  Some vertex must be open."""
    opened = sum(1 << v for v, d in enumerate(deficits) if d)
    v = min(
        bits(opened),
        key=lambda u: comb((opened & ~rows[u] & ~(1 << u)).bit_count(), deficits[u]),
    )
    cands = bits(opened & ~rows[v] & ~(1 << v))
    return comb(len(cands), deficits[v]), v, cands


def _twins(rows: Sequence[int], verts: Iterable[int]) -> list[tuple[int, int]]:
    """(a | b, b) bits for consecutive a < b in each twin class of verts, keyed
    by row and by row plus own bit (adjacent twins); no row holds its own bit."""
    classes: dict[int, list[int]] = {}
    for u in verts:
        for key in (rows[u], rows[u] | 1 << u):
            classes.setdefault(key, []).append(1 << u)
    return [(a | b, b) for c in classes.values() for a, b in zip(c, c[1:])]


def _saturations(rows: Sequence[int], defs: Sequence[int]) -> Iterator[tuple[list, list]]:
    """(rows, deficits) after joining the open vertex v to each combination of
    its candidates, in order, but for those the twin rule skips."""
    _, v, cands = _open_vertex(rows, defs)
    twins = _twins(rows, cands)
    for combo in combinations(cands, defs[v]):
        picked = sum(1 << w for w in combo)
        if all(picked & ab != b for ab, b in twins):
            crows, cdefs = list(rows), list(defs)
            crows[v], cdefs[v] = crows[v] | picked, 0
            for w in combo:
                crows[w] |= 1 << v
                cdefs[w] -= 1
            yield crows, cdefs


def _triangle_key(g: Graph) -> tuple:
    """Canonical key of g colored by the edge count among each vertex's neighbours."""
    return canonical_key(g, [sum((g.rows[u] & r).bit_count() for u in bits(r)) // 2 for r in g.rows])


def _check_regular(n: int, r: int) -> None:
    """Refuse (n, r) with no r-regular graph on n vertices."""
    if not 0 <= r < n:
        raise ValueError("regularity must satisfy 0 <= r < n")
    if (n * r) % 2 != 0:
        raise ValueError("n*r must be even")


def enumerate_connected_regular(n: int, r: int) -> list[Graph]:
    """All connected r-regular simple graphs on n vertices up to isomorphism."""
    if not 1 <= n <= _MAX_REGULAR_N:
        raise ValueError(f"enumeration capped at 1 <= n <= {_MAX_REGULAR_N}")
    _check_regular(n, r)
    cache_key = (n, r)
    if cache_key in _regular_cache:
        return _regular_cache[cache_key]

    if r == 0:
        out = [Graph(1)] if n == 1 else []
    else:
        found: dict[tuple, Graph] = {}
        # canonical (rows, deficits) keys, in first-found order
        frontier = {canonical_key(Graph(n), [r] * n): None}
        while frontier:
            nxt: dict[tuple, None] = {}
            for rows, defs in frontier:
                for crows, cdefs in _saturations(rows, defs):
                    child = Graph._trusted(crows)
                    comps = component_masks(child)
                    if not any(cdefs):
                        if len(comps) == 1:
                            found.setdefault(_triangle_key(child), child)
                        continue
                    # a saturated component can never reconnect, and an open
                    # vertex of width 0 has too few open non-neighbours left
                    opened = sum(1 << w for w, d in enumerate(cdefs) if d)
                    if all(c & opened for c in comps) and _open_vertex(crows, cdefs)[0]:
                        nxt[canonical_key(child, cdefs)] = None
            frontier = nxt
        out = list(found.values())
    _regular_cache[cache_key] = out
    return out


def random_regular(n: int, r: int, seed: int) -> Graph:
    """Connected r-regular graph by Steger-Wormald stub pairing (see _pair_degrees).

    When 2r >= n, the (n-1-r)-regular complement is paired instead, without
    asking it to be connected, and complemented back.  Complementing is a
    bijection on labeled graphs, and every such complement is connected: two
    non-adjacent vertices have r + r >= n > n - 2 neighbours among the other
    n - 2 vertices, so they share one.
    """
    _check_regular(n, r)
    if r < 2 and n > r + 1:
        raise ValueError(f"no connected {r}-regular graph on {n} vertices exists")
    rng = random.Random(seed)
    dense = 2 * r >= n
    g = _pair_degrees([n - 1 - r if dense else r] * n, rng, _TRIES, connected=not dense)
    if g is None:
        raise RuntimeError("pairing budget exhausted generating a regular graph")
    return complement(g) if dense else g


def _pair_degrees(
    degrees: list[int], rng: random.Random, tries: int, connected: bool = True
) -> Graph | None:
    """Simple graph with the given degrees by Steger-Wormald pairing (CPC 8,
    1999): each step draws uniformly among the free stub pairs that add no
    loop or double edge, and an attempt restarts only when none is left or,
    when connected is set, the graph is disconnected.  Asymptotically, not
    exactly, uniform."""
    n = len(degrees)
    stubs = [v for v in range(n) for _ in range(degrees[v])]
    rand = rng.random
    for _ in range(tries):
        # the unpaired stubs are free[:size]; a taken pair's places are
        # filled from its end, higher index first, which fixes the stub
        # order and so which stubs later draws pick
        free = stubs[:]
        size = len(free)
        rows = [0] * n
        misses = 0
        while size:
            i = int(rand() * size)
            j = int(rand() * (size - 1))
            j += j >= i
            u, v = free[i], free[j]
            if u == v or rows[u] >> v & 1:
                misses += 1
                if misses <= size:
                    continue
                # many misses in a row: list the valid pairs, if any are left
                valid = [
                    (a, b)
                    for a, b in combinations(range(size), 2)
                    if free[a] != free[b] and not rows[free[a]] >> free[b] & 1
                ]
                if not valid:
                    break
                i, j = valid[int(rand() * len(valid))]
                u, v = free[i], free[j]
            misses = 0
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            if i < j:
                i, j = j, i
            size -= 2
            free[i] = free[size + 1]
            free[j] = free[size]
        else:
            g = Graph._trusted(rows)
            if not connected or g.is_connected():
                return g
    return None


def random_class_member(r: int, m: int, parity: str, seed: int) -> Graph:
    """Connected irregular graph with max degree r and 2e >= rn - m, its
    order parity set by the family (even: n opposite to r, odd: n same as r).

    The order n is drawn from the admissible orders in [r + 1, r + 15].  A
    degree deficit d <= m (d == m mod 2, so rn - d is even) is imposed
    on a random degree sequence and the stubs are paired; vertex 0 keeps
    degree r so the maximum is exact.
    """
    check_class(r, m, parity)
    want = r % 2 if parity == "odd" else (r + 1) % 2
    rng = random.Random(seed)
    first = r + 1 if (r + 1) % 2 == want else r + 2
    n_choices = range(first, r + 16, 2)
    lo = 2 if m % 2 == 0 else 1
    for _ in range(_TRIES):
        n = rng.choice(n_choices)
        degrees = [r] * n
        left = rng.randrange(lo, m + 1, 2)
        while left > 0:
            v = rng.randrange(1, n)
            if degrees[v] > 1:
                degrees[v] -= 1
                left -= 1
        g = _pair_degrees(degrees, rng, 50)
        if g is None:
            continue
        degs = g.degrees()
        if max(degs) != r or min(degs) == r:
            raise RuntimeError("sampled class member has the wrong degrees")
        return g
    raise RuntimeError("pairing budget exhausted generating a class member")
