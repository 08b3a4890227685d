"""Immutable simple graphs on vertex set {0, ..., n-1} with bitmask adjacency."""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np


# set-bit indices of every byte value, as is and shifted up by 8
_LOW = tuple([tuple([i for i in range(8) if b >> i & 1]) for b in range(256)])
_HIGH = tuple([tuple([i + 8 for i in low]) for low in _LOW])


def as_integer(x, name: str) -> int:
    """x as an int; anything but an integer (1.7, '2') is refused, not cut."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


def bits(mask: int) -> Sequence[int]:
    """Indices of the set bits of a non-negative mask, ascending: a tuple from
    two byte tables below 2**16, else a fresh list built from the top bit down."""
    if mask < 0x10000:
        return _LOW[mask & 255] + _HIGH[mask >> 8]
    out: list[int] = []
    while mask:
        top = mask.bit_length() - 1  # unlike mask & -mask, negates no long int
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


class Graph:
    """Undirected simple graph.

    Adjacency is one integer bitmask per vertex, which keeps the exhaustive
    enumeration and Tutte-condition loops fast without any third-party
    dependency.  Instances are immutable by convention: no mutator is
    exposed, so graphs are safe to hash, memoize and share.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self._rows = tuple(rows)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Graph":
        """Build from adjacency bitmasks; rows must be symmetric and loop-free."""
        n = len(rows)
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits(row):
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return cls._trusted(rows)

    @classmethod
    def _trusted(cls, rows: Sequence[int]) -> "Graph":
        """Wrap rows that are symmetric and loop-free by construction; the
        checks of from_rows take time linear in the edge count."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g._rows = tuple(rows)
        return g

    # -- accessors ---------------------------------------------------------

    def row(self, v: int) -> int:
        """Adjacency bitmask of v."""
        return self._rows[v]

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        # tuple() of a generator resizes a fresh tuple, and each call then parks
        # one more on CPython's size-n free list (up to 2000): peak RSS creeps
        return tuple([r.bit_count() for r in self._rows])

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self._rows), default=0)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._rows[u] >> v) & 1)

    def neighbors(self, v: int) -> Sequence[int]:
        return bits(self._rows[v])

    def edges(self) -> list[tuple[int, int]]:
        return [
            (v, u) for v, row in enumerate(self._rows) for u in bits(row >> (v + 1) << (v + 1))
        ]

    def is_regular(self) -> bool:
        degs = self.degrees()
        return len(set(degs)) <= 1

    def is_connected(self) -> bool:
        return self.n <= 1 or len(component_masks(self)) == 1

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def adjacency_bits(g: Graph) -> np.ndarray:
    """Adjacency matrix as an n x n uint8 array, unpacked from the row bitmasks."""
    n = g.n
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in g.rows]), np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")


def complement(g: Graph) -> Graph:
    """Edge-complement on the same vertex set."""
    full = (1 << g.n) - 1
    return Graph._trusted([(~g.row(v)) & full & ~(1 << v) for v in range(g.n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Vertices of h are relabeled to g.n, ..., g.n + h.n - 1."""
    return Graph._trusted(list(g.rows) + [r << g.n for r in h.rows])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge; h is relabeled after g."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [g.row(v) | hmask for v in range(g.n)]
    rows += [(h.row(v) << g.n) | gmask for v in range(h.n)]
    return Graph._trusted(rows)


def vertex_mask(g: Graph, vertices: Iterable[int], label: str) -> int:
    """Bitmask of a vertex list; a vertex out of range or listed twice is refused."""
    m = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"{label} lists vertex {v} out of range for n={g.n}")
        if m >> v & 1:
            raise ValueError(f"{label} lists vertex {v} more than once")
        m |= 1 << v
    return m


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on the given vertices, relabeled 0.. in sorted order."""
    vs = bits(vertex_mask(g, vertices, "the subgraph"))
    index = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for v in vs:
        for u in bits(g.row(v)):
            if u in index:
                rows[index[v]] |= 1 << index[u]
    return Graph.from_rows(rows)


def component_masks(g: Graph, present: int | None = None) -> list[int]:
    """Connected components of the subgraph induced on a vertex bitmask.

    Returns one bitmask per component, ordered by smallest member.  With
    present=None the whole vertex set is used.
    """
    rows = g.rows
    rem = ((1 << g.n) - 1) if present is None else present
    comps = []
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= rows[v]
            frontier = nxt & rem & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps

