"""Named graph families, including the edge-deficient near-regular extremal graphs.

Vertex labeling is fixed and documented per family (first part first, in
construction order) so that quotient partitions are reproducible.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, as_count, complement, disjoint_union, join
from .spectral import check_class


def complete_graph(n: int) -> Graph:
    return complement(Graph(as_count(n, "n")))


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(s: int) -> Graph:
    """K_{1,s}: center 0, leaves 1..s."""
    s = as_count(s, "leaf count")
    return Graph(s + 1, [(0, i) for i in range(1, s + 1)])


def matching(t: int) -> Graph:
    """t disjoint edges (2j, 2j+1) on 2t vertices."""
    t = as_count(t, "edge count")
    return Graph(2 * t, [(2 * j, 2 * j + 1) for j in range(t)])


def cycles_union(lengths: Sequence[int]) -> Graph:
    """Disjoint union of cycles with the given lengths."""
    if not lengths:
        raise ValueError("need at least one cycle length")
    g = cycle(lengths[0])
    for length in lengths[1:]:
        g = disjoint_union(g, cycle(length))
    return g


def cocktail_party(t: int) -> Graph:
    """Complement of a perfect matching on 2t vertices."""
    return complement(matching(t))


def petersen() -> Graph:
    """Outer cycle 0..4, inner pentagram 5..9, spokes i-(i+5)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


# -- extremal families -----------------------------------------------------
#
# All four live in the class: connected, maximum degree r, not regular,
# and 2e = r*n - m.  They minimize the spectral radius in their class.
# The even-r, m=2 family's radius is the greatest root of the cubic Q
# (spectral.cubic_family), above the registered threshold rho2(r, 2).


def extremal_even(r: int, m: int) -> Graph:
    """join(K_{r+1-m}, complement of perfect matching on m) on r+1 vertices.

    Labels: 0..r-m is the clique part, r+1-m..r the matching-complement part.
    """
    check_class(r, m, "even")
    return join(complete_graph(r + 1 - m), cocktail_party(m // 2))


def extremal_odd_m3(r: int, m: int, cycle_lengths: Sequence[int] | None = None) -> Graph:
    """join(cocktail party on r+2-m, complement of cycles on m) on r+2 vertices.

    The cycle layout defaults to a single m-cycle; any partition of m into
    cycle lengths >= 3 is accepted and gives the same degree profile.
    """
    if m < 3:
        raise ValueError("m must be at least 3")
    check_class(r, m, "odd")
    if cycle_lengths is None:
        cycle_lengths = (m,)
    if sum(cycle_lengths) != m or any(c < 3 for c in cycle_lengths):
        raise ValueError("cycle lengths must each be >= 3 and sum to m")
    return join(cocktail_party((r + 2 - m) // 2), complement(cycles_union(cycle_lengths)))


def extremal_odd_m1(r: int) -> Graph:
    """Complement of (K_{1,2} union perfect matching) on r+2 vertices, r odd.

    Labels: 0 the K_{1,2} center (degree r-1 here), 1..2 its leaves,
    3..r+1 the matching vertices.
    """
    check_class(r, 1, "odd")  # the m = 1 odd family: r odd >= 3
    return complement(disjoint_union(star(2), matching((r - 1) // 2)))


def extremal_odd_m2(r: int) -> Graph:
    """Complement of (P4 union perfect matching) on r+2 vertices, r even.

    Labels: 0-1-2-3 the complement path (1 and 2 get degree r-1 here),
    4..r+1 the matching vertices.  The spectral radius is the greatest root
    of Q(x) = x^3 - (r-3)x^2 - 3(r-1)x - r, the characteristic polynomial of
    the equitable quotient on extremal_odd_m2_parts; it lies above the root
    of f1 that rho2(r, 2) registers.
    """
    check_class(r, 2, "odd")  # the m = 2 odd family: r even >= 4
    return complement(disjoint_union(path(4), matching((r - 2) // 2)))


def aux_two_p3(r: int) -> Graph:
    """Complement of (two P3 union perfect matching) on r+2 vertices, r even.

    Non-extremal member of the same 2e = rn - 2 class as extremal_odd_m2:
    its two degree-(r-1) vertices are adjacent.  Labels: paths 0-1-2 and
    3-4-5, matching 6..r+1.
    """
    check_class(r, 2, "odd")  # the m = 2 odd family: r even >= 4
    return complement(disjoint_union(disjoint_union(path(3), path(3)), matching((r - 4) // 2)))


def aux_claw(r: int) -> Graph:
    """Complement of (K_{1,3} union perfect matching) on r+2 vertices, r even.

    Non-extremal member of the 2e = rn - 2 class with a single degree-(r-2)
    vertex.  Labels: center 0, leaves 1..3, matching 4..r+1.
    """
    check_class(r, 2, "odd")  # the m = 2 odd family: r even >= 4
    return complement(disjoint_union(star(3), matching((r - 2) // 2)))


# -- canonical quotient partitions ------------------------------------------


def extremal_even_parts(r: int, m: int) -> list[list[int]]:
    """(clique part, matching-complement part) for extremal_even."""
    return [list(range(r + 1 - m)), list(range(r + 1 - m, r + 1))]


def extremal_odd_m3_parts(r: int, m: int) -> list[list[int]]:
    return [list(range(r + 2 - m)), list(range(r + 2 - m, r + 2))]


def extremal_odd_m1_parts(r: int) -> list[list[int]]:
    """(center, leaves, matching vertices), the three-part equitable partition."""
    return [[0], [1, 2], list(range(3, r + 2))]


def extremal_odd_m2_parts(r: int) -> list[list[int]]:
    """(path endpoints, path internals, matching vertices)."""
    return [[0, 3], [1, 2], list(range(4, r + 2))]


def aux_two_p3_parts(r: int) -> list[list[int]]:
    parts = [[0, 2, 3, 5], [1, 4], list(range(6, r + 2))]
    return [p for p in parts if p]  # the matching part is empty at r = 4


def aux_claw_parts(r: int) -> list[list[int]]:
    return [[0], [1, 2, 3], list(range(4, r + 2))]


# -- build by family name ------------------------------------------------

# family -> (constructor, parameters in argument order)
_FAMILIES = {
    "complete": (complete_graph, ("n",)),
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "star": (star, ("n",)),
    "matching": (matching, ("n",)),
    "cycle-union": (cycles_union, ("lengths",)),
    "cocktail-party": (cocktail_party, ("n",)),
    "petersen": (petersen, ()),
    "extremal-even": (extremal_even, ("r", "m")),
    "extremal-odd-m3": (extremal_odd_m3, ("r", "m", "lengths")),
    "extremal-odd-m1": (extremal_odd_m1, ("r",)),
    "extremal-odd-m2": (extremal_odd_m2, ("r",)),
    "aux-two-p3": (aux_two_p3, ("r",)),
    "aux-claw": (aux_claw, ("r",)),
}


def parameters(family: str) -> tuple[str, ...]:
    """Names of the parameters a family reads, in argument order; all are
    required except the cycle layout `lengths` of extremal-odd-m3."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown construction family {family!r}")
    return _FAMILIES[family][1]


def build(family: str, **params) -> Graph:
    """Instantiate a named family from keyword parameters n, r, m, lengths.

    Each family takes the parameters it reads and ignores the rest.
    """
    names = parameters(family)
    for name in names:
        if params.get(name) is None and (family, name) != ("extremal-odd-m3", "lengths"):
            raise ValueError(f"family {family!r} requires parameter {name!r}")
    return _FAMILIES[family][0](*(params.get(name) for name in names))
