"""Canonical labeling of small colored graphs by individualization-refinement.

Colors partition the vertices (for plain graphs everything starts in one
class); iterative refinement splits classes by neighbor counts, then the
search individualizes one vertex of the first non-singleton class at a time,
keeping the lexicographically greatest relabeled adjacency rows.  Meant for
n up to ~16, where a node budget guards against pathological inputs.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, bits

_NODE_BUDGET = 500_000


def _refine(n: int, rows: Sequence[int], colors: list[int]) -> list[int]:
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


def _first_cell(n: int, colors: list[int]) -> list[int]:
    counts: dict[int, int] = {}
    for c in colors:
        counts[c] = counts.get(c, 0) + 1
    for c in sorted(counts):
        if counts[c] > 1:
            return [v for v in range(n) if colors[v] == c]
    return []


def canonical_labeling(
    g: Graph, colors: Sequence[int] | None = None
) -> tuple[tuple, tuple[int, ...]]:
    """(canonical key, permutation) with perm[new_index] = old vertex.

    The key is (relabeled adjacency rows, relabeled input colors); equal
    keys mean color-preserving isomorphism.  Input colors are compared by
    value, so callers must use meaningful color integers.
    """
    n = g.n
    rows = g.rows
    init = tuple(colors) if colors is not None else tuple([0] * n)
    if len(init) != n:
        raise ValueError("color list length must equal vertex count")
    if n == 0:
        return ((), ()), ()

    base = _refine(n, rows, list(init))
    nbrs = [list(bits(r)) for r in rows]
    best: list = [None, None]  # key, perm
    budget = [_NODE_BUDGET]

    def leaf(cols: list[int]) -> None:
        perm = sorted(range(n), key=lambda v: cols[v])
        pos = [0] * n
        for i, v in enumerate(perm):
            pos[v] = i
        newrows = [0] * n
        for v in range(n):
            nr = 0
            for u in nbrs[v]:
                nr |= 1 << pos[u]
            newrows[pos[v]] = nr
        key = (tuple(newrows), tuple(init[v] for v in perm))
        if best[0] is None or key > best[0]:
            best[0] = key
            best[1] = tuple(perm)

    def search(cols: list[int]) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise RuntimeError("canonical labeling node budget exceeded")
        cell = _first_cell(n, cols)
        if not cell:
            leaf(cols)
            return
        tried: list[int] = []
        for v in cell:
            # skip v when transposing it with an already-tried cell mate is
            # an automorphism (identical rows outside the mutual bits)
            vb = 1 << v
            skip = False
            for u in tried:
                ub = 1 << u
                outside = ~(ub | vb)
                if rows[u] & outside == rows[v] & outside:
                    skip = True
                    break
            tried.append(v)
            if skip:
                continue
            child = list(cols)
            child[v] = -1
            search(_refine(n, rows, child))

    search(base)
    return best[0], best[1]


def canonical_key(g: Graph, colors: Sequence[int] | None = None) -> tuple:
    return canonical_labeling(g, colors)[0]
