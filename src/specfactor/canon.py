"""Canonical labeling of small colored graphs by individualization-refinement.

A partition is an ordered list of cell bitmasks, first the color classes by
color value.  Refinement splits cells by neighbour counts into splitter cells,
the next splitters being the new fragments but the last of each (McKay and
Piperno, 2014).  The search individualizes each vertex of the first
non-singleton cell as the sole splitter, keeping the lexicographically greatest
relabeled adjacency rows.  Meant for n up to ~16, under a node budget.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, bits

_NODE_BUDGET = 500_000


def _refine(rows: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    while splitters:
        out: list[int] = []
        nxt: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in bits(cell):
                r = rows[v]
                sig = tuple([(r & s).bit_count() for s in splitters])
                groups[sig] = groups.get(sig, 0) | 1 << v
            if len(groups) == 1:
                out.append(cell)
                continue
            frags = [groups[s] for s in sorted(groups)]
            out += frags
            nxt += frags[:-1]
        cells = out
        splitters = nxt
    return cells


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

    classes: dict[int, int] = {}
    for v, c in enumerate(init):
        classes[c] = classes.get(c, 0) | (1 << v)
    root = [classes[c] for c in sorted(classes)]
    nbrs = [list(bits(r)) for r in rows]
    best: list = [None, None]  # key, perm
    budget = [_NODE_BUDGET]

    def leaf(cells: list[int]) -> None:
        perm = [c.bit_length() - 1 for c in cells]
        pos = [0] * n
        for i, v in enumerate(perm):
            pos[v] = i
        newrows = [0] * n
        for v in range(n):
            nr = 0
            for u in nbrs[v]:
                nr |= 1 << pos[u]
            newrows[pos[v]] = nr
        key = (tuple(newrows), tuple([init[v] for v in perm]))
        if best[0] is None or key > best[0]:
            best[0] = key
            best[1] = tuple(perm)

    def search(cells: list[int]) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise RuntimeError("canonical labeling node budget exceeded")
        at = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if at is None:
            leaf(cells)
            return
        tried: list[int] = []
        for v in bits(cells[at]):
            # skip v when transposing it with an already-tried cell mate is
            # an automorphism (identical rows outside the mutual bits)
            vb = 1 << v
            skip = any(rows[u] & ~(vb | 1 << u) == rows[v] & ~(vb | 1 << u) for u in tried)
            tried.append(v)
            if skip:
                continue
            child = [vb] + cells
            child[at + 1] ^= vb
            search(_refine(rows, child, [vb]))

    search(_refine(rows, root, root))
    return best[0], best[1]


def canonical_key(g: Graph, colors: Sequence[int] | None = None) -> tuple:
    return canonical_labeling(g, colors)[0]
