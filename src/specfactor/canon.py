"""Canonical labeling of small colored graphs by individualization-refinement.

A partition is an ordered list of cell bitmasks, first the color classes by
color value.  Refinement splits cells by neighbour counts into splitter cells,
the next splitters being the new fragments but the last of each (McKay and
Piperno, 2014).  A vertex's counts are packed into one int, first splitter
highest, at n.bit_length() bits each, so int order is count-tuple order; a
lone one-vertex splitter w splits each cell into its part outside w's row,
then its part inside.  The search individualizes each vertex of the first
non-singleton cell as the sole splitter, keeping the lexicographically
greatest relabeled adjacency rows; a leaf stops at its first row below the
best key's.  Meant for n up to ~16, under a node budget.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, bits

_NODE_BUDGET = 500_000


def _refine(rows: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    width = len(rows).bit_length()  # room for any count, at most n - 1
    while splitters:
        out: list[int] = []
        nxt: list[int] = []
        if len(splitters) == 1 and splitters[0] & (splitters[0] - 1) == 0:
            row = rows[splitters[0].bit_length() - 1]
            for cell in cells:
                hit = cell & row
                if hit and hit != cell:
                    out += (cell ^ hit, hit)
                    nxt.append(cell ^ hit)
                else:
                    out.append(cell)
        else:
            for cell in cells:
                if cell & (cell - 1) == 0:
                    out.append(cell)
                    continue
                groups: dict[int, int] = {}
                for v in bits(cell):
                    r = rows[v]
                    sig = 0
                    for s in splitters:
                        sig = sig << width | (r & s).bit_count()
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
    best: list = [None, None]  # key, perm
    budget = [_NODE_BUDGET]

    def leaf(cells: list[int]) -> None:
        perm = [c.bit_length() - 1 for c in cells]
        bit = [0] * n
        for i, v in enumerate(perm):
            bit[v] = 1 << i
        rival = best[0][0] if best[0] is not None else None
        newrows: list[int] = []
        for i, v in enumerate(perm):
            nr = 0
            for u in bits(rows[v]):
                nr |= bit[u]
            if rival is not None:
                if nr < rival[i]:
                    return
                if nr > rival[i]:
                    rival = None
            newrows.append(nr)
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
