"""Maximum matching in general graphs (blossom contraction)."""

from __future__ import annotations

from .graph import Graph


def _blossom_search(adj: list[list[int]], match: list[int]):
    """Edmonds' alternating-forest search over `match`, updated in place.

    Returns (find_path, p, used).  find_path(root) grows a tree from the
    exposed node `root`, contracting blossoms, and returns the exposed end of
    an augmenting path (walk back through p and match to flip it) or -1.
    After a failed search, used[] marks the tree's even nodes: exactly those
    reached from root by an even alternating path.
    """
    n = len(adj)
    p = [0] * n
    base = [0] * n
    used = [False] * n
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
        visited = [False] * n
        while True:
            a = base[a]
            visited[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if visited[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> int:
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        q = [root]
        head = 0
        while head < len(q):
            v = q[head]
            head += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom around the common base
                    cur = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    return find_path, p, used


def _max_matching_adj(n: int, adj: list[list[int]]) -> list[int]:
    """Array-based blossom search; returns match[] with -1 for exposed vertices."""
    match = [-1] * n
    # greedy seed cuts the number of augmenting searches roughly in half
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    find_path, p, _ = _blossom_search(adj, match)
    for v in range(n):
        if match[v] != -1:
            continue
        u = find_path(v)
        while u != -1:
            pv = p[u]
            ppv = match[pv]
            match[u] = pv
            match[pv] = u
            u = ppv
    return match


def _missable(adj: list[list[int]], match: list[int]) -> list[bool]:
    """missable[v]: some maximum matching leaves node v exposed.

    These are the nodes reached by an even alternating path from a node
    that `match` leaves exposed (the Gallai-Edmonds set D), marked by one
    failed search per exposed node.  `match` must be a maximum matching of
    adj; an augmenting path found on the way raises RuntimeError.
    """
    find_path, _, used = _blossom_search(adj, match)
    missable = [False] * len(adj)
    for root, mate in enumerate(match):
        if mate != -1:
            continue
        if find_path(root) != -1:
            raise RuntimeError("matching not maximum")
        missable = [m or u for m, u in zip(missable, used)]
    return missable


def max_matching(g: Graph) -> list[tuple[int, int]]:
    """Edges of a maximum matching, each pair sorted, list sorted."""
    adj = [list(g.neighbors(v)) for v in range(g.n)]
    match = _max_matching_adj(g.n, adj)
    out = [(v, match[v]) for v in range(g.n) if match[v] > v]
    out.sort()
    return out


def matching_number(g: Graph) -> int:
    return len(max_matching(g))
