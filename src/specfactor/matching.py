"""Maximum matching in general graphs (blossom contraction)."""

from __future__ import annotations

from .graph import Graph


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

    p = [0] * n
    base = [0] * n
    q: list[int] = []
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
        nonlocal q
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


def max_matching(g: Graph) -> list[tuple[int, int]]:
    """Edges of a maximum matching, each pair sorted, list sorted."""
    adj = [list(g.neighbors(v)) for v in range(g.n)]
    match = _max_matching_adj(g.n, adj)
    out = [(v, match[v]) for v in range(g.n) if match[v] > v]
    out.sort()
    return out


def matching_number(g: Graph) -> int:
    return len(max_matching(g))
