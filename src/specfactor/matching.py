"""Maximum matching in general graphs (blossom contraction).

The search starts from a matching the caller supplies; the factor gadget
passes one built from a greedy bounded subgraph, so only the slots that
greedy left open need an augmenting search.  Each contracted base keeps
its member list, so a contraction relabels only the nodes of the bases it
absorbs: time proportional to the blossom, not to the graph.  The same
pass returns the Gallai-Edmonds set D (the nodes some maximum matching
leaves exposed) as a set, read off the trees of the searches that fail.
"""

from __future__ import annotations


def _blossom_search(adj: list[list[int]], match: list[int]):
    """Edmonds' alternating-forest search over `match`, updated in place.

    Returns (find_path, p, even).  find_path(root) grows a tree from the
    exposed node `root`, contracting blossoms, and returns the exposed end of
    an augmenting path (walk back through p and match to flip it) or -1.
    even is the search's queue: after a failed search it lists the tree's
    even nodes, exactly those reached from root by an even alternating path.
    """
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    unset, unused, own = list(p), list(used), list(base)
    # members[b]: every node whose base is b, for the bases contracted this search
    members: dict[int, list[int]] = {}
    q: list[int] = []

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, marked: set[int]) -> None:
        while base[v] != b:
            marked.add(base[v])
            marked.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> int:
        p[:] = unset
        used[:] = unused
        base[:] = own
        members.clear()
        used[root] = True
        q[:] = [root]
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
                    marked: set[int] = set()
                    mark_path(v, cur, to, marked)
                    mark_path(to, cur, v, marked)
                    # no consistent search marks cur; skipping it keeps a
                    # broken one from reading grown while it grows
                    marked.discard(cur)
                    grown = members.setdefault(cur, [cur])
                    for b in marked:
                        for i in members.pop(b, (b,)):
                            base[i] = cur
                            grown.append(i)
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

    return find_path, p, q


def _max_matching_adj(n: int, adj: list[list[int]], match: list[int]) -> set[int]:
    """Grow the matching `match` (updated in place) to a maximum one.

    match[v] is v's partner or -1; at most one search runs per node the
    start leaves exposed.  Returns the set of missable nodes, those some
    maximum matching leaves exposed (the Gallai-Edmonds set D): the even
    nodes of every failed search's tree.  A failed search leaves a
    Hungarian tree that no later augmenting path enters, so its marks hold
    for the final matching (Edmonds, "Paths, trees, and flowers", 1965).
    """
    find_path, p, even = _blossom_search(adj, match)
    missable: set[int] = set()
    for v in range(n):
        if match[v] != -1:
            continue
        u = find_path(v)
        if u == -1:
            missable.update(even)
        while u != -1:
            pv = p[u]
            ppv = match[pv]
            match[u] = pv
            match[pv] = u
            u = ppv
    return missable
