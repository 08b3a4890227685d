"""Ground-truth factor criteria by exhaustive evaluation over disjoint (S, T).

delta(S,T) = k|S| + sum of d_{G-S}(x) over x in T - k|T| - tau, where tau
counts the components C of G - (S u T) with e(C,T) + k|C| odd.  A k-factor
exists iff delta is never negative; the deficiency is the maximum of -delta
(never below zero since delta(empty, empty) = -tau <= 0).

The sweep evaluates all 3^n assignments vertex -> {S, T, neither} as numpy
array passes.  A table built once per n lists every pair (U = S u T, T) in
a fixed order: U ascending, then T descending over the submasks of U.  The
component structure of G - U is computed once per U, for all U at once;
only parities of e(C,T) enter tau, so all k are served by two parity
counts.  Per pair, tau comes from one pass per component slot and the
degree term from lookups of e(G[X]) and degree sums by vertex set X.  The
first maximizer in that order is kept, so results match a scalar loop over
the same order pair for pair; large n runs in fixed-size blocks of pairs,
which bounds working memory.  The sweep uses nothing but the graph and
numpy, so it stays independent of the matching engine it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .graph import Graph, as_count, bits, component_masks, vertex_mask

# the uint16 pair tables cover exactly n <= 16; a 3^16 sweep is about 43
# million pairs
_MAX_N = 16
# pair values are int32: |-delta| <= k*n + n*n stays far inside for n <= 16
_MAX_K = 1 << 26
# pairs evaluated per array pass; bounds working memory for large n
_BLOCK_PAIRS = 1 << 18


@dataclass(frozen=True)
class STPair:
    s: tuple[int, ...]
    t: tuple[int, ...]


@dataclass(frozen=True)
class DeltaBreakdown:
    k_s: int
    degree_sum: int
    k_t: int
    tau: int
    delta: int


def _as_masks(g: Graph, st) -> tuple[int, int]:
    if isinstance(st, STPair):
        s_iter, t_iter = st.s, st.t
    else:
        s_iter, t_iter = st
    smask = vertex_mask(g, s_iter, "S")
    tmask = vertex_mask(g, t_iter, "T")
    if smask & tmask:
        raise ValueError("S and T must be disjoint")
    return smask, tmask


def _pair(smask: int, tmask: int) -> STPair:
    return STPair(tuple(bits(smask)), tuple(bits(tmask)))


def _tau(g: Graph, k: int, smask: int, tmask: int) -> int:
    present = ((1 << g.n) - 1) & ~(smask | tmask)
    count = 0
    for comp in component_masks(g, present):
        e_ct = sum((g.row(v) & tmask).bit_count() for v in bits(comp))
        if (e_ct + k * comp.bit_count()) % 2 == 1:
            count += 1
    return count


def _check_k(k) -> int:
    k = as_count(k, "k")
    if k > _MAX_K:
        raise ValueError(f"k must be at most {_MAX_K}")
    return k


def delta(g: Graph, k: int, st) -> DeltaBreakdown:
    k = _check_k(k)
    smask, tmask = _as_masks(g, st)
    tau = _tau(g, k, smask, tmask)
    degree_sum = sum((g.row(x) & ~smask).bit_count() for x in bits(tmask))
    k_s = k * smask.bit_count()
    k_t = k * tmask.bit_count()
    return DeltaBreakdown(
        k_s=k_s,
        degree_sum=degree_sum,
        k_t=k_t,
        tau=tau,
        delta=k_s + degree_sum - k_t - tau,
    )


def _check(g: Graph, ks: Sequence[int]) -> None:
    for k in ks:
        _check_k(k)
    if g.n > _MAX_N:
        raise ValueError(f"exhaustive sweep capped at n <= {_MAX_N}, got n = {g.n}")


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, T) for all 3^n disjoint pairs in sweep order, as uint16 arrays.

    Built in place by adding vertices one at a time: the U that contain the
    new top vertex b follow all older U, and each of them lists its
    submasks with b first (old T | b, descending), then without b (old T,
    descending).  Keyed by n <= _MAX_N, so the cache holds at most 17
    tables; the one for n = 16 takes about 172 MB and stays cached.
    """
    counts = np.left_shift(1, np.bitwise_count(np.arange(1 << n)), dtype=np.int32)
    t = np.zeros(3**n, np.uint16)
    for b in range(n):
        old = t[: 3**b]
        old_counts = counts[: 1 << b]
        at = np.repeat(np.cumsum(old_counts, dtype=np.int32) - old_counts, old_counts)
        at += np.arange(3**b, dtype=np.int32) + 3**b
        t[at] = old | (1 << b)
        at += np.repeat(old_counts, old_counts)
        t[at] = old
    return np.repeat(np.arange(1 << n, dtype=np.uint16), counts), t


def _subset_tables(g: Graph):
    """Per vertex set X (as an index 0..2^n-1): the union and the symmetric
    difference of the neighbourhoods of its members, e(G[X]) and the degree
    sum of X."""
    n = g.n
    rows = np.array(g.rows, np.uint16)
    size = 1 << n
    masks = np.arange(size, dtype=np.uint16)
    union = np.zeros(size, np.uint16)
    odd = np.zeros(size, np.uint16)
    inner = np.zeros(size, np.int16)
    degsum = np.zeros(size, np.int16)
    for b in range(n):
        lo, hi = slice(0, 1 << b), slice(1 << b, 2 << b)
        union[hi] = union[lo] | rows[b]
        odd[hi] = odd[lo] ^ rows[b]
        inner[hi] = inner[lo] + np.bitwise_count(masks[lo] & rows[b])
        degsum[hi] = degsum[lo] + int(rows[b]).bit_count()
    return masks, union, odd, inner, degsum


def _component_slots(n: int, masks, union, odd):
    """Component data of G - U for every U, as small per-U arrays.

    A component C adds one to tau when e(C, T) + k|C| is odd.  The parity
    of e(C, T) is that of |T & contact(C)|, where contact(C) holds the
    vertices of U with an odd number of neighbours in C.  Returns
    (even_slots, odd_slots, odd_count): the contact masks of the even-size
    and of the odd-size components with nonzero contact, one row per slot
    (zero rows pad U with fewer such components), and the number of
    odd-size components of G - U.
    """
    present = masks ^ np.uint16((1 << n) - 1)
    bit = (np.uint16(1) << np.arange(n, dtype=np.uint16))[:, None]
    # reach[v, U]: the component of v in G - U, empty when v is in U
    reach = bit & present
    while True:
        grown = reach | (union[reach] & present)
        if np.array_equal(grown, reach):
            break
        reach = grown
    # keep the component of v only where v is its lowest vertex
    comps = np.where((reach & (bit - np.uint16(1))) == 0, reach, np.uint16(0))
    contact = odd[comps] & masks
    size_odd = (np.bitwise_count(comps) & 1).astype(bool)

    def packed(keep):
        order = np.argsort(~keep, axis=0, kind="stable")[: keep.sum(axis=0).max()]
        return np.take_along_axis(np.where(keep, contact, np.uint16(0)), order, 0)

    touched = contact != 0
    return (
        packed(touched & ~size_odd),
        packed(touched & size_odd),
        size_odd.sum(axis=0, dtype=np.int16),
    )


def _sweep(g: Graph, ks: Sequence[int], collect_for: int | None = None):
    """Best -delta per k over all disjoint (S, T), first maximizer kept.

    Iteration order: U = S u T ascending as a bitmask integer, T descending
    over submasks of U, which makes (empty, empty) the first pair visited.
    The pairs are evaluated as numpy array passes over consecutive blocks
    of that order (_pair_table), and within a block np.argmax picks the
    first maximum, so the pair kept for each k is the first maximizer in
    this order.  With tau, degsum = sum over x in T of d_{G-S}(x) and
    szdiff = |S| - |T|, the value of a pair is tau - degsum - k * szdiff.
    When collect_for is a k value, every optimal pair for it is gathered,
    in sweep order.
    """
    masks, union, odd, inner, degsum = _subset_tables(g)
    # -degsum = e(G[U]) - e(G[S]) - e(G[T]) - (sum of degrees over T)
    inner_plus_deg = inner + degsum
    even_slots, odd_slots, odd_count = _component_slots(g.n, masks, union, odd)
    best: dict[int, int] = {}
    arg: dict[int, tuple[int, int]] = {}
    gathered: list[tuple[int, int]] = []
    table_u, table_t = _pair_table(g.n)
    for lo in range(0, len(table_u), _BLOCK_PAIRS):
        t = table_t[lo : lo + _BLOCK_PAIRS]
        s = table_u[lo : lo + _BLOCK_PAIRS] ^ t
        u = table_u[lo : lo + _BLOCK_PAIRS].astype(np.intp)
        base = inner[u] - inner[s] - inner_plus_deg[t]
        # parities of e(C, T) summed over even-size and odd-size components
        hits = []
        for slots in (even_slots, odd_slots):
            acc = np.zeros(len(t), np.int16)
            for contact in slots:
                acc += np.bitwise_count(t & contact[u]) & 1
            hits.append(acc)
        # tau for even k and for odd k
        tau = (hits[0] + hits[1], odd_count[u] + hits[0] - hits[1])
        minus_szdiff = np.bitwise_count(t).astype(np.int32) - np.bitwise_count(s)
        for k in ks:
            val = tau[k & 1] + base + k * minus_szdiff
            i = int(np.argmax(val))
            top = int(val[i])
            if k not in best or top > best[k]:
                best[k] = top
                arg[k] = (int(s[i]), int(t[i]))
                if k == collect_for:
                    gathered = []
            if k == collect_for and top == best[k]:
                hit = np.flatnonzero(val == top)
                gathered.extend(zip(s[hit].tolist(), t[hit].tolist()))
    return best, arg, gathered


def brute_force_deficiency(g: Graph, k: int) -> tuple[int, STPair]:
    """Maximum of -delta over all disjoint (S, T) with a maximizing pair.

    The first maximizer in sweep order is returned, so a graph with a
    k-factor always reports (0, (empty, empty)).
    """
    return brute_force_deficiency_multi(g, [k])[k]


def brute_force_deficiency_multi(g: Graph, ks: Sequence[int]) -> dict[int, tuple[int, STPair]]:
    """One 3^n sweep serving several k values at once."""
    _check(g, ks)
    best, arg, _ = _sweep(g, list(ks))
    return {k: (best[k], _pair(*arg[k])) for k in ks}


def optimal_pairs(g: Graph, k: int) -> tuple[int, list[STPair]]:
    """Deficiency plus every disjoint pair attaining it, in sweep order."""
    _check(g, [k])
    best, _, gathered = _sweep(g, [k], collect_for=k)
    return best[k], [_pair(s, t) for s, t in gathered]


def brute_force_has_k_factor(g: Graph, k: int) -> bool:
    return brute_force_deficiency(g, k)[0] == 0
