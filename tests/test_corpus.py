"""Graph corpora: exhaustive enumeration up to isomorphism and samplers."""

from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations

import pytest

from specfactor import corpus
from specfactor.canon import canonical_key
from specfactor.constructions import complete_graph, cycle
from specfactor.corpus import (
    _open_vertex,
    _pair_degrees,
    _saturations,
    _triangle_key,
    enumerate_connected_graphs,
    enumerate_connected_regular,
    random_class_member,
    random_regular,
)
from specfactor.graph import Graph, complement, component_masks, join
from specfactor.graph6 import to_graph6
from specfactor.spectral import eigenvalues
from specfactor.constructions import matching


# connected simple graphs up to isomorphism, a standard counting sequence
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_connected_counts_through_n7():
    for n, want in CONNECTED_COUNTS.items():
        assert len(enumerate_connected_graphs(n)) == want


def test_enumeration_members_are_connected_and_distinct():
    for n in range(1, 7):
        graphs = enumerate_connected_graphs(n)
        keys = set()
        for g in graphs:
            assert g.n == n and g.is_connected()
            keys.add(canonical_key(g))
        assert len(keys) == len(graphs)


def test_enumeration_domain():
    with pytest.raises(ValueError):
        enumerate_connected_graphs(0)
    with pytest.raises(ValueError):
        enumerate_connected_graphs(9)


def test_cubic_counts():
    assert len(enumerate_connected_regular(4, 3)) == 1
    assert len(enumerate_connected_regular(6, 3)) == 2
    assert len(enumerate_connected_regular(8, 3)) == 5
    assert len(enumerate_connected_regular(10, 3)) == 19


def test_quartic_counts():
    assert [len(enumerate_connected_regular(n, 4)) for n in (5, 6, 7, 8, 9)] == [1, 1, 2, 6, 16]


def test_named_members_show_up():
    only = enumerate_connected_regular(4, 3)
    assert only == [complete_graph(4)] or canonical_key(only[0]) == canonical_key(complete_graph(4))
    six = enumerate_connected_regular(6, 3)
    k33 = join(Graph(3), Graph(3))
    prism = complement(cycle(6))
    keys = {canonical_key(g) for g in six}
    assert keys == {canonical_key(k33), canonical_key(prism)}
    assert canonical_key(enumerate_connected_regular(5, 4)[0]) == canonical_key(complete_graph(5))


def test_regular_members_are_regular_connected_distinct():
    for n, r in [(6, 3), (7, 4), (8, 3), (8, 5)]:
        graphs = enumerate_connected_regular(n, r)
        keys = set()
        for g in graphs:
            assert g.n == n and g.is_regular() and g.degree(0) == r
            assert g.is_connected()
            keys.add(canonical_key(g))
        assert len(keys) == len(graphs)


def test_regular_enumeration_domain():
    with pytest.raises(ValueError):
        enumerate_connected_regular(5, 3)  # odd n*r
    with pytest.raises(ValueError):
        enumerate_connected_regular(11, 3)  # above the size cap
    with pytest.raises(ValueError):
        enumerate_connected_regular(4, 4)  # r must stay below n
    assert enumerate_connected_regular(1, 0) == [Graph(1)]
    assert enumerate_connected_regular(4, 1) == []  # matchings are disconnected
    assert len(enumerate_connected_regular(2, 1)) == 1


# sha256 of the graph6 lines, in enumeration order, of the connected corpus
# at each n and of the regular corpora at each n (r ascending); a generator
# that changes any graph, label or position re-pins these
CONNECTED_DIGESTS = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    3: "e53a5e15924c562ea91b2e31166da62399d58c4af1027d8ef1aa54ab3235fac4",
    4: "4fd93a12c759cf8d19b76cedb1838fcc156e79685326c8e75cf763de1c7865eb",
    5: "17b8ebd6d0503bc134a0f6ce8f8374cc751ebf750ff19c2e9f0dba9f122c1c3d",
    6: "456c438567fdb1eb7b0a9b2e7d15abae68579715910ddadf83fbe0bc3f9e9bcd",
    7: "3281f929c85ff3da4ca376f05d6effb355736260f6549a0283f9dffd55e00bdb",
    8: "95a2c004264a5ff00ba99add1aa55ba82f9834f211f62adf518b5ac6f3d1de3b",
}
REGULAR_DIGESTS = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    3: "8e71b38f493557683524eb45ca8f814efe19aa3c9d7e946c42a25658f532618e",
    4: "21fc48ec7d0641aa42839adacc2276cdfb229f11427322fc3d97a3c21e811fc6",
    5: "26070ecf7cf53cf33942276066e2437e9cc622532f15b9d97f0f7b7a6590ead2",
    6: "42c0a9f0f9079ab988f98230c7ad29c79b3a879ac9d0575ee5bc1bccdbc65cb6",
    7: "97a9172ed16f24e8e18dc9f7a12f988a0ca7ae6aebb8394f9e37a687fed7b2fa",
    8: "1c2ab7e0c0ad1826f7d27fa387a7d9807a65a314ab4938e7afec6284c2859bed",
    9: "dff3665fd02aaaa1a2af33a12b3bc86175de5e4c53c00a223865adb181da8f77",
    10: "5aba5ebd2bb0bf200a8faef9f03b3af74e37411429e396fe733a3705be046b73",
}


def _graph6_digest(graphs) -> str:
    return hashlib.sha256("".join(to_graph6(g) + "\n" for g in graphs).encode()).hexdigest()


def test_corpora_are_pinned_byte_for_byte(connected_by_n):
    connected = {n: _graph6_digest(graphs) for n, graphs in connected_by_n.items()}
    regular = {
        n: _graph6_digest(
            [g for r in range(n) if n * r % 2 == 0 for g in enumerate_connected_regular(n, r)]
        )
        for n in range(1, 11)
    }
    assert connected == CONNECTED_DIGESTS
    assert regular == REGULAR_DIGESTS


def _assert_skips_are_sound(every, kept, keys) -> int:
    """kept is a subsequence of every, and each child it leaves out has the
    key of an earlier kept child; returns how many were left out."""
    before: set = set()
    rest = iter(kept)
    want = next(rest, None)
    skipped = 0
    for child, key in zip(every, keys):
        if child == want:
            before.add(key)
            want = next(rest, None)
        else:
            assert key in before, child
            skipped += 1
    assert want is None, "kept a child that is not an extension, or out of order"
    return skipped


def test_twin_skips_in_connected_extensions_are_sound(monkeypatch):
    # record every child the enumerator labels: its last row is the subset
    # the new vertex joins, the rest (without that vertex) is the parent
    labeled = []

    def recording(g, colors=None):
        labeled.append(g.rows)
        return canonical_key(g, colors)

    monkeypatch.setattr(corpus, "_connected_cache", {})
    monkeypatch.setattr(corpus, "canonical_key", recording)
    enumerate_connected_graphs(7)
    kept: dict[tuple, list[int]] = {}
    for rows in labeled:
        new = len(rows) - 1
        kept.setdefault(tuple(r & ~(1 << new) for r in rows[:-1]), []).append(rows[-1])
    skipped = 0
    for n in range(1, 7):
        for parent in enumerate_connected_graphs(n):
            subs = range(1, 1 << n)
            keys = [
                canonical_key(Graph.from_rows(
                    [r | (sub >> u & 1) << n for u, r in enumerate(parent.rows)] + [sub]
                ))
                for sub in subs
            ]
            skipped += _assert_skips_are_sound(subs, kept[parent.rows], keys)
    assert skipped > 2000


def _every_saturation(rows, defs) -> list[tuple[list[int], list[int]]]:
    """Every child of an enumeration state, none skipped: the reference."""
    _, v, cands = _open_vertex(rows, defs)
    out = []
    for combo in combinations(cands, defs[v]):
        crows, cdefs = list(rows), list(defs)
        cdefs[v] = 0
        for w in combo:
            crows[v] |= 1 << w
            crows[w] |= 1 << v
            cdefs[w] -= 1
        out.append((crows, cdefs))
    return out


@pytest.mark.parametrize("n,r", [(8, 3), (9, 4), (10, 3)])
def test_twin_skips_in_regular_states_are_sound(n, r):
    # walk every frontier state from the unskipped children, so the states
    # do not depend on the rule under test
    frontier = {canonical_key(Graph(n), [r] * n)}
    states = skipped = 0
    while frontier:
        nxt = set()
        for rows, defs in frontier:
            every = _every_saturation(rows, defs)
            keys = [canonical_key(Graph.from_rows(c), d) for c, d in every]
            skipped += _assert_skips_are_sound(every, list(_saturations(rows, defs)), keys)
            states += 1
            for (crows, cdefs), key in zip(every, keys):
                opened = sum(1 << w for w, d in enumerate(cdefs) if d)
                comps = component_masks(Graph.from_rows(crows))
                if opened and all(c & opened for c in comps) and _open_vertex(crows, cdefs)[0]:
                    nxt.add(key)
        frontier = nxt
    assert states > 30 and skipped > 50


# canonical labelings made while building the corpora of one cold
# `gen` pass (connected n <= 7, then each regular (n, r) from empty caches);
# a rise means the twin skipping has weakened or switched off
LABELINGS = {7: 5299, (9, 4): 496, (10, 3): 524, (10, 4): 2352, (10, 5): 3281, (10, 6): 575}


def test_labeling_counts_are_pinned(monkeypatch):
    calls = [0]

    def counting(g, colors=None):
        calls[0] += 1
        return canonical_key(g, colors)

    monkeypatch.setattr(corpus, "_connected_cache", {})
    monkeypatch.setattr(corpus, "_regular_cache", {})
    monkeypatch.setattr(corpus, "canonical_key", counting)
    counts = {}
    for what in LABELINGS:
        calls[0] = 0
        if what == 7:
            enumerate_connected_graphs(7)
        else:
            enumerate_connected_regular(*what)
        counts[what] = calls[0]
    assert counts == LABELINGS


def test_triangle_key_is_an_isomorphism_invariant():
    rng = random.Random(2014)
    for n in range(1, 11):
        for r in range(0, n, 1 + n % 2):
            graphs = enumerate_connected_regular(n, r)
            keys = set()
            for g in graphs:
                key = _triangle_key(g)
                for _ in range(3):
                    perm = rng.sample(range(n), n)
                    assert _triangle_key(Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])) == key
                keys.add(key)
            assert len(keys) == len(graphs)


def test_regular_counts_beyond_the_cap(monkeypatch):
    # published counts of connected cubic (A002851) and quartic (A006820)
    # graphs, where twins are common among the states
    monkeypatch.setattr(corpus, "_MAX_REGULAR_N", 12)
    monkeypatch.setattr(corpus, "_regular_cache", {})
    assert len(enumerate_connected_regular(12, 3)) == 85
    assert len(enumerate_connected_regular(11, 4)) == 265


def test_random_regular_basics():
    g = random_regular(4, 3, seed=0)
    assert g == complete_graph(4)
    h1 = random_regular(10, 3, seed=42)
    h2 = random_regular(10, 3, seed=42)
    assert h1 == h2
    assert h1.is_regular() and h1.degree(0) == 3 and h1.is_connected()
    assert random_regular(10, 3, seed=1) != random_regular(10, 3, seed=2)
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)
    with pytest.raises(ValueError):
        random_regular(4, 5, seed=0)


def test_random_regular_succeeds_at_degree_six_and_seven():
    # the pairing model yields a simple 6-regular graph with probability
    # about exp(-35/4); drawing only valid pairs makes these routine
    for n, r in ((20, 6), (60, 6), (20, 7)):
        for seed in range(10):
            g = random_regular(n, r, seed=seed)
            assert g.degrees() == (r,) * n and g.is_connected()


def test_random_regular_dense_degrees_pair_the_complement():
    # 2r >= n pairs the (n-1-r)-regular complement, which need not be connected
    for n, r in ((40, 38), (60, 58), (40, 20), (200, 198)):
        for seed in range(10):
            g = random_regular(n, r, seed=seed)
            assert g.degrees() == (r,) * n and g.is_connected()
    assert random_regular(9, 8, seed=0) == complete_graph(9)
    # the sparse path keeps its graphs seed for seed
    assert to_graph6(random_regular(10, 3, seed=42)) == "IaWsPADCo"
    assert to_graph6(random_regular(21, 10, seed=7)) == r"TQ\FGyacbZzei{x{AkgxFoSNMKla[x`tp~OH"


def test_random_regular_refuses_degrees_with_no_connected_graph():
    # r = 0 or 1 leaves more than one component once n > r + 1
    for n, r in ((2, 0), (40, 0), (4, 1), (40, 1)):
        with pytest.raises(ValueError, match=f"no connected {r}-regular graph on {n} vertices"):
            random_regular(n, r, seed=0)
    assert random_regular(1, 0, seed=0) == Graph(1, [])
    assert random_regular(2, 1, seed=0) == complete_graph(2)


# sha256 of the graph6 lines of every draw below, computed before the
# pairing loop was rewritten: the kernel must make the same random() calls
# and pick the same stubs.  Both grids reach the pairing's many-misses
# fallback with either outcome: random_class_member(3, 1, "odd", 175) finds
# a valid pair there, random_regular(10, 3, 9) finds none and restarts.
CLASS_MEMBER_DIGEST = "d51b2be60a0ec62248acea56782d53147451893dfac78e0a1a19c8198b0866c0"
RANDOM_REGULAR_DIGEST = "43d05bb4d2c6029299daefebc33b0fac085c531174a8c48f294c253a1942baf3"


def _accepted_classes():
    for r in range(3, 7):
        for parity in ("even", "odd"):
            for m in range(1, r + 2):
                try:
                    random_class_member(r, m, parity, seed=0)
                except ValueError:
                    continue
                yield r, m, parity


def _assert_valid_rows(graphs):
    # the kernel wraps its rows unchecked; re-validate every draw
    for g in graphs:
        assert Graph.from_rows(g.rows) == g


def test_random_class_member_draws_are_pinned():
    classes = list(_accepted_classes())
    assert len(classes) == 18
    graphs = [
        random_class_member(r, m, parity, seed=seed)
        for r, m, parity in classes
        for seed in range(200)
    ]
    _assert_valid_rows(graphs)
    assert _graph6_digest(graphs) == CLASS_MEMBER_DIGEST


def test_random_regular_draws_are_pinned():
    graphs = [
        random_regular(n, r, seed=seed)
        for n, r in ((10, 3), (12, 5), (16, 6), (30, 4), (21, 10))
        for seed in range(50)
    ]
    _assert_valid_rows(graphs)
    assert _graph6_digest(graphs) == RANDOM_REGULAR_DIGEST


def test_pair_degrees_gives_up_on_impossible_sequences():
    rng = random.Random(0)
    assert _pair_degrees([4, 4, 4, 4, 2], rng, 20) is None  # not graphical


def _automorphism_count(g) -> int:
    """Vertex permutations preserving adjacency, by plain backtracking."""
    n, rows = g.n, g.rows
    image = [0] * n

    def extend(v: int, used: int) -> int:
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if used >> w & 1 or rows[w].bit_count() != rows[v].bit_count():
                continue
            if all((rows[v] >> u & 1) == (rows[w] >> image[u] & 1) for u in range(v)):
                image[v] = w
                total += extend(v + 1, used | 1 << w)
        return total

    return extend(0, 0)


def _class_invariant(g) -> tuple:
    """Spectrum plus sorted common-neighbour counts; the test checks that it
    separates the classes it is used on."""
    rows = g.rows
    common = tuple(sorted(
        tuple(sorted((rows[v] & rows[u]).bit_count() for u in range(g.n) if u != v))
        for v in range(g.n)
    ))
    return tuple(round(x, 6) for x in eigenvalues(g)), common


# (n, r, labeled connected r-regular graphs): A002829 gives 19355 labeled
# cubic graphs on 8 vertices, 35 of them 2K4; A005815 gives 66462606
# labeled quartic graphs on 10 vertices, 126 of them 2K5
@pytest.mark.parametrize("n,r,labeled", [(8, 3, 19320), (10, 4, 66462480)])
def test_random_regular_is_close_to_uniform(n, r, labeled):
    # Steger-Wormald pairing is only asymptotically uniform: compare the
    # class frequencies of 4000 draws (seeds 0..3999) with the exact ones,
    # n!/|Aut(G)| per class, in total-variation distance.  An exactly uniform
    # sampler reads about 0.005 and 0.035 here, the sampling noise of 4000
    # draws; the bound was fixed before any run and catches gross bias only.
    classes = enumerate_connected_regular(n, r)
    weight = {_class_invariant(g): math.factorial(n) // _automorphism_count(g) for g in classes}
    assert len(weight) == len(classes)
    assert sum(weight.values()) == labeled
    draws = 4000
    counts = dict.fromkeys(weight, 0)
    for seed in range(draws):
        counts[_class_invariant(random_regular(n, r, seed=seed))] += 1
    tv = 0.5 * sum(abs(counts[k] / draws - w / labeled) for k, w in weight.items())
    assert tv <= 0.10


@pytest.mark.parametrize("r,m,parity", [
    (4, 2, "even"), (4, 4, "even"), (6, 2, "even"), (5, 2, "even"),
    (3, 1, "odd"), (3, 3, "odd"), (4, 2, "odd"), (5, 3, "odd"), (4, 4, "odd"),
])
def test_random_class_member_postconditions(r, m, parity):
    for seed in range(4):
        g = random_class_member(r, m, parity, seed=seed)
        assert g.is_connected()
        assert max(g.degrees()) == r
        assert not g.is_regular()
        assert 2 * g.edge_count >= r * g.n - m
        if parity == "even":
            assert g.n % 2 != r % 2
        else:
            assert g.n % 2 == r % 2


def test_random_class_member_deterministic():
    a = random_class_member(4, 2, "even", seed=5)
    b = random_class_member(4, 2, "even", seed=5)
    assert a == b


def test_random_class_member_domain():
    with pytest.raises(ValueError):
        random_class_member(4, 3, "even", seed=1)  # m must be even
    with pytest.raises(ValueError):
        random_class_member(3, 2, "even", seed=1)  # r must be >= 4
    with pytest.raises(ValueError):
        random_class_member(3, 2, "odd", seed=1)  # m parity must match r
    with pytest.raises(ValueError):
        random_class_member(4, 7, "odd", seed=1)  # m <= r+1
    with pytest.raises(ValueError):
        random_class_member(4, 2, "sideways", seed=1)
    with pytest.raises(ValueError, match="r >= 3"):
        random_class_member(2, 1, "odd", seed=0)
