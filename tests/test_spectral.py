"""Eigenvalue machinery: the eigvalsh spectra, quotients, cubic roots, thresholds.

The package gets its spectra from numpy.linalg.eigvalsh; the cyclic Jacobi
solver in conftest serves as the independent reference here.  Cubic roots
are cross-checked with a plain bisection written inline.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfactor.constructions import (
    cocktail_party,
    complete_graph,
    cycle,
    extremal_even,
    extremal_even_parts,
    extremal_odd_m1,
    extremal_odd_m1_parts,
    extremal_odd_m2,
    extremal_odd_m2_parts,
    extremal_odd_m3,
    extremal_odd_m3_parts,
    petersen,
    star,
)
from specfactor.graph import Graph, disjoint_union
from specfactor.spectral import (
    _descending,
    adjacency_matrix,
    cubic_family,
    eigenvalues,
    is_equitable,
    largest_root,
    quotient_eigenvalues,
    quotient_matrix,
    rho1,
    rho1_value,
    rho2,
)

from conftest import jacobi_eigenvalues, random_graph


def bisect_root(coeffs, lo, hi, steps=200):
    """Reference root finder: plain bisection on a monic cubic."""

    def p(x):
        _, b, c, d = coeffs
        return ((x + b) * x + c) * x + d

    assert p(lo) <= 0 < p(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if p(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_spectrum_k2():
    assert eigenvalues(complete_graph(2)) == pytest.approx([1.0, -1.0], abs=1e-10)


def test_spectrum_k5():
    assert eigenvalues(complete_graph(5)) == pytest.approx([4, -1, -1, -1, -1], abs=1e-9)


def test_spectrum_petersen():
    want = [3.0] + [1.0] * 5 + [-2.0] * 4
    assert eigenvalues(petersen()) == pytest.approx(want, abs=1e-9)


def test_spectrum_star():
    # K_{1,4} has spectrum (2, 0, 0, 0, -2)
    assert eigenvalues(star(4)) == pytest.approx([2, 0, 0, 0, -2], abs=1e-9)


def test_spectrum_empty_and_single():
    assert eigenvalues(Graph(0, [])) == []
    assert eigenvalues(Graph(1, [])) == [0.0]


def test_spectrum_returns_plain_floats():
    vals = eigenvalues(cycle(5))
    assert all(type(v) is float for v in vals)


def test_jacobi_matches_numpy_on_graphs(connected_by_n):
    for g in connected_by_n[6]:
        got = eigenvalues(g)
        want = jacobi_eigenvalues(adjacency_matrix(g))
        assert got == pytest.approx(list(want), abs=1e-9)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 300])
def test_adjacency_matrix_matches_per_edge_reference(n):
    rng = random.Random(n)
    g = random_graph(n, rng.random(), rng)
    want = np.zeros((n, n))
    for u, v in g.edges():
        want[u, v] = want[v, u] = 1.0
    got = adjacency_matrix(g)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_eigenvalues_refuse_orders_above_the_cap():
    with pytest.raises(ValueError, match="2048"):
        eigenvalues(Graph(2049, []))


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.zeros((2, 3)))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=8))
@settings(max_examples=150, deadline=None)
def test_jacobi_matches_numpy_on_random_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(-5, 6, size=(n, n)).astype(float)
    a = (a + a.T) / 2
    got = _descending(a)
    want = jacobi_eigenvalues(a)
    assert got == pytest.approx(list(want), abs=1e-8)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_trace_and_moment_invariants(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(1, 11), rng.random(), rng)
    vals = eigenvalues(g)
    assert sorted(vals, reverse=True) == vals
    assert sum(vals) == pytest.approx(0.0, abs=1e-8 * max(1, g.n))
    assert sum(v * v for v in vals) == pytest.approx(2 * g.edge_count, abs=1e-8 * max(1, g.n))


def test_regular_lambda1_and_connectivity(cubic_corpus):
    for g in cubic_corpus:
        vals = eigenvalues(g)
        assert vals[0] == pytest.approx(3.0, abs=1e-9)
        assert vals[1] < 3.0 - 1e-9
    broken = disjoint_union(complete_graph(4), complete_graph(4))
    vals = eigenvalues(broken)
    assert vals[0] == pytest.approx(vals[1], abs=1e-9)


def test_quotient_matrix_example():
    g = extremal_even(4, 2)
    parts = extremal_even_parts(4, 2)
    q = quotient_matrix(g, parts)
    assert q.tolist() == [[2.0, 2.0], [3.0, 0.0]]
    lam = quotient_eigenvalues(g, parts)
    assert lam[0] == pytest.approx(1 + math.sqrt(7), abs=1e-12)


def test_quotient_eigenvalues_match_jacobi_on_extremal_parts():
    # B = quotient_matrix is similar to S^1/2 B S^-1/2 (S the part sizes), which is symmetric
    cases = [(extremal_even(r, m), extremal_even_parts(r, m)) for r, m in ((4, 2), (6, 2), (6, 4), (7, 6))]
    cases += [(extremal_odd_m1(r), extremal_odd_m1_parts(r)) for r in (3, 5, 7)]
    cases += [(extremal_odd_m2(r), extremal_odd_m2_parts(r)) for r in (4, 6, 8)]
    cases += [(extremal_odd_m3(r, m), extremal_odd_m3_parts(r, m)) for r, m in ((5, 3), (7, 5), (6, 4))]
    for g, parts in cases:
        q = quotient_matrix(g, parts)
        sizes = np.array([len(p) for p in parts], dtype=float)
        sym = np.sqrt(sizes)[:, None] * q / np.sqrt(sizes)[None, :]
        assert quotient_eigenvalues(g, parts) == pytest.approx(list(jacobi_eigenvalues(sym)), abs=1e-9)


def test_quotient_matrix_row_sums_and_symmetry_law():
    g = extremal_odd_m2(6)
    parts = extremal_odd_m2_parts(6)
    sizes = [len(p) for p in parts]
    q = quotient_matrix(g, parts)
    for i, part in enumerate(parts):
        avg = sum(g.degree(v) for v in part) / len(part)
        assert q[i].sum() == pytest.approx(avg, abs=1e-12)
    for i in range(len(parts)):
        for j in range(len(parts)):
            assert sizes[i] * q[i, j] == pytest.approx(sizes[j] * q[j, i], abs=1e-9)


def test_quotient_partition_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        quotient_matrix(g, [[0, 1], [1, 2, 3]])  # overlap
    with pytest.raises(ValueError):
        quotient_matrix(g, [[0, 1]])  # not covering
    with pytest.raises(ValueError):
        quotient_matrix(g, [[0, 1], []])  # empty cell
    with pytest.raises(ValueError, match="vertex 4 out of range"):
        quotient_matrix(g, [[0, 1], [2, 3, 4]])
    # a vertex listed twice within one part is refused by every quotient entry
    for call in (quotient_matrix, quotient_eigenvalues, is_equitable):
        with pytest.raises(ValueError, match="part 1 lists vertex 2 more than once"):
            call(g, [[0, 1], [2, 3, 2]])


def test_is_equitable_examples():
    c4 = cycle(4)
    assert is_equitable(c4, [[0, 2], [1, 3]])
    assert is_equitable(c4, [[0, 1], [2, 3]])
    assert not is_equitable(c4, [[0], [1, 2, 3]])
    assert is_equitable(extremal_even(4, 2), extremal_even_parts(4, 2))
    assert is_equitable(extremal_odd_m1(5), extremal_odd_m1_parts(5))


def test_partition_by_degree():
    # extremal_even(4, 2): three vertices of degree 4, then two of degree 3
    g = extremal_even(4, 2)
    assert g.degrees() == (4, 4, 4, 3, 3)
    assert is_equitable(g, [[0, 1, 2], [3, 4]])


def test_quotient_interlacing_on_equitable_partitions():
    # for an equitable partition the quotient spectrum is a subset, so the
    # top quotient eigenvalue cannot exceed the top graph eigenvalue
    cases = [
        (extremal_even(4, 2), extremal_even_parts(4, 2)),
        (extremal_even(6, 4), extremal_even_parts(6, 4)),
        (extremal_odd_m1(3), extremal_odd_m1_parts(3)),
        (extremal_odd_m2(4), extremal_odd_m2_parts(4)),
    ]
    for g, parts in cases:
        lam_g = eigenvalues(g)
        lam_q = quotient_eigenvalues(g, parts)
        assert lam_q[0] <= lam_g[0] + 1e-9
        for mu in lam_q:
            assert min(abs(mu - lam) for lam in lam_g) < 1e-8


def test_cubic_family_coefficients():
    assert cubic_family("P", 3) == (1.0, -1.0, -6.0, 2.0)
    assert cubic_family("f1", 4) == (1.0, -2.0, -7.0, 4.0)
    assert cubic_family("f2", 4) == (1.0, -2.0, -7.0, 2.0)
    assert cubic_family("f3", 4) == (1.0, -2.0, -8.0, 4.0)
    assert cubic_family("Q", 4) == (1.0, -1.0, -9.0, -4.0)
    with pytest.raises(ValueError):
        cubic_family("f4", 4)
    with pytest.raises(ValueError):
        cubic_family("P", 2)


def test_largest_root_against_bisection():
    p3 = cubic_family("P", 3)
    assert largest_root(p3) == pytest.approx(bisect_root(p3, 2.0, 4.0), abs=1e-12)
    assert largest_root(p3) == pytest.approx(2.8557725066359887, abs=1e-12)
    f1 = cubic_family("f1", 4)
    assert largest_root(f1) == pytest.approx(bisect_root(f1, 3.0, 5.0), abs=1e-12)
    assert largest_root(f1) == pytest.approx(3.6261980685272936, abs=1e-12)
    # roots 0.5, 2 and 2.0001: the dip between the two close roots is narrow;
    # p' is only 1.5e-4 there, so rounding in p blurs the root over about 1e-11
    close = (1.0, -4.5001, 6.00025, -2.0001)
    assert largest_root(close) == pytest.approx(bisect_root(close, 2.00005, 3.0), abs=1e-9)
    # (x - 1)(x^2 - 6x + 10): the only real root lies left of both critical points
    left = (1.0, -7.0, 16.0, -10.0)
    assert largest_root(left) == pytest.approx(bisect_root(left, 0.0, 2.0), abs=1e-12)


def test_largest_root_triple_root():
    # (x-1)^3: a flat root only resolves to about the cube root of the
    # bracket width; the threshold cubics all have simple greatest roots
    assert largest_root((1.0, -3.0, 3.0, -1.0)) == pytest.approx(1.0, abs=1e-4)


def test_largest_root_rejects_non_finite_coefficients():
    # a NaN or infinite bracket would never shrink
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            largest_root((1.0, 0.0, bad, -1.0))


def test_largest_root_validation():
    with pytest.raises(ValueError):
        largest_root((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        largest_root((2.0, 0.0, 0.0, -8.0))
    with pytest.raises(ValueError):
        largest_root((1.0, 0.0, 0.0, 1.0))  # only real root is negative


def test_rho1_examples_and_domain():
    t = rho1(4, 2)
    assert t.value == pytest.approx(1 + math.sqrt(7), abs=1e-12)
    assert t.kind == "closed-form-even"
    assert rho1(4, 4).value == pytest.approx(0.5 * (2 + math.sqrt(20)), abs=1e-12)
    for bad in [(3, 2), (4, 3), (4, 0), (4, 8)]:
        with pytest.raises(ValueError):
            rho1(*bad)
    # ungated closed form covers parameters the class gate rejects
    assert rho1_value(3, 2) == pytest.approx(0.5 * (1 + math.sqrt(17)), abs=1e-12)
    with pytest.raises(ValueError, match="undefined"):
        rho1_value(0, 1)


def test_rho2_examples_and_domain():
    t = rho2(5, 3)
    assert t.kind == "closed-form-odd"
    assert t.value == pytest.approx(1 + math.sqrt(13), abs=1e-12)
    t1 = rho2(3, 1)
    assert t1.kind == "cubic-m1"
    assert t1.value == pytest.approx(2.8557725066359887, abs=1e-10)
    t2 = rho2(4, 2)
    assert t2.kind == "cubic-m2"
    assert t2.value == pytest.approx(3.6261980685272936, abs=1e-10)
    for bad in [(2, 1), (3, 2), (4, 1), (3, 0), (4, 8)]:
        with pytest.raises(ValueError):
            rho2(*bad)


def test_thresholds_below_r_and_monotone():
    for r in range(4, 10):
        prev = None
        for m in range(2, r + 2, 2):
            v = rho1(r, m).value
            assert v < r
            if prev is not None:
                assert v < prev
            prev = v
    for r in range(3, 10):
        prev = None
        for m in range(1, r + 2):
            if (m - r) % 2 != 0:
                continue
            v = rho2(r, m).value
            assert v < r
            if prev is not None and m >= 4:
                assert v < prev
            prev = v


def test_rho1_attained_by_cocktail_party_at_m_max():
    # at m = r+1 (r odd) the formula gives exactly r-1, the spectral radius
    # of the degenerate regular member
    for r in (5, 7, 9):
        assert rho1_value(r, r + 1) == pytest.approx(r - 1, abs=1e-12)
        lam1 = eigenvalues(cocktail_party((r + 1) // 2))[0]
        assert lam1 == pytest.approx(r - 1, abs=1e-9)


def test_extremal_graphs_attain_their_thresholds():
    cases = [
        (extremal_even(4, 2), rho1(4, 2).value),
        (extremal_even(6, 2), rho1(6, 2).value),
        (extremal_even(6, 4), rho1(6, 4).value),
        (extremal_odd_m1(3), rho2(3, 1).value),
        (extremal_odd_m1(5), rho2(5, 1).value),
        (extremal_odd_m3(5, 3), rho2(5, 3).value),
        (extremal_odd_m3(7, 3), rho2(7, 3).value),
    ]
    for g, want in cases:
        assert eigenvalues(g)[0] == pytest.approx(want, abs=1e-9)
