"""Adjacency spectra, quotient matrices, and eigenvalue threshold formulas.

Eigenvalues come from numpy.linalg.eigvalsh (LAPACK's symmetric solver) on
the dense adjacency matrix, for graphs of at most 2048 vertices.  The
closed-form thresholds rho1/rho2 and the cubic families they lean on are
kept separate from the numerics so each side can certify the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph, adjacency_bits, as_integer, bits, vertex_mask

# a dense n x n float64 matrix takes 8n^2 bytes: 32 MiB at the cap
MAX_ORDER = 2048


def adjacency_matrix(g: Graph) -> np.ndarray:
    return adjacency_bits(g).astype(float)


def _descending(sym: np.ndarray) -> list[float]:
    return np.linalg.eigvalsh(sym)[::-1].tolist()


def _check_order(n: int) -> None:
    """Refuse an order above MAX_ORDER, so callers can refuse before building."""
    if n > MAX_ORDER:
        raise ValueError(f"eigenvalues: {n} vertices exceeds the cap of {MAX_ORDER}")


def eigenvalues(g: Graph) -> list[float]:
    """Adjacency eigenvalues in descending order (at most 2048 vertices)."""
    _check_order(g.n)
    return _descending(adjacency_matrix(g))


# -- quotient matrices -------------------------------------------------------


def _check_partition(g: Graph, parts: Sequence[Sequence[int]]) -> list[int]:
    masks = []
    seen = 0
    for i, part in enumerate(parts):
        m = vertex_mask(g, part, f"partition part {i}")
        if m == 0:
            raise ValueError(f"partition part {i} is empty")
        if m & seen:
            raise ValueError("partition parts overlap")
        seen |= m
        masks.append(m)
    if seen != (1 << g.n) - 1:
        raise ValueError("partition does not cover the vertex set")
    return masks


def _cross_counts(g: Graph, masks: list[int]) -> np.ndarray:
    s = len(masks)
    e = np.zeros((s, s))
    for i, mi in enumerate(masks):
        for v in bits(mi):
            row = g.row(v)
            for j, mj in enumerate(masks):
                e[i, j] += (row & mj).bit_count()
    return e  # e[i][j] counts edge endpoints; e[i][i] is twice the inner edges


def quotient_matrix(g: Graph, parts: Sequence[Sequence[int]]) -> np.ndarray:
    """B[i][j] = (edges from part i to part j) / |part i|; diagonal 2e_i/|V_i|."""
    masks = _check_partition(g, parts)
    e = _cross_counts(g, masks)
    sizes = np.array([m.bit_count() for m in masks], dtype=float)
    return e / sizes[:, None]


def quotient_eigenvalues(g: Graph, parts: Sequence[Sequence[int]]) -> list[float]:
    """Eigenvalues of the quotient matrix, descending.

    B = D^-1 E with E symmetric, so B is similar to the symmetric matrix
    D^-1/2 E D^-1/2 and its spectrum is real; eigvalsh is applied to that
    symmetrized form.
    """
    masks = _check_partition(g, parts)
    e = _cross_counts(g, masks)
    sizes = np.array([m.bit_count() for m in masks], dtype=float)
    scale = 1.0 / np.sqrt(sizes)
    sym = e * scale[:, None] * scale[None, :]
    return _descending(sym)


def is_equitable(g: Graph, parts: Sequence[Sequence[int]]) -> bool:
    """True when every vertex of part i has the same neighbor count in part j."""
    masks = _check_partition(g, parts)
    for mi in masks:
        first: list[int] | None = None
        for v in bits(mi):
            counts = [(g.row(v) & mj).bit_count() for mj in masks]
            if first is None:
                first = counts
            elif counts != first:
                return False
    return True


# -- cubic families and closed-form thresholds --------------------------------


def cubic_family(which: str, r: int) -> tuple[float, float, float, float]:
    """Monic cubic coefficients (1, b, c, d) for the named polynomial family.

    P  : x^3 - (r-2)x^2 - 2rx + (r-1)       threshold cubic for m = 1
    f1 : x^3 - (r-2)x^2 - (2r-1)x + r       threshold cubic for m = 2
    f2 : x^3 - (r-2)x^2 - (2r-1)x + (r-2)   adjacent-deficit-pair quotient
    f3 : x^3 - (r-2)x^2 - 2rx + 2(r-2)      single-deficit-vertex quotient
    Q  : x^3 - (r-3)x^2 - 3(r-1)x - r       extremal_odd_m2 quotient

    Q is the characteristic polynomial of the equitable quotient of
    extremal_odd_m2(r) (path ends, path internals, matching vertices; rows
    [1, 1, r-2], [1, 0, r-2], [2, 2, r-4]), so its greatest root is that
    graph's spectral radius.  The greatest root of f1 lies below r - 2/(r+2),
    the least average degree of the m = 2 class, so no class member attains
    it.
    """
    if r < 3:
        raise ValueError("r must be at least 3")
    if which == "P":
        return (1.0, -(r - 2.0), -2.0 * r, r - 1.0)
    if which == "f1":
        return (1.0, -(r - 2.0), -(2.0 * r - 1.0), float(r))
    if which == "f2":
        return (1.0, -(r - 2.0), -(2.0 * r - 1.0), r - 2.0)
    if which == "f3":
        return (1.0, -(r - 2.0), -2.0 * r, 2.0 * (r - 2.0))
    if which == "Q":
        return (1.0, -(r - 3.0), -3.0 * (r - 1.0), -float(r))
    raise ValueError(f"unknown cubic family {which!r}")


def largest_root(coeffs: Sequence[float]) -> float:
    """Greatest real root of a monic cubic, by bisection on a bracket that
    holds no other root.

    A monic cubic increases outside its critical points c1 <= c2.  If
    p(c2) <= 0 the greatest root lies in [c2, B], otherwise in [-B, c1];
    with no real critical point, p increases everywhere and [-B, B] holds
    the only real root.  B is the Cauchy bound.  Bisection runs until the
    midpoint equals an endpoint.  Raises if the greatest root is negative,
    which for the threshold cubics signals a caller bug.
    """
    if len(coeffs) != 4:
        raise ValueError("expected 4 cubic coefficients")
    a3, b, c, d = (float(x) for x in coeffs)
    if a3 != 1.0:
        raise ValueError("leading coefficient must be 1")
    if not all(math.isfinite(x) for x in (b, c, d)):
        raise ValueError("coefficients must be finite")

    def p(x: float) -> float:
        return ((x + b) * x + c) * x + d

    bound = 1.0 + max(abs(b), abs(c), abs(d))
    lo, hi = -bound, bound
    disc = b * b - 3.0 * c  # p'(x) = 3x^2 + 2bx + c
    if disc >= 0.0:
        c1 = (-b - math.sqrt(disc)) / 3.0
        c2 = (-b + math.sqrt(disc)) / 3.0
        if p(c2) <= 0.0:
            lo = c2
        else:
            hi = c1
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if p(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    if lo < 0.0:
        raise ValueError("the greatest real root is negative")
    return lo


@dataclass(frozen=True)
class SpectralThreshold:
    value: float
    kind: str
    r: int
    m: int


def rho1_value(r: int, m: int) -> float:
    """Raw closed form (r - 2 + sqrt((r+2)^2 - 4m)) / 2, without domain gating.

    Campaign thresholds need this at parameters (for example r = 3) outside
    the class-minimality domain enforced by rho1.
    """
    disc = (r + 2) ** 2 - 4 * m
    if r < 1 or m < 1 or disc < 0:
        raise ValueError("rho1 closed form undefined for these parameters")
    return 0.5 * (r - 2 + math.sqrt(disc))


def check_class(r: int, m: int, parity: str) -> None:
    """Refuse (r, m) outside the paper's classes of connected irregular
    graphs with max degree r and 2e >= rn - m: the even family (order
    opposite to r in parity, rho1) and the odd family (order of r's
    parity, rho2)."""
    r, m = as_integer(r, "r"), as_integer(m, "m")
    if parity == "even":
        if r < 4:
            raise ValueError("even family needs r >= 4")
        if m % 2 != 0 or not 2 <= m <= r + 1:
            raise ValueError("m must be even with 2 <= m <= r+1")
    elif parity == "odd":
        if r < 3:
            raise ValueError("odd family needs r >= 3")
        if (m - r) % 2 != 0 or not 1 <= m <= r + 1:
            raise ValueError("m must satisfy 1 <= m <= r+1 and m == r (mod 2)")
    else:
        raise ValueError("parity must be 'even' or 'odd'")


def rho1(r: int, m: int) -> SpectralThreshold:
    """Least spectral radius over connected irregular graphs with max degree r,
    order opposite to r in parity, and 2e >= rn - m (m even)."""
    check_class(r, m, "even")
    return SpectralThreshold(rho1_value(r, m), "closed-form-even", r, m)


def rho2(r: int, m: int) -> SpectralThreshold:
    """Threshold for the order-matching-parity family (m == r mod 2).

    m >= 3 uses the closed form (r - 3 + sqrt((r+3)^2 - 4m)) / 2; m = 1 and
    m = 2 fall back to the greatest roots of the cubics P and f1.
    """
    check_class(r, m, "odd")
    if m >= 3:
        disc = (r + 3) ** 2 - 4 * m
        return SpectralThreshold(0.5 * (r - 3 + math.sqrt(disc)), "closed-form-odd", r, m)
    if m == 1:
        value = largest_root(cubic_family("P", r))
        return SpectralThreshold(value, "cubic-m1", r, m)
    value = largest_root(cubic_family("f1", r))
    return SpectralThreshold(value, "cubic-m2", r, m)
