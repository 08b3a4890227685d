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

from .graph import Graph, bits

# a dense n x n float64 matrix takes 8n^2 bytes: 32 MiB at the cap
_MAX_ORDER = 2048


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        for u in bits(g.row(v)):
            a[v, u] = 1.0
    return a


def _descending(sym: np.ndarray) -> list[float]:
    return [float(x) for x in np.linalg.eigvalsh(sym)[::-1]]


def eigenvalues(g: Graph) -> list[float]:
    """Adjacency eigenvalues in descending order (at most 2048 vertices)."""
    if g.n > _MAX_ORDER:
        raise ValueError(f"eigenvalues: {g.n} vertices exceeds the cap of {_MAX_ORDER}")
    return _descending(adjacency_matrix(g))


# -- quotient matrices -------------------------------------------------------


def _check_partition(g: Graph, parts: Sequence[Sequence[int]]) -> list[int]:
    masks = []
    seen = 0
    for i, part in enumerate(parts):
        m = 0
        for v in part:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            m |= 1 << v
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


def largest_root(coeffs: Sequence[float], hi: float | None = None) -> float:
    """Greatest real root of a monic cubic, isolated in [0, hi] by sign scan.

    Bisection brings the bracket below 1e-13, then a few Newton steps polish
    the result.  Raises if no sign change lands in the bracket, which for the
    threshold cubics signals a caller bug.
    """
    if len(coeffs) != 4:
        raise ValueError("expected 4 cubic coefficients")
    a3, b, c, d = (float(x) for x in coeffs)
    if a3 != 1.0:
        raise ValueError("leading coefficient must be 1")

    def p(x: float) -> float:
        return ((x + b) * x + c) * x + d

    def dp(x: float) -> float:
        return (3.0 * x + 2.0 * b) * x + c

    if hi is None:
        hi = 1.0 + max(abs(b), abs(c), abs(d))  # Cauchy bound
    for _ in range(8):
        if p(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError("could not bracket the greatest root from above")

    # rightmost sign change on a descending grid
    steps = 4096
    lo = None
    x_hi = hi
    for i in range(1, steps + 1):
        x = hi * (steps - i) / steps
        if p(x) <= 0.0:
            lo = x
            break
        x_hi = x
    if lo is None:
        raise ValueError("no real root in [0, hi]")

    for _ in range(200):
        if x_hi - lo < 1e-13 * max(1.0, abs(x_hi)):
            break
        mid = 0.5 * (lo + x_hi)
        if p(mid) <= 0.0:
            lo = mid
        else:
            x_hi = mid
    root = 0.5 * (lo + x_hi)

    best, best_val = root, abs(p(root))
    x = root
    for _ in range(8):
        slope = dp(x)
        if slope == 0.0:
            break
        x = x - p(x) / slope
        if not lo - 1e-9 <= x <= x_hi + 1e-9:
            break
        if abs(p(x)) < best_val:
            best, best_val = x, abs(p(x))
    return best


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


def rho1(r: int, m: int) -> SpectralThreshold:
    """Least spectral radius over connected irregular graphs with max degree r,
    order opposite to r in parity, and 2e >= rn - m (m even)."""
    if r < 4:
        raise ValueError("r must be at least 4")
    if m % 2 != 0 or not 2 <= m <= r + 1:
        raise ValueError("m must be even with 2 <= m <= r+1")
    return SpectralThreshold(rho1_value(r, m), "closed-form-even", r, m)


def rho2(r: int, m: int) -> SpectralThreshold:
    """Threshold for the order-matching-parity family (m == r mod 2).

    m >= 3 uses the closed form (r - 3 + sqrt((r+3)^2 - 4m)) / 2; m = 1 and
    m = 2 fall back to the greatest roots of the cubics P and f1.
    """
    if r < 3:
        raise ValueError("r must be at least 3")
    if not 1 <= m <= r + 1 or (m - r) % 2 != 0:
        raise ValueError("m must satisfy 1 <= m <= r+1 and m == r (mod 2)")
    if m >= 3:
        disc = (r + 3) ** 2 - 4 * m
        return SpectralThreshold(0.5 * (r - 3 + math.sqrt(disc)), "closed-form-odd", r, m)
    if m == 1:
        value = largest_root(cubic_family("P", r), hi=r + 1.0)
        return SpectralThreshold(value, "cubic-m1", r, m)
    value = largest_root(cubic_family("f1", r), hi=r + 1.0)
    return SpectralThreshold(value, "cubic-m2", r, m)
