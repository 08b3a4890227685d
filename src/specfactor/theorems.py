"""Verification campaigns tying spectra to factor existence.

Each campaign runs one implication over a corpus: graphs whose relevant
eigenvalue sits below a registered threshold must have the promised factor
property.  Reports count hypothesis and conclusion satisfiers and carry
counterexamples as graph6 strings, so a nonempty list is always a finding,
never a crash.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .constructions import (
    aux_claw,
    aux_claw_parts,
    aux_two_p3,
    aux_two_p3_parts,
    extremal_even,
    extremal_odd_m1,
    extremal_odd_m2,
    extremal_odd_m3,
)
from .corpus import random_class_member
from .factors import is_k_critical, k_factor
from .graph import Graph, as_count, as_integer, bits, component_masks, induced_subgraph, vertex_mask
from .graph6 import to_graph6
from .oracle import delta
from .spectral import (
    SpectralThreshold,
    _check_order,
    check_class,
    cubic_family,
    eigenvalues,
    largest_root,
    quotient_eigenvalues,
    rho1,
    rho1_value,
    rho2,
)

_TOL = 1e-9


@dataclass(frozen=True)
class HypothesisProfile:
    """Arithmetic shape of one (r, k, m) hypothesis.

    m_star is the odd member of {m, m+1}, m0 the odd member of {m, m-1}.
    condition is "i", "ii", "iii" or None:
      (i)   r even, k odd, n even, r <= k*m and k*m <= r*(m-1)
      (ii)  r odd, k even, k*m_star <= r*(m_star - 1)
      (iii) r odd, k odd, r <= k*m_star
    """

    r: int
    k: int
    m: int
    m_star: int
    m0: int
    condition: str | None


def classify_hypothesis(r: int, k: int, m: int, n_parity: str = "even") -> HypothesisProfile:
    r, k, m = as_integer(r, "r"), as_integer(k, "k"), as_integer(m, "m")
    if not 1 <= k < r:
        raise ValueError("need 1 <= k < r")
    if m < 1:
        raise ValueError("need m >= 1")
    if n_parity not in ("even", "odd"):
        raise ValueError("n_parity must be 'even' or 'odd'")
    m_star = m if m % 2 == 1 else m + 1
    m0 = m if m % 2 == 1 else m - 1
    condition = None
    if r % 2 == 0 and k % 2 == 1:
        if n_parity == "even" and r <= k * m <= r * (m - 1):
            condition = "i"
    elif r % 2 == 1 and k % 2 == 0:
        if k * m_star <= r * (m_star - 1):
            condition = "ii"
    elif r % 2 == 1 and k % 2 == 1:
        if r <= k * m_star:
            condition = "iii"
    return HypothesisProfile(r, k, m, m_star, m0, condition)


@dataclass
class CampaignReport:
    corpus: str
    tested: int = 0
    hypothesis_count: int = 0
    conclusion_count: int = 0
    counterexamples: list[str] = field(default_factory=list)
    margins: dict[str, float] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def judge(self, g: Graph, holds: bool) -> None:
        """Count g inside the hypothesis; keep its graph6 if the conclusion fails."""
        self.hypothesis_count += 1
        if holds:
            self.conclusion_count += 1
        else:
            self.counterexamples.append(to_graph6(g))

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _margin_stats(margins: list[float]) -> dict[str, float]:
    return {
        "min": min(margins),
        "max": max(margins),
        "mean": sum(margins) / len(margins),
    }


def _campaign_report(corpus: str, tested: int, threshold: SpectralThreshold) -> CampaignReport:
    """An empty report whose details open with the threshold it judges against."""
    details = {"threshold": threshold.value, "threshold_kind": threshold.kind}
    return CampaignReport(corpus=corpus, tested=tested, details=details)


def _minimality_campaign(
    threshold, extremal: Graph, family: str, r: int, m: int, samples: int, seed: int
) -> CampaignReport:
    """Shared body: extremal member attains the threshold, samples stay above."""
    samples = as_count(samples, "samples")
    report = _campaign_report(
        f"extremal member plus {samples} sampled {family}-family members "
        f"(r={r}, m={m}, seed={seed})",
        samples + 1, threshold,
    )
    ext_lam1 = eigenvalues(extremal)[0]
    attained = abs(ext_lam1 - threshold.value) <= _TOL
    margins = [ext_lam1 - threshold.value]
    report.judge(extremal, attained)
    for i in range(samples):
        g = random_class_member(r, m, family, seed * 1_000_003 + i + 1)
        lam1 = eigenvalues(g)[0]
        margins.append(lam1 - threshold.value)
        report.judge(g, lam1 >= threshold.value - _TOL)
    report.margins = _margin_stats(margins)
    report.details |= {
        "extremal_lambda1": ext_lam1,
        "extremal_attained": attained,
        "extremal_graph6": to_graph6(extremal),
    }
    return report


def verify_thm_2_1(r: int, m: int, samples: int, seed: int = 0) -> CampaignReport:
    """Even family: extremal construction attains rho1(r,m); samples never dip below."""
    threshold = rho1(r, m)
    _check_order(r + 1)  # the extremal graph's order, refused before it is built
    return _minimality_campaign(threshold, extremal_even(r, m), "even", r, m, samples, seed)


def verify_thm_2_2(r: int, m: int, samples: int, seed: int = 0) -> CampaignReport:
    """Odd family: construction for the given m against rho2(r,m), plus samples."""
    threshold = rho2(r, m)
    _check_order(r + 2)
    if m == 1:
        g = extremal_odd_m1(r)
    elif m == 2:
        g = extremal_odd_m2(r)
    else:
        g = extremal_odd_m3(r, m)
    return _minimality_campaign(threshold, g, "odd", r, m, samples, seed)


def _regular_campaign(r: int, k: int, threshold: SpectralThreshold, corpus):
    """Shared loop of theorems 3.2 and 3.3 over connected r-regular graphs.

    The hypothesis is lambda < threshold, with lambda = lambda2 on odd
    orders and lambda3 on even ones; the conclusion is k-criticality on odd
    orders and a k-factor on even ones.  Odd r admits only even orders.
    Returns the report and (lambda, graph) for every graph outside the
    hypothesis.
    """
    graphs = list(corpus)
    if not graphs:
        raise ValueError("corpus must contain at least one graph")
    for g in graphs:
        if g.n == 0 or not g.is_connected():
            raise ValueError("corpus graphs must be connected and non-empty")
        if not (g.is_regular() and g.degree(0) == r):
            raise ValueError(f"corpus graphs must be {r}-regular")
    report = _campaign_report(
        f"supplied corpus of {len(graphs)} connected {r}-regular graphs", len(graphs), threshold
    )
    margins = []
    outside = []
    for g in graphs:
        spec = eigenvalues(g)
        odd = g.n % 2 == 1
        lam = spec[1] if odd else spec[2]
        margins.append(lam - threshold.value)
        if lam < threshold.value - _TOL:
            report.judge(g, is_k_critical(g, k) if odd else k_factor(g, k).exists)
        else:
            outside.append((lam, g))
    report.margins = _margin_stats(margins)
    return report, outside


def verify_thm_3_2(r: int, k: int, m: int, corpus) -> CampaignReport:
    """Regular graphs: small lambda2 (odd order) forces k-criticality, small
    lambda3 (even order) forces a k-factor; threshold rho1(r, m0 - 1)."""
    if m < 3:  # (6, 3, 2) meets condition (i), but rho1(r, m0 - 1) needs m0 >= 3
        raise ValueError("need m >= 3")
    profile = classify_hypothesis(r, k, m, "even")
    if profile.condition != "i":
        raise ValueError("need r even, k odd and r <= k*m <= r*(m-1)")
    m0 = profile.m0
    threshold = rho1(r, m0 - 1)
    report, _ = _regular_campaign(r, k, threshold, corpus)
    # r even and m0 odd, so rho2(r, m0 - 1) is always defined
    rho2_same = rho2(r, m0 - 1).value
    report.details |= {
        "m0": m0,
        "rho2_at_same_args": rho2_same,
        # the companion claim min{rho1, rho2}(r, m0-1) = rho1(r, m0-1),
        # checked rather than assumed
        "min_is_rho1": threshold.value <= rho2_same,
    }
    return report


def verify_thm_3_3(r: int, k: int, m: int, corpus) -> CampaignReport:
    """Odd-r regular graphs: lambda3 below the m-parity threshold forces a k-factor."""
    profile = classify_hypothesis(r, k, m, "even")
    if profile.condition not in ("ii", "iii"):
        raise ValueError("need r odd and condition (ii) or (iii) to hold")
    if m % 2 == 1:
        threshold = SpectralThreshold(rho1_value(r, m - 1), "closed-form-even", r, m - 1)
    else:
        threshold = rho2(r, m - 1)
    report, outside = _regular_campaign(r, k, threshold, corpus)
    variants = {f"{'rho1' if m % 2 == 1 else 'rho2'}(r,m-1)": threshold.value}
    if m % 2 == 1:  # m = 1 meets neither condition (ii) nor (iii)
        variants["rho2(r,m-2)"] = rho2(r, m - 2).value
    # no graph outside lies below the stated threshold, so only a lower variant queries factors
    report.details |= {
        "condition": profile.condition,
        "m_star": profile.m_star,
        "variants": variants,
        "variant_supported_by_data": {
            name: not any(lam < value - _TOL and not k_factor(g, k).exists for lam, g in outside)
            for name, value in variants.items()
        },
    }
    return report


@dataclass(frozen=True)
class Lemma31Result:
    applicable: bool
    reason: str | None
    condition: str | None
    deficiency: int | None
    s: tuple[int, ...] | None
    t: tuple[int, ...] | None
    subgraphs: tuple[tuple[int, ...], ...]
    satisfied: bool


def _inapplicable(reason: str) -> Lemma31Result:
    return Lemma31Result(False, reason, None, None, None, None, (), False)


def check_lemma_3_1(g: Graph, k: int, m: int) -> Lemma31Result:
    """Exhibit def(G)+1 disjoint induced subgraphs with 2e(H) >= r|H| - (m-1).

    Candidates are components of G - (S u T) for the factor engine's Tutte
    pair (`k_factor(g, k).barrier`), which `oracle.delta` must confirm
    attains the deficiency; a component C qualifies exactly when
    e(C, S u T) <= m-1, since regularity gives 2e(C) = r|C| - e(C, S u T).
    Fewer than def+1 qualifying components is reported as unsatisfied.
    """
    k = as_integer(k, "k")
    if g.n == 0 or not g.is_connected():
        return _inapplicable("input graph is not connected")
    if not g.is_regular():
        return _inapplicable("input graph is not regular")
    r = g.degree(0)
    if not 1 <= k < r:
        return _inapplicable("k outside 1 <= k < r")
    profile = classify_hypothesis(r, k, m, "even" if g.n % 2 == 0 else "odd")
    if profile.condition is None:
        return _inapplicable("no hypothesis condition holds")
    # every condition forces even n (odd n makes r even, condition (i) needs
    # even n, and (ii) and (iii) need odd r), so kn is even and G cannot be
    # k-critical: only "has a k-factor" is left to rule out
    report = k_factor(g, k)
    if report.exists:
        return _inapplicable("graph has a k-factor")
    defc = report.deficiency
    s, t = report.barrier
    if delta(g, k, report.barrier).delta != -defc:
        raise RuntimeError("factor engine's Tutte pair does not attain its deficiency")

    rest = ((1 << g.n) - 1) & ~vertex_mask(g, (*s, *t), "S u T")
    found = []
    for comp in component_masks(g, rest):
        vs = tuple(bits(comp))
        two_e = sum((g.row(v) & comp).bit_count() for v in vs)
        if two_e >= r * len(vs) - (m - 1):
            found.append(vs)
    for h in found:
        if 2 * induced_subgraph(g, h).edge_count < r * len(h) - (m - 1):
            raise RuntimeError("lemma 3.1 component fails its edge bound")
    return Lemma31Result(
        True, None, profile.condition, defc, s, t, tuple(found), len(found) >= defc + 1
    )


def ordering_report(r: int) -> dict:
    """Greatest roots of the three cubics for even r, with the observed order
    and whether each root is attained by its associated quotient spectrum."""
    check_class(r, 2, "odd")  # the m = 2 odd family: r even >= 4
    roots = {
        name: largest_root(cubic_family(name, r)) for name in ("f1", "f2", "f3")
    }
    order = sorted(roots, key=roots.get)
    triples = (
        ("two_p3_matches_f2", quotient_eigenvalues(aux_two_p3(r), aux_two_p3_parts(r))[0], "f2"),
        ("claw_matches_f3", quotient_eigenvalues(aux_claw(r), aux_claw_parts(r))[0], "f3"),
        ("odd_m2_matches_f1", eigenvalues(extremal_odd_m2(r))[0], "f1"),
    )
    attained = {name: abs(lam1 - roots[root]) <= _TOL for name, lam1, root in triples}
    return {
        "r": r,
        "roots": roots,
        "ordering": "<".join(order),
        "min_is_f1": order[0] == "f1",
        "attained": attained,
    }
