"""Named graph families and the near-regular extremal constructions.

Every extremal family must land in the class it is built for: connected,
irregular, max degree exactly r, and 2e = rn - m with the right n parity.
"""

from __future__ import annotations

import pytest

from specfactor.constructions import (
    aux_claw,
    aux_claw_parts,
    aux_two_p3,
    aux_two_p3_parts,
    build,
    cocktail_party,
    complete_graph,
    cycle,
    cycles_union,
    extremal_even,
    extremal_even_parts,
    extremal_odd_m1,
    extremal_odd_m1_parts,
    extremal_odd_m2,
    extremal_odd_m2_parts,
    extremal_odd_m3,
    extremal_odd_m3_parts,
    matching,
    path,
    petersen,
    star,
)
from specfactor.corpus import random_class_member
from specfactor.spectral import rho1, rho2
from specfactor.theorems import ordering_report


def test_basic_families():
    assert complete_graph(4).edge_count == 6
    assert path(4).edge_count == 3
    assert cycle(5).degrees() == (2, 2, 2, 2, 2)
    assert star(4).degrees() == (4, 1, 1, 1, 1)
    assert matching(3).n == 6 and matching(3).edge_count == 3
    cu = cycles_union([3, 4])
    assert cu.n == 7 and cu.edge_count == 7 and not cu.is_connected()
    assert cocktail_party(3).degrees() == (4,) * 6
    p = petersen()
    assert p.n == 10 and p.is_regular() and p.degree(0) == 3


def test_basic_family_domains():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        cycles_union([2, 3])
    with pytest.raises(ValueError):
        star(-1)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        matching(-1)
    with pytest.raises(ValueError):
        cycles_union([])


def test_extremal_even_example():
    g = extremal_even(4, 2)
    assert g.n == 5
    assert g.edge_count == 9
    assert sorted(g.degrees(), reverse=True) == [4, 4, 4, 3, 3]


def test_extremal_odd_m1_example():
    g = extremal_odd_m1(3)
    assert g.n == 5 and g.edge_count == 7
    assert sorted(g.degrees()) == [2, 3, 3, 3, 3]


def test_extremal_odd_m2_example():
    g = extremal_odd_m2(4)
    assert g.n == 6
    assert 2 * g.edge_count == 4 * 6 - 2
    assert sorted(g.degrees()) == [3, 3, 4, 4, 4, 4]


def test_extremal_odd_m3_example():
    g = extremal_odd_m3(5, 3)
    assert g.n == 7 and g.edge_count == 16


def _class_check(g, r, m, n_expected):
    assert g.n == n_expected
    assert g.is_connected()
    assert not g.is_regular()
    assert max(g.degrees()) == r
    assert 2 * g.edge_count == r * g.n - m


def test_even_family_class_membership():
    for r in (4, 5, 6, 8):
        for m in range(2, r + 2, 2):
            if m == r + 1:
                continue
            g = extremal_even(r, m)
            _class_check(g, r, m, r + 1)
            assert g.n % 2 != r % 2


@pytest.mark.parametrize("r,m", [(3, 1), (5, 1), (7, 1), (4, 2), (6, 2), (8, 2),
                                 (3, 3), (5, 3), (5, 5), (4, 4), (6, 4), (7, 3),
                                 (6, 6), (7, 7)])
def test_odd_family_class_membership(r, m):
    if m == 1:
        g = extremal_odd_m1(r)
    elif m == 2:
        g = extremal_odd_m2(r)
    else:
        g = extremal_odd_m3(r, m)
    _class_check(g, r, m, r + 2)
    assert g.n % 2 == r % 2


def test_even_family_m_equals_r_plus_1_degenerate():
    # m = r+1 (r odd) empties the clique part: the result is the
    # (r-1)-regular cocktail party graph, the one regular member the
    # parameter domain admits
    g = extremal_even(5, 6)
    assert g == cocktail_party(3)
    assert g.is_regular() and max(g.degrees()) == 4
    assert 2 * g.edge_count == 5 * 6 - 6


def _accepted(call, *args) -> bool:
    try:
        call(*args)
    except ValueError:
        return False
    return True


def test_class_rule_agrees_across_entry_points():
    # every entry point into a class takes exactly the (r, m) its threshold takes
    for r in range(3, 10):
        for m in range(12):
            even = _accepted(rho1, r, m)
            assert _accepted(extremal_even, r, m) == even, (r, m)
            assert _accepted(random_class_member, r, m, "even", 1) == even, (r, m)
            odd = _accepted(rho2, r, m)
            assert _accepted(random_class_member, r, m, "odd", 1) == odd, (r, m)
        assert _accepted(extremal_odd_m1, r) == _accepted(rho2, r, 1), r
        for call in (extremal_odd_m2, aux_two_p3, aux_claw, ordering_report):
            assert _accepted(call, r) == _accepted(rho2, r, 2), (call.__name__, r)


def test_extremal_domain_errors():
    with pytest.raises(ValueError):
        extremal_even(3, 2)  # r must be >= 4
    with pytest.raises(ValueError):
        extremal_even(4, 3)  # m must be even
    with pytest.raises(ValueError):
        extremal_even(4, 8)  # m <= r+1
    with pytest.raises(ValueError):
        extremal_odd_m1(4)  # r must be odd
    with pytest.raises(ValueError):
        extremal_odd_m2(5)  # r must be even
    with pytest.raises(ValueError):
        aux_two_p3(5)  # r must be even
    with pytest.raises(ValueError):
        aux_claw(5)  # r must be even
    with pytest.raises(ValueError):
        extremal_odd_m3(5, 2)  # m >= 3
    with pytest.raises(ValueError):
        extremal_odd_m3(5, 4)  # m must match r's parity
    with pytest.raises(ValueError):
        extremal_odd_m3(5, 7)  # m <= r+1


def test_extremal_odd_m3_cycle_partition():
    g1 = extremal_odd_m3(5, 5)
    g2 = extremal_odd_m3(5, 5, cycle_lengths=[5])
    assert g1 == g2
    g3 = extremal_odd_m3(7, 7, cycle_lengths=[3, 4])
    _class_check(g3, 7, 7, 9)
    with pytest.raises(ValueError):
        extremal_odd_m3(7, 7, cycle_lengths=[3, 3])  # lengths must sum to m


def test_aux_families():
    g = aux_two_p3(4)
    assert g.n == 6
    assert 2 * g.edge_count == 4 * 6 - 2
    assert sorted(g.degrees()) == [3, 3, 4, 4, 4, 4]
    # same degree sequence as the m=2 extremal graph but not the same graph
    assert g != extremal_odd_m2(4)
    h = aux_claw(4)
    assert h.n == 6
    assert 2 * h.edge_count == 4 * 6 - 2
    assert sorted(h.degrees()) == [2, 4, 4, 4, 4, 4]


def test_parts_cover_vertices():
    cases = [
        (extremal_even(4, 2), extremal_even_parts(4, 2)),
        (extremal_odd_m1(3), extremal_odd_m1_parts(3)),
        (extremal_odd_m2(4), extremal_odd_m2_parts(4)),
        (extremal_odd_m3(5, 3), extremal_odd_m3_parts(5, 3)),
        (aux_two_p3(4), aux_two_p3_parts(4)),
        (aux_claw(4), aux_claw_parts(4)),
    ]
    for g, parts in cases:
        flat = sorted(v for part in parts for v in part)
        assert flat == list(range(g.n))
        assert all(part for part in parts)


def test_build_dispatch():
    assert build("complete", n=5) == complete_graph(5)
    assert build("petersen") == petersen()
    assert build("extremal-even", r=4, m=2) == extremal_even(4, 2)
    assert build("cycle-union", lengths=(3, 4)) == cycles_union([3, 4])
    assert build("extremal-odd-m3", r=5, m=5, lengths=(5,)) == extremal_odd_m3(5, 5)


def test_build_errors():
    with pytest.raises(ValueError, match="unknown construction family"):
        build("nonesuch", n=3)
    with pytest.raises(ValueError, match="requires parameter"):
        build("complete")
    with pytest.raises(ValueError, match="requires parameter"):
        build("extremal-even", r=4)


def test_construction_labeling_is_deterministic():
    a = extremal_even(6, 4)
    b = extremal_even(6, 4)
    assert a == b and a.rows == b.rows
