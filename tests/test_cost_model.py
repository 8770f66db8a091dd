import math
import random
import sys
from fractions import Fraction

import pytest

from minkclust import (
    Cost,
    DistanceOrder,
    WeightedCluster,
    cost_eq,
    cost_eval,
    cost_le,
    enumerate_cost_set,
    optimal_cluster_cost,
)
from minkclust.cost_model import Keys, approx_sign, approx_terms, cost_floor


def test_cost_eval_examples():
    assert float(cost_eval(Cost.of(3))) == 3.0
    assert float(cost_eval(Cost.of(Fraction(9, 4)))) == 2.25
    v = cost_eval(Cost.basis({1: 1, 3: 1}, Fraction(1, 2)))
    assert float(v) == pytest.approx(2.7320508075688772, abs=1e-12)


def test_cost_eval_rejects_low_precision():
    with pytest.raises(ValueError):
        cost_eval(Cost.of(1), digits=5)


def test_cost_le_examples():
    assert cost_le(Cost.of(2), Cost.of(3))
    assert not cost_le(Cost.of(Fraction(5, 4)), Cost.of(1))
    sqrt2 = Cost.basis({2: 1}, Fraction(1, 2))
    two = Cost.basis({1: 2}, Fraction(1, 2))
    assert cost_le(sqrt2, two)
    assert not cost_le(two, sqrt2)
    # numerically equal structures compare as equal both ways
    four_rt = Cost.basis({4: 1}, Fraction(1, 2))
    assert cost_le(four_rt, two) and cost_le(two, four_rt)
    assert cost_eq(four_rt, two)


# x**2 - 2 * y**2 = 1: y * 2**(1/2) lies 5.6e-13 below x
PELL_X, PELL_Y = 886731088897, 627013566048


def test_pell_near_tie_compares_exactly():
    half = Fraction(1, 2)
    x = Cost.basis({1: PELL_X}, half)
    y_rt2 = Cost.basis({2: PELL_Y}, half)
    assert cost_le(y_rt2, x)
    assert not cost_le(x, y_rt2)
    assert not cost_eq(x, y_rt2)
    assert not cost_le(Cost.of(PELL_X), y_rt2)
    assert cost_le(y_rt2, Cost.of(PELL_X))


def test_equal_values_with_different_terms():
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    # 4**(1/2) = 2 * 1**(1/2)
    assert cost_eq(Cost.basis({4: 1}, half), Cost.basis({1: 2}, half))
    # 8**(2/3) = 4 = 4 * 1**(2/3)
    eight = Cost.basis({8: 1}, two_thirds)
    assert cost_eq(eight, Cost.of(4)) and cost_eq(Cost.of(4), eight)
    assert cost_eq(eight, Cost.basis({1: 4}, two_thirds))
    # 8**(1/2) + 2**(1/2) = 3 * 2**(1/2) = 18**(1/2)
    assert cost_eq(Cost.basis({8: 1, 2: 1}, half), Cost.basis({18: 1}, half))
    # a rational against a basis cost, in both orders
    three = Cost.basis({9: 1}, half)
    for rational, le, ge in ((Cost.of(3), True, True),
                             (Cost.of(Fraction(299, 100)), True, False),
                             (Cost.of(Fraction(301, 100)), False, True)):
        assert cost_le(rational, three) == le
        assert cost_le(three, rational) == ge
        assert cost_eq(rational, three) == (le and ge)


def test_approx_terms_bounds_the_value():
    """The float and its error bound enclose the exact value, in any term
    order; a base beyond the float range gives no information, (0.0, inf),
    which every bound comparison leaves to the exact path."""
    rnd = random.Random(77)
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
        for _ in range(200):
            terms = {rnd.choice([rnd.randint(1, 40), rnd.randint(1, 2**80)]): rnd.randint(1, 5)
                     for _ in range(rnd.randint(1, 5))}
            exact = cost_eval(Cost.basis(terms, p))
            for pairs in (terms.items(), Cost.basis(terms, p).terms):
                value, error = approx_terms(pairs, p)
                assert value - error <= exact <= value + error
    assert approx_terms((), Fraction(1, 2)) == (0.0, 0.0)
    huge = approx_terms([(1, 1), (2**1100, 1)], Fraction(1, 2))
    assert huge == (0.0, math.inf)
    assert approx_sign(huge, (0.0, 0.0)) == approx_sign((0.0, 0.0), huge) == 0
    assert approx_sign((1.0, 0.1), (2.0, 0.1)) == -1 and approx_sign((2.0, 0.1), (1.0, 0.1)) == 1
    assert approx_sign((math.nan, math.nan), (1.0, 0.0)) == 0
    big = Cost.basis({1: 1, 2**1100: 1}, Fraction(1, 2))
    assert cost_le(Cost.basis({2**1100: 1}, Fraction(1, 2)), big) and not cost_eq(big, Cost.of(1))


def test_cost_floor_is_exact():
    half = Fraction(1, 2)
    assert cost_floor(Cost.of(Fraction(7, 2))) == 3
    assert cost_floor(Cost.basis({2: 3}, half)) == 4  # 4.24...
    assert cost_floor(Cost.basis({4: 1, 1: 1}, half)) == 3  # exactly 3
    assert cost_floor(Cost.basis({2: 3}, half), Fraction(-2)) == -9  # -8.48...
    assert cost_floor(Cost.basis({2: PELL_Y}, half)) == PELL_X - 1


def test_keys_decide_as_cost_le():
    """Exact keys, integer multiples of a cost, sit within ``top(b)`` exactly
    when the cost is within b, and within ``below(b)`` exactly when it is
    below b, for seeded values and budgets, some past the float range; a
    value that scales to no integer is refused.  For p in (0, 1) a float key
    is at most its cost and ``top`` at least it, at 50 digits, with bases
    whose powers or costs leave the float range."""
    rnd = random.Random(61)
    huge = 10**400
    for order, weight, denominators in ((DistanceOrder.l0(), 5, (1,)),
                                        (DistanceOrder.l1(), 5, (1,)),
                                        (DistanceOrder.linf(), 5, (1, 2)),
                                        (DistanceOrder.l2(), 6, range(1, 7))):
        keys = Keys(order, weight)
        for _ in range(300):
            den = rnd.choice(denominators)
            value = Fraction(rnd.choice([0, huge]) + rnd.randint(0, 40), den)
            if value.denominator == 1:
                value = value.numerator  # as cluster_cost gives the integer orders
            budget = Cost.of(Fraction(rnd.choice([0, huge]) + rnd.randint(0, 40),
                                      rnd.randint(1, 12)))
            if rnd.random() < 0.3:
                budget = Cost.of(value)
            elif rnd.random() < 0.1:
                budget = Cost.basis({rnd.randint(1, 50): rnd.randint(1, 3)}, Fraction(1, 2))
            key = keys.key(value)
            assert (key <= keys.top(budget)) == cost_le(Cost.of(value), budget)
            assert (key <= keys.below(budget)) == (not cost_le(budget, Cost.of(value)))
    with pytest.raises(ValueError, match="integer vectors"):
        Keys(DistanceOrder.l1(), 5).key(Fraction(1, 2))
    with pytest.raises(ValueError, match="integer vectors"):
        Keys(DistanceOrder.l2(), 3).key(Fraction(1, 4))  # lcm(1, 2, 3) = 6
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
        keys = Keys(DistanceOrder.lp(p), 6)
        for _ in range(100):
            bases = [rnd.randint(1, 40), rnd.randint(1, 2**80), 3 * 2**1100, 10**700]
            terms = {rnd.choice(bases): rnd.randint(1, 5) for _ in range(rnd.randint(1, 4))}
            cost = Cost.basis(terms, p)
            assert keys.key(cost.terms) <= cost_eval(cost) <= keys.top(cost)
            assert keys.below(cost) == keys.top(cost)
            budget = Cost.of(Fraction(rnd.choice([1, huge]) * rnd.randint(1, 40), rnd.randint(1, 12)))
            assert cost_eval(budget) <= keys.top(budget)
    assert Keys(DistanceOrder.lp(Fraction(1, 2)), 2).key(((10**700, 1),)) == sys.float_info.max


def test_cost_arithmetic():
    a = Cost.basis({2: 1}, Fraction(1, 2))
    b = Cost.basis({2: 2, 3: 1}, Fraction(1, 2))
    assert (a + b).terms == ((2, 3), (3, 1))
    assert (a + Cost.of(0)).terms == a.terms
    assert a.scaled(3).terms == ((2, 3),)
    assert a.scaled(0).exact == 0
    with pytest.raises(ValueError):
        a + Cost.of(1)
    with pytest.raises(ValueError):
        Cost.of(Fraction(-1))
    with pytest.raises(ValueError):
        Cost(exact=Fraction(1), terms=((1, 1),), p=Fraction(1, 2))
    assert Cost.basis({}, Fraction(1, 2)).exact == 0


def test_enumerate_cost_set_l1():
    cs = enumerate_cost_set(DistanceOrder.l1(), Cost.of(3))
    assert [c.exact for c in cs] == [0, 1, 2, 3]


def test_enumerate_cost_set_lp_half():
    cs = enumerate_cost_set(DistanceOrder.lp(Fraction(1, 2)), Cost.of(1))
    assert len(cs) == 2
    assert cs.members[0].exact == 0
    assert cs.members[1].terms == ((1, 1),)


def test_enumerate_cost_set_l2():
    cs = enumerate_cost_set(DistanceOrder.l2(), Cost.of(1), n=2)
    assert [c.exact for c in cs] == [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1]


def test_enumerate_cost_set_linf():
    cs = enumerate_cost_set(DistanceOrder.linf(), Cost.of(Fraction(3, 2)))
    assert [c.exact for c in cs] == [0, Fraction(1, 2), 1, Fraction(3, 2)]


def test_enumerate_cost_set_errors():
    with pytest.raises(ValueError):
        enumerate_cost_set(DistanceOrder.l2(), Cost.of(1))  # missing n
    # a zero budget is legal and gives the singleton {0}
    cs = enumerate_cost_set(DistanceOrder.l1(), Cost.of(0))
    assert [c.exact for c in cs] == [0]


def test_cost_set_orderings_are_consistent():
    # sorted-by-evaluation must agree with pairwise comparison
    for p, top in ((Fraction(1, 2), 4), (Fraction(2, 3), 6)):
        cs = enumerate_cost_set(DistanceOrder.lp(p), Cost.of(top))
        members = cs.members
        for a, b in zip(members, members[1:]):
            assert cost_le(a, b)
        rnd = random.Random(7)
        for _ in range(500):
            i = rnd.randrange(len(members))
            j = rnd.randrange(len(members))
            lo, hi = min(i, j), max(i, j)
            assert cost_le(members[lo], members[hi])


def test_lp_cost_set_has_one_member_per_value():
    """Combinations of equal value, such as 4**(1/2) and 2 * 1**(1/2), are
    one member; the members increase strictly."""
    half = Fraction(1, 2)
    members = enumerate_cost_set(DistanceOrder.lp(half), Cost.of(4)).members
    for a, b in zip(members, members[1:]):
        assert cost_le(a, b) and not cost_eq(a, b)
    assert sum(cost_eq(m, Cost.of(2)) for m in members) == 1


def test_basis_size_bound_table():
    # member count stays under (|B|+1)^D for budgets 1..5
    p = Fraction(1, 2)
    for budget in range(1, 6):
        n_bases = budget ** 2  # the bases a with a**(1/2) <= budget
        cs = enumerate_cost_set(DistanceOrder.lp(p), Cost.of(budget))
        assert len(cs) <= (n_bases + 1) ** budget


ORDERS = [
    DistanceOrder.l1(),
    DistanceOrder.lp(Fraction(1, 2)),
    DistanceOrder.l2(),
    DistanceOrder.linf(),
    DistanceOrder.l0(),
]


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_cost_set_contains_all_optimal_costs(order):
    """Every optimal cluster cost at most the budget appears in the set."""
    rnd = random.Random(5)
    budget = Cost.of(4)
    members = enumerate_cost_set(order, budget, n=6).members
    exacts = {m.exact for m in members if m.exact is not None}
    basis_maps = {m.terms for m in members if m.terms is not None}
    for _ in range(40):
        d = rnd.randint(1, 3)
        n = rnd.randint(1, min(6, 4**d))
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rnd.randint(0, 3) for _ in range(d)))
        pts = sorted(pts)
        for size in (1, 2, min(3, len(pts))):
            sub = pts[:size]
            cluster = WeightedCluster(tuple(sub), tuple([1] * len(sub)))
            _, cost = optimal_cluster_cost(order, cluster)
            if not cost_le(cost, budget):
                continue
            if cost.exact is not None:
                assert cost.exact in exacts
            else:
                assert cost.terms in basis_maps or any(
                    cost_eq(cost, m) for m in members
                )
