import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from minkclust import (
    Cost,
    DistanceOrder,
    EnumerationCapExceeded,
    Graph,
    SelectionInstance,
    centroid_lp,
    cluster_cost,
    cost_eq,
    cost_eval,
    cost_le,
    gen_l0_selection_from_mcc,
    gen_l1_selection_from_mcc,
    gen_linf_selection_from_mcc,
    gen_lp_selection_from_mcc,
    optimal_cluster_cost,
    select_bruteforce,
    select_fixed_centroid,
    solve_selection,
    summed_cost,
)
from minkclust import centroids, selection
from tests.helpers import (
    EX_CLIQUE_COLORED,
    EX_LINF_COLORED,
    SELECTION_ENVELOPES,
    bruteforce_reference,
    coordinate_search_reference,
    random_selection_instance,
    tagged_selection_instance,
    tied_selection_instance,
)


def fig_l1_instance():
    return gen_l1_selection_from_mcc(EX_CLIQUE_COLORED, 3)


def fig_lp_instance():
    return gen_lp_selection_from_mcc(EX_CLIQUE_COLORED, 3, Fraction(2))


def test_instance_validation():
    with pytest.raises(ValueError):
        SelectionInstance.of([[(0,)], [(0,)]], Cost.of(1), DistanceOrder.l1())
    with pytest.raises(ValueError):
        SelectionInstance.of([[]], Cost.of(1), DistanceOrder.l1())
    with pytest.raises(ValueError):
        SelectionInstance.of([[(0,), (1, 2)]], Cost.of(1), DistanceOrder.l1())
    with pytest.raises(ValueError):
        SelectionInstance.of([[(0,)]], Cost.of(1), DistanceOrder.l1(), weights=[[0]])


def test_fixed_centroid_examples():
    inst = fig_l1_instance()
    res = select_fixed_centroid(inst, (1, 2, 4))
    assert res.decision and res.cost.exact == 15

    singles = SelectionInstance.of([[(3, 3)], [(3, 4)]], Cost.of(99), DistanceOrder.l1())
    res = select_fixed_centroid(singles, (3, 3))
    assert res.cost.exact == 1

    lp = fig_lp_instance()
    res = select_fixed_centroid(lp, (Fraction(2, 3), Fraction(2, 3), 0, Fraction(2, 3)))
    assert res.decision and res.cost.exact == 2


def test_fixed_centroid_dimension_check():
    with pytest.raises(ValueError):
        select_fixed_centroid(fig_l1_instance(), (1, 2))


def test_bruteforce_examples():
    lp = fig_lp_instance()
    res = select_bruteforce(lp)
    assert res.decision and res.cost.exact == 2

    single = SelectionInstance.of([[(5,)]], Cost.of(0), DistanceOrder.l2())
    res = select_bruteforce(single)
    assert res.decision and res.cost.exact == 0 and res.indices == (0,)

    inst14 = dataclasses.replace(fig_l1_instance(), budget=Cost.of(14))
    assert not select_bruteforce(inst14).decision


def test_bruteforce_cap():
    groups = [[(i, j) for j in range(6)] for i in range(5)]
    inst = SelectionInstance.of(groups, Cost.of(1), DistanceOrder.l1())
    with pytest.raises(EnumerationCapExceeded):
        select_bruteforce(inst, cap=100)


FIVE_ORDERS = [DistanceOrder.l0(), DistanceOrder.lp(Fraction(1, 2)), DistanceOrder.l1(),
               DistanceOrder.l2(), DistanceOrder.linf()]
# (orders, instance builder, its shapes taken in turn, the dimensions and
# group counts every order must meet, seed); the tagged groups draw their
# rows from one small grid, so prefixes share column states, and the tied
# groups make tuples of different term lists cost exactly the same
NAIVE_REFERENCE_SETS = {
    "spread": (FIVE_ORDERS, random_selection_instance,
               [dict(t_max=4, per_group=3, d_max=4, coord_lo=-1, coord_hi=1, weight_max=3)],
               {1, 2, 3, 4}, {1, 2, 3, 4}, 1501),
    "merging": (FIVE_ORDERS + [DistanceOrder.lp(Fraction(1, 3))], tagged_selection_instance,
                [dict(coord_hi=1), dict(coord_hi=2)], {5}, {5, 6}, 1701),
    "ties": ([DistanceOrder.lp(Fraction(1, 2)), DistanceOrder.lp(Fraction(1, 3))],
             tied_selection_instance, [{}], {3, 4}, {2, 3, 4}, 1901),
}


@pytest.mark.parametrize("name", list(NAIVE_REFERENCE_SETS), ids=str)
def test_bruteforce_matches_naive_reference(name):
    """The state-walking oracle returns what pricing every tuple whole
    returns: the same first minimal tuple, cost, centroid and decision."""
    orders, build, shapes, want_dims, want_counts, seed = NAIVE_REFERENCE_SETS[name]
    rnd = random.Random(seed)
    for order in orders:
        decisions, dims, counts, heavy, merged, tied = set(), set(), set(), False, 0, 0
        for n in range(50):
            inst = build(rnd, order, Cost.of(0), **shapes[n % len(shapes)])
            dims.add(inst.dimension)
            counts.add(inst.num_groups)
            heavy |= any(w > 1 for ws in inst.weights for w in ws)
            ref = bruteforce_reference(inst)
            for budget in (ref.cost, Cost.of(Fraction(rnd.randint(0, 12), 2))):
                case = dataclasses.replace(inst, budget=budget)
                res = select_bruteforce(case)
                assert res.indices == ref.indices, (order, case)
                assert cost_eq(res.cost, ref.cost)
                assert res.centroid == ref.centroid
                assert res.decision == cost_le(ref.cost, budget)
                decisions.add(res.decision)
            if order.kind != "linf":
                merged += res.stats["states"] < math.prod(map(len, inst.groups[:-1]))
            if name == "ties":
                costs = (optimal_cluster_cost(order, inst.chosen_cluster(combo))[1]
                         for combo in itertools.product(*map(range, map(len, inst.groups))))
                tied += len({c.terms for c in costs if cost_eq(c, ref.cost)}) > 1
        assert decisions == {True, False} and heavy, order
        assert dims == want_dims and counts == want_counts, order
        if name == "merging" and order.kind != "linf":
            assert merged >= 5, order
        if name == "ties":  # minima shared by tuples of different term lists
            assert tied >= 5, order


def test_bruteforce_counts_tuples_and_column_pricings():
    # 16 tuples of 3 columns, walked as 6 column states before the last
    # group; 9 distinct multisets priced
    res = select_bruteforce(gen_l1_selection_from_mcc(EX_LINF_COLORED, 3))
    assert res.stats == {"tuples": 16, "columns": 9, "states": 6}
    assert res.cost == Cost.of(18)
    # six groups whose mirrored halves share their cells: 2,304 tuples, but
    # only 68 states reach the last group
    k222 = Graph.of(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)
                        if (u + 1) // 2 != (v + 1) // 2 and (u, v) != (1, 3)],
                    colors=[1, 1, 2, 2, 3, 3])
    res = select_bruteforce(gen_l1_selection_from_mcc(k222, 3))
    assert res.stats == {"tuples": 2304, "columns": 15, "states": 68}
    assert res.indices == (0, 0, 2, 0, 0, 2) and res.cost == Cost.of(21)
    # the max distance is not separable: every tuple is priced whole
    res = select_bruteforce(gen_linf_selection_from_mcc(EX_LINF_COLORED, 3))
    assert res.stats == {"tuples": 4, "columns": 0}


def test_bruteforce_keeps_the_first_prefix_of_a_shared_state():
    # the first two groups hold 0 and 2 in opposite orders, so the prefixes
    # (0, 0) and (1, 1) share one state; around three 1s every tuple costs
    # the same under these orders, and the first in product order must win
    rows = [[(0,), (2,)], [(2,), (0,)], [(1,)], [(1,)], [(1,)]]
    groups = [[row + (g,) for row in grp] for g, grp in enumerate(rows)]
    for order in (DistanceOrder.l0(), DistanceOrder.lp(Fraction(1, 2)), DistanceOrder.l1()):
        res = select_bruteforce(SelectionInstance.of(groups, Cost.of(0), order))
        assert res.indices == (0,) * 5, order
        assert res.stats == {"tuples": 4, "columns": 4, "states": 3}


def test_bruteforce_builds_few_basis_costs(monkeypatch):
    """For p in (0, 1) the oracle orders its 256 tuples by float bounds and
    sums a tuple's terms into a ``Cost`` only where two bounds overlap, and
    once for the winner."""
    calls = []
    monkeypatch.setattr(selection, "summed_cost",
                        lambda *args: calls.append(args) or summed_cost(*args))
    groups = [[(g, (3 * g + i) % 5, (i * i + g) % 4, (2 * i + g) % 3) for i in range(4)]
              for g in range(4)]
    weights = [[1 + (g + i) % 3 for i in range(4)] for g in range(4)]
    inst = SelectionInstance.of(groups, Cost.of(0), DistanceOrder.lp(Fraction(1, 2)), weights)
    res = select_bruteforce(inst)
    assert len(calls) == 3
    assert res.stats == {"tuples": 256, "columns": 501, "states": 64}
    assert res.indices == bruteforce_reference(inst).indices == (3, 1, 2, 0)
    assert res.cost == Cost.basis({1: 8, 2: 1}, Fraction(1, 2))


def test_lp01_selection_prices_gaps_beyond_the_float_range():
    """The centroid search's float filter prices a gap too large for a float
    as exp(p * log(gap)), so both forms answer at the oracle's optimum
    instead of raising; the exact oracle and ``centroid_lp`` are unchanged."""
    big = 2**1100
    groups = [[(0, 0), (big, 0)], [(2 * big, 1), (4 * big, 0)], [(big, 1), (0, 1)]]
    half = Fraction(1, 2)
    inst = SelectionInstance.of(groups, Cost.of(0), DistanceOrder.lp(half))
    opt = Cost.basis({1: 1, big: 1}, half)
    ref = select_bruteforce(inst)
    assert (ref.indices, ref.centroid, ref.cost) == ((1, 0, 0), (big, 1), opt)
    assert centroid_lp(inst.chosen_cluster((1, 0, 0)), half) == ((big, 1), opt)
    at_opt = dataclasses.replace(inst, budget=opt)
    for minimize in (False, True):
        res = solve_selection(at_opt, minimize=minimize)
        assert res.decision and res.indices == (1, 0, 0) and cost_eq(res.cost, opt)
    # just below the optimum, by far less than the float filter's slack
    below = dataclasses.replace(inst, budget=Cost.basis({big: 1}, half))
    assert not solve_selection(below).decision


def test_select_lp01_figure():
    inst = fig_l1_instance()
    res = solve_selection(inst)
    assert res.decision and res.cost.exact == 15
    assert not solve_selection(dataclasses.replace(inst, budget=Cost.of(14))).decision


def test_select_lp01_phase1_shortcut():
    # identical singleton groups: the shared vector is an optimal centroid
    inst = SelectionInstance.of([[(2, 2)]], Cost.of(0), DistanceOrder.l1())
    res = solve_selection(inst)
    assert res.decision


def test_select_lp01_pattern_mode_matches():
    rnd = random.Random(31)
    for _ in range(60):
        budget = Cost.of(rnd.randint(1, 3))
        inst = random_selection_instance(rnd, DistanceOrder.l1(), budget)
        assert solve_selection(inst).decision == select_bruteforce(inst).decision


def test_select_l2_figure_and_tbound():
    inst = fig_lp_instance()
    res = solve_selection(inst)
    assert res.decision and res.cost.exact == 2
    # group-count rejection: 2 groups at budget 0; the first holds two vectors,
    # so the one-tuple shortcut does not answer first
    reject = SelectionInstance.of([[(0,), (2,)], [(1,)]], Cost.of(0), DistanceOrder.l2())
    res = solve_selection(reject)
    assert not res.decision and res.stats.get("rejected") == "group-count"


def test_select_linf_figure():
    inst = gen_linf_selection_from_mcc(EX_LINF_COLORED, 3)
    res = solve_selection(inst)
    assert res.decision and res.cost.exact == 3
    single = SelectionInstance.of([[(0, 0), (5, 5)]], Cost.of(0), DistanceOrder.linf())
    res = solve_selection(single)
    assert res.decision and res.cost.exact == 0


def test_select_l0_figure():
    inst = gen_l0_selection_from_mcc(EX_CLIQUE_COLORED, 3)
    res = solve_selection(inst)
    assert res.decision and res.centroid == (1, 2, 4)
    common = SelectionInstance.of(
        [[(1, 1), (0, 3)], [(1, 2), (3, 3)]], Cost.of(1), DistanceOrder.l0()
    )
    assert solve_selection(common).decision


ENVELOPES = {
    "lp-half": (DistanceOrder.lp(Fraction(1, 2)), dict(d_max=4, coord_hi=3), 4, 101),
    "lp-one": (DistanceOrder.l1(), dict(d_max=4, coord_hi=3), 4, 102),
    "l2": (DistanceOrder.l2(), dict(d_max=3, coord_hi=2), 3, 103),
    "linf": (DistanceOrder.linf(), dict(d_max=3, coord_lo=-2, coord_hi=2), 2, 104),
    "l0": (DistanceOrder.l0(), dict(d_max=3, coord_hi=4), 3, 105),
}


@pytest.mark.parametrize("name", list(ENVELOPES), ids=str)
def test_solver_oracle_equivalence_sample(name):
    """Quick per-solver slice of the full acceptance sweep."""
    order, kwargs, budget_hi, seed = ENVELOPES[name]
    rnd = random.Random(seed)
    for trial in range(120):
        budget = Cost.of(rnd.randint(0, budget_hi))
        inst = random_selection_instance(rnd, order, budget, **kwargs)
        fast = solve_selection(inst)
        slow = select_bruteforce(inst)
        assert fast.decision == slow.decision, (trial, inst)
        if fast.decision:
            check = select_fixed_centroid(inst, fast.centroid)
            assert cost_le(check.cost, inst.budget)


def test_monotone_in_budget():
    rnd = random.Random(33)
    for _ in range(20):
        inst0 = random_selection_instance(rnd, DistanceOrder.l1(), Cost.of(0))
        answers = []
        for budget in range(0, 5):
            inst = dataclasses.replace(inst0, budget=Cost.of(budget))
            answers.append(solve_selection(inst).decision)
        assert answers == sorted(answers)  # once yes, stays yes


def test_basis_budget_selection():
    # an irrational budget exercised end to end: sqrt(2) covers a unit gap
    order = DistanceOrder.lp(Fraction(1, 2))
    budget = Cost.basis({2: 1}, Fraction(1, 2))
    inst = SelectionInstance.of([[(0,)], [(1,)]], budget, order)
    res = solve_selection(inst)
    assert res.decision  # cost 1 <= sqrt(2)
    tight = SelectionInstance.of([[(0,)], [(2,)]], budget, order)
    res2 = solve_selection(tight)
    assert res2.decision  # gap 2 costs sqrt(2) exactly
    no = SelectionInstance.of([[(0,)], [(3,)]], budget, order)
    assert not solve_selection(no).decision  # sqrt(3) > sqrt(2)


def test_phase1_sufficiency_counter():
    """When an input vector is an optimal centroid, ``solve_selection`` finds a
    witness."""
    rnd = random.Random(41)
    seen = 0
    for _ in range(200):
        inst = random_selection_instance(
            rnd, DistanceOrder.l1(), Cost.of(rnd.randint(1, 4)), weight_max=2
        )
        slow = select_bruteforce(inst)
        all_vecs = {pt for g in inst.groups for pt in g}
        if not (slow.decision and tuple(slow.centroid) in all_vecs):
            continue
        seen += 1
        assert solve_selection(inst).decision
    assert seen > 10


def test_enumeration_caps_raise():
    groups = [
        [tuple((i + j) % 5 for j in range(6)) for i in range(3)],
        [tuple((i + j + 7) % 11 for j in range(6)) for i in range(3)],
    ]
    # a yes that the centroid search reaches in 7 nodes, so the cap of 3
    # stops it mid-search
    inst = SelectionInstance.of(groups, Cost.of(4), DistanceOrder.l0())
    with pytest.raises(EnumerationCapExceeded):
        solve_selection(inst, centroid_cap=3)
    inst_linf = SelectionInstance.of(groups, Cost.of(2), DistanceOrder.linf())
    with pytest.raises(EnumerationCapExceeded):
        solve_selection(inst_linf, centroid_cap=0)
    inst_l1 = SelectionInstance.of(groups, Cost.of(4), DistanceOrder.l1())
    with pytest.raises(EnumerationCapExceeded):
        solve_selection(inst_l1, centroid_cap=0)
    inst_lp = SelectionInstance.of(groups, Cost.of(4), DistanceOrder.lp(Fraction(1, 2)))
    with pytest.raises(EnumerationCapExceeded):
        solve_selection(inst_lp, centroid_cap=0)
    inst_l2 = SelectionInstance.of(groups, Cost.of(4), DistanceOrder.l2())
    with pytest.raises(EnumerationCapExceeded):
        solve_selection(inst_l2, centroid_cap=0)


def test_l0_search_cuts_the_present_value_grid():
    """On a "no" instance the coordinate search prunes every branch long
    before it reaches the leaves of the present-value grid."""
    groups = [
        [tuple((i + j) % 5 for j in range(6)) for i in range(3)],
        [tuple((i + j + 7) % 11 for j in range(6)) for i in range(3)],
    ]
    inst = SelectionInstance.of(groups, Cost.of(2), DistanceOrder.l0())  # optimum 3
    res = solve_selection(inst)
    assert not res.decision
    grid = math.prod(len({pt[j] for grp in groups for pt in grp}) for j in range(6))
    assert res.stats["nodes"] < grid
    assert res.stats["centroids_tried"] == 0


def test_lp01_search_cuts_unit_vector_no_instance():
    """3 groups of 6 unit vectors, d = 18, under p = 1/2: every tuple costs at
    least 3 (the zero centroid), and at the budget 2 * 2**(1/2) below it the
    present-value search cuts every branch within 100 nodes and re-costs no
    centroid."""
    half = Fraction(1, 2)
    unit = lambda k: tuple(int(j == k) for j in range(18))
    groups = [[unit(6 * g + j) for j in range(6)] for g in range(3)]
    inst = SelectionInstance.of(groups, Cost.basis({2: 2}, half), DistanceOrder.lp(half))
    assert select_bruteforce(inst).cost == Cost.basis({1: 3}, half)
    for minimize in (False, True):
        res = solve_selection(inst, minimize=minimize)
        assert not res.decision
        assert res.stats["nodes"] <= 100
        assert res.stats["centroids_tried"] == 0


# name: (order, instance shape, budgets); Hamming, p = 1/2 and p = 1 on their
# criterion-2 envelopes, p = 1/3 on the p = 1/2 shape
REFERENCE_ORDERS = {
    "p=0": (DistanceOrder.l0(), SELECTION_ENVELOPES["p=0"][1], range(0, 4)),
    "p=1/2": (DistanceOrder.lp(Fraction(1, 2)), SELECTION_ENVELOPES["p=1/2"][1], range(0, 5)),
    "p=1/3": (DistanceOrder.lp(Fraction(1, 3)), SELECTION_ENVELOPES["p=1/2"][1], range(0, 5)),
    "p=1": (DistanceOrder.l1(), SELECTION_ENVELOPES["p=1"][1], range(0, 5)),
}


@pytest.mark.parametrize("name", list(REFERENCE_ORDERS), ids=str)
def test_coordinate_search_equals_the_uncut_walk(name):
    """On 300 seeded instances per order, at the drawn budget and at the
    optimum, in both forms, the centroid search returns the witness and
    ``centroids_tried`` of the lexicographic walk over its whole grid
    (``coordinate_search_reference``), and expands no more nodes than the
    search cut by the greedy total alone."""
    order, kwargs, budgets = REFERENCE_ORDERS[name]
    rnd = random.Random(841)
    drawn = 0
    while drawn < 300:
        inst = random_selection_instance(rnd, order, Cost.of(rnd.choice(budgets)), **kwargs)
        if all(len(pts) == 1 for pts in inst.groups):
            continue
        drawn += 1
        for budget in (inst.budget, select_bruteforce(inst).cost):
            at = dataclasses.replace(inst, budget=budget)
            for minimize in (False, True):
                ref = coordinate_search_reference(at, minimize)
                res = solve_selection(at, minimize=minimize)
                assert ((res.decision, res.indices, res.centroid, res.cost)
                        == (ref.decision, ref.indices, ref.centroid, ref.cost)), (at, minimize)
                assert res.stats["centroids_tried"] == ref.stats["centroids_tried"], (at, minimize)
                assert res.stats["nodes"] <= ref.stats["nodes"], (at, minimize)


def unit_family(d: int, budget: Fraction, order: DistanceOrder, planted: list) -> SelectionInstance:
    """G1 = {0^d, 1^d} and, for each (k, ones) in ``planted``, a group
    {u, u + e_k} where u has ones on the coordinates ``ones``."""
    def row(ones):
        return tuple(int(i in ones) for i in range(d))

    groups = [[row(()), row(range(d))]]
    groups += [[row(ones), row({k, *ones})] for k, ones in planted]
    return SelectionInstance.of(groups, Cost.of(budget), order)


# families A and B of ROADMAP item 1 -- name: (planted groups at dimension d,
# the "no" budget, the optimum); every row is 0/1, so p = 1/2 prices a
# coordinate as the Hamming distance does
UNIT_FAMILIES = {
    "A": (lambda d: [(0, range(d - 7, d))], Fraction(13, 2), 7),
    "B": (lambda d: [(0, range(d - 12, d - 4)), (1, range(d - 8, d))], Fraction(23, 2), 12),
}


@pytest.mark.parametrize("family", list(UNIT_FAMILIES))
@pytest.mark.parametrize("name", ["p=0", "p=1/2"])
def test_lookahead_decides_unit_families_at_the_root(family, name):
    """On families where the greedy total alone cuts late (471,880 nodes for
    the "no" of A at d = 64), the look-ahead over the unset coordinates cuts
    every child of the root at a budget below the optimum, and minimising at
    the optimum walks one path under Hamming (d + 1 nodes) and at most
    d + 300 nodes under p = 1/2 (d + 248 on A).  Node counts, not time, are
    the gate."""
    planted, no, opt = UNIT_FAMILIES[family]
    order = REFERENCE_ORDERS[name][0]
    for d in (16, 32, 64, 128):
        res = solve_selection(unit_family(d, no, order, planted(d)))
        assert not res.decision and res.stats["nodes"] == 1, d
        res = solve_selection(unit_family(d, opt, order, planted(d)), minimize=True)
        assert res.decision and cost_eq(res.cost, Cost.of(opt)), d
        if order.kind == "l0":
            assert res.stats["nodes"] == d + 1, d
        else:
            assert res.stats["nodes"] <= d + 300, d


def test_lp01_lookahead_with_infinite_float_costs():
    """A gap of 10**700 under p = 1/2: its float cost is inf, and so is the
    float limit of a budget near the optimum, where the look-ahead meets
    inf - inf.  Both forms still agree with the oracle, at budgets above,
    at and below the optimum and at a finite budget far below it."""
    big = 10**700
    half = Fraction(1, 2)
    groups = [[(0, 0), (big, 0)], [(2 * big, 1), (4 * big, 0)], [(big, 1), (0, 1)]]
    inst = SelectionInstance.of(groups, Cost.of(0), DistanceOrder.lp(half))
    ref = select_bruteforce(inst)
    assert ref.cost == Cost.basis({1: 1, big: 1}, half)
    for budget in (Cost.basis({big: 3}, half), ref.cost, Cost.basis({big: 1}, half),
                   Cost.of(5)):
        at = dataclasses.replace(inst, budget=budget)
        feasible = select_bruteforce(at).decision
        for minimize in (False, True):
            res = solve_selection(at, minimize=minimize)
            assert res.decision == feasible, (budget, minimize)
            if not feasible:
                continue
            assert cost_le(res.cost, budget)
            assert optimal_cluster_cost(at.order, at.chosen_cluster(res.indices))[1] == res.cost
            if minimize:
                assert res.indices == ref.indices and cost_eq(res.cost, ref.cost)


def test_linf_search_expands_only_partial_tuples():
    """On a "no" instance of 3 groups of 4 vectors the tuple search expands
    at most the internal nodes of its tuple tree, 1 + 4 + 16, and prices at
    most its 64 leaves."""
    groups = [
        [(-2, -1, -3, 2, 0), (0, -2, -3, -3, -3), (0, 1, -1, 3, 3), (-3, -2, 1, 1, -1)],
        [(-1, 3, -2, 3, -3), (-1, -2, -3, 3, 2), (3, -1, 3, -1, -2), (-2, -1, -1, 2, 3)],
        [(2, 3, 3, -1, -3), (3, 1, -1, 2, 0), (1, -2, -2, -2, 0), (-1, -3, 3, 3, 1)],
    ]
    inst = SelectionInstance.of(groups, Cost.of(Fraction(9, 2)), DistanceOrder.linf())
    assert select_bruteforce(inst).cost == Cost.of(5)
    res = solve_selection(inst)
    assert not res.decision
    assert res.stats["nodes"] <= 1 + 4 + 16
    assert res.stats["centroids_tried"] <= 4 * 4 * 4


def test_l2_search_expands_only_partial_tuples():
    """On a "no" instance of 3 groups of 4 unit vectors (optimum 2, budget
    just below it) the squared Euclidean search expands at most the internal
    nodes of its tuple tree, 1 + 4 + 16, and admits no complete tuple."""
    unit = lambda k: tuple(int(j == k) for j in range(12))
    groups = [[unit(4 * g + j) for j in range(4)] for g in range(3)]
    inst = SelectionInstance.of(groups, Cost.of(2 - Fraction(1, 9)), DistanceOrder.l2())
    assert select_bruteforce(inst).cost == Cost.of(2)
    res = solve_selection(inst)
    assert not res.decision
    assert res.stats["nodes"] <= 1 + 4 + 16
    assert res.stats["centroids_tried"] == 0


# three groups on a line: only the pairs (0, 1) and (10, 11) of the first two
# groups stay within the budgets below, and every tuple costs at least 2
LINE_GROUPS = [[(0,), (10,)], [(1,), (11,), (20,)], [(2,), (12,)]]
LINE_BUDGETS = {
    "p=2": (DistanceOrder.l2(), Cost.of(Fraction(1, 2))),
    "p=inf": (DistanceOrder.linf(), Cost.of(1)),
}


@pytest.mark.parametrize("name", list(LINE_BUDGETS), ids=str)
def test_tuple_search_cuts_partial_tuples_above_the_bound(name):
    """The tuple search expands the root, both vectors of the first group and
    only the two partial pairs within the budget: 5 nodes, where its tuple
    tree has 1 + 2 + 6 internal nodes."""
    order, budget = LINE_BUDGETS[name]
    inst = SelectionInstance.of(LINE_GROUPS, budget, order)
    assert select_bruteforce(inst).cost == Cost.of(2)
    for minimize in (False, True):
        res = solve_selection(inst, minimize=minimize)
        assert not res.decision
        assert res.stats == {"centroids_tried": 0, "nodes": 5}


def test_l1_centroid_search_cuts_line_groups_at_the_root():
    """Under p = 1 the centroid search prices each value of the one coordinate
    of ``LINE_GROUPS`` at the root, and at budget 1 cuts every one by its
    greedy total, the cost of the cheapest tuple about that value (at least
    the optimum 2): 1 node in both forms, where the tuple search took 5."""
    inst = SelectionInstance.of(LINE_GROUPS, Cost.of(1), DistanceOrder.l1())
    assert select_bruteforce(inst).cost == Cost.of(2)
    for minimize in (False, True):
        res = solve_selection(inst, minimize=minimize)
        assert not res.decision
        assert res.stats == {"centroids_tried": 0, "nodes": 1}


def test_linf_price_from_carried_gap_rows_is_the_doubled_optimum(monkeypatch):
    """The tuple search's max-distance price, grown one vector at a time from
    its carried gap rows, is exactly twice ``cluster_cost`` at every size, on
    seeded weighted clusters of up to 6 points: the LP's vertex (up to 3
    points) and its flow (beyond) are both reached."""
    solved = {"_linf_vertex": 0, "_linf_flow": 0}
    for name in solved:
        def counted(*args, _name=name, _fn=getattr(centroids, name)):
            solved[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(centroids, name, counted)
    linf = DistanceOrder.linf()
    rnd = random.Random(31)
    for _ in range(60):
        n, d = rnd.randint(2, 6), rnd.randint(1, 4)
        pts = list({tuple(rnd.randint(-5, 5) for _ in range(d)) for _ in range(n)})
        ws = [rnd.randint(1, 3) for _ in pts]
        state = ((), (), [])
        for k, (pt, w) in enumerate(zip(pts, ws), 1):
            state, doubled = selection._linf_price(state, pt, w)
            assert isinstance(doubled, int)
            assert doubled == 2 * cluster_cost(linf, pts[:k], ws[:k]), (pts[:k], ws[:k])
    assert solved["_linf_vertex"] > 0 and solved["_linf_flow"] > 0


# the groups of test_linf_search_expands_only_partial_tuples
SPREAD_GROUPS = [
    [(-2, -1, -3, 2, 0), (0, -2, -3, -3, -3), (0, 1, -1, 3, 3), (-3, -2, 1, 1, -1)],
    [(-1, 3, -2, 3, -3), (-1, -2, -3, 3, 2), (3, -1, 3, -1, -2), (-2, -1, -1, 2, 3)],
    [(2, 3, 3, -1, -3), (3, 1, -1, 2, 0), (1, -2, -2, -2, 0), (-1, -3, 3, 3, 1)],
]


@pytest.mark.parametrize("order", [DistanceOrder.linf(), DistanceOrder.l2()], ids=str)
def test_tuple_search_builds_a_cluster_only_for_admitted_tuples(monkeypatch, order):
    """Under the max distance and the squared Euclidean cost the tuple search
    prices partial tuples without ``optimal_cluster_cost``: it is called once
    per admitted complete tuple, ``centroids_tried`` times, in both forms,
    below, at and above the optimum."""
    calls = []

    def counted(*args):
        calls.append(args)
        return optimal_cluster_cost(*args)

    monkeypatch.setattr(selection, "optimal_cluster_cost", counted)
    tried = 0
    for groups in (LINE_GROUPS, SPREAD_GROUPS):
        optimum = select_bruteforce(SelectionInstance.of(groups, Cost.of(0), order)).cost.exact
        for budget in (optimum - Fraction(1, 2), optimum, optimum + 3):
            inst = SelectionInstance.of(groups, Cost.of(budget), order)
            for minimize in (False, True):
                calls.clear()
                res = solve_selection(inst, minimize=minimize)
                assert res.decision == (budget >= optimum)
                assert len(calls) == res.stats["centroids_tried"], (groups, budget, minimize)
                tried += res.stats["centroids_tried"]
    assert tried > 8  # minimising above the optimum admits several leaves


def test_p1_selection_runs_the_centroid_search(monkeypatch):
    """``solve_selection`` sends p = 1 to the centroid search, never to the
    tuple search (``_tuple_search``), which raises here."""
    def tuple_search(*args, **kwargs):
        raise AssertionError("p = 1 reached the tuple search")

    monkeypatch.setattr(selection, "_tuple_search", tuple_search)
    rnd = random.Random(57)
    for _ in range(30):
        inst = random_selection_instance(rnd, DistanceOrder.l1(), Cost.of(rnd.randint(0, 4)))
        if all(len(pts) == 1 for pts in inst.groups):
            continue
        for minimize in (False, True):
            res = solve_selection(inst, minimize=minimize)
            assert res.decision == select_bruteforce(inst).decision
            assert set(res.stats) == {"centroids_tried", "nodes"}


@pytest.mark.parametrize("name", ["p=0", "p=1"])
def test_integer_centroid_search_prices_only_admitted_leaves(monkeypatch, name):
    """Under the Hamming distance and p = 1 a leaf's greedy total is its exact
    cost, so the centroid search never completes a centroid greedily through
    ``select_fixed_centroid`` (which raises here) and calls
    ``optimal_cluster_cost`` once per leaf, ``centroids_tried`` times, in
    both forms, below, at and above the optimum; the answers are the
    oracle's."""
    def fixed_centroid(*args):
        raise AssertionError("an integer leaf was completed greedily")

    calls = []

    def counted(*args):
        calls.append(args)
        return optimal_cluster_cost(*args)

    monkeypatch.setattr(selection, "select_fixed_centroid", fixed_centroid)
    monkeypatch.setattr(selection, "optimal_cluster_cost", counted)
    order, kwargs, _ = REFERENCE_ORDERS[name]
    rnd = random.Random(853)
    tried = 0
    for _ in range(60):
        inst = random_selection_instance(rnd, order, Cost.of(0), **kwargs)
        if all(len(pts) == 1 for pts in inst.groups):
            continue
        optimum = select_bruteforce(inst).cost.exact
        for budget in {max(optimum - 1, 0), optimum, optimum + 2}:
            for minimize in (False, True):
                calls.clear()
                res = solve_selection(dataclasses.replace(inst, budget=Cost.of(budget)),
                                      minimize=minimize)
                assert res.decision == (budget >= optimum)
                if res.decision and minimize:
                    assert res.cost == Cost.of(optimum)
                assert len(calls) == res.stats["centroids_tried"], (inst, budget, minimize)
                tried += res.stats["centroids_tried"]
    assert tried > 100


def test_pell_near_tie_budget_is_exact():
    """x = 886731088897 and y = 627013566048 solve x**2 - 2 y**2 = 1, so
    y * 2**(1/2) lies 5.6e-13 below x.  Two vectors at gap 1, each of weight
    x, cost x under p = 1/2, which exceeds the budget y * 2**(1/2)."""
    x, y = 886731088897, 627013566048
    half = Fraction(1, 2)
    inst = SelectionInstance.of([[(0,)], [(1,)]], Cost.basis({2: y}, half),
                                DistanceOrder.lp(half), weights=[[x], [x]])
    assert not solve_selection(inst).decision
    assert not select_bruteforce(inst).decision
    # a far second vector in the first group makes the centroid search run
    searched = SelectionInstance.of([[(0,), (9,)], [(1,)]], inst.budget, inst.order,
                                    weights=[[x, x], [x]])
    res = solve_selection(searched)
    assert not res.decision and res.stats["nodes"] > 0
    at_cost = dataclasses.replace(inst, budget=Cost.basis({1: x}, half))
    assert solve_selection(at_cost).decision


def test_float_filter_keeps_optima_of_heavy_instances():
    """With weights near 10**12 the float totals of the p < 1 centroid search
    round by about 1e-4, so its filter must not drop a centroid whose exact
    cost equals the bound."""
    half = Fraction(1, 2)
    rnd = random.Random(61)
    for _ in range(40):
        pts = rnd.sample(range(12), 4)
        groups = [[(pts[0],), (pts[1],)], [(pts[2],), (pts[3],)]]
        weights = [[10**12 + rnd.randint(0, 10**6) for _ in range(2)] for _ in range(2)]
        inst = SelectionInstance.of(groups, Cost.of(0), DistanceOrder.lp(half), weights=weights)
        opt = select_bruteforce(inst).cost
        at_opt = dataclasses.replace(inst, budget=opt)
        assert solve_selection(at_opt).decision, (groups, weights)
        assert cost_eq(solve_selection(at_opt, minimize=True).cost, opt)


def just_below(inst: SelectionInstance, cost: Cost) -> Cost:
    """A budget strictly below a positive optimal cost: the next value down in
    the order's cost regime, or for irrational basis costs the nearest
    multiple of 1e-6 below."""
    kind = inst.order.kind
    if kind == "l0" or (kind == "lp" and inst.order.p == 1):
        return Cost.of(cost.exact - 1)
    if kind == "linf":
        return Cost.of(cost.exact - Fraction(1, 2))
    if kind == "l2":
        # costs are z / W**2, W at most the heaviest possible tuple weight
        w_max = sum(max(ws) for ws in inst.weights)
        return Cost.of(max(Fraction(math.ceil(cost.exact * s * s) - 1, s * s)
                           for s in range(1, w_max + 1)))
    scaled = math.ceil(float(cost_eval(cost)) * 10**6) - 1
    return Cost.of(Fraction(scaled, 10**6))


# beyond the criterion-2 envelope: up to 4 groups of 3-4 vectors, d of 5-6
LARGE = dict(t_max=4, per_group_min=3, per_group=4, d_min=5, d_max=6, weight_max=2)
# name: (order, instance shape, budgets, seed, trials)
MINIMIZE_SAMPLES = {name: (*env, 500) for name, env in SELECTION_ENVELOPES.items()}
MINIMIZE_SAMPLES.update({
    "large-p=1/2": (DistanceOrder.lp(Fraction(1, 2)), dict(LARGE, coord_hi=3),
                    [Cost.of(v) for v in range(0, 9)], 821, 60),
    "large-p=1": (DistanceOrder.l1(), dict(LARGE, coord_hi=3),
                  [Cost.of(v) for v in range(0, 9)], 822, 60),
    "large-p=2": (DistanceOrder.l2(), dict(LARGE, coord_hi=1),
                  [Cost.of(Fraction(z, 4)) for z in range(0, 13)], 823, 12),
    "large-p=2-wide": (DistanceOrder.l2(), dict(LARGE, coord_hi=2),
                       [Cost.of(Fraction(z, 4)) for z in range(0, 49)], 826, 60),
    "large-p=0": (DistanceOrder.l0(), dict(LARGE, coord_hi=3),
                  [Cost.of(v) for v in range(0, 9)], 825, 60),
    "large-p=inf": (DistanceOrder.linf(), dict(LARGE, coord_lo=-4, coord_hi=4),
                    [Cost.of(Fraction(h, 2)) for h in range(0, 17)], 824, 60),
})


@pytest.mark.parametrize("name", list(MINIMIZE_SAMPLES), ids=str)
def test_minimize_equals_oracle_optimum(name):
    """On the criterion-2 sample and on larger shapes, the minimising form
    returns the oracle's optimum whenever it is within the bound (the drawn
    budget, or the optimum itself) and says no when the bound is just below
    it."""
    order, kwargs, budgets, seed, trials = MINIMIZE_SAMPLES[name]
    rnd = random.Random(seed)
    for trial in range(trials):
        budget = budgets[rnd.randrange(len(budgets))]
        inst = random_selection_instance(rnd, order, budget, **kwargs)
        opt = select_bruteforce(inst).cost
        bounds = [(budget, cost_le(opt, budget)), (opt, True)]
        if opt != Cost.of(0):
            bounds.append((just_below(inst, opt), False))
        for bound, feasible in bounds:
            res = solve_selection(dataclasses.replace(inst, budget=bound), minimize=True)
            assert res.decision == feasible, (trial, bound, inst)
            if not res.decision:
                continue
            if opt.exact is not None:
                assert res.cost == opt, (trial, bound, inst)
            else:
                assert cost_eq(res.cost, opt), (trial, bound, inst)
            _, again = optimal_cluster_cost(order, inst.chosen_cluster(res.indices))
            assert again == res.cost


ONE_TUPLE_ORDERS = {
    "p=0": DistanceOrder.l0(),
    "p=1/2": DistanceOrder.lp(Fraction(1, 2)),
    "p=1": DistanceOrder.l1(),
    "p=2": DistanceOrder.l2(),
    "p=inf": DistanceOrder.linf(),
}


@pytest.mark.parametrize("name", list(ONE_TUPLE_ORDERS), ids=str)
def test_one_tuple_instance_priced_directly(name):
    """An instance with one vector per group is answered at its own optimal
    cost in both forms, without running a kernel: yes at that cost, no just
    below it."""
    order = ONE_TUPLE_ORDERS[name]
    rnd = random.Random(831)
    for trial in range(40):
        inst = random_selection_instance(rnd, order, Cost.of(0), t_max=4, per_group=1,
                                         d_max=5, coord_lo=-2, coord_hi=3, weight_max=3)
        centroid, cost = optimal_cluster_cost(order, inst.chosen_cluster((0,) * inst.num_groups))
        bounds = [(cost, True)]
        if cost != Cost.of(0):
            bounds.append((just_below(inst, cost), False))
        for minimize in (False, True):
            for bound, feasible in bounds:
                res = solve_selection(dataclasses.replace(inst, budget=bound), minimize=minimize)
                assert res.decision == feasible, (trial, bound, inst)
                assert res.stats["nodes"] == 0
                if feasible:
                    assert res.indices == (0,) * inst.num_groups
                    assert (res.centroid, res.cost) == (centroid, cost)
