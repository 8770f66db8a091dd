import dataclasses
import math
import random
from fractions import Fraction

import pytest

from minkclust import (
    Cost,
    DistanceOrder,
    EnumerationCapExceeded,
    SelectionInstance,
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
)
from minkclust import selection
from tests.helpers import (
    EX_CLIQUE_COLORED,
    EX_LINF_COLORED,
    SELECTION_ENVELOPES,
    random_selection_instance,
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
    inst = SelectionInstance.of(groups, Cost.of(4), DistanceOrder.l0())
    with pytest.raises(EnumerationCapExceeded):
        solve_selection(inst, centroid_cap=10)
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
    "p=1": (DistanceOrder.l1(), Cost.of(1)),
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


def test_p1_selection_runs_the_tuple_search(monkeypatch):
    """``solve_selection`` sends p = 1 to the tuple search, never to the
    centroid search (``_coordinate_search``), which raises here."""
    def centroid_search(*args, **kwargs):
        raise AssertionError("p = 1 reached the centroid search")

    monkeypatch.setattr(selection, "_coordinate_search", centroid_search)
    rnd = random.Random(57)
    for _ in range(30):
        inst = random_selection_instance(rnd, DistanceOrder.l1(), Cost.of(rnd.randint(0, 4)))
        if all(len(pts) == 1 for pts in inst.groups):
            continue
        for minimize in (False, True):
            res = solve_selection(inst, minimize=minimize)
            assert res.decision == select_bruteforce(inst).decision
            assert set(res.stats) == {"centroids_tried", "nodes"}


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
