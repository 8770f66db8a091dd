import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from minkclust import cost_model, selection, simplex, solver
from minkclust.cost_model import cost_floor
from minkclust import (
    ClusteringInstance,
    Cost,
    Dataset,
    DistanceOrder,
    Graph,
    SolveConfig,
    WeightedCluster,
    cluster_cost,
    coloring_success_estimate,
    cost_eq,
    cost_le,
    gen_l0_clustering_from_clique,
    gen_linf2_from_hioct,
    gen_linf_clustering_from_clique,
    graph_has_clique,
    HioctInstance,
    merge_cost_bound,
    optimal_cluster_cost,
    regularize,
    select_bruteforce,
    SelectionInstance,
    solve_bruteforce,
    solve_color_coding,
    solve_selection,
)
from tests.helpers import (
    EX_CLIQUE_GRAPH,
    EX_LINF_GRAPH,
    EX_OCT_GRAPH,
    assert_valid_witness,
    atlas_graphs,
    dense_family,
    random_clustering_instance,
    solve_bruteforce_reference,
    spread_family,
)


def test_solve_bruteforce_figures():
    inst = gen_l0_clustering_from_clique(EX_CLIQUE_GRAPH, 3)
    res = solve_bruteforce(inst)
    assert res.decision and res.min_cost.exact == 3

    tiny = ClusteringInstance(Dataset(1, ((5,),), (1,)), 1, Cost.of(0), DistanceOrder.l2())
    res = solve_bruteforce(tiny)
    assert res.decision and res.min_cost.exact == 0


def test_solve_bruteforce_linfoct_suppressed():
    """The bare four-vector instance: the displayed partition costs exactly 6,
    but {x1,x3,x4} + {x2} is cheaper at 5, so the minimum is 5 and the
    decision at budget 6 is yes.  (The documented claim of an optimum of 6
    holds only for the partition shown, not over all partitions.)"""
    inst = gen_linf2_from_hioct(HioctInstance(EX_OCT_GRAPH, 2),
                                include_isolated_edges=False)
    assert inst.dataset.total_count == 4
    assert inst.dataset.dimension == 5
    assert inst.budget.exact == 6
    res = solve_bruteforce(inst)
    assert res.decision
    assert res.min_cost.exact == 5
    pts = inst.dataset.points
    pair_a = WeightedCluster.of([pts[0], pts[1]])
    pair_b = WeightedCluster.of([pts[2], pts[3]])
    shown = (optimal_cluster_cost(inst.order, pair_a)[1].exact
             + optimal_cluster_cost(inst.order, pair_b)[1].exact)
    assert shown == 6


def test_linf_costs_never_call_the_simplex(monkeypatch):
    """Every max-distance cost comes from the flow-based centroid: with the
    rational simplex disabled, the oracles still give the figure's optimum 5
    and the half-integral optima of two small instances, and both policies
    answer yes with a witness within the budget (the figure's is 6)."""
    def disabled(*args, **kwargs):
        raise AssertionError("simplex.minimize called on a solve path")

    monkeypatch.setattr(simplex, "minimize", disabled)
    figure = gen_linf2_from_hioct(HioctInstance(EX_OCT_GRAPH, 2),
                                  include_isolated_edges=False)
    ds = Dataset(2, ((0, 0), (3, 0), (0, 3), (7, 7), (9, 8)), (1, 1, 1, 2, 1))
    small = ClusteringInstance(ds, 2, Cost.of(Fraction(13, 2)), DistanceOrder.linf())
    for inst, optimum in ((figure, 5), (small, Fraction(13, 2))):
        assert solve_bruteforce(inst).min_cost.exact == optimum
        for cfg in (SolveConfig(policy="exhaustive"), SolveConfig(seed=1)):
            res = solve_color_coding(inst, cfg)
            assert res.decision
            assert_valid_witness(inst, res.clustering)

    sel = SelectionInstance.of([[(0, 0), (6, 6)], [(3, 0), (9, 9)], [(0, 3), (1, 8)]],
                               Cost.of(10), DistanceOrder.linf(),
                               [[1, 2], [1, 1], [1, 2]])
    fast = solve_selection(sel, minimize=True)
    brute = select_bruteforce(sel)
    assert fast.decision and fast.cost.exact == brute.cost.exact == Fraction(9, 2)
    assert fast.indices == brute.indices == (0, 0, 0)


def test_solve_bruteforce_respects_k():
    # two far-apart points forced into one cluster
    ds = Dataset(1, ((0,), (10,)), (1, 1))
    inst = ClusteringInstance(ds, 1, Cost.of(1), DistanceOrder.l1())
    res = solve_bruteforce(inst)
    assert not res.decision and res.min_cost.exact == 10
    # k beyond the initial cluster count pads with empties at cost zero
    inst2 = ClusteringInstance(ds, 5, Cost.of(0), DistanceOrder.l1())
    res2 = solve_bruteforce(inst2)
    assert res2.decision and res2.min_cost.exact == 0


def test_solve_bruteforce_rejects_fractional_points():
    """The search compares integer keys under every order but p in (0, 1):
    a point with a 1/3 coordinate would price its pair at 1/3 under L1 and
    at 1/18 under squared L2, neither an integer once scaled, so the dataset
    rejects it before any search."""
    for order in (DistanceOrder.l1(), DistanceOrder.l2()):
        with pytest.raises(ValueError, match="integer vectors"):
            ds = Dataset(1, ((0,), (Fraction(1, 3),)), (1, 1))
            solve_bruteforce(ClusteringInstance(ds, 1, Cost.of(1), order))


def test_color_coding_rejects_fractional_points():
    """The colour-coding search shares the oracle's integer keys, so a 1/3
    coordinate is rejected rather than answered: T = ceil(2 * 1/3) = 1
    color, from a per-merge floor that holds only for integer points, would
    leave the merge of the pair, which costs 1/3, unsearched and answer no."""
    with pytest.raises(ValueError, match="integer vectors"):
        ds = Dataset(1, ((0,), (Fraction(1, 3),)), (1, 1))
        inst = ClusteringInstance(ds, 1, Cost.of(Fraction(1, 3)), DistanceOrder.l1())
        solve_color_coding(inst, SolveConfig(policy="exhaustive"))


def test_solve_bruteforce_l2_keys_beyond_the_float_range():
    """Squared L2 keys are costs scaled by lcm(1, ..., W) for the total
    weight W; at W = 900 that is above 10**308, so a key cannot meet the
    search's initial float incumbent in arithmetic, only in comparisons."""
    ds = Dataset(1, ((0,), (1,), (3,)), (300, 300, 300))
    assert math.lcm(*range(1, 901)) > 10**308
    res = solve_bruteforce(ClusteringInstance(ds, 2, Cost.of(150), DistanceOrder.l2()))
    assert res.decision and res.min_cost.exact == 150
    assert res.clustering.clusters[0] == (((0,), 300), ((1,), 300))


def test_solve_bruteforce_cap_counts_every_part_tried():
    """The cap bounds the parts the search tries, cut or not.  This Hamming
    clique instance (24 initial clusters into 19, five merges) improves its
    incumbent rarely, so a cap on improving families alone let it run for
    minutes."""
    inst = gen_l0_clustering_from_clique(Graph.of(4, [(1, 4), (2, 3), (2, 4), (3, 4)]), 4)
    assert len(regularize(inst.dataset)) == 24 and inst.k == 19
    with pytest.raises(RuntimeError, match="family cap exceeded"):
        solve_bruteforce(inst, family_cap=2_000)
    # one merge of two clusters tries exactly one part
    ds = Dataset(1, ((0,), (10,)), (1, 1))
    inst = ClusteringInstance(ds, 1, Cost.of(10), DistanceOrder.l1())
    res = solve_bruteforce(inst, family_cap=1)
    assert res.decision and res.stats["families"] == 1
    with pytest.raises(RuntimeError, match="family cap exceeded"):
        solve_bruteforce(inst, family_cap=0)


def test_solve_bruteforce_counts_parts_and_pricings():
    """The example Hamming clique instance merges 12 initial clusters into 10.
    Without the pair table every pair and triple was priced (66 + 220
    pricings, 556 parts tried).  Now all 66 pairs are priced first and only
    11 triples pass the pair bounds, and a part tried is a step of the member
    walk, so ``family_cap`` still bounds the work.  Hamming costs are keyed
    at scale 1, as the integers they are: keyed at scale 2, the pair-sum cut
    admitted a part up to half a unit above the largest key admitted, and
    20 triples were priced.  An anchor with too few clusters after it for
    the merges owed tries no part (300 parts before that rule, 297 with it).
    The early return of a k at or above the initial cluster count reports
    both counters at zero."""
    inst = gen_l0_clustering_from_clique(EX_CLIQUE_GRAPH, 3)
    assert len(regularize(inst.dataset)) == 12 and inst.k == 10
    res = solve_bruteforce(inst)
    assert res.min_cost.exact == 3
    assert res.stats == {"families": 2, "parts": 297, "pricings": 77}
    ds = Dataset(1, ((0,), (10,)), (1, 1))
    res = solve_bruteforce(ClusteringInstance(ds, 2, Cost.of(0), DistanceOrder.l1()))
    assert res.stats == {"families": 1, "parts": 0, "pricings": 0}


def test_solve_bruteforce_keeps_the_first_minimum_on_exact_ties():
    """For p in (0, 1) a family whose float total lands inside the
    incumbent's rounding band is compared exactly, so an exact tie keeps the
    first minimum found.  The second instance ties between different term
    lists: gaps 8 and 2 at weight 1 cost 8**(1/2) + 2**(1/2), and gaps 2 at
    weight 1 and at weights 2, 2 cost 3 * 2**(1/2)."""
    half = DistanceOrder.lp(Fraction(1, 2))
    line = Dataset(1, ((0,), (1,), (2,)), (1, 1, 1))
    spread = Dataset(1, ((0,), (8,), (20,), (22,), (40,), (42,)), (1, 1, 1, 1, 2, 2))
    for ds, k, first in ((line, 2, [[(0,), (1,)]]),
                         (spread, 4, [[(0,), (8,)], [(20,), (22,)]])):
        res = solve_bruteforce(ClusteringInstance(ds, k, Cost.of(5), half))
        merged = [[pt for pt, _ in c] for c in res.clustering.clusters if len(c) > 1]
        assert merged == first and res.stats["families"] == 1


def test_bruteforce_oracles_reprice_their_winner(monkeypatch):
    """Both brute-force oracles, the exhaustive policy that shares the
    clustering oracle's walk and the colour-coding search's one-vector parts
    use cost-only prices, and the winner is re-priced through the centroid
    rules; a cost-only price that disagrees with them raises instead of
    returning a wrong answer."""
    def off_by_one(order, points, weights):
        return cluster_cost(order, points, weights) + 1

    monkeypatch.setattr(solver, "cluster_cost", off_by_one)
    with pytest.raises(AssertionError, match="search's best"):
        solve_bruteforce(gen_l0_clustering_from_clique(EX_CLIQUE_GRAPH, 3))
    # a yes with slack: the parts, priced one over, still fit the budget, and
    # the witness's re-pricing catches it
    ds = Dataset(1, ((0,), (1,), (5,)), (1, 1, 1))
    slack = ClusteringInstance(ds, 2, Cost.of(3), DistanceOrder.l1())
    with pytest.raises(AssertionError, match="search's best"):
        solve_color_coding(slack, SolveConfig(policy="exhaustive"))
    with pytest.raises(AssertionError, match="search's best"):
        solve_color_coding(slack, SolveConfig(seed=1, iterations=30))
    monkeypatch.setattr(selection, "cluster_cost", off_by_one)
    groups = [[(0, 1), (3, 3)], [(1, 1), (4, 0)]]
    for order in (DistanceOrder.l0(), DistanceOrder.l1(), DistanceOrder.linf()):
        with pytest.raises(AssertionError, match="cost-only price"):
            select_bruteforce(SelectionInstance.of(groups, Cost.of(1), order))


def test_color_coding_figures():
    inst = gen_l0_clustering_from_clique(EX_CLIQUE_GRAPH, 3)
    res = solve_color_coding(inst, SolveConfig(policy="exhaustive"))
    assert res.decision
    comp = [c for c in res.clustering.clusters if len(c) > 1]
    assert len(comp) == 1 and len(comp[0]) == 3
    assert res.clustering.total_cost.exact == 3
    # below the minimum the exhaustive policy is a certain no
    lower = dataclasses.replace(inst, budget=Cost.of(2))
    res2 = solve_color_coding(lower, SolveConfig(policy="exhaustive"))
    assert not res2.decision and res2.stats["confidence"] == 1.0

    inst3 = gen_linf_clustering_from_clique(EX_LINF_GRAPH, 3)
    res3 = solve_color_coding(inst3, SolveConfig(policy="exhaustive"))
    assert res3.decision and res3.clustering.total_cost.exact == 3
    comp3 = [c for c in res3.clustering.clusters if len(c) > 1]
    members = {pt for c in comp3 for pt, _ in c}
    assert len(comp3) == 1 and len(members) == 3


def test_color_coding_trivial_cases():
    """With k >= n (k = n, k > n, or no points at all) no merge is owed: both
    policies return the clustering of singletons from the walk's trivial
    case, one family with no part tried or priced, at confidence 1."""
    ds = Dataset(2, ((0, 0), (1, 1)), (2, 1))
    inst = ClusteringInstance(ds, 2, Cost.of(0), DistanceOrder.l1())
    res = solve_color_coding(inst, SolveConfig(policy="exhaustive"))
    assert res.decision and res.clustering.total_cost.exact == 0
    inst_k5 = ClusteringInstance(ds, 5, Cost.of(0), DistanceOrder.l1())
    assert solve_color_coding(inst_k5, SolveConfig()).decision
    empty = dataclasses.replace(inst, dataset=Dataset(2, (), ()))
    for case in (inst, inst_k5, empty):
        singletons = len(regularize(case.dataset))
        results = [solve_color_coding(case, SolveConfig(policy=policy))
                   for policy in ("exhaustive", "auto")]
        for res in results:
            assert res.decision and res.clustering == results[0].clustering, case
            assert len(res.clustering.clusters) == singletons
            assert res.clustering.total_cost.exact == 0
            assert res.stats["families"] == 1 and res.stats["parts"] == 0, res.stats
            assert res.stats["pricings"] == 0 and res.stats["confidence"] == 1.0


def test_color_coding_policies():
    ds = Dataset(1, ((0,), (1,), (5,)), (1, 1, 1))
    inst = ClusteringInstance(ds, 2, Cost.of(1), DistanceOrder.l1())
    for cfg in (
        SolveConfig(policy="exhaustive"),
        SolveConfig(policy="auto", seed=3),
        SolveConfig(iterations=30, seed=4),
    ):
        res = solve_color_coding(inst, cfg)
        assert res.decision
        assert res.clustering.total_cost.exact == 1
    for bad in ({"policy": "iters"}, {"policy": "bogus"},
                {"policy": "exhaustive", "iterations": 3}, {"iterations": 0}):
        with pytest.raises(ValueError):
            SolveConfig(**bad)


def test_auto_runs_the_iterations_it_is_given():
    """An explicit count is the number of random colorings tried on a no;
    without one, ``auto`` tries ceil(e**T) of them (T = 4 here).  Two merges
    pass the look-ahead, max(2 * alpha, 3 * c2 / 2) = 2 <= 2, so the no is
    not decided before coloring; four merges cost at least 4 > 2, an exact
    no with no coloring under ``auto`` too."""
    ds = Dataset(1, ((0,), (1,), (10,), (20,), (30,), (40,)), (1,) * 6)
    inst = ClusteringInstance(ds, 4, Cost.of(2), DistanceOrder.l1())
    res = solve_color_coding(inst, SolveConfig(iterations=3))
    assert not res.decision and res.stats["iterations"] == 3
    assert res.stats["confidence"] == 1 - (1 - math.exp(-4)) ** 3
    assert solve_color_coding(inst).stats["iterations"] == math.ceil(math.exp(4))
    res = solve_color_coding(dataclasses.replace(inst, k=2), SolveConfig(iterations=3))
    assert not res.decision and res.stats["iterations"] == 0
    assert res.stats["confidence"] == 1.0


ORDER_BUDGETS = [
    (DistanceOrder.l1(), [0, 1, 2, 3], 201),
    (DistanceOrder.lp(Fraction(1, 2)), [0, 1, 2, 3], 202),
    (DistanceOrder.l2(), [0, Fraction(1, 2), 1, 2], 203),
    (DistanceOrder.linf(), [0, Fraction(1, 2), 1, Fraction(3, 2)], 204),
    (DistanceOrder.l0(), [0, 1, 2, 3], 205),
    # budgets no cluster cost can equal, e.g. 5/3 under the half-integral max
    (DistanceOrder.l1(), [Fraction(3, 2), Fraction(7, 3)], 211),
    (DistanceOrder.l2(), [Fraction(1, 3), Fraction(5, 3)], 213),
    (DistanceOrder.linf(), [Fraction(1, 3), Fraction(5, 3)], 214),
    (DistanceOrder.l0(), [Fraction(3, 2), Fraction(5, 3)], 215),
]


# (order, budgets, seed, max_initial, trials): the five orders on up to 5
# initial clusters, then three of them on up to 6
SAMPLE_ROWS = [(order, budgets, seed, 5, 30) for order, budgets, seed in ORDER_BUDGETS] + [
    (DistanceOrder.l1(), [1, Fraction(3, 2), 2], 221, 6, 120),
    (DistanceOrder.lp(Fraction(1, 2)), [1, Fraction(3, 2), 2], 224, 6, 120),
    (DistanceOrder.l0(), [1, Fraction(3, 2), 2], 226, 6, 120),
]


@pytest.mark.parametrize("order,budgets,seed,max_initial,trials",
                         [pytest.param(*row, id="-".join(map(str, row[:3]))) for row in SAMPLE_ROWS])
def test_color_coding_equals_bruteforce_sample(order, budgets, seed, max_initial, trials):
    """Both policies against the uncut partition oracle, which shares no
    search with them: the exhaustive decision equals the oracle's, a seeded
    ``auto`` yes (20 colorings) is never a wrong yes, and every yes carries a
    witness that re-prices exactly within the budget."""
    rnd = random.Random(seed)
    answers = Counter()
    for _ in range(trials):
        budget = Cost.of(budgets[rnd.randrange(len(budgets))])
        inst = random_clustering_instance(rnd, order, budget, max_initial=max_initial)
        decision, _ = solve_bruteforce_reference(inst)
        exact = solve_color_coding(inst, SolveConfig(policy="exhaustive"))
        fast = solve_color_coding(inst, SolveConfig(seed=seed, iterations=20))
        assert exact.decision == decision and fast.decision <= decision, inst
        assert exact.stats["families"] == int(decision)
        for res in (exact, fast):
            if res.decision:
                assert_valid_witness(inst, res.clustering)
        answers[decision, fast.decision] += 1
    assert answers[True, True] and answers[False, False]


# (order, budgets, seed, max_initial, w_max): the five orders with
# multiplicities 1-2, then each order again on 8 initial clusters with
# multiplicities 1-3
REFERENCE_ROWS = [pytest.param(*row, 7, 2, id=str(row[0])) for row in ORDER_BUDGETS[:5]] + [
    pytest.param(DistanceOrder.l1(), [1, 2, 4, 6], 231, 8, 3, id="1-weighted"),
    pytest.param(DistanceOrder.l2(), [Fraction(1, 2), 1, 2, 3], 232, 8, 3, id="2-weighted"),
    pytest.param(DistanceOrder.lp(Fraction(1, 2)), [1, 2, 3, 4], 233, 8, 3, id="1/2-weighted"),
    pytest.param(DistanceOrder.linf(), [1, Fraction(3, 2), 2, 3], 234, 8, 3, id="inf-weighted"),
    pytest.param(DistanceOrder.l0(), [1, 2, 3, 4], 235, 8, 3, id="0-weighted"),
]


@pytest.mark.parametrize("order,budgets,seed,max_initial,w_max", REFERENCE_ROWS)
def test_solve_bruteforce_equals_naive_reference(order, budgets, seed, max_initial, w_max):
    """The cut search against the uncut partition oracle, on up to 7 or 8
    initial clusters: the same minimum, exactly, and the same decision.  Some
    instance prices fewer parts than a search that prices before it cuts,
    which prices all comb(n, s) parts of each size s = 2 .. excess + 1."""
    rnd = random.Random(seed + 100)
    seen = Counter()
    cut_unpriced = 0
    for _ in range(60):
        budget = Cost.of(budgets[rnd.randrange(len(budgets))])
        inst = random_clustering_instance(rnd, order, budget, max_initial=max_initial, w_max=w_max)
        decision, min_cost = solve_bruteforce_reference(inst)
        res = solve_bruteforce(inst)
        assert cost_eq(res.min_cost, min_cost), inst
        assert res.decision == decision, inst
        n = len(regularize(inst.dataset))
        excess = n - inst.k
        every_part = sum(math.comb(n, s) for s in range(2, excess + 2))
        cut_unpriced += res.stats["pricings"] < every_part
        seen[n] += 1
        seen[decision] += 1
    assert seen[max_initial] >= 1 and seen[max_initial - 1] + seen[max_initial] >= 5
    assert seen[True] >= 5 and seen[False] >= 5
    assert cut_unpriced >= 1


@pytest.mark.parametrize("policy", ["exhaustive", "auto"])
@pytest.mark.parametrize("order,budgets,seed", ORDER_BUDGETS, ids=lambda o: str(o))
def test_one_selection_call_per_bundle(monkeypatch, order, budgets, seed, policy):
    """The colour-coding solver handles each distinct bundle once, whatever
    colours its classes carry: a bundle with a group of several vectors takes
    one selection call, whose counters the stats sum, and a part of one-vector
    groups is priced once, cost only.  Under ``auto`` one set of classes meets
    several colour orders, so no two calls may get the same multiset of
    (group, weights) pairs.  The ``exhaustive`` walk makes no selection call
    and prices each distinct part once.  Under both policies the pair table
    is priced through the same ``cluster_cost`` pricer: every pair of
    initial clusters is among the parts priced, once."""
    cfg = (SolveConfig(policy="exhaustive") if policy == "exhaustive"
           else SolveConfig(iterations=30, seed=seed))
    calls, priced = [], []
    inner = Counter()
    real_selection, real_cost = solver.solve_selection, solver.cluster_cost

    def counting(sel, **kwargs):
        calls.append(tuple(sorted(zip(sel.groups, sel.weights))))
        res = real_selection(sel, **kwargs)
        inner.update({name: res.stats.get(name, 0) for name in solver.SELECTION_COUNTERS})
        return res

    def pricing(order, points, weights):
        priced.append((tuple(points), tuple(weights)))
        return real_cost(order, points, weights)

    monkeypatch.setattr(solver, "solve_selection", counting)
    monkeypatch.setattr(solver, "cluster_cost", pricing)
    rnd = random.Random(seed)
    total = 0
    for _ in range(15):
        budget = Cost.of(budgets[rnd.randrange(len(budgets))])
        inst = random_clustering_instance(rnd, order, budget, max_initial=6)
        calls.clear()
        priced.clear()
        inner.clear()
        stats = solve_color_coding(inst, cfg).stats
        assert stats.get("selection_calls", 0) == len(calls) == len(set(calls)), inst
        assert policy == "auto" or not calls
        assert all(any(len(g) > 1 for g, _ in pairs) for pairs in calls)
        assert stats["pricings"] == len(priced) == len(set(priced))
        initial = regularize(inst.dataset)
        if inst.k < len(initial):
            counts = Counter(priced)
            for x, y in itertools.combinations(initial, 2):
                assert counts[(x.representative, y.representative), (x.size, y.size)] == 1, inst
        for name in solver.SELECTION_COUNTERS:
            assert stats.get(name, 0) == inner[name]
        assert "cost_set_size" not in stats
        total += len(calls) + len(priced)
    assert total > 0


@pytest.mark.parametrize("order", [DistanceOrder.l1(), DistanceOrder.lp(Fraction(1, 2)),
                                   DistanceOrder.l2(), DistanceOrder.linf(),
                                   DistanceOrder.l0()], ids=str)
def test_one_vector_bundles_skip_selection(monkeypatch, order):
    """With T >= n colors a coloring may give every initial cluster a class
    of its own.  A bundle whose classes each hold one initial cluster is
    priced directly, cost only, and never reaches the selection solver; over
    200 seeded colorings the decision is still the brute-force oracle's.  A
    no may be decided by the look-ahead before any coloring, with only the
    pair table priced."""
    real_selection = solver.solve_selection

    def guarded(sel, **kwargs):
        if all(len(group) == 1 for group in sel.groups):
            raise AssertionError("a one-vector bundle reached solve_selection")
        return real_selection(sel, **kwargs)

    monkeypatch.setattr(solver, "solve_selection", guarded)
    rnd = random.Random(231)
    alpha = merge_cost_bound(order)
    answers = Counter()
    pricings = 0
    for _ in range(20):
        inst = random_clustering_instance(rnd, order, Cost.of(0), max_initial=5)
        n_ic = len(regularize(inst.dataset))
        # T = ceil(2 budget / alpha) >= n_ic
        budget = Cost.of(alpha * n_ic / 2 + Fraction(rnd.randrange(4), 2))
        inst = dataclasses.replace(inst, k=min(inst.k, n_ic - 1), budget=budget)
        res = solve_color_coding(inst, SolveConfig(seed=1, iterations=200))
        assert res.stats["T"] >= n_ic
        assert res.decision == solve_bruteforce(inst).decision
        if res.stats["iterations"] == 0:  # decided before coloring
            assert not res.decision and res.stats["pricings"] == math.comb(n_ic, 2)
        pricings += res.stats["pricings"]
        answers[res.decision] += 1
    assert answers[True] and answers[False] and pricings > 0


def _boundary_budgets(inst: ClusteringInstance, opt: Cost) -> list[Cost]:
    """The optimum, the largest budget below it and the smallest above it on
    the grid of the pair bounds' keys: halves, or 1 / lcm(1, ..., W) under
    squared L2 with W the total weight; for p in (0, 1), whose optima are
    irrational, the grid 2**-48, finer than the float keys' rounding band."""
    if opt.exact is None:
        grid = 2**48
        floor = cost_floor(opt, grid)
        below = floor - 1 if cost_eq(Cost.of(Fraction(floor, grid)), opt) else floor
        return [opt, Cost.of(Fraction(below, grid)), Cost.of(Fraction(floor + 1, grid))]
    weight = inst.dataset.total_count
    step = Fraction(1, math.lcm(*range(1, weight + 1)) if inst.order.kind == "l2" else 2)
    budgets = [opt, Cost.of(opt.exact + step)]
    if opt.exact >= step:
        budgets.append(Cost.of(opt.exact - step))
    return budgets


@pytest.mark.parametrize("order", [DistanceOrder.l0(), DistanceOrder.l1(), DistanceOrder.l2(),
                                   DistanceOrder.linf(), DistanceOrder.lp(Fraction(1, 2)),
                                   DistanceOrder.lp(Fraction(1, 3))], ids=str)
def test_color_coding_cuts_keep_the_oracle_decision(order):
    """The pair-bound cuts of the colour-coding search's member walk drop
    only branches that cannot meet the budget: on weighted instances
    (weights 1-3) at the optimum, just below it and just above it, 100
    seeded colorings decide as the brute-force oracle does, and every yes
    carries a witness that re-prices within the budget."""
    rnd = random.Random(241)
    answers = Counter()
    for _ in range(30):
        inst = random_clustering_instance(rnd, order, Cost.of(0), max_initial=7, w_max=3)
        for budget in _boundary_budgets(inst, solve_bruteforce(inst).min_cost):
            bounded = dataclasses.replace(inst, budget=budget)
            res = solve_color_coding(bounded, SolveConfig(seed=1, iterations=100))
            assert res.decision == solve_bruteforce(bounded).decision, bounded
            if res.decision:
                assert_valid_witness(bounded, res.clustering)
            answers[res.decision] += 1
    assert answers[True] and answers[False]


@pytest.mark.parametrize("order", [DistanceOrder.l0(), DistanceOrder.l1(), DistanceOrder.l2(),
                                   DistanceOrder.linf(), DistanceOrder.lp(Fraction(1, 2))],
                         ids=str)
def test_exhaustive_walk_decides_at_the_optimum(order):
    """The exhaustive walk's incumbent starts at the budget's top key, so a
    family costing exactly the budget is kept: on weighted instances (weights
    1-3) at the optimum of the uncut partition oracle the answer is yes,
    just below it no and just above it yes.  A yes stops at its first family
    with a witness within the budget; a no reaches none."""
    rnd = random.Random(243)
    answers = Counter()
    for _ in range(20):
        inst = random_clustering_instance(rnd, order, Cost.of(0), max_initial=7, w_max=3)
        _, opt = solve_bruteforce_reference(inst)
        for budget in _boundary_budgets(inst, opt):
            bounded = dataclasses.replace(inst, budget=budget)
            res = solve_color_coding(bounded, SolveConfig(policy="exhaustive"))
            assert res.decision == cost_le(opt, budget), bounded
            assert res.stats["families"] == int(res.decision)
            if res.decision:
                assert_valid_witness(bounded, res.clustering)
            answers[res.decision] += 1
    assert answers[True] and answers[False]


FRACTIONAL_ORDERS = [DistanceOrder.lp(Fraction(1, 2)), DistanceOrder.lp(Fraction(1, 3))]


def _decisions(inst: ClusteringInstance) -> list[bool]:
    """The decisions of the colour-coding search (40 seeded colorings), the
    exhaustive policy and the brute-force oracle."""
    return [solve_color_coding(inst, SolveConfig(seed=1, iterations=40)).decision,
            solve_color_coding(inst, SolveConfig(policy="exhaustive")).decision,
            solve_bruteforce(inst).decision]


def _fractional_boundary_cases(seed: int, trials: int):
    """Weighted p < 1 instances (weights 1-3, at most 6 initial clusters)
    with their optimum from the uncut partition oracle, each at the
    boundary budgets."""
    rnd = random.Random(seed)
    for _ in range(trials):
        for order in FRACTIONAL_ORDERS:
            inst = random_clustering_instance(rnd, order, Cost.of(0), w_max=3)
            opt = solve_bruteforce_reference(inst)[1]
            for budget in _boundary_budgets(inst, opt):
                yield dataclasses.replace(inst, budget=budget), cost_le(opt, budget)


def test_float_keys_hold_under_hostile_error_bounds(monkeypatch):
    """For p in (0, 1) a key is ``approx_terms``' float less its proven
    bound, and the budget's and the incumbent's floats are plus it, so any
    valid (float, bound) pair keeps the searches exact.  Here every bound is
    2**-20 of its float, far wider than the rounding band; a cluster value
    is moved up 0.9 of its bound and the budget's down 0.9.  A key taken as
    the float alone would then cut the optimal family at a budget equal to
    its cost.  Patched in ``cost_model``, the stub also serves the float
    stage of ``cost_le``, which any valid pair leaves exact, and it is called
    there before the first budget is set."""
    true_terms = cost_model.approx_terms
    budget = None

    def hostile(terms, p):
        value, _ = true_terms(terms, p)
        down = budget is not None and terms is budget.terms
        return value * (1 + (-0.9 if down else 0.9) * 2.0**-20), value * 2.0**-20

    monkeypatch.setattr(cost_model, "approx_terms", hostile)
    decisions = Counter()
    for inst, decision in _fractional_boundary_cases(251, 12):
        budget = inst.budget
        assert _decisions(inst) == [decision] * 3
        decisions[decision, budget.terms is not None] += 1
    assert decisions[True, True] >= 5 and decisions[False, False] >= 5


def test_clustering_searches_do_not_evaluate_to_50_digits(monkeypatch):
    """The clustering searches take every p < 1 key, the budget's float and
    the incumbent's from ``approx_terms``, so on values in the float range
    none calls ``cost_eval`` (the selection kernels keep their own)."""
    def refuse(*args):
        raise AssertionError("cost_eval called")

    monkeypatch.setattr(cost_model, "cost_eval", refuse)
    for inst, decision in _fractional_boundary_cases(252, 6):
        assert _decisions(inst) == [decision] * 3


def test_gaps_beyond_the_float_range():
    """A gap of 2**1100 has no float power, so ``approx_terms`` gives it no
    bound, and that key alone takes the 50-digit value.  The optimum merges
    (0), (1) and the two far points, at 1 + 3**(1/2); the far-reaching
    families are cut by their keys, never compared exactly, which would
    factor 2**1100 by trial division."""
    half = DistanceOrder.lp(Fraction(1, 2))
    ds = Dataset(1, ((0,), (1,), (2**1100,), (2**1100 + 3,)), (1, 1, 1, 1))
    opt = Cost.basis({1: 1, 3: 1}, half.p)
    for budget, decision in ((opt, True), (Cost.of(2), False), (Cost.of(3), True)):
        inst = ClusteringInstance(ds, 2, budget, half)
        assert _decisions(inst) == [decision] * 3
        assert cost_eq(solve_bruteforce(inst).min_cost, opt)


def test_costs_beyond_the_float_range():
    """Under p = 1/2 the points 0, 10**700 and 2 * 10**700 price each
    neighbouring pair at (10**700)**(1/2) = 10**350, past the float range:
    its key is the largest float, the budget's top is inf, and ``cost_le``
    decides, whose trial division is short on bases of 2s and 5s.  All three
    paths answer at 10**350 and refuse 10**350 - 1; there ``auto``'s T is
    2 * 10**350 colours, past the float range, and its confidence still
    reads as a probability."""
    half = DistanceOrder.lp(Fraction(1, 2))
    ds = Dataset(1, ((0,), (10**700,), (2 * 10**700,)), (1, 1, 1))
    opt = Cost.basis({10**700: 1}, half.p)
    for budget, decision in ((Cost.of(10**350), True), (Cost.of(10**350 - 1), False)):
        inst = ClusteringInstance(ds, 2, budget, half)
        res = solve_color_coding(inst, SolveConfig(seed=1, iterations=20))
        assert res.decision == decision
        assert 0.0 <= res.stats["confidence"] <= 1.0
        assert solve_color_coding(inst, SolveConfig(policy="exhaustive")).decision == decision
        res = solve_bruteforce(inst)
        assert res.decision == decision and cost_eq(res.min_cost, opt)


def test_dense_family_is_an_exact_no_before_coloring():
    """The unit vectors e_1..e_10 under L1 with k = 8 and budget 5/2: every
    pair costs 2, so two merges cost at least max(2 * alpha, 3 * c2 / 2) = 3,
    over the budget.  The colour-coding search answers an exact no with no
    coloring, and the exhaustive walk an exact no with every branch cut
    before a part is priced beyond the pairs."""
    inst = dense_family(10)
    res = solve_color_coding(inst)
    assert not res.decision and res.stats["iterations"] == 0
    assert res.stats["confidence"] == 1.0
    res = solve_color_coding(inst, SolveConfig(policy="exhaustive"))
    assert not res.decision and res.stats["confidence"] == 1.0
    assert res.stats["families"] == 0 and res.stats["pricings"] == math.comb(10, 2)
    assert not solve_bruteforce(inst).decision


def test_spread_family_cuts_its_selection_calls():
    """Ten initial clusters in {0..199}^6 under L1 with three planted pairs
    (distances 1, 1 and 2), k = 7 and budget 3, so T = 6.  Over 126 seeded
    colorings a bundle whose class pairs are all far apart is cut by its pair
    bound before pricing: at most 100 selection calls are made (76 at seed
    0), where the exhaustive colorings of this instance once made 3,150."""
    inst = spread_family(10)
    res = solve_color_coding(inst, SolveConfig(iterations=126))
    assert not res.decision and res.stats["iterations"] == 126
    assert res.stats["selection_calls"] <= 100
    assert not solve_bruteforce(inst).decision


def test_auto_prices_l1_bundles_by_the_centroid_search():
    """The points 0, 2, ..., 78 on a line under L1, k = 37 and budget 5: the
    three merges owed cost 2 each, so the answer is no.  Over 20 colorings at
    seed 1 the minimising selection calls of ``auto`` run the centroid search,
    1,964 nodes and 758 leaves in all (the tuple search took 10,335 nodes for
    the same 758 admitted tuples), and answer the exhaustive policy's no."""
    inst = ClusteringInstance(Dataset(1, tuple((2 * i,) for i in range(40)), (1,) * 40), 37,
                              Cost.of(5), DistanceOrder.l1())
    res = solve_color_coding(inst, SolveConfig(seed=1, iterations=20))
    assert res.decision == solve_color_coding(inst, SolveConfig(policy="exhaustive")).decision
    assert not res.decision
    assert res.stats["selection_calls"] == 1_206
    assert (res.stats["nodes"], res.stats["centroids_tried"]) == (1_964, 758)


def test_exhaustive_walk_decides_spread_family_24_in_bounded_parts():
    """``spread_family(24)``: 24 initial clusters, 3 merges owed, all priced
    over the budget.  The exhaustive policy's walk answers the exact no
    within 1,500 parts tried (1,292 here), where colouring each of the
    comb(23, 5) = 33,649 subsets that held cluster 0 took 18 s."""
    res = solve_color_coding(spread_family(24), SolveConfig(policy="exhaustive"))
    assert not res.decision and res.stats["confidence"] == 1.0
    assert res.stats["families"] == 0 and res.stats["parts"] <= 1_500


@pytest.mark.parametrize("gen,max_parts", [(gen_l0_clustering_from_clique, 100_000),
                                           (gen_linf_clustering_from_clique, 5_000)],
                         ids=["l0", "linf"])
def test_exhaustive_walk_decides_the_clique_targets(gen, max_parts):
    """The paper's W[1]-hardness targets for k = 3 over every graph of 3 to 6
    vertices with an edge (201 graphs): the exhaustive decision is the
    graph's, a yes stops at its first family with a witness of exactly k
    clusters within the budget, and the walks try at most ``max_parts``
    parts in all (78,028 under Hamming, 3,110 under max distance), where
    the exhaustive colorings of the Hamming targets took 462 s."""
    graphs = [g for g in atlas_graphs(6) if g.n >= 3]
    assert len(graphs) == 201
    parts = 0
    for g in graphs:
        inst = gen(g, 3)
        res = solve_color_coding(inst, SolveConfig(policy="exhaustive"))
        assert res.decision == graph_has_clique(g, 3), g
        assert res.stats["families"] == int(res.decision)
        if res.decision:
            assert_valid_witness(inst, res.clustering)
        parts += res.stats["parts"]
    assert parts <= max_parts


def test_randomized_no_is_one_sided():
    rnd = random.Random(207)
    for _ in range(40):
        inst = random_clustering_instance(rnd, DistanceOrder.l1(), Cost.of(rnd.randint(0, 2)))
        fast = solve_color_coding(inst, SolveConfig(iterations=5, seed=1))
        brute = solve_bruteforce(inst)
        if fast.decision:
            assert brute.decision  # a yes always carries a verified witness


def test_coloring_success_estimate():
    p1, trials = coloring_success_estimate(1, 100, seed=0)
    assert p1 == 1.0 and trials == 100
    for t_colors, expected in ((2, 0.5), (4, 24 / 256)):
        p, trials = coloring_success_estimate(t_colors, 10_000, seed=5)
        sigma = (expected * (1 - expected) / trials) ** 0.5
        assert abs(p - expected) <= 3 * sigma
