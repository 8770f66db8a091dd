import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from minkclust import simplex, solver
from minkclust import (
    ClusteringInstance,
    Cost,
    Dataset,
    DistanceOrder,
    SolveConfig,
    WeightedCluster,
    coloring_success_estimate,
    cost_le,
    gen_l0_clustering_from_clique,
    gen_linf2_from_hioct,
    gen_linf_clustering_from_clique,
    HioctInstance,
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
    random_clustering_instance,
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
    rational simplex disabled, the solvers and the oracles still give the
    figure's optimum 5 and the half-integral optima of two small instances."""
    def disabled(*args, **kwargs):
        raise AssertionError("simplex.minimize called on a solve path")

    monkeypatch.setattr(simplex, "minimize", disabled)
    figure = gen_linf2_from_hioct(HioctInstance(EX_OCT_GRAPH, 2),
                                  include_isolated_edges=False)
    ds = Dataset(2, ((0, 0), (3, 0), (0, 3), (7, 7), (9, 8)), (1, 1, 1, 2, 1))
    small = ClusteringInstance(ds, 2, Cost.of(Fraction(13, 2)), DistanceOrder.linf())
    for inst, optimum in ((figure, 5), (small, Fraction(13, 2))):
        res = solve_color_coding(inst, SolveConfig(policy="exhaustive"))
        assert res.decision and res.clustering.total_cost.exact == optimum
        assert solve_bruteforce(inst).min_cost.exact == optimum

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
    ds = Dataset(2, ((0, 0), (1, 1)), (2, 1))
    inst = ClusteringInstance(ds, 2, Cost.of(0), DistanceOrder.l1())
    res = solve_color_coding(inst, SolveConfig(policy="exhaustive"))
    assert res.decision and res.clustering.total_cost.exact == 0
    inst_k5 = ClusteringInstance(ds, 5, Cost.of(0), DistanceOrder.l1())
    assert solve_color_coding(inst_k5, SolveConfig()).decision


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
    without one, ``auto`` tries ceil(e**T) of them (T = 4 here)."""
    ds = Dataset(1, tuple((10 * i,) for i in range(6)), (1,) * 6)
    inst = ClusteringInstance(ds, 2, Cost.of(2), DistanceOrder.l1())
    res = solve_color_coding(inst, SolveConfig(iterations=3))
    assert not res.decision and res.stats["iterations"] == 3
    assert res.stats["confidence"] == 1 - (1 - math.exp(-4)) ** 3
    assert solve_color_coding(inst).stats["iterations"] == math.ceil(math.exp(4))


@pytest.mark.parametrize("n,t", [(1, 1), (5, 1), (5, 3), (6, 4), (4, 4), (3, 5)])
def test_rainbow_colorings_are_distinct_and_hold_cluster_0(n, t):
    """One coloring per subset of min(T, n) initial clusters that holds
    cluster 0: comb(n - 1, min(T, n) - 1) of them, pairwise distinct, each
    giving its subset the colors 0..min(T, n) - 1."""
    colorings = list(solver._rainbow_colorings(n, t))
    size = min(t, n)
    assert len(colorings) == len(set(colorings)) == math.comb(n - 1, size - 1)
    for coloring in colorings:
        assert len(coloring) == n and coloring[0] == 0
        assert sorted(set(coloring)) == list(range(size))
    if t == 1:
        assert colorings == [(0,) * n]


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


# (order, budgets, seed, max_initial, trials).  The max_initial=6 rows hold at
# least 10 yes-instances each whose color count T is below the initial cluster
# count, where the exhaustive policy rests on containment: it colors only the
# subsets of T initial clusters.  (Squared Euclidean and max-distance merges of
# integer points cost well above the per-merge floor, so at six initial
# clusters those orders have next to no such yes-instances.)
SAMPLE_ROWS = [(order, budgets, seed, 5, 30) for order, budgets, seed in ORDER_BUDGETS] + [
    (DistanceOrder.l1(), [1, Fraction(3, 2), 2], 221, 6, 120),
    (DistanceOrder.lp(Fraction(1, 2)), [1, Fraction(3, 2), 2], 224, 6, 120),
    (DistanceOrder.l0(), [1, Fraction(3, 2), 2], 226, 6, 120),
]


@pytest.mark.parametrize("order,budgets,seed,max_initial,trials",
                         [pytest.param(*row, id="-".join(map(str, row[:3]))) for row in SAMPLE_ROWS])
def test_color_coding_equals_bruteforce_sample(order, budgets, seed, max_initial, trials):
    rnd = random.Random(seed)
    narrow_yes = 0
    for _ in range(trials):
        budget = Cost.of(budgets[rnd.randrange(len(budgets))])
        inst = random_clustering_instance(rnd, order, budget, max_initial=max_initial)
        exact = solve_color_coding(inst, SolveConfig(policy="exhaustive"))
        brute = solve_bruteforce(inst)
        assert exact.decision == brute.decision, inst
        if exact.decision:
            initial = regularize(inst.dataset)
            narrow_yes += exact.stats.get("T", len(initial)) < len(initial)
            clustering = exact.clustering
            # regular output: every initial cluster stays intact
            sizes: dict = {}
            for cluster in clustering.clusters:
                for pt, mult in cluster:
                    assert pt not in sizes
                    sizes[pt] = mult
            expected = {ic.representative: ic.size for ic in initial}
            assert sizes == expected
            assert cost_le(clustering.total_cost, inst.budget)
    if max_initial == 6:
        assert narrow_yes >= 10


def test_exhaustive_colors_each_subset_of_t_initial_clusters_once():
    """With T = 3 colors below the 5 initial clusters, the exhaustive policy
    tries one coloring per 3-subset holding the first cluster, since a
    subset's coloring ignores which member comes first, and
    ``families`` counts the complete families reached: none on a no, the
    accepted one on a yes."""
    ds = Dataset(1, ((0,), (1,), (10,), (11,), (20,)), (1,) * 5)
    for k, yes in ((3, False), (4, True)):
        inst = ClusteringInstance(ds, k, Cost.of(Fraction(3, 2)), DistanceOrder.l1())
        res = solve_color_coding(inst, SolveConfig(policy="exhaustive"))
        assert res.stats["T"] == 3
        assert res.decision == solve_bruteforce(inst).decision == yes
        if not yes:
            assert res.stats["iterations"] == math.comb(4, 2)
        assert res.stats["families"] == int(yes)


@pytest.mark.parametrize("order,budgets,seed", ORDER_BUDGETS, ids=lambda o: str(o))
def test_one_selection_call_per_bundle(monkeypatch, order, budgets, seed):
    """The colour-coding solver asks the selection solver once per distinct
    bundle of groups, and its stats sum the selection counters."""
    calls = []
    inner = Counter()
    real = solver.solve_selection

    def counting(sel, **kwargs):
        calls.append((sel.groups, sel.weights))
        res = real(sel, **kwargs)
        inner.update({name: res.stats.get(name, 0) for name in solver.SELECTION_COUNTERS})
        return res

    monkeypatch.setattr(solver, "solve_selection", counting)
    rnd = random.Random(seed)
    total = 0
    for _ in range(15):
        budget = Cost.of(budgets[rnd.randrange(len(budgets))])
        inst = random_clustering_instance(rnd, order, budget, max_initial=6)
        calls.clear()
        inner.clear()
        stats = solve_color_coding(inst, SolveConfig(policy="exhaustive")).stats
        assert stats["selection_calls"] == len(calls) == len(set(calls))
        for name in solver.SELECTION_COUNTERS:
            assert stats.get(name, 0) == inner[name]
        assert "cost_set_size" not in stats
        total += len(calls)
    assert total > 0


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
