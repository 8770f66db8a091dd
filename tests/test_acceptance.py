"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The max-distance
2-clustering figure check (criterion 1) asserts the documented optimum of 6
and is expected to fail: the instance's true optimum is 5 (see the project
notes); the remaining checks are green.
"""

import itertools
import random
from fractions import Fraction

import pytest

from minkclust import (
    CnfFormula,
    Cost,
    DistanceOrder,
    HioctInstance,
    SolveConfig,
    WeightedCluster,
    binary_coordinate_cost,
    build_difference_hypergraph,
    candidate_coordinate_sets,
    centroid_l1,
    centroid_linf_grid,
    centroid_linf_lp,
    centroid_lp,
    coloring_success_estimate,
    cost_eq,
    cost_eval,
    cost_le,
    enumerate_cost_set,
    enumerate_patterns,
    gen_l0_clustering_from_clique,
    gen_l1_selection_from_mcc,
    gen_linf2_from_hioct,
    gen_linf_clustering_from_clique,
    gen_lp_selection_from_mcc,
    merge_cost_bound,
    optimal_cluster_cost,
    select_bruteforce,
    solve_bruteforce,
    solve_color_coding,
    solve_selection,
    verify_reduction,
)
from minkclust.cost_model import cost_floor
from tests.helpers import (
    EX_CLIQUE_COLORED,
    EX_CLIQUE_GRAPH,
    EX_LINF_GRAPH,
    EX_OCT_GRAPH,
    SELECTION_ENVELOPES,
    assert_valid_witness,
    atlas_graphs,
    random_clustering_instance,
    random_colored_graph,
    random_selection_instance,
    solve_bruteforce_reference,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: figure reproduction, exact values, < 10 s total


def test_criterion1_hamming_clustering_figure():
    inst = gen_l0_clustering_from_clique(EX_CLIQUE_GRAPH, 3)
    res = solve_bruteforce(inst)
    ok = res.min_cost.exact == 3
    report("criterion 1 (Hamming clustering example)", ok,
           f"optimal cost {res.min_cost.exact}, expected 3")
    assert ok


def test_criterion1_l1_selection_figure():
    inst = gen_l1_selection_from_mcc(EX_CLIQUE_COLORED, 3)
    res = select_bruteforce(inst)
    ok = res.cost.exact == 15
    report("criterion 1 (L1 selection example)", ok,
           f"optimal cost {res.cost.exact}, expected 15")
    assert ok


def test_criterion1_linf_clustering_figure():
    inst = gen_linf_clustering_from_clique(EX_LINF_GRAPH, 3)
    res = solve_bruteforce(inst)
    ok = res.min_cost.exact == 3
    report("criterion 1 (max-distance clustering example)", ok,
           f"optimal cost {res.min_cost.exact}, expected 3")
    assert ok


def test_criterion1_linf_two_cluster_figure():
    """Documented optimum of 6 for the bare four-vector instance.

    Expected to fail: {x1,x3,x4} + {x2} costs 5 (verified by the exact LP
    and the half-integral grid independently), so the displayed partition of
    cost 6 is a witness, not the optimum.  Analysed in the README."""
    inst = gen_linf2_from_hioct(HioctInstance(EX_OCT_GRAPH, 2),
                                include_isolated_edges=False)
    res = solve_bruteforce(inst)
    ok = res.min_cost.exact == 6
    report("criterion 1 (max-distance 2-clustering example)", ok,
           f"optimal cost {res.min_cost.exact}, documented value 6 "
           "(true optimum is 5; see README)")
    assert ok


def test_criterion1_lp_selection_figure():
    inst = gen_lp_selection_from_mcc(EX_CLIQUE_COLORED, 3, Fraction(2))
    res = select_bruteforce(inst)
    ok = res.cost.exact == 2
    report("criterion 1 (squared-Euclidean selection example)", ok,
           f"optimal cost {res.cost.exact}, expected 2")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: selection solvers vs the oracle, >= 500 instances per order

_CRIT2: dict[str, list] = {}


def criterion2_stream(name: str):
    if name not in _CRIT2:
        order, kwargs, budgets, seed = SELECTION_ENVELOPES[name]
        rnd = random.Random(seed)
        rows = []
        for _ in range(500):
            budget = budgets[rnd.randrange(len(budgets))]
            inst = random_selection_instance(rnd, order, budget, **kwargs)
            fast = solve_selection(inst)
            slow = select_bruteforce(inst)
            rows.append((inst, fast, slow))
        _CRIT2[name] = rows
    return _CRIT2[name]


@pytest.mark.parametrize("name", list(SELECTION_ENVELOPES), ids=str)
def test_criterion2_selection_oracle_equivalence(name):
    rows = criterion2_stream(name)
    disagreements = sum(1 for _, fast, slow in rows if fast.decision != slow.decision)
    bad_witness = 0
    for inst, fast, _ in rows:
        if fast.decision and not cost_le(fast.cost, inst.budget):
            bad_witness += 1
    ok = disagreements == 0 and bad_witness == 0
    report(f"criterion 2 ({name})", ok,
           f"{len(rows)} instances, {disagreements} disagreements, "
           f"{bad_witness} invalid witnesses")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: clustering solver (both policies) vs the uncut partition oracle

CLUSTERING_ENVELOPES = {
    "p=1/2": (DistanceOrder.lp(Fraction(1, 2)), Cost.of(3), 911),
    "p=1": (DistanceOrder.l1(), Cost.of(3), 912),
    "p=2": (DistanceOrder.l2(), Cost.of(2), 913),
    "p=inf": (DistanceOrder.linf(), Cost.of(2), 914),
    "p=0": (DistanceOrder.l0(), Cost.of(3), 915),
}

_CRIT3: dict[str, list] = {}


def criterion3_stream(name: str):
    if name not in _CRIT3:
        order, base, seed = CLUSTERING_ENVELOPES[name]
        members = enumerate_cost_set(order, base, n=8).members
        rnd = random.Random(seed)
        rows = []
        for _ in range(200):
            budget = members[rnd.randrange(len(members))]
            inst = random_clustering_instance(rnd, order, budget,
                                              max_initial=6, k_max=4)
            exact = solve_color_coding(inst, SolveConfig(policy="exhaustive"))
            fast = solve_color_coding(inst, SolveConfig(seed=seed, iterations=20))
            decision, _ = solve_bruteforce_reference(inst)
            brute = solve_bruteforce(inst)
            rows.append((inst, exact, brute, fast, decision))
        _CRIT3[name] = (rows, base)
    return _CRIT3[name]


@pytest.mark.parametrize("name", list(CLUSTERING_ENVELOPES), ids=str)
def test_criterion3_clustering_oracle_equivalence(name):
    """The exhaustive decision equals the uncut partition oracle's, which
    shares no search with it; a seeded ``auto`` run (20 colorings) gives no
    wrong yes; every yes of either policy carries a witness that re-prices
    exactly within the budget."""
    rows, _ = criterion3_stream(name)
    disagreements = 0
    bad_witness = 0
    for inst, exact, _, fast, decision in rows:
        if exact.decision != decision or fast.decision > decision:
            disagreements += 1
        for res in (exact, fast):
            if res.decision:
                try:
                    assert_valid_witness(inst, res.clustering)
                except AssertionError:
                    bad_witness += 1
    ok = disagreements == 0 and bad_witness == 0
    report(f"criterion 3 ({name})", ok,
           f"{len(rows)} instances, {disagreements} disagreements, "
           f"{bad_witness} invalid witnesses")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: reduction sweeps


def test_criterion4_clique_reductions_exhaustive():
    graphs = atlas_graphs(6)
    bad = 0
    for g in graphs:
        for name in ("l0-clique", "linf-clique"):
            rep = verify_reduction(name, g, {"k": 3})
            if not rep.agree:
                bad += 1
    ok = bad == 0
    report("criterion 4 (clique reductions, all graphs <= 6 vertices)", ok,
           f"{2 * len(graphs)} checks, {bad} disagreements")
    assert ok


def test_criterion4_colorful_reductions_seeded():
    rnd = random.Random(401)
    names = ("l0-mcc", "l1-mcc", "linf-mcc", "lp-mcc")
    bad = 0
    checked = 0
    produced = 0
    while produced < 100:
        g = random_colored_graph(rnd, n_max=7, k=3, edge_p=0.45)
        sizes = 1
        for i in range(1, 4):
            for j in range(i + 1, 4):
                sizes *= max(1, len(g.cross_edges(i, j)))
        if sizes > 4000:  # keep the six-group L1 product tractable
            continue
        produced += 1
        for name in names:
            rep = verify_reduction(name, g, {"k": 3, "p": Fraction(2)})
            checked += 1
            if not rep.agree:
                bad += 1
    ok = bad == 0
    report("criterion 4 (colorful-clique reductions, 100 seeded graphs)", ok,
           f"{checked} checks, {bad} disagreements")
    assert ok


def _random_formula(rnd: random.Random) -> CnfFormula:
    n = rnd.randint(3, 5)
    m = rnd.randint(1, 3)
    clauses = []
    for _ in range(m):
        vars_ = rnd.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rnd.random() < 0.5 else -v for v in vars_))
    return CnfFormula(n, tuple(clauses))


def test_criterion4_sat_chain():
    bad = 0
    checked = 0
    # exhaustive tiny formulas: with three distinct variables per clause and
    # at most two variables, only the empty formula exists
    for n in (1, 2):
        rep = verify_reduction("3sat-hioct-linf2", CnfFormula(n, ()), {})
        checked += 1
        if not rep.agree:
            bad += 1
    rnd = random.Random(402)
    for _ in range(50):
        rep = verify_reduction("3sat-hioct-linf2", _random_formula(rnd), {})
        checked += 1
        if not rep.agree:
            bad += 1
    ok = bad == 0
    report("criterion 4 (SAT chain, exhaustive tiny + 50 seeded)", ok,
           f"{checked} checks, {bad} disagreements")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: centroid analytics


def test_criterion5_binary_closed_form():
    worst = 0.0
    for p in (Fraction(3, 2), Fraction(2), Fraction(3)):
        pf = float(p)
        for a in range(0, 11):
            for b in range(0, 11):
                if a + b == 0:
                    continue
                _, contrib = binary_coordinate_cost(a, b, p)
                lo, hi = 0.0, 1.0
                for _ in range(200):
                    m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                    f1 = a * m1**pf + b * (1 - m1) ** pf
                    f2 = a * m2**pf + b * (1 - m2) ** pf
                    if f1 <= f2:
                        hi = m2
                    else:
                        lo = m1
                z = (lo + hi) / 2
                worst = max(worst, abs(float(contrib) - (a * z**pf + b * (1 - z) ** pf)))
    ok = worst < 1e-9
    report("criterion 5 (binary-coordinate closed form)", ok,
           f"max |closed form - numeric| = {worst:.2e}")
    assert ok


def test_criterion5_per_one_contribution_decreasing():
    violations = 0
    for p in (Fraction(3, 2), Fraction(2), Fraction(3)):
        for s in range(2, 13):
            last = None
            for b in range(1, s):
                _, f = binary_coordinate_cost(s - b, b, p)
                val = float(f) / b
                if last is not None and val >= last:
                    violations += 1
                last = val
    ok = violations == 0
    report("criterion 5 (per-one contribution strictly decreasing)", ok,
           f"{violations} violations for s <= 12")
    assert ok


def test_criterion5_median_and_present_value_grids():
    rnd = random.Random(501)
    bad = 0
    for case in range(1000):
        n = rnd.randint(1, 8)
        vals = [rnd.randint(0, 10) for _ in range(n)]
        ws = [rnd.randint(1, 4) for _ in range(n)]
        cluster = WeightedCluster.of([(v,) for v in vals], ws)
        if case % 2 == 0:
            _, cost = centroid_l1(cluster)
            best = min(
                sum(w * abs(Fraction(v) - Fraction(z, 4)) for v, w in zip(vals, ws))
                for z in range(4 * min(vals), 4 * max(vals) + 1)
            )
            if cost.exact != best:
                bad += 1
        else:
            _, cost = centroid_lp(cluster, Fraction(1, 2))
            got = float(cost_eval(cost))
            lo, hi = min(vals), max(vals)
            for step in range(8 * lo, 8 * hi + 1):
                z = step / 8
                if got > sum(w * abs(v - z) ** 0.5 for v, w in zip(vals, ws)) + 1e-9:
                    bad += 1
                    break
    ok = bad == 0
    report("criterion 5 (median / present-value optimality, 1000 cases)", ok,
           f"{bad} failures")
    assert ok


def test_criterion5_linf_lp_equals_grid():
    rnd = random.Random(502)
    bad = 0
    for _ in range(500):
        d = rnd.randint(1, 4)
        n = rnd.randint(1, 5)
        pts = sorted({tuple(rnd.randint(-2, 2) for _ in range(d)) for _ in range(n)})
        ws = [rnd.randint(1, 3) for _ in pts]
        cluster = WeightedCluster(tuple(pts), tuple(ws))
        if centroid_linf_lp(cluster)[1].exact != centroid_linf_grid(cluster)[1].exact:
            bad += 1
    ok = bad == 0
    report("criterion 5 (exact LP vs half-integral grid, 500 clusters)", ok,
           f"{bad} mismatches")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: structural invariants


def test_criterion6_merge_floor_on_encountered_clusters():
    checked = 0
    bad = 0
    for name in SELECTION_ENVELOPES:
        for inst, _, slow in criterion2_stream(name):
            if not slow.decision or inst.num_groups < 2:
                continue
            cluster = inst.chosen_cluster(slow.indices)
            _, cost = optimal_cluster_cost(inst.order, cluster)
            floor = merge_cost_bound(inst.order) * (inst.num_groups - 1)
            checked += 1
            if float(cost_eval(cost)) < float(floor) - 1e-9:
                bad += 1
    for name in CLUSTERING_ENVELOPES:
        rows, _ = criterion3_stream(name)
        for inst, _, brute, *_ in rows:
            if brute.clustering is None:
                continue
            for members, cost in zip(brute.clustering.clusters,
                                     brute.clustering.cluster_costs):
                if len(members) < 2:
                    continue
                floor = merge_cost_bound(inst.order) * (len(members) - 1)
                checked += 1
                if float(cost_eval(cost)) < float(floor) - 1e-9:
                    bad += 1
    ok = bad == 0 and checked > 0
    report("criterion 6 (merge cost floor on encountered clusters)", ok,
           f"{checked} composite clusters, {bad} violations")
    assert ok


def test_criterion6_half_weight_fixing():
    rnd = random.Random(601)
    bad = 0
    for case in range(1000):
        shared = rnd.randint(0, 5)
        n_other = rnd.randint(1, 4)
        agg: dict[tuple, int] = {(shared,): 0}
        for _ in range(n_other):
            v = rnd.randint(0, 5)
            agg[(v,)] = agg.get((v,), 0) + rnd.randint(1, 2)
        other_weight = sum(w for pt, w in agg.items() if pt != (shared,))
        agg[(shared,)] += other_weight + rnd.randint(0, 2)
        cluster = WeightedCluster(tuple(agg), tuple(agg.values()))
        p = Fraction(1, 2)
        for which in ("l1", "lp"):
            c, cost = (centroid_l1(cluster) if which == "l1"
                       else centroid_lp(cluster, p))
            exponent = 1.0 if which == "l1" else 0.5
            at_shared = sum(
                w * abs(pt[0] - shared) ** exponent for pt, w in agg.items()
            )
            if 2 * agg[(shared,)] > cluster.total_weight:
                if c != (shared,):
                    bad += 1
            elif float(cost_eval(cost)) > at_shared + 1e-9:
                bad += 1
    ok = bad == 0
    report("criterion 6 (half-weight coordinate fixing, 1000 clusters)", ok,
           f"{bad} violations")
    assert ok


def test_criterion6_cost_set_completeness_on_observed_optima():
    bad = 0
    checked = 0
    for name in CLUSTERING_ENVELOPES:
        rows, base = criterion3_stream(name)
        order = CLUSTERING_ENVELOPES[name][0]
        members = enumerate_cost_set(order, base, n=8).members
        exacts = {m.exact for m in members if m.exact is not None}
        for inst, _, brute, *_ in rows:
            if brute.clustering is None:
                continue
            for cost in brute.clustering.cluster_costs:
                if not cost_le(cost, base):
                    continue
                checked += 1
                if cost.exact is not None:
                    if cost.exact not in exacts:
                        bad += 1
                elif not any(cost_eq(cost, m) for m in members):
                    bad += 1
    ok = bad == 0 and checked > 0
    report("criterion 6 (cost-set completeness on observed optima)", ok,
           f"{checked} costs checked, {bad} missing")
    assert ok


def test_criterion6_coloring_estimate_matches_closed_form():
    import math

    bad = 0
    for t_colors in range(1, 7):
        p_hat, trials = coloring_success_estimate(t_colors, 10_000, seed=602)
        expected = math.factorial(t_colors) / t_colors**t_colors
        sigma = (expected * (1 - expected) / trials) ** 0.5
        if abs(p_hat - expected) > 3 * sigma + 1e-12:
            bad += 1
    ok = bad == 0
    report("criterion 6 (distinct-color probability vs closed form)", ok,
           f"T = 1..6 at 10000 trials, {bad} outside 3 sigma")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: hypergraph engine


def test_criterion7_pattern_mode_soundness():
    misses = 0
    yes_seen = 0
    for name in ("p=1/2", "p=1"):
        order = SELECTION_ENVELOPES[name][0]
        for inst, _, slow in criterion2_stream(name):
            if not slow.decision:
                continue
            yes_seen += 1
            pivot = inst.groups[0][slow.indices[0]]
            all_vecs = {pt for g in inst.groups for pt in g}
            if tuple(slow.centroid) in all_vecs:
                continue  # the lemma's other case: an input vector is a centroid
            others = [
                (pt, w)
                for g, (pts, ws) in enumerate(zip(inst.groups, inst.weights))
                for i, (pt, w) in enumerate(zip(pts, ws))
                if not (g == 0 and i == slow.indices[0])
            ]
            host = build_difference_hypergraph(pivot, others, inst.budget)
            differ = frozenset(
                i for i, (a, b) in enumerate(zip(pivot, slow.centroid)) if a != b
            )
            limit = cost_floor(inst.budget)
            if limit < 1:
                continue
            if differ not in candidate_coordinate_sets(host, limit, "pattern"):
                misses += 1
    ok = misses == 0 and yes_seen > 0
    report("criterion 7 (pattern-mode differ-set soundness)", ok,
           f"{yes_seen} yes instances, {misses} misses")
    assert ok


def test_criterion7_no_isomorphic_pattern_duplicates():
    def canonical(p):
        best = None
        for perm in itertools.permutations(range(p.num_vertices)):
            key = tuple(sorted(
                (tuple(sorted(perm[v] for v in e)), m) for e, m in p.edges
            ))
            if best is None or key < best:
                best = key
        return (p.num_vertices, best)

    dupes = 0
    total = 0
    for limit in (1, 2, 3):
        seen = set()
        for pattern in enumerate_patterns(limit):
            total += 1
            c = canonical(pattern)
            if c in seen:
                dupes += 1
            seen.add(c)
    ok = dupes == 0
    report("criterion 7 (pattern enumeration is duplicate free)", ok,
           f"{total} patterns across limits 1..3, {dupes} duplicates")
    assert ok
