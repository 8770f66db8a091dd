import itertools
import random
from fractions import Fraction

import pytest

from minkclust import (
    CnfFormula,
    DistanceOrder,
    EmptyGroupError,
    Graph,
    HioctInstance,
    WeightedCluster,
    gen_hioct_from_3sat,
    gen_l0_clustering_from_clique,
    gen_l0_selection_from_mcc,
    gen_l1_selection_from_mcc,
    gen_linf2_from_hioct,
    gen_linf_clustering_from_clique,
    gen_linf_selection_from_mcc,
    gen_lp_selection_from_mcc,
    graph_has_clique,
    hioct_bruteforce,
    hioct_check,
    l0_cluster_diagnostics,
    optimal_cluster_cost,
    select_bruteforce,
    solve_bruteforce,
    verify_reduction,
)
from minkclust import generators
from minkclust.generators import (
    REDUCTION_NAMES,
    BinarySelectionInstance,
    binary_lp_min_cost,
    build_reduction,
    hioct_delta_from_assignment,
    linf2_witness_cost,
    lp_mcc_budget,
    sat_satisfying_assignment,
)
from tests.helpers import (
    EX_CLIQUE_COLORED,
    EX_CLIQUE_GRAPH,
    EX_LINF_COLORED,
    EX_LINF_GRAPH,
    EX_OCT_GRAPH,
)

PATH3 = Graph.of(3, [(1, 2), (2, 3)])
TRIANGLE = Graph.of(3, [(1, 2), (1, 3), (2, 3)])
TRIANGLE_COLORED = Graph.of(3, [(1, 2), (1, 3), (2, 3)], colors=[1, 2, 3])
PATH3_COLORED = Graph.of(3, [(1, 2), (2, 3)], colors=[1, 2, 3])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.of(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.of(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph.of(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph.of(2, [(1, 2)], colors=[1])


def test_graph_has_clique():
    assert graph_has_clique(EX_CLIQUE_GRAPH, 3)
    assert not graph_has_clique(PATH3, 3)
    assert graph_has_clique(EX_CLIQUE_COLORED, 3, colorful=True)
    assert not graph_has_clique(PATH3_COLORED, 3, colorful=True)


def test_l0_clique_generator():
    inst = gen_l0_clustering_from_clique(EX_CLIQUE_GRAPH, 3)
    assert inst.dataset.total_count == 12
    assert inst.k == 10
    assert inst.budget.exact == 3
    assert inst.order == DistanceOrder.l0()
    # padding values pairwise distinct and above the vertex range, one per
    # vector at k = 3, in the clique and the colorful builder alike
    mcc = gen_l0_selection_from_mcc(EX_CLIQUE_COLORED, 3)
    for points in (inst.dataset.points, [pt for grp in mcc.groups for pt in grp]):
        pads = [v for pt in points for v in pt if v > 4]
        assert len(pads) == len(set(pads)) == len(points)
    assert not solve_bruteforce(gen_l0_clustering_from_clique(PATH3, 3)).decision
    assert solve_bruteforce(gen_l0_clustering_from_clique(TRIANGLE, 3)).decision
    with pytest.raises(ValueError):
        gen_l0_clustering_from_clique(EX_CLIQUE_GRAPH, 2)
    with pytest.raises(ValueError):
        gen_l0_clustering_from_clique(Graph.of(3, []), 3)


def test_l0_mcc_generator():
    inst = gen_l0_selection_from_mcc(EX_CLIQUE_COLORED, 3)
    assert inst.budget.exact == 3
    res = select_bruteforce(inst)
    assert res.decision and res.cost.exact == 3
    assert select_bruteforce(gen_l0_selection_from_mcc(TRIANGLE_COLORED, 3)).decision
    with pytest.raises(EmptyGroupError):
        gen_l0_selection_from_mcc(PATH3_COLORED, 3)  # colors 1,3 have no edge


def test_l1_mcc_generator():
    inst = gen_l1_selection_from_mcc(EX_CLIQUE_COLORED, 3)
    assert inst.budget.exact == 15 and inst.num_groups == 6
    assert select_bruteforce(inst).cost.exact == 15
    # no colorful triangle but every color pair still has a cross edge
    g = Graph.of(5, [(1, 2), (1, 3), (1, 4), (2, 5)], colors=[1, 2, 2, 3, 3])
    inst2 = gen_l1_selection_from_mcc(g, 3)
    assert not select_bruteforce(inst2).decision
    # a color pair without cross edges degenerates: vacuously no, signaled
    with pytest.raises(EmptyGroupError):
        gen_l1_selection_from_mcc(
            Graph.of(4, [(1, 2), (1, 3), (1, 4)], colors=[1, 2, 2, 3]), 3
        )
    inst3 = gen_l1_selection_from_mcc(TRIANGLE_COLORED, 3)
    assert inst3.budget.exact == 3 * 4 * 1
    assert select_bruteforce(inst3).decision


MCC_SELECTION_BUILDERS = {
    "l0-mcc": gen_l0_selection_from_mcc,
    "l1-mcc": gen_l1_selection_from_mcc,
    "lp-mcc": lambda g, k: gen_lp_selection_from_mcc(g, k, Fraction(2)),
}


@pytest.mark.parametrize("name", sorted(MCC_SELECTION_BUILDERS))
def test_mcc_selection_builders_reject_bad_sources(name):
    build = MCC_SELECTION_BUILDERS[name]
    with pytest.raises(ValueError, match="needs a colored graph"):
        build(TRIANGLE, 3)
    with pytest.raises(ValueError, match="need k >= 3"):
        build(TRIANGLE_COLORED, 2)
    with pytest.raises(EmptyGroupError, match="no edges between colors 1 and 3"):
        build(PATH3_COLORED, 3)


def test_linf_clique_generator():
    inst = gen_linf_clustering_from_clique(EX_LINF_GRAPH, 3)
    assert inst.dataset.dimension == 5 + 10 - 6
    assert inst.k == 3 and inst.budget.exact == 3
    assert solve_bruteforce(inst).decision
    k3 = gen_linf_clustering_from_clique(TRIANGLE, 3)
    assert k3.dataset.dimension == 3 and k3.k == 1 and k3.budget.exact == 3
    assert solve_bruteforce(k3).decision
    c5 = Graph.of(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert not solve_bruteforce(gen_linf_clustering_from_clique(c5, 3)).decision


def test_linf_mcc_generator():
    inst = gen_linf_selection_from_mcc(EX_LINF_COLORED, 3)
    res = select_bruteforce(inst)
    assert res.decision and res.cost.exact == 3
    assert select_bruteforce(gen_linf_selection_from_mcc(TRIANGLE_COLORED, 3)).decision
    edgeless = Graph.of(3, [], colors=[1, 2, 3])
    assert not select_bruteforce(gen_linf_selection_from_mcc(edgeless, 3)).decision


def test_lp_mcc_generator():
    assert lp_mcc_budget(3, Fraction(2)) == 2
    inst = gen_lp_selection_from_mcc(EX_CLIQUE_COLORED, 3, Fraction(2))
    assert inst.budget.exact == 2
    assert select_bruteforce(inst).decision
    assert select_bruteforce(
        gen_lp_selection_from_mcc(TRIANGLE_COLORED, 3, Fraction(2))
    ).decision
    g = Graph.of(4, [(1, 3), (1, 4), (2, 4)], colors=[1, 2, 2, 3])
    inst2 = gen_lp_selection_from_mcc(g, 3, Fraction(2))
    assert not select_bruteforce(inst2).decision
    # non-Euclidean exponents give the numeric encoding
    b = gen_lp_selection_from_mcc(EX_CLIQUE_COLORED, 3, Fraction(3, 2))
    assert isinstance(b, BinarySelectionInstance)
    best = binary_lp_min_cost(b)
    import mpmath

    assert best <= mpmath.mpf(b.budget_repr) + mpmath.mpf("1e-25")


LP_MCC_EXPONENTS = [Fraction(9, 8), Fraction(5, 4), Fraction(3, 2), Fraction(11, 5), Fraction(7, 3),
                    Fraction(5, 2), Fraction(3), Fraction(13, 4), Fraction(4), Fraction(6)]


@pytest.mark.parametrize("k", [3, 4])
def test_lp_mcc_verify_on_complete_graphs(k):
    """On the colourful complete graph K_k every exponent p > 1 has a yes
    target whose minimum equals the 40-digit budget, which must be read at
    the construction's working precision, not at mpmath's global one."""
    complete = Graph.of(k, itertools.combinations(range(1, k + 1), 2), colors=range(1, k + 1))
    for p in LP_MCC_EXPONENTS:
        rep = verify_reduction("lp-mcc", complete, {"k": k, "p": p})
        assert rep.source_yes and rep.target_yes, (k, p, rep.details)


def test_hioct_generator_counts():
    f = CnfFormula(3, ((1, -2, 3),))
    h = gen_hioct_from_3sat(f)
    assert h.graph.n == 6 + 21 + 4 == 31
    assert h.t == 6
    # literal vertices sit on the clause cycle: x1, x2', x3
    deg = {v: 0 for v in range(1, h.graph.n + 1)}
    for u, v in h.graph.edges:
        deg[u] += 1
        deg[v] += 1
    assert deg[1] == 1 + 7 + 2  # x1: pair edge, y's, two cycle edges
    assert deg[4] == 1 + 7 + 2  # x2' is vertex 4
    assert deg[5] == 1 + 7 + 2  # x3 is vertex 5
    with pytest.raises(ValueError):
        CnfFormula(3, ((1, 1, 2),))


def test_hioct_sat_witness_chain():
    f = CnfFormula(3, ((1, -2, 3),))
    assignment = sat_satisfying_assignment(f)
    assert assignment is not None
    h = gen_hioct_from_3sat(f)
    delta = hioct_delta_from_assignment(h, assignment)
    assert sum(delta) == h.t
    assert hioct_check(h, delta)
    inst = gen_linf2_from_hioct(h)
    witness = linf2_witness_cost(h, delta)
    assert witness <= inst.budget.exact


def test_linf2_witness_cost_equals_the_direct_max():
    """Pricing each vertex by its incident gaps and its side's largest
    centroid value off them gives the max over every coordinate, with and
    without the fresh isolated edges, on random satisfiable formulas."""
    rnd = random.Random(2121)
    checked = 0
    while checked < 12:
        n = rnd.randint(3, 5)
        clauses = tuple(
            tuple(v * rnd.choice((1, -1)) for v in rnd.sample(range(1, n + 1), 3))
            for _ in range(rnd.randint(1, 5))
        )
        f = CnfFormula(n, clauses)
        assignment = sat_satisfying_assignment(f)
        if assignment is None:
            continue
        h = gen_hioct_from_3sat(f)
        delta = hioct_delta_from_assignment(h, assignment)
        for include in (True, False):
            edges, side, centroids = generators._linf2_witness(h, delta, include)
            direct = sum(
                max(abs((2 if a == v else -2 if b == v else 0) - y)
                    for (a, b), y in zip(edges, centroids[side[v - 1]]))
                for v in range(1, len(side) + 1)
            )
            assert linf2_witness_cost(h, delta, include) == direct
        checked += 1


def test_unsat_formula_detected():
    clauses = tuple(
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    )
    f = CnfFormula(3, clauses)
    assert sat_satisfying_assignment(f) is None


def test_hioct_bruteforce_small_graphs():
    assert hioct_bruteforce(HioctInstance(TRIANGLE, 2))  # delta=1 on two vertices
    assert not hioct_bruteforce(HioctInstance(TRIANGLE, 1))
    assert hioct_bruteforce(HioctInstance(PATH3, 0))  # already bipartite
    c5 = Graph.of(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert hioct_bruteforce(HioctInstance(c5, 2))
    assert not hioct_bruteforce(HioctInstance(c5, 1))
    # validity checker
    assert hioct_check(HioctInstance(TRIANGLE, 2), [1, 1, 0])
    assert not hioct_check(HioctInstance(TRIANGLE, 2), [2, 2, 0])  # over budget


def test_linf2_shapes():
    h = HioctInstance(EX_OCT_GRAPH, 2)
    bare = gen_linf2_from_hioct(h, include_isolated_edges=False)
    assert (bare.dataset.total_count, bare.dataset.dimension) == (4, 5)
    assert bare.budget.exact == 6 and bare.k == 2
    full = gen_linf2_from_hioct(h)
    assert (full.dataset.total_count, full.dataset.dimension) == (18, 12)
    assert full.budget.exact == 20
    # single edge, t = 0: bipartite, certified yes through the witness path
    single = HioctInstance(Graph.of(2, [(1, 2)]), 0)
    inst = gen_linf2_from_hioct(single)
    assert inst.dataset.total_count == 12 and inst.budget.exact == 12
    assert linf2_witness_cost(single, [0, 0]) <= inst.budget.exact


def test_linf_cluster_cost_floor():
    """Any cluster of two or more construction vectors costs at least its
    size, and strictly more with a non-edge pair inside."""
    for g in (EX_LINF_GRAPH, EX_CLIQUE_GRAPH, TRIANGLE, PATH3):
        inst = gen_linf_clustering_from_clique(g, min(3, g.n))
        pts = inst.dataset.points
        es = g.edge_set()
        for size in (2, 3):
            for combo in itertools.combinations(range(len(pts)), size):
                cluster = WeightedCluster.of([pts[i] for i in combo])
                _, cost = optimal_cluster_cost(inst.order, cluster)
                assert cost.exact >= size
                pairs = itertools.combinations(combo, 2)
                if any((u + 1, v + 1) not in es for u, v in pairs):
                    assert cost.exact >= size + 1


def test_l0_diagnostics():
    inst = gen_l0_selection_from_mcc(EX_CLIQUE_COLORED, 3)
    res = select_bruteforce(inst)
    cluster = inst.chosen_cluster(res.indices)
    beta, gamma, ratio = l0_cluster_diagnostics(cluster, 4)
    assert (beta, gamma) == (3, 0)
    assert ratio == Fraction(1, 2) == Fraction(3 - 2, 3 - 1)

    clustering = gen_l0_clustering_from_clique(EX_CLIQUE_GRAPH, 3)
    pts = clustering.dataset.points
    # two vectors from the same coordinate pair, sharing only vertex 1
    pair = WeightedCluster.of([pts[0], pts[1]])
    beta, gamma, ratio = l0_cluster_diagnostics(pair, 4)
    assert ratio > Fraction(1, 2)
    # sweep: every composite cluster of the instance respects the floor,
    # with equality exactly on clique clusters
    kappa = Fraction(1, 2)
    for size in (2, 3):
        for combo in itertools.combinations(range(len(pts)), size):
            cluster = WeightedCluster.of([pts[i] for i in combo])
            _, _, ratio = l0_cluster_diagnostics(cluster, 4)
            assert ratio >= kappa
            if ratio == kappa:
                verts = set()
                for i in combo:
                    verts |= {v for v in pts[i] if v <= 4}
                assert len(verts) == 3
                assert all(
                    (min(u, v), max(u, v)) in EX_CLIQUE_GRAPH.edge_set()
                    for u, v in itertools.combinations(sorted(verts), 2)
                )
    with pytest.raises(ValueError):
        l0_cluster_diagnostics(WeightedCluster.of([pts[0]]), 4)


def test_verify_reduction_examples():
    rep = verify_reduction("l0-clique", EX_CLIQUE_GRAPH, {"k": 3})
    assert rep.agree and rep.source_yes and rep.details["min_cost"].exact == 3
    rep = verify_reduction("l1-mcc", PATH3_COLORED, {"k": 3})
    assert rep.agree and not rep.source_yes and not rep.target_yes
    rep = verify_reduction("3sat-hioct-linf2", CnfFormula(3, ((1, -2, 3),)), {})
    assert rep.agree and rep.source_yes and rep.target_yes
    rep = verify_reduction("linf-clique", EX_LINF_GRAPH, {"k": 3})
    assert rep.agree and rep.source_yes
    with pytest.raises(ValueError):
        verify_reduction("nope", EX_CLIQUE_GRAPH, {})


@pytest.mark.parametrize("name", REDUCTION_NAMES)
def test_reductions_reject_a_source_of_the_wrong_kind(monkeypatch, name):
    """Each reduction names the kind of source it starts from; a source of the
    other kind raises ``TypeError`` from both entry points before any oracle
    or generator runs, rather than an ``AttributeError`` from inside one."""
    def ran(*args, **kwargs):
        raise AssertionError("an oracle or generator ran on a source of the wrong kind")

    for attr in ("graph_has_clique", "sat_satisfying_assignment", "hioct_bruteforce",
                 "gen_hioct_from_3sat", "solve_bruteforce", "select_bruteforce"):
        monkeypatch.setattr(generators, attr, ran)
    formula = CnfFormula(3, ((1, -2, 3),))
    wrong = TRIANGLE_COLORED if name == "3sat-hioct-linf2" else formula
    kind = "a 3-CNF formula" if name == "3sat-hioct-linf2" else "a graph"
    for entry in (lambda: verify_reduction(name, wrong, {"k": 3}),
                  lambda: build_reduction(name, wrong)):
        with pytest.raises(TypeError, match=f"{name} starts from {kind}"):
            entry()
