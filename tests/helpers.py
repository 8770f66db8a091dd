"""Shared builders for randomized oracle sweeps."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from minkclust import (
    Clustering,
    ClusteringInstance,
    Cost,
    Dataset,
    DistanceOrder,
    Graph,
    SelectionInstance,
    SelectionResult,
    WeightedCluster,
    cost_eq,
    cost_eval,
    cost_le,
    optimal_cluster_cost,
    regularize,
    select_fixed_centroid,
)
from minkclust.selection import _FLOAT_SLACK


# criterion-2 envelopes per order: (order, instance shape, budgets, seed)
SELECTION_ENVELOPES = {
    "p=1/2": (DistanceOrder.lp(Fraction(1, 2)),
              dict(t_max=3, per_group=3, d_max=4, coord_hi=3, weight_max=2),
              [Cost.of(v) for v in range(0, 5)], 811),
    "p=1": (DistanceOrder.l1(),
            dict(t_max=3, per_group=3, d_max=4, coord_hi=3, weight_max=2),
            [Cost.of(v) for v in range(0, 5)], 812),
    "p=2": (DistanceOrder.l2(),
            dict(t_max=3, per_group=3, d_max=3, coord_hi=2, weight_max=2),
            [Cost.of(Fraction(z, 4)) for z in range(0, 13)], 813),
    "p=inf": (DistanceOrder.linf(),
              dict(t_max=3, per_group=3, d_max=3, coord_lo=-2, coord_hi=2,
                   weight_max=2),
              [Cost.of(Fraction(h, 2)) for h in range(0, 5)], 814),
    "p=0": (DistanceOrder.l0(),
            dict(t_max=3, per_group=3, d_max=3, coord_hi=4, weight_max=2),
            [Cost.of(v) for v in range(0, 4)], 815),
}


def random_selection_instance(
    rnd: random.Random,
    order: DistanceOrder,
    budget: Cost,
    t_max: int = 3,
    per_group: int = 3,
    d_max: int = 3,
    coord_lo: int = 0,
    coord_hi: int = 3,
    weight_max: int = 1,
    d_min: int = 1,
    per_group_min: int = 1,
) -> SelectionInstance:
    d = rnd.randint(d_min, d_max)
    t = rnd.randint(1, t_max)
    pool = set()
    groups = []
    weights = []
    for _ in range(t):
        size = rnd.randint(per_group_min, per_group)
        grp = []
        ws = []
        tries = 0
        while len(grp) < size and tries < 200:
            tries += 1
            pt = tuple(rnd.randint(coord_lo, coord_hi) for _ in range(d))
            if pt in pool:
                continue
            pool.add(pt)
            grp.append(pt)
            ws.append(rnd.randint(1, weight_max))
        if not grp:  # coordinate space exhausted; force a fresh dimension value
            return random_selection_instance(
                rnd, order, budget, t_max, per_group, d_max, coord_lo, coord_hi, weight_max,
                d_min, per_group_min
            )
        groups.append(grp)
        weights.append(ws)
    return SelectionInstance.of(groups, budget, order, weights)


def tagged_selection_instance(
    rnd: random.Random,
    order: DistanceOrder,
    budget: Cost,
    coord_hi: int = 1,
) -> SelectionInstance:
    """Five or six groups of at most three rows drawn from one small
    weighted grid, {0..coord_hi}^2 with a weight 1 or 2 per grid row, made
    disjoint by three more coordinates holding the group's index in binary.
    Every prefix of g groups has the same tag columns, so two prefixes share
    their column states whenever they take the same grid rows in another
    order."""
    t = rnd.randint(5, 6)
    grid = [(row, rnd.randint(1, 2)) for row in itertools.product(range(coord_hi + 1), repeat=2)]
    groups, weights = [], []
    for g in range(t):
        tag = ((g >> 2) & 1, (g >> 1) & 1, g & 1)
        rows = rnd.sample(grid, rnd.randint(1, min(3, len(grid))))
        groups.append([row + tag for row, _ in rows])
        weights.append([w for _, w in rows])
    return SelectionInstance.of(groups, budget, order, weights)


def bruteforce_reference(inst: SelectionInstance) -> SelectionResult:
    """The naive selection oracle: every tuple in ``itertools.product`` order
    priced whole by ``optimal_cluster_cost``, the first minimum kept."""
    best = None
    for combo in itertools.product(*(range(len(g)) for g in inst.groups)):
        centroid, cost = optimal_cluster_cost(inst.order, inst.chosen_cluster(combo))
        if best is None or not cost_le(best.cost, cost):
            best = SelectionResult(False, combo, centroid, cost)
    best.decision = cost_le(best.cost, inst.budget)
    return best


def coordinate_search_reference(inst: SelectionInstance,
                                minimize: bool = False) -> SelectionResult:
    """The Hamming and p in (0, 1] centroid search without its cuts: every
    centroid of the present-value grid in lexicographic order, priced by its
    greedy total as the search sums it (integer mismatch counts or gaps, or
    floats |a - v|**p; row partials summed coordinate by coordinate, then each
    group's least partial summed in group order).  A centroid whose total is
    within the limit (the bound's floor, or after a witness the largest
    integer below it; for p < 1 the bound's float plus its ``_FLOAT_SLACK``
    share) counts as tried and is re-costed exactly by
    ``select_fixed_centroid``.  In decision form the first admitted centroid
    ends the walk; in minimise form each strictly cheaper one becomes the
    incumbent, reported at its tuple's own optimal centroid.

    ``stats["nodes"]`` is the node count of the search cut by the greedy
    total alone: the root plus each prefix within the limit in force when the
    walk reaches the prefix's first leaf.  Small coordinates only: a gap
    beyond the float range raises."""
    order = inst.order
    rows = [(g, pt, w) for g, _, pt, w in inst.iter_vectors()]
    integer = order.kind == "l0" or order.p == 1
    if order.kind == "l0":
        price = lambda a, v: int(a != v)
    elif integer:
        price = lambda a, v: abs(a - v)
    else:
        p = float(order.p)
        price = lambda a, v: abs(a - v) ** p

    def limit():
        if integer:
            return math.floor(bound.exact) if best is None else math.ceil(bound.exact) - 1
        value = float(cost_eval(bound))
        return value + _FLOAT_SLACK * max(1.0, value)

    def greedy(partial):
        lows = [math.inf] * inst.num_groups
        for (g, _, _), cost in zip(rows, partial):
            lows[g] = min(lows[g], cost)
        return sum(lows)

    columns = [sorted({pt[j] for _, pt, _ in rows}) for j in range(inst.dimension)]
    best, bound, tried, nodes = None, inst.budget, 0, 1
    lim = limit()
    for centroid in itertools.product(*columns):
        partial = [0] * len(rows)
        for j, v in enumerate(centroid):
            partial = [s + w * price(pt[j], v) for s, (_, pt, w) in zip(partial, rows)]
            first = all(c == col[0] for c, col in zip(centroid[j + 1:], columns[j + 1:]))
            if first and greedy(partial) <= lim:
                nodes += 1
        if greedy(partial) > lim:
            continue
        tried += 1
        res = select_fixed_centroid(inst, centroid)
        if cost_le(res.cost, bound) if best is None else not cost_le(bound, res.cost):
            at, cost = optimal_cluster_cost(order, inst.chosen_cluster(res.indices))
            best, bound = SelectionResult(True, res.indices, at, cost), cost
            if not minimize or cost.exact == 0:
                break
            lim = limit()
    result = best or SelectionResult(False)
    result.stats = {"centroids_tried": tried, "nodes": nodes}
    return result


def set_partitions(items: list, k: int):
    """Every partition of ``items`` into at most ``k`` nonempty blocks."""
    if not items:
        yield []
        return
    first = items[0]
    for blocks in set_partitions(items[1:], k):
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1:]
        if len(blocks) < k:
            yield [[first]] + blocks


def solve_bruteforce_reference(inst: ClusteringInstance) -> tuple[bool, Cost]:
    """The naive clustering oracle: every partition of the initial clusters
    into at most k parts, each part priced by ``optimal_cluster_cost``, with no
    cut.  Returns the decision and the minimum cost.

    ``optimal_cluster_cost`` prices pairs by the general centroid rules too,
    the max distance by its LP, so this reference is independent of the
    closed-form ``pair_cost`` that the oracle's pair table and ``cluster_cost``
    use; keep it so."""
    initial = regularize(inst.dataset)
    best = None
    for blocks in set_partitions(list(range(len(initial))), inst.k):
        total = Cost.of(0)
        for block in blocks:
            cluster = WeightedCluster(tuple(initial[i].representative for i in block),
                                      tuple(initial[i].size for i in block))
            total = total + optimal_cluster_cost(inst.order, cluster)[1]
        if best is None or not cost_le(best, total):
            best = total
    return cost_le(best, inst.budget), best


def assert_valid_witness(inst: ClusteringInstance, clustering: Clustering) -> None:
    """A yes's witness is a regular partition of the initial clusters into
    min(k, n) clusters whose costs, re-priced by ``optimal_cluster_cost``,
    sum exactly to its total, within the budget."""
    initial = regularize(inst.dataset)
    members = sorted(m for cluster in clustering.clusters for m in cluster)
    assert members == sorted((ic.representative, ic.size) for ic in initial), inst
    assert len(clustering.clusters) == min(inst.k, len(initial)), inst
    total = Cost.of(0)
    for cluster in clustering.clusters:
        total = total + optimal_cluster_cost(inst.order, WeightedCluster(
            tuple(pt for pt, _ in cluster), tuple(w for _, w in cluster)))[1]
    assert cost_eq(total, clustering.total_cost) and cost_le(total, inst.budget), inst


def random_clustering_instance(
    rnd: random.Random,
    order: DistanceOrder,
    budget: Cost,
    max_initial: int = 6,
    d_max: int = 3,
    coord_lo: int = 0,
    coord_hi: int = 3,
    k_max: int = 4,
    w_max: int = 2,
) -> ClusteringInstance:
    d = rnd.randint(1, d_max)
    n_pts = rnd.randint(2, max_initial)
    pts = []
    seen = set()
    tries = 0
    while len(pts) < n_pts and tries < 300:
        tries += 1
        pt = tuple(rnd.randint(coord_lo, coord_hi) for _ in range(d))
        if pt in seen:
            continue
        seen.add(pt)
        pts.append(pt)
    mults = tuple(rnd.randint(1, w_max) for _ in pts)
    k = rnd.randint(1, min(k_max, len(pts)))
    ds = Dataset(d, tuple(pts), mults)
    return ClusteringInstance(ds, k, budget, order)


def random_colored_graph(rnd: random.Random, n_max: int = 7, k: int = 3,
                         edge_p: float = 0.5) -> Graph:
    n = rnd.randint(k, n_max)
    colors = [rnd.randint(1, k) for _ in range(n)]
    for c in range(1, k + 1):
        if c not in colors:
            colors[rnd.randrange(n)] = c
    while len(set(colors)) < k:
        colors = [rnd.randint(1, k) for _ in range(n)]
        for c in range(1, k + 1):
            if c not in colors:
                colors[rnd.randrange(n)] = c
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rnd.random() < edge_p
    ]
    return Graph.of(n, edges, colors)


def atlas_graphs(max_vertices: int, require_edge: bool = True) -> list[Graph]:
    """All non-isomorphic graphs with at most ``max_vertices`` vertices."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g()[1:]:
        if g.number_of_nodes() > max_vertices:
            break
        if require_edge and g.number_of_edges() == 0:
            continue
        out.append(Graph.of(g.number_of_nodes(),
                            [(u + 1, v + 1) for u, v in g.edges()]))
    return out


EX_CLIQUE_GRAPH = Graph.of(4, [(1, 2), (1, 3), (1, 4), (2, 4)])
EX_CLIQUE_COLORED = Graph.of(4, [(1, 2), (1, 3), (1, 4), (2, 4)], colors=[1, 2, 2, 3])
EX_LINF_GRAPH = Graph.of(5, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
EX_LINF_COLORED = Graph.of(5, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)],
                            colors=[1, 2, 2, 3, 3])
EX_OCT_GRAPH = Graph.of(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])


def tied_selection_instance(
    rnd: random.Random,
    order: DistanceOrder,
    budget: Cost,
) -> SelectionInstance:
    """Tie-prone groups for an exponent p = 1/q.  One group holds the origin
    alone, at a weight no smaller than all others together, so that it is
    every tuple's optimal centroid.  The other one to three groups hold two
    or three distinct rows of weight 1 or 2, each a unit vector, 2**q times
    one, or the sum of two, in d = 3 or 4 coordinates.  A row costs its
    weight times its number of 1s plus twice its number of 2**q, since
    (2**q)**p = 2: rows such as (2**q, 0, 0) and (1, 1, 0) cost the same with
    different term lists, and so do the tuples that take them."""
    far = round(2 ** (1 / order.p))
    d = rnd.randint(3, 4)
    pool = [row for row in itertools.product((0, 1, far), repeat=d)
            if sorted(row)[-2:] in ([0, 1], [0, far], [1, 1])]
    rnd.shuffle(pool)
    groups, weights = [], []
    for _ in range(rnd.randint(1, 3)):
        size = rnd.randint(2, 3)
        groups.append([pool.pop() for _ in range(size)])
        weights.append([rnd.randint(1, 2) for _ in range(size)])
    at = rnd.randint(0, len(groups))
    groups.insert(at, [(0,) * d])
    weights.insert(at, [2 * len(groups)])
    return SelectionInstance.of(groups, budget, order, weights)


def dense_family(n: int) -> ClusteringInstance:
    """The unit vectors e_1..e_n under L1, k = n - 2 and budget 5/2, so T = 5.
    Every pair costs 2, so two merges cost at least 3: the answer is no."""
    points = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return ClusteringInstance(Dataset(n, points, (1,) * n), n - 2, Cost.of(Fraction(5, 2)),
                              DistanceOrder.l1())


def spread_family(n: int) -> ClusteringInstance:
    """n initial clusters in {0..199}^6 under L1, k = n - 3 and budget 3, so
    T = 6: three planted pairs at distances 1, 1 and 2 (the first coordinate
    moved), the rest drawn uniformly, all from ``random.Random(1)``.  The
    planted merges cost 4: the answer is no."""
    rnd = random.Random(1)
    points: list[tuple[int, ...]] = []
    for gap in (1, 1, 2):
        base = tuple(rnd.randint(0, 199 - gap) for _ in range(6))
        points += [base, (base[0] + gap,) + base[1:]]
    while len(points) < n:
        point = tuple(rnd.randint(0, 199) for _ in range(6))
        if point not in points:
            points.append(point)
    return ClusteringInstance(Dataset(6, tuple(points), (1,) * n), n - 3, Cost.of(3),
                              DistanceOrder.l1())
