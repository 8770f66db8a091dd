import itertools
import random
from fractions import Fraction

import pytest

from minkclust import (
    Cost,
    DistanceOrder,
    WeightedCluster,
    binary_coordinate_cost,
    centroid_l0,
    centroid_l1,
    centroid_l2,
    centroid_linf_grid,
    centroid_linf_lp,
    centroid_lp,
    cluster_cost,
    cost_eq,
    cost_eval,
    cost_le,
    optimal_cluster_cost,
    summed_cost,
)
from minkclust import centroids, simplex
from minkclust.centroids import _linf_flow, _linf_vertex, _present_value


def test_median_examples():
    c, cost = centroid_l1(WeightedCluster.of([(2,), (3,), (6,), (8,)]))
    assert c == (3,) and cost.exact == 9
    c, cost = centroid_l1(WeightedCluster.of([(5, 7)], [4]))
    assert c == (5, 7) and cost.exact == 0
    c, cost = centroid_l1(WeightedCluster.of([(0,), (10,)], [3, 1]))
    assert c == (0,) and cost.exact == 10


def test_present_value_examples():
    c, cost = centroid_lp(WeightedCluster.of([(2,), (3,), (6,), (8,)]), Fraction(1, 2))
    assert c == (3,)
    assert float(cost_eval(cost)) == pytest.approx(1 + 3**0.5 + 5**0.5, abs=1e-9)
    c, cost = centroid_lp(WeightedCluster.of([(4, 4)], [3]), Fraction(1, 2))
    assert c == (4, 4) and cost.exact == 0
    c, cost = centroid_lp(WeightedCluster.of([(0,), (1,)]), Fraction(1, 2))
    assert c == (0,) and cost.terms == ((1, 1),)


def test_mean_examples():
    c, cost = centroid_l2(WeightedCluster.of([(0, 0), (2, 0), (1, 3)]))
    assert c == (1, 1) and cost.exact == 8
    c, cost = centroid_l2(WeightedCluster.of([(7,)], [2]))
    assert c == (7,) and cost.exact == 0
    c, cost = centroid_l2(WeightedCluster.of([(0,), (1,)], [1, 2]))
    assert c == (Fraction(2, 3),) and cost.exact == Fraction(2, 3)


def test_mode_examples():
    c, cost = centroid_l0(WeightedCluster.of([(1,), (1,), (2,)]))
    assert c == (1,) and cost.exact == 1
    c, _ = centroid_l0(WeightedCluster.of([(1,), (2,)]))
    assert c == (1,)  # ties take the lowest value
    fig = WeightedCluster.of([(1, 2, 25), (1, 31, 4), (44, 2, 4)])
    c, cost = centroid_l0(fig)
    assert c == (1, 2, 4) and cost.exact == 3


def test_chebyshev_examples():
    x3, x4 = (0, -2, 0, -2, 0), (0, 0, -2, 0, -2)
    c, cost = centroid_linf_lp(WeightedCluster.of([x3, x4]))
    assert cost.exact == 2
    _, cost_g = centroid_linf_grid(WeightedCluster.of([x3, x4]))
    assert cost_g.exact == 2
    c, cost = centroid_linf_lp(WeightedCluster.of([(9, -1)]))
    assert c == (9, -1) and cost.exact == 0
    _, cost = centroid_linf_lp(WeightedCluster.of([(0,), (3,)]))
    assert cost.exact == 3
    c, cost = centroid_linf_grid(WeightedCluster.of([(0, 0), (1, 1)]))
    assert cost.exact == 1  # (1/2, 1/2) is one optimum; ties resolve low
    assert max(abs(v - x) for v, x in zip(c, (0, 0))) + max(
        abs(v - x) for v, x in zip(c, (1, 1))
    ) == 1
    _, cost = centroid_linf_grid(WeightedCluster.of([(4, 4)], [2]))
    assert cost.exact == 0


def test_grid_cap():
    pts = [tuple([0] * 12), tuple([9] * 12)]
    with pytest.raises(ValueError):
        centroid_linf_grid(WeightedCluster.of(pts), cap=1000)


def test_binary_coordinate_cost_examples():
    c, f = binary_coordinate_cost(1, 2, Fraction(2))
    assert c == Fraction(2, 3) and f == Fraction(2, 3)
    c, f = binary_coordinate_cost(1, 1, Fraction(2))
    assert c == Fraction(1, 2) and f == Fraction(1, 2)
    c, f = binary_coordinate_cost(1, 1, Fraction(3))
    assert float(c) == pytest.approx(0.5) and float(f) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        binary_coordinate_cost(0, 0, Fraction(2))
    with pytest.raises(ValueError):
        binary_coordinate_cost(1, 1, Fraction(1, 2))


def test_binary_cost_matches_numeric_minimum():
    """Closed form against direct 1-D minimization, within 1e-9."""
    for p in (Fraction(3, 2), Fraction(2), Fraction(3)):
        pf = float(p)
        for a in range(0, 11):
            for b in range(0, 11):
                if a + b == 0:
                    continue
                _, contrib = binary_coordinate_cost(a, b, p)
                lo, hi = 0.0, 1.0
                for _ in range(200):  # golden-section style trisection
                    m1 = lo + (hi - lo) / 3
                    m2 = hi - (hi - lo) / 3
                    f1 = a * m1**pf + b * (1 - m1) ** pf
                    f2 = a * m2**pf + b * (1 - m2) ** pf
                    if f1 <= f2:
                        hi = m2
                    else:
                        lo = m1
                z = (lo + hi) / 2
                numeric = a * z**pf + b * (1 - z) ** pf
                assert abs(float(contrib) - numeric) < 1e-9


def test_moreones_monotonicity():
    """Per-one contribution strictly decreases as ones accumulate."""
    for p in (Fraction(3, 2), Fraction(2), Fraction(3)):
        for s in range(2, 13):
            values = []
            for b in range(1, s):
                _, f = binary_coordinate_cost(s - b, b, p)
                values.append(float(f) / b)
            for prev, nxt in zip(values, values[1:]):
                assert nxt < prev - 1e-12


def test_median_optimality_on_grid():
    rnd = random.Random(11)
    for _ in range(80):
        n = rnd.randint(1, 8)
        vals = [rnd.randint(0, 10) for _ in range(n)]
        ws = [rnd.randint(1, 4) for _ in range(n)]
        cluster = WeightedCluster.of([(v,) for v in vals], ws)
        c, cost = centroid_l1(cluster)
        lo, hi = min(vals), max(vals)
        zs = [Fraction(z, 4) for z in range(4 * lo, 4 * hi + 1)]
        best = min(sum(w * abs(Fraction(v) - z) for v, w in zip(vals, ws)) for z in zs) if zs else 0
        assert cost.exact == best


def test_present_value_optimality_on_grid():
    rnd = random.Random(12)
    p = Fraction(1, 2)
    pf = float(p)
    for _ in range(40):
        n = rnd.randint(1, 6)
        vals = [rnd.randint(0, 8) for _ in range(n)]
        ws = [rnd.randint(1, 3) for _ in range(n)]
        cluster = WeightedCluster.of([(v,) for v in vals], ws)
        _, cost = centroid_lp(cluster, p)
        got = float(cost_eval(cost))
        lo, hi = min(vals), max(vals)
        for step in range(8 * lo, 8 * hi + 1):
            z = step / 8
            assert got <= sum(w * abs(v - z) ** pf for v, w in zip(vals, ws)) + 1e-9


def _present_value_reference(cells, p):
    """Every candidate priced as a ``Cost`` and compared exactly, the lowest
    value kept on ties."""
    best = None
    for cand in sorted({v for v, _ in cells}):
        terms = {}
        for v, w in cells:
            if v != cand:
                terms[abs(v - cand)] = terms.get(abs(v - cand), 0) + w
        cost = Cost.basis(terms, p)
        if best is None or not cost_le(best[2], cost):
            best = (cand, terms, cost)
    return best[:2]


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)], ids=str)
def test_present_value_matches_all_exact_reference(p):
    """The float-filtered present value is the all-exact one, on random
    weighted cells."""
    rnd = random.Random(2207)
    for _ in range(400):
        cells = [(rnd.randint(-6, 6), rnd.randint(1, 3)) for _ in range(rnd.randint(1, 6))]
        assert _present_value(cells, p) == _present_value_reference(cells, p), cells


@pytest.mark.parametrize("cells,want", [
    # 0 costs 1 + 9**(1/2) + 2 * 5**(1/2), and 5 costs 2 * 4**(1/2) + 2 * 5**(1/2)
    ([(0, 2), (1, 1), (5, 2), (9, 1)], 0),
    # 0 costs 4**(1/2) + 5**(1/2) + 9**(1/2), and 4 costs 2 * 4**(1/2) + 1 + 5**(1/2)
    ([(0, 2), (4, 1), (5, 1), (9, 1)], 0),
    # 4 costs 2 * 4**(1/2) + 2 * 5**(1/2), and 9 costs 9**(1/2) + 2 * 5**(1/2) + 1
    ([(0, 1), (4, 2), (8, 1), (9, 2)], 4),
    # 0 costs 1 + 2 * 2**(1/2) + 9**(1/2), and 1 costs 4 + 8**(1/2); 2 is cheaper
    ([(0, 2), (1, 1), (2, 2), (9, 1)], 2),
], ids=["first", "first-of-two", "later", "tie-above-optimum"])
def test_present_value_exact_ties(monkeypatch, cells, want):
    """Candidates of different term lists with exactly equal costs: the float
    bounds overlap, the exact comparison decides, and the lowest value wins."""
    calls = []
    monkeypatch.setattr(centroids, "cost_le",
                        lambda a, b: calls.append((a, b)) or cost_le(a, b))
    half = Fraction(1, 2)
    value, terms = _present_value(cells, half)
    assert (value, terms) == _present_value_reference(cells, half)
    assert value == want
    assert any(cost_eq(a, b) and a.terms != b.terms for a, b in calls)


def test_half_weight_fixing():
    rnd = random.Random(13)
    p = Fraction(1, 2)
    for _ in range(120):
        shared = rnd.randint(0, 5)
        n_other = rnd.randint(1, 4)
        others = [rnd.randint(0, 5) for _ in range(n_other)]
        w_other = [rnd.randint(1, 2) for _ in range(n_other)]
        w_shared = sum(w_other) + rnd.randint(0, 2)  # at least half the weight
        vals = [shared] + others
        ws = [w_shared] + w_other
        pts = [(v,) for v in vals]
        # collapse duplicates to keep a well-formed weighted cluster
        agg: dict[tuple, int] = {}
        for pt, w in zip(pts, ws):
            agg[pt] = agg.get(pt, 0) + w
        cluster = WeightedCluster(tuple(agg), tuple(agg.values()))
        for fn in (centroid_l1, lambda cl: centroid_lp(cl, p)):
            c, cost = fn(cluster)
            at_shared = sum(
                w * abs(v[0] - shared) ** float(p if fn is not centroid_l1 else 1)
                for v, w in agg.items()
            )
            if 2 * agg[(shared,)] > cluster.total_weight:
                assert c == (shared,)
            else:  # exactly half: the shared value is still optimal
                assert float(cost_eval(cost)) <= at_shared + 1e-9


def test_linf_lp_equals_grid():
    rnd = random.Random(14)
    for _ in range(120):
        d = rnd.randint(1, 4)
        n = rnd.randint(1, 5)
        pts = {tuple(rnd.randint(-2, 2) for _ in range(d)) for _ in range(n)}
        pts = sorted(pts)
        ws = [rnd.randint(1, 3) for _ in pts]
        cluster = WeightedCluster(tuple(pts), tuple(ws))
        _, by_lp = centroid_linf_lp(cluster)
        _, by_grid = centroid_linf_grid(cluster)
        assert by_lp.exact == by_grid.exact


def _assert_linf_centroid(cluster, centroid, cost):
    """The centroid is half-integral and attains the cost exactly."""
    assert all((2 * c).denominator == 1 for c in centroid)
    attained = sum(w * max(abs(v - c) for v, c in zip(pt, centroid))
                   for pt, w in zip(cluster.points, cluster.weights))
    assert attained == cost.exact


def test_linf_vertex_path_on_every_small_cluster():
    """Every cluster of 2 or 3 points from {-1, 0, 1}^2, distinct or
    repeated, with weights in {1, 2, 3}: the LP's cheapest vertex against the
    half-integral grid."""
    square = list(itertools.product((-1, 0, 1), repeat=2))
    checked = 0
    for n in (2, 3):
        for pts in itertools.combinations_with_replacement(square, n):
            for ws in itertools.product((1, 2, 3), repeat=n):
                cluster = WeightedCluster(pts, ws)
                centroid, cost = centroid_linf_lp(cluster)
                assert cost.exact == centroid_linf_grid(cluster)[1].exact
                _assert_linf_centroid(cluster, centroid, cost)
                if len(set(pts)) == 1:
                    assert cost.exact == 0
                checked += 1
    assert checked == 45 * 9 + 165 * 27


def _gaps(points):
    return [[max(abs(a - b) for a, b in zip(x, y)) for y in points] for x in points]


def test_linf_flow_agrees_with_vertex_path():
    """The flow, which the public path sends only clusters of four or more
    points, against the vertex path on clusters of two and three."""
    rnd = random.Random(17)
    for _ in range(400):
        n, d = rnd.randint(2, 3), rnd.randint(1, 5)
        pts = [tuple(rnd.randint(-5, 5) for _ in range(d)) for _ in range(n)]
        ws = [rnd.choice((1, rnd.randint(1, 9), rnd.randint(1, 10**6))) for _ in range(n)]
        gaps = _gaps(pts)
        by_flow, by_vertex = _linf_flow(gaps, ws), _linf_vertex(gaps, ws)
        assert (sum(w * r for w, r in zip(ws, by_flow))
                == sum(w * r for w, r in zip(ws, by_vertex)))
        for r2 in (by_flow, by_vertex):
            assert all(r >= 0 for r in r2)
            assert all(r2[u] + r2[v] >= 2 * gaps[u][v]
                       for u in range(n) for v in range(u + 1, n))


def _simplex_linf_value(cluster):
    """The pairwise-gap LP of the max-distance cost, solved by the rational
    simplex: minimize sum w_i d_i subject to d_u + d_v >= gap(u, v)."""
    n = len(cluster.points)
    a_ub, b_ub = [], []
    for u in range(n):
        for v in range(u + 1, n):
            gap = max(abs(a - b) for a, b in zip(cluster.points[u], cluster.points[v]))
            if gap > 0:
                row = [0] * n
                row[u] = row[v] = -1
                a_ub.append(row)
                b_ub.append(-gap)
    return simplex.minimize(list(cluster.weights), a_ub, b_ub)[0]


def test_linf_flow_equals_simplex_reference():
    """The max-distance centroid against the simplex on clusters past the
    grid's cap: up to 12 points in up to 12 dimensions, weights up to 10**6,
    repeated points, and an all-identical cluster where no flow moves.  Most
    have four points or more, so the flow prices them."""
    rnd = random.Random(16)
    clusters = []
    for _ in range(40):
        n = rnd.randint(2, 8)
        d = rnd.randint(1, 12)
        pool = [tuple(rnd.randint(-6, 6) for _ in range(d)) for _ in range(rnd.randint(1, n))]
        pts = [rnd.choice(pool) for _ in range(n)]  # repeats are likely
        ws = [rnd.choice((1, rnd.randint(1, 10**6))) for _ in range(n)]
        clusters.append(WeightedCluster(tuple(pts), tuple(ws)))
    wide = [tuple(rnd.randint(-40, 40) for _ in range(12)) for _ in range(11)]
    clusters.append(WeightedCluster(tuple(wide + [wide[3]]),
                                    tuple(rnd.randint(1, 10**6) for _ in range(12))))
    clusters.append(WeightedCluster.of([(7, -3, 2)] * 12, [10**6 - i for i in range(12)]))
    assert sum(len(cluster.points) >= 4 for cluster in clusters) >= 25
    for cluster in clusters:
        centroid, cost = centroid_linf_lp(cluster)
        assert cost.exact == _simplex_linf_value(cluster)
        _assert_linf_centroid(cluster, centroid, cost)


def test_l2_mean_first_order():
    rnd = random.Random(15)
    eps = Fraction(1, 7)
    for _ in range(60):
        d = rnd.randint(1, 3)
        n = rnd.randint(1, 5)
        pts = [tuple(rnd.randint(-3, 3) for _ in range(d)) for _ in range(n)]
        pts = sorted(set(pts))
        ws = [rnd.randint(1, 3) for _ in pts]
        cluster = WeightedCluster(tuple(pts), tuple(ws))
        mean, cost = centroid_l2(cluster)

        def total_at(c):
            return sum(
                w * sum((Fraction(x) - cj) ** 2 for x, cj in zip(pt, c))
                for pt, w in zip(cluster.points, cluster.weights)
            )

        for j in range(d):
            for sign in (1, -1):
                shifted = list(mean)
                shifted[j] = mean[j] + sign * eps
                assert total_at(shifted) >= cost.exact


@pytest.mark.parametrize("order, kind", [
    (DistanceOrder.l0(), int),
    (DistanceOrder.l1(), int),
    (DistanceOrder.lp(Fraction(1, 2)), tuple),
    (DistanceOrder.lp(Fraction(1, 3)), tuple),
    (DistanceOrder.l2(), Fraction),
    (DistanceOrder.linf(), Fraction),
])
def test_cluster_cost_equals_optimal_cluster_cost(order, kind):
    """The cost-only entry against the centroid rules, exactly, on clusters of
    1 to 6 points (both max-distance paths: the LP's vertex up to three
    points, the flow beyond), repeated points included."""
    rnd = random.Random(16)
    sizes = set()
    for _ in range(300):
        n, d = rnd.randint(1, 6), rnd.randint(1, 4)
        pts = [tuple(rnd.randint(-3, 3) for _ in range(d)) for _ in range(n)]
        ws = [rnd.randint(1, 3) for _ in range(n)]
        value = cluster_cost(order, pts, ws)
        assert isinstance(value, kind)
        _, cost = optimal_cluster_cost(order, WeightedCluster.of(pts, ws))
        assert cost_eq(summed_cost(order, (value,)), cost)
        sizes.add(n)
    assert sizes == set(range(1, 7))


@pytest.mark.parametrize("order, dist", [
    (DistanceOrder.l0(), lambda x, y: sum(a != b for a, b in zip(x, y))),
    (DistanceOrder.l1(), lambda x, y: sum(abs(a - b) for a, b in zip(x, y))),
    (DistanceOrder.linf(), lambda x, y: max(abs(a - b) for a, b in zip(x, y))),
], ids=["l0", "l1", "linf"])
def test_cluster_cost_is_bounded_by_its_pair_costs(order, dist):
    """Under a metric the two-point optimum is min(w_x, w_y) * d(x, y), and a
    cluster of s points costs at least every pair and at least its pair sum
    over s - 1: the bounds behind ``solve_bruteforce``'s pair table."""
    rnd = random.Random(21)
    for _ in range(200):
        s, d = rnd.randint(3, 5), rnd.randint(1, 3)
        pts = rnd.sample(list(itertools.product(range(4), repeat=d)), min(s, 4 ** d))
        ws = [rnd.randint(1, 3) for _ in pts]
        pairs = []
        for i, j in itertools.combinations(range(len(pts)), 2):
            cost = cluster_cost(order, [pts[i], pts[j]], [ws[i], ws[j]])
            assert cost == min(ws[i], ws[j]) * dist(pts[i], pts[j])
            pairs.append(cost)
        whole = cluster_cost(order, pts, ws)
        assert whole >= max(pairs)
        assert whole * (len(pts) - 1) >= sum(pairs)


@pytest.mark.parametrize("order", [
    DistanceOrder.l0(), DistanceOrder.l1(), DistanceOrder.l2(), DistanceOrder.linf(),
    DistanceOrder.lp(Fraction(1, 2)), DistanceOrder.lp(Fraction(1, 3)),
], ids=["l0", "l1", "l2", "linf", "1/2", "1/3"])
def test_pair_cost_equals_the_general_rules(order):
    """The closed-form two-point optimum has the value and the type of the
    per-order rules (``_general_cost``), and the value of the centroid rules
    (``optimal_cluster_cost``), on random integer pairs with weights 1 to 4,
    equal weights and equal points included."""
    rnd = random.Random(24)
    equal_weights = equal_points = 0
    for _ in range(300):
        d = rnd.randint(1, 4)
        x = tuple(rnd.randint(-3, 3) for _ in range(d))
        y = x if rnd.random() < 0.1 else tuple(rnd.randint(-3, 3) for _ in range(d))
        w_x, w_y = rnd.randint(1, 4), rnd.randint(1, 4)
        equal_weights += w_x == w_y
        equal_points += x == y
        value = centroids.pair_cost(order, x, w_x, y, w_y)
        general = centroids._general_cost(order, [x, y], [w_x, w_y])
        assert value == general and type(value) is type(general)
        _, cost = optimal_cluster_cost(order, WeightedCluster.of([x, y], [w_x, w_y]))
        assert cost_eq(summed_cost(order, (value,)), cost)
    assert equal_weights and equal_points


def test_two_point_cluster_cost_skips_the_general_rules(monkeypatch):
    """A pair is priced in closed form, never by the per-order rules."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a pair reached the general rules")

    for name in ("_linf_doubled", "_tallies", "_median", "_present_value", "_weighted_sums"):
        monkeypatch.setattr(centroids, name, unreachable)
    x, y = (0, 3, 1, 5), (2, 3, -1, 4)  # gaps 2, 0, 2, 1
    for order, want in (
        (DistanceOrder.l0(), 2 * 3),
        (DistanceOrder.l1(), 2 * 5),
        (DistanceOrder.l2(), Fraction(2 * 3 * 9, 5)),
        (DistanceOrder.linf(), Fraction(2 * 2)),
        (DistanceOrder.lp(Fraction(1, 2)), ((1, 2), (2, 4))),
    ):
        for points, weights in (((x, y), (2, 3)), ((y, x), (3, 2))):
            value = cluster_cost(order, points, weights)
            assert value == want and type(value) is type(want)
