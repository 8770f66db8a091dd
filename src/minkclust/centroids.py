"""Optimal centroids and exact cluster costs for a fixed weighted cluster.

Every distance regime has its own centroid rule: weighted medians for p = 1,
a present input value per coordinate for p in (0, 1), the weighted mean for
the squared Euclidean cost, the weighted mode for the Hamming cost, and for
the max distance a small linear program solved exactly: at its cheapest
vertex up to three points, as a dense integer transportation flow beyond
(plus an exhaustive half-integral grid used as an independent check).

``optimal_cluster_cost`` returns a centroid and a ``Cost``.  ``cluster_cost``
returns the same optimum alone, as a plain value, for callers that price many
clusters and keep few of them; each order's rule has one home that both
share.  The max-distance LP takes the cluster's pairwise gaps: ``linf_solve``
solves it from them, for ``_linf_doubled``, which builds the gaps whole, and
for the selection tuple search, which carries them and adds one row per
point.

A two-point cluster {x, y} with weights w_x, w_y is priced in closed form
(``pair_cost``), which ``cluster_cost`` uses for every pair.  Under a metric
(Hamming, |.|_p for p in (0, 1], max distance) the optimum is
min(w_x, w_y) * d(x, y): by the triangle inequality any centroid c pays
w_x d(x, c) + w_y d(y, c) >= min(w_x, w_y) * d(x, y), and the heavier point,
a present value in every coordinate, pays exactly that.  Under the squared
Euclidean cost the weighted mean pays w_x w_y |x - y|^2 / (w_x + w_y).
``optimal_cluster_cost`` keeps the general rules for pairs too, so the
witness re-pricing checks the closed forms.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import mpmath

from .core import DistanceOrder, Number, Point
from .cost_model import Cost, DEFAULT_DIGITS, approx_sign, approx_terms, cost_le
from .cost_model import cost_eval  # noqa: F401  (traced by perfbench/)


@dataclass(frozen=True)
class WeightedCluster:
    """A nonempty cluster of points with positive integer weights."""

    points: tuple[Point, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("cluster must be nonempty")
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must be parallel")
        d = len(self.points[0])
        for pt in self.points:
            if len(pt) != d:
                raise ValueError("dimension mismatch inside cluster")
        for w in self.weights:
            if w < 1:
                raise ValueError("weights must be positive integers")

    @staticmethod
    def of(points: Sequence[Sequence[int]], weights: Sequence[int] | None = None) -> "WeightedCluster":
        pts = tuple(tuple(p) for p in points)
        if weights is None:
            weights = [1] * len(pts)
        return WeightedCluster(pts, tuple(weights))

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    @property
    def total_weight(self) -> int:
        return sum(self.weights)


def _tallies(points: Sequence[Point], weights: Sequence[int]) -> Iterator[dict[Number, int]]:
    """Per coordinate, the weight behind each value; a coordinate's Hamming
    cost is the total weight less that of its mode."""
    for col in zip(*points):
        counts: dict[Number, int] = {}
        for v, w in zip(col, weights):
            counts[v] = counts.get(v, 0) + w
        yield counts


def _median(cells: list[tuple[Number, int]], w_all: int) -> tuple[Number, int]:
    """The lowest weighted median of one coordinate's (value, weight) cells and
    the total absolute deviation from it."""
    cells.sort()
    acc = 0
    for median, w in cells:
        acc += w
        if 2 * acc >= w_all:
            break
    return median, sum(w * abs(v - median) for v, w in cells)


def _present_value(cells: list[tuple[Number, int]], p: Fraction) -> tuple[Number, dict[int, int]]:
    """The best present value of one coordinate for an exponent p in (0, 1)
    and its cost as basis terms {gap: weight}.

    Each candidate's cost is first bounded in floats (``approx_terms``): one
    whose bound lies wholly above the best so far is passed over, and one
    wholly below replaces it.  Only where the two bounds overlap are both
    built as a ``Cost`` (the best's once) and compared exactly
    (``cost_le``).  A candidate replaces the best only when strictly cheaper,
    so ties resolve to the lowest value.
    """
    best_val = best_terms = best_bound = best_cost = None
    for cand in sorted({v for v, _ in cells}):
        terms: dict[int, int] = {}
        for v, w in cells:
            gap = abs(v - cand)
            if gap:
                terms[gap] = terms.get(gap, 0) + w
        bound = approx_terms(terms.items(), p)
        cost = None
        if best_val is not None:
            sign = approx_sign(bound, best_bound)
            if sign > 0:
                continue
            if sign == 0:
                if best_cost is None:
                    best_cost = Cost.basis(best_terms, p)
                cost = Cost.basis(terms, p)
                if cost_le(best_cost, cost):
                    continue
        best_val, best_terms, best_bound, best_cost = cand, terms, bound, cost
    return best_val, best_terms


def mean_cost(w_all: int, sums: Sequence[int], sq: int) -> Fraction:
    """The squared Euclidean cost about the weighted mean, (W Q - |S|^2) / W,
    from the total weight W, the weighted sums S = sum w x and
    Q = sum w |x|^2."""
    return Fraction(w_all * sq - sum(s * s for s in sums), w_all)


def _weighted_sums(points: Sequence[Point], weights: Sequence[int]) -> tuple[list[Number], Number]:
    """S = sum w x per coordinate and Q = sum w |x|^2."""
    sums = [sum(w * v for v, w in zip(col, weights)) for col in zip(*points)]
    sq = sum(w * sum(v * v for v in pt) for pt, w in zip(points, weights))
    return sums, sq


def centroid_l1(cluster: WeightedCluster) -> tuple[Point, Cost]:
    """Per-coordinate weighted median (lowest optimal value on ties) and the
    exact total absolute deviation."""
    w_all = cluster.total_weight
    centroid: list[Number] = []
    total = 0
    for col in zip(*cluster.points):
        median, cost = _median(list(zip(col, cluster.weights)), w_all)
        centroid.append(median)
        total += cost
    return tuple(centroid), Cost.of(total)


def centroid_lp(cluster: WeightedCluster, p: Fraction) -> tuple[Point, Cost]:
    """Best present value per coordinate for exponents p in (0, 1).

    ``_present_value`` orders each coordinate's candidates by float bounds
    and exactly (``cost_le``) wherever the bounds overlap, so the choice is
    exact; ties resolve to the lowest value.  The cost comes back as a basis
    combination.
    """
    if not (0 < p < 1):
        raise ValueError("exponent must lie strictly between 0 and 1")
    centroid: list[Number] = []
    total: dict[int, int] = {}
    for col in zip(*cluster.points):
        value, terms = _present_value(list(zip(col, cluster.weights)), p)
        centroid.append(value)
        for base, coeff in terms.items():
            total[base] = total.get(base, 0) + coeff
    return tuple(centroid), Cost.basis(total, p)


def centroid_l2(cluster: WeightedCluster) -> tuple[Point, Cost]:
    """Exact weighted mean per coordinate and the exact squared-deviation sum."""
    w_all = cluster.total_weight
    sums, sq = _weighted_sums(cluster.points, cluster.weights)
    centroid = tuple(Fraction(s, w_all) for s in sums)
    return centroid, Cost.of(mean_cost(w_all, sums, sq))


def centroid_l0(cluster: WeightedCluster) -> tuple[Point, Cost]:
    """Weighted mode per coordinate, ties broken toward the lowest value."""
    w_all = cluster.total_weight
    centroid: list[Number] = []
    total = 0
    for counts in _tallies(cluster.points, cluster.weights):
        mode = min(counts, key=lambda v: (-counts[v], v))
        centroid.append(mode)
        total += w_all - counts[mode]
    return tuple(centroid), Cost.of(total)


def _linf_vertex(gaps: list[list[int]], weights: Sequence[int]) -> list[int]:
    """Doubled radii of an optimal vertex of the gap LP, for 2 or 3 points.

    The LP is: minimize sum w_u d_u subject to d_u + d_v >= gap(u, v) and
    d >= 0.  A vertex makes three independent constraints tight.  With no d
    at 0, all pair constraints are tight: the triangle point.  With d_u = 0,
    two of d_v >= gap(u, v), d_w >= gap(u, w), d_v + d_w >= gap(v, w) are
    tight, and the triangle inequality forces the medoid at u (d_v = gap(u, v),
    d_w = gap(u, w)).  Two or three zeros give a medoid too.  The max-distance
    gaps are a metric, so every medoid and the triangle point are feasible.
    The feasible set lies in d >= 0, so it has a vertex, and with w > 0 the
    cost is bounded below: some vertex is optimal.  Ties take the first
    candidate.
    """
    candidates = [[2 * g for g in row] for row in gaps]  # medoid u: d_u = 0
    if len(weights) == 3:
        g01, g02, g12 = gaps[0][1], gaps[0][2], gaps[1][2]
        candidates.append([g01 + g02 - g12, g01 + g12 - g02, g02 + g12 - g01])
    return min(candidates, key=lambda r2: sum(w * r for w, r in zip(weights, r2)))


def _linf_flow(gaps: list[list[int]], weights: Sequence[int]) -> list[int]:
    """Doubled radii of an optimal solution of the gap LP, for any n points.

    The balanced transportation problem, in which row u ships w_u, column v
    takes w_v and u -> v costs -gap(u, v), is solved by successive shortest
    paths: Dijkstra on reduced costs over the dense n x n matrix, with integer
    prices, from the rows with supply left (one shared price, distance 0) to
    the first column with demand left.  Column prices start at
    -max_u gap(u, v), where every reduced cost is already >= 0.  An arc with
    flow has reduced cost 0, so a row is reached at its column's distance.
    At the end row minus column price is >= every gap, with equality where
    flow moves, and it is the doubled radius of its point (>= 0 by the
    diagonal); strong duality is checked exactly.
    """
    n = len(weights)
    supply, demand = list(weights), list(weights)
    flow = [[0] * n for _ in range(n)]
    row_p = [0] * n
    col_p = [-max(row) for row in gaps]  # gaps are symmetric
    for v in range(n):  # ship first along the arcs of reduced cost 0
        for u in range(n):
            if gaps[u][v] == -col_p[v]:
                delta = min(supply[u], demand[v])
                flow[u][v] += delta
                supply[u] -= delta
                demand[v] -= delta
    while any(supply):
        row_d: list[int | None] = [0 if s else None for s in supply]
        back: list[int | None] = [None] * n  # the column a row is reached from
        col_d: list = [None] * n
        via = [0] * n  # the row a column is reached from
        reach = [u for u in range(n) if supply[u]]
        open_cols, closed = list(range(n)), []
        while True:
            for u in reach:
                base = row_d[u] + row_p[u]
                for v in open_cols:
                    d = base - gaps[u][v] - col_p[v]
                    if col_d[v] is None or d < col_d[v]:
                        col_d[v], via[v] = d, u
            end = min(open_cols, key=col_d.__getitem__)
            open_cols.remove(end)
            closed.append(end)
            if demand[end]:
                break
            reach = [u for u in range(n) if flow[u][end] and row_d[u] is None]
            for u in reach:
                row_d[u], back[u] = col_d[end], end
        top = col_d[end]
        for u, d in enumerate(row_d):
            if d is not None:
                row_p[u] += d - top
        for v in closed:
            col_p[v] += col_d[v] - top
        # augment along the path back from the column reached
        path, delta, v = [], demand[end], end
        while True:
            u = via[v]
            path.append((u, v, 1))
            if back[u] is None:
                break
            v = back[u]
            path.append((u, v, -1))
            delta = min(delta, flow[u][v])
        delta = min(delta, supply[u])
        supply[u] -= delta
        demand[end] -= delta
        for u, v, sign in path:
            flow[u][v] += sign * delta
    radii2 = [r - c for r, c in zip(row_p, col_p)]
    gain = sum(g * f for grow, frow in zip(gaps, flow) for g, f in zip(grow, frow))
    if gain != sum(w * r for w, r in zip(weights, radii2)):
        raise AssertionError("flow gain and dual radii disagree")
    return radii2


def _linf_doubled(points: Sequence[Point], weights: Sequence[int]) -> tuple[list[int], int]:
    """A doubled optimal max-distance centroid and the doubled optimal cost:
    the pairwise max-distance gaps, then ``linf_solve``."""
    n = len(points)
    if n == 1:
        return [2 * v for v in points[0]], 0
    sub = operator.sub
    gaps = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            gaps[u][v] = gaps[v][u] = max(map(abs, map(sub, points[u], points[v])))
    return linf_solve(points, weights, gaps)


def linf_solve(points: Sequence[Point], weights: Sequence[int],
               gaps: list[list[int]]) -> tuple[list[int], int]:
    """A doubled optimal max-distance centroid and the doubled optimal cost of
    the cluster of ``points`` with ``weights``, given its gaps:
    ``gaps[u][v]`` is the max distance between points u and v.

    Up to three points the LP's cheapest vertex gives the doubled radii
    (``_linf_vertex``), beyond that a dense integer transportation flow does
    (``_linf_flow``).  The centroid is read back off the interval
    intersections, and the cost it attains is checked exactly against the
    radii's.
    """
    radii2 = (_linf_vertex if len(weights) <= 3 else _linf_flow)(gaps, weights)
    gain = sum(w * r for w, r in zip(weights, radii2))
    # the coordinate loops run as maps of operator functions, with v + v for 2 v
    sub, add = operator.sub, operator.add
    centroid2 = [max(map(sub, map(add, col, col), radii2)) for col in zip(*points)]
    attained = sum(w * max(map(abs, map(sub, map(add, x, x), centroid2)))
                   for x, w in zip(points, weights))
    if attained != gain:
        raise AssertionError("recovered centroid does not attain the LP optimum")
    return centroid2, gain


def centroid_linf_lp(cluster: WeightedCluster) -> tuple[Point, Cost]:
    """Exact optimum of the max-distance cluster cost.

    Minimizing sum w_i * max_j |x_i[j] - c_j| is equivalent to choosing
    per-point radii d_i >= 0 with d_u + d_v >= max-gap(x_u, x_v) for every
    pair (the per-coordinate intervals then intersect, by Helly's theorem for
    boxes).  Twice that LP is a transportation problem on the bipartite
    double cover, so an optimum is half-integral (Nemhauser and Trotter).
    ``_linf_doubled`` solves it in integers.
    """
    if len(cluster.points) == 1:
        return cluster.points[0], Cost.of(0)
    centroid2, gain = _linf_doubled(cluster.points, cluster.weights)
    return tuple(Fraction(c, 2) for c in centroid2), Cost.of(Fraction(gain, 2))


def centroid_linf_grid(cluster: WeightedCluster, cap: int = 2_000_000) -> tuple[Point, Cost]:
    """Exhaustive half-integral search inside the coordinate-wise bounding box.

    Independent of the LP path; intended for low dimensions.  Returns the
    lexicographically smallest optimal centroid.
    """
    d = cluster.dimension
    doubled = [[2 * pt[j] for pt in cluster.points] for j in range(d)]
    ranges = [range(min(col), max(col) + 1) for col in doubled]
    size = 1
    for r in ranges:
        size *= len(r)
        if size > cap:
            raise ValueError("half-integral grid exceeds the search cap")
    best2 = None
    best_c = None
    idx = [r.start for r in ranges]

    def cost2_at(c2: list[int]) -> int:
        total = 0
        for pt, w in zip(cluster.points, cluster.weights):
            total += w * max(abs(2 * v - c) for v, c in zip(pt, c2))
        return total

    for c2 in itertools.product(*ranges):
        val = cost2_at(list(c2))
        if best2 is None or val < best2:
            best2 = val
            best_c = c2
    centroid = tuple(Fraction(v, 2) for v in best_c)
    return centroid, Cost.of(Fraction(best2, 2))


def binary_coordinate_cost(
    a: int, b: int, p: Fraction, digits: int = DEFAULT_DIGITS
) -> tuple[Number | mpmath.mpf, Number | mpmath.mpf]:
    """Optimal centroid value and cost contribution of one coordinate holding
    ``a`` zeros and ``b`` ones, for exponents p > 1.

    Closed form: the centroid is b**q / (a**q + b**q) with q = 1/(p-1), and
    the contribution is a*b / (a**q + b**q)**(p-1).  Exact rationals for
    p = 2, extended-precision reals otherwise.
    """
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("need a, b >= 0 with a + b >= 1")
    if p <= 1:
        raise ValueError("exponent must exceed 1")
    if a == 0:
        return (Fraction(1), Fraction(0)) if p == 2 else (mpmath.mpf(1), mpmath.mpf(0))
    if b == 0:
        return (Fraction(0), Fraction(0)) if p == 2 else (mpmath.mpf(0), mpmath.mpf(0))
    if p == 2:
        return Fraction(b, a + b), Fraction(a * b, a + b)
    with mpmath.workdps(digits):
        q = mpmath.mpf(1) / (mpmath.mpf(p.numerator) / p.denominator - 1)
        aq = mpmath.power(a, q)
        bq = mpmath.power(b, q)
        centroid = bq / (aq + bq)
        contribution = a * b / mpmath.power(aq + bq, 1 / q)
        return centroid, contribution


def optimal_cluster_cost(order: DistanceOrder, cluster: WeightedCluster) -> tuple[Point, Cost]:
    """Dispatch to the centroid rule of the active distance order."""
    if order.kind == "l0":
        return centroid_l0(cluster)
    if order.kind == "l2":
        return centroid_l2(cluster)
    if order.kind == "linf":
        return centroid_linf_lp(cluster)
    if order.p == 1:
        return centroid_l1(cluster)
    return centroid_lp(cluster, order.p)


def pair_cost(order: DistanceOrder, x: Point, w_x: int, y: Point,
              w_y: int) -> int | Fraction | tuple[tuple[int, int], ...]:
    """The exact optimal cost of the two-point cluster {x, y} with weights
    ``w_x`` and ``w_y``, in closed form, as ``cluster_cost`` returns it.

    Under the squared Euclidean cost it is w_x w_y |x - y|^2 / (w_x + w_y),
    the cost about the weighted mean.  Under the metric orders it is
    min(w_x, w_y) * d(x, y), attained at the heavier point (see the module
    docstring); for p in (0, 1) that is min(w_x, w_y) on the basis term of
    each nonzero coordinate gap.
    """
    kind = order.kind
    if kind == "l0":
        return min(w_x, w_y) * sum(map(operator.ne, x, y))
    gaps = [abs(a - b) for a, b in zip(x, y)]
    if kind == "l2":
        return Fraction(w_x * w_y * sum(g * g for g in gaps), w_x + w_y)
    w = min(w_x, w_y)
    if kind == "linf":
        return Fraction(w * max(gaps))
    if order.p == 1:
        return w * sum(gaps)
    terms: dict[int, int] = {}
    for gap in gaps:
        if gap:
            terms[gap] = terms.get(gap, 0) + w
    return tuple(sorted(terms.items()))


def cluster_cost(order: DistanceOrder, points: Sequence[Point],
                 weights: Sequence[int]) -> int | Fraction | tuple[tuple[int, int], ...]:
    """The exact optimal cost of the cluster of ``points`` with ``weights``,
    priced without a ``WeightedCluster``, a centroid or a ``Cost``.

    It is what ``optimal_cluster_cost`` returns as a cost, by the same
    per-coordinate rules: an ``int`` for the Hamming distance and p = 1, a
    ``Fraction`` for the squared Euclidean cost and the max distance, and for
    p in (0, 1) the basis terms as sorted (base, coefficient) pairs.
    ``summed_cost`` turns such values into a ``Cost``.  The inputs are trusted:
    a nonempty cluster of equal-length points and positive weights.  A pair
    is priced in closed form by ``pair_cost``: min(w_x, w_y) * d(x, y) under
    the metric orders, w_x w_y |x - y|^2 / (w_x + w_y) under the squared
    Euclidean cost, both exact optima (see the module docstring).
    """
    if len(points) == 2:
        return pair_cost(order, points[0], weights[0], points[1], weights[1])
    return _general_cost(order, points, weights)


def _general_cost(order: DistanceOrder, points: Sequence[Point],
                  weights: Sequence[int]) -> int | Fraction | tuple[tuple[int, int], ...]:
    """``cluster_cost`` by the per-order rules, for any number of points."""
    kind = order.kind
    if kind == "l0":
        if weights.count(1) == len(weights):  # unit weights: the same tally, counted in C
            modes = sum(max(map(col.count, col)) for col in zip(*points))
        else:
            modes = sum(max(counts.values()) for counts in _tallies(points, weights))
        return sum(weights) * len(points[0]) - modes
    if kind == "l2":
        return mean_cost(sum(weights), *_weighted_sums(points, weights))
    if kind == "linf":
        return Fraction(_linf_doubled(points, weights)[1], 2)
    if order.p == 1:
        w_all = sum(weights)
        return sum(_median(list(zip(col, weights)), w_all)[1] for col in zip(*points))
    total: dict[int, int] = {}
    for col in zip(*points):
        for base, coeff in _present_value(list(zip(col, weights)), order.p)[1].items():
            total[base] = total.get(base, 0) + coeff
    return tuple(sorted(total.items()))


def summed_cost(order: DistanceOrder, values) -> Cost:
    """The ``Cost`` of a sum of values that ``cluster_cost`` returned."""
    if order.kind == "lp" and order.p != 1:
        terms: dict[int, int] = {}
        for value in values:
            for base, coeff in value:
                terms[base] = terms.get(base, 0) + coeff
        return Cost.basis(terms, order.p)
    return Cost.of(sum(values))
