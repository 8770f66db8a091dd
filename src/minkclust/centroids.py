"""Optimal centroids and exact cluster costs for a fixed weighted cluster.

Every distance regime has its own centroid rule: weighted medians for p = 1,
a present input value per coordinate for p in (0, 1), the weighted mean for
the squared Euclidean cost, the weighted mode for the Hamming cost, and for
the max distance a small linear program solved exactly as an integer
min-cost flow (plus an exhaustive half-integral grid used as an independent
check).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from .core import DistanceOrder, Number, Point
from .cost_model import Cost, DEFAULT_DIGITS, cost_le
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


def _column(cluster: WeightedCluster, i: int) -> list[tuple[Number, int]]:
    return [(pt[i], w) for pt, w in zip(cluster.points, cluster.weights)]


def centroid_l1(cluster: WeightedCluster) -> tuple[Point, Cost]:
    """Per-coordinate weighted median (lowest optimal value on ties) and the
    exact total absolute deviation."""
    centroid: list[Number] = []
    total = 0
    w_all = cluster.total_weight
    for i in range(cluster.dimension):
        col = sorted(_column(cluster, i))
        acc = 0
        median = col[-1][0]
        for value, w in col:
            acc += w
            if 2 * acc >= w_all:
                median = value
                break
        centroid.append(median)
        total += sum(w * abs(v - median) for v, w in col)
    return tuple(centroid), Cost.of(total)


def centroid_lp(cluster: WeightedCluster, p: Fraction) -> tuple[Point, Cost]:
    """Best present value per coordinate for exponents p in (0, 1).

    Candidates are compared exactly (``cost_le``); ties resolve to the lowest
    value.  The cost comes back as a basis combination.
    """
    if not (0 < p < 1):
        raise ValueError("exponent must lie strictly between 0 and 1")
    centroid: list[Number] = []
    total: dict[int, int] = {}
    for i in range(cluster.dimension):
        col = _column(cluster, i)
        best_val = None
        best_terms: dict[int, int] = {}
        best_cost = None
        for cand in sorted({v for v, _ in col}):
            terms: dict[int, int] = {}
            for v, w in col:
                gap = abs(v - cand)
                if gap:
                    terms[gap] = terms.get(gap, 0) + w
            cost = Cost.basis(terms, p)
            if best_cost is None or not cost_le(best_cost, cost):
                best_val, best_terms, best_cost = cand, terms, cost
        centroid.append(best_val)
        for base, coeff in best_terms.items():
            total[base] = total.get(base, 0) + coeff
    return tuple(centroid), Cost.basis(total, p)


def centroid_l2(cluster: WeightedCluster) -> tuple[Point, Cost]:
    """Exact weighted mean per coordinate and the exact squared-deviation sum."""
    w_all = cluster.total_weight
    centroid: list[Number] = []
    total = Fraction(0)
    for i in range(cluster.dimension):
        col = _column(cluster, i)
        mean = Fraction(sum(w * v for v, w in col), w_all)
        centroid.append(mean)
        total += sum(w * (Fraction(v) - mean) ** 2 for v, w in col)
    return tuple(centroid), Cost.of(total)


def centroid_l0(cluster: WeightedCluster) -> tuple[Point, Cost]:
    """Weighted mode per coordinate, ties broken toward the lowest value."""
    w_all = cluster.total_weight
    centroid: list[Number] = []
    total = 0
    for i in range(cluster.dimension):
        counts: dict[Number, int] = {}
        for v, w in _column(cluster, i):
            counts[v] = counts.get(v, 0) + w
        mode = min(counts, key=lambda v: (-counts[v], v))
        centroid.append(mode)
        total += w_all - counts[mode]
    return tuple(centroid), Cost.of(total)


def _add_arc(graph: list[list[list[int]]], x: int, y: int, cap: int, cost: int,
             flow: int = 0) -> None:
    """Residual arc x -> y carrying ``flow`` of ``cap``, and its reverse.

    An arc is ``[head, residual capacity, cost, index of the reverse arc]``.
    """
    graph[x].append([y, cap - flow, cost, len(graph[y])])
    graph[y].append([x, flow, -cost, len(graph[x]) - 1])


def _bellman_ford(graph: list[list[list[int]]], dist: list[int | None]) -> list:
    """Shortest distances over the arcs with residual capacity, in place.

    Nodes whose ``dist`` is not None are the sources, at that distance.
    Returns each reached node's last arc as ``(tail, arc)``.  A residual
    network of a min-cost flow has no negative cycle; meeting one raises.
    """
    pred: list = [None] * len(graph)
    queue = deque(x for x, d in enumerate(dist) if d is not None)
    queued = [d is not None for d in dist]
    # in FIFO order every label settles within |V| passes over the nodes
    pops = len(graph) * (len(graph) + 1)
    while queue:
        x = queue.popleft()
        queued[x] = False
        dx = dist[x]
        for arc in graph[x]:
            y = arc[0]
            if arc[1] and (dist[y] is None or dx + arc[2] < dist[y]):
                dist[y] = dx + arc[2]
                pred[y] = (x, arc)
                if not queued[y]:
                    queue.append(y)
                    queued[y] = True
        pops -= 1
        if pops < 0:
            raise AssertionError("negative cycle in the residual network")
    return pred


def centroid_linf_lp(cluster: WeightedCluster) -> tuple[Point, Cost]:
    """Exact optimum of the max-distance cluster cost via integer min-cost flow.

    Minimizing sum w_i * max_j |x_i[j] - c_j| is equivalent to choosing
    per-point radii d_i >= 0 with d_u + d_v >= max-gap(x_u, x_v) for every
    pair (the per-coordinate intervals then intersect): a fractional vertex
    cover with edge demands.  On the bipartite double cover (rows u, columns
    v') it becomes totally unimodular, so twice its optimum is the optimum of
    the transportation problem whose row and column u both hold w_u and whose
    arc u -> v' gains gap(u, v).  Successive shortest paths solve that flow
    in integers; the potentials p of the final residual network (with a
    zero-cost sink-to-source arc) give the dual a_u = max(0, p_u - p_s),
    b_v = max(0, p_s - p_v') and the doubled radii a_u + b_u, which is the
    half-integrality of Nemhauser and Trotter.  A centroid is read back off
    the interval intersections.  Strong duality and the centroid's cost are
    both checked exactly before the values are returned.
    """
    points, weights = cluster.points, cluster.weights
    n = len(points)
    if n == 1:
        return points[0], Cost.of(0)
    source, sink = 2 * n, 2 * n + 1
    graph: list[list[list[int]]] = [[] for _ in range(2 * n + 2)]
    for u, w in enumerate(weights):
        _add_arc(graph, source, u, w, 0)
        _add_arc(graph, n + u, sink, w, 0)
    # total weight bounds any flow, so the gain arcs never saturate: every
    # pair's dual constraint stays in the residual network
    total = sum(weights)
    for u in range(n):
        for v in range(u + 1, n):
            gap = max(abs(a - b) for a, b in zip(points[u], points[v]))
            if gap > 0:
                _add_arc(graph, u, n + v, total, -gap)
                _add_arc(graph, v, n + u, total, -gap)
    while True:
        dist: list[int | None] = [None] * len(graph)
        dist[source] = 0
        pred = _bellman_ford(graph, dist)
        if dist[sink] is None or dist[sink] >= 0:
            break
        path = []
        y = sink
        while y != source:
            x, arc = pred[y]
            path.append(arc)
            y = x
        delta = min(arc[1] for arc in path)
        for arc in path:
            arc[1] -= delta
            graph[arc[0]][arc[3]][1] += delta

    # the flow on an arc is its reverse arc's residual capacity
    gain = sum(-arc[2] * graph[arc[0]][arc[3]][1]
               for u in range(n) for arc in graph[u] if arc[0] < 2 * n)
    moved = sum(graph[arc[0]][arc[3]][1] for arc in graph[source])
    _add_arc(graph, sink, source, total, 0, moved)
    potential: list[int | None] = [0] * len(graph)
    _bellman_ford(graph, potential)
    p_s = potential[source]
    radii2 = [max(0, potential[u] - p_s) + max(0, p_s - potential[n + u]) for u in range(n)]
    if gain != sum(w * r for w, r in zip(weights, radii2)):
        raise AssertionError("flow gain and dual radii disagree")
    centroid2 = [max(2 * x[j] - r for x, r in zip(points, radii2))
                 for j in range(cluster.dimension)]
    attained = sum(w * max(abs(2 * v - c) for v, c in zip(x, centroid2))
                   for x, w in zip(points, weights))
    if attained != gain:
        raise AssertionError("recovered centroid does not attain the LP optimum")
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
