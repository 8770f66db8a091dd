"""Cluster Selection solvers.

Given t disjoint groups of weighted vectors and a budget, decide whether one
vector can be picked from each group so that the optimally-centered composite
cluster costs at most the budget.  A brute-force oracle covers every distance
order.  ``solve_selection`` is the one exact solver: it runs a centroid search
for exponents p in (0, 1) and the Hamming distance, and an exact tuple search
for p = 1, the squared Euclidean cost and the max distance.  Both searches
also have a minimising form, a branch and bound in which the best witness so
far takes the budget's place in the pruning tests.

The centroid search (``_coordinate_search``) tries every centroid assembled
from the values present at each coordinate, which is complete for both: the
Hamming cost of a coordinate is least at its weighted mode, and for
p in (0, 1) the weighted sum of |x - c|**p is concave in c between
consecutive values of the cluster and grows outside them, so some optimal
centroid takes a present value at every coordinate.  It prices centroids one
coordinate at a time, in integers for the Hamming distance and in floats for
p in (0, 1), where the float total is only a filter.  Every candidate that
passes is re-costed through the exact cost path, which alone decides, before
it is returned.  The tuple search (``_tuple_search``) picks one vector per
group and prices each partial tuple exactly: through the exact cost path for
p = 1 and the max distance, and by integer running sums for the squared
Euclidean cost, whose optimal centroid is the weighted mean.  An instance
with one vector per group is priced at its single tuple without a search.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .centroids import WeightedCluster, optimal_cluster_cost
from .core import DistanceOrder, Number, Point, distance
from .cost_model import Cost, cost_eval, cost_le
from .hypergraph import build_difference_hypergraph  # noqa: F401  (traced by perfbench/)
from .hypergraph import candidate_coordinate_sets  # noqa: F401  (traced by perfbench/)

CENTROID_CAP = 5_000_000  # the default node bound of every selection kernel


class EnumerationCapExceeded(RuntimeError):
    """Raised when a solver's candidate enumeration outgrows its cap."""


@dataclass(frozen=True)
class SelectionInstance:
    """t disjoint groups of weighted vectors plus a budget."""

    groups: tuple[tuple[Point, ...], ...]
    weights: tuple[tuple[int, ...], ...]
    dimension: int
    budget: Cost
    order: DistanceOrder

    def __post_init__(self) -> None:
        if len(self.groups) < 1:
            raise ValueError("need at least one group")
        if len(self.groups) != len(self.weights):
            raise ValueError("groups and weights must be parallel")
        seen: set[Point] = set()
        for pts, ws in zip(self.groups, self.weights):
            if not pts:
                raise ValueError("groups must be nonempty")
            if len(pts) != len(ws):
                raise ValueError("group weights must be parallel to its vectors")
            for pt in pts:
                if len(pt) != self.dimension:
                    raise ValueError("vector dimension mismatch")
                if pt in seen:
                    raise ValueError("groups must be disjoint")
                seen.add(pt)
            for w in ws:
                if w < 1:
                    raise ValueError("weights must be positive integers")

    @staticmethod
    def of(
        groups: Sequence[Sequence[Sequence[int]]],
        budget: Cost,
        order: DistanceOrder,
        weights: Sequence[Sequence[int]] | None = None,
    ) -> "SelectionInstance":
        gs = tuple(tuple(tuple(p) for p in grp) for grp in groups)
        if weights is None:
            ws = tuple(tuple(1 for _ in grp) for grp in gs)
        else:
            ws = tuple(tuple(w) for w in weights)
        dim = next((len(grp[0]) for grp in gs if grp), 0)
        return SelectionInstance(gs, ws, dim, budget, order)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def iter_vectors(self) -> Iterator[tuple[int, int, Point, int]]:
        for g, (pts, ws) in enumerate(zip(self.groups, self.weights)):
            for i, (pt, w) in enumerate(zip(pts, ws)):
                yield g, i, pt, w

    def chosen_cluster(self, indices: Sequence[int]) -> WeightedCluster:
        pts = tuple(self.groups[g][i] for g, i in enumerate(indices))
        ws = tuple(self.weights[g][i] for g, i in enumerate(indices))
        return WeightedCluster(pts, ws)


@dataclass
class SelectionResult:
    decision: bool
    indices: tuple[int, ...] | None = None
    centroid: Point | None = None
    cost: Cost | None = None
    stats: dict = field(default_factory=dict)


def select_fixed_centroid(inst: SelectionInstance, centroid: Sequence[Number]) -> SelectionResult:
    """Greedy completion for a fixed centroid: from each group take the vector
    of minimum weighted distance (lowest index on ties)."""
    if len(centroid) != inst.dimension:
        raise ValueError("centroid dimension mismatch")
    total = Cost.of(0)
    indices: list[int] = []
    for pts, ws in zip(inst.groups, inst.weights):
        best_i = None
        best_cost: Cost | None = None
        for i, (pt, w) in enumerate(zip(pts, ws)):
            c = distance(inst.order, pt, centroid).scaled(w)
            if best_cost is None or not cost_le(best_cost, c):
                best_i, best_cost = i, c
        indices.append(best_i)
        total = total + best_cost
    decision = cost_le(total, inst.budget)
    return SelectionResult(decision, tuple(indices), tuple(centroid), total)


def select_bruteforce(inst: SelectionInstance, cap: int = 1_000_000) -> SelectionResult:
    """Exhaustive oracle over all group tuples, each costed at its exact
    optimal centroid.  Returns the globally minimal tuple."""
    size = 1
    for g in inst.groups:
        size *= len(g)
    if size > cap:
        raise EnumerationCapExceeded(f"{size} tuples exceed the cap {cap}")
    best: SelectionResult | None = None
    for combo in itertools.product(*(range(len(g)) for g in inst.groups)):
        cluster = inst.chosen_cluster(combo)
        centroid, cost = optimal_cluster_cost(inst.order, cluster)
        if best is None or not cost_le(best.cost, cost):
            best = SelectionResult(False, combo, centroid, cost)
    best.decision = cost_le(best.cost, inst.budget)
    best.stats["tuples"] = size
    return best


class _Incumbent:
    """The acceptance bound of a kernel's search.

    A candidate is admitted while it costs at most the budget.  In decision
    mode the first admitted witness ends the search.  In minimise mode each
    admitted witness becomes the incumbent: its cost takes the budget's place
    as the bound, and later candidates must cost strictly less.  Every
    admission is decided by the exact ``cost_le``, for basis costs too.
    """

    def __init__(self, inst: SelectionInstance, minimize: bool):
        self.bound = inst.budget
        self.best: SelectionResult | None = None
        self.minimize = minimize

    def admits(self, cost: Cost) -> bool:
        if self.best is None:
            return cost_le(cost, self.bound)
        return not cost_le(self.bound, cost)

    def limit(self) -> int:
        """Largest integer cost admitted (rational bounds)."""
        value = self.bound.exact
        if self.best is None:
            return math.floor(value)
        return math.ceil(value) - 1

    def take(self, res: SelectionResult) -> bool:
        """Record an admitted witness; true when the search is over."""
        self.best, self.bound = res, res.cost
        return not self.minimize or res.cost.exact == 0

    def result(self, stats: dict) -> SelectionResult:
        return self.best or SelectionResult(False, stats=stats)


def _verified(inst: SelectionInstance, centroid: Sequence[Number], stats: dict,
              inc: _Incumbent) -> bool:
    """Complete ``centroid`` greedily and offer the tuple to the incumbent if
    it is admitted; true when the search is over."""
    res = select_fixed_centroid(inst, centroid)
    if not inc.admits(res.cost):
        return False
    # report the chosen tuple at its own optimal centroid (never worse than
    # the enumerated one, so the admission stands)
    best_c, best_cost = optimal_cluster_cost(inst.order, inst.chosen_cluster(res.indices))
    return inc.take(SelectionResult(True, res.indices, best_c, best_cost, stats))


def _coordinate_search(
    inst: SelectionInstance,
    coord_cost: Callable[[int, int], Number],
    limit: Callable[[_Incumbent], Number],
    centroid_cap: int,
    minimize: bool,
) -> SelectionResult:
    """Depth-first search over the centroids built from the values present at
    each coordinate, priced one coordinate at a time; the Hamming and
    p in (0, 1) kernel.

    Each row (a vector ``pt`` of weight ``w``) carries a partial cost, and
    setting coordinate ``j`` to ``v`` adds ``w * coord_cost(pt[j], v)`` to
    every row.  A node is cut once the greedy total, the sum over groups of
    each group's smallest partial, exceeds ``limit(inc)``, which is re-read
    only after a leaf.  Costs only grow as coordinates are set, so a cut never
    loses a leaf within the limit, and a leaf's total is the greedy cost of
    its centroid.  Every leaf is re-costed exactly (``_verified``), which
    alone decides.  Nodes count against ``centroid_cap``; leaves count as
    centroids tried.  Each (coordinate, value) pair's weighted costs are
    computed on first use.
    """
    inc = _Incumbent(inst, minimize)
    stats = {"centroids_tried": 0, "nodes": 0}
    rows = [(pt, w) for _, _, pt, w in inst.iter_vectors()]
    spans = []
    pos = 0
    for pts in inst.groups:
        spans.append(slice(pos, pos + len(pts)))
        pos += len(pts)
    depth = inst.dimension
    columns = [sorted({pt[j] for pt, _ in rows}) for j in range(depth)]
    memo: dict = {}
    chosen = [0] * depth
    lim = limit(inc)

    def rec(j: int, partial: list) -> bool:
        nonlocal lim
        stats["nodes"] += 1
        if stats["nodes"] > centroid_cap:
            raise EnumerationCapExceeded("search node cap exceeded")
        if j == depth:
            stats["centroids_tried"] += 1
            done = _verified(inst, tuple(chosen), stats, inc)
            lim = limit(inc)
            return done
        for v in columns[j]:
            costs = memo.get((j, v))
            if costs is None:
                costs = memo[j, v] = [w * coord_cost(pt[j], v) for pt, w in rows]
            nxt = list(map(operator.add, partial, costs))
            if sum(map(min, map(nxt.__getitem__, spans))) > lim:
                continue
            chosen[j] = v
            if rec(j + 1, nxt):
                return True
        return False

    rec(0, [0] * len(rows))
    return inc.result(stats)


# ---------------------------------------------------------------------------
# tuple search: p = 1, squared Euclidean, max distance


def _tuple_search(
    inst: SelectionInstance,
    price: Callable,
    start,
    centroid_cap: int,
    minimize: bool,
) -> SelectionResult:
    """Depth-first branch and bound over tuples.

    Picks one vector per group, in group order and index order.  ``price``
    takes the partial tuple's state and the next vector and weight, and
    returns the grown state, the grown partial tuple's exact optimal cost, and
    its optimal centroid, or None when that is left to the exact path; the
    search begins at ``start``.  Adding a vector never lowers a cluster's
    optimal cost, so a partial tuple the incumbent rejects bounds every
    completion and its branch is cut.  ``nodes`` counts the partial tuples
    expanded, bounded by ``centroid_cap``, and ``centroids_tried`` the
    complete tuples admitted.  With ``minimize`` the search runs on under the
    strict incumbent and a yes carries the first minimum-cost tuple in
    lexicographic order, the one ``select_bruteforce`` returns.
    """
    inc = _Incumbent(inst, minimize)
    stats = {"centroids_tried": 0, "nodes": 0}
    last = inst.num_groups - 1
    chosen: list[int] = []

    def rec(g: int, state) -> bool:
        stats["nodes"] += 1
        if stats["nodes"] > centroid_cap:
            raise EnumerationCapExceeded("search node cap exceeded")
        for i, row in enumerate(zip(inst.groups[g], inst.weights[g])):
            chosen.append(i)
            nxt, cost, centroid = price(state, *row)
            if g < last:
                if inc.admits(cost) and rec(g + 1, nxt):
                    return True
            elif inc.admits(cost):
                stats["centroids_tried"] += 1
                if centroid is None:
                    centroid, cost = optimal_cluster_cost(inst.order, inst.chosen_cluster(chosen))
                if inc.take(SelectionResult(True, tuple(chosen), centroid, cost, stats)):
                    return True
            chosen.pop()
        return False

    rec(0, start)
    return inc.result(stats)


def _l2_price(state, pt: Point, w: int):
    """Grow a partial tuple's integer running sums, its weight W, S = sum w x
    and Q = sum w |x|^2, and price it at (W Q - |S|^2) / W, its squared
    Euclidean cost about the weighted mean; the centroid is left to the exact
    path."""
    total, sums, sq = state
    total += w
    sums = [s + w * x for s, x in zip(sums, pt)]
    sq += w * sum(x * x for x in pt)
    cost = Cost.of(Fraction(total * sq - sum(s * s for s in sums), total))
    return (total, sums, sq), cost, None


# ---------------------------------------------------------------------------
# the entry point


# Float totals filter candidates before the exact check; they may exceed the
# exact cost by rounding, relative to its size, so a candidate is dropped only
# beyond this share of the bound (or of 1, for bounds below 1).
_FLOAT_SLACK = 1e-6


def solve_selection(inst: SelectionInstance, minimize: bool = False,
                    centroid_cap: int = CENTROID_CAP) -> SelectionResult:
    """Decide Cluster Selection with the search for the instance's order.

    - p in (0, 1): the centroid search (``_coordinate_search``) with
      coordinate cost |a - v|**p.  Its float totals only filter, within a
      ``_FLOAT_SLACK`` share of the bound; the exact greedy cost decides.
    - Hamming: the centroid search with integer mismatch counts.
    - Squared Euclidean: a no at once when more than 4D + 1 groups exist,
      else the tuple search priced by integer running sums (``_l2_price``).
    - p = 1 and the max distance: the tuple search with every partial tuple
      priced at its exact optimum through ``optimal_cluster_cost``, the
      weighted median or the integer min-cost flow.  k-Clustering under the
      max distance is W[1]-hard parameterized by the budget, so only
      exactness is owed there.

    The Hamming, squared Euclidean and max-distance orders need a rational
    budget.  Pass ``minimize=True`` for the optimisation form: the budget is
    only an upper bound, and a yes carries a tuple of minimum optimal cost.
    ``centroid_cap`` bounds the search nodes; beyond it
    ``EnumerationCapExceeded`` is raised.  An instance with one vector per
    group has a single tuple, so in either form it is priced directly at its
    optimal centroid and no kernel runs.
    """
    if all(len(pts) == 1 for pts in inst.groups):
        indices = (0,) * inst.num_groups
        centroid, cost = optimal_cluster_cost(inst.order, inst.chosen_cluster(indices))
        stats = {"centroids_tried": 1, "nodes": 0}
        if not cost_le(cost, inst.budget):
            return SelectionResult(False, stats=stats)
        return SelectionResult(True, indices, centroid, cost, stats)
    order = inst.order
    if order.kind == "lp" and order.p != 1:
        p = float(order.p)

        def limit(inc: _Incumbent) -> float:
            bound = float(cost_eval(inc.bound))
            return bound + _FLOAT_SLACK * max(1.0, bound)

        return _coordinate_search(inst, lambda a, v: abs(a - v) ** p, limit, centroid_cap,
                                  minimize)
    if order.kind != "lp" and inst.budget.exact is None:
        raise ValueError("budget must be rational in this regime")
    if order.kind == "l0":
        return _coordinate_search(inst, operator.ne, _Incumbent.limit, centroid_cap, minimize)
    if order.kind == "l2":
        if Fraction(inst.num_groups) > 4 * inst.budget.exact + 1:
            return SelectionResult(False, stats={"centroids_tried": 0, "nodes": 0,
                                                 "rejected": "group-count"})
        return _tuple_search(inst, _l2_price, (0, [0] * inst.dimension, 0), centroid_cap,
                             minimize)

    def price(state, pt: Point, w: int):
        pts, ws = state[0] + (pt,), state[1] + (w,)
        centroid, cost = optimal_cluster_cost(order, WeightedCluster(pts, ws))
        return (pts, ws), cost, centroid

    return _tuple_search(inst, price, ((), ()), centroid_cap, minimize)
