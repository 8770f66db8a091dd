"""Cluster Selection solvers.

Given t disjoint groups of weighted vectors and a budget, decide whether one
vector can be picked from each group so that the optimally-centered composite
cluster costs at most the budget.  A brute-force oracle covers every distance
order; the specialized solvers implement the parameterized algorithms for
exponents p in (0, 1] and the Hamming distance, and an exact tuple search for
p = 1, the squared Euclidean cost and the max distance.  Each specialized
solver also has a minimising form, a branch and bound in which the best
witness so far takes the budget's place in the pruning tests.

The Hamming and p in (0, 1] solvers price their centroids one coordinate at a
time (``_coordinate_search``), in integers for the first and in floats for
p in (0, 1], where the float total is only a filter.  Every candidate that
passes is re-costed through the exact cost path, which alone decides, before
it is returned.  The tuple search (``_tuple_search``) picks one vector per
group and prices each partial tuple exactly: through the exact cost path for
p = 1 and the max distance, and by integer running sums for the squared
Euclidean cost, whose optimal centroid is the weighted mean.
``solve_selection`` routes p = 1 to the tuple search; ``select_lp01`` stays
the paper's algorithm for all of p in (0, 1].  An instance with one vector per
group is priced at its single tuple without running a solver.
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
from .cost_model import Cost, cost_eval, cost_floor, cost_le
from .hypergraph import build_difference_hypergraph, candidate_coordinate_sets


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

    @property
    def num_vectors(self) -> int:
        return sum(len(g) for g in self.groups)

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

    def limit(self, scale: int = 1) -> int:
        """Largest integer n whose cost n / scale is admitted (rational bounds)."""
        value = self.bound.exact * scale
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
    groups: Sequence[Sequence[tuple[Point, int]]],
    columns: Sequence[tuple[int, Sequence[int]]],
    coord_cost: Callable[[int, int], Number],
    start: Sequence[Number],
    limit: Callable[[], Number],
    leaf: Callable[[tuple[int, ...]], bool],
    stats: dict,
    cap: int,
    memo: dict | None = None,
) -> bool:
    """Depth-first search over centroid coordinates, priced incrementally;
    the centroid search of the Hamming and p in (0, 1] solvers.

    Each row (a vector ``pt`` of weight ``w``) carries a partial cost, starting
    at ``start`` (rows in group order).  ``columns`` lists the coordinates to
    set, each with its values in visiting order; setting coordinate ``j`` to
    ``v`` adds ``w * coord_cost(pt[j], v)`` to every row.  A node is cut once
    the greedy total, the sum over groups of each group's smallest partial,
    exceeds ``limit()``, which is re-read only after a leaf.  Costs only grow
    as coordinates are set, so a cut never loses a leaf that passes, and a
    leaf's total is the greedy cost of its centroid over ``groups``.  ``leaf`` receives the
    values of each surviving leaf, one per column, and returns true to end
    the search.  Nodes count against ``cap``; leaves count as centroids tried.
    Each (coordinate, value) pair's weighted costs are computed on first use
    and kept in ``memo``, which calls over the same rows may share.
    """
    rows = [row for grp in groups for row in grp]
    spans = []
    pos = 0
    for grp in groups:
        spans.append(slice(pos, pos + len(grp)))
        pos += len(grp)
    if memo is None:
        memo = {}
    depth = len(columns)
    chosen = [0] * depth
    lim = limit()

    def rec(k: int, partial: list) -> bool:
        nonlocal lim
        stats["nodes"] += 1
        if stats["nodes"] > cap:
            raise EnumerationCapExceeded("search node cap exceeded")
        if k == depth:
            stats["centroids_tried"] += 1
            done = leaf(tuple(chosen))
            lim = limit()
            return done
        j, values = columns[k]
        for v in values:
            costs = memo.get((j, v))
            if costs is None:
                costs = memo[j, v] = [w * coord_cost(pt[j], v) for pt, w in rows]
            nxt = list(map(operator.add, partial, costs))
            if sum(map(min, map(nxt.__getitem__, spans))) > lim:
                continue
            chosen[k] = v
            if rec(k + 1, nxt):
                return True
        return False

    partial = list(start)
    if sum(map(min, map(partial.__getitem__, spans))) > lim:
        return False
    return rec(0, partial)


# ---------------------------------------------------------------------------
# exponents p in (0, 1]


# Float totals filter candidates before the exact check; they may exceed the
# exact cost by rounding, relative to its size, so a candidate is dropped only
# beyond this share of the bound (or of 1, for bounds below 1).
_FLOAT_SLACK = 1e-6


def _pow_cache_fn(p: Fraction):
    pf = float(p)
    cache: dict[int, float] = {0: 0.0}

    def powp(gap: int) -> float:
        v = cache.get(gap)
        if v is None:
            v = float(gap) ** pf
            cache[gap] = v
        return v

    return powp


def _greedy_float_lp(inst: SelectionInstance, centroid: Point, powp) -> float:
    total = 0.0
    for pts, ws in zip(inst.groups, inst.weights):
        best = math.inf
        for pt, w in zip(pts, ws):
            s = 0.0
            for a, b in zip(pt, centroid):
                s += powp(abs(a - b))
            v = w * s
            if v < best:
                best = v
        total += best
    return total


def select_lp01(
    inst: SelectionInstance,
    mode: str = "auto",
    centroid_cap: int = 1_000_000,
    pattern_max_vertices: int | None = None,
    pattern_max_edges: int | None = None,
    minimize: bool = False,
) -> SelectionResult:
    """Solver for exponents p in (0, 1].

    First tries every input vector as the centroid.  Failing that, for each
    pivot choice from the first group it enumerates candidate coordinate
    subsets from the difference hypergraph and all integral centroids that
    deviate from the pivot only there, by moves whose cost to the pivot stays
    within the bound.  ``mode`` selects exhaustive or pattern-based subset
    enumeration ("auto" goes exhaustive while the active coordinates are few).

    Each subset is searched coordinate by coordinate (``_coordinate_search``)
    with the pivot alone standing for the first group, so the pivot's own cost
    bounds its moves.  Float costs only filter, within a ``_FLOAT_SLACK``
    share of the bound, in both phases; the exact greedy cost decides every
    candidate.

    With ``minimize`` a yes carries a minimum-cost tuple: the input-vector
    phase seeds the incumbent, and the enumeration then runs to the end,
    bounded by the incumbent's cost instead of the budget.  ``centroid_cap``
    bounds the search nodes.
    """
    if inst.order.kind != "lp":
        raise ValueError("solver requires an exponent p in (0, 1]")
    p = inst.order.p
    inc = _Incumbent(inst, minimize)
    stats = {"phase2_entered": False, "centroids_tried": 0, "nodes": 0, "pivots": 0,
             "candidate_sets": 0, "phase": None}
    powp = _pow_cache_fn(p)
    limit_of = limit_f = None

    def limit() -> float:
        # the float filter's bound, re-read when the incumbent moves
        nonlocal limit_of, limit_f
        if limit_of is not inc.bound:
            limit_of, limit_f = inc.bound, float(cost_eval(inc.bound))
            limit_f += _FLOAT_SLACK * max(1.0, limit_f)
        return limit_f

    for _, _, pt, _ in inst.iter_vectors():
        if _greedy_float_lp(inst, pt, powp) > limit():
            continue
        if _verified(inst, pt, stats, inc):
            stats["phase"] = "input-vector"
            return inc.best

    stats["phase2_entered"] = True
    stats["phase"] = "enumerated"

    eligible: list[list[tuple[int, Point, int]]] = []
    for pts, ws in zip(inst.groups, inst.weights):
        rows = [(i, pt, w) for i, (pt, w) in enumerate(zip(pts, ws))
                if cost_le(Cost.of(w), inc.bound)]
        if not rows:
            return inc.result(stats)
        eligible.append(rows)

    d = inst.dimension
    all_points = [pt for _, _, pt, _ in inst.iter_vectors()]
    gmin = [min(pt[i] for pt in all_points) for i in range(d)]
    gmax = [max(pt[i] for pt in all_points) for i in range(d)]
    rest = [list(zip(pts, ws)) for pts, ws in zip(inst.groups[1:], inst.weights[1:])]
    seen: set[Point] = set()

    def coord_cost(a: int, v: int) -> float:
        return powp(abs(a - v))

    for i1, pt1, w1 in eligible[0]:
        stats["pivots"] += 1
        d_limit = cost_floor(inc.bound)  # each moved coordinate costs at least 1
        others = [
            (pt, w)
            for g, rows in enumerate(eligible)
            for i, pt, w in rows
            if not (g == 0 and i == i1)
        ]
        host = build_difference_hypergraph(pt1, others, inc.bound)
        if d_limit < 1:
            continue  # centroid equal to the pivot was already tried
        host_mode = mode
        if mode == "auto":
            host_mode = "exhaustive" if len(host.active_vertices()) <= 20 else "pattern"
        cands = candidate_coordinate_sets(
            host, d_limit, host_mode, pattern_max_vertices, pattern_max_edges
        )
        stats["candidate_sets"] += len(cands)

        # the first group is the pivot alone: a tuple that contains the pivot
        # costs at most the bound at its centroid, so this cut loses no optimum
        groups = [[(pt1, w1)]] + rest
        memo: dict = {}
        # each row's weighted cost per coordinate left at the pivot's value; a
        # subset's search starts from the sum over the coordinates outside it
        pivot_cost = [[w * coord_cost(a, b) for a, b in zip(pt, pt1)]
                      for grp in groups for pt, w in grp]
        values = []
        for j in range(d):
            col = []
            for mag in itertools.count(1):
                if w1 * powp(mag) > limit():  # the pivot's own move costs too much
                    break
                for off in (mag, -mag):
                    # clamping into the box never loses an optimum
                    if gmin[j] <= pt1[j] + off <= gmax[j]:
                        col.append(pt1[j] + off)
            values.append(col)

        for subset in cands:
            if not subset:
                continue
            coords = sorted(subset)

            def leaf(vals: tuple[int, ...]) -> bool:
                candidate = list(pt1)
                for c, v in zip(coords, vals):
                    candidate[c] = v
                key = tuple(candidate)
                if key in seen:
                    return False
                seen.add(key)
                return _verified(inst, key, stats, inc)

            outside = [j for j in range(d) if j not in subset]
            start = [sum([row[j] for j in outside]) for row in pivot_cost]
            if _coordinate_search(groups, [(j, values[j]) for j in coords], coord_cost,
                                  start, limit, leaf, stats, centroid_cap, memo):
                return inc.best
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


def _select_by_cluster(inst: SelectionInstance, centroid_cap: int = 5_000_000,
                       minimize: bool = False) -> SelectionResult:
    """The tuple search with each partial tuple priced as a cluster through
    ``optimal_cluster_cost`` (the weighted median for p = 1, the integer
    min-cost flow for the max distance)."""

    def price(state, pt: Point, w: int):
        pts, ws = state[0] + (pt,), state[1] + (w,)
        centroid, cost = optimal_cluster_cost(inst.order, WeightedCluster(pts, ws))
        return (pts, ws), cost, centroid

    return _tuple_search(inst, price, ((), ()), centroid_cap, minimize)


def select_l2(
    inst: SelectionInstance,
    centroid_cap: int = 5_000_000,
    minimize: bool = False,
) -> SelectionResult:
    """Solver for the squared Euclidean cost: the tuple search
    (``_tuple_search``), since a fixed tuple's optimal centroid is its
    weighted mean.

    Rejects immediately when more than 4D + 1 groups exist.  Each partial
    tuple carries integer running sums, its weight W, S = sum w x and
    Q = sum w |x|^2, and costs (W Q - |S|^2) / W.  An admitted complete tuple
    takes its centroid and cost from the exact path.  ``centroid_cap`` bounds
    the search nodes; with ``minimize`` a yes carries a minimum-cost tuple.
    """
    if inst.order.kind != "l2":
        raise ValueError("solver requires the squared Euclidean order")
    if inst.budget.exact is None:
        raise ValueError("budget must be rational in this regime")
    if Fraction(inst.num_groups) > 4 * inst.budget.exact + 1:
        return SelectionResult(False, stats={"centroids_tried": 0, "nodes": 0,
                                             "rejected": "group-count"})

    def price(state, pt: Point, w: int):
        total, sums, sq = state
        total += w
        sums = [s + w * x for s, x in zip(sums, pt)]
        sq += w * sum(x * x for x in pt)
        cost = Cost.of(Fraction(total * sq - sum(s * s for s in sums), total))
        return (total, sums, sq), cost, None

    return _tuple_search(inst, price, (0, [0] * inst.dimension, 0), centroid_cap, minimize)


def select_linf(
    inst: SelectionInstance,
    centroid_cap: int = 5_000_000,
    minimize: bool = False,
) -> SelectionResult:
    """Solver for the max distance: the tuple search (``_tuple_search``) with
    every partial tuple priced at its exact optimum (``optimal_cluster_cost``,
    an integer min-cost flow).

    k-Clustering under the max distance is W[1]-hard parameterized by the
    budget, so no centroid search is owed here, only exactness.
    ``centroid_cap`` bounds the search nodes; with ``minimize`` a yes carries
    the first minimum-cost tuple in lexicographic order.
    """
    if inst.order.kind != "linf":
        raise ValueError("solver requires the max-distance order")
    if inst.budget.exact is None:
        raise ValueError("budget must be rational in this regime")
    return _select_by_cluster(inst, centroid_cap, minimize)


# ---------------------------------------------------------------------------
# Hamming distance


def select_l0(
    inst: SelectionInstance,
    centroid_cap: int = 5_000_000,
    minimize: bool = False,
) -> SelectionResult:
    """Solver for the Hamming distance: search every centroid assembled from
    values present per coordinate anywhere in the instance, one coordinate at
    a time (``_coordinate_search``), cutting a branch once its greedy
    mismatch count exceeds the bound.  ``centroid_cap`` bounds the search
    nodes.  With ``minimize`` each witness lowers the bound later centroids
    must beat, and a yes carries a minimum-cost tuple."""
    if inst.order.kind != "l0":
        raise ValueError("solver requires the Hamming order")
    if inst.budget.exact is None:
        raise ValueError("budget must be rational in this regime")
    d = inst.dimension
    inc = _Incumbent(inst, minimize)
    stats = {"centroids_tried": 0, "nodes": 0}
    columns = [(i, sorted({pt[i] for _, _, pt, _ in inst.iter_vectors()})) for i in range(d)]
    groups = [list(zip(pts, ws)) for pts, ws in zip(inst.groups, inst.weights)]

    def leaf(centroid: tuple[int, ...]) -> bool:
        return _verified(inst, centroid, stats, inc)

    _coordinate_search(groups, columns, lambda a, v: a != v, [0] * inst.num_vectors,
                       inc.limit, leaf, stats, centroid_cap)
    return inc.result(stats)


def solve_selection(inst: SelectionInstance, **kwargs) -> SelectionResult:
    """Dispatch to the specialized solver for the instance's distance order:
    the tuple search for p = 1 (priced by the weighted median), ``select_l2``
    and ``select_linf``, ``select_lp01`` for p in (0, 1) and ``select_l0``.

    Pass ``minimize=True`` for the optimisation form: the budget is only an
    upper bound, and a yes carries a tuple of minimum optimal cost.  An
    instance with one vector per group has a single tuple, so in either form
    it is priced directly at its optimal centroid and no kernel runs.
    """
    if all(len(pts) == 1 for pts in inst.groups):
        indices = (0,) * inst.num_groups
        centroid, cost = optimal_cluster_cost(inst.order, inst.chosen_cluster(indices))
        stats = {"centroids_tried": 1, "nodes": 0}
        if not cost_le(cost, inst.budget):
            return SelectionResult(False, stats=stats)
        return SelectionResult(True, indices, centroid, cost, stats)
    if inst.order.kind == "lp":
        if inst.order.p == 1:
            return _select_by_cluster(inst, **kwargs)
        return select_lp01(inst, **kwargs)
    if inst.order.kind == "l2":
        return select_l2(inst, **kwargs)
    if inst.order.kind == "linf":
        return select_linf(inst, **kwargs)
    return select_l0(inst, **kwargs)
