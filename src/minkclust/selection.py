"""Cluster Selection solvers.

Given t disjoint groups of weighted vectors and a budget, decide whether one
vector can be picked from each group so that the optimally-centered composite
cluster costs at most the budget.  A brute-force oracle covers every distance
order.  For the Hamming distance, p in (0, 1] and the squared Euclidean cost
the optimal centroid is chosen one coordinate at a time, so a tuple's optimum
is the sum of its columns' optima.  There the oracle walks merged column
states, one group at a time: prefixes whose columns hold the same multisets of
cells have the same completions at the same costs, so each such state is
grown once, and each distinct column is priced once per call.  For
p in (0, 1) a column's price also carries a float and a proven error bound,
and tuples are ordered by those bounds, exactly only where two overlap.  The
max distance is not separable, and there the oracle prices every tuple whole.
``solve_selection`` is the one exact solver: it runs a centroid
search for the Hamming distance and exponents p in (0, 1], and an exact tuple
search for the squared Euclidean cost and the max distance.  Both searches
also have a minimising form, a branch and bound in which the best witness so
far takes the budget's place in the pruning tests.

The centroid search (``_coordinate_search``) tries every centroid assembled
from the values present at each coordinate, which is complete for its
orders: a coordinate's Hamming cost is least at its weighted mode, its p = 1
cost at its weighted median, and for p in (0, 1) the weighted sum of
|x - c|**p is concave in c between consecutive values of the cluster and
grows outside them, so some optimal centroid takes a present value at every
coordinate.  It prices centroids one coordinate at a time, in integers, or
for p in (0, 1) in floats, whose total is only a filter.  A branch is cut
once its greedy total, plus a look-ahead of what the unset coordinates must
still cost, exceeds the bound.  The look-ahead is one table per call: for
each row and depth, the sum over the unset coordinates of the least that the
row's cost plus every other group's cheapest row can take at one value.  Any
one group's cheapest row under a completion pays its own look-ahead at
least, and each other group at least its cheapest rows, so no leaf within
the bound is lost.  A leaf within it is priced through the exact cost path:
in integers its tuple only, for p in (0, 1) after an exact re-costing, which
alone decides.

The tuple search (``_tuple_search``) picks one vector per group and prices
each partial tuple as a plain exact number, which lies at or below a
threshold exactly when the bound admits the tuple's cost: by integer running
sums for the squared Euclidean cost, whose optimal centroid is the weighted
mean; and for the max distance by its doubled optimal cost, an integer that
the exact gap LP returns from the max gaps between the tuple's vectors,
carried one row per vector.  Only a complete tuple within the bound is built
as a cluster and priced again through the exact cost path, for its centroid
and the check of its cost.  An instance with one vector per group is priced
at its single tuple without a search.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .centroids import (WeightedCluster, cluster_cost, linf_solve, mean_cost,
                        optimal_cluster_cost, summed_cost)
from .core import DistanceOrder, Number, Point, distance, require_integer_vectors
from .cost_model import Cost, approx_sign, approx_terms, cost_eq, cost_eval, cost_le
from .hypergraph import build_difference_hypergraph  # noqa: F401  (traced by perfbench/)
from .hypergraph import candidate_coordinate_sets  # noqa: F401  (traced by perfbench/)

CENTROID_CAP = 5_000_000  # the default node bound of every selection kernel


class EnumerationCapExceeded(RuntimeError):
    """Raised when a solver's candidate enumeration outgrows its cap."""


@dataclass(frozen=True)
class SelectionInstance:
    """t disjoint groups of weighted integer vectors
    (``require_integer_vectors``) plus a budget."""

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
        require_integer_vectors(seen)

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
    optimal centroid.  Returns the first minimal tuple in lexicographic order.

    Costs are priced cost only (``cluster_cost``) and compared as plain
    values, or for p in (0, 1) by float bounds, exactly only where two
    overlap (``_least_basis_tuple``).  Every order but the max distance
    picks its optimal centroid one coordinate at a time, so a tuple's
    optimal cost is the exact sum of the optimal costs of its columns, each
    column a one-coordinate cluster of (value, weight) cells.  So a prefix's
    cost to come depends only on its state, the multiset of cells in each of
    its columns, and ``_column_minimum`` walks states instead of tuples: each
    state is grown once, from the first prefix that reached it, and the last
    group's rows are priced against every state.  The first minimum it finds
    is the one product order finds (see there).  The max distance is not
    separable, so there every tuple is priced whole.  The winning tuple is
    priced again through ``optimal_cluster_cost`` for its centroid, and that
    cost must equal the one the search found.

    ``stats["tuples"]`` is the number of tuples, the product of the group
    sizes, which ``cap`` bounds: beyond it ``EnumerationCapExceeded`` is
    raised before any work.  ``stats["columns"]`` counts the distinct
    multisets of cells priced, and ``stats["states"]`` the states entering
    the last group (separable orders only).
    """
    size = math.prod(map(len, inst.groups))
    if size > cap:
        raise EnumerationCapExceeded(f"{size} tuples exceed the cap {cap}")
    order = inst.order
    rows = [list(zip(pts, ws)) for pts, ws in zip(inst.groups, inst.weights)]
    stats = {"tuples": size, "columns": 0}
    if order.kind == "linf":
        combos = itertools.product(*(range(len(g)) for g in inst.groups))
        best = best_value = None
        for combo, chosen in zip(combos, itertools.product(*rows)):
            pts, ws = zip(*chosen)
            value = cluster_cost(order, pts, ws)
            if best is None or value < best_value:
                best, best_value = combo, value
        indices, found = best, Cost.of(best_value)
    else:
        indices, found = _column_minimum(order, rows, stats)
    centroid, cost = optimal_cluster_cost(order, inst.chosen_cluster(indices))
    if not cost_eq(cost, found):
        raise AssertionError("the winning tuple's optimum differs from its cost-only price")
    return SelectionResult(cost_le(cost, inst.budget), indices, centroid, cost, stats)


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Column(dict):
    """A column state: one multiset of cell codes, kept sorted in ``cells``,
    and a memo from a code to the column grown by that cell.  ``registry``
    maps each multiset to its one column object, so a column's identity is
    its multiset's id, and a column hashes and compares by identity, not by
    its memo's contents."""

    __slots__ = ("cells", "registry")
    __hash__ = object.__hash__
    __eq__ = object.__eq__

    def __missing__(self, cell: int) -> "_Column":
        cells = tuple(sorted((*self.cells, cell)))
        grown = self.registry.get(cells)
        if grown is None:
            grown = self.registry[cells] = _Column()
            grown.cells, grown.registry = cells, self.registry
        self[cell] = grown
        return grown


def _column_minimum(order: DistanceOrder, rows: list,
                    stats: dict) -> tuple[tuple[int, ...], Cost]:
    """The first tuple in product order whose columns' optimal costs sum
    least, and that sum; for the separable orders.  ``rows`` holds each
    group's (vector, weight) pairs.

    The walk runs over column states, not tuples.  Each distinct
    (value, weight) cell gets an integer code.  A prefix's state is, per
    coordinate, the ``_Column`` of the codes its rows put there, and
    prefixes with one state have the same completions at the same costs, so
    each state is kept once, with the first prefix that reached it.  Growing
    a state by a row is one memo lookup per coordinate.  The last group
    builds no states: each of its rows is priced against each state by
    summing its grown columns' optima, each distinct multiset priced once
    (``stats["columns"]``).  ``stats["states"]`` counts the states entering
    the last group.  Exact costs are summed as integers where they are (far
    faster than ``Fraction``); basis costs are compared by
    ``_least_basis_tuple``, which builds a ``Cost`` only for the tuples that
    float bounds cannot order.
    """
    basis = order.kind == "lp" and order.p != 1
    code_of: dict = {}
    coded = [[tuple(code_of.setdefault((v, w), len(code_of)) for v in pt) for pt, w in group]
             for group in rows]
    cells_of = list(code_of)

    def price(column: _Column):
        stats["columns"] += 1
        cells = list(map(cells_of.__getitem__, column.cells))
        value = cluster_cost(order, [(v,) for v, _ in cells], [w for _, w in cells])
        if basis:
            return (*approx_terms(value, order.p), value)
        return value.numerator if value.denominator == 1 else value

    empty = _Column()
    empty.cells, empty.registry = (), {(): empty}
    states = {(empty,) * len(rows[0][0][0]): ()}
    # The kept prefix of each state is its least prefix in lexicographic
    # order, and the states are kept in the order of those prefixes.  By
    # induction over the groups: the least prefix Q + (i,) of a state is
    # reached from the kept prefix of Q's state, which is no larger than Q
    # and grows by row i to the same state, and the grown prefixes are met in
    # lexicographic order.  So the first minimum found below is the first in
    # product order: the first minimal tuple P + (r,) ties with (the kept
    # prefix of P's state) + (r,), which is no larger, so P is that kept
    # prefix and P + (r,) is walked, before every later minimum.
    try:
        for group in coded[:-1]:
            grown: dict = {}
            for state, prefix in states.items():
                for i, row in enumerate(group):
                    key = tuple(map(dict.__getitem__, state, row))
                    if key not in grown:
                        grown[key] = prefix + (i,)
            states = grown
        stats["states"] = len(states)
        prices = _Memo(price)
        if basis:
            return _least_basis_tuple(order, states, coded[-1], prices)
        best = best_total = None
        for state, prefix in states.items():
            for i, row in enumerate(coded[-1]):
                total = sum(map(prices.__getitem__, map(dict.__getitem__, state, row)))
                if best is None or total < best_total:
                    best, best_total = prefix + (i,), total
    finally:
        # every column refers to the registry: break those cycles now, so
        # the walk's columns are freed on return, not at a collection
        empty.registry.clear()
    return best, Cost.of(best_total)


def _least_basis_tuple(order: DistanceOrder, states: dict, last: list,
                       prices: _Memo) -> tuple[tuple[int, ...], Cost]:
    """The first least tuple of ``_column_minimum`` for p in (0, 1), and its
    exact cost.

    Each column's price is (float, error bound, terms), from ``approx_terms``.
    A tuple's float is the sum of its columns' floats, and its error the sum
    of their errors plus a rounding of 2u times the float for each of the
    d - 1 additions (u = 2**-53); the fourfold margin of every column's
    bound absorbs the rounding of these sums and of the comparisons.  A
    tuple whose bound lies wholly above the best's is passed over, and one
    wholly below replaces it; both without a ``Cost``.  Where the two bounds
    overlap, both tuples are summed into a ``Cost`` (``summed_cost``, the
    best's once) and ``cost_le`` decides.  A tuple replaces the best only
    when strictly cheaper, so the first minimum is kept.  An infinite or
    NaN bound, from a base or a total beyond the float range, always falls
    to the exact path (``approx_sign``).
    """
    rounding = max(len(next(iter(states))) - 1, 0) * 2.0**-52
    value_of, error_of = operator.itemgetter(0), operator.itemgetter(1)
    best = best_cols = best_bound = best_cost = None
    for state, prefix in states.items():
        for i, row in enumerate(last):
            cols = list(map(prices.__getitem__, map(dict.__getitem__, state, row)))
            value = sum(map(value_of, cols))
            bound = value, sum(map(error_of, cols)) + value * rounding
            cost = None
            if best is not None:
                sign = approx_sign(bound, best_bound)
                if sign > 0:
                    continue
                if sign == 0:
                    if best_cost is None:
                        best_cost = summed_cost(order, [c[2] for c in best_cols])
                    cost = summed_cost(order, [c[2] for c in cols])
                    if cost_le(best_cost, cost):
                        continue
            best, best_cols, best_bound, best_cost = prefix + (i,), cols, bound, cost
    if best_cost is None:
        best_cost = summed_cost(order, [c[2] for c in best_cols])
    return best, best_cost


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
        """Largest integer admitted as ``scale`` times a cost (rational
        bounds)."""
        num, den = self.bound.exact.as_integer_ratio()
        num *= scale
        if self.best is None:
            return num // den
        return -(-num // den) - 1

    def take(self, res: SelectionResult) -> bool:
        """Record an admitted witness; true when the search is over."""
        self.best, self.bound = res, res.cost
        return not self.minimize or res.cost.exact == 0

    def result(self, stats: dict) -> SelectionResult:
        return self.best or SelectionResult(False, stats=stats)


def _taken(inst: SelectionInstance, indices: tuple[int, ...], stats: dict,
           inc: _Incumbent) -> bool:
    """Offer a tuple found within the threshold, at its optimal centroid, to
    the incumbent, which must admit it; true when the search is over."""
    centroid, cost = optimal_cluster_cost(inst.order, inst.chosen_cluster(indices))
    if not inc.admits(cost):
        raise AssertionError("a tuple within the threshold costs more than the bound")
    return inc.take(SelectionResult(True, indices, centroid, cost, stats))


def _coordinate_search(
    inst: SelectionInstance,
    coord_cost: Callable[[int], Number],
    limit: Callable[[_Incumbent], Number],
    centroid_cap: int,
    minimize: bool,
) -> SelectionResult:
    """Depth-first search over the centroids built from the values present at
    each coordinate, priced one coordinate at a time; the Hamming and
    p in (0, 1] kernel.

    Each row r (a vector ``pt`` of weight ``w``) carries a partial cost P_r,
    and setting coordinate ``j`` to ``v`` adds a_r(j, v) =
    ``w * coord_cost(|pt[j] - v|)`` to every row.  A leaf's greedy total is the
    sum over groups of each group's smallest partial, the greedy cost of its
    centroid; ``limit(inc)``, the largest one still admitted, is re-read only
    after a leaf.  In integers that total is exact, and ``_taken`` prices the
    leaf's tuple, each group's first row at its least partial; for p in
    (0, 1) ``select_fixed_centroid`` first re-costs the leaf exactly, which
    alone decides.

    A child, whose rows carry the partials P_r once coordinate j is set, is
    cut by two tests against that limit.  First by its greedy total
    tot = sum_g m_g, where m_g is group g's smallest P_r.  Then by a
    look-ahead over the unset coordinates.  With cheapest_g(j', v) the least
    a_r(j', v) over the rows of group g, each row r of g carries

        ahead_j(r) = sum_{j' >= j} min_v (a_r(j', v) + sum_{g' != g} cheapest_g'(j', v)),

    built once per call (``after[j]`` holds ahead_{j+1}), and the child is
    cut once tot + max_g (min_{r in g} (P_r + ahead_{j+1}(r)) - m_g) exceeds
    the limit.  The first test is the second with every ahead 0; it runs
    first because it is cheaper.  The look-ahead is safe: take any completion c of
    the unset coordinates and let r*_g be group g's cheapest row under it.
    For every g the leaf's total is at least P_r + sum_j' a_r(j', c_j') at
    r = r*_g plus, for each other group g', m_g' + sum_j' cheapest_g'(j',
    c_j'); that is at least min_{r in g} (P_r + ahead_{j+1}(r)) + tot - m_g.
    So each group's term alone bounds every leaf below the child, and a cut
    removes only subtrees whose every leaf's greedy total exceeds the limit.
    The leaves visited within the limit, the witnesses and
    ``centroids_tried`` are those of the greedy test alone; only ``nodes``
    falls.

    For p in (0, 1) the look-ahead sums the same floats in another order
    than a leaf's own total.  The leaves that this rounding could newly cut
    lie within a few ulps of the limit, and the limit already carries a
    ``_FLOAT_SLACK`` share of the bound, so such a leaf costs more than the
    bound exactly and would not be admitted.  A gap beyond the float range
    costs inf; ahead never subtracts, so it holds no NaN, and where a child's
    term is inf - inf, NaN, that term never cuts.

    Nodes count against ``centroid_cap``; leaves count as centroids tried.
    """
    inc = _Incumbent(inst, minimize)
    stats = {"centroids_tried": 0, "nodes": 0}
    basis = inst.order.kind == "lp" and inst.order.p != 1
    rows = [(pt, w) for _, _, pt, w in inst.iter_vectors()]
    spans = []
    pos = 0
    for pts in inst.groups:
        spans.append(slice(pos, pos + len(pts)))
        pos += len(pts)
    depth = inst.dimension
    # steps[j]: (v, a(j, v)) for each value v present at coordinate j
    steps = [[(v, [w * coord_cost(abs(pt[j] - v)) for pt, w in rows])
              for v in sorted({pt[j] for pt, _ in rows})] for j in range(depth)]
    owner = [g for g, pts in enumerate(inst.groups) for _ in pts]
    # after[j]: each row's look-ahead over the coordinates after j
    after = [[0] * len(rows)]
    for column in reversed(steps[1:]):
        raised = []
        for _, costs in column:
            cheapest = list(map(min, map(costs.__getitem__, spans)))
            others = [sum(cheapest[:g]) + sum(cheapest[g + 1:]) for g in range(len(spans))]
            raised.append(list(map(operator.add, costs, map(others.__getitem__, owner))))
        # raised[0] twice: min needs two arguments when one value is present
        after.append(list(map(operator.add, after[-1], map(min, raised[0], *raised))))
    after.reverse()
    chosen = [0] * depth
    lim = limit(inc)

    def rec(j: int, partial: list) -> bool:
        nonlocal lim
        stats["nodes"] += 1
        if stats["nodes"] > centroid_cap:
            raise EnumerationCapExceeded("search node cap exceeded")
        if j == depth:
            stats["centroids_tried"] += 1
            if basis:  # the tuple's optimal centroid is never worse than this one
                res = select_fixed_centroid(inst, tuple(chosen))
                done = inc.admits(res.cost) and _taken(inst, res.indices, stats, inc)
            else:
                segs = map(partial.__getitem__, spans)
                done = _taken(inst, tuple(seg.index(min(seg)) for seg in segs), stats, inc)
            lim = limit(inc)
            return done
        rest = after[j]
        for v, costs in steps[j]:
            nxt = list(map(operator.add, partial, costs))
            lows = list(map(min, map(nxt.__getitem__, spans)))
            tot = sum(lows)
            if tot > lim:
                continue
            est = list(map(operator.add, nxt, rest))
            if tot + max(map(operator.sub, map(min, map(est.__getitem__, spans)), lows)) > lim:
                continue
            chosen[j] = v
            if rec(j + 1, nxt):
                return True
        return False

    rec(0, [0] * len(rows))
    del rec  # rec refers to itself: free the search's state now, not at a full collection
    return inc.result(stats)


# ---------------------------------------------------------------------------
# tuple search: squared Euclidean, max distance


def _tuple_search(
    inst: SelectionInstance,
    price: Callable,
    start,
    limit: Callable[[_Incumbent], Number],
    centroid_cap: int,
    minimize: bool,
) -> SelectionResult:
    """Depth-first branch and bound over tuples.

    Picks one vector per group, in group order and index order.  ``price``
    takes the partial tuple's state and the next vector and weight, and
    returns the grown state and the grown partial tuple's value, an exact
    number that a fixed positive factor turns into its optimal cost; the
    search begins at ``start``.  ``limit(inc)`` is the threshold the value
    must not exceed, so that a value is at most it exactly when the incumbent
    admits the cost; it is re-read only after a taken witness.  Adding a
    vector never lowers a cluster's optimal cost, so a partial tuple above
    the threshold bounds every completion and its branch is cut.  Only a
    complete tuple within it is built as a cluster: it is priced again
    through ``optimal_cluster_cost`` (``_taken``), for its centroid and a
    ``Cost`` the incumbent must admit, and the search raises if it does not.

    ``nodes`` counts the partial tuples expanded, bounded by
    ``centroid_cap``, and ``centroids_tried`` the complete tuples admitted.
    With ``minimize`` the search runs on under the strict incumbent and a yes
    carries the first minimum-cost tuple in lexicographic order, the one
    ``select_bruteforce`` returns.
    """
    inc = _Incumbent(inst, minimize)
    stats = {"centroids_tried": 0, "nodes": 0}
    last = inst.num_groups - 1
    chosen: list[int] = []
    lim = limit(inc)

    def rec(g: int, state) -> bool:
        nonlocal lim
        stats["nodes"] += 1
        if stats["nodes"] > centroid_cap:
            raise EnumerationCapExceeded("search node cap exceeded")
        for i, row in enumerate(zip(inst.groups[g], inst.weights[g])):
            nxt, value = price(state, *row)
            if value > lim:
                continue
            chosen.append(i)
            if g < last:
                if rec(g + 1, nxt):
                    return True
            else:
                stats["centroids_tried"] += 1
                if _taken(inst, tuple(chosen), stats, inc):
                    return True
                lim = limit(inc)
            chosen.pop()
        return False

    rec(0, start)
    del rec  # rec refers to itself: free the search's state now, not at a full collection
    return inc.result(stats)


def _l2_price(state, pt: Point, w: int):
    """Grow a partial tuple's integer running sums, its weight W, S = sum w x
    and Q = sum w |x|^2, and price it at (W Q - |S|^2) / W, its squared
    Euclidean cost about the weighted mean."""
    total, sums, sq = state
    total += w
    sums = [s + w * x for s, x in zip(sums, pt)]
    sq += w * sum(x * x for x in pt)
    return (total, sums, sq), mean_cost(total, sums, sq)


def _linf_price(state, pt: Point, w: int):
    """Grow a partial tuple's points, weights and max-distance gap rows by one
    vector, which adds one gap row, and price it at twice its optimal cost,
    an integer (``linf_solve``, or ``pair_cost``'s closed form up to two)."""
    pts, ws, gaps = state
    sub = operator.sub
    row = [max(map(abs, map(sub, pt, x))) for x in pts]
    gaps = [old + [gap] for old, gap in zip(gaps, row)]
    gaps.append(row + [0])
    pts, ws = pts + (pt,), ws + (w,)
    if len(pts) <= 2:  # row holds no gap for one vector, and one for two
        return (pts, ws, gaps), 2 * min(ws) * sum(row)
    return (pts, ws, gaps), linf_solve(pts, ws, gaps)[1]


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
      coordinate cost |a - v|**p, once per gap, as exp(p * log|a - v|) for a
      gap beyond the float range.  Its float totals only filter, within a
      ``_FLOAT_SLACK`` share of the bound; the exact greedy cost decides.
    - Hamming and p = 1: the centroid search, a gap costing ``bool(gap)`` or ``gap``.
    - Squared Euclidean: a no at once when more than 4D + 1 groups exist,
      else the tuple search priced by integer running sums (``_l2_price``).
    - The max distance: the tuple search with every partial tuple priced at
      its doubled optimum from gap rows it carries (``_linf_price``).
      k-Clustering under the max distance is W[1]-hard parameterized by the
      budget, so only exactness is owed there.

    Save for p in (0, 1) a search builds a cluster, its centroid and a
    ``Cost`` only for an admitted tuple, through ``optimal_cluster_cost``,
    and the order needs a rational budget.  Pass ``minimize=True`` for
    the optimisation form: the budget is only an upper bound, and a yes
    carries a tuple of minimum optimal cost.  ``centroid_cap`` bounds the
    search nodes; beyond it ``EnumerationCapExceeded`` is raised.  An
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
    order = inst.order
    if order.kind == "lp" and order.p != 1:
        p = float(order.p)

        def limit(inc: _Incumbent) -> float:
            bound = float(cost_eval(inc.bound))
            return bound + _FLOAT_SLACK * max(1.0, bound)

        def gap_cost(gap: int) -> float:
            try:
                return gap**p
            except OverflowError:  # the gap is beyond the float range, gap**p may not be
                try:
                    return math.exp(p * math.log(gap))
                except OverflowError:
                    return math.inf

        return _coordinate_search(inst, _Memo(gap_cost).__getitem__, limit, centroid_cap, minimize)
    if inst.budget.exact is None:
        raise ValueError("budget must be rational in this regime")
    if order.kind in ("l0", "lp"):  # Hamming counts the nonzero gaps, p = 1 sums them
        gap_cost = bool if order.kind == "l0" else int
        return _coordinate_search(inst, gap_cost, _Incumbent.limit, centroid_cap, minimize)
    if order.kind == "l2":
        if Fraction(inst.num_groups) > 4 * inst.budget.exact + 1:
            return SelectionResult(False, stats={"centroids_tried": 0, "nodes": 0,
                                                 "rejected": "group-count"})
        heaviest = sum(map(max, inst.weights))

        def limit(inc: _Incumbent) -> Fraction:
            # a partial tuple of weight W <= heaviest costs some m / W, which
            # lies below the bound n / d only by 1 / (d W) or more
            bound = inc.bound.exact
            return bound if inc.best is None else bound - Fraction(1, bound.denominator * heaviest)

        return _tuple_search(inst, _l2_price, (0, [0] * inst.dimension, 0), limit,
                             centroid_cap, minimize)
    return _tuple_search(inst, _linf_price, ((), (), []), lambda inc: inc.limit(2),
                         centroid_cap, minimize)
