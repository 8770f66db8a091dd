"""k-Clustering solvers.

One exact partition search, the member walk cut by pair bounds, serves all
three paths on one set-up (``_pair_bounds``: the pair table, look-ahead and
cached part pricer over the initial clusters).  Over the initial clusters
it is the brute-force oracle when it minimises and the exhaustive policy
when it stops at the first family within the budget.  The ``auto`` policy,
the paper's randomised algorithm, colors the initial clusters and runs the
walk over each coloring's color classes: a part is a set of classes (a
future composite cluster), priced once per distinct bundle (the part's
sorted classes) by one minimising selection call, or by the part pricer,
cost only, when every class holds one vector.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import itemgetter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .centroids import WeightedCluster, cluster_cost, optimal_cluster_cost, summed_cost
from .core import Clustering, Dataset, DistanceOrder, InitialCluster, merge_cost_bound, regularize
from .cost_model import Cost, approx_terms, cost_eq, cost_eval, cost_floor, cost_le
from .cost_model import enumerate_cost_set  # noqa: F401  (traced by perfbench/)
from .selection import CENTROID_CAP, SelectionInstance, solve_selection

MAX_ITERATIONS = 100_000  # the default random coloring count stops here
COLORING_CAP = 1_000_000  # the auto policy takes at most this many colorings


@dataclass(frozen=True)
class ClusteringInstance:
    dataset: Dataset
    k: int
    budget: Cost
    order: DistanceOrder

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one cluster")


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for the color-coding solver.

    ``policy`` is ``auto`` (the member walk over the color classes of
    ``iterations`` seeded random colorings, by default min(ceil(e**T),
    ``MAX_ITERATIONS``); a no is one sided) or ``exhaustive`` (the member
    walk over the initial clusters, with no count to set; the decision is
    exact).  ``centroid_cap`` bounds the search nodes of every selection
    call, which only ``auto`` makes.
    """

    seed: int = 0
    policy: str = "auto"
    iterations: int | None = None
    centroid_cap: int = CENTROID_CAP

    def __post_init__(self) -> None:
        if self.policy not in ("auto", "exhaustive"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.iterations is not None and (
                self.policy == "exhaustive" or not 1 <= self.iterations <= COLORING_CAP):
            raise ValueError(f"only the auto policy takes iterations, in 1..{COLORING_CAP}")


@dataclass
class SolveResult:
    decision: bool
    clustering: Clustering | None
    stats: dict = field(default_factory=dict)


def _assemble_clustering(
    order: DistanceOrder,
    initial: Sequence[InitialCluster],
    parts: Sequence[Sequence[int]],
) -> Clustering:
    used = set()
    member_lists: list[tuple[tuple[tuple, int], ...]] = []
    centroids = []
    costs = []
    for part in parts:
        members = tuple((initial[i].representative, initial[i].size) for i in part)
        cluster = WeightedCluster(
            tuple(m[0] for m in members), tuple(m[1] for m in members)
        )
        centroid, cost = optimal_cluster_cost(order, cluster)
        member_lists.append(members)
        centroids.append(centroid)
        costs.append(cost)
        used.update(part)
    for i, ic in enumerate(initial):
        if i not in used:
            member_lists.append(((ic.representative, ic.size),))
            centroids.append(ic.representative)
            costs.append(Cost.of(0))
    return Clustering(tuple(member_lists), tuple(centroids), tuple(costs),
                      sum(costs, Cost.of(0)))


@dataclass
class BruteForceResult:
    decision: bool
    clustering: Clustering | None
    min_cost: Cost
    stats: dict = field(default_factory=dict)


class _PairBounds(NamedTuple):
    to_key: Callable  # a ``cluster_cost`` value -> its key
    top: Callable  # a Cost -> the largest key within it
    unit: int  # 1 for integer keys, 0 for float keys
    pair: list[list]  # pair[a][b]: at most the key of any part holding items a and b
    price: Callable  # a part -> (its initial clusters, key, exact value), or None
    parts: dict[tuple[int, ...], tuple]  # the initial-cluster parts ``price`` has priced
    ahead: list  # ahead[m]: at most the key of any parts making m merges


def _float_bounds(cost: Cost) -> tuple[float, float]:
    """Floats at most and at least a cost, but for one rounding each:
    ``approx_terms``' value less and plus its proven bound, a rational
    rounded, and past the float range, where no bound is, the 50-digit value."""
    try:
        value, bound = approx_terms(cost.terms, cost.p) if cost.terms else (float(cost.exact), 0.0)
    except OverflowError:  # a rational past the float range
        bound = math.inf
    if bound == math.inf:
        value, bound = float(cost_eval(cost)), 0.0
    return value - bound, value + bound


def _pair_bounds(order: DistanceOrder, initial: Sequence[InitialCluster],
                 excess: int) -> _PairBounds:
    """The member walk's set-up over ``initial`` owing ``excess`` merges:
    its pricer and the pair bounds.  ``price(part)``, a part being a sorted
    tuple of initial clusters, gives the part, its key and its exact value
    as ``cluster_cost`` returns it, each distinct part priced once into
    ``parts``; every pair is priced first, in closed form, into ``pair``.

    A pair is priced at its own optimum P(a, b), and with c* any part's
    optimal centroid P(a, b) <= w_a d(a, c*) + w_b d(b, c*): summed over the
    pairs of a part of s initial clusters, (s - 1) * cost >= its pair sum,
    and a part never costs less than any of its pairs.  With c2 the
    cheapest pair, parts making m > 0 merges therefore cost at least
    max(alpha * m, (m + 1) * c2 / 2), alpha the per-merge floor.

    Keys: costs of integer points are integers or halves under Hamming,
    p = 1 and max distance, and multiples of 1/W for a squared L2 part of
    weight W.  Scaled by 2, or for squared L2 by lcm(1, ..., W) with W the
    total weight, they are integers, the look-ahead is rounded up, and
    ``top(cost)``, the largest key within a cost, is its scaled floor.  For
    p in (0, 1) a key is a float at most its cost, and ``top`` one at least
    it (``_float_bounds``) above a band for the rounding of sums.
    """
    points = [ic.representative for ic in initial]
    sizes = [ic.size for ic in initial]
    n = len(initial)
    if order.kind == "lp" and order.p < 1:
        # A key is at most its cost, and top's float at least its value, but
        # for one rounding of 2**-53 relative each, and a float sum of j keys
        # adds j - 1 more.  A bound sums at most comb(n, 2) pair keys, or n
        # part keys, pair minima and a look-ahead, so the two sides are off
        # by under (n**2 + 4) * 2**-52 together; the band is four times that.
        unit, rel, p = 0, (n * n + 4) * 2.0**-50, order.p
        to_key = lambda value: _float_bounds(Cost(terms=value, p=p))[0]  # noqa: E731
        top = lambda cost: _float_bounds(cost)[1] * (1 + rel)  # noqa: E731
    else:
        scale = math.lcm(*range(1, sum(sizes) + 1)) if order.kind == "l2" else 2
        unit = 1
        to_key = lambda value: _scaled(value, scale)  # noqa: E731
        top = lambda cost: cost_floor(cost, scale)  # noqa: E731
    parts: dict[tuple[int, ...], tuple] = {}

    def price(part: tuple[int, ...]) -> tuple:
        hit = parts.get(part)
        if hit is None:
            get = itemgetter(*part)  # a part holds two or more, so get gives tuples
            value = cluster_cost(order, get(points), get(sizes))
            hit = parts[part] = (part, to_key(value), value)
        return hit

    pair = [[0] * n for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        pair[a][b] = pair[b][a] = price((a, b))[1]
    c2 = min(key for _, key, _ in parts.values())
    alpha = merge_cost_bound(order)
    if unit:  # rounded up, in integers
        num, den = alpha.numerator * scale, alpha.denominator
        ahead = [0] + [max(-(-num * m // den), -(-(m + 1) * c2 // 2))
                       for m in range(1, excess + 1)]
    else:
        ahead = [0] + [float(max(alpha * m, (m + 1) * Fraction(c2) / 2))
                       for m in range(1, excess + 1)]
    return _PairBounds(to_key, top, unit, pair, price, parts, ahead)


def _member_walk(order: DistanceOrder, initial: Sequence[InitialCluster], bounds: _PairBounds,
                 excess: int, within: Cost | None = None, family_cap: float = math.inf
                 ) -> tuple[Clustering | None, Cost | None, dict]:
    """The exact partition search over the items of ``bounds`` owing
    ``excess`` merges: the clustering of least cost (``within`` None) or the
    first one within the budget ``within`` (None if there is none), its
    exact cost and the search's stats.  ``bounds.pair[a][b]`` is a key at
    most that of any part holding items a and b, and ``bounds.price(part)``,
    a part being a tuple of items, gives the part's initial clusters, key
    and exact value, or None for a part that cannot be taken.  The items are
    the initial clusters, or a caller's own by ``bounds._replace``; the
    look-ahead ``bounds.ahead`` is over the initial clusters.

    Cluster costs only grow under merging, so only merge families of exactly
    ``excess`` are enumerated, each anchor's parts by size and, within a
    size, in lexicographic order.  A branch is cut once its lower bound, its
    parts' keys plus a look-ahead for the merges left, reaches the
    incumbent: the best family's key so far, whose ties it keeps, or from
    the start the budget's top key, which it must exceed.  The winning
    family is priced again part by part through ``optimal_cluster_cost`` for
    its witness, and that total must equal the search's cost.

    A part of s members costs at least its costliest pair and its pair sum
    over s - 1, and parts making m > 0 merges at least ``bounds.ahead[m]``
    (``_pair_bounds``).  A part is grown member by member, dropping a prefix
    whose costliest pair already reaches the incumbent, and a part whose
    pair sum does is cut before it is priced.  Keys are exact integers but
    for p in (0, 1), where a complete family the float keys let through is
    compared with the incumbent or the budget by ``cost_le``.

    ``family_cap`` bounds the parts tried, cut or not, and raises
    ``RuntimeError`` past it; a part tried is a step of the member walk, a
    prefix or a whole part.  ``stats["families"]`` counts the families that
    became the incumbent and ``stats["parts"]`` the parts tried.
    """
    unit, ahead, pair, price = bounds.unit, bounds.ahead, bounds.pair, bounds.price
    best_cost: Cost | None = None
    best = math.inf  # a branch whose key reaches best is cut
    if within is not None:  # cut only past the largest key within the budget
        top = bounds.top(within)
        best = top + 1 if unit else math.nextafter(top, math.inf)
    best_family: tuple[tuple[int, ...], ...] | None = None
    families = tried = 0
    current: list[tuple] = []  # the family's parts, as ``price`` gives them

    def rec(pool: tuple[int, ...], left: int, total) -> bool:
        # True stops the search: a decision has found its family
        nonlocal best_cost, best, best_family, families
        if left == 0:
            # the cuts let through only a family whose key is below best: with integer
            # keys a cheaper one or one within the budget, with floats one cost_le tells
            cost = summed_cost(order, [value for _, _, value in current])
            if within is not None:
                if not cost_le(cost, within):
                    return False
            elif not unit and best_cost is not None and cost_le(best_cost, cost):
                return False
            families += 1
            best_cost, best = cost, bounds.top(cost)
            best_family = tuple(members for members, _, _ in current)
            return within is not None
        # m items hold at most m - 1 merges: an anchor needs ``left`` items
        # after it, and with exactly that many only the part of all of them fits
        for ai in range(len(pool) - left):
            rest = pool[ai + 1:]
            for size in range(1 if len(rest) > left else left, left + 1):
                if walk((pool[ai],), rest, 0, size, left - size, total, 0, 0):
                    return True
        return False

    def walk(part: tuple[int, ...], rest: tuple[int, ...], start: int, size: int,
             after: int, total, top, pair_sum) -> bool:
        # grow part (an anchor and its first extras) by rest[start:] towards
        # size extras; top and pair_sum are its costliest pair and pair sum.
        # best starts as a float inf, which an integer key beyond the float
        # range may be compared with but not subtracted from, so the cuts
        # add to the branch's bound.
        nonlocal tried
        base = total + ahead[after]
        for i in range(start, len(rest) - size + len(part)):
            tried += 1
            if tried > family_cap:
                raise RuntimeError("family cap exceeded")
            x = rest[i]
            row = pair[x]
            t, s = top, pair_sum
            for y in part:
                s += row[y]
                if row[y] > t:
                    t = row[y]
            if base + t >= best:
                continue
            grown = part + (x,)
            if len(grown) <= size:
                if walk(grown, rest, i + 1, size, after, total, t, s):
                    return True
            elif s + (base + unit) * size <= best * size:  # the part's key is at least s / size
                if take(grown, rest, after, total):
                    return True
        return False

    def take(part: tuple[int, ...], rest: tuple[int, ...], after: int, total) -> bool:
        # price part and search on without it, unless the branch's bound
        # reaches best
        priced = price(part)
        if priced is None or total + priced[1] + ahead[after] >= best:
            return False
        current.append(priced)
        found = rec(tuple(x for x in rest if x not in part), after, total + priced[1])
        current.pop()
        return found

    rec(tuple(range(len(pair))), excess, 0)
    # the three closures hold one another; break those cycles so that the
    # caller's caches are freed on return rather than at the next full collection
    del rec, walk, take
    stats = {"families": families, "parts": tried}
    if best_family is None:
        return None, None, stats
    clustering = _assemble_clustering(order, initial, best_family)
    if not cost_eq(clustering.total_cost, best_cost):
        raise AssertionError("the witness's optimal costs do not sum to the search's best")
    return clustering, best_cost, stats


def _initial_walk(order: DistanceOrder, initial: Sequence[InitialCluster], excess: int,
                  within: Cost | None = None, family_cap: float = math.inf
                  ) -> tuple[Clustering | None, Cost | None, dict]:
    """``_member_walk`` over the initial clusters themselves, for the oracle,
    the exhaustive policy and every k >= n.  ``stats["pricings"]`` counts
    the distinct parts ``_pair_bounds``' pricer priced, the pairs included.
    With no merge owed the one clustering of singletons is returned with
    ``families`` 1 and nothing tried or priced."""
    if excess <= 0:
        return (_assemble_clustering(order, initial, ()), Cost.of(0),
                {"families": 1, "parts": 0, "pricings": 0})
    bounds = _pair_bounds(order, initial, excess)
    clustering, cost, stats = _member_walk(order, initial, bounds, excess, within, family_cap)
    stats["pricings"] = len(bounds.parts)
    return clustering, cost, stats


def solve_bruteforce(inst: ClusteringInstance, family_cap: int = 5_000_000) -> BruteForceResult:
    """Exact minimum over all regular clusterings into at most k nonempty
    clusters: ``_member_walk`` minimising, ``family_cap`` bounding the parts
    it tries (``RuntimeError`` past it)."""
    initial = regularize(inst.dataset)
    clustering, min_cost, stats = _initial_walk(inst.order, initial, len(initial) - inst.k,
                                                family_cap=family_cap)
    return BruteForceResult(cost_le(min_cost, inst.budget), clustering, min_cost, stats)


def _scaled(value: int | Fraction, scale: int) -> int:
    """``scale`` times a cost of integer points (all a ``Dataset`` holds), an integer."""
    key, rest = divmod(scale * value.numerator, value.denominator)
    if rest:
        raise ValueError("the clustering searches take integer vectors")
    return key


def coloring_success_estimate(t_colors: int, trials: int, seed: int = 0) -> tuple[float, int]:
    """Monte-Carlo estimate of the probability that t items independently
    colored with t colors are all distinct."""
    if t_colors < 1:
        raise ValueError("need at least one color")
    rnd = random.Random(seed)
    hits = 0
    for _ in range(trials):
        colors = {rnd.randrange(t_colors) for _ in range(t_colors)}
        if len(colors) == t_colors:
            hits += 1
    return hits / trials, trials


# counters of the selection solvers that the clustering stats sum
SELECTION_COUNTERS = ("centroids_tried", "nodes")


def solve_color_coding(inst: ClusteringInstance, cfg: SolveConfig | None = None) -> SolveResult:
    """Clustering solver, exact or by color coding.

    The ``exhaustive`` policy is the member walk of ``solve_bruteforce``
    stopped at the first family within the budget, an exact decision; its
    stats are the walk's, with ``confidence`` 1, and so are both policies'
    with k >= n (``families`` 1, ``parts`` and ``pricings`` 0).  The
    ``auto`` policy, the paper's randomised algorithm, colors the initial
    clusters with T colors (T from the budget and the per-merge cost floor)
    and runs the member walk over each coloring's classes, stopped at the
    first family within the budget: the parts are disjoint sets of classes
    that merge the n - k excess initial clusters.  Each part's cost is the
    exact optimum of its Cluster Selection bundle, the part's classes in
    sorted order, and one cache keyed by that bundle prices each distinct
    bundle once, across colorings and whatever colors its classes carry.  A
    bundle whose classes each hold one initial cluster has a single tuple,
    priced cost only by the oracle's part pricer (``_pair_bounds``); any
    other bundle takes one minimising ``solve_selection`` call, with the
    instance budget as the bound.  A composite cluster lists its members in
    that sorted-class order.

    The walk's pair key for two classes is their cheapest pair of initial
    clusters, and its look-ahead ``ahead[m] = max(alpha * m, (m + 1) * c2
    / 2)`` is the oracle's (``_pair_bounds``, every pair priced through the
    same pricer), so a bundle is cut by its pair bound before it is priced.
    Before any coloring, ``ahead[n - k]`` over the budget is an exact no,
    with confidence 1 and no coloring.  As for the oracle, the walk compares
    keys, checks a complete family's exact cost with ``cost_le`` and
    re-prices its witness.

    A no is one sided, with confidence 1 - (1 - e**-T)**N after N random
    colorings.  ``stats["iterations"]`` counts colorings,
    ``stats["families"]`` the complete families found within the budget,
    ``stats["parts"]`` the walk's parts tried over all colorings and
    ``stats["selection_calls"]`` the selection kernel calls; the stats also
    sum the selection solvers' counters under their own names.  Under
    either policy, as for the oracle, ``stats["pricings"]`` counts the
    distinct initial-cluster parts priced, the pair table included.
    """
    cfg = cfg or SolveConfig()
    order = inst.order
    initial = regularize(inst.dataset)
    n_ic = len(initial)
    excess = n_ic - inst.k
    if cfg.policy == "exhaustive" or excess <= 0:
        clustering, _, stats = _initial_walk(order, initial, excess, within=inst.budget)
        stats["confidence"] = 1.0
        return SolveResult(clustering is not None, clustering, stats)
    stats = {"iterations": 0, "families": 0, "selection_calls": 0, "pricings": 0, "parts": 0}

    alpha = merge_cost_bound(order)
    t_colors = max(1, -cost_floor(inst.budget, -2 / alpha))  # ceil(2 budget / alpha)
    stats["T"] = t_colors
    stats.update(dict.fromkeys(SELECTION_COUNTERS, 0))

    bounds = _pair_bounds(order, initial, excess)
    pair = bounds.pair
    top = bounds.top(inst.budget)

    # per bundle, the part's color classes in sorted order: its cheapest part's
    # initial clusters, key and exact value, or None when that key exceeds top
    bundles: dict[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], object, object] | None] = {}

    def cheapest(bundle: tuple[tuple[int, ...], ...]) -> tuple | None:
        if bundle in bundles:
            return bundles[bundle]
        if all(len(members) == 1 for members in bundle):
            hit = bounds.price(tuple(members[0] for members in bundle))
            if hit[1] > top:
                hit = None
        else:
            sel = SelectionInstance(
                tuple(tuple(initial[i].representative for i in members) for members in bundle),
                tuple(tuple(initial[i].size for i in members) for members in bundle),
                inst.dataset.dimension, inst.budget, order)
            stats["selection_calls"] += 1
            res = solve_selection(sel, minimize=True, centroid_cap=cfg.centroid_cap)
            for name in SELECTION_COUNTERS:
                stats[name] += res.stats.get(name, 0)
            hit = None
            if res.decision:
                value = res.cost.exact if res.cost.terms is None else res.cost.terms
                hit = (tuple(members[i] for members, i in zip(bundle, res.indices)),
                       bounds.to_key(value), value)
        bundles[bundle] = hit
        return hit

    n_iters = cfg.iterations or (
        MAX_ITERATIONS if t_colors >= math.log(MAX_ITERATIONS)
        else math.ceil(math.exp(t_colors)))
    if bounds.ahead[excess] > top:  # an exact no before any coloring
        n_iters = 0
    clustering = None
    for it in range(n_iters):
        rnd = random.Random(f"{cfg.seed}:{it}")
        stats["iterations"] += 1
        by_color: dict[int, list[int]] = {}
        for ic_idx in range(n_ic):
            by_color.setdefault(rnd.randrange(t_colors), []).append(ic_idx)
        classes = [tuple(by_color[color]) for color in sorted(by_color)]
        # the walk's items are the classes, a pair of them keyed by the cheapest
        # pair of initial clusters between them
        near = [[0] * len(classes) for _ in classes]
        for c, d in itertools.combinations(range(len(classes)), 2):
            near[c][d] = near[d][c] = min(pair[a][b] for a in classes[c] for b in classes[d])
        clustering, _, walk_stats = _member_walk(order, initial, bounds._replace(
            pair=near, price=lambda part: cheapest(tuple(sorted(classes[c] for c in part)))),
            excess, within=inst.budget)
        stats["families"] += walk_stats["families"]
        stats["parts"] += walk_stats["parts"]
        if clustering is not None:
            break
    stats["pricings"] = len(bounds.parts)
    stats["confidence"] = (1.0 if clustering is not None or not n_iters
                           else 1.0 - (1.0 - math.exp(-t_colors)) ** n_iters)
    return SolveResult(clustering is not None, clustering, stats)
