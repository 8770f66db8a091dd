"""Seeded instance generation for the three benchmark workloads.

Each workload is a fixed catalogue of base instances, drawn once from
``CATALOGUE_SEED``, and the run seed turns every base instance into a copy
that costs the solvers the same work: vectors are translated by a seeded
offset, dataset rows reordered, graph vertices and colours relabelled, SAT
variables renamed and their signs flipped.  Different seeds therefore give
different inputs (and different digests) while the work of a pass stays the
same, which keeps a run's figures steady across seeds on a noisy two-core
machine.  Permuting or reflecting coordinates would change the enumeration
order of the L-infinity branch and bound, and with it the work, several-fold.

A pass of the timed loop runs every case once.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import minkclust as mk

ORDERS = ("l0", "l1", "lp01", "l2", "linf")
HALF = Fraction(1, 2)


def order_of(label: str) -> "mk.DistanceOrder":
    return {
        "l0": mk.DistanceOrder.l0(),
        "l1": mk.DistanceOrder.l1(),
        "lp01": mk.DistanceOrder.lp(HALF),
        "l2": mk.DistanceOrder.l2(),
        "linf": mk.DistanceOrder.linf(),
    }[label]


def order_label(order: "mk.DistanceOrder") -> str:
    if order.kind == "lp":
        return "l1" if order.p == 1 else "lp01"
    return order.kind


@dataclass
class Case:
    """One instance of a workload.

    ``kind`` names the public entry point that decides it: ``cluster``
    (``solve_color_coding``), ``select`` (``solve_selection``), ``verify``
    (``verify_reduction``) or ``oracle`` (``select_bruteforce``).  ``data`` is
    the instance as plain JSON values, used for the digest and the profile.
    """

    ident: str
    order: str
    kind: str
    data: dict
    instance: Any
    extra: dict


# ---------------------------------------------------------------------------
# budgets at the decision boundary
#
# A case is generated without a budget, the brute-force oracle gives its
# optimum, and the budget is either that optimum (answer yes) or the largest
# value of the order's cost regime below it (answer no; for p = 1/2, whose
# costs are irrational, a multiple of 1/16 just below it).  The optimum is
# unique, so any correct program yields the same budgets, and every decision
# sits on the boundary where a solver does the most work for its answer.


def _below(order: str, opt, n_total: int):
    """The largest budget of the order's regime strictly below ``opt``."""
    if order in ("l0", "l1"):
        return mk.Cost.of(opt.exact - 1)
    if order == "linf":
        return mk.Cost.of(opt.exact - HALF)
    if order == "l2":
        best = Fraction(-1)
        for s in range(1, n_total + 1):
            z = math.ceil(opt.exact * s * s) - 1
            best = max(best, Fraction(z, s * s))
        return mk.Cost.of(best)
    value = float(mk.cost_eval(opt))
    below = Fraction(math.ceil(value * 16) - 1, 16)
    return mk.Cost.of(below)


def boundary_budget(order: str, opt, yes: bool, n_total: int):
    """``opt`` itself for a yes case, else the value just below it.  An optimum
    of 0 has nothing below it and always gives a yes case."""
    if yes or opt.exact == 0:
        return opt, True
    return _below(order, opt, n_total), False


def _cost_json(cost) -> Any:
    if cost.exact is not None:
        return str(cost.exact)
    return [[b, c] for b, c in cost.terms]


def _distinct_points(rnd: random.Random, count: int, d: int, lo: int, hi: int,
                     taken: set) -> list[tuple[int, ...]]:
    out = []
    while len(out) < count:
        pt = tuple(rnd.randint(lo, hi) for _ in range(d))
        if pt not in taken:
            taken.add(pt)
            out.append(pt)
    return out


class Shift:
    """A seeded translation of Z^d.  Every supported distance, and every
    order the solvers enumerate in (lexicographic orders, distances to a
    pivot), is invariant under it, so a shifted copy costs the same work."""

    def __init__(self, rnd: random.Random, d: int):
        self.offset = [rnd.randint(-50, 50) for _ in range(d)]

    def __call__(self, pt):
        return tuple(v + t for v, t in zip(pt, self.offset))


def _shuffled(rnd: random.Random, *columns):
    rows = list(zip(*columns))
    rnd.shuffle(rows)
    return [list(col) for col in zip(*rows)]


# ---------------------------------------------------------------------------
# cluster-exhaustive: solve_color_coding(policy="exhaustive")

# per order: (initial clusters, k, dimension, coordinate range, cases) strata,
# inside the criterion-3 envelope of at most 6 initial clusters and k <= 4
CLUSTER_STRATA = {
    "l0": [(6, 2, 3, (0, 3), 6), (6, 3, 3, (0, 3), 6), (5, 2, 3, (0, 3), 6),
           (6, 2, 4, (0, 2), 4)],
    "l1": [(5, 2, 2, (0, 3), 6), (6, 3, 2, (0, 3), 6), (5, 3, 3, (0, 3), 6)],
    "lp01": [(5, 3, 2, (0, 3), 6), (6, 4, 2, (0, 3), 4), (5, 4, 3, (0, 3), 6)],
    "l2": [(4, 3, 2, (0, 2), 6), (5, 4, 2, (0, 2), 6), (5, 4, 3, (0, 1), 4)],
    "linf": [(6, 2, 2, (0, 3), 6), (6, 3, 2, (0, 3), 6), (6, 2, 3, (0, 3), 6),
             (5, 2, 3, (0, 3), 6)],
}


def cluster_cases(cat: random.Random, iso: random.Random) -> list[Case]:
    cases = []
    for label in ORDERS:
        order = order_of(label)
        for stratum, (n_ic, k, d, (lo, hi), count) in enumerate(CLUSTER_STRATA[label]):
            for rep in range(count):
                pts = _distinct_points(cat, n_ic, d, lo, hi, set())
                mults = [cat.randint(1, 2) for _ in pts]
                move = Shift(iso, d)
                pts, mults = _shuffled(iso, [move(pt) for pt in pts], mults)
                ds = mk.Dataset(d, tuple(pts), tuple(mults))
                opt = mk.solve_bruteforce(
                    mk.ClusteringInstance(ds, k, mk.Cost.of(0), order)).min_cost
                budget, yes = boundary_budget(label, opt, rep % 2 == 0, ds.total_count)
                data = {"points": pts, "mults": mults, "k": k,
                        "budget": _cost_json(budget)}
                cases.append(Case(f"{label}/{stratum}/{rep}", label, "cluster", data,
                                  mk.ClusteringInstance(ds, k, budget, order),
                                  {"initial": n_ic, "expected": yes}))
    return cases


# ---------------------------------------------------------------------------
# select-direct: one solve_selection call per instance

# per order: (groups, vectors per group, dimension, coordinate range, max
# weight, cases) strata, larger than the criterion-2 envelope (3 groups of 3,
# d <= 4)
SELECT_STRATA = {
    "l0": [(4, 3, 6, (0, 4), 1, 4), (4, 3, 5, (0, 4), 1, 6), (3, 4, 5, (0, 5), 2, 6)],
    "l1": [(4, 3, 5, (0, 4), 1, 6), (3, 4, 5, (0, 4), 2, 6), (4, 3, 6, (0, 3), 1, 4)],
    "lp01": [(4, 3, 5, (0, 4), 1, 6), (3, 4, 5, (0, 4), 2, 6), (3, 3, 6, (0, 4), 1, 4)],
    "l2": [(4, 3, 3, (0, 3), 1, 6), (3, 3, 4, (0, 2), 1, 6), (4, 3, 2, (0, 4), 1, 6),
           (3, 4, 3, (0, 3), 2, 4)],
    "linf": [(3, 4, 6, (-4, 4), 2, 6), (4, 3, 5, (-4, 4), 1, 6), (3, 4, 5, (-3, 3), 2, 6)],
}


def select_cases(cat: random.Random, iso: random.Random) -> list[Case]:
    cases = []
    for label in ORDERS:
        order = order_of(label)
        for stratum, (t, per, d, (lo, hi), w_max, count) in enumerate(SELECT_STRATA[label]):
            for rep in range(count):
                taken: set = set()
                groups = [_distinct_points(cat, per, d, lo, hi, taken) for _ in range(t)]
                weights = [[cat.randint(1, w_max) for _ in grp] for grp in groups]
                move = Shift(iso, d)
                groups = [[move(pt) for pt in grp] for grp in groups]
                opt = mk.select_bruteforce(
                    mk.SelectionInstance.of(groups, mk.Cost.of(0), order, weights)).cost
                heaviest = sum(max(ws) for ws in weights)
                budget, yes = boundary_budget(label, opt, rep % 2 == 0, heaviest)
                data = {"groups": groups, "weights": weights,
                        "budget": _cost_json(budget)}
                cases.append(Case(f"{label}/{stratum}/{rep}", label, "select", data,
                                  mk.SelectionInstance.of(groups, budget, order, weights),
                                  {"expected": yes}))
    return cases


# ---------------------------------------------------------------------------
# verify-sweep: verify_reduction over the constructions, plus p = 1/2
# selection decided by the brute-force oracle (no construction targets that
# order, and the oracle is the verify path's own kernel)


def _atlas_by_shape() -> dict[tuple[int, int], list]:
    import networkx as nx

    shapes: dict[tuple[int, int], list] = {}
    for g in nx.graph_atlas_g()[1:]:
        n, m = g.number_of_nodes(), g.number_of_edges()
        if n > 6:
            break
        if m:
            shapes.setdefault((n, m), []).append(
                tuple((u + 1, v + 1) for u, v in g.edges()))
    return shapes


# (reduction, order, atlas shapes as (vertices, edges), graphs per shape)
CLIQUE_PLAN = [
    ("l0-clique", "l0", [(5, 5), (5, 6), (5, 7), (6, 5), (6, 6), (6, 7)], 4),
    ("linf-clique", "linf", [(5, 6), (5, 8), (6, 6), (6, 9), (6, 12)], 6),
]
MCC_PLAN = [("l0-mcc", "l0"), ("l1-mcc", "l1"), ("linf-mcc", "linf"), ("lp-mcc", "l2")]
MCC_GRAPHS = 10  # coloured 7-vertex graphs, each checked by all four reductions
SAT_FORMULAS = 6  # satisfiable by construction: refuting the chain is out of reach
LP01_ORACLE = 10


def _relabel(iso: random.Random, n: int, edges, colors=None):
    perm = list(range(1, n + 1))
    iso.shuffle(perm)
    edges = sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges)
    if colors is None:
        return edges, None
    palette = sorted(set(colors))
    renamed = dict(zip(palette, iso.sample(palette, len(palette))))
    new_colors = [0] * n
    for v in range(1, n + 1):
        new_colors[perm[v - 1] - 1] = renamed[colors[v - 1]]
    return edges, new_colors


def _colored_graph(cat: random.Random, n: int, k: int, edge_p: float):
    colors = [1 + v % k for v in range(n)]
    cat.shuffle(colors)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if colors[u - 1] != colors[v - 1] and cat.random() < edge_p]
    return edges, colors


def _planted_formula(cat: random.Random, iso: random.Random):
    """A satisfiable 3-CNF whose clauses form a tree: each clause shares at
    most one variable with the clauses before it.  The chain's canonical
    transversal is invalid on some formulas where clauses close a cycle
    through shared literals (see perfbench/README.md), so those stay out."""
    m = cat.randint(2, 3)
    n = 3 + 2 * (m - 1)
    truth = [cat.random() < 0.5 for _ in range(n)]
    used: list[int] = []
    clauses = []
    for _ in range(m):
        fresh = [v for v in range(1, n + 1) if v not in used]
        vs = cat.sample(fresh, 3) if not used else [cat.choice(used)] + cat.sample(fresh, 2)
        used += [v for v in vs if v not in used]
        while True:
            lits = [v if cat.random() < 0.5 else -v for v in vs]
            if any(truth[abs(l) - 1] == (l > 0) for l in lits):
                break
        clauses.append(lits)
    rename = list(range(1, n + 1))
    iso.shuffle(rename)
    flip = [iso.choice((1, -1)) for _ in range(n)]
    clauses = [tuple(flip[abs(l) - 1] * rename[abs(l) - 1] * (1 if l > 0 else -1)
                     for l in c) for c in clauses]
    iso.shuffle(clauses)
    return n, clauses


def verify_cases(cat: random.Random, iso: random.Random) -> list[Case]:
    atlas = _atlas_by_shape()
    cases = []
    for name, label, shapes, per in CLIQUE_PLAN:
        for n, m in shapes:
            for rep in range(per):
                edges, _ = _relabel(iso, n, cat.choice(atlas[(n, m)]))
                cases.append(Case(f"{name}/{n}.{m}/{rep}", label, "verify",
                                  {"n": n, "edges": edges}, mk.Graph.of(n, edges),
                                  {"reduction": name, "params": {"k": 3}}))
    for gi in range(MCC_GRAPHS):
        edges, colors = _relabel(iso, 7, *_colored_graph(cat, 7, 3, 0.7))
        g = mk.Graph.of(7, edges, colors)
        for name, label in MCC_PLAN:
            cases.append(Case(f"{name}/{gi}", label, "verify",
                              {"n": 7, "edges": edges, "colors": colors}, g,
                              {"reduction": name,
                               "params": {"k": 3, "p": Fraction(2)}}))
    for fi in range(SAT_FORMULAS):
        n, clauses = _planted_formula(cat, iso)
        cases.append(Case(f"3sat-hioct-linf2/{fi}", "linf", "verify",
                          {"vars": n, "clauses": clauses},
                          mk.CnfFormula(n, tuple(clauses)),
                          {"reduction": "3sat-hioct-linf2", "params": {}}))
    for oi in range(LP01_ORACLE):
        taken: set = set()
        groups = [_distinct_points(cat, 4, 4, 0, 3, taken) for _ in range(4)]
        move = Shift(iso, 4)
        groups = [[move(pt) for pt in grp] for grp in groups]
        order = order_of("lp01")
        opt = mk.select_bruteforce(mk.SelectionInstance.of(groups, mk.Cost.of(0), order)).cost
        budget, yes = boundary_budget("lp01", opt, oi % 2 == 0, 4)
        cases.append(Case(f"lp01-oracle/{oi}", "lp01", "oracle",
                          {"groups": groups, "budget": _cost_json(budget)},
                          mk.SelectionInstance.of(groups, budget, order),
                          {"expected": yes}))
    return cases


CATALOGUE_SEED = 913
WORKLOADS: dict[str, Callable[[random.Random, random.Random], list[Case]]] = {
    "cluster-exhaustive": cluster_cases,
    "select-direct": select_cases,
    "verify-sweep": verify_cases,
}


def generate(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](random.Random(f"{workload}:{CATALOGUE_SEED}"),
                               random.Random(f"{workload}:seed:{seed}"))


def digest(cases: list[Case]) -> str:
    """Hash of the generated instances; equal seeds give equal digests."""
    blob = json.dumps([[c.ident, c.data] for c in cases], sort_keys=True,
                      default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
