"""Reduction constructions as instance generators, plus small-scale oracles.

Each construction maps a combinatorial source (clique search, colorful clique
search, 3-CNF satisfiability, half-integral odd cycle transversal) to a
clustering or selection instance whose decision at the construction's budget
matches the source answer.  ``verify_reduction`` checks that agreement
empirically: sources are brute-forced, targets are solved exactly where the
instance is small enough, and the SAT chain is certified through explicit
witnesses where exhaustive search is out of reach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

from .centroids import WeightedCluster, binary_coordinate_cost
from .core import Dataset, DistanceOrder, Point
from .cost_model import DEFAULT_DIGITS, Cost
from .selection import (
    EnumerationCapExceeded,
    SelectionInstance,
    select_bruteforce,
)
from .solver import ClusteringInstance, solve_bruteforce


class EmptyGroupError(ValueError):
    """A selection construction produced an empty group: the source instance
    has no candidate at all for one of the choices, so it is a no."""


@dataclass(frozen=True)
class Graph:
    """Vertices 1..n; edges as listed (normalized to u < v); optional
    vertex colors 1..k."""

    n: int
    edges: tuple[tuple[int, int], ...]
    colors: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        seen = set()
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u}, {v})")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if self.colors is not None and len(self.colors) != self.n:
            raise ValueError("need one color per vertex")

    @staticmethod
    def of(n: int, edges: Iterable[Sequence[int]], colors: Sequence[int] | None = None) -> "Graph":
        norm = tuple((min(u, v), max(u, v)) for u, v in edges)
        return Graph(n, norm, tuple(colors) if colors is not None else None)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges)

    def non_edges(self) -> list[tuple[int, int]]:
        es = self.edge_set()
        return [
            (u, v)
            for u in range(1, self.n + 1)
            for v in range(u + 1, self.n + 1)
            if (u, v) not in es
        ]

    def color_of(self, v: int) -> int:
        if self.colors is None:
            raise ValueError("graph carries no colors")
        return self.colors[v - 1]

    def cross_edges(self, ci: int, cj: int) -> list[tuple[int, int, int]]:
        """Edges between color classes ci and cj as (index, vertex of color ci,
        vertex of color cj), in input edge order (1-based indices)."""
        out = []
        for idx, (u, v) in enumerate(self.edges, start=1):
            cu, cv = self.color_of(u), self.color_of(v)
            if {cu, cv} == {ci, cj}:
                if cu == ci:
                    out.append((idx, u, v))
                else:
                    out.append((idx, v, u))
        return out


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF over variables 1..num_vars; literals are signed indices and each
    clause holds three distinct variables."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("clauses must have exactly three literals")
            vs = [abs(l) for l in clause]
            if len(set(vs)) != 3:
                raise ValueError("clause variables must be distinct")
            for l in clause:
                if l == 0 or abs(l) > self.num_vars:
                    raise ValueError("literal out of range")


@dataclass(frozen=True)
class HioctInstance:
    graph: Graph
    t: int

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("t must be nonnegative")


# ---------------------------------------------------------------------------
# Hamming-distance constructions


def _l0_vectors(g: Graph, k: int, pairs: Sequence[tuple[int, int]]) -> dict[tuple[int, int], list[Point]]:
    if k < 3:
        raise ValueError("need k >= 3")
    if not g.edges:
        raise ValueError("need at least one edge")
    by_pair: dict[tuple[int, int], list[Point]] = {p: [] for p in pairs}
    pads: set[int] = set()
    for (i, j) in pairs:
        for e, (u, v) in enumerate(g.edges, start=1):
            pad = g.n + (k * i + j) * len(g.edges) + e
            if pad in pads or pad <= g.n:
                raise AssertionError("padding values must be fresh")
            pads.add(pad)
            vec = [pad] * k
            vec[i - 1] = u
            vec[j - 1] = v
            by_pair[(i, j)].append(tuple(vec))
    return by_pair


def gen_l0_clustering_from_clique(g: Graph, k: int) -> ClusteringInstance:
    """Clique search as Hamming clustering: one vector per (color pair, edge)
    with fresh padding elsewhere; budget C(k,2)*(k-2) and cluster count
    n - C(k,2) + 1."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    by_pair = _l0_vectors(g, k, pairs)
    points = [vec for p in pairs for vec in by_pair[p]]
    n_vec = len(points)
    k_prime = n_vec - len(pairs) + 1
    budget = Cost.of(len(pairs) * (k - 2))
    return ClusteringInstance(
        Dataset.from_points(points, k), k_prime, budget, DistanceOrder.l0()
    )


def _oriented_l0_vector(g: Graph, k: int, i: int, j: int, edge_idx: int,
                        u_color_i: int, v_color_j: int) -> Point:
    pad = g.n + (k * i + j) * len(g.edges) + edge_idx
    vec = [pad] * k
    vec[i - 1] = u_color_i
    vec[j - 1] = v_color_j
    return tuple(vec)


def gen_l0_selection_from_mcc(g: Graph, k: int) -> SelectionInstance:
    """Colorful-clique search as Hamming Cluster Selection, one group per
    color pair."""
    if k < 3:
        raise ValueError("need k >= 3")
    if g.colors is None:
        raise ValueError("needs a colored graph")
    groups = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            cross = g.cross_edges(i, j)
            if not cross:
                raise EmptyGroupError(f"no edges between colors {i} and {j}")
            groups.append([
                _oriented_l0_vector(g, k, i, j, idx, u, v) for idx, u, v in cross
            ])
    num_pairs = k * (k - 1) // 2
    budget = Cost.of(num_pairs * (k - 2))
    return SelectionInstance.of(groups, budget, DistanceOrder.l0())


# ---------------------------------------------------------------------------
# p = 1 selection construction


def gen_l1_selection_from_mcc(g: Graph, k: int) -> SelectionInstance:
    """Colorful-clique search as L1 Cluster Selection: per color pair one
    group of edge vectors padded with 0 and one mirrored group padded with
    n + 1 (the two boundary values pin every median)."""
    if k < 3:
        raise ValueError("need k >= 3")
    if g.colors is None:
        raise ValueError("needs a colored graph")
    high = g.n + 1
    x_groups = []
    y_groups = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            cross = g.cross_edges(i, j)
            if not cross:
                raise EmptyGroupError(f"no edges between colors {i} and {j}")
            xs, ys = [], []
            for _, u, v in cross:
                x = [0] * k
                y = [high] * k
                x[i - 1] = y[i - 1] = u
                x[j - 1] = y[j - 1] = v
                xs.append(tuple(x))
                ys.append(tuple(y))
            x_groups.append(xs)
            y_groups.append(ys)
    pairs_rest = (k - 1) * (k - 2) // 2
    budget = Cost.of(k * high * pairs_rest)
    return SelectionInstance.of(x_groups + y_groups, budget, DistanceOrder.l1())


# ---------------------------------------------------------------------------
# max-distance constructions


def _linf_vertex_vectors(g: Graph) -> list[Point]:
    non_edges = g.non_edges()
    d = g.n + len(non_edges)
    vectors = []
    for v in range(1, g.n + 1):
        vec = [0] * d
        vec[v - 1] = 2
        vectors.append(vec)
    for idx, (u, v) in enumerate(non_edges):
        col = g.n + idx
        vectors[u - 1][col] = 2
        vectors[v - 1][col] = -2
    return [tuple(v) for v in vectors]


def gen_linf_clustering_from_clique(g: Graph, k: int) -> ClusteringInstance:
    """Clique search as max-distance clustering: a vertex coordinate worth 2
    per vertex and a +2/-2 coordinate per non-edge; budget k and cluster
    count |V| - k + 1."""
    if k < 2:
        raise ValueError("need k >= 2")
    if g.n < k:
        raise ValueError("need at least k vertices")
    vectors = _linf_vertex_vectors(g)
    return ClusteringInstance(
        Dataset.from_points(vectors, len(vectors[0])),
        g.n - k + 1,
        Cost.of(k),
        DistanceOrder.linf(),
    )


def gen_linf_selection_from_mcc(g: Graph, k: int) -> SelectionInstance:
    """Colorful-clique search as max-distance Cluster Selection: the same
    vertex vectors grouped by color, budget k."""
    if g.colors is None:
        raise ValueError("needs a colored graph")
    vectors = _linf_vertex_vectors(g)
    groups: list[list[Point]] = [[] for _ in range(k)]
    for v in range(1, g.n + 1):
        c = g.color_of(v)
        if not (1 <= c <= k):
            raise ValueError("vertex color out of range")
        groups[c - 1].append(vectors[v - 1])
    for c, grp in enumerate(groups, start=1):
        if not grp:
            raise EmptyGroupError(f"color class {c} is empty")
    return SelectionInstance.of(groups, Cost.of(k), DistanceOrder.linf())


# ---------------------------------------------------------------------------
# p > 1 selection construction


@dataclass(frozen=True)
class BinarySelectionInstance:
    """Zero/one grouped vectors with an extended-precision budget, for
    exponents p > 1 other than 2 (no exact cost regime exists there)."""

    groups: tuple[tuple[Point, ...], ...]
    dimension: int
    p: Fraction
    budget_repr: str  # decimal string at 40 digits


def lp_mcc_budget(k: int, p: Fraction, digits: int = DEFAULT_DIGITS):
    """The construction budget k (k-1) C(k-1,2) / ((k-1)^(1/(p-1)) +
    C(k-1,2)^(1/(p-1)))^(p-1); exact when p = 2."""
    q = (k - 1) * (k - 2) // 2
    if p == 2:
        return Fraction(k * (k - 1) * q, (k - 1) + q)
    with mpmath.workdps(digits):
        e = mpmath.mpf(1) / (mpmath.mpf(p.numerator) / p.denominator - 1)
        denom = mpmath.power(mpmath.power(k - 1, e) + mpmath.power(q, e), 1 / e)
        return k * (k - 1) * q / denom


def gen_lp_selection_from_mcc(g: Graph, k: int, p: Fraction):
    """Colorful-clique search as Cluster Selection for exponents p > 1:
    0/1 edge-indicator vectors, one group per color pair.  Returns an exact
    instance for p = 2, else a BinarySelectionInstance."""
    if k < 3:
        raise ValueError("need k >= 3")
    if not p > 1:
        raise ValueError("need p > 1")
    if g.colors is None:
        raise ValueError("needs a colored graph")
    groups = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            cross = g.cross_edges(i, j)
            if not cross:
                raise EmptyGroupError(f"no edges between colors {i} and {j}")
            grp = []
            for _, u, v in cross:
                vec = [0] * g.n
                vec[u - 1] = 1
                vec[v - 1] = 1
                grp.append(tuple(vec))
            groups.append(grp)
    budget = lp_mcc_budget(k, p)
    if p == 2:
        return SelectionInstance.of(groups, Cost.of(budget), DistanceOrder.l2())
    return BinarySelectionInstance(
        tuple(tuple(grp) for grp in groups), g.n, p, mpmath.nstr(budget, 40)
    )


def binary_lp_min_cost(inst: BinarySelectionInstance, digits: int = DEFAULT_DIGITS):
    """Brute-force minimum selection cost for a 0/1 instance under p > 1,
    using the per-coordinate closed form."""
    best = None
    with mpmath.workdps(digits):
        for combo in itertools.product(*(range(len(g)) for g in inst.groups)):
            chosen = [inst.groups[g][i] for g, i in enumerate(combo)]
            s = len(chosen)
            total = mpmath.mpf(0)
            for col in range(inst.dimension):
                ones = sum(pt[col] for pt in chosen)
                if 0 < ones:
                    _, contrib = binary_coordinate_cost(s - ones, ones, inst.p, digits)
                    total += contrib
            if best is None or total < best:
                best = total
    return best


# ---------------------------------------------------------------------------
# 3-SAT -> half-integral odd cycle transversal -> 2-clustering chain


def gen_hioct_from_3sat(f: CnfFormula) -> HioctInstance:
    """Variable gadgets (a joined pair plus 2n+1 common neighbors) and one
    7-cycle per clause through its literal vertices; budget 2n."""
    n = f.num_vars
    def var_vertex(i: int, negated: bool) -> int:
        return 2 * (i - 1) + (2 if negated else 1)

    y_base = 2 * n
    clause_base = y_base + n * (2 * n + 1)
    edges: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        xi, xi_neg = var_vertex(i, False), var_vertex(i, True)
        edges.append((xi, xi_neg))
        for j in range(2 * n + 1):
            y = y_base + (i - 1) * (2 * n + 1) + j + 1
            edges.append((xi, y))
            edges.append((xi_neg, y))
    for cj, clause in enumerate(f.clauses):
        c = [clause_base + 4 * cj + l + 1 for l in range(4)]
        lits = [var_vertex(abs(l), l < 0) for l in clause]
        cycle = [c[0], lits[0], c[1], lits[1], c[2], lits[2], c[3]]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            edges.append((min(a, b), max(a, b)))
    total = clause_base + 4 * len(f.clauses)
    return HioctInstance(Graph.of(total, edges), 2 * n)


def _strip_isolated(g: Graph) -> Graph:
    touched = sorted({v for e in g.edges for v in e})
    relabel = {v: i + 1 for i, v in enumerate(touched)}
    edges = [(relabel[u], relabel[v]) for u, v in g.edges]
    return Graph.of(len(touched), edges)


def gen_linf2_from_hioct(h: HioctInstance, include_isolated_edges: bool = True) -> ClusteringInstance:
    """Transversal search as max-distance 2-clustering: a coordinate per edge
    carrying +2/-2 at its endpoints, budget |V| + t.

    The full construction strips isolated vertices and appends t + 5 fresh
    isolated edges; disabling ``include_isolated_edges`` reproduces the bare
    core (budget counted over the core vertices).
    """
    core = _strip_isolated(h.graph)
    if include_isolated_edges:
        n = core.n
        edges = list(core.edges)
        for _ in range(h.t + 5):
            edges.append((n + 1, n + 2))
            n += 2
        work = Graph.of(n, edges)
    else:
        work = core
    d = len(work.edges)
    vectors = [[0] * d for _ in range(work.n)]
    for idx, (u, v) in enumerate(work.edges):
        vectors[u - 1][idx] = 2
        vectors[v - 1][idx] = -2
    budget = Cost.of(work.n + h.t)
    return ClusteringInstance(
        Dataset.from_points([tuple(v) for v in vectors], d),
        2,
        budget,
        DistanceOrder.linf(),
    )


# ---------------------------------------------------------------------------
# oracles


def graph_has_clique(g: Graph, k: int, colorful: bool = False, cap: int = 12) -> bool:
    """Exhaustive k-clique check; in colorful mode the clique must hit every
    color 1..k exactly once."""
    if g.n > cap:
        raise EnumerationCapExceeded(f"{g.n} vertices exceed the clique oracle cap")
    es = g.edge_set()
    for combo in itertools.combinations(range(1, g.n + 1), k):
        if colorful:
            if sorted(g.color_of(v) for v in combo) != list(range(1, k + 1)):
                continue
        if all((u, v) in es for u, v in itertools.combinations(combo, 2)):
            return True
    return False


def sat_satisfying_assignment(f: CnfFormula) -> tuple[bool, ...] | None:
    """First satisfying assignment in lexicographic order, or None."""
    for bits in itertools.product((False, True), repeat=f.num_vars):
        ok = True
        for clause in f.clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return bits
    return None


def _is_bipartite(n: int, edges: Iterable[tuple[int, int]]) -> tuple[bool, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * (n + 1)
    for start in range(1, n + 1):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            node = queue.pop()
            for nb in adj[node]:
                if color[nb] == -1:
                    color[nb] = 1 - color[node]
                    queue.append(nb)
                elif color[nb] == color[node]:
                    return False, []
    return True, color[1:]


def hioct_check(inst: HioctInstance, delta: Sequence[int]) -> bool:
    """Whether an assignment is a valid transversal within budget."""
    if len(delta) != inst.graph.n:
        raise ValueError("need one value per vertex")
    if any(v not in (0, 1, 2) for v in delta):
        raise ValueError("values must be 0, 1 or 2")
    if sum(delta) > inst.t:
        return False
    kept = [
        (u, v) for u, v in inst.graph.edges if delta[u - 1] + delta[v - 1] < 2
    ]
    ok, _ = _is_bipartite(inst.graph.n, kept)
    return ok


def hioct_bruteforce(inst: HioctInstance, cap: int = 14) -> bool:
    """Exhaustive transversal search over assignments with support at most t."""
    g = inst.graph
    if g.n > cap:
        raise EnumerationCapExceeded(f"{g.n} vertices exceed the transversal cap")
    ok, _ = _is_bipartite(g.n, g.edges)
    if ok:
        return True
    verts = list(range(1, g.n + 1))
    for support_size in range(1, min(inst.t, g.n) + 1):
        for support in itertools.combinations(verts, support_size):
            for values in itertools.product((1, 2), repeat=support_size):
                if sum(values) > inst.t:
                    continue
                delta = [0] * g.n
                for v, val in zip(support, values):
                    delta[v - 1] = val
                if hioct_check(inst, delta):
                    return True
    return False


def hioct_delta_from_assignment(f: CnfFormula, assignment: Sequence[bool]) -> list[int]:
    """The canonical transversal induced by a satisfying assignment: value 2
    on the true literal vertex of each variable."""
    h = gen_hioct_from_3sat(f)
    delta = [0] * h.graph.n
    for i, val in enumerate(assignment, start=1):
        vertex = 2 * (i - 1) + (1 if val else 2)
        delta[vertex - 1] = 2
    return delta


def linf2_witness_cost(h: HioctInstance, delta: Sequence[int],
                       include_isolated_edges: bool = True) -> Fraction:
    """Exact cost of the 2-clustering witness induced by a valid transversal.

    Splits vectors along a proper 2-coloring of the graph minus the deleted
    edges and assigns explicit centroid values per edge coordinate; each
    vertex then pays at most 1 + delta(v)."""
    core = _strip_isolated(h.graph)
    old_touched = sorted({v for e in h.graph.edges for v in e})
    core_delta = [delta[v - 1] for v in old_touched]
    n = core.n
    edges = list(core.edges)
    full_delta = list(core_delta)
    if include_isolated_edges:
        for _ in range(h.t + 5):
            edges.append((n + 1, n + 2))
            full_delta.extend([0, 0])
            n += 2
    kept = [(u, v) for u, v in edges if full_delta[u - 1] + full_delta[v - 1] < 2]
    ok, coloring = _is_bipartite(n, kept)
    if not ok:
        raise ValueError("assignment is not a valid transversal")
    side = [coloring[v - 1] for v in range(1, n + 1)]
    centroids = [[0] * len(edges) for _ in range(2)]
    for idx, (u, v) in enumerate(edges):
        for cl in range(2):
            u_in = side[u - 1] == cl
            v_in = side[v - 1] == cl
            if u_in and v_in:
                du, dv = full_delta[u - 1], full_delta[v - 1]
                if du == 1 and dv == 1:
                    centroids[cl][idx] = 0
                elif du == 2:
                    centroids[cl][idx] = -1
                else:
                    centroids[cl][idx] = 1
            elif u_in:
                centroids[cl][idx] = 1
            elif v_in:
                centroids[cl][idx] = -1
    # every value is an integer; only the returned total is a Fraction
    total = 0
    for v in range(1, n + 1):
        c = centroids[side[v - 1]]
        total += max(abs((2 if a == v else -2 if b == v else 0) - y)
                     for (a, b), y in zip(edges, c))
    return Fraction(total)


def l0_cluster_diagnostics(cluster: WeightedCluster, num_vertices: int) -> tuple[int, int, Fraction]:
    """Structure counters for composite clusters of the Hamming construction:
    the number of vertex-carrying coordinates, the weight of vertex entries
    that miss the per-coordinate consensus vertex, and their normalized sum
    over the cluster size minus one."""
    size = cluster.total_weight
    if size < 2:
        raise ValueError("diagnostics need a composite cluster")
    d = cluster.dimension
    beta = 0
    gamma = 0
    for i in range(d):
        counts: dict[int, int] = {}
        vertex_weight = 0
        for pt, w in zip(cluster.points, cluster.weights):
            v = pt[i]
            if 1 <= v <= num_vertices:
                counts[v] = counts.get(v, 0) + w
                vertex_weight += w
        if not counts:
            continue
        beta += 1
        consensus = min(counts, key=lambda v: (-counts[v], v))
        gamma += vertex_weight - counts[consensus]
    ratio = Fraction(beta - 2 + gamma, size - 1)
    return beta, gamma, ratio


# ---------------------------------------------------------------------------
# the verifier


@dataclass
class ReductionReport:
    name: str
    source_yes: bool
    target_yes: bool
    agree: bool
    details: dict


REDUCTION_NAMES = (
    "l0-clique",
    "l0-mcc",
    "l1-mcc",
    "linf-clique",
    "linf-mcc",
    "lp-mcc",
    "3sat-hioct-linf2",
)


def verify_reduction(name: str, source, params: dict | None = None) -> ReductionReport:
    """Compare the brute-forced source answer against the generated target
    instance solved at the construction's budget."""
    params = dict(params or {})
    k = params.get("k", 3)
    details: dict = {}

    if name == "l0-clique":
        source_yes = graph_has_clique(source, k)
        inst = gen_l0_clustering_from_clique(source, k)
        res = solve_bruteforce(inst)
        details["min_cost"] = res.min_cost
        target_yes = res.decision
    elif name == "linf-clique":
        source_yes = graph_has_clique(source, k)
        if source.n < k:
            # no k-clique fits and the construction degenerates: vacuous no
            details["degenerate"] = "fewer vertices than k"
            target_yes = False
        else:
            inst = gen_linf_clustering_from_clique(source, k)
            res = solve_bruteforce(inst)
            details["min_cost"] = res.min_cost
            target_yes = res.decision
    elif name in ("l0-mcc", "l1-mcc", "linf-mcc", "lp-mcc"):
        source_yes = graph_has_clique(source, k, colorful=True)
        try:
            if name == "l0-mcc":
                inst = gen_l0_selection_from_mcc(source, k)
            elif name == "l1-mcc":
                inst = gen_l1_selection_from_mcc(source, k)
            elif name == "linf-mcc":
                inst = gen_linf_selection_from_mcc(source, k)
            else:
                inst = gen_lp_selection_from_mcc(source, k, params.get("p", Fraction(2)))
        except EmptyGroupError as exc:
            details["empty_group"] = str(exc)
            target_yes = False
            return ReductionReport(name, source_yes, target_yes,
                                   source_yes == target_yes, details)
        if isinstance(inst, BinarySelectionInstance):
            best = binary_lp_min_cost(inst)
            with mpmath.workdps(DEFAULT_DIGITS):  # the budget's 40 digits survive
                budget = mpmath.mpf(inst.budget_repr)
                target_yes = bool(best <= budget + mpmath.mpf("1e-30"))
            details["min_cost"] = mpmath.nstr(best, 30)
        else:
            res = select_bruteforce(inst)
            details["min_cost"] = res.cost
            target_yes = res.decision
    elif name == "3sat-hioct-linf2":
        assignment = sat_satisfying_assignment(source)
        source_yes = assignment is not None
        h = gen_hioct_from_3sat(source)
        inst = gen_linf2_from_hioct(h)
        details["vectors"] = inst.dataset.total_count
        if source_yes:
            delta = hioct_delta_from_assignment(source, assignment)
            if not hioct_check(h, delta):
                raise AssertionError("constructed transversal is invalid")
            details["hioct"] = "yes (certified)"
            witness = linf2_witness_cost(h, delta)
            details["witness_cost"] = witness
            target_yes = witness <= inst.budget.exact
        else:
            # exhausting a gadget-sized target is out of reach; only the
            # transversal layer can be refuted, and only on small gadgets
            target_yes = hioct_bruteforce(h)
            details["hioct"] = "brute-forced"
    else:
        raise ValueError(f"unknown reduction {name!r}")

    return ReductionReport(name, source_yes, target_yes, source_yes == target_yes, details)
