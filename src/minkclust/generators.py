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
# color-pair constructions


def _pair_edges(g: Graph, k: int, colorful: bool = True
                ) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
    """Per color pair i < j of 1..k, the edges that pair may pick as (index,
    vertex for i, vertex for j): the cross edges of colors i and j, or, with
    ``colorful`` off, every edge as listed.  A pair without edges has no
    candidate, so the source is a no: ``EmptyGroupError``."""
    if k < 3:
        raise ValueError("need k >= 3")
    if colorful and g.colors is None:
        raise ValueError("needs a colored graph")
    if not colorful and not g.edges:
        raise ValueError("need at least one edge")
    every_edge = [(e, u, v) for e, (u, v) in enumerate(g.edges, start=1)]
    walk = []
    for i, j in itertools.combinations(range(1, k + 1), 2):
        edges = g.cross_edges(i, j) if colorful else every_edge
        if not edges:
            raise EmptyGroupError(f"no edges between colors {i} and {j}")
        walk.append((i, j, edges))
    return walk


def _pair_vector(k: int, pad: int, i: int, j: int, u: int, v: int) -> Point:
    """u at coordinate i, v at coordinate j and ``pad`` everywhere else."""
    vec = [pad] * k
    vec[i - 1] = u
    vec[j - 1] = v
    return tuple(vec)


def _l0_groups(g: Graph, k: int, colorful: bool) -> list[list[Point]]:
    """One group per color pair of its edge vectors, each padded with a
    value above the vertex range that no other vector uses."""
    m = len(g.edges)
    return [[_pair_vector(k, g.n + (k * i + j) * m + e, i, j, u, v) for e, u, v in edges]
            for i, j, edges in _pair_edges(g, k, colorful)]


def gen_l0_clustering_from_clique(g: Graph, k: int) -> ClusteringInstance:
    """Clique search as Hamming clustering: one vector per (color pair, edge)
    with fresh padding elsewhere; budget C(k,2)*(k-2) and cluster count
    n - C(k,2) + 1."""
    groups = _l0_groups(g, k, colorful=False)
    points = [vec for grp in groups for vec in grp]
    return ClusteringInstance(
        Dataset.from_points(points, k), len(points) - len(groups) + 1,
        Cost.of(len(groups) * (k - 2)), DistanceOrder.l0()
    )


def gen_l0_selection_from_mcc(g: Graph, k: int) -> SelectionInstance:
    """Colorful-clique search as Hamming Cluster Selection, one group per
    color pair."""
    groups = _l0_groups(g, k, colorful=True)
    return SelectionInstance.of(groups, Cost.of(len(groups) * (k - 2)), DistanceOrder.l0())


def gen_l1_selection_from_mcc(g: Graph, k: int) -> SelectionInstance:
    """Colorful-clique search as L1 Cluster Selection: per color pair one
    group of edge vectors padded with 0 and one mirrored group padded with
    n + 1 (the two boundary values pin every median)."""
    walk = _pair_edges(g, k)
    high = g.n + 1
    groups = [[_pair_vector(k, pad, i, j, u, v) for _, u, v in edges]
              for pad in (0, high) for i, j, edges in walk]
    pairs_rest = (k - 1) * (k - 2) // 2
    return SelectionInstance.of(groups, Cost.of(k * high * pairs_rest), DistanceOrder.l1())


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
    if not p > 1:
        raise ValueError("need p > 1")
    groups = [[tuple(int(x in (u, v)) for x in range(1, g.n + 1)) for _, u, v in edges]
              for _, _, edges in _pair_edges(g, k)]
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


def _literal_vertex(i: int, negated: bool) -> int:
    """The gadget vertex of literal x_i, or of its negation."""
    return 2 * (i - 1) + (2 if negated else 1)


def gen_hioct_from_3sat(f: CnfFormula) -> HioctInstance:
    """Variable gadgets (a joined pair plus 2n+1 common neighbors) and one
    7-cycle per clause through its literal vertices; budget 2n."""
    n = f.num_vars
    y_base = 2 * n
    clause_base = y_base + n * (2 * n + 1)
    edges: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        xi, xi_neg = _literal_vertex(i, False), _literal_vertex(i, True)
        edges.append((xi, xi_neg))
        for j in range(2 * n + 1):
            y = y_base + (i - 1) * (2 * n + 1) + j + 1
            edges.append((xi, y))
            edges.append((xi_neg, y))
    for cj, clause in enumerate(f.clauses):
        c = [clause_base + 4 * cj + l + 1 for l in range(4)]
        lits = [_literal_vertex(abs(l), l < 0) for l in clause]
        cycle = [c[0], lits[0], c[1], lits[1], c[2], lits[2], c[3]]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            edges.append((min(a, b), max(a, b)))
    total = clause_base + 4 * len(f.clauses)
    return HioctInstance(Graph.of(total, edges), 2 * n)


def _two_clustering_graph(h: HioctInstance, include_isolated_edges: bool,
                          delta: Sequence[int] | None = None) -> tuple[Graph, list[int]]:
    """The graph the 2-clustering construction encodes: ``h.graph`` without
    its isolated vertices, plus t + 5 fresh isolated edges unless disabled;
    and ``delta`` (default all zero) carried onto it, 0 on the fresh edges."""
    touched = sorted({v for e in h.graph.edges for v in e})
    relabel = {v: i for i, v in enumerate(touched, start=1)}
    n = len(touched)
    fresh = h.t + 5 if include_isolated_edges else 0
    edges = [(relabel[u], relabel[v]) for u, v in h.graph.edges]
    edges += [(n + 2 * e + 1, n + 2 * e + 2) for e in range(fresh)]
    carried = [delta[v - 1] if delta is not None else 0 for v in touched]
    return Graph.of(n + 2 * fresh, edges), carried + [0] * (2 * fresh)


def gen_linf2_from_hioct(h: HioctInstance, include_isolated_edges: bool = True) -> ClusteringInstance:
    """Transversal search as max-distance 2-clustering: a coordinate per edge
    carrying +2/-2 at its endpoints, budget |V| + t.

    The full construction strips isolated vertices and appends t + 5 fresh
    isolated edges; disabling ``include_isolated_edges`` reproduces the bare
    core (budget counted over the core vertices).
    """
    work, _ = _two_clustering_graph(h, include_isolated_edges)
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


def hioct_delta_from_assignment(h: HioctInstance, assignment: Sequence[bool]) -> list[int]:
    """The canonical transversal of the gadget ``h`` built from a formula,
    induced by a satisfying assignment: value 2 on the true literal vertex of
    each variable."""
    delta = [0] * h.graph.n
    for i, val in enumerate(assignment, start=1):
        delta[_literal_vertex(i, not val) - 1] = 2
    return delta


def _linf2_witness(h: HioctInstance, delta: Sequence[int],
                   include_isolated_edges: bool) -> tuple[tuple, list[int], list[list[int]]]:
    """The 2-clustering witness of a valid transversal: the encoded graph's
    edges (one coordinate each), every vertex's side and the two centroids."""
    g, full_delta = _two_clustering_graph(h, include_isolated_edges, delta)
    n, edges = g.n, g.edges
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
    return edges, side, centroids


def linf2_witness_cost(h: HioctInstance, delta: Sequence[int],
                       include_isolated_edges: bool = True) -> Fraction:
    """Exact cost of the 2-clustering witness induced by a valid transversal.

    Splits vectors along a proper 2-coloring of the graph minus the deleted
    edges and assigns explicit centroid values per edge coordinate; each
    vertex then pays at most 1 + delta(v).  A vertex's vector is +2 or -2 on
    its incident coordinates and 0 elsewhere, so its distance is the larger
    of its incident gaps and its side's largest centroid value, by size, on a
    coordinate not incident to it: O(|E| log |E| + |V| deg) in all."""
    edges, side, centroids = _linf2_witness(h, delta, include_isolated_edges)
    own: list[dict[int, int]] = [{} for _ in range(len(side) + 1)]  # coordinate -> value
    for idx, (a, b) in enumerate(edges):
        own[a][idx] = 2
        own[b][idx] = -2
    by_size = [sorted(range(len(edges)), key=lambda idx: -abs(c[idx])) for c in centroids]
    # every value is an integer; only the returned total is a Fraction
    total = 0
    for v in range(1, len(side) + 1):
        c = centroids[side[v - 1]]
        incident = own[v]
        cost = max((abs(x - c[idx]) for idx, x in incident.items()), default=0)
        far = next((idx for idx in by_size[side[v - 1]] if idx not in incident), None)
        if far is not None:
            cost = max(cost, abs(c[far]))
        total += cost
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


def reduction_source(name: str) -> type:
    """The kind of source reduction ``name`` starts from: ``CnfFormula`` for
    ``3sat-hioct-linf2``, ``Graph`` for the others (coloured for the ``-mcc``
    reductions).  Raises ``ValueError`` for an unknown name."""
    if name not in REDUCTION_NAMES:
        raise ValueError(f"unknown reduction {name!r}")
    return CnfFormula if name == "3sat-hioct-linf2" else Graph


def check_source(name: str, source) -> None:
    """Raise ``TypeError`` unless ``source`` is of the kind reduction ``name``
    starts from, and ``ValueError`` for an unknown name."""
    kind = reduction_source(name)
    if not isinstance(source, kind):
        raise TypeError(f"{name} starts from "
                        f"{'a 3-CNF formula' if kind is CnfFormula else 'a graph'}, "
                        f"not a {type(source).__name__}")


def build_reduction(name: str, source, k: int = 3, p: Fraction = Fraction(2),
                    include_isolated_edges: bool = True):
    """The target instance of reduction ``name`` built from ``source``, of the
    kind ``reduction_source`` names.  ``p`` is the exponent of ``lp-mcc`` and
    ``include_isolated_edges`` is passed to ``gen_linf2_from_hioct``.  Raises
    ``TypeError`` for a source of the wrong kind, ``ValueError`` for an
    unknown name and ``EmptyGroupError`` when a selection degenerates."""
    check_source(name, source)
    if name == "3sat-hioct-linf2":
        return gen_linf2_from_hioct(gen_hioct_from_3sat(source), include_isolated_edges)
    if name == "lp-mcc":
        return gen_lp_selection_from_mcc(source, k, p)
    # built per call, so that a patched gen_* name (perfbench/ traces them) applies
    return {
        "l0-clique": gen_l0_clustering_from_clique,
        "l0-mcc": gen_l0_selection_from_mcc,
        "l1-mcc": gen_l1_selection_from_mcc,
        "linf-clique": gen_linf_clustering_from_clique,
        "linf-mcc": gen_linf_selection_from_mcc,
    }[name](source, k)


def verify_reduction(name: str, source, params: dict | None = None) -> ReductionReport:
    """Compare the brute-forced source answer against the generated target
    instance solved at the construction's budget.  A source of the wrong
    kind raises ``TypeError`` and an unknown name ``ValueError``, before any
    oracle runs."""
    check_source(name, source)
    params = dict(params or {})
    k = params.get("k", 3)
    details: dict = {}

    if name == "3sat-hioct-linf2":
        assignment = sat_satisfying_assignment(source)
        source_yes = assignment is not None
        h = gen_hioct_from_3sat(source)
        inst = gen_linf2_from_hioct(h)
        details["vectors"] = inst.dataset.total_count
        if source_yes:
            delta = hioct_delta_from_assignment(h, assignment)
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
        source_yes = graph_has_clique(source, k, colorful=name.endswith("-mcc"))
        if name == "linf-clique" and source.n < k:
            # no k-clique fits and the construction degenerates: vacuous no
            details["degenerate"] = "fewer vertices than k"
            return ReductionReport(name, source_yes, False, not source_yes, details)
        try:
            inst = build_reduction(name, source, k, params.get("p", Fraction(2)))
        except EmptyGroupError as exc:
            details["empty_group"] = str(exc)
            return ReductionReport(name, source_yes, False, not source_yes, details)
        if isinstance(inst, BinarySelectionInstance):
            best = binary_lp_min_cost(inst)
            with mpmath.workdps(DEFAULT_DIGITS):  # the budget's 40 digits survive
                budget = mpmath.mpf(inst.budget_repr)
                target_yes = bool(best <= budget + mpmath.mpf("1e-30"))
            details["min_cost"] = mpmath.nstr(best, 30)
        elif isinstance(inst, ClusteringInstance):
            res = solve_bruteforce(inst)
            details["min_cost"] = res.min_cost
            target_yes = res.decision
        else:
            res = select_bruteforce(inst)
            details["min_cost"] = res.cost
            target_yes = res.decision

    return ReductionReport(name, source_yes, target_yes, source_yes == target_yes, details)
