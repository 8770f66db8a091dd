"""Difference hypergraphs over coordinates and candidate coordinate subsets.

For a pivot vector, every other input vector induces a weighted hyperedge
listing the coordinates where it differs from the pivot.  The coordinate
subsets where an optimal centroid may deviate from the pivot are found either
exhaustively (all small subsets of the active coordinates) or by enumerating
small quarter-covered patterns up to isomorphism and locating their
appearances in the host hypergraph.

This is the paper's pattern machinery.  No solver calls it (for p in (0, 1)
``solve_selection`` searches the centroids built from present values
instead); acceptance criterion 7 checks the paper's pattern lemma against it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import Point
from .cost_model import Cost, cost_le

EDGE_CAP_SCALE = 160  # pattern edge budget: ceil(160 * ln D), capped by D


@dataclass(frozen=True)
class Hypergraph:
    """Vertices 0..num_vertices-1 plus multiplicity-weighted hyperedges."""

    num_vertices: int
    edges: tuple[tuple[frozenset[int], int], ...]

    def __post_init__(self) -> None:
        for edge, mult in self.edges:
            if mult < 1:
                raise ValueError("edge multiplicities must be positive")
            if any(v < 0 or v >= self.num_vertices for v in edge):
                raise ValueError("edge vertex out of range")

    @staticmethod
    def of(num_vertices: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        merged: dict[frozenset[int], int] = {}
        for e in edges:
            fe = frozenset(e)
            merged[fe] = merged.get(fe, 0) + 1
        return Hypergraph(num_vertices, _sorted_edges(merged))

    @property
    def total_edges(self) -> int:
        return sum(m for _, m in self.edges)

    def distinct_edges(self) -> list[frozenset[int]]:
        return [e for e, _ in self.edges]

    def active_vertices(self) -> set[int]:
        active: set[int] = set()
        for e, _ in self.edges:
            active |= e
        return active


def _sorted_edges(merged: dict[frozenset[int], int]) -> tuple[tuple[frozenset[int], int], ...]:
    return tuple(sorted(merged.items(), key=lambda em: (len(em[0]), sorted(em[0]))))


def build_difference_hypergraph(
    pivot: Point,
    vectors: Sequence[tuple[Point, int]],
    budget: Cost,
) -> Hypergraph:
    """One weighted hyperedge per vector, on the coordinates differing from
    the pivot.  Vectors heavier than the budget are dropped, as are vectors
    differing in more coordinates than the budget allows."""
    d = len(pivot)
    merged: dict[frozenset[int], int] = {}
    for pt, weight in vectors:
        if len(pt) != d:
            raise ValueError("dimension mismatch")
        if not cost_le(Cost.of(weight), budget):
            continue
        diff = frozenset(i for i in range(d) if pt[i] != pivot[i])
        if not cost_le(Cost.of(len(diff)), budget):
            continue
        merged[diff] = merged.get(diff, 0) + weight
    return Hypergraph(d, _sorted_edges(merged))


def quarter_cover_holds(h: Hypergraph) -> bool:
    """Every vertex lies in at least ceil(E/4) hyperedges, multiplicity counted."""
    total = h.total_edges
    need = -(-total // 4)
    cover = [0] * h.num_vertices
    for edge, mult in h.edges:
        for v in edge:
            cover[v] += mult
    return all(c >= need for c in cover)


def _canonical_form(num_vertices: int, edge_multiset: tuple[frozenset[int], ...]) -> tuple:
    best = None
    for perm in itertools.permutations(range(num_vertices)):
        relabeled = sorted(tuple(sorted(perm[v] for v in e)) for e in edge_multiset)
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    return best


def pattern_edge_cap(d_limit: int, max_edges: int | None = None) -> int:
    cap = min(d_limit, math.ceil(EDGE_CAP_SCALE * math.log(max(d_limit, 2))))
    if max_edges is not None:
        cap = min(cap, max_edges)
    return cap


def enumerate_patterns(
    d_limit: int,
    max_vertices: int | None = None,
    max_edges: int | None = None,
) -> Iterator[Hypergraph]:
    """All quarter-covered hypergraphs with at most ``d_limit`` vertices and a
    bounded multiplicity-weighted edge count, one representative per
    isomorphism class."""
    if d_limit < 1:
        raise ValueError("need a positive coordinate budget")
    v_cap = min(d_limit, max_vertices) if max_vertices else d_limit
    e_cap = pattern_edge_cap(d_limit, max_edges)
    for v in range(1, v_cap + 1):
        subsets = [
            frozenset(s)
            for r in range(1, v + 1)
            for s in itertools.combinations(range(v), r)
        ]
        seen: set[tuple] = set()
        for e_total in range(1, e_cap + 1):
            for multiset in itertools.combinations_with_replacement(subsets, e_total):
                covered: dict[int, int] = {u: 0 for u in range(v)}
                for edge in multiset:
                    for u in edge:
                        covered[u] += 1
                need = -(-e_total // 4)
                if any(c < need for c in covered.values()):
                    continue
                canon = _canonical_form(v, multiset)
                if canon in seen:
                    continue
                seen.add(canon)
                yield Hypergraph.of(v, multiset)


def find_appearances(pattern: Hypergraph, host: Hypergraph) -> Iterator[frozenset[int]]:
    """Vertex subsets of the host where the pattern appears as a subhypergraph:
    a bijection onto the subset maps every pattern edge to the restriction of
    some host edge.  Backtracks over vertex images with per-edge pruning."""
    pv = pattern.num_vertices
    if pv == 0:
        yield frozenset()
        return
    pattern_edges = pattern.distinct_edges()
    host_edges = host.distinct_edges()
    covered = set().union(*pattern_edges) if pattern_edges else set()
    active = sorted(host.active_vertices())
    universe = sorted(range(host.num_vertices))
    if pv > host.num_vertices:
        return

    images: dict[int, int] = {}
    used: set[int] = set()
    found: set[frozenset[int]] = set()

    def consistent() -> bool:
        for pe in pattern_edges:
            ok = False
            for he in host_edges:
                good = True
                for u, img in images.items():
                    if (u in pe) != (img in he):
                        good = False
                        break
                if good:
                    ok = True
                    break
            if not ok:
                return False
        return True

    def rec(u: int) -> Iterator[frozenset[int]]:
        if u == pv:
            subset = frozenset(images.values())
            if subset not in found:
                found.add(subset)
                yield subset
            return
        domain = active if u in covered else universe
        for img in domain:
            if img in used:
                continue
            images[u] = img
            used.add(img)
            if consistent():
                yield from rec(u + 1)
            del images[u]
            used.discard(img)

    yield from rec(0)


def candidate_coordinate_sets(
    host: Hypergraph,
    d_limit: int,
    mode: str = "exhaustive",
    max_vertices: int | None = None,
    max_edges: int | None = None,
) -> list[frozenset[int]]:
    """Coordinate subsets where an optimal centroid may differ from the pivot.

    ``exhaustive`` takes every subset of the active coordinates of size up to
    ``d_limit``; ``pattern`` unions the appearances of all enumerated
    quarter-covered patterns.  The empty subset is always included.
    """
    results: set[frozenset[int]] = {frozenset()}
    if mode == "exhaustive":
        active = sorted(host.active_vertices())
        for r in range(1, min(d_limit, len(active)) + 1):
            for combo in itertools.combinations(active, r):
                results.add(frozenset(combo))
    elif mode == "pattern":
        for pattern in enumerate_patterns(d_limit, max_vertices, max_edges):
            for subset in find_appearances(pattern, host):
                results.add(subset)
    else:
        raise ValueError(f"unknown candidate mode {mode!r}")
    return sorted(results, key=lambda s: (len(s), sorted(s)))
