"""Distance orders, datasets, and regularization into initial clusters.

Input vectors are integer valued and of arbitrary precision.  A dataset is a
weighted multiset: distinct vectors plus positive multiplicities.  The
decomposition into maximal groups of equal vectors (initial clusters) is the
atomic unit of every regular clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cost_model import Cost

Number = int | Fraction
Point = tuple[Number, ...]


@dataclass(frozen=True)
class DistanceOrder:
    """Which dist variant is active.

    ``kind`` is one of ``"lp"`` (exponent p rational, 0 < p <= 1), ``"l2"``
    (squared Euclidean), ``"linf"`` (max coordinate gap), ``"l0"`` (number of
    differing coordinates).
    """

    kind: str
    p: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("lp", "l2", "linf", "l0"):
            raise ValueError(f"unknown distance kind {self.kind!r}")
        if self.kind == "lp":
            if self.p is None or not (0 < self.p <= 1):
                raise ValueError("lp orders require a rational p with 0 < p <= 1")
        elif self.p is not None:
            raise ValueError("only lp orders carry an exponent")

    @staticmethod
    def lp(p: int | Fraction) -> "DistanceOrder":
        return DistanceOrder("lp", Fraction(p))

    @staticmethod
    def l1() -> "DistanceOrder":
        return DistanceOrder("lp", Fraction(1))

    @staticmethod
    def l2() -> "DistanceOrder":
        return DistanceOrder("l2")

    @staticmethod
    def linf() -> "DistanceOrder":
        return DistanceOrder("linf")

    @staticmethod
    def l0() -> "DistanceOrder":
        return DistanceOrder("l0")

    @staticmethod
    def parse(text: str) -> "DistanceOrder":
        text = text.strip().lower()
        if text == "0":
            return DistanceOrder.l0()
        if text == "2":
            return DistanceOrder.l2()
        if text in ("inf", "infinity", "oo"):
            return DistanceOrder.linf()
        return DistanceOrder.lp(Fraction(text))

    def __str__(self) -> str:
        if self.kind == "lp":
            return str(self.p)
        return {"l2": "2", "linf": "inf", "l0": "0"}[self.kind]


def merge_cost_bound(order: DistanceOrder) -> Fraction:
    """Per-merge cost floor: a composite cluster built from s initial clusters
    costs at least bound * (s - 1)."""
    if order.kind in ("lp", "l0"):
        return Fraction(1)
    if order.kind == "linf":
        return Fraction(1, 2)
    return Fraction(1, 4)


def distance(order: DistanceOrder, x: Sequence[Number], y: Sequence[Number]) -> Cost:
    """Distance between two points under the given order, as an exact cost.

    For exponents p in (0, 1) with integral inputs the value is returned as a
    basis combination; all other regimes are exact rationals.
    """
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    if order.kind == "l0":
        return Cost.of(sum(1 for a, b in zip(x, y) if a != b))
    if order.kind == "l2":
        return Cost.of(sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, y)))
    if order.kind == "linf":
        gaps = [abs(Fraction(a) - Fraction(b)) for a, b in zip(x, y)]
        return Cost.of(max(gaps, default=Fraction(0)))
    if order.p == 1:
        return Cost.of(sum(abs(Fraction(a) - Fraction(b)) for a, b in zip(x, y)))
    terms: dict[int, int] = {}
    for a, b in zip(x, y):
        gap = abs(a - b)
        if gap == 0:
            continue
        if isinstance(gap, Fraction):
            if gap.denominator != 1:
                raise ValueError("fractional gaps are not representable for p < 1")
            gap = gap.numerator
        terms[gap] = terms.get(gap, 0) + 1
    return Cost.basis(terms, order.p)


def require_integer_vectors(vectors: Iterable[Sequence]) -> None:
    """Raise ``ValueError`` unless every coordinate is an ``int``: a bool, a
    float or a Fraction, even an integral one, is not.  The solvers' exact
    keys and per-merge cost floors hold only on the integer lattice."""
    kinds = {type(x) for vector in vectors for x in vector} - {int}
    if kinds:
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise ValueError(f"the solvers take integer vectors, not coordinates of type {names}")


@dataclass(frozen=True)
class Dataset:
    """Weighted multiset of integer vectors (``require_integer_vectors``)."""

    dimension: int
    points: tuple[Point, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.multiplicities):
            raise ValueError("points and multiplicities must be parallel")
        for pt in self.points:
            if len(pt) != self.dimension:
                raise ValueError("point dimension mismatch")
        for m in self.multiplicities:
            if m < 1:
                raise ValueError("multiplicities must be positive")
        require_integer_vectors(self.points)

    @staticmethod
    def from_points(points: Iterable[Sequence[int]], dimension: int | None = None) -> "Dataset":
        pts = [tuple(p) for p in points]
        if dimension is None:
            if not pts:
                raise ValueError("cannot infer dimension from an empty dataset")
            dimension = len(pts[0])
        return Dataset(dimension, tuple(pts), tuple([1] * len(pts)))

    @property
    def total_count(self) -> int:
        return sum(self.multiplicities)


@dataclass(frozen=True)
class InitialCluster:
    """A maximal group of equal vectors: the representative and how many."""

    representative: Point
    size: int


def regularize(dataset: Dataset) -> list[InitialCluster]:
    """Decompose a dataset into its initial clusters.

    Groups equal vectors, sums multiplicities, and orders the result
    lexicographically by representative so runs are reproducible.
    """
    sizes: dict[Point, int] = {}
    for pt, mult in zip(dataset.points, dataset.multiplicities):
        sizes[pt] = sizes.get(pt, 0) + mult
    return [InitialCluster(pt, sizes[pt]) for pt in sorted(sizes)]


@dataclass(frozen=True)
class Clustering:
    """A full clustering: member (point, multiplicity) lists per cluster,
    one centroid per cluster, per-cluster costs and their total."""

    clusters: tuple[tuple[tuple[Point, int], ...], ...]
    centroids: tuple[Point, ...]
    cluster_costs: tuple[Cost, ...]
    total_cost: Cost
