"""Exact structured cost values and enumeration of candidate cluster costs.

Cluster costs in the supported distance regimes are never plain floats:
depending on the distance order they are nonnegative integers, half-integers,
rationals of the form z / s**2, or formal nonnegative-integer combinations
over the basis {a**p : a positive integer} when the exponent p lies in (0, 1).
This module provides the shared value type, exact/tolerance comparison, and
the enumeration of every achievable optimal cluster cost up to a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import mpmath

DEFAULT_TOL = 1e-12
DEFAULT_DIGITS = 50


@dataclass(frozen=True)
class Cost:
    """A cluster cost in one of the exact regimes.

    Exactly one of the two representations is active.  ``exact`` holds a
    nonnegative rational: integers, half-integers and z/s**2 values all live
    here and compare exactly.  ``terms`` holds a formal sum
    ``sum(coeff * base**p)`` over positive integer bases with positive integer
    coefficients, used for exponents p in (0, 1) where values are typically
    irrational; ``p`` is the active exponent.  An empty combination is
    normalised to ``exact == 0``.
    """

    exact: Fraction | None = None
    terms: tuple[tuple[int, int], ...] | None = None
    p: Fraction | None = None

    def __post_init__(self) -> None:
        if (self.exact is None) == (self.terms is None):
            raise ValueError("exactly one of exact/terms must be set")
        if self.exact is not None and self.exact < 0:
            raise ValueError("costs are nonnegative")
        if self.terms is not None:
            if self.p is None:
                raise ValueError("basis costs need the exponent p")
            for base, coeff in self.terms:
                if base < 1 or coeff < 1:
                    raise ValueError("basis terms need base >= 1, coeff >= 1")

    @staticmethod
    def of(value: int | Fraction) -> "Cost":
        return Cost(exact=Fraction(value))

    @staticmethod
    def basis(mapping: Mapping[int, int], p: Fraction) -> "Cost":
        items = tuple(sorted((a, c) for a, c in mapping.items() if c != 0))
        if not items:
            return Cost(exact=Fraction(0))
        return Cost(terms=items, p=p)

    @property
    def kind(self) -> str:
        if self.terms is not None:
            return "basis"
        den = self.exact.denominator
        if den == 1:
            return "int"
        if den == 2:
            return "half"
        return "rational"

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def terms_map(self) -> dict[int, int]:
        return dict(self.terms or ())

    def __add__(self, other: "Cost") -> "Cost":
        if self.exact is not None and other.exact is not None:
            return Cost(exact=self.exact + other.exact)
        if self.exact == 0:
            return other
        if other.exact == 0:
            return self
        if self.terms is not None and other.terms is not None:
            if self.p != other.p:
                raise ValueError("cannot add basis costs with different exponents")
            merged = self.terms_map()
            for base, coeff in other.terms:
                merged[base] = merged.get(base, 0) + coeff
            return Cost.basis(merged, self.p)
        raise ValueError("cannot mix exact and basis costs in a sum")

    def scaled(self, factor: int) -> "Cost":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        if factor == 0:
            return Cost.of(0)
        if self.exact is not None:
            return Cost(exact=self.exact * factor)
        return Cost.basis({a: c * factor for a, c in self.terms}, self.p)


_EVAL_CACHE: dict[tuple, mpmath.mpf] = {}


def cost_eval(cost: Cost, digits: int = DEFAULT_DIGITS) -> mpmath.mpf:
    """Numeric value of a cost, correct to ``digits`` decimal digits."""
    if digits < 15:
        raise ValueError("need at least 15 digits")
    key = (cost.exact, cost.terms, cost.p, digits)
    cached = _EVAL_CACHE.get(key)
    if cached is not None:
        return cached
    with mpmath.workdps(digits):
        if cost.exact is not None:
            value = mpmath.mpf(cost.exact.numerator) / cost.exact.denominator
        else:
            exponent = mpmath.mpf(cost.p.numerator) / cost.p.denominator
            value = mpmath.mpf(0)
            for base, coeff in cost.terms:
                value += coeff * mpmath.power(base, exponent)
    _EVAL_CACHE[key] = value
    return value


def cost_le(a: Cost, b: Cost, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``a <= b``; exact when both are rational, else numeric.

    Numeric comparison treats values within ``tol`` of each other as equal
    (and equal counts as <=), so a basis combination that happens to equal a
    rational budget is accepted.
    """
    if a.exact is not None and b.exact is not None:
        return a.exact <= b.exact
    va, vb = cost_eval(a), cost_eval(b)
    if abs(va - vb) <= tol:
        return True
    return va < vb


def cost_eq(a: Cost, b: Cost, tol: float = DEFAULT_TOL) -> bool:
    if a.exact is not None and b.exact is not None:
        return a.exact == b.exact
    return abs(cost_eval(a) - cost_eval(b)) <= tol


def int_root_floor(value: Fraction, p: Fraction) -> int:
    """Largest integer r >= 0 with r**p <= value, for rational p in (0, 1]."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    a, b = p.numerator, p.denominator
    target = value**b
    if target < 1:
        return 0
    r = max(0, int(round(float(value) ** (b / a))))
    while r > 0 and Fraction(r)**a > target:
        r -= 1
    while Fraction(r + 1)**a <= target:
        r += 1
    return r


def int_root_ceil(value: Fraction, p: Fraction) -> int:
    """Smallest integer g >= 0 with g**p >= value, for rational p in (0, 1]."""
    floor = int_root_floor(value, p)
    if Fraction(floor)**p.numerator == value**p.denominator:
        return floor
    return floor + 1


@dataclass(frozen=True)
class CostSet:
    """All achievable optimal cluster costs up to a budget, sorted ascending."""

    order: "DistanceOrder"
    budget: Cost
    members: tuple[Cost, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Cost]:
        return iter(self.members)


def _budget_floor(budget: Cost) -> int:
    if budget.exact is not None:
        return int(budget.exact)
    return int(mpmath.floor(cost_eval(budget) * (1 + 1e-30)))


def _basis_combinations(bases: list[int], limit: int) -> Iterator[dict[int, int]]:
    # coefficient vectors with total sum <= limit, lexicographic by base
    def rec(idx: int, remaining: int, current: dict[int, int]) -> Iterator[dict[int, int]]:
        if idx == len(bases):
            yield dict(current)
            return
        base = bases[idx]
        for coeff in range(remaining + 1):
            if coeff:
                current[base] = coeff
            yield from rec(idx + 1, remaining - coeff, current)
            current.pop(base, None)

    yield from rec(0, limit, {})


def enumerate_cost_set(
    order: "DistanceOrder",
    budget: Cost,
    n: int | None = None,
    tol: float = DEFAULT_TOL,
    max_members: int = 500_000,
) -> CostSet:
    """Enumerate every possible optimal cluster cost that is at most the budget.

    Regimes: integers for p = 1 and the Hamming distance; half-integers for
    the max distance; z / s**2 for the squared Euclidean distance (s up to the
    number of vectors ``n``); nonnegative-integer combinations over
    {a**p : 1 <= a <= ceil(budget**(1/p))} for p in (0, 1), filtered to
    evaluate at most the budget.
    """
    if budget.exact is not None and budget.exact < 0:
        raise ValueError("budget must be nonnegative")
    members: list[Cost]
    if order.kind in ("l0",) or (order.kind == "lp" and order.p == 1):
        top = _budget_floor(budget)
        members = [Cost.of(i) for i in range(top + 1)]
    elif order.kind == "lp":
        p = order.p
        if budget.exact is not None:
            top_base = int_root_ceil(budget.exact, p)
        else:
            with mpmath.workdps(DEFAULT_DIGITS):
                top_base = int(mpmath.ceil(cost_eval(budget) ** (1 / float(p))))
        bases = list(range(1, max(top_base, 1) + 1))
        limit = _budget_floor(budget)
        budget_val = cost_eval(budget)
        members = []
        for combo in _basis_combinations(bases, limit):
            cost = Cost.basis(combo, p)
            if cost_eval(cost) <= budget_val + tol:
                members.append(cost)
            if len(members) > max_members:
                raise ValueError("cost set exceeds max_members cap")
    elif order.kind == "l2":
        if n is None or n < 1:
            raise ValueError("the squared Euclidean regime needs n >= 1")
        if budget.exact is None:
            raise ValueError("the squared Euclidean regime needs a rational budget")
        seen: set[Fraction] = set()
        for s in range(1, n + 1):
            z_top = int(budget.exact * s * s)
            for z in range(z_top + 1):
                seen.add(Fraction(z, s * s))
        members = [Cost.of(v) for v in sorted(seen)]
    elif order.kind == "linf":
        if budget.exact is None:
            raise ValueError("the max-distance regime needs a rational budget")
        halves = int(budget.exact * 2)
        members = [Cost.of(Fraction(h, 2)) for h in range(halves + 1)]
    else:
        raise ValueError(f"unknown distance order {order!r}")

    # keep structurally distinct members even if they collide numerically
    unique: dict[tuple, Cost] = {}
    for m in members:
        unique[(m.exact, m.terms)] = m
    ordered = sorted(unique.values(), key=lambda c: cost_eval(c))
    return CostSet(order=order, budget=budget, members=tuple(ordered))
