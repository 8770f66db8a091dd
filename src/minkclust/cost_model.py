"""Exact structured cost values and enumeration of candidate cluster costs.

Cluster costs in the supported distance regimes are never plain floats:
depending on the distance order they are nonnegative integers, half-integers,
rationals of the form z / s**2, or formal nonnegative-integer combinations
over the basis {a**p : a positive integer} when the exponent p lies in (0, 1).
This module provides the shared value type, one exact comparison, an exact
floor, and the enumeration of every achievable optimal cluster cost up to a
budget.

No comparison depends on a tolerance.  With p = r/q every basis term a**p is
m * s**(1/q), where a**r = m**q * s and s is q-th-power-free.  Roots of
distinct q-th-power-free integers are linearly independent over the
rationals (Besicovitch 1940), so two costs are equal exactly when the
coefficients of their difference on these roots all cancel.  Otherwise the
difference has a sign: a float estimate settles it when its proven error
bound separates the two values, and integer q-th roots at doubling
precision settle it in every other case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Iterator, Mapping

import mpmath

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
            merged = dict(self.terms)
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


# a private precision context: evaluation leaves mpmath's global one alone
_MP = mpmath.MPContext()


def cost_eval(cost: Cost, digits: int = DEFAULT_DIGITS) -> mpmath.mpf:
    """Numeric value of a cost, correct to ``digits`` decimal digits.

    For display and float filters; ``cost_le`` and ``cost_eq`` decide."""
    if digits < 15:
        raise ValueError("need at least 15 digits")
    _MP.dps = digits
    if cost.exact is not None:
        return _MP.mpf(cost.exact.numerator) / cost.exact.denominator
    value = _MP.mpf(0)
    for base, coeff in cost.terms:
        value += coeff * _power(base, cost.p, digits)
    return value


@lru_cache(maxsize=4096)
def _power(base: int, p: Fraction, digits: int) -> mpmath.mpf:
    """base**p to ``digits`` decimal digits, as ``cost_eval`` sums it."""
    _MP.dps = digits
    return _MP.power(base, _MP.mpf(p.numerator) / p.denominator)


def cost_le(a: Cost, b: Cost) -> bool:
    """Whether ``a <= b``, exactly."""
    if a.exact is not None and b.exact is not None:
        return a.exact <= b.exact
    return _cmp(a, b) <= 0


def cost_eq(a: Cost, b: Cost) -> bool:
    """Whether ``a`` and ``b`` have the same value, exactly."""
    return _cmp(a, b) == 0


def _cmp(a: Cost, b: Cost) -> int:
    """The sign of ``a - b``: -1, 0 or 1."""
    if a == b:
        return 0
    try:
        sign = approx_sign(_approx(a), _approx(b))
    except OverflowError:  # a rational beyond the float range: the exact stage decides
        sign = 0
    if sign:
        return sign
    coeffs, root, den = _radicals((a, 1), (b, -1))
    if not coeffs:
        return 0
    return 1 if _floor(coeffs, root, den) >= 0 else -1


def approx_sign(a: tuple[float, float], b: tuple[float, float]) -> int:
    """The sign of x - y, for values known only as (float, error bound)
    pairs ``a`` and ``b``: -1 or 1 when the two bounds are disjoint, and 0
    when they overlap, where only an exact comparison can tell.  An infinite
    or NaN bound always overlaps."""
    (fa, ea), (fb, eb) = a, b
    if fa + ea < fb - eb:
        return -1
    if fa - ea > fb + eb:
        return 1
    return 0


def _approx(cost: Cost) -> tuple[float, float]:
    """A float value of the cost and a bound on its error: a rational is
    rounded once, and a basis cost is priced by ``approx_terms``."""
    if cost.exact is not None:
        value = cost.exact.numerator / cost.exact.denominator
        return value, value * 2.0**-52 + 5e-324
    return approx_terms(cost.terms, cost.p)


def approx_terms(terms, p: Fraction) -> tuple[float, float]:
    """A float value of ``sum(coeff * base**p)`` over the (base, coeff) pairs
    ``terms``, in any order, and a bound on its error.

    A term coeff * a**p is off, relative to its value and with u = 2**-53, by
    at most p * bits(a) * u from rounding p, p * u from converting a, 2u from
    the power (libm's pow is within an ulp, as glibc documents) and u each
    from converting coeff and from the product; a sum of n terms adds
    (n - 1) * u.  The bound returned is four times that total, with bits(a)
    of the largest base.  A base too large for a float gives (0.0, inf): no
    information, so every comparison by the bound falls through to an exact
    one.  No terms is the exact (0.0, 0.0).
    """
    pf = p.numerator / p.denominator
    total = 0.0
    top = 0
    try:
        for base, coeff in terms:
            total += coeff * base**pf
            if base > top:
                top = base
    except OverflowError:
        return 0.0, math.inf
    return total, total * 2.0**-51 * (pf * (top.bit_length() + 1) + len(terms) + 3)


def _radicals(*parts: tuple[Cost, int | Fraction]) -> tuple[dict[int, int], int, int]:
    """Write the sum of ``scale * cost`` over ``parts`` as
    ``sum(k * s**(1/root)) / den``: a map from distinct root-th-power-free s
    to nonzero integers k, the root, and an integer den > 0."""
    root = math.lcm(*(c.p.denominator for c, _ in parts if c.terms is not None))
    den = math.lcm(*((c.exact * f).denominator if c.exact is not None
                     else Fraction(f).denominator for c, f in parts))
    coeffs: dict[int, int] = {}
    for cost, scale in parts:
        if cost.exact is not None:
            coeffs[1] = coeffs.get(1, 0) + int(cost.exact * scale * den)
            continue
        factor = int(scale * den)
        power = cost.p.numerator * (root // cost.p.denominator)
        for base, coeff in cost.terms:
            m, s = _radical(base, power, root)
            coeffs[s] = coeffs.get(s, 0) + factor * coeff * m
    return {s: k for s, k in coeffs.items() if k}, root, den


@lru_cache(maxsize=4096)
def _radical(base: int, power: int, root: int) -> tuple[int, int]:
    """(m, s) with base**power == m**root * s and s root-th-power-free."""
    m = s = 1
    n, f = base, 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            m *= f ** (e * power // root)
            s *= f ** (e * power % root)
        f += 1
    if n > 1:
        m *= n ** (power // root)
        s *= n ** (power % root)
    return m, s


def _iroot(n: int, root: int) -> int:
    """floor(n ** (1/root)) for an integer n >= 1."""
    if root == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // root)  # at least the root
    while True:
        y = ((root - 1) * x + n // x ** (root - 1)) // root
        if y >= x:
            return x
        x = y


def cost_floor(cost: Cost, scale: int | Fraction = 1) -> int:
    """The largest integer at most ``scale`` times the cost, exactly."""
    if cost.exact is not None:
        return math.floor(cost.exact * scale)
    return _floor(*_radicals((cost, scale)))


def _floor(coeffs: Mapping[int, int], root: int, den: int) -> int:
    """floor(sum(k * s**(1/root)) / den) over ``coeffs``, a map from s to k,
    by integer roots at doubling precision.  The search ends: the sum is
    rational only when every s is 1, and then the roots are exact."""
    bits = 64
    while True:
        lo = hi = 0  # lo <= 2**bits * sum <= hi
        for s, k in coeffs.items():
            r = 1 << bits if s == 1 else _iroot(s << (bits * root), root)
            up = r if s == 1 else r + 1
            lo += k * (r if k > 0 else up)
            hi += k * (up if k > 0 else r)
        if lo // (den << bits) == hi // (den << bits):
            return lo // (den << bits)
        bits *= 2


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


def enumerate_cost_set(
    order: "DistanceOrder",
    budget: Cost,
    n: int | None = None,
    max_members: int = 500_000,
) -> CostSet:
    """Enumerate every possible optimal cluster cost that is at most the budget.

    Regimes: integers for p = 1 and the Hamming distance; half-integers for
    the max distance; z / s**2 for the squared Euclidean distance (s up to the
    number of vectors ``n``); nonnegative-integer combinations over
    {a**p : a positive integer, a**p <= budget} for p in (0, 1), grown one
    term at a time while they stay within the budget.  Members are sorted by
    the exact comparison, one per value: combinations of equal value, such
    as 4**(1/2) and 2 * 1**(1/2), are the same cost.
    """
    if budget.exact is not None and budget.exact < 0:
        raise ValueError("budget must be nonnegative")
    members: list[Cost]
    if order.kind in ("l0",) or (order.kind == "lp" and order.p == 1):
        members = [Cost.of(i) for i in range(cost_floor(budget) + 1)]
    elif order.kind == "lp":
        p = order.p
        members = [Cost.of(0)]

        def grow(cost: Cost, first: int) -> None:
            # add one term, its base no smaller than the last one added
            for base in itertools.count(first):
                nxt = cost + Cost.basis({base: 1}, p)
                if not cost_le(nxt, budget):
                    break  # a larger base costs more
                members.append(nxt)
                if len(members) > max_members:
                    raise ValueError("cost set exceeds max_members cap")
                grow(nxt, base)

        grow(Cost.of(0), 1)
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

    ordered: list[Cost] = []
    for m in sorted(members, key=cmp_to_key(_cmp)):
        if not ordered or _cmp(ordered[-1], m):
            ordered.append(m)
    return CostSet(order=order, budget=budget, members=tuple(ordered))
