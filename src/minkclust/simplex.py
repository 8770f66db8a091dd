"""Exact linear programming over rationals, kept as a test reference.

A plain dense two-phase simplex on Fraction arithmetic, with Bland's rule so
cycling cannot occur.  All variables are nonnegative; constraints are given
as A_ub x <= b_ub and A_eq x = b_eq.  It is on no solve path: the
max-distance centroid LP is solved at its cheapest vertex or by an integer
transportation flow in ``centroids.centroid_linf_lp``, and the tests solve
the same pairwise-gap LP here to check it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def _pivot(rows: list[list[Fraction]], obj: list[Fraction], r: int, c: int) -> None:
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [v - f * p for v, p in zip(row, prow)]
    if obj[c] != 0:
        f = obj[c]
        for j, p in enumerate(prow):
            obj[j] -= f * p


def _run(rows: list[list[Fraction]], obj: list[Fraction], basis: list[int],
         allowed: Sequence[bool]) -> None:
    ncols = len(obj) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if allowed[j] and obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise Unbounded("objective unbounded below")
        _pivot(rows, obj, leave, enter)
        basis[leave] = enter


def minimize(
    c: Sequence[Fraction | int],
    a_ub: Sequence[Sequence[Fraction | int]] = (),
    b_ub: Sequence[Fraction | int] = (),
    a_eq: Sequence[Sequence[Fraction | int]] = (),
    b_eq: Sequence[Fraction | int] = (),
) -> tuple[Fraction, list[Fraction]]:
    """Minimize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""
    nvars = len(c)
    raw_rows: list[tuple[list[Fraction], Fraction, bool]] = []
    for row, b in zip(a_ub, b_ub):
        raw_rows.append(([Fraction(v) for v in row], Fraction(b), False))
    for row, b in zip(a_eq, b_eq):
        raw_rows.append(([Fraction(v) for v in row], Fraction(b), True))

    nslack = sum(1 for _, _, is_eq in raw_rows if not is_eq)
    # flip rows to make every rhs nonnegative, then add slacks; rows whose
    # slack coefficient is -1 (flipped inequalities) and equalities need an
    # artificial variable to complete the starting identity basis
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    slack_idx = 0
    pending_art: list[int] = []
    for rid, (coeffs, b, is_eq) in enumerate(raw_rows):
        flip = b < 0
        if flip:
            coeffs = [-v for v in coeffs]
            b = -b
        slack = [Fraction(0)] * nslack
        if not is_eq:
            slack[slack_idx] = Fraction(-1 if flip else 1)
            slack_idx += 1
        rows.append(coeffs + slack + [b])
        if is_eq or flip:
            pending_art.append(rid)
            basis.append(-1)  # placeholder, fixed below
        else:
            basis.append(nvars + slack_idx - 1)

    nart = len(pending_art)
    total = nvars + nslack + nart
    for rid, row in enumerate(rows):
        art = [Fraction(0)] * nart
        if rid in pending_art:
            k = pending_art.index(rid)
            art[k] = Fraction(1)
            basis[rid] = nvars + nslack + k
            art_cols.append(nvars + nslack + k)
        row[-1:-1] = art

    # phase 1: minimize the artificial total
    obj = [Fraction(0)] * (total + 1)
    for j in art_cols:
        obj[j] = Fraction(1)
    for rid, bv in enumerate(basis):
        if bv in art_cols:
            obj = [o - v for o, v in zip(obj, rows[rid])]
    allowed = [True] * total
    _run(rows, obj, basis, allowed)
    if -obj[-1] != 0:
        raise Infeasible("no feasible point")
    # drive leftover artificials out of the basis where possible
    for rid, bv in enumerate(basis):
        if bv in art_cols:
            for j in range(nvars + nslack):
                if rows[rid][j] != 0:
                    _pivot(rows, obj, rid, j)
                    basis[rid] = j
                    break

    # phase 2: the real objective, artificials barred from entering
    obj2 = [Fraction(0)] * (total + 1)
    for j in range(nvars):
        obj2[j] = Fraction(c[j])
    for rid, bv in enumerate(basis):
        if obj2[bv] != 0:
            f = obj2[bv]
            obj2 = [o - f * v for o, v in zip(obj2, rows[rid])]
    for j in art_cols:
        allowed[j] = False
    _run(rows, obj2, basis, allowed)

    x = [Fraction(0)] * nvars
    for rid, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = rows[rid][-1]
    value = -obj2[-1]
    return value, x
