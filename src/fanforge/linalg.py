"""Exact rational vectors and matrices.

Vectors are tuples of int or Fraction, matrices are sequences of such
tuples.  The vector helpers compute on their entries as given, so lattice
vectors stay ints and a Fraction appears only where one went in or where a
quotient is formed.  Everything here is exact; no floats are ever produced.

All elimination runs through one fraction-free Gauss-Jordan step,
``_pivot``, on integer rows over a common denominator (Bareiss 1968;
Edmonds 1967).  ``rref``, ``rank`` and ``det`` integerize their rows and
read their answers off ``_eliminate``; the simplex in ``lp`` pivots its
integer tableau with the same step.  Fractions appear only at the API.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[int | Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def vzero(dim: int) -> Vec:
    return (ZERO,) * dim


def vadd(a: Sequence, b: Sequence) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Sequence, b: Sequence) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, a: Sequence) -> Vec:
    return tuple(c * x for x in a)


def vdot(a: Sequence, b: Sequence) -> int | Fraction:
    return sum(x * y for x, y in zip(a, b, strict=True))


def vneg(a: Sequence) -> Vec:
    return tuple(-x for x in a)


def is_zero_vec(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def vsum(vectors: Iterable[Sequence], dim: int) -> Vec:
    total = [0] * dim
    for v in vectors:
        for i, x in enumerate(v):
            total[i] += x
    return tuple(total)


def _integer_row(a: Sequence) -> tuple[list[int], int]:
    """The row times the lcm of its entries' denominators, and that lcm."""
    for x in a:
        if type(x) is not int:
            scale = lcm(*(x.denominator for x in a))
            return [x.numerator * (scale // x.denominator) for x in a], scale
    return list(a), 1


def primitivize(a: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to the primitive integer vector on the
    same ray (positive multiple, integer entries with gcd 1)."""
    ints, _ = _integer_row(a)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(x // g for x in ints)


def _pivot(T: list[list[int]], r: int, col: Sequence[int], d: int) -> int:
    """One fraction-free Gauss-Jordan step on an integer tableau over the
    common denominator d: clear the column col (given, so T need not store
    it) outside row r and return the new denominator, the pivot col[r].
    From an integer matrix with d = 1, every entry stays a minor of that
    matrix up to sign, so each division is exact (Bareiss 1968)."""
    p = col[r]
    pivot_row = T[r]
    for i, row in enumerate(T):
        if i == r:
            continue
        f = col[i]
        if f:
            T[i] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
        elif p != d:
            T[i] = [p * x // d for x in row]
    return p


def _eliminate(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int, int]:
    """Gauss-Jordan elimination of the integerized rows, one pivot per column.

    Returns (T, pivots, d, scale): row k of the reduced row echelon form is
    T[k] / d for k < len(pivots), and for a square matrix of full rank the
    determinant is d / scale (scale is the product of the row lcms, negated
    once per row swap).
    """
    T = []
    scale = 1
    for row in rows:
        ints, row_scale = _integer_row(row)
        T.append(ints)
        scale *= row_scale
    pivots: list[int] = []
    d = 1
    ncols = len(T[0]) if T else 0
    for c in range(ncols):
        r = len(pivots)
        if r == len(T):
            break
        k = next((i for i in range(r, len(T)) if T[i][c]), None)
        if k is None:
            continue
        if k != r:
            T[r], T[k] = T[k], T[r]
            scale = -scale
        d = _pivot(T, r, [row[c] for row in T], d)
        pivots.append(c)
    return T, pivots, d, scale


def rref(rows: Sequence[Sequence]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form over Q.  Returns (nonzero rows, pivot
    columns); every zero entry is the shared ZERO."""
    T, pivots, d, _ = _eliminate(rows)
    return [
        tuple(Fraction(x, d) if x else ZERO for x in row)
        for row in T[: len(pivots)]
    ], pivots


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q."""
    return len(_eliminate(rows)[1])


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix over Q."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det needs a square matrix")
    _, pivots, d, scale = _eliminate(rows)
    return Fraction(d, scale) if len(pivots) == n else ZERO


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[Vec]:
    """Basis of {x : A x = 0} over Q; every zero entry is the shared ZERO."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for row, p in zip(red, pivots):
            if row[f]:
                x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """One solution of A x = b over Q, or None if inconsistent.  No library
    code calls it: the tests use it as the elimination reference for
    coordinates read off facet normals, and perfbench's tracer reports it by
    name."""
    if not rows:
        return () if len(list(rhs)) == 0 else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    x = [ZERO] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None
        x[p] = row[-1]
    return tuple(x)


def format_rational(x) -> str:
    """Lowest-terms string: "p/q", or just "p" for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)
