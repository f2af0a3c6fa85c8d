"""Exact rational vectors and matrices.

Vectors are tuples of Fraction (or int), matrices are sequences of such
tuples.  Everything here is exact; no floats are ever produced.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def vzero(dim: int) -> Vec:
    return (ZERO,) * dim


def vadd(a: Sequence, b: Sequence) -> Vec:
    return tuple(Fraction(x) + Fraction(y) for x, y in zip(a, b, strict=True))


def vsub(a: Sequence, b: Sequence) -> Vec:
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b, strict=True))


def vscale(c, a: Sequence) -> Vec:
    c = Fraction(c)
    return tuple(c * Fraction(x) for x in a)


def vdot(a: Sequence, b: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b, strict=True)), ZERO)


def vneg(a: Sequence) -> Vec:
    return tuple(-Fraction(x) for x in a)


def is_zero_vec(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def vsum(vectors: Iterable[Sequence], dim: int) -> Vec:
    total = list(vzero(dim))
    for v in vectors:
        for i, x in enumerate(v):
            total[i] += x
    return tuple(total)


def primitivize(a: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to the primitive integer vector on the
    same ray (positive multiple, integer entries with gcd 1)."""
    fracs = [Fraction(x) for x in a]
    if all(x == 0 for x in fracs):
        raise ValueError("cannot primitivize the zero vector")
    denom_lcm = 1
    for x in fracs:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def rref(rows: Sequence[Sequence]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form over Q.  Returns (nonzero rows, pivot columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination on the integerized
    matrix; rescaling rows by positive integers does not change the rank."""
    mat = []
    for r in rows:
        fr = [Fraction(x) for x in r]
        lcm = 1
        for x in fr:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        mat.append([int(x * lcm) for x in fr])
    if not mat:
        return 0
    ncols = len(mat[0])
    rk = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        for i in range(row + 1, len(mat)):
            for j in range(col + 1, ncols):
                mat[i][j] = (mat[row][col] * mat[i][j] - mat[i][col] * mat[row][j]) // prev
            mat[i][col] = 0
        prev = mat[row][col]
        rk += 1
        row += 1
        if row == len(mat):
            break
    return rk


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix over Q."""
    mat = [list(map(Fraction, r)) for r in rows]
    n = len(mat)
    assert all(len(r) == n for r in mat)
    result = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            result = -result
        result *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return result


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[Vec]:
    """Basis of {x : A x = 0} over Q."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for row, p in zip(red, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """One solution of A x = b over Q, or None if inconsistent."""
    if not rows:
        return () if len(list(rhs)) == 0 else None
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    x = [ZERO] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None
        x[p] = row[-1]
    return tuple(x)


def lex_min_independent_subset(vectors: Sequence[Sequence], size: int) -> list[int] | None:
    """Indices of the lexicographically smallest linearly independent subset
    of the given size (greedy; greedy is optimal for matroid independence)."""
    chosen: list[int] = []
    for i, v in enumerate(vectors):
        if len(chosen) == size:
            break
        if rank([vectors[j] for j in chosen] + [v]) == len(chosen) + 1:
            chosen.append(i)
    return chosen if len(chosen) == size else None


def format_rational(x) -> str:
    """Lowest-terms string: "p/q", or just "p" for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)
