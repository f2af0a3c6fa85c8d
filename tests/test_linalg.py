import random
from fractions import Fraction
from math import gcd, lcm
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from fanforge import linalg, lp
from fanforge.corpus import cube_fan
from fanforge.linalg import (
    _pivot,
    det,
    format_rational,
    is_zero_vec,
    kernel_basis,
    parse_rational,
    primitivize,
    rank,
    rref,
    solve_linear,
    vadd,
    vdot,
    vec,
    vneg,
    vscale,
    vsum,
)
from fanforge.plfun import is_quasi_projective

PYRAMID_TOP = [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)]


def test_rank_identity():
    assert rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3


def test_rank_pyramid_top_rows():
    # hand elimination: r2-r1, r3-r1, r4-r1 span two directions plus r1
    assert rank(PYRAMID_TOP) == 3


def test_rank_zero_matrix():
    assert rank([(0, 0), (0, 0)]) == 0


def test_rank_rational_entries():
    assert rank([(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1, 1))]) == 1
    assert rank([(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(2, 1))]) == 2


def test_det_known():
    assert det([(1, 2), (3, 4)]) == -2
    assert det([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == 24
    assert det([(1, 1), (2, 2)]) == 0


def test_kernel_basis_simple():
    ker = kernel_basis([(1, 1, 0)], 3)
    assert len(ker) == 2
    for k in ker:
        assert vdot((1, 1, 0), k) == 0


def test_solve_linear():
    x = solve_linear([(2, 0), (0, 4)], (1, 1))
    assert x == (Fraction(1, 2), Fraction(1, 4))
    assert solve_linear([(1, 0), (1, 0)], (0, 1)) is None


def test_primitivize():
    assert primitivize((2, 4, -6)) == (1, 2, -3)
    assert primitivize((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    with pytest.raises(ValueError):
        primitivize((0, 0))


def pivot_independent_subset(vectors, size):
    """The pivot columns of one elimination of the vectors as columns, cut
    to size, as plfun._wall_entry reads a wall's independent rays."""
    dim = len(vectors[0]) if vectors else 0
    pivots = rref([[v[d] for v in vectors] for d in range(dim)])[1]
    return pivots[:size] if len(pivots) >= size else None


def test_lex_min_independent_subset():
    for choose in (pivot_independent_subset, reference_lex_min_independent_subset):
        vecs = [(1, 0), (2, 0), (0, 1)]
        assert choose(vecs, 2) == [0, 2]
        assert choose([(1, 0), (2, 0)], 2) is None
        vecs = [(0, 0), (1, 1), (2, 2), (0, 1)]
        assert choose(vecs, 2) == [1, 3]
        assert choose(vecs, 1) == [1]
        assert choose(vecs, 3) is None
        assert choose([], 0) == []
        assert choose([], 1) is None


def test_format_parse_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(-1) == "-1"
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("7") == 7


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return [
        tuple(draw(small_ints) for _ in range(cols)) for _ in range(rows)
    ]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(mat):
    ker = kernel_basis(mat, len(mat[0]))
    for k in ker:
        assert all(vdot(row, k) == 0 for row in mat)
    red, pivots = rref(mat)
    assert len(ker) + len(pivots) == len(mat[0])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_matches_rref(mat):
    red, pivots = rref(mat)
    assert rank(mat) == len(pivots)


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=3))
def test_rank_invariant_under_row_scaling(mat):
    scaled = [tuple(3 * x for x in row) for row in mat]
    assert rank(scaled) == rank(mat)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([(1, 2)])


def reference_rref(rows):
    """The Fraction Gauss-Jordan loop that rref ran before the fraction-free
    core, kept as an oracle."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
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


def reference_det(rows):
    """The Fraction elimination loop that det ran before the fraction-free
    core, kept as an oracle."""
    mat = [list(map(Fraction, r)) for r in rows]
    n = len(mat)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
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


rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)),
)


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices with zero rows and columns mixed in; m and n may
    differ, and either may be 0."""
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(0, 5))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2)):
        if i < m:
            rows[i] = [Fraction(0)] * n
    for j in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2)):
        if j < n:
            for row in rows:
                row[j] = Fraction(0)
    if m >= 2 and draw(st.booleans()):
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
    return [tuple(r) for r in rows]


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_elimination_matches_fraction_reference(mat):
    red, pivots = rref(mat)
    assert (red, pivots) == reference_rref(mat)
    assert rank(mat) == len(pivots)


@settings(max_examples=300, deadline=None)
@given(rational_matrices(square=True))
def test_det_matches_fraction_reference(mat):
    assert det(mat) == reference_det(mat)


def test_elimination_of_empty_matrix():
    assert rref([]) == reference_rref([]) == ([], [])
    assert rank([]) == 0
    assert det([]) == reference_det([]) == 1


def reference_lex_min_independent_subset(vectors, size):
    """Indices of the lexicographically smallest linearly independent
    subset of the given size, or None: the greedy loop, one rank per
    candidate, optimal for matroid independence."""
    chosen = []
    for i, v in enumerate(vectors):
        if len(chosen) == size:
            break
        if rank([vectors[j] for j in chosen] + [v]) == len(chosen) + 1:
            chosen.append(i)
    return chosen if len(chosen) == size else None


@settings(max_examples=300, deadline=None)
@given(rational_matrices(), st.integers(0, 7))
def test_lex_min_independent_subset_matches_greedy_reference(vectors, size):
    # the rows are the vectors: zero and dependent ones mixed in, possibly
    # none, and size may exceed both their number and their rank
    got = pivot_independent_subset(vectors, size)
    assert got == reference_lex_min_independent_subset(vectors, size)
    assert (got is None) == (size > rank(vectors))


def vsub(a, b):
    """a - b entrywise, on entries as given, in the form of linalg's vector
    helpers; no library code subtracts vectors, so it lives with the tests
    that do."""
    if len(a) != len(b):
        raise ValueError("vectors of different lengths")
    return tuple(map(sub, a, b))


# The vector helpers as they were when they converted every entry to
# Fraction, kept as oracles for the helpers that compute on entries as given.
def reference_vadd(a, b):
    return tuple(Fraction(x) + Fraction(y) for x, y in zip(a, b, strict=True))


def reference_vsub(a, b):
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b, strict=True))


def reference_vscale(c, a):
    return tuple(Fraction(c) * Fraction(x) for x in a)


def reference_vdot(a, b):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b, strict=True)), Fraction(0))


def reference_vneg(a):
    return tuple(-Fraction(x) for x in a)


def reference_vsum(vectors, dim):
    total = [Fraction(0)] * dim
    for v in vectors:
        for i, x in enumerate(v):
            total[i] += x
    return tuple(total)


def reference_primitivize(a):
    fracs = [Fraction(x) for x in a]
    scale = 1
    for x in fracs:
        scale = lcm(scale, x.denominator)
    ints = [x.numerator * (scale // x.denominator) for x in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(x // g for x in ints)


mixed = st.one_of(small_ints, rationals)


@st.composite
def helper_inputs(draw, count=3):
    """count vectors of one length and a scalar; in half the draws every
    entry and the scalar are ints, otherwise each is an int or a Fraction."""
    entries = draw(st.sampled_from([small_ints, mixed]))
    n = draw(st.integers(0, 5))
    return [tuple(draw(entries) for _ in range(n)) for _ in range(count)], draw(entries)


@settings(max_examples=300, deadline=None)
@given(helper_inputs())
def test_vector_helpers_match_fraction_reference(inputs):
    vectors, c = inputs
    a, b, _ = vectors
    n = len(a)
    cases = [
        (vadd(a, b), reference_vadd(a, b)),
        (vsub(a, b), reference_vsub(a, b)),
        (vscale(c, a), reference_vscale(c, a)),
        ((vdot(a, b),), (reference_vdot(a, b),)),
        (vneg(a), reference_vneg(a)),
        (vsum(vectors, n), reference_vsum(vectors, n)),
    ]
    assert is_zero_vec(a) is all(Fraction(x) == 0 for x in a)
    if any(x != 0 for x in a):
        cases.append((primitivize(a), reference_primitivize(a)))
    else:
        with pytest.raises(ValueError):
            primitivize(a)
    for got, want in cases:
        assert got == want
        assert all(type(x) in (int, Fraction) for x in got)
    if all(type(x) is int for v in vectors for x in v) and type(c) is int:
        # lattice vectors stay ints
        for got, _ in cases:
            assert all(type(x) is int for x in got)


@pytest.mark.parametrize("a, b", [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (1,))])
def test_vector_helpers_reject_vectors_of_different_lengths(a, b):
    # map stops at the shorter vector; the helpers must not truncate
    for helper in (vadd, vsub, vdot):
        with pytest.raises(ValueError):
            helper(a, b)
    with pytest.raises(ValueError):
        vsum([a, b], len(a))
    with pytest.raises(ValueError):
        vsum([b], len(a))


def reference_pivot(T, r, col, d):
    """linalg._pivot as it was before it touched only the pivot row's
    nonzero columns: every entry of every row is recomputed."""
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


def checked_pivot(kinds):
    """A stand-in for _pivot that runs the reference on a copy of the
    tableau, requires the same tableau and return value, and notes the kind
    of each pivot: d == 1, p == d, negative p, zeros in the pivot row."""
    def pivot(T, r, col, d):
        want = [list(row) for row in T]
        want_p = reference_pivot(want, r, col, d)
        p = _pivot(T, r, col, d)
        assert p == want_p and T == want
        kinds.update(k for k, hit in [("d=1", d == 1), ("p=d", p == d), ("p!=d", p != d),
                                      ("p<0", p < 0), ("zeros", 0 in T[r])] if hit)
        return p
    return pivot


def seeded_pivot_runs(count=300, seed=2027):
    """Integer tableaux from d = 1, each pivoted a few times on random
    nonzero entries (at times one equal to d, so that p == d).  Each step
    is a basis change of T = d B^-1 A, which keeps every entry integer."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        T = [[rng.choice([0, 0, 0, 1, -1, 2, -2, 3]) for _ in range(n)] for _ in range(m)]
        steps = []
        for _ in range(rng.randint(1, 4)):
            entries = [(i, j) for i in range(m) for j in range(n) if T[i][j]]
            if not entries:
                break
            steps.append(rng.choice(entries))
        yield T, steps


def test_sparse_pivot_matches_the_dense_reference():
    kinds = set()
    pivot = checked_pivot(kinds)
    for T, steps in seeded_pivot_runs():
        exact = [list(map(Fraction, row)) for row in T]
        d = 1
        for r, c in steps:
            if T[r][c] == 0:
                continue
            f = exact[r][c]
            exact[r] = [x / f for x in exact[r]]
            exact = [row if i == r else [x - row[c] * y for x, y in zip(row, exact[r])]
                     for i, row in enumerate(exact)]
            d = pivot(T, r, [row[c] for row in T], d)
            # the step is exact: T / d is the Fraction Gauss-Jordan tableau
            assert [[Fraction(x, d) for x in row] for row in T] == exact
    assert kinds == {"d=1", "p=d", "p!=d", "p<0", "zeros"}


def test_elimination_and_simplex_pivot_through_the_one_kernel(monkeypatch):
    # the simplex's pivots, its kept objective row among the rows, and
    # validation's eliminations each match the dense reference
    assert lp._pivot is _pivot
    eliminated, simplex = set(), set()
    monkeypatch.setattr(linalg, "_pivot", checked_pivot(eliminated))
    monkeypatch.setattr(lp, "_pivot", checked_pivot(simplex))
    cube_fan(4)
    assert {"p=d", "p!=d", "zeros"} <= eliminated
    assert is_quasi_projective(cube_fan(3))[0]
    assert lp.solve_nonneg([(1, 0, 1), (0, 1, 1), (1, 1, 0)], (2, 1, 3)) is not None
    assert lp.simplex_max([[1, 1], [1, 1]], [1, 1], [1, 0]).objective == 1
    # phase 2 drives the artificial out of the basis on the entry -1
    assert lp.simplex_max([[-1]], [0], [0]).x == (0,)
    assert simplex == {"d=1", "p=d", "p!=d", "p<0", "zeros"}
