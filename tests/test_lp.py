import hashlib
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fanforge import lp
from fanforge.linalg import vdot


def test_simplex_basic_max():
    # maximize x+y s.t. x+y+s = 1
    res = lp.simplex_max([[1, 1, 1]], [1], [1, 1, 0])
    assert res.status == lp.OPTIMAL
    assert res.objective == 1


def test_simplex_infeasible_farkas():
    # x = -1 with x >= 0 is infeasible; the Farkas vector certifies it
    res = lp.simplex_max([[1]], [-1], [0])
    assert res.status == lp.INFEASIBLE
    y = res.farkas
    assert vdot(y, (-1,)) < 0 <= y[0] * 1


def test_simplex_unbounded():
    # maximize x s.t. x - s = 0 (x = s arbitrarily large)
    res = lp.simplex_max([[1, -1]], [0], [1, 0])
    assert res.status == lp.UNBOUNDED


def test_simplex_degenerate_redundant_rows():
    # duplicated constraint rows must not break phase 2
    res = lp.simplex_max([[1, 1], [1, 1]], [1, 1], [1, 0])
    assert res.status == lp.OPTIMAL
    assert res.objective == 1


def test_solve_nonneg_single_generator():
    assert lp.solve_nonneg([(2, 4)], (1, 2)) == (Fraction(1, 2),)
    assert lp.solve_nonneg([(1, 0)], (0, 1)) is None


def test_solve_nonneg_square_diagonal():
    # the relation (0,0,2) = 1*(1,-1,1) + 1*(-1,1,1)
    coeffs = lp.solve_nonneg([(1, -1, 1), (-1, 1, 1)], (0, 0, 2))
    assert coeffs == (1, 1)


def test_strict_feasible_single_direction():
    w, _ = lp.strict_feasible([(1,)], [], [], 1)
    assert w is not None and w[0] > 0


def test_strict_feasible_none_on_contradiction():
    assert lp.strict_feasible([(1, 0), (-1, 0)], [], [], 2)[0] is None


def test_strict_feasible_infeasible_certificate():
    # x > 0 and -x > 0 cannot hold; certificate must combine to zero
    w, cert = lp.strict_feasible([(1, 0), (-1, 0)], [(0, 1)], [], 2)
    assert w is None
    y = cert["strict"]
    z = cert["weak"]
    assert all(c >= 0 for c in y) and all(c >= 0 for c in z)
    assert sum(y) >= 1
    combo = [
        y[0] * 1 + y[1] * (-1) + z[0] * 0,
        y[0] * 0 + y[1] * 0 + z[0] * 1,
    ]
    assert combo == [0, 0]


def test_strict_feasible_no_strict_rows():
    w, _ = lp.strict_feasible([], [(1, 0)], [(0, 1)], 2)
    assert w == (0, 0)


def test_strict_feasible_with_equalities():
    w, _ = lp.strict_feasible([(1, 1)], [], [(1, -1)], 2)
    assert w is not None
    assert w[0] == w[1] and w[0] + w[1] > 0


small = st.integers(min_value=-5, max_value=5)


@st.composite
def cone_membership_instances(draw):
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    gens = [tuple(draw(small) for _ in range(dim)) for _ in range(k)]
    coeffs = [draw(st.integers(0, 4)) for _ in range(k)]
    target = tuple(
        sum(c * g[d] for c, g in zip(coeffs, gens)) for d in range(dim)
    )
    return gens, target


@settings(max_examples=60, deadline=None)
@given(cone_membership_instances())
def test_solve_nonneg_recombines(instance):
    gens, target = instance
    coeffs = lp.solve_nonneg(gens, target)
    assert coeffs is not None
    assert all(c >= 0 for c in coeffs)
    for d in range(len(target)):
        assert sum(c * g[d] for c, g in zip(coeffs, gens)) == target[d]


@settings(max_examples=40, deadline=None)
@given(cone_membership_instances())
def test_infeasible_comes_with_farkas(instance):
    gens, target = instance
    shifted = tuple(x for x in target)
    res = lp.simplex_max(
        [[g[d] for g in gens] for d in range(len(target))], shifted, [0] * len(gens)
    )
    if res.status == lp.INFEASIBLE:
        y = res.farkas
        assert vdot(y, shifted) < 0
        for g in gens:
            assert vdot(y, g) >= 0


def seeded_lps(count=240, seed=2024):
    """Small rational LPs: half with b = A x0 for a sparse x0 >= 0, so
    degenerate bases and artificials left at zero are common, and some with
    a negated duplicate row."""
    rng = random.Random(seed)

    def entry():
        v = rng.choice([0, 0, 1, -1, 2, -2, 3])
        return Fraction(v, rng.choice([1, 1, 2, 3])) if v else Fraction(0)

    out = []
    for _ in range(count):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        A = [[entry() for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            A[-1] = [-x for x in A[0]]
        if rng.random() < 0.5:
            x0 = [rng.choice([0, 0, 1, Fraction(1, 2)]) for _ in range(n)]
            b = [sum(a * x for a, x in zip(row, x0)) for row in A]
        else:
            b = [entry() for _ in range(m)]
        c = [entry() for _ in range(n)]
        out.append((A, b, c))
    return out


# SHA-256 of (status, x, objective, dual, farkas) over seeded_lps(), as the
# Fraction-tableau simplex computed it before the integer tableau.
SEEDED_LP_DIGEST = "0a20ed4f3ce7b0b702b46631c16bf8e690bf5f99d4a45ea40b16d26685a8fc8d"


def test_seeded_lps_match_pinned_digest(monkeypatch):
    pivots = []
    real_pivot = lp._pivot

    def counting(T, r, c, d):
        p = real_pivot(T, r, c, d)
        pivots.append(p)
        return p

    monkeypatch.setattr(lp, "_pivot", counting)
    h = hashlib.sha256()
    statuses = set()
    for A, b, c in seeded_lps():
        r = lp.simplex_max(A, b, c)
        statuses.add(r.status)
        h.update(repr((r.status, r.x, r.objective, r.dual, r.farkas)).encode())
    assert h.hexdigest() == SEEDED_LP_DIGEST
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
    # Bland pivots are positive; only driving an artificial out of the basis
    # can pivot on a negative entry, which the tableau must absorb
    assert any(p < 0 for p in pivots)
