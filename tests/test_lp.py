import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fanforge import corpus, lp
from fanforge.linalg import vdot, vzero
from fanforge.plfun import is_quasi_projective, pl_basis, wall_rows
from fanforge.refine import qp_refinement
from fanforge.theorems import run_paper_suite


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


def reference_bland_loop(T, basis, cost, allowed, d, cols, done=None):
    """lp._bland_loop as it was before it kept the objective row: every
    round re-sums cost[basis[i]] * T[i][s] over the priced rows for each
    candidate column, and asks done on entry and after every pivot.  It
    pivots through lp._pivot, so a spy on that hook sees its pivots."""
    while True:
        if done is not None and done(T, basis, d):
            return lp.OPTIMAL, d
        priced = [(row, cost[bi]) for row, bi in zip(T, basis) if cost[bi]]
        enter = next((j for j in allowed if d * cost[j] > cols[j][1] * sum(
            w * row[cols[j][0]] for row, w in priced)), None)
        if enter is None:
            return lp.OPTIMAL, d
        s, k = cols[enter]
        col = [k * row[s] for row in T]
        rows = [i for i, a in enumerate(col) if a > 0]
        if not rows:
            return lp.UNBOUNDED, d
        leave = rows[0]
        for i in rows[1:]:
            lhs, rhs = T[i][-1] * col[leave], T[leave][-1] * col[i]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        d = lp._pivot(T, leave, col, d)
        basis[leave] = enter


def reference_strict_feasible(strict, weak, eqs, dim):
    """strict_feasible as it was before it stored half the columns: each
    free coordinate split as u - v and one explicit slack per strict, weak
    and cap row, solved by simplex_max at full width."""
    if not strict:
        return vzero(dim), {}
    ns, nw = len(strict), len(weak)
    # variables: u (dim), v (dim), t, slacks for strict rows, slacks for weak
    # rows, slack for the cap t <= 1
    nvars = 2 * dim + 1 + ns + nw + 1
    t_col = 2 * dim
    rows = []
    rhs = []
    for i, s in enumerate(strict):
        row = [0] * nvars
        for d in range(dim):
            row[d] = s[d]
            row[dim + d] = -s[d]
        row[t_col] = -1
        row[t_col + 1 + i] = -1
        rows.append(row)
        rhs.append(0)
    for j, w in enumerate(weak):
        row = [0] * nvars
        for d in range(dim):
            row[d] = w[d]
            row[dim + d] = -w[d]
        row[t_col + 1 + ns + j] = -1
        rows.append(row)
        rhs.append(0)
    for e in eqs:
        row = [0] * nvars
        for d in range(dim):
            row[d] = e[d]
            row[dim + d] = -e[d]
        rows.append(row)
        rhs.append(0)
    cap = [0] * nvars
    cap[t_col] = 1
    cap[-1] = 1
    rows.append(cap)
    rhs.append(1)
    cost = [0] * nvars
    cost[t_col] = 1
    res = lp.simplex_max(rows, rhs, cost)
    if res.status != lp.OPTIMAL:
        raise RuntimeError(f"the slack LP is {res.status}, not optimal")
    if res.objective > 0:
        x = tuple(res.x[d] - res.x[dim + d] for d in range(dim))
        return x, {}
    y = res.dual
    cert = {
        "strict": tuple(-y[i] for i in range(ns)),
        "weak": tuple(-y[ns + j] for j in range(nw)),
        "eqs": tuple(-y[ns + nw + k] for k in range(len(eqs))),
    }
    return None, cert


def seeded_strict_systems(count=400, seed=2025):
    """Small strict systems with Fraction entries, weak rows and equalities;
    a strict row's negation is sometimes appended, which makes the system
    infeasible."""
    rng = random.Random(seed)

    def entry():
        v = rng.choice([0, 0, 1, -1, 2, -2, 3])
        return Fraction(v, rng.choice([1, 1, 2, 3])) if v else 0

    out = []
    for _ in range(count):
        dim = rng.randint(1, 4)

        def rows(k):
            return [tuple(entry() for _ in range(dim)) for _ in range(k)]

        strict, weak, eqs = rows(rng.randint(1, 4)), rows(rng.randint(0, 3)), rows(rng.randint(0, 2))
        if rng.random() < 0.2:
            strict.append(tuple(-x for x in rng.choice(strict)))
        out.append((strict, weak, eqs, dim))
    return out


# SHA-256 of (witness, certificate) over seeded_strict_systems(), as the
# full-width slack LP computed them.
SEEDED_STRICT_DIGEST = "4de6400cb66722e839d53931a9542ad474b592ae1acbd037de58725811851170"


@pytest.fixture
def counted(monkeypatch):
    """Call a function and list the pivots it takes through lp._pivot, in
    order, each as (pivot element, the pivot row's right-hand side); with
    reference=True the simplex prices with reference_bland_loop."""
    pivots = []
    real_pivot = lp._pivot

    def counting(T, r, c, d):
        p = real_pivot(T, r, c, d)
        pivots.append((p, T[r][-1]))
        return p

    monkeypatch.setattr(lp, "_pivot", counting)

    def run(fn, *args, reference=False):
        pivots.clear()
        with monkeypatch.context() as m:
            if reference:
                m.setattr(lp, "_bland_loop", reference_bland_loop)
            out = fn(*args)
        return out, list(pivots)

    return run


def assert_same_as_reference(counted, systems):
    """Each system's witness and certificate equal the full-width
    reference's, entry types included, and the library's pivots are the
    reference's up to where the library stopped; every reference pivot
    past that point is degenerate (its row's right-hand side is 0).
    Returns the pivot counts (library, reference) over all systems."""
    taken = full = 0
    for system in systems:
        got, got_pivots = counted(lp.strict_feasible, *system)
        want, want_pivots = counted(reference_strict_feasible, *system, reference=True)
        assert repr(got) == repr(want)
        assert got_pivots == want_pivots[:len(got_pivots)]
        assert all(rhs == 0 for _, rhs in want_pivots[len(got_pivots):])
        taken, full = taken + len(got_pivots), full + len(want_pivots)
    return taken, full


def test_seeded_strict_systems_match_pinned_digest():
    h = hashlib.sha256()
    systems = seeded_strict_systems()
    infeasible = 0
    for system in systems:
        witness, cert = lp.strict_feasible(*system)
        infeasible += witness is None
        h.update(repr((witness, cert)).encode())
    assert h.hexdigest() == SEEDED_STRICT_DIGEST
    assert 0 < infeasible < len(systems)


def test_half_width_strict_feasible_takes_the_reference_pivots(counted):
    assert_same_as_reference(counted, seeded_strict_systems())


def test_strict_feasible_workload_calls_take_the_reference_pivots(monkeypatch, counted):
    calls = []
    solve = lp.strict_feasible
    monkeypatch.setattr(lp, "strict_feasible", lambda *a: calls.append(a) or solve(*a))
    run_paper_suite(seed=7, random_fans=25)
    cube = corpus.cube_fan(3)
    qp_refinement(cube, (), is_quasi_projective(cube)[1], seed=7)
    monkeypatch.setattr(lp, "strict_feasible", solve)
    assert len(calls) >= 30
    taken, full = assert_same_as_reference(counted, calls)
    # the witness LPs stop at their optimum, short of the degenerate tail
    assert taken < full


def test_strict_feasible_stops_at_the_proven_optimum(counted):
    # is_quasi_projective's LP on cube_fan(3)'s wall rows: its point is
    # final after 2 pivots, and the full path takes 11 more, each degenerate
    cube = corpus.cube_fan(3)
    basis = pl_basis(cube)
    system = (wall_rows(cube, basis), [], [], basis.dim_pic)
    assert lp.strict_feasible(*system)[0] is not None
    assert assert_same_as_reference(counted, [system]) == (2, 13)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("row", [(1, 0, 5), (1,)])
def test_strict_feasible_rejects_rows_of_the_wrong_length(slot, row):
    system = [[(1, 0)], [(0, 1)], [(1, -1)]]
    system[slot].append(row)
    # a longer row is not cut to dim entries, nor a shorter one padded
    with pytest.raises(ValueError):
        lp.strict_feasible(*system, 2)


def seeded_memberships(count=400, seed=2026):
    """Cone-membership systems as seeded_lps draws them: half with a target
    inside the cone, some with a redundant coordinate (minus the first)."""
    rng = random.Random(seed)

    def entry():
        v = rng.choice([0, 0, 1, -1, 2, -2, 3])
        return Fraction(v, rng.choice([1, 1, 2, 3])) if v else Fraction(0)

    out = []
    for _ in range(count):
        dim, k = rng.randint(1, 4), rng.randint(1, 6)
        gens = [[entry() for _ in range(dim)] for _ in range(k)]
        if dim > 1 and rng.random() < 0.3:
            for g in gens:
                g[-1] = -g[0]
        if rng.random() < 0.5:
            coeffs = [rng.choice([0, 0, 1, Fraction(1, 2)]) for _ in range(k)]
            target = [sum(c * g[d] for c, g in zip(coeffs, gens)) for d in range(dim)]
        else:
            target = [entry() for _ in range(dim)]
        out.append((gens, target))
    return out


def test_solve_nonneg_is_the_zero_cost_simplex():
    statuses = set()
    for gens, target in seeded_memberships():
        x = lp.solve_nonneg(gens, target)
        A = [[g[d] for g in gens] for d in range(len(target))]
        res = lp.simplex_max(A, target, [0] * len(gens))
        statuses.add(res.status)
        if res.status == lp.INFEASIBLE:
            assert x is None
        else:
            assert x == res.x and list(map(type, x)) == list(map(type, res.x))
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE}


def test_kept_objective_row_takes_the_reference_pivots(counted):
    # solve_nonneg prices phase 1's costs 0 and -1; simplex_max's phase 2
    # prices each LP's own integerized costs
    runs = [(lp.solve_nonneg, gens, target) for gens, target in seeded_memberships()]
    runs += [(lp.simplex_max, A, b, c) for A, b, c in seeded_lps()]
    pivoted = 0
    for fn, *args in runs:
        got, got_pivots = counted(fn, *args)
        want, want_pivots = counted(fn, *args, reference=True)
        assert repr(got) == repr(want) and got_pivots == want_pivots
        pivoted += len(got_pivots) > 0
    assert pivoted > len(runs) // 2
