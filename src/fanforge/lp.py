"""Exact rational linear programming.

A small two-phase simplex with Bland's anticycling rule (smallest-index
entering column, smallest basic-variable tie break on the ratio test).
Termination is guaranteed and every answer is exact, so feasibility answers
double as combinatorial certificates: a basic feasible solution is supported
on linearly independent columns, and an infeasible system yields a Farkas
vector.

Data are ints or Fractions and answers are Fractions; inside, the tableau
is integer over one common denominator d, as in Avis's lrs, and pivots
with the fraction-free step of ``linalg``.  Only signs and exact ratios
steer Bland's rule, so the pivot sequence is the one a Fraction tableau
would take.

A column map gives each column of the LP as k times a stored column.
``strict_feasible``'s slack LP splits each free coordinate as u - v, and
gives each strict or weak row a slack and t <= 1 a cap slack.  Scaled by
the common L, three column identities hold: v = -u, a row's slack is -L
times that row's artificial column, and the cap slack is +L times the cap
row's artificial.  Row operations keep every linear relation between
columns, so only [x | t | artificials | rhs] is stored, about half the
width.  Bland's rule still prices, ratio-tests and breaks ties on the full
LP's numbers and column order, so the pivots, the witness and the
certificate are those of the full-width tableau.  ``solve_nonneg`` reads x
off the phase-1 basis: a drive-out pivot is degenerate and a zero-cost
phase 2 makes none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import ZERO, Vec, _integer_row, _pivot, vzero

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass
class LPResult:
    status: str
    x: Vec | None = None          # primal solution over the original variables
    objective: Fraction | None = None
    dual: Vec | None = None       # y with y.A >= c on the original columns
    farkas: Vec | None = None     # when infeasible: y.A >= 0 and y.b < 0


def _bland_loop(T, basis, cost, allowed, d, cols):
    """Run simplex pivots (maximization) until optimal or unbounded.

    T is the integer tableau over the denominator d > 0, and column j of the
    LP is cols[j] = (s, k), k times stored column s.  The reduced cost of
    column j times d is d * cost[j] - sum_i cost[basis[i]] * T[i][j], and the
    ratio test cross-multiplies.  Returns (status, d)."""
    while True:
        priced = [(row, cost[bi]) for row, bi in zip(T, basis) if cost[bi]]
        enter = next((j for j in allowed if d * cost[j] > cols[j][1] * sum(
            w * row[cols[j][0]] for row, w in priced)), None)
        if enter is None:
            return OPTIMAL, d
        s, k = cols[enter]
        col = [k * row[s] for row in T]
        rows = [i for i, a in enumerate(col) if a > 0]
        if not rows:
            return UNBOUNDED, d
        leave = rows[0]
        for i in rows[1:]:
            lhs, rhs = T[i][-1] * col[leave], T[leave][-1] * col[i]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        d = _pivot(T, leave, col, d)
        basis[leave] = enter


def _phase1(T, cols, n):
    """Minimize the sum of the artificial columns n.., one per row, from
    their basis.  Returns (basis, d, whether the system is feasible)."""
    m = len(T)
    basis = [n + i for i in range(m)]
    _, d = _bland_loop(T, basis, [0] * n + [-1] * m, range(n + m), 1, cols)
    return basis, d, sum(row[-1] for row, bi in zip(T, basis) if bi >= n) == 0


def _phase2(T, basis, cols, n, cost, d):
    """Drive zero-valued artificials out of a feasible basis where a
    structural column allows, then maximize cost over the columns < n."""
    for i in range(len(T)):
        j = next((j for j in range(n) if T[i][cols[j][0]]), None) if basis[i] >= n else None
        if j is not None:  # else a redundant row keeps its artificial at 0
            d = _pivot(T, i, [cols[j][1] * row[cols[j][0]] for row in T], d)
            basis[i] = j
            if d < 0:
                T[:] = [[-x for x in row] for row in T]
                d = -d
    return _bland_loop(T, basis, cost, range(n), d, cols)


def _basic_values(T, basis, n, d) -> list:
    """The values of the columns < n at the basic solution."""
    x = [ZERO] * n
    for row, bi in zip(T, basis):
        if bi < n:
            x[bi] = Fraction(row[-1], d)
    return x


def _standard_form(A, b, n):
    """(T, L, flipped rows, identity column map) for A x = b, x >= 0.

    Every row of [A | b] is scaled by the lcm L of all denominators and
    negated where its rhs is negative.  The artificial columns n.. stay the
    identity, so each artificial is L times the unscaled one and no phase-1
    choice changes; their final columns are d B^{-1}, read for the dual."""
    m = len(A)
    flat, scale = _integer_row([x for row in A for x in row] + list(b))
    rhs = flat[m * n:]
    flipped = {i for i in range(m) if rhs[i] < 0}
    T = []
    for i in range(m):
        s = -1 if i in flipped else 1
        row = [s * x for x in flat[i * n:(i + 1) * n]] + [0] * m + [s * rhs[i]]
        row[n + i] = 1
        T.append(row)
    return T, scale, flipped, [(j, 1) for j in range(n + m)]


def simplex_max(A: Sequence[Sequence], b: Sequence, c: Sequence) -> LPResult:
    """Maximize c.x subject to A x = b, x >= 0, all data rational.

    Returns the optimal basic solution together with the dual vector
    y = c_B B^{-1} (indexed like the rows of A), or a Farkas certificate
    when the system is infeasible.
    """
    m, n = len(A), len(c)
    T, scale, flipped, cols = _standard_form(A, b, n)
    basis, d, feasible = _phase1(T, cols, n)

    def dual_vector(cost, cost_scale):
        # a structural basic row is 1/L of the unscaled tableau's row
        weights = [(row, cost[bi] * (scale if bi < n else 1)) for row, bi in zip(T, basis)]
        return tuple(Fraction((-1 if k in flipped else 1) * sum(
            w * row[n + k] for row, w in weights), d * cost_scale) for k in range(m))

    if not feasible:
        # y = c_B B^{-1} of phase 1 satisfies y.A >= 0 and y.b < 0
        return LPResult(INFEASIBLE, farkas=dual_vector([0] * n + [-1] * m, 1))
    cost2, cost_scale = _integer_row(c)
    cost2 += [0] * m
    status, d = _phase2(T, basis, cols, n, cost2, d)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = _basic_values(T, basis, n, d)
    obj = Fraction(sum(cost2[j] * x[j] for j in range(n)), cost_scale)
    return LPResult(OPTIMAL, x=tuple(x), objective=obj, dual=dual_vector(cost2, cost_scale))


def solve_nonneg(columns: Sequence[Sequence], target: Sequence) -> Vec | None:
    """Exact nonnegative solution of sum_j x_j columns[j] = target.

    The answer is a basic feasible solution, so its support is automatically
    a linearly independent subset of the columns.  None when infeasible.
    """
    n = len(columns)
    A = [[col[i] for col in columns] for i in range(len(target))]
    T, _, _, cols = _standard_form(A, target, n)
    basis, d, feasible = _phase1(T, cols, n)
    return tuple(_basic_values(T, basis, n, d)) if feasible else None


def strict_feasible(
    strict: Sequence[Sequence],
    weak: Sequence[Sequence],
    eqs: Sequence[Sequence],
    dim: int,
) -> tuple[Vec | None, dict]:
    """Find x with <s,x> > 0, <w,x> >= 0, <e,x> = 0, or certify none exists.

    Maximizes a slack t subject to <s_i,x> >= t and t <= 1; the strict system
    is solvable iff the maximum is positive.  When it is 0, the returned
    certificate carries multipliers (y on strict, z on weak, mu on eqs) with
    y, z >= 0, sum(y) >= 1 and sum_i y_i s_i + sum_j z_j w_j + sum_k mu_k e_k = 0,
    which proves infeasibility of the strict system.  A row whose length is
    not dim raises ValueError.
    """
    rows = [*strict, *weak, *eqs]
    if any(len(r) != dim for r in rows):
        raise ValueError(f"every row of the system needs {dim} entries")
    if not strict:
        return vzero(dim), {}
    ns, nw, m, art, t = len(strict), len(weak), len(rows) + 1, dim + 1, 2 * dim
    # stored columns [x | t]: <s_i,x> - t >= 0 on the strict rows, t <= 1 on the cap
    A = [[*r, -1 if i < ns else 0] for i, r in enumerate(rows)] + [[0] * dim + [1]]
    T, scale, _, _ = _standard_form(A, [0] * (m - 1) + [1], art)
    # the LP's columns: u, v, t, the row slacks, the cap slack, artificials
    cols = [(j, 1) for j in range(dim)] + [(j, -1) for j in range(dim)] + [(dim, 1)]
    cols += [(art + i, -scale) for i in range(ns + nw)] + [(art + m - 1, scale)]
    n = len(cols)
    cols += [(art + i, 1) for i in range(m)]
    basis, d, _ = _phase1(T, cols, n)  # feasible at x = 0, t = 0
    status, d = _phase2(T, basis, cols, n, [int(j == t) for j in range(n + m)], d)
    if status != OPTIMAL:
        raise RuntimeError(f"the slack LP is {status}, not optimal")
    t_rows = [row for row, bi in zip(T, basis) if bi == t]
    if any(row[-1] > 0 for row in t_rows):
        x = _basic_values(T, basis, t, d)
        return tuple(x[j] - x[dim + j] for j in range(dim)), {}
    # the multipliers are -c_B B^{-1}: -L times t's row under the artificials, over d
    y = [Fraction(-scale * sum(row[art + i] for row in t_rows), d) for i in range(m - 1)]
    return None, {"strict": tuple(y[:ns]), "weak": tuple(y[ns:ns + nw]),
                  "eqs": tuple(y[ns + nw:])}
