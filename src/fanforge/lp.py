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


def _bland_loop(T, basis, cost, allowed, d):
    """Run simplex pivots (maximization) until optimal or unbounded.

    T is the integer tableau over the denominator d > 0, so the reduced cost
    of column j times d is d * cost[j] - sum_i cost[basis[i]] * T[i][j], and
    the ratio test cross-multiplies.  Returns (status, d)."""
    while True:
        priced = [(row, cost[bi]) for row, bi in zip(T, basis) if cost[bi]]
        enter = next(
            (j for j in allowed if d * cost[j] > sum(w * row[j] for row, w in priced)),
            None,
        )
        if enter is None:
            return OPTIMAL, d
        leave = None
        for i, row in enumerate(T):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = row[-1] * T[leave][enter]
                rhs = T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return UNBOUNDED, d
        d = _pivot(T, leave, enter, d)
        basis[leave] = enter


def simplex_max(A: Sequence[Sequence], b: Sequence, c: Sequence) -> LPResult:
    """Maximize c.x subject to A x = b, x >= 0, all data rational.

    Returns the optimal basic solution together with the dual vector
    y = c_B B^{-1} (indexed like the rows of A), or a Farkas certificate
    when the system is infeasible.
    """
    m = len(A)
    n = len(c)
    # Every row of [A | b] is scaled by the same L = scale, the lcm of all
    # denominators, and negated where its rhs is negative.  The artificial
    # columns n..n+m-1 stay the identity, so each artificial variable is L
    # times the unscaled one: phase-1 costs scale by L and no sign, ratio or
    # pivot choice changes.  They stay in the tableau afterwards: the final
    # columns under them are d B^{-1}, which is what dual extraction needs.
    flat, scale = _integer_row([x for row in A for x in row] + list(b))
    rhs = flat[m * n:]
    flipped = {i for i in range(m) if rhs[i] < 0}
    T = []
    for i in range(m):
        s = -1 if i in flipped else 1
        row = [s * x for x in flat[i * n:(i + 1) * n]] + [0] * m + [s * rhs[i]]
        row[n + i] = 1
        T.append(row)
    basis = [n + i for i in range(m)]
    cost1 = [0] * n + [-1] * m
    _, d = _bland_loop(T, basis, cost1, range(n + m), 1)

    def dual_vector(cost, cost_scale):
        # a structural basic row is 1/L of the unscaled tableau's row
        weights = [(row, cost[bi] * (scale if bi < n else 1)) for row, bi in zip(T, basis)]
        y = []
        for k in range(m):
            yk = Fraction(sum(w * row[n + k] for row, w in weights), d * cost_scale)
            y.append(-yk if k in flipped else yk)
        return tuple(y)

    if sum(row[-1] for row, bi in zip(T, basis) if bi >= n) > 0:
        # y = c_B B^{-1} of phase 1 satisfies y.A >= 0 and y.b < 0
        return LPResult(INFEASIBLE, farkas=dual_vector(cost1, 1))

    # drive zero-valued artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                d = _pivot(T, i, col, d)
                basis[i] = col
                if d < 0:
                    T[:] = [[-x for x in row] for row in T]
                    d = -d
            # else: redundant row; the inert artificial stays basic at 0

    cost2, cost_scale = _integer_row(c)
    cost2 += [0] * m
    status, d = _bland_loop(T, basis, cost2, range(n), d)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [ZERO] * n
    for row, bi in zip(T, basis):
        if bi < n:
            x[bi] = Fraction(row[-1], d)
    obj = Fraction(sum(cost2[j] * x[j] for j in range(n)), cost_scale)
    return LPResult(OPTIMAL, x=tuple(x), objective=obj, dual=dual_vector(cost2, cost_scale))


def solve_nonneg(columns: Sequence[Sequence], target: Sequence) -> Vec | None:
    """Exact nonnegative solution of sum_j x_j columns[j] = target.

    The answer is a basic feasible solution, so its support is automatically
    a linearly independent subset of the columns.  None when infeasible.
    """
    dim = len(target)
    A = [[col[i] for col in columns] for i in range(dim)]
    res = simplex_max(A, target, [0] * len(columns))
    if res.status == INFEASIBLE:
        return None
    return res.x


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
    which proves infeasibility of the strict system.
    """
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
    res = simplex_max(rows, rhs, cost)
    if res.status != OPTIMAL:
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
