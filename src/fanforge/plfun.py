"""Piecewise-linear functions on a fan.

A PLFunction stores one linear functional per maximal cone, compatible
across interior walls (the difference of the two functionals vanishes on the
wall).  Ray values are the divisor coefficients; with this sign convention a
function is convex exactly when every interior-wall functional is
nonnegative, and strictly convex when all are positive.  Quasi-projectivity
of the fan is decided by an exact LP over a basis of the function space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .cones import cones_equal
from .fan import Fan, Wall, contained_in_single_cone
from .linalg import (
    Vec,
    kernel_basis,
    rank,
    solve_linear,
    vadd,
    vdot,
    vec,
    vsub,
    vsum,
    vzero,
    format_rational,
    parse_rational,
)


class WallIncompatible(Exception):
    def __init__(self, wall: Wall):
        super().__init__(f"functionals disagree on wall {wall.ray_indices}")
        self.wall = wall


class NonSimplicialFan(Exception):
    pass


class NotARefinement(Exception):
    pass


@dataclass(frozen=True)
class PLFunction:
    fan: Fan
    cone_functionals: tuple[Vec, ...]

    def value(self, x) -> int | Fraction:
        i, _ = self.fan.max_cone_containing(x)
        return vdot(self.cone_functionals[i], x)

    def ray_value(self, i: int) -> int | Fraction:
        return vdot(self.cone_functionals[self.fan.ray_cone[i]], self.fan.ray(i))

    def ray_values(self) -> Vec:
        return tuple(self.ray_value(i) for i in range(self.fan.n_rays))

    def to_json_obj(self) -> dict:
        if self.fan.is_simplicial:
            return {
                "ray_values": {
                    str(i): format_rational(v) for i, v in enumerate(self.ray_values())
                }
            }
        return {
            "cone_functionals": [
                [format_rational(x) for x in m] for m in self.cone_functionals
            ]
        }


def pl_from_cone_functionals(fan: Fan, functionals) -> PLFunction:
    """Canonical constructor: validates wall compatibility exactly."""
    ms = [vec(m) for m in functionals]
    if len(ms) != len(fan.max_cones):
        raise ValueError("need one functional per maximal cone")
    for w in fan.interior_walls:
        a, b = w.cone_indices
        diff = vsub(ms[a], ms[b])
        if any(vdot(diff, fan.ray(i)) != 0 for i in w.ray_indices):
            raise WallIncompatible(w)
    return PLFunction(fan, tuple(ms))


def pl_from_ray_values(fan: Fan, values) -> PLFunction:
    """Simplicial fans only: each maximal cone determines its functional from
    the prescribed ray values; wall compatibility then holds automatically."""
    if not fan.is_simplicial:
        raise NonSimplicialFan("ray values underdetermine a non-simplicial fan")
    if isinstance(values, dict):
        values = [values[i] for i in range(fan.n_rays)]
    vals = [Fraction(v) for v in values]
    ms = []
    for c in fan.max_cones:
        rows = [fan.ray(i) for i in c.ray_indices]
        rhs = [vals[i] for i in c.ray_indices]
        m = solve_linear(rows, rhs)
        if m is None:
            raise RuntimeError(f"rays of maximal cone {c.ray_indices} are dependent")
        ms.append(m)
    return PLFunction(fan, tuple(ms))


def pl_from_json_obj(fan: Fan, obj) -> PLFunction:
    if "ray_values" in obj:
        vals = {int(k): parse_rational(v) for k, v in obj["ray_values"].items()}
        return pl_from_ray_values(fan, vals)
    if "cone_functionals" in obj:
        ms = [[parse_rational(x) for x in m] for m in obj["cone_functionals"]]
        return pl_from_cone_functionals(fan, ms)
    raise ValueError("expected ray_values or cone_functionals")


def _off_wall_vector(fan: Fan, wall: Wall) -> Vec:
    """Sum of the generators of the first incident cone not in the wall;
    always lies in that cone but outside the wall's span."""
    cone = fan.max_cones[wall.cone_indices[0]]
    outside = [fan.ray(i) for i in cone.ray_indices if i not in wall.ray_indices]
    return vsum(outside, fan.dim)


def wall_functional(fan: Fan, wall: Wall, phi: PLFunction) -> int | Fraction:
    """Evaluate the wall's curve functional on phi: <m_first - m_second, v>
    for a fixed v in the first cone off the wall.  Nonnegative for convex phi
    and positive for strictly convex phi, up to one fixed positive scale per
    wall."""
    a, b = wall.cone_indices
    diff = vsub(phi.cone_functionals[a], phi.cone_functionals[b])
    return vdot(diff, _off_wall_vector(fan, wall))


def is_convex(phi: PLFunction) -> bool:
    return all(wall_functional(phi.fan, w, phi) >= 0 for w in phi.fan.interior_walls)


def is_strictly_convex(phi: PLFunction) -> bool:
    return all(wall_functional(phi.fan, w, phi) > 0 for w in phi.fan.interior_walls)


@dataclass(frozen=True)
class PLBasis:
    """A basis of the space of piecewise-linear functions on a fan, split as
    the global linear functionals plus representatives of the quotient
    Pic(X)_R (pinned to vanish on the first maximal cone); rows and classes
    are over quotient_basis.  ray_values is aligned with basis_functions."""

    fan: Fan
    lin_part: tuple[PLFunction, ...]
    quotient_basis: tuple[PLFunction, ...]
    ray_values: tuple[Vec, ...]

    @property
    def basis_functions(self) -> tuple[PLFunction, ...]:
        return self.lin_part + self.quotient_basis

    @property
    def dim_pl(self) -> int:
        return len(self.lin_part) + len(self.quotient_basis)

    @property
    def dim_pic(self) -> int:
        return len(self.quotient_basis)

    def combine(self, coeffs) -> PLFunction:
        fns = self.basis_functions
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != len(fns):
            raise ValueError(f"need {len(fns)} coefficients, got {len(coeffs)}")
        n = self.fan.dim
        ms = []
        for k in range(len(self.fan.max_cones)):
            m = list(vzero(n))
            for c, f in zip(coeffs, fns):
                for d in range(n):
                    m[d] += c * f.cone_functionals[k][d]
            ms.append(tuple(m))
        return PLFunction(self.fan, tuple(ms))


def _compat_rows(fan: Fan) -> list[Vec]:
    """Wall-compatibility equations over the stacked (m_sigma) vector."""
    n = fan.dim
    k = len(fan.max_cones)
    rows = []
    for w in fan.interior_walls:
        a, b = w.cone_indices
        for i in w.ray_indices:
            row = [0] * (k * n)
            ray = fan.ray(i)
            for d in range(n):
                row[a * n + d] += ray[d]
                row[b * n + d] -= ray[d]
            rows.append(tuple(row))
    return rows


def _stacked_to_pl(fan: Fan, stacked: Vec) -> PLFunction:
    n = fan.dim
    ms = tuple(
        tuple(stacked[k * n + d] for d in range(n))
        for k in range(len(fan.max_cones))
    )
    return PLFunction(fan, ms)


def pl_basis(fan: Fan) -> PLBasis:
    """Solve the wall-compatibility system for the whole function space,
    once per fan."""
    return fan.derived("pl_basis", lambda: _solve_pl_basis(fan))


def _solve_pl_basis(fan: Fan) -> PLBasis:
    n = fan.dim
    k = len(fan.max_cones)
    compat = _compat_rows(fan)
    # a global linear functional is one unit vector on every cone; the
    # quotient is pinned by the first cone's functional
    units = [tuple(int(j == d) for j in range(n)) for d in range(n)]
    lin = tuple(PLFunction(fan, (u,) * k) for u in units)
    pin = [u + (0,) * (n * (k - 1)) for u in units]
    quotient = [
        _stacked_to_pl(fan, s) for s in kernel_basis(compat + pin, k * n)
    ]
    dim_pl = k * n - rank(compat) if compat else k * n
    if dim_pl != n + len(quotient):
        raise RuntimeError("first-cone pinning must split off M")
    ray_values = tuple(zip(*fan.rays)) + tuple(f.ray_values() for f in quotient)
    return PLBasis(fan, lin, tuple(quotient), ray_values)


def wall_rows(fan: Fan, basis: PLBasis) -> list[Vec]:
    """Interior-wall functionals as inequality rows over quotient_basis."""
    return [
        tuple(wall_functional(fan, w, f) for f in basis.quotient_basis)
        for w in fan.interior_walls
    ]


def is_quasi_projective(fan: Fan) -> tuple[bool, PLFunction | None]:
    """Existence of a strictly convex function, decided by exact LP over the
    function-space basis, once per fan; the witness is returned and
    re-verified."""
    return fan.derived("is_quasi_projective", lambda: _solve_quasi_projective(fan))


def _solve_quasi_projective(fan: Fan) -> tuple[bool, PLFunction | None]:
    basis = pl_basis(fan)
    witness, _ = lp.strict_feasible(wall_rows(fan, basis), [], [], basis.dim_pic)
    if witness is None:
        return False, None
    phi = basis.combine((0,) * fan.dim + witness)
    if not is_strictly_convex(phi):
        raise RuntimeError("LP witness is not strictly convex on every wall")
    return True, phi


def refinement_ray_map(fine: Fan, coarse: Fan) -> list[int]:
    """Index translation fine ray -> coarse ray; identical ray sets required."""
    lookup = {r: i for i, r in enumerate(coarse.rays)}
    if fine.dim != coarse.dim or len(fine.rays) != len(coarse.rays):
        raise NotARefinement("ray sets differ")
    try:
        return [lookup[r] for r in fine.rays]
    except KeyError:
        raise NotARefinement("ray sets differ") from None


def refinement_cone_map(fine: Fan, coarse: Fan) -> list[int]:
    """For each fine maximal cone, the coarse maximal cone containing it.

    Raises NotARefinement unless every fine cone fits in a coarse cone and
    the supports agree (so the fine cones cover the coarse fan exactly)."""
    refinement_ray_map(fine, coarse)
    if not cones_equal(fine.support, coarse.support):
        raise NotARefinement("supports differ")
    cmap = []
    for c in fine.max_cones:
        gens = [fine.ray(i) for i in c.ray_indices]
        hit = next(
            (
                j
                for j, big in enumerate(coarse.max_cones)
                if all(big.contains_point(g) for g in gens)
            ),
            None,
        )
        if hit is None:
            raise NotARefinement(
                f"fine cone {c.ray_indices} fits in no coarse cone"
            )
        cmap.append(hit)
    return cmap


def type_a_pairs(fine: Fan, coarse: Fan) -> list[tuple[int, int]]:
    """Two-element collections primitive for the fine fan but contained in a
    single coarse cone (in fine ray indices)."""
    ray_map = refinement_ray_map(fine, coarse)
    pairs = []
    for i in range(fine.n_rays):
        for j in range(i + 1, fine.n_rays):
            if contained_in_single_cone(fine, (i, j)):
                continue
            if contained_in_single_cone(coarse, (ray_map[i], ray_map[j])):
                pairs.append((i, j))
    return pairs


def coarse_membership(phi: PLFunction, coarse: Fan) -> bool:
    """Does a function on a refinement descend to the coarse fan?

    The direct test (equal functionals on all fine cones inside one coarse
    cone) and the additivity criterion on two-element collections that are
    primitive for the fine fan but sit inside a coarse cone must agree; both
    are evaluated and checked against each other.
    """
    fine = phi.fan
    cmap = refinement_cone_map(fine, coarse)
    direct = True
    for j in range(len(coarse.max_cones)):
        ms = [phi.cone_functionals[k] for k in range(len(cmap)) if cmap[k] == j]
        if any(m != ms[0] for m in ms[1:]):
            direct = False
            break
    additive = all(
        phi.value(vadd(fine.ray(i), fine.ray(j)))
        == phi.ray_value(i) + phi.ray_value(j)
        for i, j in type_a_pairs(fine, coarse)
    )
    if direct != additive:
        raise RuntimeError("wall-descent and additivity tests must agree")
    return direct
