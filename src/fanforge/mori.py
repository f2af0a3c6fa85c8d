"""Curve classes, the Mori cone and its extremal rays.

Every interior wall carries a rational relation among the rays around it,
unique up to positive scale once the off-wall ray of the second incident
cone has coefficient 1 (plfun.wall_relation).  Paired with plfun's
functions K, the relations are the Mori cone's generators in N_1 in
relation coordinates (plfun._relation_coordinates).  There one LP decides
pointedness, and its point shows most extremal walls as hull vertices, with
no LP.  Paired with a basis of the function-space quotient, the relations
are the Picard classes that mori prints."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .cones import VCone, cone_contains
from .fan import Fan, Wall
from .linalg import Vec, _integer_row, primitivize, vdot
from .plfun import PLBasis, RelationVector, is_quasi_projective, pl_basis
from .plfun import _relation_coordinates, _relation_point, _wall_classes, wall_relation


class MoriConeNotPointed(Exception):
    pass


def relation_is_valid(fan: Fan, rel: RelationVector) -> bool:
    """Does sum_i rel[i] * ray_i vanish exactly?  Decided in integers."""
    coeffs, _ = _integer_row(list(rel.values()))
    terms = [(c, fan.ray(i)) for i, c in zip(rel, coeffs)]
    return not any(sum(c * v[d] for c, v in terms) for d in range(fan.dim))


def relation_dense(fan: Fan, rel: RelationVector) -> Vec:
    return tuple(rel.get(i, 0) for i in range(fan.n_rays))


def relation_row(fan: Fan, rel: RelationVector, basis: PLBasis) -> Vec:
    """The relation as a linear functional over the quotient functions: entry
    j is sum_i rel[i] * phi_j(ray_i), in integers (PLBasis.relation_row).  A
    global linear function pairs to 0 with every relation, so the linear
    part has no entries."""
    coeffs, denominator = _integer_row(list(rel.values()))
    return basis.relation_row(rel, coeffs, denominator)


def curve_class(fan: Fan, rel: RelationVector, basis: PLBasis) -> Vec:
    """Coordinates of the relation's class in the dual of the quotient basis."""
    return relation_row(fan, rel, basis)


def positively_proportional(u: Vec, v: Vec) -> bool:
    if all(x == 0 for x in u) or all(x == 0 for x in v):
        return all(x == 0 for x in u) and all(x == 0 for x in v)
    return primitivize(u) == primitivize(v)


@dataclass(frozen=True)
class MoriCone:
    """The Mori cone as its wall classes in Picard coordinates, printed and
    not decided on, labeled by wall (plfun.wall_relation of the wall is the
    relation behind its class).  is_pointed: some functional is positive on
    every nonzero class.  A strictly convex function is one; otherwise the
    relation LP of plfun._relation_point decides."""

    walls: tuple[Wall, ...]
    classes: tuple[Vec, ...]
    is_pointed: bool


def mori_cone(fan: Fan, basis: PLBasis) -> MoriCone:
    """The cone of the interior-wall classes in the quotient coordinates of
    the fan's own pl_basis, derived once per fan."""
    if basis is not pl_basis(fan):
        raise ValueError("the basis must be the fan's own pl_basis")
    return fan.derived("mori_cone", lambda: _build_mori_cone(fan, basis))


def _build_mori_cone(fan: Fan, basis: PLBasis) -> MoriCone:
    pointed = is_quasi_projective(fan)[0] or _relation_point(fan) is not None
    return MoriCone(fan.interior_walls, _wall_classes(fan, basis), pointed)


def extremal_walls(fan: Fan, basis: PLBasis) -> list[Wall]:
    """Interior walls whose class spans an extremal ray of the Mori cone,
    as a fresh list; the cone must be pointed (mori_cone(fan, basis)).
    Decided in relation coordinates (_relation_extremal_walls)."""
    if not mori_cone(fan, basis).is_pointed:
        raise MoriConeNotPointed("extremal rays need a strongly convex Mori cone")
    return [w for w, _ in _relation_extremal_walls(fan)]


def _relation_extremal_walls(fan: Fan) -> tuple[tuple[Wall, dict[int, int]], ...]:
    """The walls whose row spans an extremal ray of the cone of the wall
    rows in plfun._relation_coordinates, with their integer relations,
    found once per fan; meaningful when that cone is pointed.  Given the
    point positive on every nonzero row (plfun._relation_point), the points
    d / <point, d> (in integers over the pairings' lcm) that maximize some
    +-e_j, if at most two, span a face of their hull: vertices, so extremal.
    Any other direction is extremal iff it lies outside the cone of the
    other distinct directions; this LP exclusion test also works when the
    cone is not full dimensional."""
    def solve():
        rc = _relation_coordinates(fan)
        dirs = [primitivize(r) if any(x != 0 for x in r) else None for r in rc.rows]
        distinct = sorted({d for d in dirs if d is not None})
        extremal = set()
        point = _relation_point(fan)
        pairings = [] if point is None else [vdot(point, d) for d in distinct]
        scale = lcm(*pairings)
        for column in zip(*([x * (scale // p) for x in d] for d, p in zip(distinct, pairings))):
            for values in (column, [-x for x in column]):
                if values.count(top := max(values)) <= 2:
                    extremal.update(d for d, v in zip(distinct, values) if v == top)
        for d in distinct:
            others = tuple(e for e in distinct if e != d)
            if d not in extremal and not cone_contains(VCone(others, rc.dim), d)[0]:
                extremal.add(d)
        return tuple((w, rel) for w, rel, d in zip(fan.interior_walls, rc.relations, dirs)
                     if d in extremal)
    return fan.derived("relation_extremal_walls", solve)
