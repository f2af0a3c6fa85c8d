"""Curve classes, the Mori cone and its extremal rays.

Every interior wall carries a rational relation among the rays around it,
unique up to positive scale once the off-wall ray of the second incident
cone has coefficient 1 (plfun.wall_relation).  Paired with a basis of the
function-space quotient, the relations become the classes that generate the
Mori cone, as mori and nef print them; paired with plfun's functions K they
give the same cone in relation coordinates, with no basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lp
from .cones import VCone, cone_contains
from .fan import Fan, Wall
from .linalg import Vec, _integer_row, primitivize
from .plfun import DegenerateWall, PLBasis, RelationVector, is_quasi_projective, pl_basis
from .plfun import _relation_coordinates, _wall_classes, wall_relation


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
    """The Mori cone as its generating wall classes, labeled by wall (the
    relation behind each class is plfun.wall_relation of its wall).
    is_pointed: some functional is positive on every nonzero class.  A
    strictly convex function is one (each class is a positive multiple of
    its wall row); otherwise one strict-feasibility LP decides."""

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
    classes = _wall_classes(fan, basis)
    nonzero = [c for c in classes if any(x != 0 for x in c)]
    pointed = is_quasi_projective(fan)[0] or lp.strict_feasible(
        nonzero, [], [], basis.dim_pic)[0] is not None
    return MoriCone(fan.interior_walls, classes, pointed)


def extremal_walls(fan: Fan, basis: PLBasis) -> list[Wall]:
    """Interior walls whose class spans an extremal ray of the Mori cone.

    A class direction is extremal iff it lies outside the cone of the other
    distinct directions; this LP exclusion test also works when the Mori
    cone is not full dimensional.  Decided once per fan in the fan's own
    pl_basis; each call returns a fresh list.
    """
    mc = mori_cone(fan, basis)
    if not mc.is_pointed:
        raise MoriConeNotPointed("extremal rays need a strongly convex Mori cone")
    return list(fan.derived("extremal_walls", lambda: _extremal(
        mc.walls, mc.classes, basis.dim_pic)))


def _relation_extremal_walls(fan: Fan) -> tuple[tuple[Wall, dict[int, int]], ...]:
    """The extremal walls of a quasi-projective fan with their integer
    relations, found once per fan in plfun._relation_coordinates."""
    rc = _relation_coordinates(fan)
    if not rc.quasi_projective:
        raise MoriConeNotPointed("extremal rays need a quasi-projective fan here")
    return fan.derived("relation_extremal_walls", lambda: _extremal(
        tuple(zip(fan.interior_walls, rc.relations)), rc.rows, rc.dim))


def _extremal(walls, classes, dim: int) -> tuple:
    """The walls whose class spans an extremal ray of cone(classes) in Q^dim."""
    dirs = [primitivize(c) if any(x != 0 for x in c) else None for c in classes]
    distinct = sorted({d for d in dirs if d is not None})
    extremal = set()
    for d in distinct:
        others = tuple(e for e in distinct if e != d)
        if not cone_contains(VCone(others, dim), d)[0]:
            extremal.add(d)
    return tuple(w for w, d in zip(walls, dirs) if d in extremal)
