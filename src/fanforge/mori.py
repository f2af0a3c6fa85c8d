"""Wall relations, curve classes, the Mori cone and its extremal rays.

Every interior wall carries a rational relation among the rays around it,
unique up to positive scale once the coefficient of the off-wall ray on the
second incident cone is pinned to 1.  Evaluating a relation on a basis of
the function-space quotient turns it into a curve class; the classes of all
interior walls generate the Mori cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .cones import VCone, cone_contains
from .fan import Fan, Wall
from .linalg import ONE, ZERO, Vec, kernel_basis, lex_min_independent_subset, primitivize, vdot
from .plfun import PLBasis, is_quasi_projective, pl_basis

RelationVector = dict[int, Fraction]


class DegenerateWall(Exception):
    pass


class MoriConeNotPointed(Exception):
    pass


def _relation_for_rays(fan: Fan, ray_seq: list[int]) -> RelationVector:
    """The unique relation among the listed rays, normalized so the last ray
    has coefficient 1; requires all but the last to be independent."""
    vectors = [fan.ray(i) for i in ray_seq]
    rows = [[v[d] for v in vectors] for d in range(fan.dim)]
    ker = kernel_basis(rows, len(vectors))
    if len(ker) != 1:
        raise DegenerateWall(f"relation space of {ray_seq} has dim {len(ker)}")
    k = ker[0]
    if k[-1] == 0:
        raise RuntimeError(f"relation of {ray_seq} vanishes on the last ray")
    scale = Fraction(1, k[-1])
    coeffs = [scale * x for x in k]
    return {i: c for i, c in zip(ray_seq, coeffs) if c != 0}


def wall_relation(fan: Fan, wall: Wall) -> RelationVector:
    """Canonical wall relation: lexicographically smallest independent
    (n-1)-subset of the wall rays, smallest-index off-wall rays, coefficient
    1 on the second cone's off-wall ray.  The coefficient on the first
    cone's off-wall ray is checked positive (the two lie on opposite
    sides).  If the first cone is simplicial, the wall is a facet of it and
    v_off_b = sum_i <d_i, v_off_b> v_i over its dual basis d_i gives the
    relation with no elimination."""
    if not wall.is_interior:
        raise ValueError("wall relations need an interior wall")
    a, b = wall.cone_indices
    cone_a = fan.max_cones[a]
    off_a = min(set(cone_a.ray_indices) - set(wall.ray_indices))
    off_b = min(set(fan.max_cones[b].ray_indices) - set(wall.ray_indices))
    if len(cone_a.ray_indices) == cone_a.dim:
        x = fan.ray(off_b)
        duals = zip(cone_a.ray_indices, cone_a.dual_basis(fan.rays))
        rel = {i: -c for i, d in duals if (c := vdot(d, x)) != 0} | {off_b: ONE}
    else:
        wall_vecs = [fan.ray(i) for i in wall.ray_indices]
        chosen = lex_min_independent_subset(wall_vecs, fan.dim - 1)
        if chosen is None:
            raise DegenerateWall(f"wall {wall.ray_indices} spans too little")
        tau_part = [wall.ray_indices[i] for i in chosen]
        rel = _relation_for_rays(fan, tau_part + [off_a, off_b])
    if rel.get(off_a, 0) <= 0:
        raise RuntimeError("off-wall rays must have positive coefficients")
    return rel


def relation_is_valid(fan: Fan, rel: RelationVector) -> bool:
    """Does sum_i rel[i] * ray_i vanish exactly?"""
    total = [0] * fan.dim
    for i, c in rel.items():
        for d, x in enumerate(fan.ray(i)):
            total[d] += c * x
    return all(t == 0 for t in total)


def relation_dense(fan: Fan, rel: RelationVector) -> Vec:
    return tuple(rel.get(i, 0) for i in range(fan.n_rays))


def relation_row(fan: Fan, rel: RelationVector, basis: PLBasis) -> Vec:
    """The relation as a linear functional over the quotient functions: entry
    j is sum_i rel[i] * phi_j(ray_i).  A global linear function pairs to 0 with
    every relation, so the linear part has no entries."""
    return tuple(
        sum((c * values[i] for i, c in rel.items()), ZERO)
        for values in basis.ray_values[fan.dim:]
    )


def curve_class(fan: Fan, rel: RelationVector, basis: PLBasis) -> Vec:
    """Coordinates of the relation's class in the dual of the quotient basis."""
    return relation_row(fan, rel, basis)


def positively_proportional(u: Vec, v: Vec) -> bool:
    if all(x == 0 for x in u) or all(x == 0 for x in v):
        return all(x == 0 for x in u) and all(x == 0 for x in v)
    return primitivize(u) == primitivize(v)


@dataclass(frozen=True)
class MoriCone:
    """The Mori cone with its generating wall classes, labeled by wall; the
    wall relations behind the classes are kept aligned with the walls.
    is_pointed: some functional is positive on every nonzero class.  A
    strictly convex function is one (each class is a positive multiple of
    its wall row); otherwise one strict-feasibility LP decides."""

    cone: VCone
    walls: tuple[Wall, ...]
    classes: tuple[Vec, ...]
    relations: tuple[RelationVector, ...]
    is_pointed: bool


def mori_cone(fan: Fan, basis: PLBasis) -> MoriCone:
    """The cone of the interior-wall classes in the quotient coordinates of
    the fan's own pl_basis, derived once per fan."""
    if basis is not pl_basis(fan):
        raise ValueError("the basis must be the fan's own pl_basis")
    return fan.derived("mori_cone", lambda: _build_mori_cone(fan, basis))


def _build_mori_cone(fan: Fan, basis: PLBasis) -> MoriCone:
    walls = fan.interior_walls
    relations = tuple(wall_relation(fan, w) for w in walls)
    classes = tuple(curve_class(fan, rel, basis) for rel in relations)
    nonzero = [c for c in classes if any(x != 0 for x in c)]
    cone = VCone(tuple(nonzero), basis.dim_pic)
    pointed = is_quasi_projective(fan)[0] or lp.strict_feasible(
        nonzero, [], [], basis.dim_pic)[0] is not None
    return MoriCone(cone, walls, classes, relations, pointed)


def extremal_walls(fan: Fan, basis: PLBasis) -> list[Wall]:
    """Interior walls whose class spans an extremal ray of the Mori cone.

    A class direction is extremal iff it lies outside the cone of the other
    distinct directions; this LP exclusion test also works when the Mori
    cone is not full dimensional.  Decided once per fan in the fan's own
    pl_basis; each call returns a fresh list.
    """
    if basis is not pl_basis(fan):
        raise ValueError("the basis must be the fan's own pl_basis")
    return list(fan.derived("extremal_walls", lambda: _find_extremal_walls(fan, basis)))


def _find_extremal_walls(fan: Fan, basis: PLBasis) -> tuple[Wall, ...]:
    mc = mori_cone(fan, basis)
    if not mc.is_pointed:
        raise MoriConeNotPointed("extremal rays need a strongly convex Mori cone")
    dirs = [primitivize(c) if any(x != 0 for x in c) else None for c in mc.classes]
    distinct = sorted({d for d in dirs if d is not None})
    extremal = set()
    for d in distinct:
        others = tuple(e for e in distinct if e != d)
        if not cone_contains(VCone(others, basis.dim_pic), d)[0]:
            extremal.add(d)
    return tuple(w for w, d in zip(mc.walls, dirs) if d in extremal)
