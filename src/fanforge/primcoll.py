"""Primitive collections, primitive relations, primitive inequalities.

A primitive collection is a ray set contained in no single cone of the fan
while every proper subset is contained in some cone; equivalently a minimal
non-coface.  Summing its rays and re-expressing the sum positively over an
independent subset of the minimal containing cone yields the primitive
relation, whose class lies in the Mori cone and whose functional is the
primitive inequality.  Over a simplicial minimal cone the coefficients are
read off the cone's facet normals; an exact LP finds them otherwise.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .cones import HCone, VCone, cone_contains
from .fan import Fan, ConeData, contained_in_single_cone, generates_cone, minimal_cone_containing
from .linalg import ONE, Vec, rank, vdot, vsum
from .mori import RelationVector, relation_is_valid, relation_row
from .plfun import PLBasis, refinement_ray_map

PrimitiveCollection = tuple[int, ...]


def enumerate_primitive_collections(fan: Fan) -> list[PrimitiveCollection]:
    """All primitive collections, sorted, found level by level on ray
    bitmasks, bit i for ray i (Agrawal and Srikant's candidate generation,
    VLDB 1994).  Level k holds the k-sets of rays that lie in a cone, in
    order, starting from the single rays, each with the bitmask of the
    maximal cones containing it, bit k for cone k.  A size-k candidate joins
    two sets a and b of level k-1 that share their first k-2 rays, and is
    kept only if every (k-1)-subset is on level k-1: a, b, and for each
    other ray i of a, a's mask less bit i plus b's last bit, looked up as
    ints.  The cones containing it are those containing a and b's last ray,
    one AND of cone masks; it goes to level k if some cone does and is
    primitive otherwise.  Every set whose (k-1)-subsets all lie in cones is
    the join of the two that drop one of its last two rays, so no primitive
    collection is missed.  The search stops at size n+1: larger collections
    would contain a dependent proper subset."""
    ray_cones = [sum(1 << k for k, c in enumerate(fan.cone_masks) if c >> i & 1)
                 for i in range(fan.n_rays)]
    found: list[PrimitiveCollection] = []
    # validate_fan rejects unused rays, so every ray lies in a cone
    level = [((i,), 1 << i, ray_cones[i]) for i in range(fan.n_rays)]
    for _ in range(fan.dim):
        passed = {m for _, m, _ in level}
        next_level = []
        for _, group in itertools.groupby(level, lambda e: e[0][:-1]):
            group = list(group)
            for k, (a, am, ac) in enumerate(group):
                drops = [am & ~(1 << i) for i in a[:-1]]
                for b, _, _ in group[k + 1:]:
                    bit = 1 << b[-1]
                    if all(x | bit in passed for x in drops):
                        cand, cones = a + b[-1:], ac & ray_cones[b[-1]]
                        if cones:
                            next_level.append((cand, am | bit, cones))
                        else:
                            found.append(cand)
        level = next_level
    return sorted(found)


def batyrev_primitive_collections(fan: Fan) -> list[PrimitiveCollection]:
    """The generate-a-cone variant used for smooth fans: collections in no
    single cone all of whose proper subsets span cones of the fan.

    On simplicial fans membership in a cone's ray set and spanning a face
    coincide, so this agrees with enumerate_primitive_collections there; on
    non-simplicial fans the spanning condition can fail for subsets inside a
    fat cone and the list can be empty."""
    return [p for p in enumerate_primitive_collections(fan) if all(
        generates_cone(fan, sub) for k in range(1, len(p)) for sub in itertools.combinations(p, k)
    )]


@dataclass(frozen=True)
class PrimitiveRelation:
    """sum of the collection's rays = sum_{i in support} b[i] * ray_i, with
    positive coefficients on a linearly independent support inside the
    minimal cone containing the sum.  relation is the full signed
    coefficient vector (1 on collection-only rays, 1-b on shared rays, -b on
    support-only rays)."""

    collection: PrimitiveCollection
    sigma_min: ConeData
    support: tuple[int, ...]
    b: dict[int, Fraction]
    relation: RelationVector


def primitive_relation(fan: Fan, collection) -> PrimitiveRelation:
    p = tuple(sorted(collection))
    total = vsum([fan.ray(i) for i in p], fan.dim)
    sigma = minimal_cone_containing(fan, total)
    simplicial = len(sigma.ray_indices) == sigma.dim
    if simplicial:
        # the coordinates over independent rays are unique
        coeffs = tuple(Fraction(vdot(u, total), s) for u, s in sigma.frame)
        inside = all(c >= 0 for c in coeffs)
    else:
        gens = tuple(fan.ray(i) for i in sigma.ray_indices)
        inside, coeffs = cone_contains(VCone(gens, fan.dim), total)
    if not inside:
        raise RuntimeError(f"the ray sum of {p} is not in its minimal cone")
    b = {i: v for i, v in zip(sigma.ray_indices, coeffs) if v != 0}
    support = tuple(sorted(b))
    pset = set(p)
    relation: RelationVector = {}
    for i in p:
        if i in b:
            if not 0 < b[i] < 1:
                raise RuntimeError("shared rays must have coefficient in (0,1)")
            relation[i] = ONE - b[i]
        else:
            relation[i] = ONE
    for i in support:
        if i not in pset:
            relation[i] = -b[i]
    if not relation_is_valid(fan, relation):
        raise RuntimeError(f"primitive relation of {p} does not vanish")
    # the rays of a simplicial cone are independent, and so is any subset
    if not simplicial and rank([fan.ray(i) for i in support]) != len(support):
        raise RuntimeError(f"primitive relation of {p} has a dependent support")
    return PrimitiveRelation(p, sigma, support, b, relation)


def primitive_relations(fan: Fan) -> Mapping[PrimitiveCollection, PrimitiveRelation]:
    """Every primitive collection's relation, keyed by the collection in
    enumerate_primitive_collections order; derived once per fan."""
    return fan.derived("primitive_relations", lambda: MappingProxyType({
        p: primitive_relation(fan, p) for p in enumerate_primitive_collections(fan)
    }))


def primitive_rows(fan: Fan, basis: PLBasis) -> list[Vec]:
    """One inequality row per primitive collection over the quotient functions."""
    return [
        relation_row(fan, r.relation, basis)
        for r in primitive_relations(fan).values()
    ]


def primitive_inequality_cone(fan: Fan, basis: PLBasis) -> HCone:
    """The cone cut out by all primitive inequalities in Pic coordinates."""
    return HCone.make(primitive_rows(fan, basis), (), basis.dim_pic)


TYPE_A = "A"
TYPE_B = "B"


def classify_type(collection, fine: Fan, coarse: Fan) -> str:
    """Type A: the collection (primitive for the fine fan) lies in a single
    cone of the coarse fan; Type B collections are themselves primitive for
    the coarse fan, which is verified."""
    ray_map = refinement_ray_map(fine, coarse)
    mapped = tuple(sorted(ray_map[i] for i in collection))
    if contained_in_single_cone(coarse, mapped):
        return TYPE_A
    if not _is_primitive(coarse, mapped):
        raise RuntimeError("a type B collection must be primitive for the coarse fan")
    return TYPE_B


def _is_primitive(fan: Fan, p: tuple[int, ...]) -> bool:
    """In no single cone, while every subset one ray smaller is."""
    m = sum(1 << i for i in p)
    return not fan.is_coface(m) and all(fan.is_coface(m & ~(1 << i)) for i in p)
