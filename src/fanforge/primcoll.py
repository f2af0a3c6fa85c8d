"""Primitive collections, primitive relations, primitive inequalities.

A primitive collection is a ray set contained in no single cone of the fan
while every proper subset is contained in some cone; equivalently a minimal
non-coface.  Summing its rays and re-expressing the sum positively over an
independent subset of the minimal containing cone yields the primitive
relation, whose class lies in the Mori cone and whose functional is the
primitive inequality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cones import HCone, VCone, cone_contains
from .fan import Fan, ConeData, contained_in_single_cone, generates_cone, minimal_cone_containing
from .linalg import ONE, Vec, rank, vsum
from .mori import RelationVector, relation_is_valid, relation_row
from .plfun import PLBasis, refinement_ray_map

PrimitiveCollection = tuple[int, ...]


def enumerate_primitive_collections(fan: Fan) -> list[PrimitiveCollection]:
    """All primitive collections, sorted; search runs over subset sizes
    2..n+1 (larger collections would contain a dependent proper subset).  A
    candidate containing a smaller collection has a one-smaller subset in no
    cone, so the subset test rejects it."""
    cofaces = [set(c.ray_indices) for c in fan.max_cones]

    def in_cone(s: tuple[int, ...]) -> bool:
        ss = set(s)
        return any(ss <= c for c in cofaces)

    found: list[PrimitiveCollection] = []
    for size in range(2, fan.dim + 2):
        for cand in itertools.combinations(range(fan.n_rays), size):
            if in_cone(cand):
                continue
            if all(in_cone(sub) for sub in itertools.combinations(cand, size - 1)):
                found.append(cand)
    return sorted(found)


def batyrev_primitive_collections(fan: Fan) -> list[PrimitiveCollection]:
    """The generate-a-cone variant used for smooth fans: collections in no
    single cone all of whose proper subsets span cones of the fan.

    On simplicial fans membership in a cone's ray set and spanning a face
    coincide, so this agrees with enumerate_primitive_collections there; on
    non-simplicial fans the spanning condition can fail for subsets inside a
    fat cone and the list can be empty."""
    found: list[PrimitiveCollection] = []
    for cand in enumerate_primitive_collections(fan):
        proper = (
            sub
            for size in range(1, len(cand))
            for sub in itertools.combinations(cand, size)
        )
        if all(generates_cone(fan, sub) for sub in proper):
            found.append(cand)
    return sorted(found)


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
    if rank([fan.ray(i) for i in support]) != len(support):
        raise RuntimeError(f"primitive relation of {p} has a dependent support")
    return PrimitiveRelation(p, sigma, support, b, relation)


def primitive_rows(fan: Fan, basis: PLBasis) -> list[Vec]:
    """One inequality row per primitive collection over quotient_basis."""
    return [
        relation_row(fan, primitive_relation(fan, p).relation, basis)
        for p in enumerate_primitive_collections(fan)
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
    return not contained_in_single_cone(fan, p) and all(
        contained_in_single_cone(fan, sub)
        for sub in itertools.combinations(p, len(p) - 1)
    )
