"""Fan data model: rays, cones, face lattice, walls, support convexity.

A fan is given by primitive integer ray vectors plus maximal cones as ray
index sets.  validate_fan checks the fan axioms exactly (strong convexity,
full-dimensional maximal cones, pairwise intersection in common faces,
convex support) and derives the face lattice, the walls with their incident
maximal cones, and the simplicial/complete flags, reading each verdict off
the double descriptions it computes anyway.  Fans are immutable after
validation and all queries are pure, so the invariants that other modules
derive from a fan (PL basis, quasi-projectivity, Mori cone, extremal walls)
are computed once and kept on the fan under their names.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .cones import MAX_DIM, HCone, VCone, double_description, h_to_v, intersect_hcones, v_to_h
from .linalg import is_zero_vec, primitivize, vdot

log = logging.getLogger(__name__)


class FanError(Exception):
    """Fan validation failure; .code names the violated axiom."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class OutsideSupport(Exception):
    pass


@dataclass(frozen=True)
class ConeData:
    """A cone of the fan: its extreme rays (as indices), dimension, and exact
    facet description (inequalities plus span equalities)."""

    ray_indices: tuple[int, ...]
    dim: int
    facets: HCone

    def contains_point(self, x) -> bool:
        return self.facets.contains_point(x)


@dataclass(frozen=True)
class Wall:
    """A codimension-one face together with its incident maximal cones."""

    ray_indices: tuple[int, ...]
    cone_indices: tuple[int, ...]

    @property
    def is_interior(self) -> bool:
        return len(self.cone_indices) == 2


class Fan:
    """Validated fan; construct via validate_fan or fan_from_json."""

    def __init__(self, dim, rays, max_cones, faces, max_face_sets, walls, support):
        self.dim: int = dim
        self.rays: tuple[tuple[int, ...], ...] = rays
        self.max_cones: tuple[ConeData, ...] = max_cones
        self.faces: Mapping[tuple[int, ...], ConeData] = MappingProxyType(faces)
        self.max_face_sets: tuple[frozenset, ...] = max_face_sets
        self.walls: tuple[Wall, ...] = walls
        self.interior_walls: tuple[Wall, ...] = tuple(
            w for w in walls if w.is_interior
        )
        self.boundary_walls: tuple[Wall, ...] = tuple(
            w for w in walls if not w.is_interior
        )
        self.support: HCone = support
        self.is_complete: bool = not self.boundary_walls
        self.is_simplicial: bool = all(
            len(c.ray_indices) == c.dim for c in max_cones
        )
        first: dict[int, int] = {}
        for k, c in enumerate(max_cones):
            for i in c.ray_indices:
                first.setdefault(i, k)
        # for each ray, the smallest-index maximal cone containing it
        self.ray_cone: tuple[int, ...] = tuple(first[i] for i in range(len(rays)))
        self._derived: dict[str, object] = {}

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def ray(self, i: int) -> tuple[int, ...]:
        return self.rays[i]

    def derived(self, name: str, compute):
        """The invariant `name` of this fan, computed by compute() on first
        use and kept; one value per name."""
        if name not in self._derived:
            self._derived[name] = compute()
        return self._derived[name]

    def max_cone_containing(self, x) -> tuple[int, ConeData]:
        """Some maximal cone containing x (the smallest index one)."""
        for i, c in enumerate(self.max_cones):
            if c.contains_point(x):
                return i, c
        raise OutsideSupport(f"point {x} is outside the support")

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c.ray_indices) for c in self.max_cones],
        }

    def __repr__(self):
        return (
            f"Fan(dim={self.dim}, rays={self.n_rays}, "
            f"max_cones={len(self.max_cones)}, simplicial={self.is_simplicial}, "
            f"complete={self.is_complete})"
        )


def _cone_faces(indices: tuple[int, ...], hrep: HCone, rays, memo):
    """All faces of the cone on the indexed rays as ray index sets, the cone
    itself included.  hrep is the cone's facet description; memo maps each
    face met so far to its own faces and its facet description, so each
    face's description is derived once."""
    if indices not in memo:
        result = {indices}
        for u in hrep.inequalities:
            tight = tuple(i for i in indices if vdot(u, rays[i]) == 0)
            face_hrep = memo[tight][1] if tight in memo else v_to_h(
                VCone.make([rays[i] for i in tight], hrep.ambient_dim)
            )
            result |= _cone_faces(tight, face_hrep, rays, memo)
        memo[indices] = (result, hrep)
    return memo[indices][0]


def validate_fan(dim: int, rays, max_cones) -> Fan:
    """Build a validated Fan from raw rays and maximal-cone index sets."""
    if type(dim) is not int or dim < 1:
        raise FanError("BadInput", "ambient dimension must be an integer of at least 1")
    if dim > MAX_DIM:
        raise FanError("BadInput", f"ambient dimension {dim} exceeds the {MAX_DIM} guard")
    if not isinstance(rays, (list, tuple)) or not isinstance(max_cones, (list, tuple)):
        raise FanError("BadInput", "rays and maximal cones must be lists")
    if not max_cones:
        raise FanError("BadInput", "a fan needs at least one maximal cone")

    norm_rays: list[tuple[int, ...]] = []
    for k, entries in enumerate(rays):
        if not isinstance(entries, (list, tuple)):
            raise FanError("BadInput", f"ray {k} is not a list")
        if len(entries) != dim:
            raise FanError("BadInput", f"ray {k} has wrong dimension")
        # Fraction would read both "1" and True as 1
        if any(isinstance(x, (str, bool)) for x in entries):
            raise FanError("BadInput", f"ray {k} has a non-numeric entry")
        try:
            fracs = [Fraction(x) for x in entries]
        except (TypeError, ValueError, OverflowError):
            raise FanError("BadInput", f"ray {k} has a non-numeric entry") from None
        if any(x.denominator != 1 for x in fracs):
            raise FanError("BadInput", f"ray {k} must have integer entries")
        if is_zero_vec(fracs):
            raise FanError("BadInput", f"ray {k} is zero")
        prim = primitivize(fracs)
        if prim != tuple(int(x) for x in fracs):
            log.warning("ray %d normalized to primitive vector %s", k, prim)
        norm_rays.append(prim)
    if len(set(norm_rays)) != len(norm_rays):
        raise FanError("BadInput", "duplicate rays after normalization")
    rays_t = tuple(norm_rays)

    cone_sets: list[tuple[int, ...]] = []
    for k, c in enumerate(max_cones):
        if not isinstance(c, (list, tuple)):
            raise FanError("BadInput", f"maximal cone {k} is not a list")
        if any(type(i) is not int for i in c):
            raise FanError("BadInput", f"maximal cone {k} has a non-integer index")
        idx = tuple(sorted(set(c)))
        if not idx or idx[0] < 0 or idx[-1] >= len(rays_t):
            raise FanError("BadInput", f"maximal cone {k} has bad ray indices")
        cone_sets.append(idx)
    if len(set(cone_sets)) != len(cone_sets):
        raise FanError("BadInput", "duplicate maximal cones")

    # full-dimensional iff the facet description has no equalities, pointed
    # iff the facet normals leave no line, and then the DD rays are extreme
    cones: list[ConeData] = []
    for k, idx in enumerate(cone_sets):
        gens = [rays_t[i] for i in idx]
        hrep = v_to_h(VCone.make(gens))
        if hrep.equalities:
            raise FanError(
                "MaxConeNotFullDim", f"maximal cone {k} has dimension < {dim}"
            )
        lines, extreme = double_description((), hrep.inequalities, dim)
        if lines:
            raise FanError(
                "NotStronglyConvex", f"maximal cone {k} contains a line"
            )
        if set(gens) != set(extreme):
            raise FanError(
                "RayNotExtreme",
                f"maximal cone {k} lists a generator that is not an extreme ray",
            )
        cones.append(ConeData(idx, dim, hrep))

    # face lattice, shared across cones and closed under taking faces
    memo: dict[tuple[int, ...], tuple[set, HCone]] = {}
    max_face_sets = []
    for c in cones:
        max_face_sets.append(
            frozenset(_cone_faces(c.ray_indices, c.facets, rays_t, memo))
        )
    all_face_sets: set[tuple[int, ...]] = set().union(*max_face_sets)
    faces: dict[tuple[int, ...], ConeData] = {}
    for fs in all_face_sets:
        _, hrep = memo[fs]
        faces[fs] = ConeData(fs, dim - len(hrep.equalities), hrep)

    used = set().union(*(c.ray_indices for c in cones))
    if used != set(range(len(rays_t))):
        raise FanError(
            "BadInput", f"rays {sorted(set(range(len(rays_t))) - used)} unused"
        )

    # pairwise intersections must be common faces
    ray_lookup = {r: i for i, r in enumerate(rays_t)}
    for a in range(len(cones)):
        for b in range(a + 1, len(cones)):
            inter = h_to_v(intersect_hcones(cones[a].facets, cones[b].facets))
            got = []
            for g in inter.generators:
                gi = ray_lookup.get(g)
                if gi is None:
                    raise FanError(
                        "ConesOverlapImproperly",
                        f"cones {a} and {b} meet in a cone with extreme ray "
                        f"{g} which is not a ray of the fan",
                    )
                got.append(gi)
            t = tuple(sorted(set(got)))
            if t not in max_face_sets[a] or t not in max_face_sets[b]:
                raise FanError(
                    "ConesOverlapImproperly",
                    f"intersection of cones {a} and {b} is not a common face",
                )

    # walls and their incident maximal cones
    walls = []
    for fs in sorted(all_face_sets):
        if faces[fs].dim != dim - 1:
            continue
        incident = tuple(
            i for i in range(len(cones)) if fs in max_face_sets[i]
        )
        if not 1 <= len(incident) <= 2:
            raise RuntimeError(
                f"wall {fs} meets {len(incident)} maximal cones, not one or two"
            )
        walls.append(Wall(fs, incident))

    # support convexity from boundary-wall halfspaces: a boundary wall is a
    # facet of its one cone, and the inequality of that facet is its normal
    boundary_rows = {
        u
        for w in walls
        if not w.is_interior
        for u in cones[w.cone_indices[0]].facets.inequalities
        if all(vdot(u, rays_t[i]) == 0 for i in w.ray_indices)
    }
    support = HCone(tuple(sorted(boundary_rows)), (), dim)
    for r in rays_t:
        if not support.contains_point(r):
            raise FanError(
                "SupportNotConvex",
                f"ray {r} lies outside a boundary-wall halfspace",
            )

    return Fan(
        dim,
        rays_t,
        tuple(cones),
        faces,
        tuple(max_face_sets),
        tuple(walls),
        support,
    )


def contained_in_single_cone(fan: Fan, ray_set) -> bool:
    """Is the ray index set contained in sigma(1) for some cone sigma?"""
    s = set(ray_set)
    return any(s <= set(c.ray_indices) for c in fan.max_cones)


def generates_cone(fan: Fan, ray_set) -> bool:
    """Does the ray set span a cone of the fan (Batyrev-style test)?"""
    return tuple(sorted(set(ray_set))) in fan.faces


def minimal_cone_containing(fan: Fan, x) -> ConeData:
    """The unique smallest face of the fan containing x: the face of a
    maximal cone containing x cut out by the facets of that cone that x lies
    on."""
    _, cone = fan.max_cone_containing(x)
    on = [u for u in cone.facets.inequalities if vdot(u, x) == 0]
    face = tuple(
        i for i in cone.ray_indices if all(vdot(u, fan.rays[i]) == 0 for u in on)
    )
    return fan.faces[face]


def interior_walls(fan: Fan) -> list[tuple[Wall, ConeData, ConeData]]:
    """Each interior wall with its two incident maximal cones."""
    return [
        (w, fan.max_cones[w.cone_indices[0]], fan.max_cones[w.cone_indices[1]])
        for w in fan.interior_walls
    ]


def fans_equal(a: Fan, b: Fan) -> bool:
    """Same rays in the same order and the same maximal cones."""
    return (
        a.dim == b.dim
        and a.rays == b.rays
        and sorted(c.ray_indices for c in a.max_cones)
        == sorted(c.ray_indices for c in b.max_cones)
    )


def fan_to_json(fan: Fan) -> str:
    return json.dumps(fan.to_json_obj())


def fan_from_json_obj(obj) -> Fan:
    try:
        dim = obj["dim"]
        rays = obj["rays"]
        max_cones = obj["max_cones"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed fan object: {e}") from None
    return validate_fan(dim, rays, max_cones)


def fan_from_json(text: str) -> Fan:
    return fan_from_json_obj(json.loads(text))
