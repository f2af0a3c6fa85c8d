"""Fan data model: rays, cones, face lattice, walls, support convexity.

A fan is given by primitive integer ray vectors plus maximal cones as ray
index sets.  validate_fan checks the fan axioms exactly (strong convexity,
full-dimensional maximal cones, cones meeting in common faces, convex
support) and derives the face lattice, the walls with their incident
maximal cones, the support and the simplicial/complete flags, reading each
verdict off one double description per maximal cone.  The faces of a
simplicial cone are the subsets of its rays, described by the cone's own
facet normals; only the faces of a non-simplicial cone take a double
description each.  That the cones meet in common faces and cover a convex
set is decided by matching the facets of the maximal cones in one pass,
which needs no cone intersection and no description of the cone on all
rays; the same pass lists the walls and the support.  Fans are immutable
after validation and all queries are pure, so the invariants that other
modules derive from a fan (PL basis, quasi-projectivity, Mori cone,
extremal walls) are computed once and kept on the fan under their names,
as plain values that do not refer back to it.
"""

from __future__ import annotations

import itertools
import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .cones import MAX_DIM, HCone, VCone, double_description, h_to_v, intersect_hcones, v_to_h
from .linalg import Vec, is_zero_vec, primitivize, vdot, vneg, vsum

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
    """A cone of the fan: its extreme rays (as indices into rays), dimension,
    and exact facet description (inequalities plus span equalities).  A
    maximal cone and a face of a non-simplicial cone have v_to_h's reduced
    description; a face of a simplicial cone has that cone's own facet
    normals, with the normals of the facets containing the face among its
    equalities."""

    ray_indices: tuple[int, ...]
    dim: int
    facets: HCone
    rays: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    def contains_point(self, x) -> bool:
        return self.facets.contains_point(x)

    @cached_property
    def frame(self) -> tuple[tuple[Vec, int], ...]:
        """A simplicial cone's integer frame, found on first use: for each
        ray v_i, in ray_indices order, the one facet inequality u_i that does
        not vanish on v_i, and s_i = <u_i, v_i> > 0; empty otherwise.  A
        point x of the span is sum_i (<u_i, x> / s_i) v_i."""
        if len(self.ray_indices) != self.dim:
            return ()
        rays = self.rays
        normal = {
            next(i for i in self.ray_indices if vdot(u, rays[i])): u
            for u in self.facets.inequalities
        }
        return tuple((normal[i], vdot(normal[i], rays[i])) for i in self.ray_indices)


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
        use and kept; one value per name.  No stored value may refer to its
        fan: without a reference cycle, a fan and its invariants are freed
        by reference counting when the last reference goes, so peak memory
        tracks the live data, not the cyclic collector's timing."""
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
    face's description is derived once, and a face met again keeps the
    description it was first given.

    A simplicial cone's faces are all subsets of its rays, described by the
    cone's own normals (_simplicial_faces).  Any other cone's facets are
    read off its normals, each facet described by a double description of
    its rays, and their faces are found the same way."""
    if indices in memo:
        return memo[indices][0]
    if len(indices) == hrep.ambient_dim - len(hrep.equalities):
        _simplicial_faces(indices, hrep, rays, memo)
        return memo[indices][0]
    result = {indices}
    for u in hrep.inequalities:
        tight = tuple(i for i in indices if vdot(u, rays[i]) == 0)
        face_hrep = memo[tight][1] if tight in memo else v_to_h(
            VCone.make([rays[i] for i in tight], hrep.ambient_dim)
        )
        result |= _cone_faces(tight, face_hrep, rays, memo)
    memo[indices] = (result, hrep)
    return result


def _simplicial_faces(indices: tuple[int, ...], hrep: HCone, rays, memo) -> None:
    """The memo entries of _cone_faces for every subset S of the rays of a
    simplicial cone, smallest first.  Each facet normal u_i of the cone
    vanishes on every ray but one, i; S is the face cut out by u_j = 0 for
    the rays j outside S, so its description keeps the u_i of S as
    inequalities and adds the other u_j to the cone's equalities.  Then
    dim - len(equalities) = |S|, and u_i is still the one inequality that
    does not vanish on ray i, as ConeData.frame reads it."""
    normal = {}
    for u in hrep.inequalities:
        (i,) = (i for i in indices if vdot(u, rays[i]) != 0)
        normal[i] = u
    for size in range(len(indices) + 1):
        for s in itertools.combinations(indices, size):
            if s in memo:
                continue
            faces = {s}.union(*(
                memo[s[:k] + s[k + 1:]][0] for k in range(size)
            ))
            memo[s] = (faces, HCone(
                tuple(normal[i] for i in s),
                hrep.equalities + tuple(normal[j] for j in indices if j not in s),
                hrep.ambient_dim,
            ))


def _facets_match(cones: list[ConeData], rays) -> tuple[bool, tuple[Wall, ...], HCone]:
    """The facet-matching test of validate_fan's docstring, on maximal
    cones that are full-dimensional and pointed with extreme rays.

    Each facet of a maximal cone is keyed by its set of rays, with the
    (cone index, inward normal) of every cone that has it.  Returns the
    verdict, the facets as walls in key order and the support: the
    halfspaces of the facets of only one cone."""
    facets: dict[tuple[int, ...], list[tuple[int, Vec]]] = {}
    for k, c in enumerate(cones):
        for u in c.facets.inequalities:
            key = tuple(i for i in c.ray_indices if vdot(u, rays[i]) == 0)
            facets.setdefault(key, []).append((k, u))
    unmatched = {ku[0][1] for ku in facets.values() if len(ku) == 1}
    x0 = vsum([rays[i] for i in cones[0].ray_indices], len(rays[0]))
    matched = (
        all(
            len(ku) == 1 or (len(ku) == 2 and ku[1][1] == vneg(ku[0][1]))
            for ku in facets.values()
        )
        and all(vdot(u, r) >= 0 for u in unmatched for r in rays)
        and not any(c.contains_point(x0) for c in cones[1:])
    )
    walls = tuple(
        Wall(key, tuple(k for k, _ in ku)) for key, ku in sorted(facets.items())
    )
    return matched, walls, HCone(tuple(sorted(unmatched)), (), len(rays[0]))


def _check_pairwise_faces(cones: list[ConeData], max_face_sets, rays) -> None:
    """Raise the FanError of the first pair of maximal cones whose
    intersection is not a common face."""
    ray_lookup = {r: i for i, r in enumerate(rays)}
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


def validate_fan(dim: int, rays, max_cones) -> Fan:
    """Build a validated Fan from raw rays and maximal-cone index sets.

    The maximal cones meet in common faces and cover a convex set iff these
    three conditions hold (_facets_match), where C is the cone on all rays:
    (1) keyed by its set of rays, each facet of a maximal cone belongs to at
    most two maximal cones, and to two only with opposite inward normals
    (it is matched); (2) every ray lies in the halfspace of every facet of
    only one cone, so that facet lies on the boundary of C: its hyperplane
    has all of C on one side and meets C in a set of dimension dim - 1;
    (3) the ray sum x0 of cone 0 lies in no other maximal cone.  They are
    necessary: in a fan with convex support C each facet is an interior
    wall of two cones or a boundary wall inside a facet of C, and x0 is
    interior to cone 0.  They are sufficient:

    (a) Call a point generic if it lies on no face of dimension below
    dim - 1 of any cone and on at most one facet hyperplane, and count the
    cones that cover it.  A generic segment inside int C crosses facets at
    generic points only.  Such a point y is interior to C, so each cone with
    y on its boundary has y in exactly one of its facets, which by (2) is
    matched, and by (1) its partner has the same facet on the other side.
    The cones entered and left pair off, so crossing keeps the count.
    Points near x0 are covered once by (3), so every generic point of int C
    is.  Hence the cones cover C, which is convex, and their interiors are
    disjoint.
    (b) Let p lie in the relative interior of a face F of a cone k, and take
    tangent cones at p.  Those of the cones containing p cover the tangent
    cone of C at p with disjoint interiors, and each of their facets lies on
    its boundary or is the facet of a partner on the other side, so as in
    (a) a generic segment joins any two of them through a chain of
    partners.  The tangent cone of k contains the linear space span(F),
    hence so does each of its facets and each partner, and along the chain
    every tangent cone at p contains span(F).  So each cone containing p
    contains the points of F near p: the cones containing a point are the
    same all along the connected relative interior of F, and each of them
    contains F.  Now let p be a relative interior point of the intersection
    D of cones k and l.  The least faces of k and of l containing p contain
    each other by the above, so they are one face G, and D is inside G,
    which is inside both cones: D = G is a common face.

    The walls are the facets keyed as in (1), each with its one or two
    cones, and the support is cut out by the halfspaces of (2).  When the
    test fails, the intersection of every pair of maximal cones is computed
    to name the cones that overlap improperly; if every pair meets in a
    common face, only (2) can fail, and the first ray outside one of its
    halfspaces is named.
    """
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
        # dim rays spanning the space are independent: no line, all extreme
        if len(idx) != dim:
            lines, extreme = double_description((), hrep.inequalities, dim)
            if lines:
                raise FanError(
                    "NotStronglyConvex", f"maximal cone {k} contains a line"
                )
            if set(gens) != set(extreme):
                raise FanError(
                    "RayNotExtreme",
                    f"maximal cone {k} lists a generator that is not an "
                    "extreme ray",
                )
        cones.append(ConeData(idx, dim, hrep, rays_t))

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
        faces[fs] = ConeData(fs, dim - len(hrep.equalities), hrep, rays_t)

    used = set().union(*(c.ray_indices for c in cones))
    if used != set(range(len(rays_t))):
        raise FanError(
            "BadInput", f"rays {sorted(set(range(len(rays_t))) - used)} unused"
        )

    matched, walls, support = _facets_match(cones, rays_t)
    if not matched:
        _check_pairwise_faces(cones, max_face_sets, rays_t)
        for r in rays_t:
            if not support.contains_point(r):
                raise FanError(
                    "SupportNotConvex",
                    f"ray {r} lies outside a boundary-wall halfspace",
                )
        raise RuntimeError("facet matching failed on cones that meet in faces")

    return Fan(
        dim,
        rays_t,
        tuple(cones),
        faces,
        tuple(max_face_sets),
        walls,
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
