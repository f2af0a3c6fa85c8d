"""Fan data model: rays, cones, face lattice, walls, support convexity.

A fan is given by primitive integer ray vectors plus maximal cones as ray
index sets.  validate_fan checks the fan axioms exactly (strong convexity,
full-dimensional maximal cones, cones meeting in common faces, convex
support) and derives the face lattice, the walls with their incident
maximal cones, the support and the simplicial/complete flags.  A maximal
cone on dim rays is read off the inverse of its ray matrix, any other off
v_to_h, and each keeps which of its rays lie on each of its facets; every
face is read off that incidence.
Matching the facets of the maximal cones in one pass decides that the cones
meet in common faces and cover a convex set, with no cone intersection, and
lists the walls and the support.  Fans are immutable after validation and
all queries are pure, so what other modules derive (cone relations,
relation coordinates, PL basis, quasi-projectivity, Mori cone, extremal
walls) is computed once and kept on the fan by name, as plain values that
do not refer back to it.
"""

from __future__ import annotations

import itertools
import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from types import MappingProxyType

from .cones import MAX_DIM, HCone, VCone, h_to_v, intersect_hcones, v_to_h
from .linalg import Vec, _eliminate, is_zero_vec, primitivize, rank, vdot, vneg, vsum

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
    exact facet description (inequalities plus span equalities) and frame.
    A maximal cone has v_to_h's facets, sorted (read off the inverse of its
    ray matrix if it has dim rays), and facet_rays: for each inequality, in
    order, the sorted indices of its rays that lie on that facet.  A maximal
    cone is its own face; any other face has its maximal cone's normals,
    those vanishing on it as equalities, and empty facet_rays."""

    ray_indices: tuple[int, ...]
    dim: int
    facets: HCone
    _frame: tuple[tuple[Vec, int], ...] = field(repr=False, compare=False)
    facet_rays: tuple[tuple[int, ...], ...] = field(default=(), repr=False, compare=False)

    def contains_point(self, x) -> bool:
        return self.facets.contains_point(x)

    @property
    def frame(self) -> tuple[tuple[Vec, int], ...]:
        """A simplicial cone's integer frame, given when the cone is built:
        for each ray v_i, in ray_indices order, the one facet inequality u_i
        that does not vanish on v_i, and s_i = <u_i, v_i> > 0; empty
        otherwise.  A point x of the span is sum_i (<u_i, x> / s_i) v_i."""
        return self._frame


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

    def __init__(self, dim, rays, max_cones, faces, walls, support):
        self.dim: int = dim
        self.rays: tuple[tuple[int, ...], ...] = rays
        self.max_cones: tuple[ConeData, ...] = max_cones
        self.faces: Mapping[tuple[int, ...], ConeData] = MappingProxyType(faces)
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
        # for each maximal cone, its rays as a bitmask: bit i for ray i
        self.cone_masks: tuple[int, ...] = tuple(
            sum(1 << i for i in c.ray_indices) for c in max_cones)
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

    def is_coface(self, mask: int) -> bool:
        """Do the rays of the bitmask all lie in one maximal cone?"""
        return any(mask & c == mask for c in self.cone_masks)

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


def _inverse_cone(k: int, idx: tuple[int, ...], rays) -> ConeData:
    """Maximal cone k on dim rays, read off one elimination of [W | I] with
    W's columns the rays.  Row i of W's inverse is 1 on ray i and 0 on the
    others, so its primitive multiple is the inward normal u_i of the facet
    opposite ray i (Cox, Little and Schenck, ch. 1), whose facet holds every
    ray but i.  A cone's facet normals are unique, so sorted they are
    v_to_h's."""
    dim = len(idx)
    T, pivots, d, _ = _eliminate(
        [[rays[i][r] for i in idx] + [int(e == r) for e in range(dim)] for r in range(dim)]
    )
    if pivots[-1] >= dim:
        raise FanError("MaxConeNotFullDim", f"maximal cone {k} has dimension < {dim}")
    frame = []
    for row in T:
        # row i is d [e_i | row i of the inverse], so <row, v_i> = d
        g = gcd(*row[dim:]) if d > 0 else -gcd(*row[dim:])
        frame.append((tuple(x // g for x in row[dim:]), d // g))
    normals, facet_rays = zip(*sorted(
        (u, tuple(j for j in idx if j != i)) for i, (u, _) in zip(idx, frame)
    ))
    return ConeData(idx, dim, HCone(normals, (), dim), tuple(frame), facet_rays)


def _cone_faces(cone: ConeData, rays, memo) -> None:
    """Enter each face of a maximal cone that memo lacks into memo (ray
    index set -> ConeData); the cone is its own entry.  A simplicial cone's
    faces are the subsets of its rays (_simplicial_faces).  Any other cone's
    faces are the intersections of its facet_rays, as a face is the
    intersection of the facets containing it (Ziegler, Lectures on
    Polytopes, ch. 2).  A face F has the normals vanishing on it as
    equalities.  F is simplicial iff each ray v of F has a normal u that
    vanishes on F's other rays but not on v: those u are its inequalities
    and frame (u, <u, v>).  Else F keeps the other normals and has dimension
    dim - rank(equalities)."""
    memo[cone.ray_indices] = cone
    if len(cone.ray_indices) == cone.dim:
        _simplicial_faces(cone, memo)
        return
    normals, dim = cone.facets.inequalities, cone.dim
    every = set(range(len(normals)))
    zero = {i: {k for k, f in enumerate(cone.facet_rays) if i in f} for i in cone.ray_indices}
    faces = [cone.ray_indices]
    for face in faces:
        for t in (tuple(i for i in face if k in zero[i]) for k in every):
            if t not in memo:
                on = every.intersection(*(zero[i] for i in t))
                eqs = tuple(normals[k] for k in sorted(on))
                # for each ray, the normals that vanish on the others but not on it
                cuts = [every.intersection(*(zero[j] for j in t if j != i)) - zero[i] for i in t]
                if all(cuts):
                    us = tuple(normals[min(c)] for c in cuts)
                    frame = tuple((u, vdot(u, rays[i])) for u, i in zip(us, t))
                    memo[t] = ConeData(t, len(t), HCone(us, eqs, dim), frame)
                else:
                    ineqs = tuple(normals[k] for k in sorted(every - on))
                    memo[t] = ConeData(t, dim - rank(eqs), HCone(ineqs, eqs, dim), ())
                faces.append(t)


def _simplicial_faces(cone: ConeData, memo) -> None:
    """The memo entries of _cone_faces for every proper subset S of the
    rays of a simplicial cone.  The cone's frame pairs each ray i with the
    facet normal u_i that vanishes on every ray but i; S is the face cut
    out by u_j = 0 for the rays j outside S, so its description keeps the
    u_i of S, in ray order, as inequalities and adds the other u_j to the
    cone's equalities, and its frame is the cone's frame on S.  Then
    dim - len(equalities) = |S|."""
    indices, h = cone.ray_indices, cone.facets
    frame = dict(zip(indices, cone._frame))
    for size in range(len(indices)):
        for s in itertools.combinations(indices, size):
            if s not in memo:
                memo[s] = ConeData(s, size, HCone(
                    tuple(frame[i][0] for i in s),
                    h.equalities + tuple(frame[j][0] for j in indices if j not in s),
                    h.ambient_dim,
                ), tuple(frame[i] for i in s))


def _facets_match(cones: list[ConeData], rays) -> tuple[bool, tuple[Wall, ...], HCone]:
    """The facet-matching test of validate_fan's docstring, on maximal
    cones that are full-dimensional and pointed with extreme rays.

    Each facet of a maximal cone is keyed by its set of rays, with the
    (cone index, inward normal) of every cone that has it.  Returns the
    verdict, the facets as walls in key order and the support: the
    halfspaces of the facets of only one cone."""
    facets: dict[tuple[int, ...], list[tuple[int, Vec]]] = {}
    for k, c in enumerate(cones):
        for u, key in zip(c.facets.inequalities, c.facet_rays):
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


def _is_face(cone: ConeData, t: tuple[int, ...]) -> bool:
    """Is the sorted ray index set t a face of the maximal cone?  t must be
    the rays of the cone that lie on every facet of the cone containing t,
    read off its facet_rays."""
    on = [f for f in cone.facet_rays if set(t).issubset(f)]
    return t == tuple(i for i in cone.ray_indices if all(i in f for f in on))


def _check_pairwise_faces(cones: list[ConeData], rays) -> None:
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
            if not (_is_face(cones[a], t) and _is_face(cones[b], t)):
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

    # dim rays span iff independent, and then all are extreme.  Any other
    # cone is full-dimensional iff its facets have no equalities, pointed iff
    # its facet normals have rank dim, and then listed ray i is extreme iff
    # no other listed ray lies on every facet that i lies on: those facets
    # cut out the least face containing i, generated by the listed rays on
    # it, and a second listed ray on it is not proportional to i (duplicates
    # and lines are rejected), so it exists iff the face has dimension >= 2
    cones: list[ConeData] = []
    for k, idx in enumerate(cone_sets):
        if len(idx) == dim:
            cones.append(_inverse_cone(k, idx, rays_t))
            continue
        hrep = v_to_h(VCone.make([rays_t[i] for i in idx]))
        if hrep.equalities:
            raise FanError("MaxConeNotFullDim", f"maximal cone {k} has dimension < {dim}")
        normals = hrep.inequalities
        if rank(normals) < dim:
            raise FanError("NotStronglyConvex", f"maximal cone {k} contains a line")
        facet_rays = tuple(tuple(i for i in idx if vdot(u, rays_t[i]) == 0) for u in normals)
        if any(len(set(idx).intersection(*(f for f in facet_rays if i in f))) > 1 for i in idx):
            raise FanError(
                "RayNotExtreme",
                f"maximal cone {k} lists a generator that is not an extreme ray",
            )
        cones.append(ConeData(idx, dim, hrep, (), facet_rays))

    # face lattice, shared across cones and closed under taking faces
    faces: dict[tuple[int, ...], ConeData] = {}
    for c in cones:
        _cone_faces(c, rays_t, faces)

    used = set().union(*(c.ray_indices for c in cones))
    if used != set(range(len(rays_t))):
        raise FanError(
            "BadInput", f"rays {sorted(set(range(len(rays_t))) - used)} unused"
        )

    matched, walls, support = _facets_match(cones, rays_t)
    if not matched:
        _check_pairwise_faces(cones, rays_t)
        for r in rays_t:
            if not support.contains_point(r):
                raise FanError(
                    "SupportNotConvex",
                    f"ray {r} lies outside a boundary-wall halfspace",
                )
        raise RuntimeError("facet matching failed on cones that meet in faces")

    return Fan(dim, rays_t, tuple(cones), faces, walls, support)


def contained_in_single_cone(fan: Fan, ray_set) -> bool:
    """Is the ray index set contained in sigma(1) for some cone sigma?"""
    return fan.is_coface(sum(1 << i for i in set(ray_set)))


def generates_cone(fan: Fan, ray_set) -> bool:
    """Does the ray set span a cone of the fan (Batyrev-style test)?"""
    return tuple(sorted(set(ray_set))) in fan.faces


def minimal_cone_containing(fan: Fan, x) -> ConeData:
    """The unique smallest face of the fan containing x: the face of a
    maximal cone containing x cut out by the facets of that cone that x lies
    on."""
    _, cone = fan.max_cone_containing(x)
    on = [f for u, f in zip(cone.facets.inequalities, cone.facet_rays) if vdot(u, x) == 0]
    return fan.faces[tuple(i for i in cone.ray_indices if all(i in f for f in on))]


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
