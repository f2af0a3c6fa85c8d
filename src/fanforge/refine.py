"""Generic-weight simplicial refinements.

Each maximal cone is sliced by the hyperplane <m_sigma, x> = 1, its ray
points are scaled by weights in (0,1] (weight exactly 1 on a designated ray
set, so those rays stay on the slice and span a cone of the result), and
the facets of the convex hull of the scaled points and the origin that miss
the origin project to a subdivision of the cone.  Those facets are read off
one double description of the cone over the hull, lifted to height 1 (De
Loera, Rambau and Santos, Triangulations, 2010), with each lifted point
taken as a primitive integer vector.  Generic weights make every such facet
a simplex; degenerate draws are detected exactly and retried.  A simplicial
cone stays whole, so a simplicial fan is its own refinement: it is returned
as is, with its weights drawn as for any other fan, and not validated
again.  The quasi-projective variant takes its slice functionals from a
strictly convex function, which makes the per-cone subdivisions agree on
shared faces by construction and yields a function strictly convex relative
to the coarse fan.  The pulled-back coarse function plus a small enough
multiple of that one is strictly convex on the fine fan (the lifting
argument of the same book), so the refined fan's quasi-projectivity is
certified by construction and needs no LP.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass
from fractions import Fraction

from .cones import VCone, pulling_triangulation, v_to_h
from .fan import Fan, ConeData, FanError, validate_fan
from .linalg import Vec, det, rank, vadd, vdot, vscale, vsum
from . import lp
from .plfun import PLFunction, _pairings, is_strictly_convex
from .plfun import pl_from_cone_functionals, pl_from_ray_values
from .primcoll import _is_primitive

log = logging.getLogger(__name__)

WEIGHT_DENOMINATOR = 2**31 - 1
MAX_RETRIES = 32


class Degenerate(Exception):
    """Non-generic weights: some lifted facet is not a simplex."""


class PNotIndependent(Exception):
    pass


class GenericityExhausted(Exception):
    pass


class NotStrictlyConvex(Exception):
    pass


@dataclass(frozen=True)
class WeightAssignment:
    """Per-ray weights in (0,1]; exactly 1 on the designated ray set."""

    w: tuple[int | Fraction, ...]
    seed: int


@dataclass(frozen=True)
class Refinement:
    fine: Fan
    coarse: Fan
    cone_map: tuple[int, ...]
    weights: WeightAssignment
    dual_points: tuple[Vec, ...]
    retries: int


def interior_dual_point(fan: Fan, cone: ConeData) -> Vec:
    """A functional positive on every generator: the sum of the cone's
    inward facet normals."""
    m = vsum(cone.facets.inequalities, fan.dim)
    if any(vdot(m, fan.ray(i)) <= 0 for i in cone.ray_indices):
        raise RuntimeError(f"facet normal sum not positive on {cone.ray_indices}")
    return m


def weighted_subdivision(fan: Fan, cone: ConeData, m: Vec, weights) -> list[tuple[int, ...]]:
    """Subdivide one cone: ray index tuples of the cones over the non-origin
    facets of conv(0, weighted slice points p_i = c_i ray_i, c_i = w_i /
    <m, ray_i>).

    The facets are read off one double description of the cone over the
    lifted points (p_i, 1) and (0, 1): an inequality whose last entry is
    positive misses the origin, and the points tight at it span a cone of
    the subdivision.  A facet with more than n points on it means the
    weights were not generic (Degenerate).  (p_i, 1) is lifted as the
    primitive integer vector (a ray_i, b) on its ray, for c_i = a / b in
    lowest terms: the rows of a double description are primitivized anyway,
    and scaling keeps the tight sets, which integer dot products give.

    Each cone returned is full-dimensional, so no rank is checked.  At a
    facet u = (u', u_n) with u_n > 0, the at most n tight points span an
    n-dimensional face, so they are independent.  A relation
    sum_i l_i r_i = 0 among their rays would give
    sum_i (l_i / a_i) (a_i r_i, b_i) = 0, as tightness makes
    u_n b_i = -a_i <u', r_i> and so u_n sum_i l_i b_i / a_i =
    -<u', sum_i l_i r_i> = 0; hence every l_i is 0.  validate_fan inverts
    each cone's ray matrix all the same, and _build raises if one is
    singular.
    """
    n = fan.dim
    idx = cone.ray_indices
    if len(idx) == n:
        return [tuple(idx)]
    lifted = []
    for i in idx:
        d = vdot(m, fan.ray(i))
        if d <= 0:
            raise ValueError(f"the slice functional is not positive on ray {i}")
        c = Fraction(weights[i], d)
        lifted.append(tuple(c.numerator * x for x in fan.ray(i)) + (c.denominator,))
    lifted.append((0,) * n + (1,))
    out = []
    for u in v_to_h(VCone.make(lifted), lifted=True).inequalities:
        if u[n] <= 0:
            continue  # a facet through the origin
        tight = tuple(i for i, p in zip(idx, lifted) if vdot(u, p) == 0)
        if len(tight) > n:
            raise Degenerate(f"facet with {len(tight)} vertices in cone {idx}")
        out.append(tight)
    out.sort()
    return out


def _check_support_independent(fan: Fan, support) -> tuple[int, ...]:
    s = tuple(sorted(set(support)))
    if any(i < 0 or i >= fan.n_rays for i in s):
        raise PNotIndependent(f"ray indices {s} out of range")
    if not s:
        return s
    for cone in fan.max_cones:
        # the rays of a simplicial cone are independent (fan._inverse_cone),
        # and so is any subset of them
        if len(cone.ray_indices) == fan.dim:
            continue
        inter = [fan.ray(i) for i in s if i in cone.ray_indices]
        if len(inter) > 1 and rank(inter) != len(inter):
            raise PNotIndependent(
                f"support meets cone {cone.ray_indices} dependently"
            )
    return s


def _draw_weights(fan: Fan, support, rng, seed) -> WeightAssignment:
    w = []
    for i in range(fan.n_rays):
        if i in support:
            w.append(1)
        else:
            w.append(Fraction(rng.randrange(1, WEIGHT_DENOMINATOR), WEIGHT_DENOMINATOR))
    return WeightAssignment(tuple(w), seed)


def _build(fan: Fan, support, dual_points, seed) -> Refinement:
    """Draw weights, subdivide every maximal cone, glue and validate;
    retry on degenerate draws or gluing failures.  weighted_subdivision
    yields no cone that is not full-dimensional, so one is a fault and
    raises RuntimeError instead of a retry."""
    rng = random.Random(seed)
    for attempt in range(MAX_RETRIES):
        weights = _draw_weights(fan, support, rng, seed)
        fine_cones: list[list[int]] = []
        cone_map: list[int] = []
        try:
            for k, cone in enumerate(fan.max_cones):
                for sub in weighted_subdivision(fan, cone, dual_points[k], weights.w):
                    fine_cones.append(list(sub))
                    cone_map.append(k)
            # a simplicial fan's cones stay whole: it is its own refinement
            fine = fan if fan.is_simplicial else validate_fan(fan.dim, fan.rays, fine_cones)
        except (Degenerate, FanError) as e:
            if isinstance(e, FanError) and e.code == "MaxConeNotFullDim":
                raise RuntimeError(f"a subdivision cone is not full-dimensional: {e}") from e
            log.info("refinement retry %d: %s", attempt + 1, e)
            continue
        if attempt:
            log.info("refinement needed %d retries", attempt)
        r = Refinement(fine, fan, tuple(cone_map), weights, tuple(dual_points), attempt)
        for cone in fan.max_cones:
            pa = tuple(sorted(set(support) & set(cone.ray_indices)))
            if pa not in fine.faces:
                raise RuntimeError("designated rays must span a cone of the result")
        return r
    raise GenericityExhausted(f"no generic draw in {MAX_RETRIES} attempts")


def simplicial_refinement(fan: Fan, support=(), seed: int = 0) -> Refinement:
    """A simplicial refinement on the same rays in which the designated ray
    set spans a cone wherever it meets a cone of the input."""
    s = _check_support_independent(fan, support)
    dual_points = [interior_dual_point(fan, c) for c in fan.max_cones]
    return _build(fan, s, dual_points, seed)


def qp_refinement(
    fan: Fan, support, phi: PLFunction, seed: int = 0
) -> tuple[Refinement, PLFunction]:
    """Quasi-projectivity-preserving variant.

    Shifts the strictly convex phi to take positive ray values, uses its
    cone functionals as the slice functionals (shared hyperplanes make the
    per-cone subdivisions agree on common faces), and returns the function
    with ray values w^{-1} * phi extended linearly on the fine cones, which
    is strictly convex relative to the input fan.
    """
    if phi.fan is not fan and phi.fan.to_json_obj() != fan.to_json_obj():
        raise ValueError("phi must live on the fan being refined")
    if not is_strictly_convex(phi):
        raise NotStrictlyConvex("the quasi-projective variant needs a witness")
    s = _check_support_independent(fan, support)
    n = fan.dim
    rows = [tuple(fan.ray(i)) + (phi.ray_value(i),) for i in range(fan.n_rays)]
    rows.append((0,) * n + (1,))
    witness, _ = lp.strict_feasible(rows, [], [], n + 1)
    if witness is None:
        raise RuntimeError("strict convexity makes the lifted cone pointed")
    shift_m, mu = witness[:n], witness[n]
    shifted = PLFunction(
        fan,
        tuple(vadd(shift_m, vscale(mu, mk)) for mk in phi.cone_functionals),
    )
    values, d = ray_values = shifted.integer_ray_values()
    if min(values) <= 0:
        raise RuntimeError("the shifted function must be positive on every ray")
    if not all(p > 0 for p in _pairings(shifted, ray_values)[0]):
        raise RuntimeError("a linear shift must keep the function strictly convex")
    refinement = _build(fan, s, list(shifted.cone_functionals), seed)
    fine = refinement.fine
    vals = [Fraction(v, d * w) for v, w in zip(values, refinement.weights.w)]
    phi_fine = pl_from_ray_values(fine, vals)
    pairings = _pairings(phi_fine)
    if not strictly_convex_relative(phi_fine, refinement, pairings):
        raise RuntimeError("the fine function must be strictly convex relative to the fan")
    if not is_strictly_convex(_fine_certificate(refinement, shifted, phi_fine, pairings)):
        raise RuntimeError("the refined fan must stay quasi-projective")
    return refinement, phi_fine


def _fine_certificate(
    r: Refinement, shifted: PLFunction, phi_fine: PLFunction, pairings
) -> PLFunction:
    """A strictly convex function on the fine fan, pull + eps * phi_fine,
    given phi_fine's _pairings.

    pull is shifted pulled back: fine cone j takes the functional of its
    coarse cone cone_map[j].  Let a_w and b_w be the bends of pull and
    phi_fine across a fine interior wall w.  Two fine cones in one coarse
    cone carry the same functional of pull, so a wall inside a coarse cone
    has a_w = 0, and b_w > 0 because phi_fine is strictly convex relative
    to the coarse fan.  A wall between two coarse cones lies in a coarse
    interior wall and spans its hyperplane, and the fine off-wall vector
    lies strictly on the first coarse cone's side, so a_w > 0 because
    shifted is strictly convex.  With eps the least a_w / (2 |b_w|) over the
    walls where b_w < 0 (or 1 if there is none), a_w + eps * b_w is at least
    a_w / 2 > 0 there and positive elsewhere: the bend is linear in the
    function, so the sum is strictly convex on every fine wall.  a_w / b_w
    is the ratio of the pairings with the wall relation (plfun._pairings).
    pl_from_cone_functionals re-checks wall compatibility exactly."""
    fine = r.fine
    pull = PLFunction(
        fine, tuple(shifted.cone_functionals[k] for k in r.cone_map)
    )
    (a_all, da), (b_all, db) = _pairings(pull), pairings
    eps = min(
        (Fraction(a * db, -2 * b * da) for a, b in zip(a_all, b_all) if b < 0),
        default=Fraction(1),
    )
    return pl_from_cone_functionals(
        fine,
        [
            vadd(m, vscale(eps, f))
            for m, f in zip(pull.cone_functionals, phi_fine.cone_functionals)
        ],
    )


def supported_refinement(fan: Fan, collection, seed: int = 0) -> Refinement:
    """Refinement on which the given primitive collection stays primitive."""
    p = tuple(sorted(collection))
    if not _is_primitive(fan, p):
        raise ValueError(f"{p} is not a primitive collection of the fan")
    r = simplicial_refinement(fan, p, seed)
    if not _is_primitive(r.fine, p):
        raise RuntimeError(f"the refinement must keep {p} primitive")
    return r


def strictly_convex_relative(phi_fine: PLFunction, r: Refinement, pairings=None) -> bool:
    """Strict across every fine interior wall between two fine cones of the
    same coarse cone, by the sign of phi_fine's pairing with the wall
    relation; walls inside coarse walls carry no condition.  phi_fine's
    _pairings may be passed in."""
    pairings, _ = pairings or _pairings(phi_fine)
    return all(
        p > 0
        for w, p in zip(r.fine.interior_walls, pairings)
        if r.cone_map[w.cone_indices[0]] == r.cone_map[w.cone_indices[1]]
    )


def induced_wall_subdivisions_agree(r: Refinement) -> bool:
    """Property check: both sides of every coarse interior wall induce the
    same set of fine codimension-one faces inside the wall."""
    n = r.fine.dim

    def side_faces(wall_rays, side):
        wall_set = set(wall_rays)
        out = set()
        for k, c in enumerate(r.fine.max_cones):
            if r.cone_map[k] != side:
                continue
            for sub in itertools.combinations(c.ray_indices, n - 1):
                if set(sub) <= wall_set:
                    out.add(sub)
        return out

    for w in r.coarse.interior_walls:
        a, b = w.cone_indices
        if side_faces(w.ray_indices, a) != side_faces(w.ray_indices, b):
            return False
    return True


def covers_coarse_exactly(r: Refinement) -> bool:
    """Exact volume bookkeeping: within each coarse cone, the slice volumes
    of the fine cones add up to the slice volume of an independently
    computed (pulling) triangulation of the coarse cone."""
    for k, cone in enumerate(r.coarse.max_cones):
        m = r.dual_points[k]

        def slice_volume(ray_idx_tuple):
            pts = [
                vscale(Fraction(1, vdot(m, r.coarse.ray(i))), r.coarse.ray(i))
                for i in ray_idx_tuple
            ]
            return abs(det(pts))

        fine_total = sum(
            slice_volume(r.fine.max_cones[j].ray_indices)
            for j in range(len(r.fine.max_cones))
            if r.cone_map[j] == k
        )
        gens = list(cone.ray_indices)
        oracle = sum(
            slice_volume(tuple(gens[t] for t in simplex))
            for simplex in pulling_triangulation([r.coarse.ray(i) for i in gens])
        )
        if fine_total != oracle:
            return False
    return True
