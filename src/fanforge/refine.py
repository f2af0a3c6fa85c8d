"""Generic-weight simplicial refinements.

Each maximal cone is sliced by the hyperplane <m_sigma, x> = 1, its ray
points are scaled by weights in (0,1] (weight exactly 1 on a designated ray
set, so those rays stay on the slice and span a cone of the result), and
the facets of the convex hull of the scaled points and the origin that miss
the origin project to a subdivision of the cone.  Generic weights make
every such facet a simplex; degenerate draws are detected exactly and
retried.  The quasi-projective variant takes its slice functionals from a
strictly convex function, which makes the per-cone subdivisions agree on
shared faces by construction and yields a function strictly convex relative
to the coarse fan.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass
from fractions import Fraction

from .cones import pulling_triangulation
from .fan import Fan, ConeData, FanError, validate_fan
from .linalg import Vec, det, kernel_basis, rank, vadd, vdot, vneg, vscale, vsum
from . import lp
from .plfun import (
    PLFunction,
    is_quasi_projective,
    is_strictly_convex,
    pl_from_ray_values,
    wall_functional,
)
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


def slice_points(fan: Fan, cone: ConeData, m: Vec, weights) -> dict[int, Vec]:
    """w_i * ray_i / <m, ray_i>: the weighted slice points of the cone."""
    pts = {}
    for i in cone.ray_indices:
        d = vdot(m, fan.ray(i))
        if d <= 0:
            raise ValueError(f"the slice functional is not positive on ray {i}")
        pts[i] = vscale(Fraction(weights[i], d), fan.ray(i))
    return pts


def weighted_subdivision(fan: Fan, cone: ConeData, m: Vec, weights) -> list[tuple[int, ...]]:
    """Subdivide one cone: ray index tuples of the cones over the non-origin
    facets of conv(0, weighted slice points).

    Facets are found by exhausting hyperplanes through affinely independent
    n-subsets of the points; a supporting hyperplane with more than n points
    on it means the weights were not generic (Degenerate).
    """
    n = fan.dim
    idx = cone.ray_indices
    if len(idx) == n:
        return [tuple(idx)]
    pts = slice_points(fan, cone, m, weights)
    facets = set()
    for sub in itertools.combinations(idx, n):
        rows = [list(pts[t]) + [-1] for t in sub]
        ker = kernel_basis(rows, n + 1)
        if len(ker) != 1:
            continue  # affinely dependent subset
        u, c = ker[0][:n], ker[0][n]
        if c == 0:
            continue  # hyperplane through the origin
        if c < 0:
            u, c = vneg(u), -c
        vals = {j: vdot(u, pts[j]) for j in idx}
        if any(v > c for v in vals.values()):
            continue  # not supporting
        tight = tuple(sorted(j for j in idx if vals[j] == c))
        if len(tight) > n:
            raise Degenerate(
                f"facet with {len(tight)} vertices in cone {idx}"
            )
        facets.add(tight)
    out = sorted(facets)
    if any(rank([fan.ray(i) for i in f]) != n for f in out):
        raise RuntimeError(f"a subdivision cone of {idx} is not full-dimensional")
    return out


def _check_support_independent(fan: Fan, support) -> tuple[int, ...]:
    s = tuple(sorted(set(support)))
    if any(i < 0 or i >= fan.n_rays for i in s):
        raise PNotIndependent(f"ray indices {s} out of range")
    for cone in fan.max_cones:
        inter = [fan.ray(i) for i in s if i in cone.ray_indices]
        if rank(inter) != len(inter):
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
    retry on degenerate draws or gluing failures."""
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
            fine = validate_fan(fan.dim, [list(r) for r in fan.rays], fine_cones)
        except (Degenerate, FanError) as e:
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
    if any(shifted.ray_value(i) <= 0 for i in range(fan.n_rays)):
        raise RuntimeError("the shifted function must be positive on every ray")
    if not is_strictly_convex(shifted):
        raise RuntimeError("a linear shift must keep the function strictly convex")
    refinement = _build(fan, s, list(shifted.cone_functionals), seed)
    fine = refinement.fine
    vals = [
        Fraction(shifted.ray_value(i), refinement.weights.w[i])
        for i in range(fan.n_rays)
    ]
    phi_fine = pl_from_ray_values(fine, vals)
    if not strictly_convex_relative(phi_fine, refinement):
        raise RuntimeError("the fine function must be strictly convex relative to the fan")
    ok, _ = is_quasi_projective(fine)
    if not ok:
        raise RuntimeError("the refined fan must stay quasi-projective")
    return refinement, phi_fine


def supported_refinement(fan: Fan, collection, seed: int = 0) -> Refinement:
    """Refinement on which the given primitive collection stays primitive."""
    p = tuple(sorted(collection))
    if not _is_primitive(fan, p):
        raise ValueError(f"{p} is not a primitive collection of the fan")
    r = simplicial_refinement(fan, p, seed)
    if not _is_primitive(r.fine, p):
        raise RuntimeError(f"the refinement must keep {p} primitive")
    return r


def strictly_convex_relative(phi_fine: PLFunction, r: Refinement) -> bool:
    """Strict across every fine interior wall between two fine cones of the
    same coarse cone; walls inside coarse walls carry no condition."""
    fine = r.fine
    for w in fine.interior_walls:
        a, b = w.cone_indices
        if r.cone_map[a] == r.cone_map[b]:
            if wall_functional(fine, w, phi_fine) <= 0:
                return False
    return True


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
