"""Polyhedral cone primitives over exact rationals.

Cones come in two representations: HCone (intersection of halfspaces
<h,x> >= 0 and hyperplanes <e,x> = 0) and VCone (nonnegative hull of
generators).  Conversion both ways is the double description method with
lexicographic insertion order and the algebraic rank adjacency test, which
is the simplest correct choice at the intended sizes (ambient dimension is
guarded at 12).  Its loop runs in integer arithmetic on primitive vectors
and keeps each ray's set of tight rows as a bitmask, so the rank test runs
only for pairs that share enough tight rows.  Its lines and rays are
primitive integer vectors, so the generators from h_to_v and the facet
normals from v_to_h are int tuples, like the rays of a fan; HCone.make and
VCone.make keep entries as given.  Membership and inclusion questions are
exact LPs.  Simplicial coverage is decided by facet matching.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from math import gcd

from . import lp
from .linalg import (
    Vec,
    is_zero_vec,
    kernel_basis,
    primitivize,
    rank,
    vdot,
    vneg,
)

log = logging.getLogger(__name__)

MAX_DIM = 12


class DimensionTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class HCone:
    """{x : <h,x> >= 0 for h in inequalities, <e,x> = 0 for e in equalities}."""

    inequalities: tuple[Vec, ...]
    equalities: tuple[Vec, ...]
    ambient_dim: int

    @staticmethod
    def make(inequalities, equalities=(), ambient_dim=None) -> "HCone":
        ineqs = [tuple(h) for h in inequalities]
        eqs = [tuple(e) for e in equalities]
        if ambient_dim is None:
            ambient_dim = len((ineqs + eqs)[0])
        kept_i = tuple(h for h in ineqs if not is_zero_vec(h))
        kept_e = tuple(e for e in eqs if not is_zero_vec(e))
        return HCone(kept_i, kept_e, ambient_dim)

    def contains_point(self, x) -> bool:
        return all(vdot(h, x) >= 0 for h in self.inequalities) and all(
            vdot(e, x) == 0 for e in self.equalities
        )


@dataclass(frozen=True)
class VCone:
    """Nonnegative rational combinations of the generators."""

    generators: tuple[Vec, ...]
    ambient_dim: int

    @staticmethod
    def make(generators, ambient_dim=None) -> "VCone":
        gens = [tuple(g) for g in generators]
        if ambient_dim is None:
            if not gens:
                raise ValueError("ambient_dim required for a generator-free cone")
            ambient_dim = len(gens[0])
        kept = []
        for g in gens:
            if is_zero_vec(g):
                log.info("dropping zero generator from cone input")
            else:
                kept.append(g)
        return VCone(tuple(kept), ambient_dim)


def _check_dim(n: int):
    if n > MAX_DIM:
        raise DimensionTooLarge(f"ambient dimension {n} exceeds the {MAX_DIM} guard")


def double_description(
    equalities, inequalities, dim: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Extreme rays and lineality of {x : E x = 0, A x >= 0}.

    Returns (lines, rays), both primitive integer vectors: the cone equals
    span(lines) + cone(rays) and the rays are extreme modulo the lineality.
    Inequalities are inserted in lexicographic order; adjacency of rays is
    decided by the rank of the constraints tight at both.

    The loop runs on Python ints: every row, line and ray is a primitive
    integer vector, each row-ray product is taken once, and each ray carries
    a bitmask of the inserted rows it is tight at (bit i for the i-th
    inserted row), updated as rays are formed (Fukuda-Prodon 1996).  A pair
    whose common tight set has too few rows to reach the adjacency rank is
    skipped before the rank is computed.  The lines always span the kernel
    of E and the inserted rows, so that kernel has rank dim - len(lines).
    """
    _check_dim(dim)
    eq_rows = [e for e in equalities if not is_zero_vec(e)]
    if eq_rows:
        lines = [primitivize(l) for l in kernel_basis(eq_rows, dim)]
    else:
        lines = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    eq_rank = dim - len(lines)
    rays: list[tuple[int, ...]] = []
    tight: list[int] = []  # tight[k]: bitmask of inserted rows tight at rays[k]
    rows = sorted({primitivize(h) for h in inequalities if not is_zero_vec(h)})

    for n_done, a in enumerate(rows):
        bit = 1 << n_done
        vals_lines = [vdot(a, l) for l in lines]
        hit = next((i for i, v in enumerate(vals_lines) if v != 0), None)
        if hit is not None:
            # a line leaves the lineality: pivot it into a ray.  The old rays
            # are projected onto a = 0 and keep their tight rows; the pivot
            # came from the lineality, so every earlier row is tight at it.
            pv = vals_lines[hit]
            pivot = lines[hit] if pv > 0 else tuple(-x for x in lines[hit])
            pv = abs(pv)
            lines = [
                _iprimitive([pv * x - v * y for x, y in zip(l, pivot)])
                for i, (l, v) in enumerate(zip(lines, vals_lines))
                if i != hit
            ]
            rays = [
                _iprimitive([pv * x - v * y for x, y in zip(r, pivot)])
                for r, v in zip(rays, (vdot(a, r) for r in rays))
            ] + [pivot]
            tight = [z | bit for z in tight] + [bit - 1]
            continue
        vals = [vdot(a, r) for r in rays]
        plus = [k for k, v in enumerate(vals) if v > 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        new_rays = [rays[k] for k in plus + zero]
        new_tight = [tight[k] for k in plus] + [tight[k] | bit for k in zero]
        if minus and plus:
            # adjacent pairs have common tight rows of rank full_rank - 2,
            # which needs at least that many rows beyond E's rank
            full_rank = dim - len(lines)
            need = full_rank - 2 - eq_rank
            for p, m in itertools.product(plus, minus):
                common = tight[p] & tight[m]
                if common.bit_count() < need:
                    continue
                common_rows = eq_rows + [
                    rows[i] for i in range(n_done) if common >> i & 1
                ]
                if rank(common_rows) == full_rank - 2:
                    rp, rm, vp, vm = rays[p], rays[m], vals[p], vals[m]
                    new_rays.append(
                        _iprimitive([vp * y - vm * x for x, y in zip(rp, rm)])
                    )
                    new_tight.append(common | bit)
        seen = set()
        rays, tight = [], []
        for r, z in zip(new_rays, new_tight):
            if r not in seen:
                seen.add(r)
                rays.append(r)
                tight.append(z)
    return lines, rays


def _iprimitive(v: list[int]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a nonzero integer vector.

    primitivize would give the same vector, but it also reads each entry's
    denominator, which costs double description 12-17 % of its self time."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(x // g for x in v)


def h_to_v(c: HCone) -> VCone:
    """Exact generator description; lines are emitted as +-generator pairs."""
    lines, rays = double_description(c.equalities, c.inequalities, c.ambient_dim)
    gens = list(rays)
    for l in lines:
        gens.append(l)
        gens.append(vneg(l))
    gens.sort()
    return VCone(tuple(gens), c.ambient_dim)


def v_to_h(c: VCone) -> HCone:
    """Exact facet description via the dual cone's double description."""
    _check_dim(c.ambient_dim)
    lines, rays = double_description((), c.generators, c.ambient_dim)
    return HCone(tuple(sorted(rays)), tuple(sorted(lines)), c.ambient_dim)


def cone_contains(c: VCone, x) -> tuple[bool, Vec | None]:
    """Exact membership x in cone(generators), with the nonnegative
    combination as certificate when the answer is yes."""
    if is_zero_vec(x):
        return True, (0,) * len(c.generators)
    if not c.generators:
        return False, None
    coeffs = lp.solve_nonneg(c.generators, x)
    if coeffs is None:
        return False, None
    return True, coeffs


def lineality_dim(c: HCone | VCone) -> int:
    """Dimension of the largest subspace contained in the cone."""
    if isinstance(c, VCone):
        c = v_to_h(c)
    return c.ambient_dim - rank(list(c.inequalities) + list(c.equalities))


def is_pointed(c: HCone | VCone) -> bool:
    return lineality_dim(c) == 0


def cone_includes(outer: HCone | VCone, inner: HCone | VCone) -> bool:
    """Exact test that inner is a subset of outer."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("ambient dimensions differ")
    gens = (inner if isinstance(inner, VCone) else h_to_v(inner)).generators
    if isinstance(outer, HCone):
        return all(outer.contains_point(g) for g in gens)
    return all(cone_contains(outer, g)[0] for g in gens)


def cones_equal(a: HCone | VCone, b: HCone | VCone) -> bool:
    return cone_includes(a, b) and cone_includes(b, a)


def dual_cone(c: HCone | VCone) -> VCone | HCone:
    """The dual {y : <y,x> >= 0 for all x in c}, in the dual representation."""
    if isinstance(c, VCone):
        return HCone.make(c.generators, (), c.ambient_dim)
    gens = list(c.inequalities)
    for e in c.equalities:
        gens.append(e)
        gens.append(vneg(e))
    return VCone.make(gens, c.ambient_dim)


def intersect_hcones(a: HCone, b: HCone) -> HCone:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return HCone(
        a.inequalities + b.inequalities, a.equalities + b.equalities, a.ambient_dim
    )


def hcone_covered_by(big: HCone, parts, rays) -> tuple[bool, list[tuple[int, ...]]]:
    """Exact test that the union of parts contains big, by facet matching.

    Each part is a tuple of indices into rays: a full-dimensional simplicial
    cone inside big that meets the other parts face to face with disjoint
    interiors, as maximal cones of one validated fan do.  A facet (a part
    minus one ray) is open when one part alone has it and no inequality of
    big vanishes on all its rays.  big is covered iff there are parts and no
    facet is open.  A generic segment from inside a part to an uncovered
    point of big would leave the union through a facet interior to big,
    which a second part shares and continues past.  Conversely, the points
    of big just beyond an open facet lie in no part, for a part reaching
    them would have that facet as a face.  This is the pseudo-manifold
    criterion for triangulations (De Loera, Rambau and Santos,
    Triangulations, 2010, ch. 4).  Returns (covered, open facets, sorted).
    """
    def on_boundary(facet) -> bool:
        return any(
            all(vdot(h, rays[i]) == 0 for i in facet) for h in big.inequalities
        )

    count = Counter(
        facet
        for part in parts
        for facet in itertools.combinations(sorted(part), len(part) - 1)
    )
    open_facets = sorted(f for f, n in count.items() if n == 1 and not on_boundary(f))
    return bool(parts) and not open_facets, open_facets


def pulling_triangulation(gens) -> list[tuple[int, ...]]:
    """Triangulate a pointed cone on its own generators.

    Recursively pulls at the first listed generator: the cone is the join of
    that generator with the facets not containing it.  Returns index tuples
    into gens, each a linearly independent set spanning a full-dimensional
    subcone; together they cover the cone with disjoint interiors.
    """
    gens = list(gens)

    def recurse(indices: tuple[int, ...]) -> list[tuple[int, ...]]:
        sub = [gens[i] for i in indices]
        r = rank(sub)
        if len(indices) == r:
            return [tuple(sorted(indices))]
        hrep = v_to_h(VCone.make(sub))
        apex = indices[0]
        out = []
        for u in hrep.inequalities:
            tight = tuple(i for i in indices if vdot(u, gens[i]) == 0)
            if apex in tight or not tight:
                continue
            for simplex in recurse(tight):
                out.append(tuple(sorted((apex,) + simplex)))
        return out

    return recurse(tuple(range(len(gens))))
