"""Piecewise-linear functions on a fan, and the relations of its walls.

A PLFunction stores one linear functional per maximal cone, compatible
across interior walls (the difference of the two functionals vanishes on the
wall).  Ray values are the divisor coefficients; with this sign convention a
function is convex exactly when its bend across every interior wall is
nonnegative, and strictly convex when all are positive.  Each bend is a
fixed positive multiple of the wall relation paired with the ray values, so
convexity is read off integer pairings.  The wall relations are derived
once per fan, in integers, into one table that every wall quantity reads;
wall_relation is a Fraction view of it.  The function space is solved in
ray values, subject to each non-simplicial cone's relations among its rays,
found by one elimination per fan.  Paired with the functions that vanish
on the first maximal cone, the relations get coordinates in N_1, the one
N_1 that every Mori-cone decision reads; over them an exact LP decides
quasi-projectivity, and the same LP over a basis of the function space
yields a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import lp
from .fan import Fan, Wall
from .linalg import ZERO, Vec, _eliminate, _integer_row, kernel_basis
from .linalg import format_rational, parse_rational, primitivize, vadd, vdot, vec, vscale, vsum

RelationVector = dict[int, Fraction]


class WallIncompatible(Exception):
    def __init__(self, wall: Wall):
        super().__init__(f"functionals disagree on wall {wall.ray_indices}")
        self.wall = wall


class NonSimplicialFan(Exception):
    pass


class NotARefinement(Exception):
    pass


class DegenerateWall(Exception):
    pass


@dataclass(frozen=True)
class PLFunction:
    fan: Fan
    cone_functionals: tuple[Vec, ...]

    def value(self, x) -> int | Fraction:
        i, _ = self.fan.max_cone_containing(x)
        return vdot(self.cone_functionals[i], x)

    def ray_value(self, i: int) -> int | Fraction:
        return vdot(self.cone_functionals[self.fan.ray_cone[i]], self.fan.ray(i))

    def ray_values(self) -> Vec:
        return tuple(self.ray_value(i) for i in range(self.fan.n_rays))

    def integer_ray_values(self) -> tuple[tuple[int, ...], int]:
        """The ray values times the lcm d of their functionals' denominators, and d."""
        fan = self.fan
        cones = {k: _integer_row(self.cone_functionals[k]) for k in set(fan.ray_cone)}
        d = lcm(*(s for _, s in cones.values()))
        return tuple(
            vdot(cones[k][0], v) * (d // cones[k][1]) for k, v in zip(fan.ray_cone, fan.rays)
        ), d

    def to_json_obj(self) -> dict:
        if self.fan.is_simplicial:
            return {
                "ray_values": {
                    str(i): format_rational(v) for i, v in enumerate(self.ray_values())
                }
            }
        return {
            "cone_functionals": [
                [format_rational(x) for x in m] for m in self.cone_functionals
            ]
        }


def pl_from_cone_functionals(fan: Fan, functionals) -> PLFunction:
    """Canonical constructor: validates wall compatibility exactly, each
    functional made integer once (m_k = A_k / s_k) and each ray v of the
    wall of cones a and b checked by <A_a, v> s_b = <A_b, v> s_a."""
    ms = [vec(m) for m in functionals]
    if len(ms) != len(fan.max_cones):
        raise ValueError("need one functional per maximal cone")
    ints = [_integer_row(m) for m in ms]
    for w in fan.interior_walls:
        (ia, sa), (ib, sb) = (ints[k] for k in w.cone_indices)
        if any(vdot(ia, fan.ray(i)) * sb != vdot(ib, fan.ray(i)) * sa for i in w.ray_indices):
            raise WallIncompatible(w)
    return PLFunction(fan, tuple(ms))


def pl_from_ray_values(fan: Fan, values) -> PLFunction:
    """Simplicial fans only: each maximal cone's functional is the sum of
    its dual basis u_i / s_i (ConeData.frame) weighted by the prescribed ray
    values; wall compatibility then holds automatically.  Each sum runs in
    integers over one denominator, with one Fraction made per entry."""
    if not fan.is_simplicial:
        raise NonSimplicialFan("ray values underdetermine a non-simplicial fan")
    if isinstance(values, dict):
        values = [values[i] for i in range(fan.n_rays)]
    vals, d = _integer_row([Fraction(v) for v in values])
    ms = []
    for c in fan.max_cones:
        s = lcm(*(s_i for _, s_i in c.frame))
        terms = [vscale(vals[i] * (s // s_i), u) for i, (u, s_i) in zip(c.ray_indices, c.frame)]
        ms.append(tuple(Fraction(x, d * s) for x in vsum(terms, fan.dim)))
    return PLFunction(fan, tuple(ms))


def pl_from_json_obj(fan: Fan, obj) -> PLFunction:
    if "ray_values" in obj:
        vals = {int(k): parse_rational(v) for k, v in obj["ray_values"].items()}
        return pl_from_ray_values(fan, vals)
    if "cone_functionals" in obj:
        ms = [[parse_rational(x) for x in m] for m in obj["cone_functionals"]]
        return pl_from_cone_functionals(fan, ms)
    raise ValueError("expected ray_values or cone_functionals")


def wall_relation(fan: Fan, wall: Wall) -> RelationVector:
    """The canonical relation of an interior wall as Fractions, a view of
    its _wall_table entry: rel[rays[k]] = coeffs[k] / denominator."""
    if not wall.is_interior:
        raise ValueError("wall relations need an interior wall")
    rays, coeffs, denominator, _ = _wall_table(fan)[fan.interior_walls.index(wall)]
    return {i: Fraction(c, denominator) for i, c in zip(rays, coeffs)}


def _wall_table(fan: Fan) -> tuple[tuple, ...]:
    """One (rays, coeffs, denominator, scale) per interior wall, in
    fan.interior_walls order, derived once per fan in integers by
    _wall_entry: the canonical relation rel[rays[k]] = coeffs[k] /
    denominator in lowest terms, and the scale s > 0 for which the bend of
    any PL function phi across the wall is s sum_i rel[i] phi(v_i).  The
    Picard rows, relation coordinates, pairings, wall_relation and the
    relations and mori commands all read this table.

    The bend is <m_a - m_b, v_off>, for phi's functionals m_a and m_b on the
    wall's cones a and b and the sum v_off of cone a's off-wall rays.  Let
    v_a be cone a's smallest off-wall ray, c_a > 0 its coefficient in rel
    and u cone a's inward normal on the wall; then s = <u, v_off> / (c_a
    <u, v_a>), which is 1 / c_a when v_a is the only off-wall ray.  Proof:
    every ray of rel but v_a lies in cone b, so phi(v_i) = <m_b, v_i> there,
    and as rel vanishes, sum_i rel[i] phi(v_i) = c_a <m_a - m_b, v_a>.  As
    m_a - m_b vanishes on the wall, which spans the hyperplane u = 0, it is
    t u for a number t, and the bend t <u, v_off> is the pairing times s;
    s > 0 as u is positive on cone a's off-wall rays."""
    return fan.derived("wall_table", lambda: tuple(
        _wall_entry(fan, w) for w in fan.interior_walls
    ))


def _wall_entry(fan: Fan, wall: Wall) -> tuple:
    """The canonical relation of one interior wall, in integers: on the
    lexicographically smallest independent (n-1)-subset of the wall rays and
    the smallest-index off-wall rays off_a and off_b of the two cones, with
    off_b's coefficient the denominator.  If the first cone is simplicial,
    the wall is a facet of it and v_off_b = sum_i (<u_i, v_off_b> / s_i) v_i
    over its frame gives the relation with no elimination.  Otherwise one
    elimination of the columns [wall rays, off_a, off_b] gives it on the
    pivot columns, which must span off_b.  Each coefficient c / s, with
    s = s_i or the elimination's d, is reduced by gcd(c, s), and the
    denominator is the lcm of the reduced s.  The coefficient on off_a is
    checked positive (the two lie on opposite sides)."""
    a, b = wall.cone_indices
    cone_a = fan.max_cones[a]
    off = [i for i in cone_a.ray_indices if i not in wall.ray_indices]
    off_b = min(set(fan.max_cones[b].ray_indices) - set(wall.ray_indices))
    if cone_a.frame:
        x = fan.ray(off_b)
        frame = zip(cone_a.ray_indices, cone_a.frame)
        terms = [(i, -c, s) for i, (u, s) in frame if (c := vdot(u, x))]
    else:
        seq = [*wall.ray_indices, off[0], off_b]
        T, pivots, d, _ = _eliminate([[fan.ray(i)[e] for i in seq] for e in range(fan.dim)])
        if pivots[-1] == len(seq) - 1:
            raise DegenerateWall(f"the last of the rays {seq} is independent of the others")
        terms = [(seq[p], -row[-1], d) for p, row in zip(pivots, T) if row[-1]]
    denominator = lcm(*(s // gcd(c, s) for _, c, s in terms))
    rel = {i: c * denominator // s for i, c, s in terms} | {off_b: denominator}
    if rel.get(off[0], 0) <= 0:
        raise RuntimeError("off-wall rays must have positive coefficients")
    scale = Fraction(denominator, rel[off[0]])
    if len(off) > 1:
        u = cone_a.facets.inequalities[cone_a.facet_rays.index(wall.ray_indices)]
        v_off = vsum([fan.ray(i) for i in off], fan.dim)
        scale *= Fraction(vdot(u, v_off), vdot(u, fan.ray(off[0])))
    return tuple(rel), tuple(rel.values()), denominator, scale


def _pairings(phi: PLFunction, ray_values=None) -> tuple[list[int], int]:
    """Each wall's integer relation paired with phi's integer ray values
    over d, and d: a positive multiple of each bend (_wall_table).  The
    pair (values, d) of phi.integer_ray_values() may be passed in."""
    values, d = ray_values or phi.integer_ray_values()
    return [
        sum(c * values[i] for i, c in zip(rays, coeffs))
        for rays, coeffs, _, _ in _wall_table(phi.fan)
    ], d


class RelationCoordinates(NamedTuple):
    """A fan's N_1 in coordinates, as plain values: the rays outside the
    first maximal cone, the functions K over them (_cone_relations) and
    their number, and each interior wall's integer relation and its
    coordinates."""

    rays: tuple[int, ...]
    functions: tuple[tuple[int, ...], ...] | None
    dim: int
    relations: tuple[dict[int, int], ...]
    rows: tuple[tuple, ...]

    def coordinates(self, rel: RelationVector) -> tuple:
        values = tuple(rel.get(i, 0) for i in self.rays)
        return values if self.functions is None else tuple(vdot(k, values) for k in self.functions)


def _relation_coordinates(fan: Fan) -> RelationCoordinates:
    """Derived once per fan.  N_1 is the relations among the rays modulo
    those that pair to 0 with every PL function (Cox, Little and Schenck,
    ch. 6), so a relation's coordinates are its pairings with K; each bend
    is a positive multiple of its wall's pairing (_wall_table)."""
    def table():
        rays, k, _ = _cone_relations(fan)
        rc = RelationCoordinates(rays, k, len(rays if k is None else k), (), ())
        rels = tuple(dict(zip(r, c)) for r, c, _, _ in _wall_table(fan))
        return rc._replace(relations=rels, rows=tuple(rc.coordinates(rel) for rel in rels))
    return fan.derived("relation_coordinates", table)


def _relation_pointed(fan: Fan) -> bool:
    """Does some point pair positively with every nonzero wall row in
    relation coordinates?  One exact LP, once per fan, on the rows' distinct
    primitive directions in first-seen order, its point checked on each row."""
    def solve():
        rc = _relation_coordinates(fan)
        rows = [r for r in rc.rows if any(r)]
        x, _ = lp.strict_feasible(list(dict.fromkeys(map(primitivize, rows))), [], [], rc.dim)
        if x is not None and any(vdot(r, x) <= 0 for r in rows):
            raise RuntimeError("LP point does not pair positively with every wall relation")
        return x is not None
    return fan.derived("relation_pointed", solve)


def _relation_quasi_projective(fan: Fan) -> bool:
    """Quasi-projective iff no wall row is zero and their cone is pointed."""
    return all(any(r) for r in _relation_coordinates(fan).rows) and _relation_pointed(fan)


def wall_functional(fan: Fan, wall: Wall, phi: PLFunction) -> Fraction:
    """The bend of phi across an interior wall, <m_first - m_second, v> for
    the sum v of the first cone's off-wall rays, read off _wall_table."""
    rays, coeffs, denominator, scale = _wall_table(fan)[fan.interior_walls.index(wall)]
    return scale / denominator * sum(c * phi.ray_value(i) for i, c in zip(rays, coeffs))


def is_convex(phi: PLFunction) -> bool:
    return all(p >= 0 for p in _pairings(phi)[0])


def is_strictly_convex(phi: PLFunction) -> bool:
    """Is every bend of phi positive?  Decided by the sign of each wall
    relation paired with phi's ray values, in integers."""
    return all(p > 0 for p in _pairings(phi)[0])


@dataclass(frozen=True)
class PLBasis:
    """A basis of the space of piecewise-linear functions on a fan, as plain
    values that do not refer to the fan.  The basis is the n global
    coordinate functionals followed by representatives of the quotient
    Pic(X)_R, pinned to vanish on the first maximal cone (_solve_pl_basis).
    Only the quotient functions are stored: quotient holds one integer row
    per function, its cone functionals stacked, over one denominator in
    lowest terms.  Each basis function's ray values are kept once, in basis
    order, in value_rows as an integer row over a positive denominator;
    rows and classes are over the quotient functions."""

    quotient: tuple[tuple[int, ...], ...]
    denominator: int
    value_rows: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def dim_pl(self) -> int:
        return len(self.value_rows)

    @property
    def dim_pic(self) -> int:
        return len(self.quotient)

    @property
    def quotient_functionals(self) -> tuple[tuple[Vec, ...], ...]:
        """One tuple per quotient function, with one functional per maximal
        cone, as Fractions; every zero entry is the shared ZERO."""
        n, d = self.dim_pl - self.dim_pic, self.denominator
        return tuple(tuple(tuple(Fraction(x, d) if x else ZERO for x in q[k:k + n])
                           for k in range(0, len(q), n)) for q in self.quotient)

    @property
    def ray_values(self) -> tuple[Vec, ...]:
        """One row of ray values per basis function, in basis order."""
        return tuple(tuple(Fraction(x, d) for x in row) for row, d in self.value_rows)

    def relation_row(self, rays, coeffs, denominator: int) -> Vec:
        """The relation coeffs / denominator on rays paired with each quotient
        function, an integer dot product with its value row."""
        terms = list(zip(rays, coeffs))
        return tuple(
            Fraction(sum(c * row[i] for i, c in terms), denominator * d)
            for row, d in self.value_rows[self.dim_pl - self.dim_pic:]
        )

    def combine(self, fan: Fan, coeffs) -> PLFunction:
        """The combination of the basis functions on fan, whose pl_basis this
        is: the first n coefficients are the coordinates of a global linear
        functional, and a zero quotient coefficient adds nothing.  Summed in
        integers: the coefficients over e and the quotient rows over d, with
        one Fraction per entry over e * d."""
        ints, e = _integer_row([Fraction(c) for c in coeffs])
        if len(ints) != self.dim_pl:
            raise ValueError(f"need {self.dim_pl} coefficients, got {len(ints)}")
        n, d = fan.dim, self.denominator
        total = [x * d for x in ints[:n]] * len(fan.max_cones)
        for c, q in zip(ints[n:], self.quotient):
            if c:
                total = vadd(total, vscale(c, q))
        return PLFunction(fan, tuple(
            tuple(Fraction(x, e * d) for x in total[k:k + n]) for k in range(0, len(total), n)
        ))


def pl_basis(fan: Fan) -> PLBasis:
    """The function-space basis (_solve_pl_basis), once per fan."""
    return fan.derived("pl_basis", lambda: _solve_pl_basis(fan))


def _cone_relations(fan: Fan) -> tuple[tuple[int, ...], tuple | None, tuple]:
    """The rays outside the first maximal cone, the functions K over them
    and each non-simplicial maximal cone k > 0's inverse rows (k, ray, row,
    d), each over d, derived once per fan.  A PL function on
    full-dimensional cones is its ray values, subject only to each
    non-simplicial cone's relations among its own rays (Cox, Little and
    Schenck, ch. 4 and 6); those pinned to 0 on the first cone are spanned
    by K, integer rows of the relations' kernel, or None for the identity.
    One elimination of [rays | I] gives such a cone's independent ray set S
    (dim pivots), S's inverse and one relation per other ray; a simplicial
    cone's inverse is its frame, read by _solve_pl_basis."""
    def solve():
        n = fan.dim
        first = set(fan.max_cones[0].ray_indices)
        outside = tuple(j for j in range(fan.n_rays) if j not in first)
        column = {j: c for c, j in enumerate(outside)}
        inverses, relations = [], []
        for k, c in enumerate(fan.max_cones[1:], 1):
            if c.frame:
                continue
            rays, r = c.ray_indices, len(c.ray_indices)
            T, pivots, d, _ = _eliminate([[fan.ray(i)[e] for i in rays]
                                          + [int(f == e) for f in range(n)] for e in range(n)])
            if pivots[-1] >= r:
                raise RuntimeError(f"the rays of maximal cone {k} do not span")
            inverses += ((k, rays[p], row[r:], d) for row, p in zip(T, pivots))
            for q in (q for q in range(r) if q not in pivots):
                # d times ray q is sum_p T[p][q] S_p, and so is its value
                rel = [0] * len(outside)
                for i, x in [(rays[q], -d)] + [(rays[p], row[q]) for row, p in zip(T, pivots)]:
                    if x and i in column:
                        rel[column[i]] += x
                if any(rel):
                    relations.append(rel)
        if not relations:
            return outside, None, tuple(inverses)
        kernel = kernel_basis(relations, len(outside))
        return outside, tuple(tuple(_integer_row(x)[0]) for x in kernel), tuple(inverses)
    return fan.derived("cone_relations", solve)


def _solve_pl_basis(fan: Fan) -> PLBasis:
    """The function space in ray values (_cone_relations).  span[j] holds
    the cone functionals of a unit value at ray j, its rows of the cones'
    inverses (a simplicial cone's frame), in integers over their lcm; they,
    or K mapped through them, span the quotient.  The stored basis is the
    reduced one in stacked cone-functional columns: one function per free
    column f, 1 at f and 0 at the other free columns.  A column is free
    exactly when some function has its last nonzero entry there, so the
    reduced row echelon form of the reversed spanning rows, unique whatever
    their scales, is that basis reversed: one _eliminate's rows q over d.
    On cone k a function is q_k / d, in lowest terms over d / gcd(d, q_k)."""
    n, width = fan.dim, len(fan.max_cones) * fan.dim
    rays, functions, inverses = _cone_relations(fan)
    inverses += tuple((k, j, *f) for k, c in enumerate(fan.max_cones[1:], 1)
                      for j, f in zip(c.ray_indices, c.frame))
    scales = dict.fromkeys(rays, 1)
    for _, j, _, s in inverses:
        if j in scales:
            scales[j] = lcm(scales[j], s)
    span = {j: [0] * width for j in rays}
    for k, j, u, s in inverses:
        if j in span:
            span[j][k * n:(k + 1) * n] = vscale(scales[j] // s, u)
    rows = list(span.values())
    if functions is not None:
        scale = lcm(*scales.values())
        rows = [vsum([vscale(c * (scale // scales[j]), span[j]) for c, j in zip(k, rays) if c],
                     width) for k in functions]
    T, pivots, d, _ = _eliminate([row[::-1] for row in rows])
    red = T[:len(pivots)]
    g = gcd(d, *(x for row in red for x in row)) * (1 if d > 0 else -1)
    quotient, d = tuple(tuple(x // g for x in reversed(row)) for row in reversed(red)), d // g
    value_rows = [(values, 1) for values in zip(*fan.rays)]
    for q in quotient:
        ms = [q[k:k + n] for k in range(0, width, n)]
        scale = lcm(*(d // gcd(d, *ms[k]) for k in set(fan.ray_cone)))
        value_rows.append((tuple(vdot(ms[k], v) * scale // d
                                 for k, v in zip(fan.ray_cone, fan.rays)), scale))
    return PLBasis(quotient, d, tuple(value_rows))


def wall_rows(fan: Fan, basis: PLBasis) -> list[Vec]:
    """Interior-wall functionals as inequality rows over the quotient
    functions, in fan.interior_walls order: entry j of row k is the bend of
    quotient function j across wall k, the wall's scale times its class."""
    if basis is not pl_basis(fan):
        raise ValueError("the basis must be the fan's own pl_basis")
    return [vscale(w[3], c) for w, c in zip(_wall_table(fan), _wall_classes(fan, basis))]


def _wall_classes(fan: Fan, basis: PLBasis) -> tuple[Vec, ...]:
    """Each interior wall's relation paired with the quotient functions of
    the fan's own pl_basis, derived once per fan."""
    return fan.derived("wall_classes", lambda: tuple(
        basis.relation_row(*w[:3]) for w in _wall_table(fan)
    ))


def is_quasi_projective(fan: Fan) -> tuple[bool, PLFunction | None]:
    """Existence of a strictly convex function, decided by exact LP over the
    function-space basis, once per fan; the witness is returned and
    re-verified.  The fan keeps the witness's cone functionals, and each
    call wraps them in a new PLFunction."""
    ms = fan.derived("is_quasi_projective", lambda: _solve_quasi_projective(fan))
    return (False, None) if ms is None else (True, PLFunction(fan, ms))


def _solve_quasi_projective(fan: Fan) -> tuple[Vec, ...] | None:
    basis = pl_basis(fan)
    witness, _ = lp.strict_feasible(wall_rows(fan, basis), [], [], basis.dim_pic)
    if witness is None:
        return None
    phi = basis.combine(fan, (0,) * fan.dim + witness)
    if not is_strictly_convex(phi):
        raise RuntimeError("LP witness is not strictly convex on every wall")
    return phi.cone_functionals


def refinement_ray_map(fine: Fan, coarse: Fan) -> list[int]:
    """Index translation fine ray -> coarse ray; identical ray sets required."""
    lookup = {r: i for i, r in enumerate(coarse.rays)}
    if fine.dim != coarse.dim or len(fine.rays) != len(coarse.rays):
        raise NotARefinement("ray sets differ")
    try:
        return [lookup[r] for r in fine.rays]
    except KeyError:
        raise NotARefinement("ray sets differ") from None


def refinement_cone_map(fine: Fan, coarse: Fan) -> list[int]:
    """For each fine maximal cone, the coarse maximal cone containing it.

    Raises NotARefinement unless every fine cone fits in a coarse cone and
    the supports agree (so the fine cones cover the coarse fan exactly).
    A valid fan's support is the cone on all its rays, kept as its sorted
    primitive facet normals, so on the same rays the supports are equal
    exactly when those normals are."""
    refinement_ray_map(fine, coarse)
    if fine.support != coarse.support:
        raise NotARefinement("supports differ")
    cmap = []
    for c in fine.max_cones:
        gens = [fine.ray(i) for i in c.ray_indices]
        hit = next(
            (
                j
                for j, big in enumerate(coarse.max_cones)
                if all(big.contains_point(g) for g in gens)
            ),
            None,
        )
        if hit is None:
            raise NotARefinement(
                f"fine cone {c.ray_indices} fits in no coarse cone"
            )
        cmap.append(hit)
    return cmap


def type_a_pairs(fine: Fan, coarse: Fan) -> list[tuple[int, int]]:
    """Two-element collections primitive for the fine fan but contained in a
    single coarse cone (in fine ray indices)."""
    ray_map = refinement_ray_map(fine, coarse)
    return [(i, j) for i in range(fine.n_rays) for j in range(i + 1, fine.n_rays)
            if not fine.is_coface(1 << i | 1 << j)
            and coarse.is_coface(1 << ray_map[i] | 1 << ray_map[j])]


def coarse_membership(phi: PLFunction, coarse: Fan) -> bool:
    """Does a function on a refinement descend to the coarse fan?

    The direct test (equal functionals on all fine cones inside one coarse
    cone) and the additivity criterion on two-element collections that are
    primitive for the fine fan but sit inside a coarse cone must agree; both
    are evaluated and checked against each other.
    """
    fine = phi.fan
    cmap = refinement_cone_map(fine, coarse)
    direct = True
    for j in range(len(coarse.max_cones)):
        ms = [phi.cone_functionals[k] for k in range(len(cmap)) if cmap[k] == j]
        if any(m != ms[0] for m in ms[1:]):
            direct = False
            break
    additive = all(
        phi.value(vadd(fine.ray(i), fine.ray(j)))
        == phi.ray_value(i) + phi.ray_value(j)
        for i, j in type_a_pairs(fine, coarse)
    )
    if direct != additive:
        raise RuntimeError("wall-descent and additivity tests must agree")
    return direct
