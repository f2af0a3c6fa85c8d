import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fanforge.cones import (
    DimensionTooLarge,
    HCone,
    VCone,
    cone_contains,
    cones_equal,
    double_description,
    dual_cone,
    h_to_v,
    hcone_covered_by,
    intersect_hcones,
    pulling_triangulation,
    v_to_h,
)
from fanforge import cones, corpus
from fanforge.linalg import det, kernel_basis, primitivize, rank, vdot, vneg
from fanforge.mori import extremal_walls, wall_relation
from fanforge.plfun import is_quasi_projective, pl_basis, wall_rows
from fanforge.theorems import random_complete_fan

SQUARE_TOP = [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)]


def lineality_dim(c: HCone | VCone) -> int:
    """Dimension of the largest subspace contained in the cone, by double
    description and a rank: the reference for pointedness tests."""
    if isinstance(c, VCone):
        c = v_to_h(c)
    return c.ambient_dim - rank(list(c.inequalities) + list(c.equalities))


def is_pointed(c: HCone | VCone) -> bool:
    return lineality_dim(c) == 0


def gens_as_primitive_set(v: VCone):
    return {primitivize(g) for g in v.generators}


def test_h_to_v_first_orthant():
    v = h_to_v(HCone.make([(1, 0), (0, 1)]))
    assert gens_as_primitive_set(v) == {(1, 0), (0, 1)}


def test_h_to_v_halfplane_has_line():
    v = h_to_v(HCone.make([(1, 0)], ambient_dim=2))
    assert (0, 1) in gens_as_primitive_set(v) and (0, -1) in gens_as_primitive_set(v)
    assert lineality_dim(v) == 1


def test_h_to_v_nef_cone_of_nonprojective_example():
    # {a >= b, 3b >= 2a} is spanned by (1,1) and (3,2)
    v = h_to_v(HCone.make([(1, -1), (-2, 3)]))
    assert gens_as_primitive_set(v) == {(1, 1), (3, 2)}


def test_v_to_h_simplicial_cone_facets():
    # Cone((1,1,1),(1,-1,1),(-1,1,1)): each generator saturates exactly 2 facets
    gens = [(1, 1, 1), (1, -1, 1), (-1, 1, 1)]
    h = v_to_h_checked(gens)
    assert len(h.inequalities) == 3 and not h.equalities
    for g in gens:
        assert sum(1 for u in h.inequalities if vdot(u, g) == 0) == 2


def v_to_h_checked(gens):
    h = v_to_h(VCone.make(gens))
    for g in gens:
        assert h.contains_point(g)
    return h


def test_v_to_h_low_dim_cone_gets_equalities():
    h = v_to_h_checked([(1, 0, 0)])
    assert len(h.equalities) == 2


def test_roundtrip_square_cone():
    v = h_to_v(v_to_h_checked(SQUARE_TOP))
    assert gens_as_primitive_set(v) == set(SQUARE_TOP)


def test_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        h_to_v(HCone.make([tuple([1] + [0] * 12)]))


def test_lifted_description_is_guarded_at_the_points_dimension(monkeypatch):
    lifted = VCone.make([p + (1,) for p in SQUARE_TOP] + [(0, 0, 0, 1)])
    expected = v_to_h(lifted)
    monkeypatch.setattr(cones, "MAX_DIM", 3)
    with pytest.raises(DimensionTooLarge):
        v_to_h(lifted)
    assert v_to_h(lifted, lifted=True) == expected


def test_cone_contains_origin():
    ok, cert = cone_contains(VCone.make([(1, 0)]), (0, 0))
    assert ok and all(c == 0 for c in cert)


def test_cone_contains_with_certificate():
    c = VCone.make(SQUARE_TOP)
    ok, cert = cone_contains(c, (0, 0, 2))
    assert ok
    for d in range(3):
        assert sum(cc * g[d] for cc, g in zip(cert, c.generators)) == 2 * (d == 2)


def test_cone_contains_negative_sum_pointed():
    c = VCone.make([(1, 0), (0, 1)])
    ok, _ = cone_contains(c, (-1, -1))
    assert not ok


def test_cones_equal_self_and_cross_representation():
    h = HCone.make([(1, 0), (0, 1)])
    v = VCone.make([(1, 0), (0, 1)])
    assert cones_equal(h, h)
    assert cones_equal(h, v)
    assert not cones_equal(h, HCone.make([(0, 1)], ambient_dim=2))


def test_dual_cone_roundtrip():
    v = VCone.make([(2, 1), (1, 3)])
    assert cones_equal(dual_cone(dual_cone(v)), v)


def test_cone_contains_positive_zero_and_outside_targets():
    c = VCone.make([(1, 0)])
    assert cone_contains(c, (2, 0)) == (True, (Fraction(2),))
    assert cone_contains(c, (0, 0)) == (True, (0,))
    assert cone_contains(c, (0, 1)) == (False, None)


def test_cone_contains_square_cone_point_independent_support():
    # (0,1,2) over the four square-cone generators: the LP's basic solution
    # has a linearly independent positive support
    ok, coeffs = cone_contains(VCone.make(SQUARE_TOP), (0, 1, 2))
    assert ok
    assert all(c >= 0 for c in coeffs)
    support = [i for i, c in enumerate(coeffs) if c != 0]
    assert rank([SQUARE_TOP[i] for i in support]) == len(support)
    for d in range(3):
        got = sum(coeffs[i] * SQUARE_TOP[i][d] for i in support)
        assert got == (0, 1, 2)[d]


def test_intersect_and_dim():
    a = HCone.make([(1, 0), (0, 1)])
    b = HCone.make([(-1, 1)], ambient_dim=2)
    inter = intersect_hcones(a, b)
    assert rank(h_to_v(inter).generators) == 2
    assert is_pointed(inter)


def test_hcone_covered_by():
    # the quadrant on rays (1,0), (1,1), (0,1), split along the diagonal
    rays = [(1, 0), (1, 1), (0, 1)]
    quadrant = HCone.make([(1, 0), (0, 1)])
    assert hcone_covered_by(quadrant, [(0, 1), (1, 2)], rays) == (True, [])
    # one half alone leaves the diagonal open; its other facet, the ray
    # (1,0), lies on the quadrant's boundary
    assert hcone_covered_by(quadrant, [(0, 1)], rays) == (False, [(1,)])
    assert hcone_covered_by(quadrant, [], rays) == (False, [])


def reference_hcone_covered_by(big: HCone, parts: list[HCone]) -> tuple[bool, list[HCone]]:
    """The region sweep the facet matching replaced, kept as its reference.

    Sweeps the common refinement: big is cut along every bounding hyperplane
    of every part, and a full-dimensional leftover region witnesses a point
    of big interior to no part.  Returns (covered, uncovered_regions).
    """
    n = big.ambient_dim
    regions = [big]
    for part in parts:
        cuts = list(part.inequalities)
        for e in part.equalities:
            cuts.append(e)
            cuts.append(vneg(e))
        new_regions = []
        for reg in regions:
            prefix = []
            for u in cuts:
                piece = HCone(
                    reg.inequalities + tuple(prefix) + (vneg(u),),
                    reg.equalities,
                    n,
                )
                if rank(h_to_v(piece).generators) == n:
                    new_regions.append(piece)
                prefix.append(u)
        regions = new_regions
    return not regions, regions


def _reid_coverage_cases():
    """(fan, relation cone, deltas) at every extremal wall of the paper
    examples, the cross fans and seeded random fans: the deltas are the
    maximal cones left by dropping a positive ray of the wall relation."""
    fans = [f for _, f in corpus.paper_examples()]
    fans += [corpus.cross_fan(2), corpus.cross_fan(3)]
    rng = random.Random(11)
    fans += [random_complete_fan(rng)[1] for _ in range(20)]
    for f in fans:
        if not f.is_simplicial or not is_quasi_projective(f)[0]:
            continue
        max_cone_sets = {c.ray_indices for c in f.max_cones}
        for w in extremal_walls(f, pl_basis(f)):
            a, b = w.cone_indices
            ray_seq = set(f.max_cones[a].ray_indices) | set(f.max_cones[b].ray_indices)
            rel = wall_relation(f, w)
            deltas = [
                tuple(sorted(ray_seq - {i})) for i in sorted(ray_seq) if rel.get(i, 0) > 0
            ]
            assert set(deltas) <= max_cone_sets
            big = v_to_h_checked([f.ray(i) for i in sorted(ray_seq)])
            yield f, big, deltas


def test_hcone_covered_by_matches_region_sweep_at_reid_walls():
    walls = non_pointed = dropped = 0
    for f, big, deltas in _reid_coverage_cases():
        walls += 1
        non_pointed += not is_pointed(big)
        parts = [v_to_h(VCone.make([f.ray(i) for i in d])) for d in deltas]
        assert reference_hcone_covered_by(big, parts)[0]
        assert hcone_covered_by(big, deltas, f.rays) == (True, [])
        for k in range(len(deltas)):
            dropped += 1
            rest = deltas[:k] + deltas[k + 1:]
            assert not reference_hcone_covered_by(big, parts[:k] + parts[k + 1:])[0]
            covered, open_facets = hcone_covered_by(big, rest, f.rays)
            assert not covered
            # the open facets are those the dropped delta shared
            assert open_facets and all(set(c) < set(deltas[k]) for c in open_facets)
    # relation cones such as e2 + (-e2) = 0 in the cross fans span a
    # half-space or more, so slice volumes could not decide these
    assert walls > 100 and non_pointed > 40 and dropped > 250


def test_pulling_triangulation_square_cone():
    simplices = pulling_triangulation(SQUARE_TOP)
    assert all(len(s) == 3 for s in simplices)
    total = sum(
        abs(det([SQUARE_TOP[i] for i in s])) for s in simplices
    )
    # frozen from splitting along either diagonal by hand: 4 + 4
    assert total == 8


def _random_pointed_cone(rng, dim):
    while True:
        k = rng.randint(dim, dim + 3)
        gens = []
        while len(gens) < k:
            g = tuple(rng.randint(-4, 4) for _ in range(dim))
            if any(g):
                gens.append(g)
        v = VCone.make(gens)
        if lineality_dim(v) == 0:
            return v


def test_double_description_roundtrip_random_pointed():
    # spec-level invariant: h_to_v(v_to_h(C)) reproduces the extreme rays
    rng = random.Random(20240812)
    for _ in range(50):
        dim = rng.randint(2, 4)
        v = _random_pointed_cone(rng, dim)
        h = v_to_h(v)
        back = h_to_v(h)
        assert cones_equal(back, v)
        # extreme rays of the roundtrip are a subset of the input generators
        assert gens_as_primitive_set(back) <= gens_as_primitive_set(v)
        again = h_to_v(v_to_h(back))
        assert gens_as_primitive_set(again) == gens_as_primitive_set(back)


def test_h_to_v_with_equalities():
    # halfplane inside the plane z = 0
    h = HCone.make([(1, 0, 0)], [(0, 0, 1)])
    v = h_to_v(h)
    assert gens_as_primitive_set(v) == {(1, 0, 0), (0, 1, 0), (0, -1, 0)}
    assert lineality_dim(v) == 1
    assert cones_equal(v_to_h_checked_pub(v), h)


def v_to_h_checked_pub(v):
    return v_to_h(v)


# (equalities, inequalities, dim, lines, rays) of seeded random systems,
# recorded from the rational-arithmetic implementation this one replaced;
# the exact lists pin the insertion and output order as well as the cone.
PINNED_DD = [
    (
        [],
        [(3, -3), (3, 0), (1, 1), (3, -3)],
        2,
        [],
        [(1, 1), (1, -1)],
    ),
    (
        [(-2, -2)],
        [(-1, -1), (1, 3), (-2, 2), (1, 1), (-3, -2), (3, 3)],
        2,
        [],
        [(-1, 1)],
    ),
    (
        [],
        [(-3, -3), (2, 3), (0, 1), (-2, 2), (0, 0), (1, 3)],
        2,
        [],
        [(-1, 1), (-3, 2)],
    ),
    (
        [(-2, 0, 0)],
        [(-2, -3, 2), (2, 0, 1), (2, 3, -2), (-2, 2, -3), (-2, 1, -3), (-1, 0, -2)],
        3,
        [],
        [],
    ),
    (
        [],
        [(-2, 3, -3, 3), (1, -3, 1, -2), (3, -2, -2, 1), (1, -3, 1, 2), (-1, 1, 2, -2)],
        4,
        [],
        [],
    ),
    (
        [],
        [(1, 0, 0), (-2, 3, 1), (-1, 2, 0)],
        3,
        [],
        [(0, 0, 1), (0, 1, -3), (2, 1, 1)],
    ),
    (
        [],
        [(-3, -2, -2), (-3, 1, 1)],
        3,
        [(0, -1, 1)],
        [(-1, -3, 0), (-2, 3, 0)],
    ),
    (
        [],
        [(-1, 0, -3, 0), (3, 1, 0, 1), (3, 0, 0, 1)],
        4,
        [(-3, 0, 1, 9)],
        [(0, 0, -1, 0), (3, -9, -1, 0), (0, 1, 0, 0)],
    ),
    (
        [],
        [(1, 0, -2), (-2, -2, -3)],
        3,
        [(4, -7, 2)],
        [(0, -1, 0), (1, -1, 0)],
    ),
    (
        [],
        [(-1, 1, 2), (1, -1, 1), (0, -1, 0)],
        3,
        [],
        [(-1, 0, 1), (-1, -1, 0), (2, 0, 1)],
    ),
    (
        [(-1, -1, 2, 0)],
        [
            (0, 2, -2, -3), (1, -2, 1, 2), (1, -1, 1, 3), (-1, -3, 2, 1),
            (-1, 2, 3, -3), (0, 2, 3, -2),
        ],
        4,
        [],
        [(15, -9, 3, -8), (5, -1, 2, -2), (18, -12, 3, -11), (11, -3, 4, -6)],
    ),
    (
        [],
        [
            (-3, -2, -1, -1), (-1, -1, 0, -3), (-1, 1, 1, -3), (3, -2, -2, 2),
            (3, 1, 3, 1),
        ],
        4,
        [],
        [(4, -20, 27, 1), (-4, -17, 10, -1), (16, -6, -3, -33), (9, -8, -4, -7)],
    ),
    (
        [],
        [(1, -2, 2), (2, -2, -2), (1, 0, 2), (3, 3, -2), (3, 1, 3)],
        3,
        [],
        [(2, 0, -1), (4, 3, 1), (6, -8, -3), (5, -1, 6)],
    ),
    (
        [],
        [(-3, -1, 1, -1), (2, -2, 3, -3), (1, -1, -3, 2)],
        4,
        [(1, -11, 28, 36)],
        [(-1, -1, 0, 0), (1, -11, -8, 0), (1, -2, 1, 0)],
    ),
    (
        [],
        [
            (-3, -2, -1, -2), (1, 2, 2, 3), (0, -3, 2, -2), (-2, 0, -3, -3),
            (1, -1, 3, 3), (-2, -3, 2, -3), (-1, 0, -3, 3),
        ],
        4,
        [],
        [
            (-18, 4, 9, 3), (-27, 6, 10, 1), (-12, -3, 6, 2), (-15, -8, -1, 11),
            (-51, 6, 18, 1), (-25, 2, 6, 3),
        ],
    ),
    (
        [],
        [
            (-1, -3, 0, -1), (-1, 0, 1, 3), (-3, 2, 3, -1), (-2, 1, 3, -1),
            (3, -1, -2, -2),
        ],
        4,
        [],
        [(16, -5, 19, -1), (13, -3, 25, -4), (-1, -5, 2, -1), (25, -11, 35, 8)],
    ),
    (
        [(-1, 1, 0, 0)],
        [
            (3, -2, 0, 1), (2, -2, 1, 0), (-2, -3, 3, 0), (3, 1, 1, 0), (1, -2, 0, 0),
            (-1, -2, 0, 1),
        ],
        4,
        [],
        [(0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, 4, 1)],
    ),
    (
        [],
        [(-3, -3, 0), (3, 0, 3), (-2, 0, 0)],
        3,
        [],
        [(0, -1, 0), (-1, 1, 1), (0, 0, 1)],
    ),
    (
        [],
        [(1, 1, -3), (0, 3, -2), (-2, -2, -2), (-1, -3, 3)],
        3,
        [],
        [(-3, -2, -3), (-7, -2, -3), (-3, 0, -1)],
    ),
    (
        [(-1, 2, 2)],
        [(1, 3, 0), (-1, 3, 3), (-2, 3, 1)],
        3,
        [],
        [(0, 1, -1), (4, 3, -1)],
    ),
]


@pytest.mark.parametrize("eqs, ineqs, dim, lines, rays", PINNED_DD)
def test_double_description_pinned_outputs(eqs, ineqs, dim, lines, rays):
    assert double_description(eqs, ineqs, dim) == (lines, rays)


def _brute_force_rays(eqs, ineqs, dim):
    """Primitive vectors of the cone whose tight rows together with the
    equalities have rank dim - 1, found by solving every row subset."""
    found = set()
    for k in range(dim):
        for subset in itertools.combinations(ineqs, k):
            kernel = kernel_basis(list(eqs) + list(subset), dim)
            if len(kernel) != 1:
                continue
            for sign in (1, -1):
                v = primitivize([sign * x for x in kernel[0]])
                if any(vdot(e, v) != 0 for e in eqs):
                    continue
                if any(vdot(a, v) < 0 for a in ineqs):
                    continue
                tight = [a for a in ineqs if vdot(a, v) == 0]
                if rank(list(eqs) + tight) == dim - 1:
                    found.add(v)
    return found


@st.composite
def _integer_systems(draw):
    dim = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-3, 3)] * dim)
    ineqs = draw(st.lists(row, max_size=8))
    eqs = draw(st.lists(row, max_size=2))
    return eqs, ineqs, dim


@settings(max_examples=300, deadline=None)
@given(_integer_systems())
def test_double_description_matches_brute_force(system):
    eqs, ineqs, dim = system
    lines, rays = double_description(eqs, ineqs, dim)
    constraints = list(eqs) + list(ineqs)
    # span(lines) is the kernel of [E; A]
    assert rank(lines) == len(lines) == dim - rank(constraints)
    assert all(vdot(c, l) == 0 for c in constraints for l in lines)
    assert len(set(rays)) == len(rays)
    for r in rays:
        assert all(vdot(e, r) == 0 for e in eqs)
        assert all(vdot(a, r) >= 0 for a in ineqs)
    if not lines:
        assert set(rays) == _brute_force_rays(eqs, ineqs, dim)


def reference_double_description(equalities, inequalities, dim):
    """Double description with the algebraic adjacency test: a plus/minus
    pair is adjacent iff the equalities and the inserted rows tight at both
    have rank dim - len(lines) - 2.  Otherwise the same loop as
    double_description, kept as the oracle for its combinatorial test."""
    eq_rows = [e for e in equalities if any(e)]
    if eq_rows:
        lines = [primitivize(l) for l in kernel_basis(eq_rows, dim)]
    else:
        lines = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    eq_rank = dim - len(lines)
    rays, tight = [], []
    rows = sorted({primitivize(h) for h in inequalities if any(h)})
    for n_done, a in enumerate(rows):
        bit = 1 << n_done
        vals_lines = [vdot(a, l) for l in lines]
        hit = next((i for i, v in enumerate(vals_lines) if v != 0), None)
        if hit is not None:
            pv = vals_lines[hit]
            pivot = lines[hit] if pv > 0 else vneg(lines[hit])
            pv = abs(pv)
            lines = [
                primitivize([pv * x - v * y for x, y in zip(l, pivot)])
                for i, (l, v) in enumerate(zip(lines, vals_lines))
                if i != hit
            ]
            rays = [
                primitivize([pv * x - vdot(a, r) * y for x, y in zip(r, pivot)])
                for r in rays
            ] + [pivot]
            tight = [z | bit for z in tight] + [bit - 1]
            continue
        vals = [vdot(a, r) for r in rays]
        plus = [k for k, v in enumerate(vals) if v > 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        new_rays = [rays[k] for k in plus + zero]
        new_tight = [tight[k] for k in plus] + [tight[k] | bit for k in zero]
        full_rank = dim - len(lines)
        for p, m in itertools.product(plus, minus):
            common = tight[p] & tight[m]
            if common.bit_count() < full_rank - 2 - eq_rank:
                continue
            common_rows = eq_rows + [rows[i] for i in range(n_done) if common >> i & 1]
            if rank(common_rows) == full_rank - 2:
                rp, rm, vp, vm = rays[p], rays[m], vals[p], vals[m]
                new_rays.append(primitivize([vp * y - vm * x for x, y in zip(rp, rm)]))
                new_tight.append(common | bit)
        seen = set()
        rays, tight = [], []
        for r, z in zip(new_rays, new_tight):
            if r not in seen:
                seen.add(r)
                rays.append(r)
                tight.append(z)
    return lines, rays


@st.composite
def _dd_systems(draw):
    dim = draw(st.integers(2, 6))
    # entries in {-1, 0, 1} make degenerate cones, whose rays are tight at
    # more rows than the dimension needs and where the tests can disagree
    bound = draw(st.sampled_from((1, 3)))
    row = st.tuples(*[st.integers(-bound, bound)] * dim)
    ineqs = draw(st.lists(row, max_size=10))
    eqs = draw(st.one_of(st.just([]), st.lists(row, min_size=1, max_size=2)))
    return eqs, ineqs, dim


@settings(max_examples=300, deadline=None)
@given(_dd_systems())
def test_combinatorial_adjacency_matches_rank_reference(system):
    eqs, ineqs, dim = system
    assert double_description(eqs, ineqs, dim) == reference_double_description(
        eqs, ineqs, dim
    )


def test_combinatorial_adjacency_matches_rank_reference_on_wall_cones():
    # the nef cones of the polygon fans, pointed of dimension r - 2: the
    # double descriptions behind the main theorem's first cone equality
    for r in range(4, 13):
        f = corpus.polygon_fan(r)
        basis = pl_basis(f)
        c = HCone.make(wall_rows(f, basis), (), basis.dim_pic)
        out = double_description(c.equalities, c.inequalities, c.ambient_dim)
        assert out == reference_double_description(
            c.equalities, c.inequalities, c.ambient_dim
        )
        assert out[0] == [] and rank(out[1]) == r - 2
