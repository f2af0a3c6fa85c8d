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
    cone_dim,
    cones_equal,
    double_description,
    dual_cone,
    h_to_v,
    hcone_covered_by,
    intersect_hcones,
    is_pointed,
    lineality_dim,
    pulling_triangulation,
    solve_nonneg_in_span,
)
from fanforge.linalg import det, kernel_basis, primitivize, rank, vdot

SQUARE_TOP = [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)]


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
    from fanforge.cones import v_to_h

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


def test_solve_nonneg_in_span_trivial_and_zero():
    res = solve_nonneg_in_span((2, 0), [(1, 0)])
    assert res == ({0: Fraction(2)}, [0])
    assert solve_nonneg_in_span((0, 0), [(1, 0)]) == ({}, [])
    assert solve_nonneg_in_span((0, 1), [(1, 0)]) is None


def test_solve_nonneg_in_span_square_cone_point():
    # (0,1,2) over the four square-cone generators: independent positive support
    res = solve_nonneg_in_span((0, 1, 2), SQUARE_TOP)
    assert res is not None
    coeffs, support = res
    assert all(c > 0 for c in coeffs.values())
    assert rank([SQUARE_TOP[i] for i in support]) == len(support)
    for d in range(3):
        got = sum(c * SQUARE_TOP[i][d] for i, c in coeffs.items())
        assert got == (0, 1, 2)[d]


def test_intersect_and_dim():
    a = HCone.make([(1, 0), (0, 1)])
    b = HCone.make([(-1, 1)], ambient_dim=2)
    inter = intersect_hcones(a, b)
    assert cone_dim(inter) == 2
    assert is_pointed(inter)


def test_hcone_covered_by():
    quadrant = HCone.make([(1, 0), (0, 1)])
    left = HCone.make([(1, -1), (0, 1), (1, 0)])
    right = HCone.make([(-1, 1), (1, 0), (0, 1)])
    ok, leftover = hcone_covered_by(quadrant, [left, right])
    assert ok and not leftover
    ok, leftover = hcone_covered_by(quadrant, [left])
    assert not ok and leftover


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
    from fanforge.cones import v_to_h

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
    from fanforge.cones import v_to_h

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
