"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Every numeric expectation is exact; no tolerances anywhere."""

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

from fanforge import corpus
from fanforge.cones import HCone, cone_contains, cones_equal
from fanforge.fan import contained_in_single_cone, fans_equal
from fanforge.linalg import primitivize, rank, vec, vsum
from fanforge.mori import (
    curve_class,
    extremal_walls,
    mori_cone,
    positively_proportional,
    relation_dense,
    wall_relation,
)
from fanforge.plfun import PLFunction, is_convex, is_quasi_projective, pl_basis, wall_rows
from fanforge.primcoll import (
    TYPE_A,
    TYPE_B,
    batyrev_primitive_collections,
    classify_type,
    enumerate_primitive_collections,
    primitive_relation,
    primitive_rows,
)
from fanforge.refine import (
    covers_coarse_exactly,
    induced_wall_subdivisions_agree,
    qp_refinement,
    simplicial_refinement,
    strictly_convex_relative,
    supported_refinement,
)
from fanforge.theorems import check_reid_conditions, random_complete_fan, HOLDS

RANDOM_CORPUS_SEED = 20250810
RANDOM_CORPUS_SIZE = 100


@lru_cache(maxsize=1)
def random_corpus():
    rng = random.Random(RANDOM_CORPUS_SEED)
    fans = []
    for i in range(RANDOM_CORPUS_SIZE):
        name, f = random_complete_fan(rng)
        fans.append((f"{i}-{name}", f))
    return fans


def _report(k, elapsed, limit, detail=""):
    print(f"criterion {k}: PASS in {elapsed:.2f}s (limit {limit}s) {detail}")


def wall_by_rays(fan, rays):
    return next(w for w in fan.interior_walls if w.ray_indices == tuple(rays))


def test_criterion_1_split_pyramid_end_to_end():
    t0 = time.perf_counter()
    f = corpus.split_pyramid_fan()

    collections = enumerate_primitive_collections(f)
    assert collections == [(0, 2, 4), (1, 3)]

    pr1 = primitive_relation(f, (1, 3))
    assert pr1.sigma_min.ray_indices == (2, 4)
    assert pr1.b == {2: 1, 4: 1}
    pr2 = primitive_relation(f, (0, 2, 4))
    assert pr2.b == {2: Fraction(1, 2), 4: Fraction(1, 2)}

    # nef inequalities reduce exactly to a1+a3 >= a2+a4 and 2a0+a2+a4 >= 0
    rows = {primitivize(relation_dense(f, primitive_relation(f, p).relation))
            for p in collections}
    assert rows == {(0, 1, -1, 1, -1), (2, 0, 1, 0, 1)}

    assert len(f.interior_walls) == 9

    basis = pl_basis(f)

    def cls(rays):
        return curve_class(f, wall_relation(f, wall_by_rays(f, rays)), basis)

    # tau_{1,2} = 4 tau_{0,1} and tau_{0,2} = 2 tau_{1,2} + 2 tau_{2,4},
    # both as exact vector identities up to one positive scalar
    assert positively_proportional(cls((1, 2)), vec(4 * x for x in cls((0, 1))))
    combo = vec(2 * a + 2 * b for a, b in zip(cls((1, 2)), cls((2, 4))))
    assert positively_proportional(cls((0, 2)), combo)

    ext = extremal_walls(f, basis)
    ext_dirs = {
        primitivize(curve_class(f, wall_relation(f, w), basis)) for w in ext
    }
    prim_dirs = {
        primitivize(curve_class(f, primitive_relation(f, p).relation, basis))
        for p in collections
    }
    assert len(ext_dirs) == 2 and ext_dirs == prim_dirs

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, 1)


def test_criterion_2_polygon_counts():
    t0 = time.perf_counter()
    for r in range(4, 11):
        f = corpus.polygon_fan(r)
        got = enumerate_primitive_collections(f)
        assert len(got) == r * (r - 3) // 2
        for p in got:
            assert len(p) == 2
            i, j = p
            assert (j - i) % r not in (1, r - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, elapsed, 1)


def test_criterion_3_square_pyramid():
    t0 = time.perf_counter()
    f31 = corpus.square_pyramid_fan()
    f21 = corpus.split_pyramid_fan()

    assert enumerate_primitive_collections(f31) == [(0, 1, 3), (0, 2, 4)]
    assert batyrev_primitive_collections(f31) == []

    r = simplicial_refinement(f31, (2, 4), seed=0)
    assert fans_equal(r.fine, f21)
    rs = supported_refinement(f31, (0, 2, 4), seed=0)
    assert fans_equal(rs.fine, f21)

    assert classify_type((1, 3), f21, f31) == TYPE_A
    assert classify_type((0, 2, 4), f21, f31) == TYPE_B

    basis = pl_basis(f31)
    walls_h = HCone.make(
        wall_rows(f31, basis), (), basis.dim_pic
    )
    prim_rows_q = primitive_rows(f31, basis)
    prim_h = HCone.make(prim_rows_q, (), basis.dim_pic)
    assert cones_equal(walls_h, prim_h)
    for row in prim_rows_q:
        assert cones_equal(HCone.make([row], (), basis.dim_pic), walls_h)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, elapsed, 1)


FULTON_EXPECTED = {
    (0, 3): ((5,), {5: 1}),
    (0, 6): ((1, 5), {1: 1, 5: 1}),
    (1, 3): ((6,), {6: 1}),
    (1, 4): ((2, 6), {2: 1, 6: 1}),
    (2, 3): ((4,), {4: 1}),
    (2, 5): ((0, 4), {0: 1, 4: 1}),
    (4, 5, 6): ((3,), {3: 2}),
}


def test_criterion_4_fulton_fan():
    t0 = time.perf_counter()
    f = corpus.fulton_fan()

    got = enumerate_primitive_collections(f)
    assert got == sorted(FULTON_EXPECTED)
    for p, (sigma, b) in FULTON_EXPECTED.items():
        pr = primitive_relation(f, p)
        assert pr.sigma_min.ray_indices == sigma
        assert pr.b == {k: Fraction(v) for k, v in b.items()}

    basis = pl_basis(f)
    assert basis.dim_pic == 4
    qp, _ = is_quasi_projective(f)
    assert not qp

    # the first maximal cone is Cone(rho1, rho2, rho3): its rays are pinned
    assert f.max_cones[0].ray_indices == (0, 1, 2)

    def functional_row(coeffs: dict):
        return vec(
            sum((c * fn.ray_value(i) for i, c in coeffs.items()), Fraction(0))
            for fn in (PLFunction(f, ms) for ms in basis.quotient_functionals)
        )

    prim_h = HCone.make(
        primitive_rows(f, basis), (), basis.dim_pic
    )
    expected = HCone.make(
        # a >= b and 3b >= 2a with a = value on rho4, b = value on rho5
        [functional_row({3: 1, 4: -1}), functional_row({3: -2, 4: 3})],
        # the three forced equalities among the pair collections
        [
            functional_row({1: 1, 4: 1, 2: -1, 6: -1}),
            functional_row({2: 1, 5: 1, 0: -1, 4: -1}),
            functional_row({0: 1, 6: 1, 1: -1, 5: -1}),
        ],
        basis.dim_pic,
    )
    assert cones_equal(prim_h, expected)

    walls_h = HCone.make(
        wall_rows(f, basis), (), basis.dim_pic
    )
    assert cones_equal(prim_h, walls_h)

    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _report(4, elapsed, 2)


def test_criterion_5_property_suite_random_fans():
    t0 = time.perf_counter()
    fans = random_corpus()
    assert len(fans) >= 100
    assert any(not f.is_simplicial for _, f in fans)
    assert any(f.is_simplicial for _, f in fans)
    for name, f in fans:
        n = f.dim
        basis = pl_basis(f)
        qp, _ = is_quasi_projective(f)
        collections = enumerate_primitive_collections(f)
        mc = mori_cone(f, basis)
        for p in collections:
            # (a) size bound and full-rank proper subsets
            assert len(p) <= n + 1
            for sub in (
                s for k in range(1, len(p)) for s in itertools.combinations(p, k)
            ):
                assert rank([f.ray(i) for i in sub]) == len(sub)
            pr = primitive_relation(f, p)
            # (b) shared-support coefficients strictly inside (0,1)
            for i in set(p) & set(pr.support):
                assert 0 < pr.b[i] < 1
            # (c) the class lies in the Mori cone, certificate re-verified
            cls = curve_class(f, pr.relation, basis)
            ok, cert = cone_contains(mc.cone, cls)
            assert ok
            assert all(c >= 0 for c in cert)
            for d in range(len(cls)):
                assert (
                    sum(c * g[d] for c, g in zip(cert, mc.cone.generators))
                    == cls[d]
                )
        if qp:
            # (d) wall and primitive descriptions cut the same cone
            walls_h = HCone.make(
                wall_rows(f, basis), (), basis.dim_pic
            )
            prim_h = HCone.make(
                primitive_rows(f, basis), (), basis.dim_pic
            )
            assert cones_equal(walls_h, prim_h)
            if f.is_simplicial:
                coll_set = set(collections)
                for w in extremal_walls(f, basis):
                    rel = wall_relation(f, w)
                    # (e) positive support is primitive, relation proportional
                    p = tuple(sorted(i for i, c in rel.items() if c > 0))
                    assert p in coll_set
                    a_p = relation_dense(f, primitive_relation(f, p).relation)
                    assert positively_proportional(a_p, relation_dense(f, rel))
                    # (f) both Reid conditions hold at the wall
                    rep = check_reid_conditions(f, w, name)
                    assert rep.verdict == HOLDS
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, elapsed, 60, f"({len(fans)} fans)")


def test_criterion_6_refinement_suite():
    t0 = time.perf_counter()
    fans = random_corpus()
    for k, (name, f) in enumerate(fans):
        r = simplicial_refinement(f, (), seed=k)
        fine = r.fine
        assert fine.is_simplicial
        assert fine.rays == f.rays
        for cone in f.max_cones:  # property A with the empty designated set
            assert () in fine.faces
        assert induced_wall_subdivisions_agree(r)
        assert covers_coarse_exactly(r)
        qp, witness = is_quasi_projective(f)
        if qp and not f.is_simplicial:
            rq, phi = qp_refinement(f, (), witness, seed=k)
            assert strictly_convex_relative(phi, rq)
            ok, _ = is_quasi_projective(rq.fine)
            assert ok
            assert covers_coarse_exactly(rq)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, elapsed, 60, f"({len(fans)} fans)")


def _near_wall_pairs(fan):
    pairs = []
    for w in fan.interior_walls:
        wall_pt = vsum([fan.ray(i) for i in w.ray_indices], fan.dim)
        for scale in (1, 4, 16, 64):
            pts = []
            for side in w.cone_indices:
                cone = fan.max_cones[side]
                off = vsum(
                    [fan.ray(i) for i in cone.ray_indices if i not in w.ray_indices],
                    fan.dim,
                )
                pts.append(vsum([vec(scale * x for x in wall_pt), off], fan.dim))
            s = vsum(pts, fan.dim)
            if any(fan.max_cones[c].contains_point(s) for c in w.cone_indices):
                pairs.append(tuple(pts))
                break
    return pairs


def _random_support_points(fan, rng, count):
    pts = []
    for _ in range(count):
        cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
        coeffs = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in cone.ray_indices]
        pts.append(
            vsum(
                [vec(c * x for x in fan.ray(i)) for c, i in zip(coeffs, cone.ray_indices)],
                fan.dim,
            )
        )
    return pts


def test_criterion_7_oracle_cross_checks():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    sample = [
        corpus.split_pyramid_fan(),
        corpus.square_pyramid_fan(),
        corpus.fulton_fan(),
        corpus.polygon_fan(6),
        corpus.cube_fan(3),
    ] + [f for _, f in random_corpus()[:10]]

    for f in sample:
        basis = pl_basis(f)
        rays = [vec(f.ray(i)) for i in range(f.n_rays)]
        ray_pairs = [
            (rays[i], rays[j])
            for i in range(len(rays))
            for j in range(i, len(rays))
        ]
        near = _near_wall_pairs(f)
        pts = _random_support_points(f, rng, 50)
        random_pairs = [
            (pts[rng.randrange(50)], pts[rng.randrange(50)]) for _ in range(50)
        ]
        for trial in range(8):
            phi = basis.combine(
                f,
                [Fraction(rng.randint(-3, 3)) for _ in range(basis.dim_pl)]
            )
            sampled_convex = all(
                phi.value(u) + phi.value(v) >= phi.value(vsum([u, v], f.dim))
                for u, v in ray_pairs + near + random_pairs
            )
            assert is_convex(phi) == sampled_convex

    def naive(fan):
        out = []
        for size in range(2, fan.n_rays + 1):
            for cand in itertools.combinations(range(fan.n_rays), size):
                if contained_in_single_cone(fan, cand):
                    continue
                proper = (
                    s
                    for k in range(1, size)
                    for s in itertools.combinations(cand, k)
                )
                if all(contained_in_single_cone(fan, s) for s in proper):
                    out.append(cand)
        return sorted(out)

    for f in sample:
        if f.n_rays <= 9:
            assert enumerate_primitive_collections(f) == naive(f)

    elapsed = time.perf_counter() - t0
    _report(7, elapsed, "-")
