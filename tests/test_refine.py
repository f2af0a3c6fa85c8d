import itertools
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from fanforge import corpus, linalg, lp, plfun, refine
from fanforge import fan as fanmod
from fanforge.cones import HCone, VCone, cones_equal, intersect_hcones, v_to_h
from fanforge.fan import FanError, fans_equal, validate_fan
from fanforge.linalg import kernel_basis, rank, vdot, vec, vneg, vscale
from fanforge.plfun import is_quasi_projective, is_strictly_convex, pl_from_cone_functionals
from fanforge.refine import (
    Degenerate,
    GenericityExhausted,
    NotStrictlyConvex,
    PNotIndependent,
    covers_coarse_exactly,
    induced_wall_subdivisions_agree,
    interior_dual_point,
    qp_refinement,
    simplicial_refinement,
    strictly_convex_relative,
    supported_refinement,
    weighted_subdivision,
)
from fanforge.theorems import random_complete_fan, stellar_subdivide


def test_interior_dual_point_first_orthant():
    f = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
    assert interior_dual_point(f, f.max_cones[0]) == (1, 1, 1)


def test_interior_dual_point_square_cone():
    f = corpus.square_pyramid_fan()
    fat = next(c for c in f.max_cones if len(c.ray_indices) == 4)
    m = interior_dual_point(f, fat)
    # the four facet normals of the cone over the square sum along e3
    assert m[0] == 0 and m[1] == 0 and m[2] > 0


def test_weighted_subdivision_simplicial_identity():
    f = corpus.split_pyramid_fan()
    c = f.max_cones[0]
    m = interior_dual_point(f, c)
    w = [Fraction(1, 3)] * f.n_rays
    assert weighted_subdivision(f, c, m, w) == [c.ray_indices]


def test_weighted_subdivision_square_cone_diagonals():
    f = corpus.square_pyramid_fan()
    fat = next(c for c in f.max_cones if len(c.ray_indices) == 4)
    m = interior_dual_point(f, fat)
    w = [Fraction(1)] * 5
    w[1], w[2], w[3], w[4] = (
        Fraction(3, 4),
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(1, 2),
    )
    got = weighted_subdivision(f, fat, m, w)
    assert got in (
        [(1, 2, 4), (2, 3, 4)],  # split along Cone(rho2, rho4)
        [(1, 2, 3), (1, 3, 4)],  # split along Cone(rho1, rho3)
    )


def test_weighted_subdivision_equal_weights_degenerate():
    f = corpus.square_pyramid_fan()
    fat = next(c for c in f.max_cones if len(c.ray_indices) == 4)
    m = interior_dual_point(f, fat)
    with pytest.raises(Degenerate):
        weighted_subdivision(f, fat, m, [Fraction(2, 3)] * 5)


def slice_points(fan, cone, m, weights):
    """w_i * ray_i / <m, ray_i>: the weighted slice points of the cone."""
    return {
        i: vscale(Fraction(weights[i], vdot(m, fan.ray(i))), fan.ray(i))
        for i in cone.ray_indices
    }


def reference_weighted_subdivision(fan, cone, m, weights):
    """The non-origin facets of conv(0, weighted slice points), found by
    exhausting the hyperplanes through affinely independent n-subsets of
    the points; more than n points on a supporting hyperplane is
    Degenerate."""
    n = fan.dim
    idx = cone.ray_indices
    if len(idx) == n:
        return [tuple(idx)]
    pts = slice_points(fan, cone, m, weights)
    facets = set()
    for sub in itertools.combinations(idx, n):
        ker = kernel_basis([list(pts[t]) + [-1] for t in sub], n + 1)
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
            raise Degenerate(f"facet with {len(tight)} vertices in cone {idx}")
        facets.add(tight)
    out = sorted(facets)
    assert all(rank([fan.ray(i) for i in f]) == n for f in out)
    return out


def _subdivision_or_degenerate(subdivide, *args):
    try:
        return subdivide(*args)
    except Degenerate:
        return Degenerate


def _qp_slice_functionals(monkeypatch, fan):
    """The shifted cone functionals that qp_refinement slices the fan's
    cones with."""
    seen = []
    build = refine._build
    monkeypatch.setattr(
        refine, "_build", lambda f, s, dual_points, seed: seen.append(dual_points)
        or build(f, s, dual_points, seed)
    )
    qp_refinement(fan, (), is_quasi_projective(fan)[1], seed=0)
    monkeypatch.setattr(refine, "_build", build)
    return seen[0]


def test_weighted_subdivision_matches_subset_reference(monkeypatch):
    rng = random.Random(5)
    cube3 = corpus.cube_fan(3)
    fans = [cube3, corpus.cube_fan(4), corpus.square_pyramid_fan()]
    fans += [stellar_subdivide(cube3, k) for k in (0, 3)]
    fans.append(stellar_subdivide(fans[-1], 7))
    # the integer interior dual points, then the Fraction functionals of
    # the quasi-projective variant on the 3-cube, its stellar subdivisions
    # and the square pyramid
    slices = [(f, [interior_dual_point(f, c) for c in f.max_cones]) for f in fans]
    qp_fans = [f for f in fans if f.dim == 3]
    qp_fans += [stellar_subdivide(cube3, k) for k in (1, 2, 4, 5)]
    slices += [(f, _qp_slice_functionals(monkeypatch, f)) for f in qp_fans]
    compared = degenerate = qp = qp_degenerate = non_integer = 0
    for f, ms in slices:
        for cone, m in zip(f.max_cones, ms):
            if len(cone.ray_indices) == f.dim:
                continue
            draws = [
                [Fraction(rng.randrange(1, 10**6), 10**6) for _ in f.rays]
                for _ in range(3)
            ]
            draws += [
                [rng.choice((Fraction(1, 2), Fraction(2, 3), 1)) for _ in f.rays]
                for _ in range(3)
            ]
            for w in draws:
                got = _subdivision_or_degenerate(weighted_subdivision, f, cone, m, w)
                want = _subdivision_or_degenerate(
                    reference_weighted_subdivision, f, cone, m, w
                )
                assert got == want
                compared += 1
                degenerate += got is Degenerate
                if isinstance(m[0], Fraction):
                    qp += 1
                    qp_degenerate += got is Degenerate
                    non_integer += any(x.denominator != 1 for x in m)
    # 432 comparisons, 56 of them Degenerate: generic draws subdivide and
    # many coarse ones do not.  252 slice at the Fraction functionals of
    # the quasi-projective variant, 54 of them with a non-integer entry,
    # and 19 of those 252 are Degenerate
    assert compared >= 400 and 40 <= degenerate <= compared // 2
    assert qp >= 200 and non_integer >= 50 and 10 <= qp_degenerate <= qp // 2


def test_refinement_reproduces_split_pyramid():
    f31 = corpus.square_pyramid_fan()
    f21 = corpus.split_pyramid_fan()
    for seed in (0, 1, 17):
        r = simplicial_refinement(f31, (2, 4), seed=seed)
        assert fans_equal(r.fine, f21)
        assert r.weights.w[2] == 1 and r.weights.w[4] == 1


def test_refinement_other_diagonal():
    f31 = corpus.square_pyramid_fan()
    r = simplicial_refinement(f31, (1, 3), seed=0)
    assert sorted(c.ray_indices for c in r.fine.max_cones) == [
        (0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4), (1, 2, 3), (1, 3, 4),
    ]


def test_refining_simplicial_fan_is_identity():
    for f in (corpus.split_pyramid_fan(), corpus.polygon_fan(6)):
        r = simplicial_refinement(f, (), seed=3)
        assert fans_equal(r.fine, f)
        assert r.cone_map == tuple(range(len(f.max_cones)))


def test_dependent_support_rejected():
    # all four rays of the square cone are dependent inside it
    f31 = corpus.square_pyramid_fan()
    with pytest.raises(PNotIndependent):
        simplicial_refinement(f31, (1, 2, 3, 4), seed=0)
    # antipodal rays never share a cone, so per-cone independence holds
    f = corpus.polygon_fan(4)
    r = simplicial_refinement(f, (0, 2), seed=0)
    assert fans_equal(r.fine, f)


def _refine_inputs(seed):
    """The refine workload's input fans at the seed, from perfbench/workloads.py
    run as a script, so that nothing under perfbench/ is imported as a
    package or written."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    wl = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), wl.__dict__)
    return wl, wl.make_inputs("refine", seed)


def test_support_check_ranks_only_dependent_candidates(monkeypatch):
    # an empty support, or a support whose rays meet only simplicial cones,
    # needs no rank: a simplicial cone's rays are independent
    callers = []
    real = refine.rank
    monkeypatch.setattr(refine, "rank", lambda rows: callers.append(
        sys._getframe(1).f_code.co_name) or real(rows))
    wl, inputs = _refine_inputs(7)
    for k, (fan_id, f) in enumerate(inputs):
        out = wl.run_job("refine", k, fan_id, wl.fresh("refine", f), 7)
        assert wl.check("refine", out), fan_id
    assert len(inputs) >= 10 and "_check_support_independent" not in callers
    f = corpus.split_pyramid_fan()
    r = simplicial_refinement(f, f.max_cones[0].ray_indices, seed=0)
    assert fans_equal(r.fine, f) and "_check_support_independent" not in callers
    # all four rays of one cube cone are still found dependent
    cube = corpus.cube_fan(3)
    cone = next(c.ray_indices for c in cube.max_cones if len(c.ray_indices) == 4)
    with pytest.raises(PNotIndependent):
        simplicial_refinement(cube, cone, seed=0)
    assert callers and set(callers) == {"_check_support_independent"}


def test_supported_refinement_keeps_collection_primitive():
    f31 = corpus.square_pyramid_fan()
    r = supported_refinement(f31, (0, 2, 4), seed=5)
    assert fans_equal(r.fine, corpus.split_pyramid_fan())
    r = supported_refinement(f31, (0, 1, 3), seed=5)
    from fanforge.primcoll import enumerate_primitive_collections

    assert (0, 1, 3) in enumerate_primitive_collections(r.fine)


def test_qp_refinement_on_nonsimplicial_fan():
    f31 = corpus.square_pyramid_fan()
    ok, witness = is_quasi_projective(f31)
    assert ok
    r, phi = qp_refinement(f31, (), witness, seed=4)
    assert r.fine.is_simplicial
    assert strictly_convex_relative(phi, r)
    ok_fine, _ = is_quasi_projective(r.fine)
    assert ok_fine


def _qp_nonsimplicial_corpus():
    """The quasi-projective non-simplicial fans of the paper examples, the
    dimension-3 cube fan, its stellar subdivisions at one cone and 20
    seed-11 random fans, each with its witness."""
    rng = random.Random(11)
    cube3 = corpus.cube_fan(3)
    fans = [f for _, f in corpus.paper_examples()] + [cube3]
    fans += [stellar_subdivide(cube3, k) for k in range(6)]
    fans += [random_complete_fan(rng)[1] for _ in range(20)]
    out = []
    for f in fans:
        if not f.is_simplicial:
            ok, witness = is_quasi_projective(f)
            if ok:
                out.append((f, witness))
    return out


def test_qp_refinement_certifies_the_fine_fan_without_a_second_lp(monkeypatch):
    calls, certs = [], []
    solve, certify = lp.strict_feasible, refine._fine_certificate
    monkeypatch.setattr(
        lp, "strict_feasible", lambda *a: calls.append(a) or solve(*a)
    )
    monkeypatch.setattr(
        refine, "_fine_certificate", lambda *a: certs.append(certify(*a)) or certs[-1]
    )
    refined = 0
    for f, witness in _qp_nonsimplicial_corpus():
        for seed in range(3):
            calls.clear()
            r, _ = qp_refinement(f, (), witness, seed=seed)
            # the lift of the witness is the only LP
            assert len(calls) == 1
            cert = certs[-1]
            assert cert.fan is r.fine
            pl_from_cone_functionals(r.fine, cert.cone_functionals)
            assert is_strictly_convex(cert)
            # the certificate is not kept: the oracle still solves its LP
            calls.clear()
            assert is_quasi_projective(r.fine)[0]
            assert len(calls) == 1
            refined += 1
    assert refined == 39


def reference_build(fan, support, dual_points, seed):
    """refine._build with every attempt's cones glued and validated, also
    on a simplicial fan: (fine fan, cone map, weights, retries)."""
    rng = random.Random(seed)
    for attempt in range(refine.MAX_RETRIES):
        weights = refine._draw_weights(fan, support, rng, seed)
        fine_cones, cone_map = [], []
        try:
            for k, cone in enumerate(fan.max_cones):
                for sub in weighted_subdivision(fan, cone, dual_points[k], weights.w):
                    fine_cones.append(list(sub))
                    cone_map.append(k)
            fine = validate_fan(fan.dim, [list(r) for r in fan.rays], fine_cones)
        except (Degenerate, FanError):
            continue
        return fine, tuple(cone_map), weights, attempt
    raise GenericityExhausted


def test_simplicial_fan_is_its_own_refinement(monkeypatch):
    validated = []
    real = refine.validate_fan
    monkeypatch.setattr(
        refine, "validate_fan", lambda *a: validated.append(a) or real(*a)
    )
    rng = random.Random(7)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [random_complete_fan(rng)[1] for _ in range(25)]
    fans += [corpus.cross_fan(4), corpus.square_pyramid_fan(), corpus.cube_fan(3)]
    simplicial = qp = 0
    for k, f in enumerate(fans):
        support = (0, 1) if k % 2 else ()
        dual_points = [interior_dual_point(f, c) for c in f.max_cones]
        validated.clear()
        r = simplicial_refinement(f, support, seed=k)
        fine, cone_map, weights, retries = reference_build(
            f, support, dual_points, k
        )
        assert fans_equal(r.fine, fine)
        assert (r.cone_map, r.weights, r.retries) == (cone_map, weights, retries)
        if f.is_simplicial:
            assert r.fine is f and validated == []
            simplicial += 1
            ok, witness = is_quasi_projective(f)
            if ok:
                rq, phi = qp_refinement(f, support, witness, seed=k)
                assert rq.fine is f and phi.fan is f and validated == []
                assert strictly_convex_relative(phi, rq)
                qp += 1
        else:
            # ex31 and the 3-cube still validate once per attempt
            assert len(validated) == r.retries + 1
    # the 26 simplicial fans of the verification suite and the 4-cross
    assert simplicial == 27 and qp == 26


def test_qp_refinement_identity_on_simplicial():
    f = corpus.split_pyramid_fan()
    ok, witness = is_quasi_projective(f)
    r, phi = qp_refinement(f, (), witness, seed=2)
    assert fans_equal(r.fine, f)


def test_qp_refinement_requires_strict_witness():
    f31 = corpus.square_pyramid_fan()
    from fanforge.plfun import pl_basis

    zero = pl_basis(f31).combine(f31, [0] * pl_basis(f31).dim_pl)
    with pytest.raises(NotStrictlyConvex):
        qp_refinement(f31, (), zero, seed=0)


def test_qp_refinement_strict_across_new_wall():
    # inside the subdivided square cone the function is strictly superadditive
    # for points of distinct fine cones
    f31 = corpus.square_pyramid_fan()
    ok, witness = is_quasi_projective(f31)
    r, phi = qp_refinement(f31, (2, 4), witness, seed=9)
    assert fans_equal(r.fine, corpus.split_pyramid_fan())
    u = vec(f31.ray(1))
    v = vec(f31.ray(3))
    s = vec(a + b for a, b in zip(u, v))
    assert phi.value(u) + phi.value(v) > phi.value(s)


def _union_convex(fine, wall, cone_a, cone_b):
    gens = sorted(set(cone_a.ray_indices) | set(cone_b.ray_indices))
    hull = v_to_h(VCone.make([fine.ray(i) for i in gens], fine.dim))
    normal = kernel_basis([fine.ray(i) for i in wall.ray_indices], fine.dim)[0]
    side_a = HCone.make([normal], ambient_dim=fine.dim)
    if not all(side_a.contains_point(fine.ray(i)) for i in cone_a.ray_indices):
        normal = vec(-x for x in normal)
        side_a = HCone.make([normal], ambient_dim=fine.dim)
    side_b = HCone.make([vec(-x for x in normal)], ambient_dim=fine.dim)
    return cones_equal(
        intersect_hcones(hull, side_a), cone_a.facets
    ) and cones_equal(intersect_hcones(hull, side_b), cone_b.facets)


def test_refinement_property_suite_random_fans():
    rng = random.Random(99)
    seen_nonsimplicial = False
    for k in range(12):
        name, f = random_complete_fan(rng)
        seen_nonsimplicial |= not f.is_simplicial
        r = simplicial_refinement(f, (), seed=k)
        fine = r.fine
        assert fine.is_simplicial
        assert fine.rays == f.rays
        assert covers_coarse_exactly(r)
        assert induced_wall_subdivisions_agree(r)
        # pieces of one coarse cone joined along a fine wall stay convex
        for w in fine.interior_walls:
            a, b = w.cone_indices
            if r.cone_map[a] == r.cone_map[b]:
                assert _union_convex(
                    fine, w, fine.max_cones[a], fine.max_cones[b]
                )
    assert seen_nonsimplicial


def test_property_a_on_cube_fan():
    f = corpus.cube_fan(3)
    # two adjacent corners of one face: independent in every cone they meet
    support = (0, 1)
    r = simplicial_refinement(f, support, seed=1)
    assert tuple(sorted(support)) in r.fine.faces


def _all_ones_draws(monkeypatch, how_many):
    """Make the first how_many weight draws all-ones, a degenerate draw on
    the cube fan; later draws are the seeded ones."""
    draw = refine._draw_weights
    drawn = []

    def patched(fan, support, rng, seed):
        w = draw(fan, support, rng, seed)
        drawn.append(w)
        return refine.WeightAssignment((1,) * fan.n_rays, seed) if len(drawn) <= how_many else w

    monkeypatch.setattr(refine, "_draw_weights", patched)
    return drawn


def test_refinement_retries_a_degenerate_draw(monkeypatch):
    f = corpus.cube_fan(3)
    # equal weights lift every square facet's four corners onto one plane
    with pytest.raises(Degenerate):
        weighted_subdivision(f, f.max_cones[0], interior_dual_point(f, f.max_cones[0]),
                             (1,) * f.n_rays)
    drawn = _all_ones_draws(monkeypatch, 1)
    r = simplicial_refinement(f, (), seed=0)
    assert r.retries == 1 and len(drawn) == 2
    assert r.weights == drawn[1]
    assert r.fine.is_simplicial and r.fine.rays == f.rays
    assert covers_coarse_exactly(r) and induced_wall_subdivisions_agree(r)
    fine = validate_fan(f.dim, f.rays, [c.ray_indices for c in r.fine.max_cones])
    assert fans_equal(fine, r.fine)


def test_refinement_gives_up_after_only_degenerate_draws(monkeypatch):
    drawn = _all_ones_draws(monkeypatch, refine.MAX_RETRIES)
    with pytest.raises(GenericityExhausted):
        simplicial_refinement(corpus.cube_fan(3), (), seed=0)
    assert len(drawn) == refine.MAX_RETRIES


def test_each_new_fine_cone_is_eliminated_once(monkeypatch):
    # weighted_subdivision checks no rank: validate_fan's _inverse_cone is
    # the one elimination of each new fine cone's rays, as rows or columns
    seen = []
    for mod in (linalg, fanmod, plfun):
        real = mod._eliminate
        monkeypatch.setattr(mod, "_eliminate", lambda rows, real=real: seen.append(
            [tuple(r) for r in rows]) or real(rows))
    f = corpus.cube_fan(3)
    _, witness = is_quasi_projective(f)
    coarse = {c.ray_indices for c in f.max_cones}
    for refinement in (lambda: simplicial_refinement(f, (), seed=0),
                       lambda: qp_refinement(f, (), witness, seed=0)[0]):
        seen.clear()
        r = refinement()
        assert r.retries == 0
        new = [c.ray_indices for c in r.fine.max_cones if c.ray_indices not in coarse]
        assert len(new) == 12
        for idx in new:
            rays = [f.ray(i) for i in idx]
            as_rows = [m for m in seen if m[:len(idx)] == [tuple(v) for v in rays]]
            as_columns = [m for m in seen if [tuple(x[:len(idx)]) for x in m]
                          == [tuple(v[e] for v in rays) for e in range(f.dim)]]
            assert (len(as_rows), len(as_columns)) == (0, 1), idx


def test_a_dependent_fine_cone_is_no_retry(monkeypatch):
    # a fine cone that is not full-dimensional is a fault, not a draw to
    # retry: _build raises RuntimeError and returns no fan
    f = corpus.cube_fan(3)
    i = 0
    j = f.rays.index(tuple(-x for x in f.ray(i)))
    real = refine.weighted_subdivision

    def dependent(fan, cone, m, weights):
        if cone is not fan.max_cones[0]:
            return real(fan, cone, m, weights)
        return [(i, j, next(k for k in cone.ray_indices if k not in (i, j)))]

    monkeypatch.setattr(refine, "weighted_subdivision", dependent)
    with pytest.raises(RuntimeError, match="not full-dimensional"):
        simplicial_refinement(f, (), seed=0)


def test_qp_refinement_rejects_a_function_of_another_fan():
    f = corpus.square_pyramid_fan()
    ok, phi = is_quasi_projective(corpus.split_pyramid_fan())
    assert ok
    with pytest.raises(ValueError, match="phi must live on the fan being refined"):
        qp_refinement(f, (), phi)
