import random

import pytest

from fanforge import corpus, lp
from fanforge.cones import HCone, cones_equal
from fanforge.fan import fan_from_json_obj
from fanforge.linalg import kernel_basis, rank, solve_linear, vsum
from fanforge.mori import extremal_walls, mori_cone, relation_dense
from fanforge.plfun import is_quasi_projective, pl_basis, type_a_pairs, wall_rows
from fanforge.primcoll import primitive_relation, primitive_rows
from fanforge.refine import simplicial_refinement
from fanforge.theorems import (
    EVIDENCE,
    HOLDS,
    INAPPLICABLE,
    PASSING,
    check_extremal_primitive,
    check_main_theorem,
    check_reid_all_walls,
    check_reid_conditions,
    check_type_a_description,
    random_complete_fan,
    run_paper_suite,
    stellar_subdivide,
    verify_certificates,
)


def wall_by_rays(fan, rays):
    return next(w for w in fan.interior_walls if w.ray_indices == tuple(rays))


def test_main_theorem_split_pyramid():
    r = check_main_theorem(corpus.split_pyramid_fan(), "ex21")
    assert r.verdict == HOLDS
    assert verify_certificates(r)


def test_main_theorem_square_pyramid_single_inequality_suffices():
    f = corpus.square_pyramid_fan()
    r = check_main_theorem(f, "ex31")
    assert r.verdict == HOLDS
    basis = pl_basis(f)
    walls_h = HCone.make(wall_rows(f, basis), (), basis.dim_pic)
    for row in primitive_rows(f, basis):
        single = HCone.make([row], (), basis.dim_pic)
        assert cones_equal(single, walls_h)


def test_main_theorem_fulton_is_evidence_only():
    r = check_main_theorem(corpus.fulton_fan(), "fulton")
    assert r.verdict == EVIDENCE
    assert verify_certificates(r)


def test_extremal_primitive_split_pyramid():
    r = check_extremal_primitive(corpus.split_pyramid_fan(), "ex21")
    assert r.verdict == HOLDS
    assert len(r.certificates["proportional"]) == 7
    assert verify_certificates(r)


def test_extremal_primitive_inapplicable_cases():
    assert check_extremal_primitive(corpus.square_pyramid_fan()).verdict == INAPPLICABLE
    assert check_extremal_primitive(corpus.fulton_fan()).verdict == INAPPLICABLE


def test_reid_conditions_top_wall():
    f = corpus.split_pyramid_fan()
    r = check_reid_conditions(f, wall_by_rays(f, (2, 4)), "ex21")
    assert r.verdict == HOLDS
    # dropping each positive ray leaves the two top cones
    assert sorted(r.certificates["deltas"]) == [[1, 2, 4], [2, 3, 4]]


def test_reid_conditions_nonextremal_wall_inapplicable():
    f = corpus.split_pyramid_fan()
    r = check_reid_conditions(f, wall_by_rays(f, (0, 2)), "ex21")
    assert r.verdict == INAPPLICABLE


def test_reid_conditions_2d():
    f = corpus.polygon_fan(4)
    for w in f.interior_walls:
        r = check_reid_conditions(f, w)
        assert r.verdict == HOLDS
        assert len(r.certificates["deltas"]) == 2


def test_reid_all_walls_aggregate():
    assert check_reid_all_walls(corpus.split_pyramid_fan()).verdict == HOLDS
    assert check_reid_all_walls(corpus.fulton_fan()).verdict == INAPPLICABLE


def test_reid_all_walls_derives_fan_invariants_once(monkeypatch):
    f = corpus.split_pyramid_fan()
    solves = []
    solve = lp.strict_feasible

    def counting(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(lp, "strict_feasible", counting)
    r = check_reid_all_walls(f, "ex21")
    assert r.verdict == HOLDS
    assert len(r.certificates["walls"]) > 1
    # one quasi-projectivity LP for the fan, not one per extremal wall
    assert len(solves) == 1
    assert pl_basis(f) is pl_basis(f)

    # the kept invariants equal those of a fresh, re-validated copy
    g = fan_from_json_obj(f.to_json_obj())
    (qp_f, phi_f), (qp_g, phi_g) = is_quasi_projective(f), is_quasi_projective(g)
    assert qp_f and qp_g and phi_f.cone_functionals == phi_g.cone_functionals
    assert mori_cone(f, pl_basis(f)) == mori_cone(g, pl_basis(g))
    assert extremal_walls(f, pl_basis(f)) == extremal_walls(g, pl_basis(g))
    walls = extremal_walls(f, pl_basis(f))
    assert walls is not extremal_walls(f, pl_basis(f))
    # an invariant is kept once per fan, in the fan's own basis only
    with pytest.raises(ValueError):
        mori_cone(f, pl_basis(g))
    with pytest.raises(ValueError):
        extremal_walls(f, pl_basis(g))


def test_type_a_description_square_pyramid():
    coarse = corpus.square_pyramid_fan()
    r = simplicial_refinement(coarse, (2, 4), seed=0)
    rep = check_type_a_description(coarse, r, "ex31")
    assert rep.verdict == HOLDS
    # codimension one inside the 5-dimensional fine function space
    assert rep.certificates["dims"] == [4, 4, 4]


def test_type_a_description_identity_refinement():
    f = corpus.split_pyramid_fan()
    r = simplicial_refinement(f, (), seed=0)
    rep = check_type_a_description(f, r, "ex21")
    assert rep.verdict == HOLDS
    assert rep.certificates["dims"] == [5, 5, 5]


def test_type_a_description_random_nonsimplicial():
    rng = random.Random(5)
    found = 0
    while found < 3:
        name, f = random_complete_fan(rng)
        if f.is_simplicial:
            continue
        found += 1
        r = simplicial_refinement(f, (), seed=found)
        rep = check_type_a_description(f, r, name)
        assert rep.verdict == HOLDS


def reference_type_a_rows(fine, coarse):
    """The additivity equality of each type-A pair (i, j), solved by hand:
    e_i + e_j minus the coordinates of ray_i + ray_j over the rays of the
    first maximal cone of the simplicial refinement containing it."""
    rows = []
    for i, j in type_a_pairs(fine, coarse):
        x = vsum([fine.ray(i), fine.ray(j)], fine.dim)
        _, cone = fine.max_cone_containing(x)
        lam = solve_linear(
            [[fine.ray(t)[d] for t in cone.ray_indices] for d in range(fine.dim)], x
        )
        row = [0] * fine.n_rays
        row[i] += 1
        row[j] += 1
        for t, l in zip(cone.ray_indices, lam):
            row[t] -= l
        rows.append(tuple(row))
    return rows


def test_type_a_rows_are_primitive_relations():
    rng = random.Random(11)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [corpus.cross_fan(d) for d in (3, 4)] + [corpus.cube_fan(d) for d in (3, 4)]
    fans += [random_complete_fan(rng)[1] for _ in range(20)]
    pairs = empty = 0
    for coarse in fans:
        r = simplicial_refinement(coarse, (), seed=0)
        fine = r.fine
        ref = reference_type_a_rows(fine, coarse)
        rows = [
            relation_dense(fine, primitive_relation(fine, p).relation)
            for p in type_a_pairs(fine, coarse)
        ]
        assert rows == ref
        # with no pair the cut subspace is the whole fine function space
        cut = kernel_basis(ref, fine.n_rays) if ref else [
            tuple(int(t == s) for t in range(fine.n_rays)) for s in range(fine.n_rays)
        ]
        pull = pl_basis(coarse).ray_values
        dims = [rank(cut), rank(pull), rank(list(cut) + list(pull))]
        assert check_type_a_description(coarse, r).certificates["dims"] == dims
        pairs += len(ref)
        empty += not ref
    assert pairs >= 50 and empty >= 10


def test_stellar_subdivision_keeps_validity():
    f = corpus.cube_fan(3)
    g = stellar_subdivide(f, 0)
    assert g.n_rays == f.n_rays + 1
    assert g.is_complete


def test_run_paper_suite_all_passing():
    reports = run_paper_suite(seed=1, random_fans=3)
    assert reports
    assert all(r.verdict in PASSING for r in reports)
    assert all(verify_certificates(r) for r in reports)
    # conjecture mode: the non-projective fan never reports "holds" for the
    # cone identity
    fulton = [r for r in reports if r.fan_id == "fulton" and r.theorem == "main-cone-equality"]
    assert fulton and fulton[0].verdict == EVIDENCE


def test_run_paper_suite_empty_corpus():
    assert run_paper_suite(fans=[]) == []


def test_tampered_certificates_fail_verification():
    r = check_main_theorem(corpus.split_pyramid_fan(), "ex21")
    assert verify_certificates(r)
    r.certificates["memberships"][0]["coeffs"][0] = "99"
    assert not verify_certificates(r)
