import copy
import random
from fractions import Fraction

import pytest

from fanforge import cones, corpus, lp, primcoll, theorems
from fanforge.cones import HCone, VCone, cone_contains, cones_equal, h_to_v
from fanforge.fan import fan_from_json_obj
from fanforge.linalg import kernel_basis, rank, solve_linear, vsum
from fanforge.mori import extremal_walls, mori_cone, positively_proportional, relation_dense
from fanforge.plfun import is_quasi_projective, pl_basis, type_a_pairs, wall_rows
from fanforge.primcoll import primitive_relation, primitive_rows
from fanforge.refine import simplicial_refinement
from fanforge.theorems import (
    EVIDENCE,
    FAILS,
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


def test_extremal_primitive_looks_up_the_fans_relations(monkeypatch):
    rng = random.Random(7)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [random_complete_fan(rng)[1] for _ in range(10)]
    calls = []
    solve = primcoll.primitive_relation
    monkeypatch.setattr(
        primcoll, "primitive_relation", lambda *a: calls.append(a) or solve(*a)
    )
    looked_up = 0
    for f in fans:
        calls.clear()
        check_main_theorem(f)
        relations = primcoll.primitive_relations(f)
        # one relation per collection, in enumeration order, each solved once
        assert list(relations) == primcoll.enumerate_primitive_collections(f)
        assert [a[1] for a in calls] == list(relations)
        assert all(relations[p] == solve(f, p) for p in relations)
        calls.clear()
        r = check_extremal_primitive(f)
        assert r.verdict in PASSING and verify_certificates(r)
        assert calls == []
        looked_up += len(r.certificates.get("proportional", []))
    assert looked_up > 20


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


def test_type_a_description_of_a_simplicial_fan_matches_the_eliminations():
    rng = random.Random(7)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [random_complete_fan(rng)[1] for _ in range(25)] + [corpus.cross_fan(4)]
    simplicial = [f for f in fans if f.is_simplicial]
    assert len(simplicial) == 27
    for f in simplicial:
        r = simplicial_refinement(f, (), seed=7)
        assert r.fine is f and not type_a_pairs(f, f)
        # the eliminations the check skips when the fan is its own refinement
        cut = kernel_basis([], f.n_rays)
        pull = pl_basis(f).ray_values
        dims = [rank(cut), rank(pull), rank(list(cut) + list(pull))]
        assert dims == [f.n_rays] * 3
        assert check_type_a_description(f, r).certificates["dims"] == dims


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


def reference_membership_certificates(inner, outer, certs):
    """One membership LP per generator of inner, with no lookup: the loop
    that _membership_certificates ran before it looked generators up."""
    outer_strs = [[str(x) for x in og] for og in outer.generators]
    for g in inner.generators:
        ok, coeffs = cone_contains(outer, g)
        if not ok:
            return g
        certs.append(
            {
                "target": [str(x) for x in g],
                "generators": outer_strs,
                "coeffs": [str(c) for c in coeffs],
            }
        )
    return None


def _lookup_fans():
    rng = random.Random(11)
    fans = corpus.paper_examples()
    fans += [(f"cross{d}", corpus.cross_fan(d)) for d in (3, 4)]
    fans += [(f"cube{d}", corpus.cube_fan(d)) for d in (3, 4)]
    fans += [random_complete_fan(rng) for _ in range(20)]
    return fans


def _has_proportional_generator(target, gens) -> bool:
    return any(positively_proportional(g, target) for g in gens)


def test_membership_lookup_matches_lp_reference(monkeypatch):
    lp_targets = []

    def counting(c, x):
        lp_targets.append((c.generators, x))
        return cone_contains(c, x)

    looked_up = differ = 0
    for name, f in _lookup_fans():
        lp_targets.clear()
        monkeypatch.setattr(theorems, "cone_contains", counting)
        new = check_main_theorem(f, name)
        monkeypatch.undo()
        monkeypatch.setattr(
            theorems, "_membership_certificates", reference_membership_certificates
        )
        ref = check_main_theorem(f, name)
        monkeypatch.undo()
        assert (new.verdict, new.details) == (ref.verdict, ref.details), name
        assert new.certificates.get("counterexample") == ref.certificates.get(
            "counterexample"
        )
        assert verify_certificates(new) and verify_certificates(ref), name
        # the LP runs exactly for the targets no outer generator is
        # positively proportional to
        assert all(not _has_proportional_generator(x, gens) for gens, x in lp_targets)
        certs = new.certificates["memberships"]
        assert len(certs) == len(ref.certificates["memberships"])
        proportional = [
            _has_proportional_generator(
                [Fraction(x) for x in m["target"]],
                [[Fraction(x) for x in g] for g in m["generators"]],
            )
            for m in certs
        ]
        assert len(lp_targets) == proportional.count(False), name
        looked_up += proportional.count(True)
        differ += sum(
            a["coeffs"] != b["coeffs"]
            for a, b in zip(certs, ref.certificates["memberships"])
        )
    assert looked_up >= 500 and differ > 0


def _ex21_main():
    r = check_main_theorem(corpus.split_pyramid_fan(), "ex21")
    assert r.verdict == HOLDS and verify_certificates(r)
    return copy.deepcopy(r)


def _tamper_short_generator(certs):
    m = certs["memberships"][0]
    m["generators"] = [g[:-1] if k == 0 else g for k, g in enumerate(m["generators"])]


def _tamper_bad_coefficient(certs):
    certs["memberships"][0]["coeffs"][0] = "x"


def _tamper_drop_zero_coefficient(certs):
    # dropping a coefficient that is 0 leaves the sum unchanged
    m = next(m for m in certs["memberships"] if m["coeffs"][-1] == "0")
    m["coeffs"] = m["coeffs"][:-1]


def _tamper_short_target(certs):
    m = certs["memberships"][0]
    m["target"] = m["target"][:-1]


@pytest.mark.parametrize("tamper", [
    _tamper_short_generator,
    _tamper_bad_coefficient,
    _tamper_drop_zero_coefficient,
    _tamper_short_target,
    lambda certs: certs.clear(),
    lambda certs: certs.update(memberships=None),
], ids=["short-generator", "bad-coefficient", "dropped-zero-coefficient",
        "short-target", "emptied", "not-a-list"])
def test_malformed_membership_certificates_fail_closed(tamper):
    r = _ex21_main()
    tamper(r.certificates)
    assert verify_certificates(r) is False


def test_evidence_report_needs_memberships():
    r = check_main_theorem(corpus.fulton_fan(), "fulton")
    assert r.verdict == EVIDENCE and verify_certificates(r)
    del r.certificates["memberships"]
    assert not verify_certificates(r)


@pytest.mark.parametrize("tamper", [
    lambda certs: certs.clear(),
    lambda certs: certs["proportional"][0].update(scale="1/0"),
    lambda certs: certs["proportional"][0].update(
        u=certs["proportional"][0]["u"][:-1]
    ),
], ids=["emptied", "zero-denominator", "short-u"])
def test_malformed_proportional_certificates_fail_closed(tamper):
    r = check_extremal_primitive(corpus.split_pyramid_fan(), "ex21")
    assert verify_certificates(r)
    tamper(r.certificates)
    assert verify_certificates(r) is False


def test_tampered_lookup_certificate_fails_verification():
    r = _ex21_main()
    i, m = next(
        (i, m) for i, m in enumerate(r.certificates["memberships"])
        if m["target"] in m["generators"]
    )
    n = len(m["coeffs"])
    k = m["generators"].index(m["target"])
    assert m["coeffs"] == ["1" if j == k else "0" for j in range(n)]
    for coeffs in (
        ["2" if j == k else "0" for j in range(n)],
        ["1" if j == (k + 1) % n else "0" for j in range(n)],
    ):
        bad = copy.deepcopy(r)
        bad.certificates["memberships"][i]["coeffs"] = coeffs
        assert not verify_certificates(bad)


def reference_check_main_theorem(fan, fan_id="fan"):
    """Both halves of the main theorem, each solved: the nef cones cut out by
    the wall rows and by the primitive rows, converted by double
    description, and then the Mori cone against the primitive classes.  The
    check check_main_theorem ran before it certified the Mori half alone."""
    basis = pl_basis(fan)
    qp, _ = is_quasi_projective(fan)
    d = basis.dim_pic
    prim_rows = primitive_rows(fan, basis)
    walls_h = HCone.make(wall_rows(fan, basis), (), d)
    prim_h = HCone.make(prim_rows, (), d)
    certs = []
    bad = theorems._cones_equal_certified(h_to_v(walls_h), h_to_v(prim_h), certs)
    if bad is None:
        mc = mori_cone(fan, basis)
        bad = theorems._cones_equal_certified(mc.cone, VCone.make(prim_rows, d), certs)
    if bad is not None:
        return theorems.TheoremReport(
            "main-cone-equality", fan_id, FAILS,
            f"cone equality fails at generator {[str(x) for x in bad]}",
            {"counterexample": [str(x) for x in bad]},
        )
    details = "wall and primitive descriptions agree" + (
        "" if qp else " (fan not quasi-projective: conjecture evidence only)"
    )
    return theorems.TheoremReport(
        "main-cone-equality", fan_id, HOLDS if qp else EVIDENCE, details,
        {"memberships": certs},
    )


def test_main_theorem_matches_two_half_reference():
    verdicts = set()
    for name, f in _lookup_fans():
        new = check_main_theorem(f, name)
        ref = reference_check_main_theorem(f, name)
        assert (new.verdict, new.details) == (ref.verdict, ref.details), name
        assert verify_certificates(new), name
        # one proportional entry per interior wall, each tying the wall's
        # row to its class
        basis = pl_basis(f)
        mc = mori_cone(f, basis)
        bridge = new.certificates["proportional"]
        assert len(bridge) == len(f.interior_walls) == len(mc.classes)
        for p, row, cls in zip(bridge, wall_rows(f, basis), mc.classes):
            assert p["u"] == [str(x) for x in row]
            assert p["v"] == [str(x) for x in cls]
        verdicts.add(new.verdict)
    assert verdicts == {HOLDS, EVIDENCE}


@pytest.mark.parametrize("r", [15, 16, 20])
def test_main_theorem_beyond_the_double_description_guard(monkeypatch, r):
    # ex22(r) has Picard rank r - 2, above the guard of 12 double
    # description keeps; the theorem runs none in Picard space
    f = corpus.polygon_fan(r)
    dims = []
    real = cones.double_description

    def counting(equalities, inequalities, dim):
        dims.append(dim)
        return real(equalities, inequalities, dim)

    # h_to_v and v_to_h look double_description up in cones
    monkeypatch.setattr(cones, "double_description", counting)
    rep = check_main_theorem(f, f"ex22({r})")
    assert pl_basis(f).dim_pic == r - 2 > cones.MAX_DIM
    assert rep.verdict == HOLDS and verify_certificates(rep)
    assert len(rep.certificates["proportional"]) == r
    assert all(d <= f.dim for d in dims)


def _scale_one_u(certs):
    p = certs["proportional"][0]
    p["u"] = [str(2 * Fraction(x)) for x in p["u"]]


@pytest.mark.parametrize("tamper", [
    lambda certs: certs.pop("proportional"),
    _scale_one_u,
    lambda certs: certs["proportional"][0].update(scale="0"),
], ids=["dropped", "scaled-u", "zero-scale"])
@pytest.mark.parametrize("fan_id", ["ex21", "fulton"])
def test_main_theorem_needs_its_wall_class_bridge(tamper, fan_id):
    r = check_main_theorem(corpus.corpus_fan(fan_id), fan_id)
    assert r.verdict in (HOLDS, EVIDENCE) and verify_certificates(r)
    tamper(r.certificates)
    assert verify_certificates(r) is False
