import copy
import dataclasses
import json
import random
import types
from fractions import Fraction

import pytest

from fanforge import cli, cones, corpus, lp, mori, plfun, primcoll, theorems
from fanforge.cones import HCone, VCone, cone_contains, cones_equal, h_to_v
from fanforge.fan import fan_from_json_obj
from fanforge.linalg import kernel_basis, primitivize, rank, solve_linear, vsum
from fanforge.mori import extremal_walls, mori_cone, positively_proportional, relation_dense
from fanforge.mori import wall_relation
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
    run_check,
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


def test_merged_fulton_fans_are_not_quasi_projective():
    # non-simplicial fans on the "no" branch of both quasi-projectivity routes
    merged = merged_fulton_fans()
    assert [[c.ray_indices for c in f.max_cones if len(c.ray_indices) > 3] for _, f in merged] == [
        [(0, 2, 4, 5)], [(0, 1, 5, 6)], [(1, 2, 4, 6)]]
    for name, f in merged:
        assert not is_quasi_projective(f)[0], name
        assert not plfun._relation_quasi_projective(f), name
        reports = run_paper_suite(fans=[(name, f)], seed=7)
        assert all(verify_certificates(r) for r in reports), name
        assert [(r.theorem, r.verdict, r.details) for r in reports] == [
            ("extremal-positive-support", INAPPLICABLE, "fan not simplicial"),
            ("main-cone-equality", EVIDENCE,
             "wall and primitive descriptions agree"
             " (fan not quasi-projective: conjecture evidence only)"),
            ("reid-conditions", INAPPLICABLE, "not simplicial"),
            ("type-a-subspace", HOLDS, reports[3].details),
        ], name
        assert "functions" in reports[1].certificates, name


def test_picard_rank_zero_fan_is_pointed_but_not_quasi_projective():
    # every wall row of the moved-vertex cube fan is zero: no point pairs
    # positively with them, yet no nonzero class keeps the Mori cone from
    # being pointed
    f = moved_vertex_cube_fan()
    rc = plfun._relation_coordinates(f)
    assert rc.dim == 0 and rc.rows == ((),) * 12
    assert not is_quasi_projective(f)[0]
    assert not plfun._relation_quasi_projective(f)
    assert mori_cone(f, pl_basis(f)).is_pointed
    reports = run_paper_suite(fans=[("moved-vertex", f)], seed=7)
    assert all(verify_certificates(r) for r in reports)
    assert [(r.theorem, r.verdict, r.details) for r in reports] == [
        ("extremal-positive-support", INAPPLICABLE, "fan not simplicial"),
        ("main-cone-equality", EVIDENCE,
         "wall and primitive descriptions agree"
         " (fan not quasi-projective: conjecture evidence only)"),
        ("reid-conditions", INAPPLICABLE, "not simplicial"),
        ("type-a-subspace", HOLDS, "cut subspace dim 3, pullback dim 3, joint 3"),
    ]


def test_pointedness_and_quasi_projectivity_share_one_relation_lp(monkeypatch):
    # the Mori cone's pointedness and quasi-projectivity in relation
    # coordinates read one LP over the nonzero wall rows; the other LP is
    # is_quasi_projective's over the Picard rows
    fans = [("fulton", corpus.fulton_fan()), *merged_fulton_fans(), ("moved", moved_vertex_cube_fan())]
    calls = []
    solve = lp.strict_feasible
    monkeypatch.setattr(lp, "strict_feasible", lambda *a: calls.append(a) or solve(*a))
    for name, f in fans:
        calls.clear()
        assert not is_quasi_projective(f)[0], name
        mori_cone(f, pl_basis(f))
        assert check_main_theorem(f, name).verdict == EVIDENCE, name
        assert len(calls) == 2, name


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


def test_type_a_check_solves_no_lp(monkeypatch):
    # the check reads the coarse fan's K alone, not its quasi-projectivity
    calls = []
    solve = lp.strict_feasible
    monkeypatch.setattr(lp, "strict_feasible", lambda *a: calls.append(a) or solve(*a))
    r = run_check("type-a-subspace", corpus.square_pyramid_fan(), "ex31")
    assert r.verdict == HOLDS
    assert calls == []


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
    m = r.certificates["memberships"][0]
    m["coeffs"] = (99, *m["coeffs"][1:])
    assert not verify_certificates(r)


def _global_names(code):
    """The names code and the code nested in it (comprehensions, lambdas)
    look up in their globals or as attributes."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _global_names(const)


def test_checker_uses_no_solver_module():
    # the checker and the theorems helpers it calls resolve no name to an
    # object of a solver module, whatever they import
    solvers = {"fanforge.lp", "fanforge.cones", "fanforge.linalg", "fanforge.plfun"}
    todo = [theorems.verify_certificates, theorems._membership_holds,
            theorems._proportional_holds]
    seen = set()
    while todo:
        fn = todo.pop()
        seen.add(fn)
        for name in _global_names(fn.__code__):
            obj = vars(theorems).get(name)
            if obj is None:
                continue
            where = obj.__name__ if isinstance(obj, types.ModuleType) else getattr(
                obj, "__module__", None)
            assert where not in solvers, (fn.__name__, name, where)
            if isinstance(obj, types.FunctionType) and where == theorems.__name__ \
                    and obj not in seen:
                todo.append(obj)
    assert theorems._exact in seen


def reference_membership_certificates(inner, outer, certs):
    """One membership LP per generator of inner, with no lookup: the loop
    that _membership_certificates ran before it looked generators up."""
    for g in inner.generators:
        ok, coeffs = cone_contains(outer, g)
        if not ok:
            return g
        certs.append({"target": g, "generators": outer.generators, "coeffs": tuple(coeffs)})
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
    m = certs["memberships"][0]
    m["coeffs"] = ("x", *m["coeffs"][1:])


def _lookup_membership(certs):
    """A membership whose target is one of its generators, so that its
    coefficients are 1 there and 0 elsewhere."""
    return next(m for m in certs["memberships"] if m["target"] in m["generators"])


def _tamper_float_coefficient(certs):
    # 1.0 and 0.0 sum to the target as 1 and 0 do, but are not exact numbers
    m = _lookup_membership(certs)
    m["coeffs"] = tuple(float(c) for c in m["coeffs"])


def _tamper_bool_coefficient(certs):
    # True and False sum to the target as 1 and 0 do, but are not numbers
    m = _lookup_membership(certs)
    m["coeffs"] = tuple(c == 1 for c in m["coeffs"])


def _tamper_drop_zero_coefficient(certs):
    # dropping a coefficient that is 0 leaves the sum unchanged
    m = next(m for m in certs["memberships"] if m["coeffs"][-1] == 0)
    m["coeffs"] = m["coeffs"][:-1]


def _tamper_short_target(certs):
    m = certs["memberships"][0]
    m["target"] = m["target"][:-1]


@pytest.mark.parametrize("tamper", [
    _tamper_short_generator,
    _tamper_bad_coefficient,
    _tamper_float_coefficient,
    _tamper_bool_coefficient,
    _tamper_drop_zero_coefficient,
    _tamper_short_target,
    lambda certs: certs.clear(),
    lambda certs: certs.update(memberships=None),
], ids=["short-generator", "bad-coefficient", "float-coefficient", "bool-coefficient",
        "dropped-zero-coefficient",
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


def _tamper_zero_u_zero_scale(certs):
    # u = 0 v holds entry by entry, but 0 is no positive scale
    p = certs["proportional"][0]
    p.update(u=(0,) * len(p["u"]), scale=0)


def _tamper_negated_v_and_scale(certs):
    # u = (-s)(-v) holds entry by entry, but -s is no positive scale
    p = certs["proportional"][0]
    p.update(v=tuple(-x for x in p["v"]), scale=-p["scale"])


@pytest.mark.parametrize("tamper", [
    lambda certs: certs.clear(),
    lambda certs: certs["proportional"][0].update(scale=0),
    lambda certs: certs["proportional"][0].update(scale=-1),
    _tamper_zero_u_zero_scale,
    _tamper_negated_v_and_scale,
    lambda certs: certs["proportional"][0].update(
        u=tuple(float(x) for x in certs["proportional"][0]["u"])
    ),
    lambda certs: certs["proportional"][0].update(
        u=certs["proportional"][0]["u"][:-1]
    ),
], ids=["emptied", "zero-scale", "negative-scale", "zero-u-zero-scale",
        "negated-v-and-scale", "float-u", "short-u"])
def test_malformed_proportional_certificates_fail_closed(tamper):
    r = check_extremal_primitive(corpus.split_pyramid_fan(), "ex21")
    assert verify_certificates(r)
    tamper(r.certificates)
    assert verify_certificates(r) is False


def test_tampered_lookup_certificate_fails_verification():
    r = _ex21_main()
    m = _lookup_membership(r.certificates)
    i = r.certificates["memberships"].index(m)
    n = len(m["coeffs"])
    k = m["generators"].index(m["target"])
    assert m["coeffs"] == tuple(int(j == k) for j in range(n))
    for coeffs in (
        tuple(2 * (j == k) for j in range(n)),
        tuple(int(j == (k + 1) % n) for j in range(n)),
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
        mori_v = VCone.make(mori_cone(fan, basis).classes, d)
        bad = theorems._cones_equal_certified(mori_v, VCone.make(prim_rows, d), certs)
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


def relation_coordinate_rays(f):
    """The rays outside the first maximal cone, in index order."""
    return [i for i in range(f.n_rays) if i not in f.max_cones[0].ray_indices]


def merged_fulton_fans():
    """Fulton's fan with the two cones across wall (0, 4), (1, 5) or (2, 6)
    merged into one, in place of the first: valid non-simplicial fans with
    the merged cones [0, 2, 4, 5], [0, 1, 5, 6] and [1, 2, 4, 6]."""
    obj = corpus.fulton_fan().to_json_obj()
    fans = []
    for wall in ((0, 4), (1, 5), (2, 6)):
        a, b = (c for c in obj["max_cones"] if set(wall) <= set(c))
        cones = [sorted({*a, *b}) if c == a else c for c in obj["max_cones"] if c != b]
        f = fan_from_json_obj({**obj, "max_cones": cones})
        fans.append((f"fulton-merged{wall[0]}{wall[1]}", f))
    return fans


def moved_vertex_cube_fan():
    """cube_fan(3) with its corner (1, 1, 1) moved to (1, 2, 3), a complete
    fan that is not simplicial and has Picard rank 0, of the kind in
    Fulton, Introduction to Toric Varieties, sec. 3.4.  The three cones at
    the moved corner are skewed, so their facet normals are not a cube's."""
    obj = corpus.cube_fan(3).to_json_obj()
    rays = [[1, 2, 3] if r == [1, 1, 1] else r for r in obj["rays"]]
    return fan_from_json_obj({**obj, "rays": rays})


def test_main_theorem_matches_two_half_reference():
    verdicts = set()
    with_functions = {True: 0, False: 0}
    for name, f in _lookup_fans() + merged_fulton_fans():
        new = check_main_theorem(f, name)
        ref = reference_check_main_theorem(f, name)
        assert (new.verdict, new.details) == (ref.verdict, ref.details), name
        assert verify_certificates(new), name
        # one membership per interior wall and one per primitive relation,
        # over the rays outside the first cone, with no proportional bridge
        certs = new.certificates
        memberships = certs["memberships"]
        n_walls = len(f.interior_walls)
        assert len(memberships) == n_walls + len(primcoll.primitive_relations(f)), name
        rays = relation_coordinate_rays(f)
        assert certs["rays"] == rays and "proportional" not in certs, name
        # the functions K: listed where the cones have relations, each a row
        # of integer values on the rays; the identity otherwise
        k = plfun._relation_coordinates(f).functions
        assert ("functions" in certs) is (k is not None), name
        functions = ([[int(x) for x in row] for row in certs["functions"]] if k is not None
                     else [[int(i == j) for i in rays] for j in rays])
        assert len(functions) == pl_basis(f).dim_pic
        # the wall memberships come first, each target on the ray of its
        # wall's relation paired with K, re-derived here
        assert [primitivize([Fraction(x) for x in m["target"]])
                for m in memberships[:n_walls]] == [
            primitivize([sum(wall_relation(f, w).get(i, 0) * x for i, x in zip(rays, row))
                         for row in functions])
            for w in f.interior_walls]
        verdicts.add(new.verdict)
        with_functions[k is not None] += 1
    assert verdicts == {HOLDS, EVIDENCE}
    assert min(with_functions.values()) >= 5


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
    # one membership per wall and one per non-adjacent pair of rays, over
    # the r - 2 rays outside the first cone
    assert len(rep.certificates["memberships"]) == r + r * (r - 3) // 2
    assert len(rep.certificates["rays"]) == r - 2
    assert all(d <= f.dim for d in dims)


def _shorten_one_function(certs):
    first, *rest = certs["functions"]
    certs["functions"] = (first[:-1], *rest)


def _non_integer_function_entry(certs):
    (_, *row), *rest = certs["functions"]
    certs["functions"] = ((Fraction(1, 2), *row), *rest)


def _shorten_one_target(certs):
    m = certs["memberships"][0]
    m["target"] = m["target"][:-1]


@pytest.mark.parametrize("tamper", [
    lambda certs: certs.pop("functions"),
    _shorten_one_function,
    _non_integer_function_entry,
    _shorten_one_target,
], ids=["dropped", "short-row", "non-integer", "short-target"])
@pytest.mark.parametrize("fan_id", ["ex31", "cube3"])
def test_main_theorem_needs_its_functions(tamper, fan_id):
    # a non-simplicial fan's memberships are over K, listed as functions
    f = corpus.corpus_fan(fan_id) if fan_id == "ex31" else corpus.cube_fan(3)
    r = check_main_theorem(f, fan_id)
    assert r.verdict == HOLDS and verify_certificates(r)
    functions = r.certificates["functions"]
    assert len(functions) == pl_basis(f).dim_pic < len(r.certificates["rays"])
    tamper(r.certificates)
    assert verify_certificates(r) is False


def _scale_one_membership_coefficient(certs):
    m = certs["memberships"][0]
    k = next(k for k, c in enumerate(m["coeffs"]) if c != 0)
    m["coeffs"] = (*m["coeffs"][:k], 2 * m["coeffs"][k], *m["coeffs"][k + 1:])


@pytest.mark.parametrize("tamper", [
    _scale_one_membership_coefficient,
    lambda certs: certs.pop("memberships"),
    lambda certs: certs.pop("rays"),
    lambda certs: certs["rays"].pop(),
], ids=["scaled-coefficient", "dropped-memberships", "dropped-rays", "short-rays"])
@pytest.mark.parametrize("fan_id, verdict", [("ex21", HOLDS), ("fulton", EVIDENCE)])
def test_relation_route_certificates_fail_closed(tamper, fan_id, verdict):
    f = corpus.corpus_fan(fan_id)
    r = check_main_theorem(f, fan_id)
    assert r.verdict == verdict and verify_certificates(r)
    assert r.certificates["rays"] == relation_coordinate_rays(f)
    assert "proportional" not in r.certificates and "functions" not in r.certificates
    tamper(r.certificates)
    assert verify_certificates(r) is False


def _first_extremal_support(f):
    """The positive support of the first extremal wall's relation."""
    rel = wall_relation(f, extremal_walls(f, pl_basis(f))[0])
    return tuple(sorted(i for i, c in rel.items() if c > 0))


def _negate_first_primitive_relation(monkeypatch):
    relations = primcoll.primitive_relations
    monkeypatch.setattr(primcoll, "primitive_relations", lambda f: {
        p: dataclasses.replace(r, relation={i: -c for i, c in r.relation.items()})
        if k == 0 else r for k, (p, r) in enumerate(relations(f).items())
    })


def _drop_first_extremal_collection(monkeypatch):
    relations = primcoll.primitive_relations
    monkeypatch.setattr(primcoll, "primitive_relations", lambda f: {
        p: r for p, r in relations(f).items() if p != _first_extremal_support(f)
    })


def _scale_first_extremal_relation(monkeypatch):
    relations = primcoll.primitive_relations

    def scaled(f):
        p0 = _first_extremal_support(f)
        return {p: dataclasses.replace(r, relation={i: -2 * c for i, c in r.relation.items()})
                if p == p0 else r for p, r in relations(f).items()}

    monkeypatch.setattr(primcoll, "primitive_relations", scaled)


def _report_an_open_facet(monkeypatch):
    # the first part less its first ray, as if no other part had that facet
    monkeypatch.setattr(
        theorems, "hcone_covered_by", lambda big, parts, rays: (False, [tuple(parts[0][1:])])
    )


def _relations_positive_on_every_ray(monkeypatch):
    # every ray of a wall's circuit may then be dropped, also a wall ray
    # whose complement is no cone of the fan
    real = theorems._relation_extremal_walls
    monkeypatch.setattr(theorems, "_relation_extremal_walls", lambda f: tuple(
        (w, dict.fromkeys(range(f.n_rays), 1)) for w, _ in real(f)
    ))


# check id, how its failure is forced on ex21, and the details and
# counterexample of the report.  On ex21 the first extremal wall is (0, 1),
# whose relation 2 r0 + r2 + r4 = 0 has positive support (0, 2, 4).  The
# main theorem runs in relation coordinates, over rays 3 and 4, where that
# relation reads (0, 1).
FORCED_FAILURES = {
    "negated-primitive-row": (
        "main-cone-equality", _negate_first_primitive_relation,
        "cone equality fails at generator ['0', '1']", (0, 1),
    ),
    "missing-primitive-collection": (
        "extremal-positive-support", _drop_first_extremal_collection,
        "positive support (0, 2, 4) of wall (0, 1) is not primitive", [0, 2, 4],
    ),
    "scaled-relation": (
        "extremal-positive-support", _scale_first_extremal_relation,
        "relation of (0, 2, 4) is not a positive multiple of wall (0, 1)", [0, 2, 4],
    ),
    "open-facet": (
        "reid-conditions", _report_an_open_facet,
        "1 open facets inside the relation cone", [[2, 4]],
    ),
    "delta-not-maximal": (
        "reid-conditions", _relations_positive_on_every_ray,
        "dropping ray 1 does not leave a maximal cone", [0, 2, 4],
    ),
}


@pytest.mark.parametrize("case", sorted(FORCED_FAILURES))
def test_forced_failures_are_reported(monkeypatch, capsys, case):
    check, force, details, counterexample = FORCED_FAILURES[case]
    f = corpus.split_pyramid_fan()
    assert _first_extremal_support(f) == (0, 2, 4)
    assert run_check(check, f, "ex21").verdict == HOLDS
    force(monkeypatch)
    r = run_check(check, f, "ex21")
    assert (r.theorem, r.verdict, r.details) == (check, FAILS, details)
    assert r.certificates == {"counterexample": counterexample}
    assert r.seconds > 0
    if check == "main-cone-equality":
        # a wall relation outside the cone of the tampered primitive
        # relations, both restricted to the rays outside the first cone
        rays = relation_coordinate_rays(f)
        bad = tuple(Fraction(x) for x in counterexample)
        assert any(positively_proportional(bad, [wall_relation(f, w).get(i, 0) for i in rays])
                   for w in f.interior_walls)
        tampered = VCone.make([[r.relation.get(i, 0) for i in rays]
                               for r in primcoll.primitive_relations(f).values()], len(rays))
        assert not cone_contains(tampered, bad)[0]
    code = cli.main(["verify", "--theorem", check, "--fan", "corpus:ex21", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["all_passing"] is False
    assert out["reports"] == [{
        "theorem": check, "fan": "corpus:ex21", "verdict": FAILS, "details": details,
    }]


def test_run_check_times_every_check_of_the_suite():
    f = corpus.square_pyramid_fan()
    reports = [run_check(name, f, "ex31", seed=0) for name in theorems.CHECKS]
    assert [r.theorem for r in reports] == list(theorems.CHECKS)
    assert all(r.seconds > 0 for r in reports)
    # a direct call leaves the time unset
    assert check_main_theorem(f, "ex31").seconds == 0.0
    suite = run_paper_suite(fans=[("ex31", f)], seed=0)
    assert [r.to_json_obj() for r in suite] == sorted(
        (r.to_json_obj() for r in reports), key=lambda o: o["theorem"]
    )


class PicardRouteTaken(Exception):
    pass


def test_suite_on_any_fan_derives_no_picard_basis(monkeypatch):
    def refuse(*args):
        raise PicardRouteTaken(args)

    monkeypatch.setattr(plfun, "_solve_pl_basis", refuse)
    monkeypatch.setattr(plfun, "_solve_quasi_projective", refuse)
    monkeypatch.setattr(mori, "_build_mori_cone", refuse)
    rng = random.Random(7)
    seeded = (random_complete_fan(rng) for _ in range(25))
    name, f = next((name, f) for name, f in seeded if f.is_simplicial)
    merged, g = merged_fulton_fans()[0]
    fans = [("ex21", corpus.split_pyramid_fan()), ("fulton", corpus.fulton_fan()), (name, f),
            ("ex31", corpus.square_pyramid_fan()), ("cube3", corpus.cube_fan(3)), (merged, g)]
    reports = run_paper_suite(fans=fans, seed=7)
    assert len(reports) == 4 * len(fans)
    assert all(r.verdict in PASSING and verify_certificates(r) for r in reports)
    assert {(r.fan_id, r.verdict) for r in reports if r.theorem == "main-cone-equality"} == {
        ("ex21", HOLDS), ("fulton", EVIDENCE), (name, HOLDS),
        ("ex31", HOLDS), ("cube3", HOLDS), (merged, EVIDENCE)}
    # fulton's extremal and Reid checks are decided inapplicable, and so
    # are those of the non-simplicial fans; the rest hold
    assert sorted((r.fan_id, r.details) for r in reports if r.verdict == INAPPLICABLE) == sorted(
        [("fulton", "fan not quasi-projective"), ("fulton", "not quasi-projective")]
        + [(fid, d) for fid in ("cube3", "ex31", merged)
           for d in ("fan not simplicial", "not simplicial")])
    assert sum(r.verdict == HOLDS for r in reports) == 9 + 2 + 2 + 1


@pytest.mark.parametrize("theorem, certs", [
    ("reid-conditions", {}),
    ("reid-conditions", {"walls": [(0, 1)]}),
    ("reid-conditions", {"walls": [[0, 1]], "deltas": [[0, "2"]]}),
    ("reid-conditions", {"deltas": [[0, True]]}),
    ("type-a-subspace", {}),
    ("type-a-subspace", {"dims": [1, 2, 3]}),
    ("type-a-subspace", {"dims": [2, 2, 3]}),
    ("type-a-subspace", {"dims": [-1, -1, -1]}),
    ("type-a-subspace", {"dims": [2, 2]}),
    ("type-a-subspace", {"dims": [2.0, 2, 2]}),
    ("type-a-subspace", {"dims": (2, 2, 2)}),
], ids=["reid-empty", "reid-tuple-wall", "reid-str-delta", "reid-bool-delta",
        "type-a-empty", "type-a-123", "type-a-223", "type-a-negative", "type-a-two",
        "type-a-float", "type-a-tuple"])
def test_reid_and_type_a_reports_fail_closed(theorem, certs):
    assert verify_certificates(theorems.TheoremReport(theorem, "x", HOLDS, "", certs)) is False


def test_reid_and_type_a_certificates_of_the_suite_verify():
    reports = run_paper_suite(seed=7, random_fans=25)
    held = {(r.theorem, r.verdict) for r in reports}
    assert {("reid-conditions", HOLDS), ("type-a-subspace", HOLDS)} <= held
    assert all(verify_certificates(r) for r in reports)
    # a single wall's report lists its deltas, and a report that does not
    # hold needs no walls
    f = corpus.split_pyramid_fan()
    r = check_reid_conditions(f, f.interior_walls[0], "ex21")
    assert r.verdict == HOLDS and list(r.certificates) == ["deltas"] and verify_certificates(r)
    for theorem in ("reid-conditions", "type-a-subspace"):
        assert verify_certificates(theorems.TheoremReport(theorem, "x", INAPPLICABLE))
    assert verify_certificates(theorems.TheoremReport(
        "type-a-subspace", "x", HOLDS, "", {"dims": [0, 0, 0]}))
