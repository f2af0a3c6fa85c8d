import gc
import random
import weakref
from fractions import Fraction

import pytest

from fanforge import cli, corpus, lp, mori, plfun, refine
from fanforge.fan import ConeData, validate_fan
from fanforge.linalg import ZERO, kernel_basis, rref, solve_linear, vdot, vec, vscale, vsum
from fanforge.mori import extremal_walls, mori_cone
from fanforge.plfun import (
    NonSimplicialFan,
    NotARefinement,
    PLFunction,
    WallIncompatible,
    coarse_membership,
    is_convex,
    is_quasi_projective,
    is_strictly_convex,
    pl_basis,
    pl_from_cone_functionals,
    pl_from_json_obj,
    pl_from_ray_values,
    refinement_cone_map,
    refinement_ray_map,
    wall_functional,
    wall_relation,
    wall_rows,
)
from fanforge.primcoll import primitive_relations
from fanforge.refine import qp_refinement, simplicial_refinement
from fanforge.theorems import check_main_theorem, check_type_a_description, random_complete_fan
from fanforge.theorems import stellar_subdivide
from test_cross_oracles import _route_fans
from test_linalg import vsub
from test_theorems import moved_vertex_cube_fan


def test_zero_function():
    f = corpus.split_pyramid_fan()
    phi = pl_from_ray_values(f, [0] * 5)
    assert all(all(x == 0 for x in m) for m in phi.cone_functionals)
    assert is_convex(phi)
    assert not is_strictly_convex(phi)


def test_ray_values_solve_per_cone():
    f = corpus.split_pyramid_fan()
    phi = pl_from_ray_values(f, [1, 1, 1, 1, 1])
    # on the top cone {1,2,4} the functional is (0,0,1)
    k = [c.ray_indices for c in f.max_cones].index((1, 2, 4))
    assert phi.cone_functionals[k] == (0, 0, 1)
    assert phi.ray_values() == (1, 1, 1, 1, 1)


def reference_cone_functionals(fan, values):
    """Each maximal cone's functional solved from its rays and their values
    by elimination."""
    return tuple(
        solve_linear(
            [fan.ray(i) for i in c.ray_indices],
            [Fraction(values[i]) for i in c.ray_indices],
        )
        for c in fan.max_cones
    )


def test_ray_values_match_elimination_reference():
    rng = random.Random(11)
    fans = [f for _, f in corpus.paper_examples() if f.is_simplicial]
    fans += [corpus.cross_fan(3), corpus.cross_fan(4)]
    randoms = [random_complete_fan(rng)[1] for _ in range(20)]
    fans += [f for f in randoms if f.is_simplicial]
    # the fine fans of quasi-projective refinements, with their functions
    coarse = [corpus.square_pyramid_fan(), corpus.cube_fan(3), corpus.cross_fan(3)]
    for k, f in enumerate(coarse):
        _, witness = is_quasi_projective(f)
        r, phi = qp_refinement(f, (), witness, seed=k)
        expected = reference_cone_functionals(r.fine, phi.ray_values())
        assert phi.cone_functionals == expected
        fans.append(r.fine)
    for f in fans:
        for _ in range(3):
            vals = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(f.n_rays)
            ]
            phi = pl_from_ray_values(f, vals)
            assert phi.cone_functionals == reference_cone_functionals(f, vals)
            assert all(type(x) is Fraction for m in phi.cone_functionals for x in m)


def test_ray_values_need_coherence_on_nonsimplicial():
    f = corpus.square_pyramid_fan()
    with pytest.raises(NonSimplicialFan):
        pl_from_ray_values(f, [0, 1, 0, 0, 0])


def test_cone_functionals_global_linear():
    f = corpus.square_pyramid_fan()
    m = (3, -1, 2)
    phi = pl_from_cone_functionals(f, [m] * len(f.max_cones))
    assert is_convex(phi)
    assert not is_strictly_convex(phi)
    assert phi.value((1, 1, 1)) == 4


def test_cone_functionals_wall_incompatible():
    f = corpus.square_pyramid_fan()
    ms = [(0, 0, 0)] * 4 + [(0, 0, 1)]
    with pytest.raises(WallIncompatible):
        pl_from_cone_functionals(f, ms)


def reference_pl_from_cone_functionals(fan, functionals):
    """pl_from_cone_functionals in Fraction arithmetic, subtracting the
    two functionals of each interior wall, kept as an oracle."""
    ms = [vec(m) for m in functionals]
    if len(ms) != len(fan.max_cones):
        raise ValueError("need one functional per maximal cone")
    for w in fan.interior_walls:
        a, b = w.cone_indices
        diff = vsub(ms[a], ms[b])
        if any(vdot(diff, fan.ray(i)) != 0 for i in w.ray_indices):
            raise WallIncompatible(w)
    return PLFunction(fan, tuple(ms))


def reference_pl_from_ray_values(fan, values):
    """pl_from_ray_values in Fraction arithmetic, one Fraction product per
    frame entry, kept as an oracle."""
    if not fan.is_simplicial:
        raise NonSimplicialFan("ray values underdetermine a non-simplicial fan")
    vals = [Fraction(v) for v in values]
    ms = []
    for c in fan.max_cones:
        terms = [vscale(Fraction(vals[i], s), u) for i, (u, s) in zip(c.ray_indices, c.frame)]
        ms.append(vsum(terms, fan.dim))
    return PLFunction(fan, tuple(ms))


def test_pl_constructors_match_the_fraction_oracles(monkeypatch):
    # the paper examples, the 3-cube, the 4-cross and 20 seed-11 random
    # fans, with the fine fans of the quasi-projective refinements of the
    # non-simplicial ones and every set of functionals that the refinement
    # passes to pl_from_cone_functionals
    rng = random.Random(11)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [corpus.cube_fan(3), corpus.cross_fan(4)]
    fans += [random_complete_fan(rng)[1] for _ in range(20)]
    passed = []
    monkeypatch.setattr(
        refine, "pl_from_cone_functionals",
        lambda f, ms: passed.append((f, ms)) or pl_from_cone_functionals(f, ms),
    )
    values = []
    for k, f in enumerate(fans):
        ok, witness = is_quasi_projective(f)
        if ok:
            passed.append((f, witness.cone_functionals))
        if ok and not f.is_simplicial:
            r, phi = qp_refinement(f, (), witness, seed=k)
            values.append((r.fine, phi.ray_values()))
            passed.append((r.fine, phi.cone_functionals))
    for f in fans + [fine for fine, _ in values]:
        b = pl_basis(f)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(b.dim_pl)]
        passed.append((f, b.combine(f, coeffs).cone_functionals))
        if f.is_simplicial:
            values.append((f, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in f.rays]))
    for f, ms in passed:
        assert pl_from_cone_functionals(f, ms) == reference_pl_from_cone_functionals(f, ms)
        # one entry moved: the same wall is named as incompatible
        k, j = rng.randrange(len(ms)), rng.randrange(f.dim)
        bad = [list(m) for m in ms]
        bad[k][j] += Fraction(1, 7)
        with pytest.raises(WallIncompatible) as got:
            pl_from_cone_functionals(f, bad)
        with pytest.raises(WallIncompatible) as want:
            reference_pl_from_cone_functionals(f, bad)
        assert got.value.wall == want.value.wall
    for f, vals in values:
        phi = pl_from_ray_values(f, vals)
        assert phi == reference_pl_from_ray_values(f, vals)
        assert all(type(x) is Fraction for m in phi.cone_functionals for x in m)
    # 31 witnesses (Fulton's fan has none), 7 refinements of non-simplicial
    # fans with the fine function and the certificate of each, and 39 basis
    # combinations; ray values on the 32 simplicial fans and the 7 refined
    # functions
    assert len(passed) == 84 and len(values) == 39


def reference_combine(basis, fan, coeffs):
    """PLBasis.combine's cone functionals as they were before it summed in
    integers: one Fraction operation per term of every entry."""
    coeffs = [Fraction(c) for c in coeffs]
    lin, quotient = coeffs[:fan.dim], coeffs[fan.dim:]
    ms = []
    for k in range(len(fan.max_cones)):
        m = list(lin)
        for c, q in zip(quotient, basis.quotient_functionals):
            if c:
                for d in range(fan.dim):
                    m[d] += c * q[k][d]
        ms.append(tuple(m))
    return tuple(ms)


def test_combine_matches_the_fraction_reference():
    # the paper examples, cube and cross fans in dimensions 3 and 4, the
    # moved-vertex cube fan (Picard rank 0), 20 seed-13 random fans and the
    # fine fans of the non-simplicial ones' quasi-projective refinements,
    # whose quotient functions have different denominators; each with its
    # quasi-projectivity witness and with coefficients that mix ints and
    # Fractions, a nonzero linear part and some zero quotient coefficients
    rng = random.Random(13)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [corpus.cube_fan(3), corpus.cube_fan(4), corpus.cross_fan(3), corpus.cross_fan(4)]
    fans += [moved_vertex_cube_fan()] + [random_complete_fan(rng)[1] for _ in range(20)]
    for k, f in enumerate(list(fans)):
        ok, witness = is_quasi_projective(f)
        if ok and not f.is_simplicial:
            fans.append(qp_refinement(f, (), witness, seed=k)[0].fine)

    def entry():
        return rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])

    mixed = witnesses = 0
    denominators = set()
    for f in fans:
        b = pl_basis(f)
        denominators.add(len({max(x.denominator for m in q for x in m)
                              for q in b.quotient_functionals}))
        draws = []
        for _ in range(3):
            lin = [entry() or 1 for _ in range(f.dim)]
            draws.append(lin + [rng.choice([0, entry()]) for _ in range(b.dim_pic)])
            mixed += 0 in draws[-1][f.dim:] and any(draws[-1][f.dim:])
        witness, _ = lp.strict_feasible(wall_rows(f, b), [], [], b.dim_pic)
        if witness is not None:
            draws.append((0,) * f.dim + witness)
            witnesses += 1
        for coeffs in draws:
            got = b.combine(f, coeffs).cone_functionals
            assert got == reference_combine(b, f, coeffs)
            assert all(type(x) is Fraction for m in got for x in m)
    assert mixed > 20 and witnesses > 20 and max(denominators) > 1


def test_all_ones_on_split_pyramid_convex_not_strict():
    # the wall between the two top cones evaluates to a1+a3-a2-a4 = 0
    f = corpus.split_pyramid_fan()
    phi = pl_from_ray_values(f, [1, 1, 1, 1, 1])
    assert is_convex(phi)
    assert not is_strictly_convex(phi)


def test_fulton_pullback_of_hyperplane_class_is_convex():
    f = corpus.fulton_fan()
    phi = pl_from_ray_values(f, [0, 0, 0, 1, 1, 1, 1])
    assert is_convex(phi)
    assert not is_strictly_convex(phi)


def test_quasi_projectivity_verdicts():
    ok, witness = is_quasi_projective(corpus.split_pyramid_fan())
    assert ok and is_strictly_convex(witness)
    ok, witness = is_quasi_projective(corpus.fulton_fan())
    assert not ok and witness is None
    single = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
    ok, _ = is_quasi_projective(single)
    assert ok


def test_pl_basis_dimensions():
    assert pl_basis(corpus.fulton_fan()).dim_pic == 4
    b = pl_basis(corpus.split_pyramid_fan())
    assert b.dim_pl == 5 and b.dim_pic == 2
    single = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
    bs = pl_basis(single)
    assert bs.dim_pic == 0 and bs.dim_pl == 3


def test_pl_dim_equals_ray_count_on_simplicial():
    for f in (corpus.split_pyramid_fan(), corpus.fulton_fan(), corpus.polygon_fan(7)):
        assert pl_basis(f).dim_pl == f.n_rays


def _basis_functions(f, b):
    """The basis functions: the global coordinate functionals, then the
    quotient functions."""
    return [
        b.combine(f, [int(j == i) for j in range(b.dim_pl)]) for i in range(b.dim_pl)
    ]


def test_basis_functions_are_valid_and_independent():
    from fanforge.linalg import rank

    f = corpus.square_pyramid_fan()
    b = pl_basis(f)
    stacked = []
    for fn in _basis_functions(f, b):
        pl_from_cone_functionals(f, fn.cone_functionals)  # revalidates
        stacked.append([x for m in fn.cone_functionals for x in m])
    assert rank(stacked) == b.dim_pl


def test_evaluate_well_defined_on_shared_faces():
    f = corpus.square_pyramid_fan()
    b = pl_basis(f)
    for fn in _basis_functions(f, b):
        for w in f.interior_walls:
            a, c = w.cone_indices
            for i in w.ray_indices:
                ray = f.ray(i)
                va = sum(x * y for x, y in zip(fn.cone_functionals[a], ray))
                vc = sum(x * y for x, y in zip(fn.cone_functionals[c], ray))
                assert va == vc


def _pairwise_convexity_violation(phi, pairs):
    for u, v in pairs:
        s = vsum([u, v], len(u))
        if phi.value(u) + phi.value(v) < phi.value(s):
            return (u, v)
    return None


def _near_wall_pairs(fan):
    """Pairs hugging each interior wall; a negative wall functional always
    shows up as a convexity violation on one of these."""
    pairs = []
    for w in fan.interior_walls:
        wall_pt = vsum([fan.ray(i) for i in w.ray_indices], fan.dim)
        for scale in (1, 4, 16, 64):
            u = None
            v = None
            for side in w.cone_indices:
                cone = fan.max_cones[side]
                off = vsum(
                    [fan.ray(i) for i in cone.ray_indices if i not in w.ray_indices],
                    fan.dim,
                )
                pt = vsum([tuple(scale * x for x in wall_pt), off], fan.dim)
                if u is None:
                    u = pt
                else:
                    v = pt
            s = vsum([u, v], fan.dim)
            if any(fan.max_cones[k].contains_point(s) for k in w.cone_indices):
                pairs.append((u, v))
                break
    return pairs


def test_convexity_agrees_with_pairwise_oracle():
    rng = random.Random(7)
    for f in (corpus.split_pyramid_fan(), corpus.square_pyramid_fan(), corpus.polygon_fan(6)):
        b = pl_basis(f)
        rays = [f.ray(i) for i in range(f.n_rays)]
        ray_pairs = [(rays[i], rays[j]) for i in range(len(rays)) for j in range(i, len(rays))]
        near = _near_wall_pairs(f)
        for _ in range(12):
            phi = b.combine(f, [Fraction(rng.randint(-3, 3)) for _ in range(b.dim_pl)])
            violation = _pairwise_convexity_violation(phi, ray_pairs + near)
            assert is_convex(phi) == (violation is None)


def test_coarse_membership_pullback_and_refusal():
    coarse = corpus.square_pyramid_fan()
    r = simplicial_refinement(coarse, (2, 4), seed=0)
    fine = r.fine
    # pullback of a coarse function descends
    b = pl_basis(coarse)
    phi_coarse = b.combine(coarse, [1] * b.dim_pl)
    phi_fine = pl_from_ray_values(fine, phi_coarse.ray_values())
    assert coarse_membership(phi_fine, coarse)
    # a function breaking the additivity equality does not
    bad = pl_from_ray_values(fine, [0, 1, 0, 0, 0])
    assert not coarse_membership(bad, coarse)
    # a strictly convex function on the refinement cannot be coarse-linear
    ok, witness = is_quasi_projective(fine)
    assert ok
    assert not coarse_membership(witness, coarse)


def test_coarse_membership_computes_no_double_description(monkeypatch):
    # on the same rays both supports are the cone on all rays, so comparing
    # their facet normals needs no generators
    from fanforge import cones

    coarse = corpus.square_pyramid_fan()
    fine = simplicial_refinement(coarse, (2, 4), seed=0).fine
    phi = pl_from_ray_values(fine, pl_basis(coarse).combine(coarse, [1, 2, 3, 4]).ray_values())
    calls = []
    real = cones.h_to_v
    monkeypatch.setattr(cones, "h_to_v", lambda c: calls.append(c) or real(c))
    assert coarse_membership(phi, coarse)
    assert calls == []


def _dependent_ray(fan, cone):
    """A ray of a non-simplicial cone in the span of the cone's other rays:
    the first non-pivot column of its ray matrix."""
    _, pivots = rref([[fan.ray(i)[d] for i in cone.ray_indices] for d in range(fan.dim)])
    return next(i for q, i in enumerate(cone.ray_indices) if q not in pivots)


def test_pl_basis_is_the_type_a_subspace_of_a_simplicial_refinement():
    # the paper's non-simplicial definition: a function on a simplicial
    # refinement on the same rays lives on the fan exactly when it passes
    # coarse_membership (additive on the type-A pairs).  Every basis
    # function pulled back by its ray values does; a unit value on a
    # dependent ray of a non-simplicial cone does not.
    rng = random.Random(17)
    cube3 = corpus.cube_fan(3)
    fans = [corpus.square_pyramid_fan(), cube3, corpus.cube_fan(4)]
    for _ in range(4):
        f = cube3
        for _ in range(rng.randint(1, 2)):
            f = stellar_subdivide(f, rng.randrange(len(f.max_cones)))
        fans.append(f)
    checked = 0
    for f in fans:
        fine = simplicial_refinement(f).fine
        ray_map = refinement_ray_map(fine, f)
        for values in pl_basis(f).ray_values:
            phi = pl_from_ray_values(fine, [values[j] for j in ray_map])
            assert coarse_membership(phi, f)
        for c in (c for c in f.max_cones if not c.frame):
            q = _dependent_ray(f, c)
            phi = pl_from_ray_values(fine, [int(j == q) for j in ray_map])
            assert not coarse_membership(phi, f)
            checked += 1
    assert checked == 34


def test_refinement_cone_map_rejects_unrelated():
    with pytest.raises(NotARefinement):
        refinement_cone_map(corpus.polygon_fan(4), corpus.split_pyramid_fan())
    with pytest.raises(NotARefinement):
        refinement_cone_map(corpus.split_pyramid_fan(), corpus.fulton_fan())


def test_wall_functional_scaling():
    f = corpus.split_pyramid_fan()
    b = pl_basis(f)
    phi = b.combine(f, [1] * b.dim_pl)
    for w in f.interior_walls:
        two = wall_functional(f, w, b.combine(f, [2] * b.dim_pl))
        one = wall_functional(f, w, phi)
        assert two == 2 * one


def test_pl_json_roundtrip():
    f = corpus.split_pyramid_fan()
    phi = pl_from_ray_values(f, [1, 2, Fraction(3, 2), 4, Fraction(7, 2)])
    back = pl_from_json_obj(f, phi.to_json_obj())
    assert back.ray_values() == phi.ray_values()
    f31 = corpus.square_pyramid_fan()
    b = pl_basis(f31)
    psi = b.combine(f31, [1, 2, 3, 4])
    back = pl_from_json_obj(f31, psi.to_json_obj())
    assert back.cone_functionals == psi.cone_functionals


@pytest.mark.parametrize("name", ["ex21", "ex31", "fulton"])
def test_cone_whose_rays_do_not_span_is_rejected(monkeypatch, name):
    # the elimination is kept on its fan, so each step builds a fresh one
    expected = plfun._solve_pl_basis(corpus.corpus_fan(name))
    # no cone reads its frame: every cone goes through the elimination that
    # a non-simplicial cone takes, and the basis is the same
    monkeypatch.setattr(ConeData, "frame", property(lambda self: ()))
    assert plfun._solve_pl_basis(corpus.corpus_fan(name)) == expected
    # every ray flattened into the hyperplane x_n = 0: no cone's rays span,
    # and the elimination finds fewer than dim pivots among them
    fan = corpus.corpus_fan(name)
    monkeypatch.setattr(fan, "rays", tuple((*r[:-1], 0) for r in fan.rays))
    with pytest.raises(RuntimeError, match="do not span"):
        plfun._solve_pl_basis(fan)


def reference_pl_basis(fan):
    """The quotient basis as the kernel of the stacked wall-compatibility
    system plus the first-cone pin, by one elimination: (quotient cone
    functionals, basis ray-value table, Picard rank)."""
    n, k = fan.dim, len(fan.max_cones)
    rows = []
    for w in fan.interior_walls:
        a, b = w.cone_indices
        for i in w.ray_indices:
            row = [0] * (k * n)
            row[a * n:(a + 1) * n] = fan.ray(i)
            row[b * n:(b + 1) * n] = [-x for x in fan.ray(i)]
            rows.append(row)
    rows += [[int(c == d) for c in range(k * n)] for d in range(n)]
    quotient = [
        tuple(tuple(s[j * n:(j + 1) * n]) for j in range(k))
        for s in kernel_basis(rows, k * n)
    ]
    ray_values = tuple(zip(*fan.rays)) + tuple(
        tuple(vdot(ms[fan.ray_cone[i]], fan.ray(i)) for i in range(fan.n_rays))
        for ms in quotient
    )
    return quotient, ray_values, len(quotient)


def _simplicial_basis_corpus():
    rng = random.Random(11)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [corpus.cross_fan(d) for d in (2, 3, 4)] + [corpus.cube_fan(2)]
    fans += [random_complete_fan(rng)[1] for _ in range(20)]
    refined = []
    for k, f in enumerate(fans):
        refined.append(simplicial_refinement(f, (), seed=k).fine)
        ok, witness = is_quasi_projective(f)
        if ok:
            refined.append(qp_refinement(f, (), witness, seed=k)[0].fine)
    return [f for f in fans + refined if f.is_simplicial]


def test_simplicial_pl_basis_matches_stacked_reference():
    # the simplicial corpus, then the corpus, the seed-7 suite fans, the
    # three workloads' inputs at seeds 41-43 and the cube fans, where
    # non-simplicial cones give the ray-value route relations to solve
    fans = _simplicial_basis_corpus()
    assert len(fans) == 95
    fans += [f for _, f in _route_fans()] + [corpus.cube_fan(3), corpus.cube_fan(4)]
    for f in fans:
        b = pl_basis(f)
        quotient, ray_values, dim_pic = reference_pl_basis(f)
        assert list(b.quotient_functionals) == quotient
        entries = [x for ms in b.quotient_functionals for m in ms for x in m]
        assert all(type(x) is Fraction for x in entries)
        assert all(x is ZERO for x in entries if x == 0)
        assert b.ray_values == ray_values
        assert b.dim_pic == dim_pic
    assert len(fans) == 95 + 76 + 2
    assert sum(not f.is_simplicial for f in fans) == 20


def test_simplicial_pl_basis_shares_one_zero():
    # the basis functions vanish on most cones; every zero entry is the ZERO
    # that the final rref shares, not a Fraction of its own
    rng = random.Random(3)
    fans = [corpus.fulton_fan(), corpus.cross_fan(4), corpus.cube_fan(3)]
    fans += [random_complete_fan(rng)[1] for _ in range(5)]
    assert sum(not f.is_simplicial for f in fans) == 2
    for f in fans:
        zeros = [
            x for ms in pl_basis(f).quotient_functionals
            for m in ms for x in m if x == 0
        ]
        assert zeros and all(x is ZERO for x in zeros)


def test_simplicial_pl_basis_solves_no_kernel(monkeypatch):
    calls = []
    real = plfun.kernel_basis
    monkeypatch.setattr(
        plfun, "kernel_basis", lambda *a: calls.append(a) or real(*a)
    )
    for f in (corpus.split_pyramid_fan(), corpus.fulton_fan(), corpus.cross_fan(4)):
        pl_basis(f)
    assert calls == []
    pl_basis(corpus.cube_fan(3))
    assert len(calls) == 1


def test_pl_basis_takes_the_integer_route(monkeypatch):
    # with the cone relations derived, _solve_pl_basis reduces its integer
    # span rows by one _eliminate of its own and no rref (plfun imports
    # none since the wall table is built in integers); combine
    # integerizes its coefficients and nothing else.  The value rows read
    # off the integer quotient are integer_ray_values' rows, denominators
    # included
    fans = [corpus.split_pyramid_fan(), corpus.fulton_fan(), corpus.cross_fan(4),
            corpus.cube_fan(3), corpus.cube_fan(4), moved_vertex_cube_fan()]
    for f in fans + [f for _, f in _route_fans()]:
        b = pl_basis(f)
        assert b.value_rows[f.dim:] == tuple(
            PLFunction(f, ms).integer_ray_values() for ms in b.quotient_functionals)
    assert not hasattr(plfun, "rref")
    calls = []
    for name in ("_eliminate", "_integer_row"):
        real = getattr(plfun, name)
        monkeypatch.setattr(plfun, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    for f in fans:
        calls.clear()
        b = plfun._solve_pl_basis(f)
        assert calls == ["_eliminate"]
        calls.clear()
        b.combine(f, [1] * f.dim + [Fraction(1, 2)] * b.dim_pic)
        assert calls == ["_integer_row"]
    assert [pl_basis(f).dim_pic for f in fans] == [2, 4, 4, 1, 1, 0]


def test_cone_elimination_runs_once_per_fan(monkeypatch):
    # the basis, relation coordinates, extremal walls and nef report of a
    # non-simplicial fan share one elimination of its cones
    calls = []
    real = plfun.kernel_basis
    monkeypatch.setattr(
        plfun, "kernel_basis", lambda *a: calls.append(a) or real(*a)
    )
    f = corpus.cube_fan(3)
    basis = pl_basis(f)
    plfun._relation_coordinates(f)
    extremal_walls(f, basis)
    cli._nef_report(f)
    assert len(calls) == 1


def test_wall_entries_are_derived_once_per_fan(monkeypatch):
    # the Picard LP, the main theorem's report and every wall_relation read
    # one wall table: each interior wall's relation is derived once, and
    # wall_relation, a view of the table, neither eliminates nor pairs
    built, derived = [], []
    real = plfun._wall_entry
    monkeypatch.setattr(plfun, "_wall_entry", lambda f, w: built.append(w) or real(f, w))
    for f in (corpus.split_pyramid_fan(), corpus.cube_fan(3)):
        built.clear()
        is_quasi_projective(f)
        check_main_theorem(f)
        with monkeypatch.context() as m:
            for name in ("_eliminate", "vdot"):
                m.setattr(plfun, name, lambda *a, name=name: derived.append(name))
            rels = [wall_relation(f, w) for w in f.interior_walls]
        assert built == list(f.interior_walls) and derived == []
        assert rels == [{i: Fraction(c, d) for i, c in zip(rays, coeffs)}
                        for rays, coeffs, d, _ in plfun._wall_table(f)]


@pytest.mark.parametrize("make", [
    corpus.split_pyramid_fan,
    corpus.square_pyramid_fan,
    corpus.fulton_fan,
    lambda: corpus.cross_fan(3),
], ids=["ex21", "ex31", "fulton", "cross3"])
def test_derived_invariants_free_their_fan_without_the_collector(make):
    # no value kept on Fan.derived refers back to the fan, so with the
    # cyclic collector off the fan is still freed when its last reference
    # goes
    gc.disable()
    try:
        fan = make()
        basis = pl_basis(fan)
        wall_rows(fan, basis)
        is_quasi_projective(fan)
        mc = mori_cone(fan, basis)
        primitive_relations(fan)
        if mc.is_pointed:
            extremal_walls(fan, basis)
        cli._nef_report(fan)
        check_type_a_description(fan, simplicial_refinement(fan, (), seed=0))
        plfun._relation_quasi_projective(fan)
        mori._relation_extremal_walls(fan)
        assert set(fan._derived) >= {
            "pl_basis", "wall_table", "wall_classes", "is_quasi_projective", "mori_cone",
            "primitive_relations", "cone_relations", "relation_coordinates",
            "relation_pointed", "relation_extremal_walls",
        }
        ref = weakref.ref(fan)
        del fan, basis, mc
        assert ref() is None
    finally:
        gc.enable()


def test_witness_at_picard_rank_zero():
    # one simplicial cone: no interior wall, an empty quotient, and the
    # witness is the zero functional on the one maximal cone
    f = validate_fan(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]])
    assert pl_basis(f).dim_pic == 0
    ok, witness = is_quasi_projective(f)
    assert ok
    assert witness.cone_functionals == ((0, 0, 0),)
    assert is_strictly_convex(witness)
