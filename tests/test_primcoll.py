import itertools
import random
from fractions import Fraction

import pytest

from fanforge import corpus
from fanforge import primcoll
from fanforge.cones import cone_contains, cones_equal, HCone, VCone
from fanforge.fan import contained_in_single_cone, minimal_cone_containing, validate_fan
from fanforge.linalg import rank, vsum
from fanforge.mori import curve_class, relation_row
from fanforge.plfun import pl_basis
from fanforge.primcoll import (
    TYPE_A,
    TYPE_B,
    PrimitiveRelation,
    _is_primitive,
    batyrev_primitive_collections,
    classify_type,
    enumerate_primitive_collections,
    primitive_inequality_cone,
    primitive_relation,
)
from fanforge.theorems import random_complete_fan
from test_fan_verdicts import subdivided

FULTON_EXPECTED = {
    (1, 3): ((6,), {6: 1}),
    (0, 3): ((5,), {5: 1}),
    (2, 3): ((4,), {4: 1}),
    (1, 4): ((2, 6), {2: 1, 6: 1}),
    (2, 5): ((0, 4), {0: 1, 4: 1}),
    (0, 6): ((1, 5), {1: 1, 5: 1}),
    (4, 5, 6): ((3,), {3: 2}),
}


def naive_primitive_collections(fan):
    """Oracle: scan every subset of every size against the raw definition."""
    out = []
    rays = range(fan.n_rays)
    for size in range(2, fan.n_rays + 1):
        for cand in itertools.combinations(rays, size):
            if contained_in_single_cone(fan, cand):
                continue
            proper = (
                sub
                for k in range(1, size)
                for sub in itertools.combinations(cand, k)
            )
            if all(contained_in_single_cone(fan, sub) for sub in proper):
                out.append(cand)
    return sorted(out)


def test_split_pyramid_collections():
    f = corpus.split_pyramid_fan()
    assert enumerate_primitive_collections(f) == [(0, 2, 4), (1, 3)]


def test_square_pyramid_collections():
    f = corpus.square_pyramid_fan()
    assert enumerate_primitive_collections(f) == [(0, 1, 3), (0, 2, 4)]


def test_fulton_collections():
    f = corpus.fulton_fan()
    assert enumerate_primitive_collections(f) == sorted(FULTON_EXPECTED)


def test_polygon_collections_are_nonadjacent_pairs():
    for r in (4, 5, 8):
        f = corpus.polygon_fan(r)
        got = enumerate_primitive_collections(f)
        assert len(got) == r * (r - 3) // 2
        for p in got:
            assert len(p) == 2
            i, j = p
            assert (j - i) % r not in (1, r - 1)


def test_enumeration_matches_naive_oracle():
    fans = [
        corpus.split_pyramid_fan(),
        corpus.square_pyramid_fan(),
        corpus.fulton_fan(),
        corpus.polygon_fan(6),
        corpus.cube_fan(3),
        corpus.cross_fan(3),
    ]
    for f in fans:
        assert f.n_rays <= 9
        assert enumerate_primitive_collections(f) == naive_primitive_collections(f)


def reference_enumerate_primitive_collections(fan):
    """Every ray subset of size 2..n+1 tested against every maximal cone:
    in no cone, while every subset one ray smaller is in one."""
    cofaces = [set(c.ray_indices) for c in fan.max_cones]

    def in_cone(s):
        return any(set(s) <= c for c in cofaces)

    found = []
    for size in range(2, fan.dim + 2):
        for cand in itertools.combinations(range(fan.n_rays), size):
            if not in_cone(cand) and all(
                in_cone(sub) for sub in itertools.combinations(cand, size - 1)
            ):
                found.append(cand)
    return sorted(found)


def uncapped_level_search(fan):
    """A level-wise search with no size cap: level k holds the k-sets in a
    cone, each extended by every larger ray; an extension whose k-subsets
    are all on level k is primitive if it lies in no cone, and the search
    stops at the first empty level."""
    cofaces = [set(c.ray_indices) for c in fan.max_cones]
    level = {(i,) for i in range(fan.n_rays)}
    found = []
    while level:
        cands = {
            c for c in (a + (r,) for a in level for r in range(a[-1] + 1, fan.n_rays))
            if all(sub in level for sub in itertools.combinations(c, len(c) - 1))
        }
        level = {c for c in cands if any(set(c) <= k for k in cofaces)}
        found += cands - level
    return sorted(found)


def test_level_search_matches_subset_scan():
    rng = random.Random(11)
    fans = [random_complete_fan(rng)[1] for _ in range(20)]
    fans += subdivided(corpus.cube_fan(3), 3, 1)[1:]
    fans += [corpus.cross_fan(4), corpus.cube_fan(4)]
    fans += subdivided(corpus.cube_fan(4), 2, 1)[1:]
    for f in fans:
        assert enumerate_primitive_collections(f) == (
            reference_enumerate_primitive_collections(f)
        )


def test_size_cap_loses_no_collection_on_non_simplicial_fans():
    # a primitive collection has at most n+1 rays; on the dimension-4 fans
    # with non-simplicial cones the search past that size finds nothing more
    fans = [corpus.cube_fan(4)]
    for seed in range(3):
        fans += subdivided(corpus.cube_fan(4), 3, seed)[1:]
    fans = [f for f in fans if not f.is_simplicial]
    assert len(fans) == 10
    for f in fans:
        assert enumerate_primitive_collections(f) == uncapped_level_search(f)


def test_primitivity_predicate_matches_enumeration():
    # the two primitivity oracles agree on every ray subset the enumeration
    # searches, on the simplicial paper examples and on seeded random fans
    fans = [f for _, f in corpus.paper_examples() if f.is_simplicial]
    rng = random.Random(11)
    fans += [random_complete_fan(rng)[1] for _ in range(10)]
    for f in fans:
        found = set(enumerate_primitive_collections(f))
        for size in range(2, f.dim + 2):
            for p in itertools.combinations(range(f.n_rays), size):
                assert _is_primitive(f, p) == (p in found)


def test_batyrev_variant():
    assert batyrev_primitive_collections(corpus.square_pyramid_fan()) == []
    f21 = corpus.split_pyramid_fan()
    assert batyrev_primitive_collections(f21) == enumerate_primitive_collections(f21)
    single = validate_fan(2, [(1, 0), (0, 1)], [[0, 1]])
    assert batyrev_primitive_collections(single) == []


def test_primitive_relation_split_pyramid():
    f = corpus.split_pyramid_fan()
    pr = primitive_relation(f, (1, 3))
    assert pr.sigma_min.ray_indices == (2, 4)
    assert pr.b == {2: 1, 4: 1}
    assert pr.relation == {1: 1, 3: 1, 2: -1, 4: -1}
    pr = primitive_relation(f, (0, 2, 4))
    assert pr.support == (2, 4)
    assert pr.b == {2: Fraction(1, 2), 4: Fraction(1, 2)}
    assert pr.relation == {0: 1, 2: Fraction(1, 2), 4: Fraction(1, 2)}


def test_primitive_relations_fulton_verbatim():
    f = corpus.fulton_fan()
    for p, (sigma, b) in FULTON_EXPECTED.items():
        pr = primitive_relation(f, p)
        assert pr.sigma_min.ray_indices == sigma
        assert pr.b == {k: Fraction(v) for k, v in b.items()}


def reference_primitive_relation(fan, collection):
    """The primitive relation with the ray sum's coefficients over its
    minimal cone found by LP, whether that cone is simplicial or not."""
    p = tuple(sorted(collection))
    total = vsum([fan.ray(i) for i in p], fan.dim)
    sigma = minimal_cone_containing(fan, total)
    gens = tuple(fan.ray(i) for i in sigma.ray_indices)
    inside, coeffs = cone_contains(VCone(gens, fan.dim), total)
    assert inside
    b = {i: v for i, v in zip(sigma.ray_indices, coeffs) if v != 0}
    relation = {i: 1 - b.get(i, 0) for i in p}
    relation.update({i: -v for i, v in b.items() if i not in p})
    return PrimitiveRelation(p, sigma, tuple(sorted(b)), b, relation)


def test_primitive_relations_match_lp_reference(monkeypatch):
    calls = []

    def counting(c, x):
        calls.append(x)
        return cone_contains(c, x)

    ranks = []
    real_rank = primcoll.rank

    def counting_rank(rows):
        ranks.append(rows)
        return real_rank(rows)

    monkeypatch.setattr(primcoll, "cone_contains", counting)
    monkeypatch.setattr(primcoll, "rank", counting_rank)
    rng = random.Random(11)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [corpus.cross_fan(d) for d in (3, 4)] + [corpus.cube_fan(d) for d in (3, 4)]
    fans += [random_complete_fan(rng)[1] for _ in range(20)]
    fat = 0
    for f in fans:
        for p in enumerate_primitive_collections(f):
            pr = primitive_relation(f, p)
            assert pr == reference_primitive_relation(f, p)
            assert all(type(v) is Fraction for v in pr.b.values())
            assert all(type(v) is Fraction for v in pr.relation.values())
            fat += len(pr.sigma_min.ray_indices) != pr.sigma_min.dim
    # the LP, and the rank check of its support, run once for each minimal
    # cone that is not simplicial
    assert len(calls) == len(ranks) == fat > 0


def test_antipodal_pair_relation_sums_to_zero():
    f = corpus.polygon_fan(4)
    pr = primitive_relation(f, (0, 2))
    assert pr.sigma_min.ray_indices == () and pr.support == ()
    assert pr.relation == {0: 1, 2: 1}


def _proper_subsets(p):
    return (
        sub for k in range(1, len(p)) for sub in itertools.combinations(p, k)
    )


def test_structural_invariants_on_corpus():
    fans = [
        corpus.split_pyramid_fan(),
        corpus.square_pyramid_fan(),
        corpus.fulton_fan(),
        corpus.polygon_fan(7),
        corpus.cube_fan(3),
    ]
    for f in fans:
        for p in enumerate_primitive_collections(f):
            assert 2 <= len(p) <= f.dim + 1
            assert not contained_in_single_cone(f, p)
            for sub in _proper_subsets(p):
                assert contained_in_single_cone(f, sub)
                assert rank([f.ray(i) for i in sub]) == len(sub)
            pr = primitive_relation(f, p)
            for i in set(p) & set(pr.support):
                assert 0 < pr.b[i] < 1
            positives = tuple(sorted(i for i, c in pr.relation.items() if c > 0))
            assert positives == p


def test_functional_identity_on_random_functions():
    rng = random.Random(11)
    for f in (corpus.split_pyramid_fan(), corpus.square_pyramid_fan(), corpus.fulton_fan()):
        basis = pl_basis(f)
        prs = [primitive_relation(f, p) for p in enumerate_primitive_collections(f)]
        for _ in range(20):
            phi = basis.combine(
                f,
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(basis.dim_pl)]
            )
            for pr in prs:
                total = vsum([f.ray(i) for i in pr.collection], f.dim)
                lhs = sum(c * phi.ray_value(i) for i, c in pr.relation.items())
                rhs = sum(phi.ray_value(i) for i in pr.collection) - phi.value(total)
                assert lhs == rhs


def test_all_support_choices_give_same_class():
    # the square cone admits both diagonals as supports; the class must agree
    f = corpus.square_pyramid_fan()
    basis = pl_basis(f)
    for p in enumerate_primitive_collections(f):
        pr = primitive_relation(f, p)
        target = vsum([f.ray(i) for i in p], f.dim)
        sigma = pr.sigma_min
        gens = [f.ray(i) for i in sigma.ray_indices]
        classes = []
        for size in range(1, len(gens) + 1):
            for sub in itertools.combinations(range(len(gens)), size):
                chosen = [gens[i] for i in sub]
                if rank(chosen) != len(chosen):
                    continue
                from fanforge.linalg import solve_linear

                sol = solve_linear(
                    [[g[d] for g in chosen] for d in range(f.dim)], target
                )
                if sol is None or any(c <= 0 for c in sol):
                    continue
                if any(
                    sum(c * g[d] for c, g in zip(sol, chosen)) != target[d]
                    for d in range(f.dim)
                ):
                    continue
                b = {sigma.ray_indices[i]: c for i, c in zip(sub, sol)}
                rel = {}
                for i in p:
                    rel[i] = 1 - b.get(i, 0)
                for i, c in b.items():
                    if i not in p:
                        rel[i] = -c
                rel = {i: c for i, c in rel.items() if c != 0}
                classes.append(curve_class(f, rel, basis))
        assert len(classes) >= 2
        assert all(c == classes[0] for c in classes)


def test_primitive_inequality_cone_split_pyramid():
    f = corpus.split_pyramid_fan()
    basis = pl_basis(f)
    cone = primitive_inequality_cone(f, basis)
    expected_rows = [
        relation_row(f, {1: 1, 2: -1, 3: 1, 4: -1}, basis),
        relation_row(f, {0: 2, 2: 1, 4: 1}, basis),
    ]
    expected = HCone.make(expected_rows, (), basis.dim_pic)
    assert cones_equal(cone, expected)


def test_primitive_inequality_cone_single_cone_fan():
    f = validate_fan(2, [(1, 0), (0, 1)], [[0, 1]])
    basis = pl_basis(f)
    cone = primitive_inequality_cone(f, basis)
    assert cone.inequalities == ()


def test_classify_type_examples():
    from fanforge.refine import simplicial_refinement

    coarse = corpus.square_pyramid_fan()
    fine = simplicial_refinement(coarse, (2, 4), seed=0).fine
    assert classify_type((1, 3), fine, coarse) == TYPE_A
    assert classify_type((0, 2, 4), fine, coarse) == TYPE_B
    # a fan refining itself leaves every collection type B
    f21 = corpus.split_pyramid_fan()
    for p in enumerate_primitive_collections(f21):
        assert classify_type(p, f21, f21) == TYPE_B


def test_lp_branch_rejects_a_dependent_support(monkeypatch):
    # the ray sum (0, 0, 1) of {0, 2, 4} lies in the square cone on rays
    # 1-4, where 1/4 on every ray is a nonnegative combination whose
    # support is dependent, so the LP branch cannot rely on its solver
    # returning a basic solution
    f = corpus.square_pyramid_fan()
    assert primitive_relation(f, (0, 2, 4)).support == (1, 3)
    quarter = Fraction(1, 4)
    monkeypatch.setattr(
        primcoll, "cone_contains", lambda c, x: (True, (quarter,) * len(c.generators))
    )
    with pytest.raises(RuntimeError, match="dependent support"):
        primitive_relation(f, (0, 2, 4))
