import itertools
import random
from fractions import Fraction

import pytest

from fanforge import corpus, mori, plfun
from fanforge.cones import cone_contains, cones_equal, dual_cone, HCone, VCone
from fanforge.fan import fan_from_json_obj, validate_fan
from fanforge.linalg import kernel_basis, primitivize, rank, vec
from fanforge.mori import (
    MoriConeNotPointed,
    curve_class,
    extremal_walls,
    mori_cone,
    positively_proportional,
    relation_dense,
    relation_is_valid,
    wall_relation,
)
from fanforge.plfun import is_quasi_projective, pl_basis, wall_functional, wall_rows
from fanforge.primcoll import enumerate_primitive_collections, primitive_relation
from fanforge.theorems import random_complete_fan, stellar_subdivide
from test_cones import lineality_dim
from test_linalg import reference_lex_min_independent_subset


def kernel_relation(fan, ray_seq):
    """The unique relation among the listed rays, all but the last
    independent, as the kernel of their matrix scaled to 1 on the last."""
    rows = [[fan.ray(i)[d] for i in ray_seq] for d in range(fan.dim)]
    (k,) = kernel_basis(rows, len(ray_seq))
    return {i: c / k[-1] for i, c in zip(ray_seq, k) if c != 0}


def wall_by_rays(fan, rays):
    return next(w for w in fan.interior_walls if w.ray_indices == tuple(rays))


def wall_relation_choices(fan, wall):
    """All admissible wall relations (every independent (n-1)-subset of the
    wall rays, every off-wall ray pair); the reference for representative
    independence of the class."""
    a, b = wall.cone_indices
    wall_idx = wall.ray_indices
    for subset in itertools.combinations(wall_idx, fan.dim - 1):
        if rank([fan.ray(i) for i in subset]) != fan.dim - 1:
            continue
        for off_a in set(fan.max_cones[a].ray_indices) - set(wall_idx):
            for off_b in set(fan.max_cones[b].ray_indices) - set(wall_idx):
                yield kernel_relation(fan, list(subset) + [off_a, off_b])


def test_wall_relation_top_diagonal():
    f = corpus.split_pyramid_fan()
    rel = wall_relation(f, wall_by_rays(f, (2, 4)))
    # rho1 - rho2 + rho3 - rho4 = 0, normalized to coefficient 1 on rho3
    assert rel == {1: 1, 2: -1, 3: 1, 4: -1}


def test_wall_relation_side_wall():
    f = corpus.split_pyramid_fan()
    rel = wall_relation(f, wall_by_rays(f, (0, 1)))
    # kernel of ((rho0, rho1, rho2, rho4)) gives 2 rho0 + rho2 + rho4 = 0
    assert rel == {0: 2, 2: 1, 4: 1}


def test_wall_relation_normalization_contract():
    for f in (corpus.split_pyramid_fan(), corpus.square_pyramid_fan(), corpus.fulton_fan()):
        for w in f.interior_walls:
            rel = wall_relation(f, w)
            assert relation_is_valid(f, rel)
            a, b = w.cone_indices
            off_a = min(set(f.max_cones[a].ray_indices) - set(w.ray_indices))
            off_b = min(set(f.max_cones[b].ray_indices) - set(w.ray_indices))
            assert rel[off_b] == 1
            assert rel[off_a] > 0


def test_wall_relation_choices_all_positively_proportional():
    # representative independence on fans with genuinely non-unique choices
    for f in (corpus.square_pyramid_fan(), corpus.cube_fan(3)):
        basis = pl_basis(f)
        for w in f.interior_walls:
            classes = [
                curve_class(f, rel, basis) for rel in wall_relation_choices(f, w)
            ]
            assert len(classes) >= 1
            first = classes[0]
            for c in classes[1:]:
                assert positively_proportional(c, first)


def test_dim1_wall_relation():
    f = validate_fan(1, [(1,), (-1,)], [[0], [1]])
    w = f.interior_walls[0]
    assert w.ray_indices == ()
    assert wall_relation(f, w) == {0: 1, 1: 1}


def test_relation_in_kernel_of_classes():
    # rho1 - rho2 + rho3 - rho4 vanishes on every function of the coarse fan
    f = corpus.square_pyramid_fan()
    basis = pl_basis(f)
    cls = curve_class(f, {1: 1, 2: -1, 3: 1, 4: -1}, basis)
    assert all(x == 0 for x in cls)


def test_class_identities_up_to_positive_scalar():
    f = corpus.split_pyramid_fan()
    basis = pl_basis(f)

    def cls(rays):
        return curve_class(f, wall_relation(f, wall_by_rays(f, rays)), basis)

    c12, c01, c02, c24 = cls((1, 2)), cls((0, 1)), cls((0, 2)), cls((2, 4))
    assert positively_proportional(c12, vec(4 * x for x in c01))
    combo = vec(2 * a + 2 * b for a, b in zip(c12, c24))
    assert positively_proportional(c02, combo)


def test_convex_functions_pair_nonnegatively_with_classes():
    for f in (corpus.split_pyramid_fan(), corpus.polygon_fan(5)):
        ok, witness = is_quasi_projective(f)
        assert ok
        for w in f.interior_walls:
            rel = wall_relation(f, w)
            val = sum(c * witness.ray_value(i) for i, c in rel.items())
            assert val > 0
        zero_phi = pl_basis(f).combine(f, [0] * pl_basis(f).dim_pl)
        for w in f.interior_walls:
            rel = wall_relation(f, w)
            assert sum(c * zero_phi.ray_value(i) for i, c in rel.items()) == 0


def test_global_linear_functions_have_no_pic_coordinates():
    # why wall rows, relation rows and curve classes carry only the
    # quotient coordinates: a global linear function has one
    # functional on both sides of every wall, and a relation's rays sum to 0
    rng = random.Random(11)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [corpus.cross_fan(4), corpus.cube_fan(4)]
    fans += [random_complete_fan(rng)[1] for _ in range(12)]
    for f in fans:
        basis = pl_basis(f)
        fns = [
            basis.combine(f, [int(j == i) for j in range(basis.dim_pl)])
            for i in range(basis.dim_pl)
        ]
        assert basis.ray_values == tuple(fn.ray_values() for fn in fns)
        rels = [wall_relation(f, w) for w in f.interior_walls] + [
            primitive_relation(f, p).relation for p in enumerate_primitive_collections(f)
        ]
        assert basis.dim_pl - basis.dim_pic == f.dim
        for fn in fns[:f.dim]:
            assert all(wall_functional(f, w, fn) == 0 for w in f.interior_walls)
            for rel in rels:
                assert sum(c * fn.ray_value(i) for i, c in rel.items()) == 0
        for row in wall_rows(f, basis) + [curve_class(f, rel, basis) for rel in rels]:
            assert len(row) == basis.dim_pic


def reference_extremal_walls(fan, basis):
    """The pairwise loop: each wall's class tested against the cone of every
    class not positively proportional to it."""
    mc = mori_cone(fan, basis)
    out = []
    for w, cls in zip(mc.walls, mc.classes):
        if all(x == 0 for x in cls):
            continue
        others = [
            c
            for c in mc.classes
            if any(x != 0 for x in c) and not positively_proportional(c, cls)
        ]
        if not others or not cone_contains(VCone(tuple(others), basis.dim_pic), cls)[0]:
            out.append(w)
    return out


def _wall_class_fans():
    rng = random.Random(11)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [corpus.cross_fan(d) for d in (3, 4)] + [corpus.cube_fan(d) for d in (3, 4)]
    fans += [random_complete_fan(rng)[1] for _ in range(20)]
    return fans


def test_extremal_walls_match_pairwise_reference():
    shared = compared = 0
    for f in _wall_class_fans():
        basis = pl_basis(f)
        mc = mori_cone(f, basis)
        if not mc.is_pointed:
            with pytest.raises(MoriConeNotPointed):
                extremal_walls(f, basis)
            continue
        assert extremal_walls(f, basis) == reference_extremal_walls(f, basis)
        compared += 1
        dirs = [primitivize(c) for c in mc.classes if any(x != 0 for x in c)]
        shared += len(dirs) > len(set(dirs))
    # grouping classes by direction is exercised: walls share a direction
    assert compared >= 30 and shared >= 15


def test_mori_cone_keeps_each_wall_relation():
    for f in _wall_class_fans():
        basis = pl_basis(f)
        mc = mori_cone(f, basis)
        # the relation behind each class is its wall's canonical relation
        assert len(mc.walls) == len(mc.classes)
        for w, cls in zip(mc.walls, mc.classes):
            assert cls == curve_class(f, wall_relation(f, w), basis)


def test_mori_cone_of_split_pyramid():
    f = corpus.split_pyramid_fan()
    basis = pl_basis(f)
    mc = mori_cone(f, basis)
    assert mc.is_pointed
    directions = {primitivize(c) for c in mc.classes}
    assert len(directions) == 3


def test_mori_cone_single_cone_fan():
    f = validate_fan(2, [(1, 0), (0, 1)], [[0, 1]])
    basis = pl_basis(f)
    mc = mori_cone(f, basis)
    assert mc.classes == () and VCone.make(mc.classes, basis.dim_pic).generators == ()


def test_mori_cone_fulton_not_pointed():
    f = corpus.fulton_fan()
    basis = pl_basis(f)
    mc = mori_cone(f, basis)
    assert not mc.is_pointed
    with pytest.raises(MoriConeNotPointed):
        extremal_walls(f, basis)


def test_extremal_walls_split_pyramid():
    f = corpus.split_pyramid_fan()
    basis = pl_basis(f)
    ext = {w.ray_indices for w in extremal_walls(f, basis)}
    assert ext == {(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)}


def test_extremal_walls_product_of_lines_fan():
    # complete 2D fan with 4 rays: opposite walls share a class, two extremal
    # directions
    f = corpus.polygon_fan(4)
    basis = pl_basis(f)
    ext = extremal_walls(f, basis)
    assert len(ext) == 4  # every wall spans one of the two extremal rays
    dirs = {
        primitivize(curve_class(f, wall_relation(f, w), basis)) for w in ext
    }
    assert len(dirs) == 2


def test_single_interior_wall_is_extremal():
    f = validate_fan(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])
    basis = pl_basis(f)
    ext = extremal_walls(f, basis)
    assert [w.ray_indices for w in ext] == [(1,)]


def test_mori_cone_is_dual_of_wall_inequalities():
    for f in (corpus.split_pyramid_fan(), corpus.square_pyramid_fan(), corpus.polygon_fan(5)):
        basis = pl_basis(f)
        mc = mori_cone(f, basis)
        cpl = HCone.make(
            wall_rows(f, basis), (), basis.dim_pic
        )
        assert cones_equal(VCone.make(mc.classes, basis.dim_pic), dual_cone(cpl))


def test_primitive_class_membership_certificate():
    from fanforge.primcoll import enumerate_primitive_collections, primitive_relation

    f = corpus.split_pyramid_fan()
    basis = pl_basis(f)
    cone = VCone.make(mori_cone(f, basis).classes, basis.dim_pic)
    for p in enumerate_primitive_collections(f):
        rel = primitive_relation(f, p).relation
        cls = curve_class(f, rel, basis)
        ok, cert = cone_contains(cone, cls)
        assert ok
        for d in range(len(cls)):
            got = sum(
                c * g[d] for c, g in zip(cert, cone.generators)
            )
            assert got == cls[d]


def test_nonsimplicial_walls_in_dim_four():
    # the 4-cube face fan: every interior wall is a cone over a square, so
    # the canonical relation really picks a proper independent subset, and
    # all 64 admissible choices per wall give one class direction
    f = corpus.cube_fan(4)
    basis = pl_basis(f)
    fat = [w for w in f.interior_walls if len(w.ray_indices) > f.dim - 1]
    assert len(fat) == len(f.interior_walls) == 24
    w = fat[0]
    classes = [curve_class(f, rel, basis) for rel in wall_relation_choices(f, w)]
    assert len(classes) == 64
    assert all(positively_proportional(c, classes[0]) for c in classes)
    canon = wall_relation(f, w)
    assert relation_is_valid(f, canon)
    assert positively_proportional(curve_class(f, canon, basis), classes[0])


def reference_wall_relation(fan, wall):
    """The canonical wall relation solved by elimination on every wall: the
    kernel of the lexicographically smallest independent (n-1)-subset of
    the wall rays and the two smallest off-wall rays."""
    a, b = wall.cone_indices
    wall_vecs = [fan.ray(i) for i in wall.ray_indices]
    chosen = reference_lex_min_independent_subset(wall_vecs, fan.dim - 1)
    tau_part = [wall.ray_indices[i] for i in chosen]
    off_a = min(set(fan.max_cones[a].ray_indices) - set(wall.ray_indices))
    off_b = min(set(fan.max_cones[b].ray_indices) - set(wall.ray_indices))
    return kernel_relation(fan, tau_part + [off_a, off_b])


def test_wall_relation_matches_kernel_reference(monkeypatch):
    solved = []
    real = plfun._relation_for_rays

    def counting(fan, ray_seq):
        solved.append(ray_seq)
        return real(fan, ray_seq)

    fans = _wall_class_fans() + [validate_fan(1, [(1,), (-1,)], [[0], [1]])]
    dual = kernel = 0
    for f in fans:
        for w in f.interior_walls:
            cone_a = f.max_cones[w.cone_indices[0]]
            simplicial = len(cone_a.ray_indices) == cone_a.dim
            solved.clear()
            monkeypatch.setattr(plfun, "_relation_for_rays", counting)
            rel = wall_relation(f, w)
            monkeypatch.undo()
            assert rel == reference_wall_relation(f, w)
            assert all(type(c) is Fraction for c in rel.values())
            # only a wall whose first cone is not simplicial is eliminated
            assert len(solved) == (not simplicial)
            dual += simplicial
            kernel += not simplicial
    # 233 and 95 walls at this corpus
    assert dual >= 200 and kernel >= 80


def _pointedness_reference(mc, dim) -> bool:
    cone = VCone.make(mc.classes, dim)
    return not cone.generators or lineality_dim(cone) == 0


def test_is_pointed_matches_double_description_on_fulton_subdivisions():
    # Fulton's fan and its stellar subdivisions are not quasi-projective, so
    # pointedness is decided by the LP on the classes
    f = corpus.fulton_fan()
    fans = [f] + [stellar_subdivide(f, k) for k in range(len(f.max_cones))]
    rng = random.Random(3)
    for _ in range(5):
        g = f
        for _ in range(2):
            g = stellar_subdivide(g, rng.randrange(len(g.max_cones)))
        fans.append(g)
    for g in fans:
        assert not is_quasi_projective(g)[0]
        mc = mori_cone(g, pl_basis(g))
        assert mc.is_pointed is _pointedness_reference(mc, pl_basis(g).dim_pic) is False


def test_is_pointed_lp_branch_matches_double_description(monkeypatch):
    # with the quasi-projective shortcut withheld, the LP alone must find
    # the pointed cones of quasi-projective fans pointed
    monkeypatch.setattr(mori, "is_quasi_projective", lambda fan: (False, None))
    pointed = 0
    for f in _wall_class_fans():
        g = fan_from_json_obj(f.to_json_obj())
        mc = mori_cone(g, pl_basis(g))
        assert mc.is_pointed is _pointedness_reference(mc, pl_basis(g).dim_pic)
        pointed += mc.is_pointed
    assert pointed >= 30
