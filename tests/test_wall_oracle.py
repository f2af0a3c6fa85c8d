"""The one-relation-per-wall route against the routes it replaced.

The library reads every wall quantity off one integer relation per wall and
a positive scale (plfun._wall_table), and every simplicial coordinate off a
cone's integer frame.  The references here are the older, independent
routes: the bend <m_a - m_b, v_off> over the sum v_off of the first cone's
off-wall rays, Mori classes as Fraction sums over the basis's ray values,
and dual bases found by scanning every facet of the cone.  Each comparison
also checks a bend read off the table against the off-wall-vector bend, so
a wrong sign of any wall's scale fails every one of them.
"""

import random
from fractions import Fraction

import pytest

from fanforge import corpus, lp
from fanforge.linalg import vdot, vscale, vsub, vsum
from fanforge.mori import mori_cone, relation_row
from fanforge.plfun import (
    PLFunction,
    _wall_table,
    is_convex,
    is_quasi_projective,
    is_strictly_convex,
    pl_basis,
    pl_from_ray_values,
    wall_functional,
    wall_relation,
    wall_rows,
)
from fanforge.primcoll import primitive_relations
from fanforge.theorems import random_complete_fan, stellar_subdivide
from test_fan_verdicts import convex_part


def off_wall_bend(fan, wall, phi):
    """<m_a - m_b, v_off> for the sum v_off of the first cone's off-wall
    rays: the wall functional computed without the wall relation."""
    a, b = wall.cone_indices
    off = [fan.ray(i) for i in fan.max_cones[a].ray_indices if i not in wall.ray_indices]
    return vdot(vsub(phi.cone_functionals[a], phi.cone_functionals[b]), vsum(off, fan.dim))


def oracle_rows(fan, basis):
    fns = [PLFunction(fan, q) for q in basis.quotient_functionals]
    return [tuple(off_wall_bend(fan, w, f) for f in fns) for w in fan.interior_walls]


def fraction_relation_row(fan, rel, basis):
    """Entry j is sum_i rel[i] * phi_j(ray_i), summed in Fractions."""
    return tuple(
        sum((Fraction(c) * values[i] for i, c in rel.items()), Fraction(0))
        for values in basis.ray_values[fan.dim:]
    )


def facet_scan_dual_basis(cone, rays):
    """d_i = u / <u, v_i> for the one facet inequality u that does not
    vanish on v_i, found by scanning every facet."""
    basis = []
    for i in cone.ray_indices:
        (u,) = (u for u in cone.facets.inequalities if vdot(u, rays[i]) != 0)
        basis.append(tuple(Fraction(x, vdot(u, rays[i])) for x in u))
    return tuple(basis)


def _corpus():
    fans = corpus.paper_examples()
    rng = random.Random(7)
    fans += [random_complete_fan(rng) for _ in range(25)]
    fans += [("cross4", corpus.cross_fan(4)), ("cube3", corpus.cube_fan(3)),
             ("cube4", corpus.cube_fan(4))]
    rng = random.Random(5)
    for dim in (2, 3, 4):
        for bounded in sorted({dim, 1, 2}):
            f = convex_part(dim, bounded)
            f = stellar_subdivide(f, rng.randrange(len(f.max_cones)))
            fans.append((f"convex{dim}/{bounded}", f))
    f = corpus.fulton_fan()
    for _ in range(2):
        f = stellar_subdivide(f, rng.randrange(len(f.max_cones)))
    fans.append(("fulton+2", f))
    return fans


@pytest.fixture(scope="module")
def fans():
    return _corpus()


def test_corpus_covers_both_kinds_of_wall(fans):
    # walls whose first cone is simplicial (scale 1 / c_a) and walls whose
    # first cone has several off-wall rays; fans with convex support; a fan
    # that is not quasi-projective
    fat = thin = 0
    for _, f in fans:
        for w in f.interior_walls:
            n_off = len(f.max_cones[w.cone_indices[0]].ray_indices) - len(w.ray_indices)
            fat += n_off > 1
            thin += n_off == 1
    assert len(fans) == 47 and fat >= 100 and thin >= 300
    assert sum(not f.is_complete for _, f in fans) == 8
    assert not is_quasi_projective(dict(fans)["fulton+2"])[0]


def test_wall_rows_equal_the_off_wall_oracle(fans):
    for name, f in fans:
        basis = pl_basis(f)
        assert wall_rows(f, basis) == oracle_rows(f, basis), name


def test_classes_equal_the_fraction_reference(fans):
    for name, f in fans:
        basis = pl_basis(f)
        mc = mori_cone(f, basis)
        expected = [fraction_relation_row(f, wall_relation(f, w), basis) for w in mc.walls]
        assert list(mc.classes) == expected, name
        # a wall's class times its scale is its oracle row (the lemma)
        scales = [scale for _, _, _, scale in _wall_table(f)]
        assert all(s > 0 for s in scales), name
        assert [vscale(s, c) for s, c in zip(scales, expected)] == oracle_rows(f, basis)
        for pr in primitive_relations(f).values():
            row = relation_row(f, pr.relation, basis)
            assert row == fraction_relation_row(f, pr.relation, basis), name


def test_frame_dual_basis_equals_the_facet_scan(fans):
    rng = random.Random(11)
    cones = 0
    for name, f in fans:
        for c in list(f.max_cones) + list(f.faces.values()):
            if len(c.ray_indices) != c.dim:
                assert c.frame == (), name
                continue
            assert all(s > 0 for _, s in c.frame), name
            frame_basis = tuple(tuple(Fraction(x, s) for x in u) for u, s in c.frame)
            assert frame_basis == facet_scan_dual_basis(c, f.rays), name
            cones += 1
        if f.is_simplicial:
            # functions built on the frame bend as the oracle says
            phi = pl_from_ray_values(f, [rng.randint(-3, 3) for _ in range(f.n_rays)])
            for w in f.interior_walls:
                assert wall_functional(f, w, phi) == off_wall_bend(f, w, phi), name
    assert cones >= 1200


def _combinations(f, basis, rng):
    """Quotient coordinates of seeded test functions: zero (every bend
    zero), random ones, and for a quasi-projective fan a strictly convex one
    moved toward a random direction up to, half way to and twice as far as
    the first point where a bend reaches zero."""
    rows = oracle_rows(f, basis)
    out = [(0,) * basis.dim_pic]
    out += [tuple(rng.randint(-2, 2) for _ in range(basis.dim_pic)) for _ in range(3)]
    x, _ = lp.strict_feasible(rows, [], [], basis.dim_pic)
    if x is None or not basis.dim_pic:
        return out
    for _ in range(3):
        r = tuple(rng.randint(-3, 3) for _ in range(basis.dim_pic))
        stops = [
            Fraction(vdot(row, x), -vdot(row, r)) for row in rows if vdot(row, r) < 0
        ]
        for t in ((min(stops), min(stops) / 2, min(stops) * 2) if stops else ()):
            out.append(tuple(xi + t * ri for xi, ri in zip(x, r)))
    return out


def test_convexity_agrees_with_the_oracle_signs(fans):
    rng = random.Random(2026)
    seen = {"strict": 0, "boundary": 0, "not convex": 0}
    for name, f in fans:
        basis = pl_basis(f)
        for coeffs in _combinations(f, basis, rng):
            phi = basis.combine(f, (0,) * f.dim + tuple(coeffs))
            bends = [off_wall_bend(f, w, phi) for w in f.interior_walls]
            assert [wall_functional(f, w, phi) for w in f.interior_walls] == bends, name
            assert is_convex(phi) == all(x >= 0 for x in bends), name
            assert is_strictly_convex(phi) == all(x > 0 for x in bends), name
            if all(x > 0 for x in bends):
                seen["strict"] += 1
            elif all(x >= 0 for x in bends) and any(x > 0 for x in bends):
                seen["boundary"] += 1
            elif any(x < 0 for x in bends):
                seen["not convex"] += 1
    assert min(seen.values()) >= 50, seen
