"""Exactness of what the library hands out.

Lattice vectors (rays, facet normals, cone generators) are ints; relation
coefficients, Mori classes, PL functionals and weights are ints or
Fractions, never floats; every number in a certificate is a lowest-terms
"p" or "p/q" string.  An int/int true division anywhere upstream would show
here as a float.
"""

import random
import re
from fractions import Fraction

from fanforge import corpus
from fanforge.cones import HCone, h_to_v, v_to_h, VCone
from fanforge.mori import extremal_walls, mori_cone, wall_relation
from fanforge.plfun import PLFunction, is_quasi_projective, pl_basis, wall_rows
from fanforge.primcoll import enumerate_primitive_collections, primitive_relation
from fanforge.refine import covers_coarse_exactly, qp_refinement, simplicial_refinement
from fanforge.theorems import random_complete_fan, run_paper_suite

CERT_NUMBER = re.compile(r"^-?\d+(/\d+)?$")


def assert_exact(values, where):
    for x in values:
        assert type(x) in (int, Fraction), f"{where}: {x!r}"


def assert_lattice(vectors, where):
    for v in vectors:
        assert all(type(x) is int for x in v), f"{where}: {v!r}"


def assert_certificate(obj, where):
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert_certificate(v, f"{where}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            assert_certificate(v, f"{where}[{i}]")
    elif isinstance(obj, str):
        assert CERT_NUMBER.match(obj), f"{where}: {obj!r}"
    else:
        assert type(obj) is int, f"{where}: {obj!r}"  # ray or cone indices


def assert_functions_exact(fns, where):
    for k, f in enumerate(fns):
        for m in f.cone_functionals:
            assert_exact(m, f"{where}[{k}]")
        assert_exact(f.ray_values(), f"{where}[{k}] ray values")


def sample_fans():
    fans = corpus.paper_examples()
    rng = random.Random(7)
    fans += [random_complete_fan(rng) for _ in range(5)]
    return fans


def test_paper_suite_certificates_are_exact():
    reports = run_paper_suite(seed=7, random_fans=5)
    kinds = set()
    for r in reports:
        assert_certificate(r.certificates, f"{r.fan_id} {r.theorem}")
        kinds |= set(r.certificates)
    assert {"memberships", "proportional", "walls", "dims"} <= kinds


def test_query_outputs_are_exact():
    for fan_id, f in sample_fans():
        assert_lattice(f.rays, fan_id)
        for face in f.faces.values():
            assert_lattice(face.facets.inequalities + face.facets.equalities, fan_id)
        assert_lattice(h_to_v(f.max_cones[0].facets).generators, fan_id)
        basis = pl_basis(f)
        assert_functions_exact(
            [PLFunction(f, ms) for ms in basis.quotient_functionals], f"{fan_id} basis"
        )
        for row in basis.ray_values:
            assert_exact(row, f"{fan_id} basis ray values")
        for row in wall_rows(f, basis):
            assert_exact(row, f"{fan_id} wall row")
        ok, witness = is_quasi_projective(f)
        if ok:
            assert_functions_exact([witness], f"{fan_id} witness")
        for w in f.interior_walls:
            assert_exact(wall_relation(f, w).values(), f"{fan_id} wall relation")
        for p in enumerate_primitive_collections(f):
            pr = primitive_relation(f, p)
            assert_exact(pr.relation.values(), f"{fan_id} relation of {p}")
            assert_exact(pr.b.values(), f"{fan_id} support of {p}")
        mc = mori_cone(f, basis)
        for cls in mc.classes:
            assert_exact(cls, f"{fan_id} Mori class")
        if mc.is_pointed:
            extremal_walls(f, basis)


def test_refinement_outputs_are_exact():
    f31 = corpus.square_pyramid_fan()
    support = (1, 3)  # weight 1, so the slice points divide ints by ints
    r = simplicial_refinement(f31, support, seed=3)
    _, witness = is_quasi_projective(f31)
    rq, phi = qp_refinement(f31, support, witness, seed=3)
    for ref in (r, rq):
        assert_exact(ref.weights.w, "weights")
        assert [ref.weights.w[i] for i in support] == [1, 1]
        for m in ref.dual_points:
            assert_exact(m, "dual point")
        assert covers_coarse_exactly(ref)
    assert_lattice(r.dual_points, "facet normal sums")
    assert_functions_exact([phi], "fine function")


def test_cone_conversions_keep_lattice_vectors_int():
    h = HCone.make([(1, 0, 0), (0, 1, 0), (1, 1, -1)], [], 3)
    v = h_to_v(h)
    assert_lattice(v.generators, "h_to_v")
    back = v_to_h(VCone.make(v.generators))
    assert_lattice(back.inequalities + back.equalities, "v_to_h")
    rational = v_to_h(VCone.make([(Fraction(1, 2), 0), (0, Fraction(2, 3))]))
    assert rational.inequalities == ((0, 1), (1, 0))
    assert_lattice(rational.inequalities, "v_to_h of rational generators")
