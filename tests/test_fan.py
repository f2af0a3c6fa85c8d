import json
import logging

import pytest

from fanforge import corpus
from fanforge.primcoll import enumerate_primitive_collections
from fanforge.fan import (
    FanError,
    OutsideSupport,
    contained_in_single_cone,
    fan_from_json,
    fan_to_json,
    fans_equal,
    generates_cone,
    minimal_cone_containing,
    validate_fan,
)


def test_split_pyramid_is_valid_simplicial_complete():
    f = corpus.split_pyramid_fan()
    assert f.is_simplicial and f.is_complete
    assert len(f.interior_walls) == 9 and not f.boundary_walls


def test_square_pyramid_is_valid_nonsimplicial():
    f = corpus.square_pyramid_fan()
    assert not f.is_simplicial
    assert len(f.interior_walls) == 8
    fat = [c for c in f.max_cones if len(c.ray_indices) == 4]
    assert len(fat) == 1 and fat[0].ray_indices == (1, 2, 3, 4)


def test_fulton_fan_shape():
    f = corpus.fulton_fan()
    assert f.is_simplicial and f.is_complete
    assert len(f.max_cones) == 10 and len(f.interior_walls) == 15


def test_gap_between_cones_is_not_convex():
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [2, 3]])
    assert e.value.code == "SupportNotConvex"


def test_improper_overlap_rejected():
    # the cones overlap in a two-dimensional region, not in a common face
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [[0, 1], [2, 3]])
    assert e.value.code == "ConesOverlapImproperly"


def test_low_dimensional_max_cone_rejected():
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (0, 1)], [[0, 1], [0]])
    assert e.value.code == "MaxConeNotFullDim"


def test_cone_with_line_rejected():
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (-1, 0), (0, 1)], [[0, 1, 2]])
    assert e.value.code == "NotStronglyConvex"


def test_interior_generator_rejected():
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1, 2]])
    assert e.value.code == "RayNotExtreme"


def test_nonprimitive_ray_normalized_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        f = validate_fan(2, [(2, 0), (0, 1)], [[0, 1]])
    assert f.rays[0] == (1, 0)
    assert any("normalized" in r.message for r in caplog.records)


def test_half_plane_support_is_convex():
    f = validate_fan(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])
    assert not f.is_complete
    assert len(f.interior_walls) == 1 and len(f.boundary_walls) == 2


def test_minimal_cone_containing_examples():
    f31 = corpus.square_pyramid_fan()
    assert minimal_cone_containing(f31, (0, 0, 2)).ray_indices == (1, 2, 3, 4)
    assert minimal_cone_containing(f31, (1, 1, 1)).ray_indices == (1,)
    f21 = corpus.split_pyramid_fan()
    assert minimal_cone_containing(f21, (0, 0, 1)).ray_indices == (2, 4)
    assert minimal_cone_containing(f21, (0, 0, 0)).ray_indices == ()


def test_minimal_cone_outside_support():
    f = validate_fan(2, [(1, 0), (0, 1)], [[0, 1]])
    with pytest.raises(OutsideSupport):
        minimal_cone_containing(f, (-1, 0))


def test_minimal_cone_is_face_of_every_container():
    f = corpus.fulton_fan()
    for x in [(1, 1, 1), (0, 0, 2), (1, 2, 1), (-1, -1, -1), (3, 1, 1)]:
        m = minimal_cone_containing(f, x)
        assert m.contains_point(x)
        for c in f.max_cones:
            if c.contains_point(x):
                assert set(m.ray_indices) <= set(c.ray_indices)


def test_minimal_cone_matches_face_scan_on_primitive_sums():
    for _, f in corpus.paper_examples():
        points = [(0,) * f.dim]
        for p in enumerate_primitive_collections(f):
            points.append(tuple(sum(f.ray(i)[d] for i in p) for d in range(f.dim)))
        for x in points:
            containing = [c for c in f.faces.values() if c.contains_point(x)]
            smallest = min(containing, key=lambda c: (c.dim, c.ray_indices))
            assert all(
                set(smallest.ray_indices) <= set(c.ray_indices) for c in containing
            )
            assert minimal_cone_containing(f, x) == smallest


def test_contained_in_single_cone():
    f31 = corpus.square_pyramid_fan()
    assert contained_in_single_cone(f31, (1, 2, 3, 4))
    assert contained_in_single_cone(f31, ())
    f21 = corpus.split_pyramid_fan()
    assert not contained_in_single_cone(f21, (1, 3))


def test_generates_cone_vs_containment():
    f31 = corpus.square_pyramid_fan()
    assert contained_in_single_cone(f31, (1, 3))
    assert not generates_cone(f31, (1, 3))
    assert generates_cone(f31, (1, 2))


def test_interior_walls_listing():
    f = corpus.split_pyramid_fan()
    assert len(f.interior_walls) == 9
    for w in f.interior_walls:
        left, right = (f.max_cones[k] for k in w.cone_indices)
        assert set(w.ray_indices) <= set(left.ray_indices)
        assert set(w.ray_indices) <= set(right.ray_indices)
        assert left.ray_indices != right.ray_indices


def test_polygon_walls_count():
    for r in (4, 7):
        f = corpus.polygon_fan(r)
        assert len(f.interior_walls) == r and f.is_complete


def test_single_cone_fan_no_interior_walls():
    f = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
    assert len(f.interior_walls) == 0
    assert len(f.boundary_walls) == 3


def test_face_lattice_closed_under_intersection():
    for f in (corpus.split_pyramid_fan(), corpus.square_pyramid_fan()):
        sets = {frozenset(k) for k in f.faces}
        for a in sets:
            for b in sets:
                assert a & b in sets
        with pytest.raises(TypeError):
            f.faces[()] = f.faces[()]


def test_complete_fan_every_wall_interior():
    for f in (corpus.fulton_fan(), corpus.polygon_fan(6), corpus.cube_fan(3)):
        assert all(w.is_interior for w in f.walls)


def test_simpliciality_flag_matches_definition():
    for f in (corpus.split_pyramid_fan(), corpus.cube_fan(3), corpus.cross_fan(3)):
        expect = all(len(c.ray_indices) == c.dim for c in f.max_cones)
        assert f.is_simplicial == expect


def test_ray_cone_is_first_maximal_cone_holding_the_ray():
    for f in (corpus.split_pyramid_fan(), corpus.square_pyramid_fan(), corpus.cube_fan(3)):
        assert f.ray_cone == tuple(
            min(k for k, c in enumerate(f.max_cones) if i in c.ray_indices)
            for i in range(f.n_rays)
        )


def test_json_roundtrip():
    f = corpus.fulton_fan()
    g = fan_from_json(fan_to_json(f))
    assert fans_equal(f, g)


def test_bad_json_rejected():
    with pytest.raises(ValueError):
        fan_from_json(json.dumps({"rays": [[1, 0]]}))
