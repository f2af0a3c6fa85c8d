"""validate_fan's verdicts, pinned and checked against independent oracles.

The digest pins, over seeded random inputs and unions of cross-fan orthants,
the FanError code and message of every rejected input and the face
dimensions, walls and support of every accepted one.  The support tests
compare the support's facet normals on non-complete convex fans with the
kernel of each boundary wall oriented towards its cone, and with the
orthant inequalities that cut the fan out.  The facet-matching test that
accepts fans is checked against the pairwise intersection of maximal cones,
and the walls and support it reads off the facets against a scan of every
face against every cone and the boundary walls' rows; both are kept here
as references.  Each maximal cone's facet_rays is checked against the rays
its normals vanish on, and its extreme rays are decided off that incidence
with no elimination beyond the one for pointedness.  The face lattice, whose faces are read off that
incidence, is checked against a double description of every face, and
each simplicial cone's facets and frame, read off the inverse of its ray
matrix, against its double description and a search of its facets.
"""

import hashlib
import itertools
import random
import re

import pytest

from fanforge import corpus
from fanforge import cones as conesmod
from fanforge import fan as fanmod
from fanforge.cones import VCone, h_to_v, intersect_hcones, v_to_h
from fanforge.fan import FanError, validate_fan
from fanforge.linalg import kernel_basis, primitivize, rank, vdot, vneg
from fanforge.theorems import random_complete_fan, stellar_subdivide
from test_cross_oracles import workloads_module
from test_theorems import moved_vertex_cube_fan

# sha256 of the outcomes of verdict_inputs(), one repr per line
VERDICT_DIGEST = "d19701652d050d15a3e17538a89a99e5bd4bd8acc176bdc7bb6d22a7de88776e"


def orthant_union(dim, orthants):
    """The fan of the given orthants of cross_fan(dim), each a tuple of signs
    (+1 or -1 per axis), on the rays +-e_i that those orthants use."""
    used = sorted({(i, s) for o in orthants for i, s in enumerate(o)})
    index = {a: k for k, a in enumerate(used)}
    rays = [[s if j == i else 0 for j in range(dim)] for i, s in used]
    cones = [[index[(i, s)] for i, s in enumerate(o)] for o in orthants]
    return dim, rays, cones


def verdict_inputs():
    """About 2,000 seeded random inputs (dimension 1-4, up to 7 rays, up to 5
    cones) and the unions of cross-fan orthants: every one in dimensions 2
    and 3, and a seeded sample in dimension 4."""
    rng = random.Random(2024)
    for _ in range(2000):
        dim = rng.randint(1, 4)
        nrays = rng.randint(1, 7)
        rays = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(nrays)]
        sizes = [min(nrays, dim), rng.randint(1, min(nrays, dim + 2))]
        cones = [
            rng.sample(range(nrays), rng.choice(sizes))
            for _ in range(rng.randint(1, 5))
        ]
        yield dim, rays, cones
    for dim in (2, 3):
        orthants = list(itertools.product((1, -1), repeat=dim))
        for size in range(1, len(orthants) + 1):
            for chosen in itertools.combinations(orthants, size):
                yield orthant_union(dim, chosen)
    orthants = list(itertools.product((1, -1), repeat=4))
    for _ in range(40):
        yield orthant_union(4, rng.sample(orthants, rng.randint(1, 16)))


def outcome(dim, rays, cones):
    try:
        f = validate_fan(dim, rays, cones)
    except FanError as e:
        return e.code, str(e)
    return (
        sorted((k, c.dim) for k, c in f.faces.items()),
        [(w.ray_indices, w.cone_indices) for w in f.walls],
        f.support.inequalities,
    )


def test_validate_fan_verdicts_are_pinned():
    h = hashlib.sha256()
    for args in verdict_inputs():
        h.update(repr(outcome(*args)).encode() + b"\n")
    assert h.hexdigest() == VERDICT_DIGEST


def reference_boundary_normals(fan):
    """The support's facet normals as the kernel of each boundary wall's
    rays, oriented so that the wall's cone lies on the non-negative side."""
    rows = set()
    for w in fan.boundary_walls:
        (u,) = kernel_basis([fan.ray(i) for i in w.ray_indices], fan.dim)
        cone = fan.max_cones[w.cone_indices[0]]
        if any(vdot(u, fan.ray(i)) < 0 for i in cone.ray_indices):
            u = vneg(u)
        rows.add(primitivize(u))
    return tuple(sorted(rows))


def convex_part(dim, bounded):
    """The orthants of cross_fan(dim) with a positive sign on the first
    `bounded` axes: one orthant (bounded = dim), a half-space (1) or a
    quarter-space (2)."""
    orthants = [
        o for o in itertools.product((1, -1), repeat=dim)
        if all(s == 1 for s in o[:bounded])
    ]
    return validate_fan(*orthant_union(dim, orthants))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_support_of_non_complete_convex_fans(dim):
    rng = random.Random(dim)
    for bounded in sorted({dim, 1, 2}):
        expected = tuple(
            sorted(tuple(int(j == i) for j in range(dim)) for i in range(bounded))
        )
        for steps in range(3):
            f = convex_part(dim, bounded)
            for _ in range(steps):
                f = stellar_subdivide(f, rng.randrange(len(f.max_cones)))
            assert not f.is_complete
            assert f.support.inequalities == reference_boundary_normals(f)
            assert f.support.inequalities == expected
            for face in f.faces.values():
                assert face.dim == rank([f.ray(i) for i in face.ray_indices])


@pytest.mark.parametrize(
    "dim, missing", [(2, (-1, -1)), (3, (1, 1, 1)), (3, (-1, 1, -1))]
)
def test_non_convex_unions_of_orthants_rejected(dim, missing):
    orthants = [
        o for o in itertools.product((1, -1), repeat=dim) if o != missing
    ]
    with pytest.raises(FanError) as e:
        validate_fan(*orthant_union(dim, orthants))
    assert e.value.code == "SupportNotConvex"


def test_dimension_guard_precedes_cone_checks():
    # a dimension above the guard is bad input, refused before any cone is
    # looked at, even a flat one
    rays = [[int(j == i) for j in range(13)] for i in range(13)]
    with pytest.raises(FanError) as e:
        validate_fan(13, rays, [[0], list(range(13))])
    assert e.value.code == "BadInput"


def reference_face_sets(fan):
    """The faces of each maximal cone, as ray index sets, found by
    reference_cone_faces."""
    memo = {}
    return tuple(
        frozenset(reference_cone_faces(c.ray_indices, c.facets, fan.rays, memo))
        for c in fan.max_cones
    )


def reference_pairwise_faces(fan):
    """Do all pairs of maximal cones meet in a common face?  Each
    intersection is computed by double description and its extreme rays are
    looked up among the fan's rays and the faces of the two cones."""
    ray_lookup = {r: i for i, r in enumerate(fan.rays)}
    cones = fan.max_cones
    face_sets = reference_face_sets(fan)
    for a in range(len(cones)):
        for b in range(a + 1, len(cones)):
            inter = h_to_v(intersect_hcones(cones[a].facets, cones[b].facets))
            got = [ray_lookup.get(g) for g in inter.generators]
            if None in got:
                return False
            t = tuple(sorted(set(got)))
            if t not in face_sets[a] or t not in face_sets[b]:
                return False
    return True


def fan_args(f):
    return f.dim, [list(r) for r in f.rays], [list(c.ray_indices) for c in f.max_cones]


def drop_cone(f, k):
    """The fan's input with maximal cone k left out and the rays no other
    cone uses removed."""
    kept = [c.ray_indices for j, c in enumerate(f.max_cones) if j != k]
    used = sorted(set().union(*kept))
    index = {i: n for n, i in enumerate(used)}
    return f.dim, [list(f.ray(i)) for i in used], [[index[i] for i in c] for c in kept]


def matching_inputs():
    """verdict_inputs(), then valid fans, then those fans with one maximal
    cone dropped."""
    yield from verdict_inputs()
    rng = random.Random(11)
    fans = [random_complete_fan(rng)[1] for _ in range(20)]
    for dim in (2, 3, 4):
        for bounded in sorted({dim, 1, 2}):
            f = convex_part(dim, bounded)
            fans.append(f)
            for _ in range(2):
                f = stellar_subdivide(f, rng.randrange(len(f.max_cones)))
                fans.append(f)
    fans += [corpus.cube_fan(3), corpus.cube_fan(4)]
    for f in fans:
        yield fan_args(f)
    for f in fans:
        for k in range(len(f.max_cones)):
            yield drop_cone(f, k)


def reference_walls_and_support(fan):
    """Each face of dimension dim - 1 with the maximal cones that have it
    among their faces, and the support's normals: the inequalities of each
    boundary wall's one cone that vanish on the wall."""
    walls = []
    face_sets = reference_face_sets(fan)
    for fs in sorted(fan.faces):
        if fan.faces[fs].dim == fan.dim - 1:
            incident = tuple(
                k for k, sets in enumerate(face_sets) if fs in sets
            )
            assert 1 <= len(incident) <= 2
            walls.append((fs, incident))
    rows = {
        u
        for fs, incident in walls
        if len(incident) == 1
        for u in fan.max_cones[incident[0]].facets.inequalities
        if all(vdot(u, fan.ray(i)) == 0 for i in fs)
    }
    return walls, tuple(sorted(rows))


def test_walls_and_support_match_face_scan_reference():
    accepted = 0
    for args in matching_inputs():
        try:
            f = validate_fan(*args)
        except FanError:
            continue
        accepted += 1
        walls, support = reference_walls_and_support(f)
        assert [(w.ray_indices, w.cone_indices) for w in f.walls] == walls
        assert f.support.inequalities == support
        assert f.support.equalities == ()
    assert accepted >= 150


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_accepted_non_complete_fans_describe_only_their_faces(monkeypatch, dim):
    # the support is read off the facets of the maximal cones: validation
    # describes no cone but the fan's own cones and faces, not even the
    # cone on all rays
    described = []
    real = fanmod.v_to_h

    def recording(c):
        described.append(c.generators)
        return real(c)

    monkeypatch.setattr(fanmod, "v_to_h", recording)
    for bounded in sorted({dim, 1, 2}):
        described.clear()
        f = convex_part(dim, bounded)
        assert not f.is_complete
        index = {r: i for i, r in enumerate(f.rays)}
        sets = {tuple(sorted(index[g] for g in gens)) for gens in described}
        assert sets <= set(f.faces)


def test_facet_matching_accepts_only_fans_whose_cones_meet_in_faces(monkeypatch):
    verdicts = []
    real = fanmod._facets_match

    def spy(cones, rays):
        result = real(cones, rays)
        verdicts.append(result[0])
        return result

    monkeypatch.setattr(fanmod, "_facets_match", spy)
    tested = accepted = 0
    for args in matching_inputs():
        verdicts.clear()
        try:
            f = validate_fan(*args)
        except FanError:
            f = None
        if not verdicts:
            continue
        tested += 1
        # an accepted fan is one that facet matching accepted, and the
        # pairwise reference agrees that its cones meet in common faces
        assert verdicts == [f is not None]
        if f is not None:
            accepted += 1
            assert reference_pairwise_faces(f)
    # 720 inputs reach the test and 155 pass it
    assert tested >= 700 and accepted >= 150


def test_accepted_fans_compute_no_cone_intersection(monkeypatch):
    calls = []
    real = fanmod.h_to_v

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(fanmod, "h_to_v", counting)
    fans = [f for _, f in corpus.paper_examples()]
    fans += [corpus.cross_fan(4), corpus.cube_fan(4), convex_part(3, 1)]
    for f in fans:
        validate_fan(*fan_args(f))
    assert calls == []
    # the cones overlap in a two-dimensional region, not in a common face
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [[0, 1], [2, 3]])
    assert str(e.value) == (
        "ConesOverlapImproperly: intersection of cones 0 and 1 is not a common face"
    )
    assert len(calls) == 1


# Each input breaks one condition of facet matching and passes the others.
OVERLAPS = {
    # five cones winding twice round the plane: every facet is matched, but
    # the ray sum of cone 0 lies in a second cone
    "double-cover": (
        [(1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)],
        [[0, 2], [1, 3], [2, 4], [3, 0], [4, 1]],
    ),
    # the quadrants plus three cones between (1, 1) and (-1, 1), two of
    # which have each of those rays on the same side
    "same-side": (
        [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, 3)],
        [[2, 3], [3, 0], [0, 1], [1, 2], [4, 5], [4, 6], [6, 5]],
    ),
    # the quadrants plus two cones that split the first one: three cones
    # have the facet (1, 0), and three the facet (0, 1)
    "three-cones": (
        [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)],
        [[2, 3], [3, 0], [0, 1], [1, 2], [0, 4], [4, 1]],
    ),
}


@pytest.mark.parametrize("name", sorted(OVERLAPS))
def test_overlaps_passing_part_of_facet_matching_rejected(name):
    rays, cones = OVERLAPS[name]
    with pytest.raises(FanError) as e:
        validate_fan(2, rays, cones)
    assert e.value.code == "ConesOverlapImproperly"


def reference_cone_faces(indices, hrep, rays, memo):
    """The face lattice with every face described by a double description
    of its own rays, simplicial cones included: each facet of a cone is cut
    out by one of its normals, and the facets' faces are found the same
    way.  memo maps each face to its faces and its description."""
    if indices not in memo:
        result = {indices}
        for u in hrep.inequalities:
            tight = tuple(i for i in indices if vdot(u, rays[i]) == 0)
            face_hrep = memo[tight][1] if tight in memo else v_to_h(
                VCone.make([rays[i] for i in tight], hrep.ambient_dim)
            )
            result |= reference_cone_faces(tight, face_hrep, rays, memo)
        memo[indices] = (result, hrep)
    return memo[indices][0]


def subdivided(base, steps, seed):
    """base and its first `steps` seeded stellar subdivisions."""
    rng = random.Random(seed)
    fans = [base]
    for _ in range(steps):
        fans.append(stellar_subdivide(fans[-1], rng.randrange(len(fans[-1].max_cones))))
    return fans


def faces_against_reference(f):
    """Check the fan's faces against reference_cone_faces and return the
    number of faces whose description differs from the reference's."""
    memo = {}
    max_face_sets = tuple(
        frozenset(reference_cone_faces(c.ray_indices, c.facets, f.rays, memo))
        for c in f.max_cones
    )
    assert set(f.faces) == set(memo)
    # validation names a cone pair that meets improperly by deciding
    # faces with _is_face; it agrees with the reference on every face
    # of the fan and on every subset of a cone's rays
    for k, c in enumerate(f.max_cones):
        subsets = (
            s for size in range(len(c.ray_indices) + 1)
            for s in itertools.combinations(c.ray_indices, size)
        )
        for t in set(f.faces) | set(subsets):
            assert fanmod._is_face(c, t) == (t in max_face_sets[k])
    differ = 0
    for key, (_, hrep) in memo.items():
        face = f.faces[key]
        # the same dimension, and the same cone: the fan's rays in it
        # are the face's own under either description
        assert face.dim == f.dim - len(hrep.equalities)
        on = [i for i, r in enumerate(f.rays) if face.contains_point(r)]
        assert on == [i for i, r in enumerate(f.rays) if hrep.contains_point(r)]
        assert on == list(key)
        differ += face.facets != hrep
    return differ


def test_faces_match_double_description_reference():
    fans = []
    for args in verdict_inputs():
        try:
            fans.append(validate_fan(*args))
        except FanError:
            pass
    fans += subdivided(corpus.cross_fan(4), 2, 3) + subdivided(corpus.cube_fan(4), 2, 3)
    simplicial_faces = sum(faces_against_reference(f) for f in fans)
    # 101 fans, 5 of them not simplicial; 1,575 faces are described by the
    # normals of a maximal cone rather than by their own description
    assert len(fans) >= 100 and sum(not f.is_simplicial for f in fans) >= 5
    assert simplicial_faces >= 1500


def test_moved_vertex_cube_faces_match_double_description_reference():
    f = moved_vertex_cube_fan()
    assert not f.is_simplicial and f.is_complete
    assert all(len(c.ray_indices) == 4 for c in f.max_cones)
    # the origin, 8 rays, 12 edges and 6 cones; all but the cones are
    # simplicial faces framed by the cones' normals
    assert sorted(len(t) for t in f.faces) == [0] + [1] * 8 + [2] * 12 + [4] * 6
    # the reference describes the cones by the same normals, and three
    # edges at the corner (-1, -1, -1) by the same rows by chance
    assert faces_against_reference(f) == 18
    for t, face in f.faces.items():
        assert face.dim == min(len(t), 3)
        assert face.frame == reference_frame(face, f.rays)
        for i, (u, s) in zip(t, face.frame):
            assert s > 0 and [vdot(u, f.ray(j)) for j in t] == [s * (i == j) for j in t]


def test_faces_of_a_non_simple_cone_match_double_description_reference():
    # the cone over the join of a square and a pentagon: the square is a
    # face of codimension 3 in five facets, one over each pentagon edge, so
    # its dimension is not dim minus the number of its equalities
    square = [[x, y, 0, 0, 0, 1] for x, y in ((1, 1), (1, -1), (-1, -1), (-1, 1))]
    pentagon = [[0, 0, x, y, 1, 1] for x, y in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1))]
    f = validate_fan(6, square + pentagon, [list(range(9))])
    assert faces_against_reference(f) > 0
    face = f.faces[(0, 1, 2, 3)]
    assert face.dim == 3 and len(face.facets.equalities) == 5 and face.frame == ()


def spy(real, calls):
    def spying(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    return spying


def test_simplicial_fans_describe_only_their_maximal_cones(monkeypatch):
    # a simplicial cone is described by the inverse of its ray matrix and
    # its faces are read off its own frame: no double description at all
    fans = subdivided(corpus.cross_fan(4), 2, 5)
    calls = []
    monkeypatch.setattr(fanmod, "v_to_h", spy(fanmod.v_to_h, calls))
    monkeypatch.setattr(conesmod, "double_description", spy(conesmod.double_description, calls))
    for f in fans:
        assert f.is_simplicial
        calls.clear()
        validate_fan(*fan_args(f))
        assert calls == []


def test_non_simplicial_cones_describe_no_face(monkeypatch):
    # a non-simplicial maximal cone takes one v_to_h, itself its one double
    # description; its normals decide pointedness and extreme rays, and its
    # faces are read off which normals vanish on which rays
    fans = subdivided(corpus.cube_fan(3), 2, 3) + subdivided(corpus.cube_fan(4), 2, 3)
    fans.append(moved_vertex_cube_fan())
    hulls, descriptions = [], []
    monkeypatch.setattr(fanmod, "v_to_h", spy(fanmod.v_to_h, hulls))
    monkeypatch.setattr(conesmod, "double_description", spy(conesmod.double_description, descriptions))
    for f in fans:
        hulls.clear()
        descriptions.clear()
        validate_fan(*fan_args(f))
        n = sum(len(c.ray_indices) > f.dim for c in f.max_cones)
        assert n > 0
        assert len(hulls) == n and len(descriptions) == n


def test_extreme_rays_are_read_off_the_facet_incidence(monkeypatch):
    # a non-simplicial maximal cone takes one rank, of its normals, for
    # pointedness; its extreme rays are read off facet_rays, so every other
    # rank of validation is one that _cone_faces takes for a face
    ranks, in_faces = [], []
    real_faces = fanmod._cone_faces

    def faces(*args):
        before = len(ranks)
        real_faces(*args)
        in_faces.append(len(ranks) - before)

    monkeypatch.setattr(fanmod, "rank", spy(fanmod.rank, ranks))
    monkeypatch.setattr(fanmod, "_cone_faces", faces)
    for f in subdivided(corpus.cube_fan(4), 2, 3):
        ranks.clear()
        in_faces.clear()
        validate_fan(*fan_args(f))
        n = sum(len(c.ray_indices) > f.dim for c in f.max_cones)
        assert n > 0
        assert len(ranks) - sum(in_faces) == n


def test_facet_rays_are_the_rays_on_each_facet():
    # each maximal cone keeps, per facet inequality, the rays that lie on
    # that facet, and is its own face; a face keeps none
    fans = [f for _, f in corpus.paper_examples()]
    for args in verdict_inputs():
        try:
            fans.append(validate_fan(*args))
        except FanError:
            pass
    for base in (corpus.cube_fan, corpus.cross_fan):
        for dim in (3, 4):
            fans += subdivided(base(dim), 2, 3)
    fans.append(moved_vertex_cube_fan())
    for f in fans:
        for c in f.max_cones:
            assert c.facet_rays == tuple(
                tuple(i for i in c.ray_indices if vdot(u, f.ray(i)) == 0)
                for u in c.facets.inequalities
            )
            assert f.faces[c.ray_indices] is c
        maximal = {c.ray_indices for c in f.max_cones}
        assert all(face.facet_rays == () for t, face in f.faces.items() if t not in maximal)
    assert sum(not f.is_simplicial for f in fans) >= 10


def reference_frame(cone, rays):
    """A simplicial cone's frame found by search: for each ray, the one facet
    inequality of the cone that does not vanish on it, with its value
    there; empty for a cone that is not simplicial."""
    if len(cone.ray_indices) != cone.dim:
        return ()
    normal = {
        next(i for i in cone.ray_indices if vdot(u, rays[i])): u
        for u in cone.facets.inequalities
    }
    return tuple((normal[i], vdot(normal[i], rays[i])) for i in cone.ray_indices)


def refine_workload_fine_fans():
    """The fine fans of the refine workload's jobs at seed 7: each input's
    simplicial refinement, and its qp refinement where the job makes one."""
    wl = workloads_module()
    fine = []
    for k, (fid, item) in enumerate(wl.make_inputs("refine", 7)):
        _, r, rq, _ = wl.run_job("refine", k, fid, wl.fresh("refine", item), 7)
        fine += [r.fine] + ([rq.fine] if rq is not None else [])
    return fine


def test_simplicial_cones_match_double_description_and_frame_search():
    fans = [f for _, f in corpus.paper_examples()]
    for args in matching_inputs():
        try:
            fans.append(validate_fan(*args))
        except FanError:
            pass
    fans += [convex_part(dim, b) for dim in (2, 3, 4) for b in sorted({dim, 1, 2})]
    fans += [corpus.cross_fan(4), corpus.cube_fan(4)]
    fine = refine_workload_fine_fans()
    fans += fine
    maximal = faces = 0
    for f in fans:
        for c in f.max_cones:
            if len(c.ray_indices) == f.dim:
                assert c.facets == v_to_h(VCone.make([f.ray(i) for i in c.ray_indices]))
                assert c.frame == reference_frame(c, f.rays)
                maximal += 1
        # each face's frame, the simplicial faces of non-simplicial cones
        # and the subsets of simplicial cones included
        for face in f.faces.values():
            assert face.frame == reference_frame(face, f.rays)
            faces += bool(face.frame)
    # 206 fans, 11 of them not simplicial, and 31 fine fans from the 25
    # refine jobs; 909 simplicial maximal cones and 3,791 framed faces
    assert len(fine) == 31 and all(g.is_simplicial for g in fine)
    assert sum(not f.is_simplicial for f in fans) >= 10
    assert maximal >= 900 and faces >= 3700


# Inputs whose first bad maximal cone is named, each with its message.
DEPENDENT = {
    # dim dependent rays: a line in the plane, three coplanar rays
    "line-2d": (2, [(1, 0), (-1, 0), (0, 1)], [[0, 1], [0, 2]],
                "MaxConeNotFullDim: maximal cone 0 has dimension < 2"),
    "coplanar-3d": (3, [(1, 0, 0), (0, 1, 0), (1, 2, 0)], [[0, 1, 2]],
                    "MaxConeNotFullDim: maximal cone 0 has dimension < 3"),
    "coplanar-3d-second": (3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], [[0, 1, 3], [0, 1, 2]],
                           "MaxConeNotFullDim: maximal cone 1 has dimension < 3"),
    # an earlier bad cone of another kind is named first
    "line-first": (2, [(1, 0), (-1, 0), (0, 1)], [[0, 1, 2], [0, 1]],
                   "NotStronglyConvex: maximal cone 0 contains a line"),
    "not-extreme-first": (2, [(1, 0), (0, 1), (1, 1), (-1, 0)], [[0, 1, 2], [0, 3]],
                          "RayNotExtreme: maximal cone 0 lists a generator that is not an extreme ray"),
    "too-few-rays-first": (3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [[0, 1], [0, 1, 2]],
                           "MaxConeNotFullDim: maximal cone 0 has dimension < 3"),
    # and an earlier dependent cone before a later bad one
    "dependent-first": (2, [(1, 0), (-1, 0), (0, 1)], [[0, 1], [0, 1, 2]],
                        "MaxConeNotFullDim: maximal cone 0 has dimension < 2"),
    # more than dim rays in 3-D: a ray inside a facet of the square cone,
    # a ray inside the positive orthant, a line, and a line named before a
    # later cone with a ray that is not extreme
    "facet-interior-3d": (3, [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1), (1, 0, 1)],
                          [[0, 1, 2, 3, 4]],
                          "RayNotExtreme: maximal cone 0 lists a generator that is not an "
                          "extreme ray"),
    "interior-3d": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [[0, 1, 2, 3]],
                    "RayNotExtreme: maximal cone 0 lists a generator that is not an extreme ray"),
    "line-3d": (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2, 3]],
                "NotStronglyConvex: maximal cone 0 contains a line"),
    "line-before-not-extreme-3d": (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                                   [[0, 1, 2, 3], [0, 2, 3, 4]],
                                   "NotStronglyConvex: maximal cone 0 contains a line"),
}


@pytest.mark.parametrize("name", sorted(DEPENDENT))
def test_dependent_rays_of_a_maximal_cone_are_not_full_dimensional(name):
    dim, rays, max_cones, message = DEPENDENT[name]
    with pytest.raises(FanError, match=f"^{re.escape(message)}$") as e:
        validate_fan(dim, rays, max_cones)
    assert e.value.code == message.split(":")[0]
