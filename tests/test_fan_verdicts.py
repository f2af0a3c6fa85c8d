"""validate_fan's verdicts, pinned and checked against independent oracles.

The digest pins, over seeded random inputs and unions of cross-fan orthants,
the FanError code and message of every rejected input and the face
dimensions, walls and support of every accepted one.  The support tests
compare the support's facet normals on non-complete convex fans with the
kernel of each boundary wall oriented towards its cone, and with the
orthant inequalities that cut the fan out.
"""

import hashlib
import itertools
import random

import pytest

from fanforge.fan import FanError, validate_fan
from fanforge.linalg import kernel_basis, primitivize, rank, vdot, vneg
from fanforge.theorems import stellar_subdivide

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
