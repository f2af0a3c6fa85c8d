"""Built-in fans: the bundled worked examples plus reusable base fans.

The corpus ids (ex21, ex22(r), ex31, fulton) are the stable CLI names.
ex21 is a complete simplicial fan over a split square pyramid, ex31 the
non-simplicial variant with the square cone left whole, ex22(r) a complete
2D fan with r rays in counterclockwise order, and fulton the classic smooth
complete non-projective fan from Fulton's book (p. 71).
"""

from __future__ import annotations

import itertools
import re

from .fan import Fan, validate_fan
from .linalg import primitivize

PYRAMID_RAYS = [(0, 0, -1), (1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)]

EX21_OBJ = {
    "dim": 3,
    "rays": [list(r) for r in PYRAMID_RAYS],
    "max_cones": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4], [1, 2, 4], [2, 3, 4]],
}

EX31_OBJ = {
    "dim": 3,
    "rays": [list(r) for r in PYRAMID_RAYS],
    "max_cones": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4], [1, 2, 3, 4]],
}

FULTON_OBJ = {
    "dim": 3,
    "rays": [
        [-1, 0, 0],
        [0, -1, 0],
        [0, 0, -1],
        [1, 1, 1],
        [1, 1, 0],
        [0, 1, 1],
        [1, 0, 1],
    ],
    "max_cones": [
        [0, 1, 2],
        [0, 1, 5],
        [0, 2, 4],
        [0, 4, 5],
        [1, 2, 6],
        [1, 5, 6],
        [2, 4, 6],
        [3, 4, 5],
        [3, 4, 6],
        [3, 5, 6],
    ],
}


def polygon_rays(r: int) -> list[tuple[int, int]]:
    """r primitive rays in counterclockwise order: the four axes refined by
    rounds of mediant insertion."""
    if r < 4:
        raise ValueError("need at least 4 rays")
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    while len(rays) < r:
        base = list(rays)
        pos = 0
        for k in range(len(base)):
            if len(rays) >= r:
                break
            a, b = base[k], base[(k + 1) % len(base)]
            rays.insert(pos + 1, primitivize((a[0] + b[0], a[1] + b[1])))
            pos += 2
    return rays


def polygon_obj(r: int) -> dict:
    return {
        "dim": 2,
        "rays": [list(v) for v in polygon_rays(r)],
        "max_cones": [[i, (i + 1) % r] for i in range(r)],
    }


def split_pyramid_fan() -> Fan:
    return validate_fan(**EX21_OBJ)


def square_pyramid_fan() -> Fan:
    return validate_fan(**EX31_OBJ)


def polygon_fan(r: int) -> Fan:
    return validate_fan(**polygon_obj(r))


def fulton_fan() -> Fan:
    return validate_fan(**FULTON_OBJ)


def cross_fan(dim: int) -> Fan:
    """Face fan of the cross-polytope: rays +-e_i, one simplicial cone per
    orthant."""
    rays = []
    for i in range(dim):
        rays.append(tuple(1 if j == i else 0 for j in range(dim)))
    for i in range(dim):
        rays.append(tuple(-1 if j == i else 0 for j in range(dim)))
    cones = []
    for signs in itertools.product((0, 1), repeat=dim):
        cones.append([i + dim * s for i, s in enumerate(signs)])
    return validate_fan(dim, rays, cones)


def cube_fan(dim: int) -> Fan:
    """Face fan of the cube: one cone per facet over the 2^dim corner rays;
    non-simplicial from dimension 3 on."""
    corners = list(itertools.product((-1, 1), repeat=dim))
    cones = []
    for axis in range(dim):
        for sign in (-1, 1):
            cones.append(
                [k for k, c in enumerate(corners) if c[axis] == sign]
            )
    return validate_fan(dim, corners, cones)


_EX22 = re.compile(r"ex22(?:\(([0-9]+)\)|:([0-9]+))")


def corpus_obj(name: str) -> dict | None:
    """Raw fan JSON object for a corpus name, or None when unknown.
    ex22 takes its ray count as ex22(r) or ex22:r."""
    if name == "ex21":
        return EX21_OBJ
    if name == "ex31":
        return EX31_OBJ
    if name == "fulton":
        return FULTON_OBJ
    m = _EX22.fullmatch(name)
    if m:
        r = int(m.group(1) or m.group(2))
        if r >= 4:
            return polygon_obj(r)
    return None


def corpus_fan(name: str) -> Fan | None:
    obj = corpus_obj(name)
    if obj is None:
        return None
    return validate_fan(**obj)


def paper_examples() -> list[tuple[str, Fan]]:
    """The bundled example fans exercised by the verification suite."""
    out = [("ex21", split_pyramid_fan())]
    out += [(f"ex22({r})", polygon_fan(r)) for r in range(4, 11)]
    out.append(("ex31", square_pyramid_fan()))
    out.append(("fulton", fulton_fan()))
    return out
