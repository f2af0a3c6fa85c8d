"""Independent-oracle stress tests: the double description method against a
brute-force extreme-ray search, and the simplex-based strict feasibility
against a double-description-based decision of the same question."""

import itertools
import random

from fanforge import lp
from fanforge.cones import HCone, VCone, h_to_v, v_to_h
from fanforge.fan import FanError, validate_fan
from fanforge.linalg import kernel_basis, primitivize, rank, vdot
from test_cones import lineality_dim


def brute_force_extreme_rays(rows, dim):
    """Extreme rays of a pointed {x : Ax >= 0} by scanning all rank-(dim-1)
    row subsets; independent of the double description code path."""
    found = set()
    for size in range(dim - 1, len(rows) + 1):
        for sub in itertools.combinations(rows, size):
            if rank(sub) != dim - 1:
                continue
            ker = kernel_basis(sub, dim)
            if len(ker) != 1:
                continue
            for cand in (ker[0], tuple(-x for x in ker[0])):
                if all(vdot(r, cand) >= 0 for r in rows):
                    tight = [r for r in rows if vdot(r, cand) == 0]
                    if rank(tight) == dim - 1:
                        found.add(primitivize(cand))
    return found


def test_double_description_vs_brute_force():
    rng = random.Random(31337)
    tested = 0
    while tested < 40:
        dim = rng.randint(2, 4)
        m = rng.randint(dim, dim + 4)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(m)
        ]
        if any(all(x == 0 for x in r) for r in rows):
            continue
        h = HCone.make(rows, ambient_dim=dim)
        if lineality_dim(h) != 0:
            continue
        tested += 1
        got = {primitivize(g) for g in h_to_v(h).generators}
        assert got == brute_force_extreme_rays(rows, dim)


def strict_feasible_via_dd(strict, weak, eqs, dim):
    """Lift the slack variable: the strict system has a solution iff the
    cone {(x,t) : <s,x> >= t, <w,x> >= 0, <e,x> = 0, t >= 0} has a
    generator with positive last coordinate."""
    rows = [tuple(s) + (-1,) for s in strict]
    rows += [tuple(w) + (0,) for w in weak]
    t_row = (0,) * dim + (1,)
    rows.append(t_row)
    eq_rows = [tuple(e) + (0,) for e in eqs]
    v = h_to_v(HCone.make(rows, eq_rows, dim + 1))
    return any(g[-1] > 0 for g in v.generators)


def test_strict_feasibility_simplex_vs_double_description():
    rng = random.Random(2718281)
    agree_yes = agree_no = 0
    for _ in range(60):
        dim = rng.randint(1, 3)
        ns, nw, ne = rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 1)
        mk = lambda: tuple(rng.randint(-2, 2) for _ in range(dim))
        strict = [mk() for _ in range(ns)]
        weak = [mk() for _ in range(nw)]
        eqs = [mk() for _ in range(ne)]
        witness, cert = lp.strict_feasible(strict, weak, eqs, dim)
        oracle = strict_feasible_via_dd(strict, weak, eqs, dim)
        assert (witness is not None) == oracle
        if witness is not None:
            agree_yes += 1
            assert all(vdot(s, witness) > 0 for s in strict)
            assert all(vdot(w, witness) >= 0 for w in weak)
            assert all(vdot(e, witness) == 0 for e in eqs)
        else:
            agree_no += 1
            y, z, mu = cert["strict"], cert["weak"], cert["eqs"]
            assert sum(y) >= 1 and all(c >= 0 for c in y + z)
            for d in range(dim):
                total = (
                    sum(c * s[d] for c, s in zip(y, strict))
                    + sum(c * w[d] for c, w in zip(z, weak))
                    + sum(c * e[d] for c, e in zip(mu, eqs))
                )
                assert total == 0
    # both outcomes must actually occur for the comparison to mean anything
    assert agree_yes > 5 and agree_no > 5


def test_validate_fan_fuzz_fails_cleanly():
    """Garbage input must raise FanError (or build a valid fan), never leak
    an internal exception."""
    rng = random.Random(90210)
    built = rejected = 0
    for _ in range(120):
        dim = rng.randint(1, 3)
        nrays = rng.randint(1, 5)
        rays = []
        for _ in range(nrays):
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
            rays.append(v)
        ncones = rng.randint(1, 4)
        cones = [
            [rng.randrange(nrays) for _ in range(rng.randint(1, dim + 1))]
            for _ in range(ncones)
        ]
        try:
            f = validate_fan(dim, rays, cones)
            built += 1
            assert all(c.dim == dim for c in f.max_cones)
        except FanError:
            rejected += 1
    assert built > 0 and rejected > 0
    # malformed shapes, as JSON can deliver them
    malformed = [
        (2, 5, [[0]]),
        (2, [(1, 0), (0, 1)], 5),
        (2, [(1, 0), (0, 1)], [0]),
        (2, [(1, 0), None], [[0, 1]]),
        (2, [(1, 0), 7], [[0, 1]]),
        (2, [(1, 0), (None, 1)], [[0, 1]]),
        (2, [(1, 0), (0, 1)], [[0, None]]),
        (2, [(1, 0), (float("inf"), 1)], [[0, 1]]),
        (2, [(1, 0), (float("nan"), 1)], [[0, 1]]),
        (2, [(1, 0), (0, 1)], [[0, 1.7]]),
        (2, [(1, 0), (0, 1)], [[0, True]]),
        (2.9, [(1, 0), (0, 1)], [[0, 1]]),
        (2, [("1", 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]]),
        (2, [(1, 0), (0, True), (-1, -1)], [[0, 1], [1, 2], [2, 0]]),
        (2, [("1", 0), (0, True), (-1, "-1")], [[0, 1], [1, 2], [2, 0]]),
    ]
    for dim, rays, cones in malformed:
        try:
            validate_fan(dim, rays, cones)
        except FanError as e:
            assert e.code == "BadInput"
        else:
            raise AssertionError(f"accepted {rays!r} with cones {cones!r}")
