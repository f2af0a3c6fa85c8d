"""Independent-oracle stress tests: the double description method against a
brute-force extreme-ray search, the simplex-based strict feasibility
against a double-description-based decision of the same question, the
relation-coordinate decisions against the Picard route, and the extremal
walls found from the relation LP's point against one LP per direction.
The LP counts of the benchmark's verify-suite and query jobs are pinned."""

import itertools
import json
import random
import types
from pathlib import Path

import pytest

from fanforge import corpus, lp, mori, plfun
from fanforge.cones import HCone, VCone, cone_contains, h_to_v, v_to_h
from fanforge.fan import FanError, fan_from_json_obj, validate_fan
from fanforge.linalg import kernel_basis, primitivize, rank, vdot
from fanforge.theorems import check_main_theorem, random_complete_fan, stellar_subdivide
from test_cones import lineality_dim
from test_mori import _pointedness_reference, reference_extremal_walls
from test_theorems import merged_fulton_fans, moved_vertex_cube_fan, reference_check_main_theorem

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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


def workloads_module():
    """The benchmark's workload module, compiled from its source, so nothing
    under ``perfbench/`` is imported as a package or written."""
    wl = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), wl.__dict__)
    return wl


def _route_fans():
    """The corpus, the seed-7 suite fans, the three benchmark workloads'
    inputs at seeds 41-43 and cross_fan(4), each distinct fan once."""
    wl = workloads_module()
    rng = random.Random(7)
    fans = corpus.paper_examples() + [random_complete_fan(rng) for _ in range(25)]
    for workload in ("verify-suite", "query", "refine"):
        for seed in (41, 42, 43):
            for fid, item in wl.make_inputs(workload, seed):
                f = fan_from_json_obj(item) if workload == "query" else item
                fans.append((f"{workload}/{seed}/{fid}", f))
    fans.append(("cross4d", corpus.cross_fan(4)))
    seen = {}
    for name, f in fans:
        seen.setdefault(json.dumps(f.to_json_obj()), (name, f))
    return list(seen.values())


def _assert_extremal_walls_match_picard_oracle(name, f, basis):
    # pointedness and the extremal walls, decided in relation coordinates,
    # against the Picard classes: double description and the pairwise loop
    mc = mori.mori_cone(f, basis)
    assert mc.is_pointed is _pointedness_reference(mc, basis.dim_pic), name
    if mc.is_pointed:
        assert mori.extremal_walls(f, basis) == reference_extremal_walls(f, basis), name
    else:
        with pytest.raises(mori.MoriConeNotPointed):
            mori.extremal_walls(f, basis)
    return mc.is_pointed


def test_relation_route_agrees_with_the_picard_route():
    outcomes = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    pointed = 0
    for name, f in _route_fans() + merged_fulton_fans():
        rc = plfun._relation_coordinates(f)
        qp = plfun._relation_quasi_projective(f)
        assert qp == plfun.is_quasi_projective(f)[0], name
        basis = plfun.pl_basis(f)
        # K is the identity on a simplicial fan, else dim Pic integer rows
        assert rc.dim == basis.dim_pic, name
        assert (rc.functions is None) is f.is_simplicial, name
        if rc.functions is not None:
            assert len(rc.functions) == basis.dim_pic
            assert all(type(x) is int and len(k) == len(rc.rays)
                       for k in rc.functions for x in k), name
        pointed += _assert_extremal_walls_match_picard_oracle(name, f, basis)
        if qp:
            pairs = mori._relation_extremal_walls(f)
            assert [w for w, _ in pairs] == mori.extremal_walls(f, basis), name
            # each with its wall's relation, in integers
            for w, rel in pairs:
                assert all(type(c) is int for c in rel.values())
                assert mori.positively_proportional(
                    mori.relation_dense(f, rel), mori.relation_dense(f, mori.wall_relation(f, w)))
        new, ref = check_main_theorem(f, name), reference_check_main_theorem(f, name)
        assert (new.verdict, new.details) == (ref.verdict, ref.details), name
        outcomes[f.is_simplicial, qp] += 1
    # Fulton's fan is the one simplicial fan here that is not quasi-projective,
    # and its three merged fans the non-simplicial ones
    assert outcomes == {(True, True): 57, (True, False): 1, (False, True): 18, (False, False): 3}
    # seeded stellar chains of Fulton's fan reach the "not quasi-projective"
    # branch of both routes more often
    rng = random.Random(5)
    for _ in range(12):
        f = corpus.fulton_fan()
        for _ in range(rng.randint(1, 2)):
            f = stellar_subdivide(f, rng.randrange(len(f.max_cones)))
        qp = plfun._relation_quasi_projective(f)
        assert qp == plfun.is_quasi_projective(f)[0]
        pointed += _assert_extremal_walls_match_picard_oracle("fulton-chain", f, plfun.pl_basis(f))
        outcomes[True, qp] += 1
    assert outcomes[True, False] == 1 + 12
    # the oracle sees both branches: here a fan's Mori cone is pointed
    # exactly when the fan is quasi-projective
    assert pointed == 57 + 18


def test_relation_lp_sees_each_direction_once(monkeypatch):
    # the pointedness LP gets the nonzero wall rows' distinct primitive
    # directions, each once in first-seen order, and decides as the LP over
    # every nonzero row
    seen = []
    real = lp.strict_feasible
    monkeypatch.setattr(lp, "strict_feasible", lambda s, *a: seen.append(s) or real(s, *a))
    fans = _route_fans() + merged_fulton_fans() + [("moved-vertex", moved_vertex_cube_fan())]
    shrunk = 0
    for name, f in fans:
        rc = plfun._relation_coordinates(f)
        rows = [r for r in rc.rows if any(r)]
        seen.clear()
        pointed = plfun._relation_point(f) is not None
        assert len(seen) == 1, name
        directions = seen[0]
        assert directions == list(dict.fromkeys(primitivize(r) for r in rows)), name
        assert len(set(directions)) == len(directions), name
        assert pointed is (real(rows, [], [], rc.dim)[0] is not None), name
        shrunk += len(directions) < len(rows)
    # on 39 of the 80 fans some direction repeats
    assert (len(fans), shrunk) == (80, 39)


def reference_relation_extremal_walls(fan):
    """One LP per direction, with no point: each distinct nonzero wall
    direction in relation coordinates is extremal iff it lies outside the
    cone of the other distinct directions."""
    rc = plfun._relation_coordinates(fan)
    extremal = _reference_extremal_directions(rc.rows, rc.dim)
    return [(w.ray_indices, rel) for w, rel, r in zip(fan.interior_walls, rc.relations, rc.rows)
            if any(r) and primitivize(r) in extremal]


def _reference_extremal_directions(rows, dim):
    distinct = sorted({primitivize(r) for r in rows if any(r)})
    return {d for d in distinct if not cone_contains(
        VCone(tuple(e for e in distinct if e != d), dim), d)[0]}


def _fresh(f):
    return fan_from_json_obj(f.to_json_obj())


def test_extremal_walls_from_the_point_match_one_lp_per_direction(monkeypatch):
    # each call on a new Fan object, so that no derived value is shared
    rng = random.Random(23)
    fans = _route_fans() + merged_fulton_fans() + [random_complete_fan(rng) for _ in range(20)]
    fans += [("cube4d", corpus.cube_fan(4)), ("ex22:16", corpus.corpus_fan("ex22:16"))]
    calls = []
    real = lp.solve_nonneg
    monkeypatch.setattr(lp, "solve_nonneg", lambda *a: calls.append(a) or real(*a))
    pointed = with_point = without_point = 0
    for name, f in fans:
        ref = reference_relation_extremal_walls(_fresh(f))
        point = plfun._relation_point(_fresh(f))
        if point is not None:
            # an integer point positive on every nonzero wall row
            assert all(type(x) is int for x in point), name
            rows = plfun._relation_coordinates(f).rows
            assert all(vdot(r, point) > 0 for r in rows if any(r)), name
            pointed += 1
        calls.clear()
        got = mori._relation_extremal_walls(_fresh(f))
        with_point += len(calls)
        assert [(w.ray_indices, rel) for w, rel in got] == ref, name
        with monkeypatch.context() as m:
            m.setattr(mori, "_relation_point", lambda f: None)
            calls.clear()
            got = mori._relation_extremal_walls(_fresh(f))
            without_point += len(calls)
        assert [(w.ray_indices, rel) for w, rel in got] == ref, name
    # Fulton's fan and its merged fans have no point
    assert (len(fans) - pointed, pointed) == (4, len(fans) - 4)
    # the point decides most directions with no LP
    assert with_point < without_point / 2, (with_point, without_point)


class _GivenRows:
    """Stands in for a fan whose wall rows in relation coordinates are
    given: wall k is k, with the relation {k: 1}, and so is the point."""

    def __init__(self, rows, dim, point):
        self.point = point
        self.interior_walls = tuple(range(len(rows)))
        self.rc = plfun.RelationCoordinates(
            (), None, dim, tuple({k: 1} for k in range(len(rows))), tuple(rows))

    def derived(self, name, compute):
        return compute()


def test_extremal_directions_from_a_point_on_random_rows(monkeypatch):
    # random rows positive on a random point, with nonnegative combinations
    # of them that tie with the vertices they lie between
    monkeypatch.setattr(mori, "_relation_coordinates", lambda f: f.rc)
    monkeypatch.setattr(mori, "_relation_point", lambda f: f.point)
    calls = []
    real = lp.solve_nonneg
    monkeypatch.setattr(lp, "solve_nonneg", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(29)
    decided = 0
    for _ in range(300):
        dim = rng.randint(2, 5)
        point = tuple(rng.randint(-2, 3) for _ in range(dim))
        rows = [r for r in (tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(12))
                if vdot(r, point) > 0][:rng.randint(1, 8)]
        if not rows:
            continue
        for _ in range(rng.randint(0, 4)):
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.randint(1, 2)
            rows.append(tuple(k * x + y for x, y in zip(a, b)))
        rng.shuffle(rows)
        ref = _reference_extremal_directions(rows, dim)
        calls.clear()
        got = mori._relation_extremal_walls(_GivenRows(rows, dim, point))
        decided += len({primitivize(r) for r in rows}) - len(calls)
        assert [k for k, _ in got] == [k for k, r in enumerate(rows) if primitivize(r) in ref], (
            rows, point)
    assert decided > 500, decided


def _lp_counts(monkeypatch, workload):
    """Calls of each LP over one pass of the workload's jobs at seed 7."""
    counts = {"solve_nonneg": 0, "strict_feasible": 0}

    def spy(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    for name in counts:
        monkeypatch.setattr(lp, name, spy(name, getattr(lp, name)))
    wl = workloads_module()
    for k, (fid, item) in enumerate(wl.make_inputs(workload, 7)):
        assert wl.check(workload, wl.run_job(workload, k, fid, wl.fresh(workload, item), 7)), fid
    return counts


def test_verify_suite_lp_counts(monkeypatch):
    # the extremal and Reid checks take most extremal walls from the point
    # of the relation LP, which the quasi-projectivity test already solved
    counts = _lp_counts(monkeypatch, "verify-suite")
    assert counts["solve_nonneg"] <= 129 and counts["strict_feasible"] == 35


def test_query_lp_counts(monkeypatch):
    # query's extremal walls run the relation LP on the 14 fans whose Mori
    # cone the Picard witness found pointed, and its point decides all but 22
    # directions (58 with one LP per direction)
    assert _lp_counts(monkeypatch, "query") == {"solve_nonneg": 22, "strict_feasible": 28}
