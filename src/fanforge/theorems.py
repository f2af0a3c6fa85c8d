"""Executable verification of the library's structural results.

Each check runs on a concrete fan and returns a TheoremReport whose "holds"
verdict ships machine-checkable certificates (nonnegative-combination
coefficients, proportionality scales) that verify_certificates re-checks
with nothing but arithmetic.  Fans that are not quasi-projective are run in
evidence mode: the cone identities are still tested, but a passing result
is reported as "evidence", never "holds".
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import corpus, primcoll
from .cones import HCone, VCone, cone_contains, h_to_v, hcone_covered_by, v_to_h
from .fan import Fan, Wall, validate_fan
from .linalg import Vec, kernel_basis, primitivize, rank, vdot, vsum
from .mori import MoriCone, extremal_walls, mori_cone, positively_proportional, relation_dense
from .plfun import is_quasi_projective, pl_basis, type_a_pairs, wall_rows
from .refine import Refinement, simplicial_refinement

HOLDS = "holds"
EVIDENCE = "evidence"
FAILS = "fails"
INAPPLICABLE = "inapplicable"

PASSING = (HOLDS, EVIDENCE, INAPPLICABLE)


@dataclass
class TheoremReport:
    theorem: str
    fan_id: str
    verdict: str
    details: str = ""
    certificates: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_json_obj(self, with_timing=False) -> dict:
        obj = {
            "theorem": self.theorem,
            "fan": self.fan_id,
            "verdict": self.verdict,
            "details": self.details,
        }
        if with_timing:
            obj["seconds"] = self.seconds
        return obj


def _membership_certificates(inner: VCone, outer: VCone, certs: list) -> Vec | None:
    """Record one nonnegative combination per generator of inner over the
    generators of outer; returns a counterexample generator on failure.  The
    certificates share one list of the outer generators."""
    outer_strs = [[str(x) for x in og] for og in outer.generators]
    for g in inner.generators:
        ok, coeffs = cone_contains(outer, g)
        if not ok:
            return g
        certs.append(
            {
                "target": [str(x) for x in g],
                "generators": outer_strs,
                "coeffs": [str(c) for c in coeffs],
            }
        )
    return None


def _cones_equal_certified(a: VCone, b: VCone, certs: list) -> Vec | None:
    bad = _membership_certificates(a, b, certs)
    if bad is not None:
        return bad
    return _membership_certificates(b, a, certs)


def check_main_theorem(fan: Fan, fan_id: str = "fan") -> TheoremReport:
    """The convex-function cone cut by wall inequalities equals the cone cut
    by primitive inequalities, and dually the Mori cone is generated by the
    primitive-relation classes."""
    t0 = time.perf_counter()
    basis = pl_basis(fan)
    qp, _ = is_quasi_projective(fan)
    d = basis.dim_pic
    walls_h = HCone.make(wall_rows(fan, basis), (), d)
    # a primitive relation's row over the quotient basis is its curve class
    prim_rows = primcoll.primitive_rows(fan, basis)
    prim_h = HCone.make(prim_rows, (), d)
    certs: list = []
    bad = _cones_equal_certified(h_to_v(walls_h), h_to_v(prim_h), certs)
    dual_bad = None
    if bad is None:
        mc = mori_cone(fan, basis)
        prim_v = VCone.make(prim_rows, d)
        dual_bad = _cones_equal_certified(mc.cone, prim_v, certs)
    elapsed = time.perf_counter() - t0
    if bad is not None or dual_bad is not None:
        culprit = bad if bad is not None else dual_bad
        return TheoremReport(
            "main-cone-equality",
            fan_id,
            FAILS,
            f"cone equality fails at generator {[str(x) for x in culprit]}",
            {"counterexample": [str(x) for x in culprit]},
            elapsed,
        )
    verdict = HOLDS if qp else EVIDENCE
    details = "wall and primitive descriptions agree" + (
        "" if qp else " (fan not quasi-projective: conjecture evidence only)"
    )
    return TheoremReport(
        "main-cone-equality", fan_id, verdict, details,
        {"memberships": certs}, elapsed,
    )


def check_extremal_primitive(fan: Fan, fan_id: str = "fan") -> TheoremReport:
    """On a simplicial quasi-projective fan, the positive support of every
    extremal wall relation is a primitive collection whose relation is a
    positive multiple of the wall relation."""
    t0 = time.perf_counter()
    if not fan.is_simplicial:
        return TheoremReport(
            "extremal-positive-support", fan_id, INAPPLICABLE, "fan not simplicial"
        )
    qp, _ = is_quasi_projective(fan)
    if not qp:
        return TheoremReport(
            "extremal-positive-support", fan_id, INAPPLICABLE,
            "fan not quasi-projective",
        )
    certs = []
    basis = pl_basis(fan)
    mc = mori_cone(fan, basis)
    for w in extremal_walls(fan, basis):
        rel = mc.relations[mc.walls.index(w)]
        p = tuple(sorted(i for i, c in rel.items() if c > 0))
        if not primcoll._is_primitive(fan, p):
            return TheoremReport(
                "extremal-positive-support", fan_id, FAILS,
                f"positive support {p} of wall {w.ray_indices} is not primitive",
                {"counterexample": list(p)},
                time.perf_counter() - t0,
            )
        a_p = relation_dense(fan, primcoll.primitive_relation(fan, p).relation)
        a_t = relation_dense(fan, rel)
        if not positively_proportional(a_p, a_t):
            return TheoremReport(
                "extremal-positive-support", fan_id, FAILS,
                f"relation of {p} is not a positive multiple of wall "
                f"{w.ray_indices}",
                {"counterexample": list(p)},
                time.perf_counter() - t0,
            )
        nz = next(i for i, x in enumerate(a_p) if x != 0)
        certs.append(
            {"u": [str(x) for x in a_t], "v": [str(x) for x in a_p],
             "scale": str(Fraction(a_t[nz], a_p[nz]))}
        )
    return TheoremReport(
        "extremal-positive-support", fan_id, HOLDS,
        f"checked {len(certs)} extremal walls",
        {"proportional": certs}, time.perf_counter() - t0,
    )


def check_reid_conditions(fan: Fan, wall: Wall, fan_id: str = "fan") -> TheoremReport:
    """At an extremal wall of a simplicial quasi-projective fan, dropping a
    positive-coefficient ray from the wall relation leaves a maximal cone of
    the fan, and those cones cover the cone on all n+1 relation rays."""
    t0 = time.perf_counter()
    reason = _reid_inapplicable(fan)
    if reason is None and wall not in extremal_walls(fan, pl_basis(fan)):
        reason = f"wall {wall.ray_indices} is not extremal"
    if reason is not None:
        return TheoremReport("reid-conditions", fan_id, INAPPLICABLE, reason)
    return _reid_at_wall(fan, mori_cone(fan, pl_basis(fan)), wall, fan_id, t0)


def _reid_inapplicable(fan: Fan) -> str | None:
    """Why the Reid conditions do not apply to the fan, or None."""
    if not fan.is_simplicial:
        return "not simplicial"
    if not is_quasi_projective(fan)[0]:
        return "not quasi-projective"
    return None


def _reid_at_wall(
    fan: Fan, mc: MoriCone, wall: Wall, fan_id: str, t0: float
) -> TheoremReport:
    """Both Reid conditions at one extremal wall of a simplicial fan."""
    rel = mc.relations[mc.walls.index(wall)]
    a, b = (set(fan.max_cones[k].ray_indices) for k in wall.cone_indices)
    ray_seq = list(wall.ray_indices) + [min(a - b), min(b - a)]
    positive = [i for i in ray_seq if rel.get(i, 0) > 0]
    max_cone_sets = {c.ray_indices for c in fan.max_cones}
    deltas = []
    for i in positive:
        delta = tuple(sorted(set(ray_seq) - {i}))
        if delta not in max_cone_sets:
            return TheoremReport(
                "reid-conditions", fan_id, FAILS,
                f"dropping ray {i} does not leave a maximal cone",
                {"counterexample": list(delta)},
                time.perf_counter() - t0,
            )
        deltas.append(delta)
    big = v_to_h(VCone.make([fan.ray(i) for i in ray_seq], fan.dim))
    covered, open_facets = hcone_covered_by(big, deltas, fan.rays)
    if not covered:
        return TheoremReport(
            "reid-conditions", fan_id, FAILS,
            f"{len(open_facets)} open facets inside the relation cone",
            {"counterexample": [list(f) for f in open_facets]},
            time.perf_counter() - t0,
        )
    return TheoremReport(
        "reid-conditions", fan_id, HOLDS,
        f"wall {wall.ray_indices}: {len(deltas)} cones cover the relation cone",
        {"deltas": [list(d) for d in deltas]},
        time.perf_counter() - t0,
    )


def check_reid_all_walls(fan: Fan, fan_id: str = "fan") -> TheoremReport:
    """Aggregate reid-conditions over every extremal wall of the fan."""
    t0 = time.perf_counter()
    reason = _reid_inapplicable(fan)
    if reason is not None:
        return TheoremReport("reid-conditions", fan_id, INAPPLICABLE, reason)
    basis = pl_basis(fan)
    mc = mori_cone(fan, basis)
    walls = extremal_walls(fan, basis)
    for w in walls:
        r = _reid_at_wall(fan, mc, w, fan_id, time.perf_counter())
        if r.verdict == FAILS:
            return r
    return TheoremReport(
        "reid-conditions", fan_id, HOLDS,
        f"verified at {len(walls)} extremal walls",
        {"walls": [list(w.ray_indices) for w in walls]},
        time.perf_counter() - t0,
    )


def check_type_a_description(coarse: Fan, refinement: Refinement, fan_id="fan") -> TheoremReport:
    """The additivity equalities of the two-element collections primitive
    for the refinement but inside a coarse cone cut out exactly the pullback
    of the coarse function space inside the fine one."""
    t0 = time.perf_counter()
    fine = refinement.fine
    if not fine.is_simplicial:
        raise ValueError("the type-A check needs a simplicial refinement")
    # a type-A pair is primitive for the refinement: its additivity
    # equality is its primitive relation
    rows = [
        relation_dense(fine, primcoll.primitive_relation(fine, p).relation)
        for p in type_a_pairs(fine, coarse)
    ]
    cut_basis = kernel_basis(rows, fine.n_rays)
    pull_basis = pl_basis(coarse).ray_values
    ra, rb = rank(cut_basis), rank(pull_basis)
    rab = rank(list(cut_basis) + list(pull_basis))
    ok = ra == rb == rab
    return TheoremReport(
        "type-a-subspace", fan_id,
        HOLDS if ok else FAILS,
        f"cut subspace dim {ra}, pullback dim {rb}, joint {rab}",
        {"dims": [ra, rb, rab]},
        time.perf_counter() - t0,
    )


def stellar_subdivide(fan: Fan, cone_index: int) -> Fan:
    """Insert the primitivized generator sum of one maximal cone and replace
    that cone by its joins with the new ray over each facet."""
    cone = fan.max_cones[cone_index]
    new_ray = primitivize(vsum([fan.ray(i) for i in cone.ray_indices], fan.dim))
    rays = [list(r) for r in fan.rays] + [list(new_ray)]
    new_idx = fan.n_rays
    cones = [
        list(c.ray_indices) for k, c in enumerate(fan.max_cones) if k != cone_index
    ]
    for u in cone.facets.inequalities:
        facet = [i for i in cone.ray_indices if vdot(u, fan.ray(i)) == 0]
        cones.append(sorted(facet + [new_idx]))
    return validate_fan(fan.dim, rays, cones)


def random_complete_fan(rng: random.Random) -> tuple[str, Fan]:
    """Seeded random complete fan in dimension 2 or 3: the cross-polytope or
    cube face fan refined by a few stellar subdivisions of random maximal
    cones (cube faces left whole keep the fan non-simplicial)."""
    dim = rng.choice((2, 3))
    base = rng.choice(("cross", "cube"))
    fan = corpus.cross_fan(dim) if base == "cross" else corpus.cube_fan(dim)
    steps = rng.randrange(0, 3)
    for _ in range(steps):
        fan = stellar_subdivide(fan, rng.randrange(len(fan.max_cones)))
    return f"{base}{dim}d+{steps}", fan


def run_paper_suite(
    seed: int = 0, random_fans: int = 8, fans=None
) -> list[TheoremReport]:
    """Run every check on the given fans, defaulting to the bundled examples
    plus seeded random fans; an explicitly empty list yields no reports."""
    if fans is None:
        fans = corpus.paper_examples()
        rng = random.Random(seed)
        for i in range(random_fans):
            name, f = random_complete_fan(rng)
            fans.append((f"random-{i}-{name}", f))
    else:
        fans = list(fans)
    reports = []
    for fan_id, f in fans:
        reports.append(check_main_theorem(f, fan_id))
        reports.append(check_extremal_primitive(f, fan_id))
        reports.append(check_reid_all_walls(f, fan_id))
        r = simplicial_refinement(f, (), seed=seed)
        reports.append(check_type_a_description(f, r, fan_id))
    reports.sort(key=lambda r: (r.fan_id, r.theorem))
    return reports


def verify_certificates(report: TheoremReport) -> bool:
    """Independent re-check of a report's certificates by plain arithmetic."""
    for m in report.certificates.get("memberships", []):
        target = [Fraction(x) for x in m["target"]]
        gens = [[Fraction(x) for x in g] for g in m["generators"]]
        coeffs = [Fraction(c) for c in m["coeffs"]]
        if any(c < 0 for c in coeffs):
            return False
        for d in range(len(target)):
            if sum(c * g[d] for c, g in zip(coeffs, gens)) != target[d]:
                return False
    for p in report.certificates.get("proportional", []):
        u = [Fraction(x) for x in p["u"]]
        v = [Fraction(x) for x in p["v"]]
        s = Fraction(p["scale"])
        if s <= 0 or any(x != s * y for x, y in zip(u, v)):
            return False
    return True
