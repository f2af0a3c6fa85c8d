"""Executable verification of the library's structural results.

Each check runs on a concrete fan and returns a TheoremReport whose "holds"
verdict ships machine-checkable certificates (nonnegative-combination
coefficients, proportionality scales), held as the exact ints and Fractions
the solver found, that verify_certificates re-checks with nothing but exact
arithmetic.  Fans that are not quasi-projective are run in
evidence mode: the cone identities are still tested, but a passing result
is reported as "evidence", never "holds".  Every fan is checked in
relation coordinates, with no PL basis (plfun._relation_coordinates).
CHECKS lists the suite's checks by id, and run_check runs one and times it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import corpus, primcoll
from .cones import VCone, cone_contains, hcone_covered_by, v_to_h
from .fan import Fan, Wall, validate_fan
from .linalg import Vec, is_zero_vec, kernel_basis, primitivize, rank, vsum
from .mori import _relation_extremal_walls, positively_proportional, relation_dense
from .plfun import _relation_coordinates, _relation_quasi_projective, type_a_pairs
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
    """Set by run_check around the check's whole run; 0.0 from a direct call."""

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
    certificates share outer's generator tuple, which is immutable.  A
    generator positively proportional to an outer one is that one scaled,
    and only the others need an LP."""
    index: dict = {}
    for k, og in enumerate(outer.generators):
        if not is_zero_vec(og):
            index.setdefault(primitivize(og), k)
    for g in inner.generators:
        k = None if is_zero_vec(g) else index.get(primitivize(g))
        if k is not None:
            j = next(i for i, x in enumerate(g) if x != 0)
            coeffs = [0] * len(outer.generators)
            coeffs[k] = Fraction(g[j]) / outer.generators[k][j]
        else:
            ok, coeffs = cone_contains(outer, g)
            if not ok:
                return g
        certs.append({"target": g, "generators": outer.generators, "coeffs": tuple(coeffs)})
    return None


def _cones_equal_certified(a: VCone, b: VCone, certs: list) -> Vec | None:
    bad = _membership_certificates(a, b, certs)
    if bad is not None:
        return bad
    return _membership_certificates(b, a, certs)


def _proportional_certificate(u: Vec, v: Vec) -> dict:
    """u = scale * v, the scale read at v's first nonzero entry; it fails
    verification unless u and v are positively proportional."""
    nz = next((i for i, x in enumerate(v) if x != 0), None)
    scale = 1 if nz is None else Fraction(u[nz], v[nz])
    return {"u": tuple(u), "v": tuple(v), "scale": scale}


def check_main_theorem(fan: Fan, fan_id: str = "fan") -> TheoremReport:
    """The convex-function cone cut out by the wall relations W equals the
    one cut out by the primitive relations P.  By Farkas, {x : Wx >= 0} =
    {x : Px >= 0} iff cone(W) = cone(P), here in N_1 in the coordinates of
    plfun._relation_coordinates; each bend is a positive multiple of its
    wall's pairing (plfun._wall_table), so cone(W) is the Mori cone.
    Certified by memberships both ways, over the "rays" outside the first
    cone, and over the "functions" K where the cones have relations."""
    rc = _relation_coordinates(fan)
    prims = [rc.coordinates(r.relation) for r in primcoll.primitive_relations(fan).values()]
    memberships: list = []
    bad = _cones_equal_certified(VCone(rc.rows, rc.dim), VCone.make(prims, rc.dim), memberships)
    if bad is not None:
        return TheoremReport(
            "main-cone-equality", fan_id, FAILS,
            f"cone equality fails at generator {[str(x) for x in bad]}",
            {"counterexample": bad},
        )
    qp = _relation_quasi_projective(fan)
    details = "wall and primitive descriptions agree" + (
        "" if qp else " (fan not quasi-projective: conjecture evidence only)"
    )
    certs = {"memberships": memberships, "rays": list(rc.rays)}
    if rc.functions is not None:
        certs["functions"] = rc.functions
    return TheoremReport("main-cone-equality", fan_id, HOLDS if qp else EVIDENCE, details, certs)


def check_extremal_primitive(fan: Fan, fan_id: str = "fan") -> TheoremReport:
    """On a simplicial quasi-projective fan, the positive support of every
    extremal wall relation is a primitive collection whose relation is a
    positive multiple of the wall relation."""
    reason = _inapplicable(fan)
    if reason is not None:
        return TheoremReport(
            "extremal-positive-support", fan_id, INAPPLICABLE, "fan " + reason
        )
    certs = []
    relations = primcoll.primitive_relations(fan)
    for w, rel in _relation_extremal_walls(fan):
        p = tuple(sorted(i for i, c in rel.items() if c > 0))
        if p not in relations:
            return TheoremReport(
                "extremal-positive-support", fan_id, FAILS,
                f"positive support {p} of wall {w.ray_indices} is not primitive",
                {"counterexample": list(p)},
            )
        a_p = relation_dense(fan, relations[p].relation)
        a_t = relation_dense(fan, rel)
        if not positively_proportional(a_p, a_t):
            return TheoremReport(
                "extremal-positive-support", fan_id, FAILS,
                f"relation of {p} is not a positive multiple of wall "
                f"{w.ray_indices}",
                {"counterexample": list(p)},
            )
        certs.append(_proportional_certificate(a_t, a_p))
    return TheoremReport(
        "extremal-positive-support", fan_id, HOLDS,
        f"checked {len(certs)} extremal walls",
        {"proportional": certs},
    )


def check_reid_conditions(fan: Fan, wall: Wall, fan_id: str = "fan") -> TheoremReport:
    """At an extremal wall of a simplicial quasi-projective fan, dropping a
    positive-coefficient ray from the wall relation leaves a maximal cone of
    the fan, and those cones cover the cone on all n+1 relation rays."""
    reason = _inapplicable(fan)
    extremal = dict(_relation_extremal_walls(fan)) if reason is None else {}
    if reason is None and wall not in extremal:
        reason = f"wall {wall.ray_indices} is not extremal"
    if reason is not None:
        return TheoremReport("reid-conditions", fan_id, INAPPLICABLE, reason)
    return _reid_at_wall(fan, wall, extremal[wall], fan_id)


def _inapplicable(fan: Fan) -> str | None:
    """Why the checks of simplicial quasi-projective fans skip the fan, or None."""
    if not fan.is_simplicial:
        return "not simplicial"
    if not _relation_quasi_projective(fan):
        return "not quasi-projective"
    return None


def _reid_at_wall(fan: Fan, wall: Wall, rel: dict, fan_id: str) -> TheoremReport:
    """Both Reid conditions at one extremal wall of a simplicial fan."""
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
            )
        deltas.append(delta)
    big = v_to_h(VCone.make([fan.ray(i) for i in ray_seq], fan.dim))
    covered, open_facets = hcone_covered_by(big, deltas, fan.rays)
    if not covered:
        return TheoremReport(
            "reid-conditions", fan_id, FAILS,
            f"{len(open_facets)} open facets inside the relation cone",
            {"counterexample": [list(f) for f in open_facets]},
        )
    return TheoremReport(
        "reid-conditions", fan_id, HOLDS,
        f"wall {wall.ray_indices}: {len(deltas)} cones cover the relation cone",
        {"deltas": [list(d) for d in deltas]},
    )


def check_reid_all_walls(fan: Fan, fan_id: str = "fan") -> TheoremReport:
    """Aggregate reid-conditions over every extremal wall of the fan."""
    reason = _inapplicable(fan)
    if reason is not None:
        return TheoremReport("reid-conditions", fan_id, INAPPLICABLE, reason)
    walls = _relation_extremal_walls(fan)
    for w, rel in walls:
        r = _reid_at_wall(fan, w, rel, fan_id)
        if r.verdict == FAILS:
            return r
    return TheoremReport(
        "reid-conditions", fan_id, HOLDS,
        f"verified at {len(walls)} extremal walls",
        {"walls": [list(w.ray_indices) for w, _ in walls]},
    )


def check_type_a_description(coarse: Fan, refinement: Refinement, fan_id="fan") -> TheoremReport:
    """The additivity equalities of the two-element collections primitive
    for the refinement but inside a coarse cone cut out exactly the pullback
    of the coarse function space inside the fine one."""
    fine = refinement.fine
    if not fine.is_simplicial:
        raise ValueError("the type-A check needs a simplicial refinement")
    if fine is coarse:
        # the fan refines itself: no type-A pair, both spaces all of Q^rays
        ra = rb = rab = fine.n_rays
    else:
        # a type-A pair is primitive for the refinement: its additivity
        # equality is its primitive relation
        rows = [relation_dense(fine, primcoll.primitive_relation(fine, p).relation)
                for p in type_a_pairs(fine, coarse)]
        cut_basis = kernel_basis(rows, fine.n_rays)
        # the coarse functions' ray values: the linear ones, then K's; K's
        # values at a ray are the coordinates of its unit relation
        rc = _relation_coordinates(coarse)
        units = [rc.coordinates({i: 1}) for i in range(coarse.n_rays)]
        pull_basis = [*zip(*coarse.rays), *zip(*units)]
        # a kernel basis is independent
        ra, rb = len(cut_basis), rank(pull_basis)
        rab = rank(list(cut_basis) + list(pull_basis))
    ok = ra == rb == rab
    return TheoremReport(
        "type-a-subspace", fan_id,
        HOLDS if ok else FAILS,
        f"cut subspace dim {ra}, pullback dim {rb}, joint {rab}",
        {"dims": [ra, rb, rab]},
    )


def stellar_subdivide(fan: Fan, cone_index: int) -> Fan:
    """Insert the primitivized generator sum of one maximal cone and replace
    that cone by its joins with the new ray over each facet, in facet_rays
    order."""
    cone = fan.max_cones[cone_index]
    new_ray = primitivize(vsum([fan.ray(i) for i in cone.ray_indices], fan.dim))
    rays = [list(r) for r in fan.rays] + [list(new_ray)]
    new_idx = fan.n_rays
    cones = [
        list(c.ray_indices) for k, c in enumerate(fan.max_cones) if k != cone_index
    ]
    cones += ([*facet, new_idx] for facet in cone.facet_rays)
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


# each check of the suite by id, run on (fan, fan_id, seed); the lambdas look
# the checks up at call time, so a wrapper rebound to a check's name sees it
CHECKS = {
    "main-cone-equality": lambda f, fid, seed: check_main_theorem(f, fid),
    "extremal-positive-support": lambda f, fid, seed: check_extremal_primitive(f, fid),
    "reid-conditions": lambda f, fid, seed: check_reid_all_walls(f, fid),
    "type-a-subspace": lambda f, fid, seed: check_type_a_description(
        f, simplicial_refinement(f, (), seed=seed), fid),
}


def run_check(name: str, fan: Fan, fan_id: str = "fan", seed: int = 0) -> TheoremReport:
    """Run the check CHECKS[name] on the fan; the report's seconds cover the
    whole run, a refinement the check draws included."""
    t0 = time.perf_counter()
    report = CHECKS[name](fan, fan_id, seed)
    report.seconds = time.perf_counter() - t0
    return report


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
    reports = [run_check(name, f, fan_id, seed) for fan_id, f in fans for name in CHECKS]
    reports.sort(key=lambda r: (r.fan_id, r.theorem))
    return reports


# the certificate lists a passing verdict must carry
_REQUIRED_CERTIFICATES = {
    ("main-cone-equality", HOLDS): ("memberships", "rays"),
    ("main-cone-equality", EVIDENCE): ("memberships", "rays"),
    ("extremal-positive-support", HOLDS): ("proportional",),
}


def verify_certificates(report: TheoremReport) -> bool:
    """Independent re-check of a report's certificates by exact arithmetic
    on their ints and Fractions, with no parsing and no solver.

    Fails closed: a passing verdict without its certificate lists, an entry
    that is not exactly an int or a Fraction (a str, float or bool), vectors
    of unequal lengths, a negative coefficient, a scale <= 0, a function
    that is not an integer row as long as the listed rays, a membership of
    another length than the functions (else the rays), holding Reid walls or
    deltas that are not lists of int lists, and holding type-A dims that are
    not three equal nonnegative ints are all rejected."""
    certs = report.certificates
    required = _REQUIRED_CERTIFICATES.get((report.theorem, report.verdict), ())
    if not all(isinstance(certs.get(n), list) for n in required):
        return False
    try:
        if report.verdict == HOLDS and report.theorem == "reid-conditions":
            lists = [certs[n] for n in ("walls", "deltas") if n in certs]
            if not lists or not all(isinstance(x, list) and all(map(_ints, x)) for x in lists):
                return False
        if report.verdict == HOLDS and report.theorem == "type-a-subspace":
            dims = certs["dims"]
            if not (_ints(dims) and len(dims) == 3 and min(dims) == max(dims) >= 0):
                return False
        functions = certs.get("functions", [])
        if any(len(k) != len(certs["rays"]) or any(type(x) is not int for x in k)
               for k in functions):
            return False
        width = len(certs.get("functions", certs.get("rays", ())))
        if "rays" in certs and any(len(m["target"]) != width for m in certs["memberships"]):
            return False
        return all(map(_membership_holds, certs.get("memberships", []))) and all(
            map(_proportional_holds, certs.get("proportional", [])))
    except (KeyError, TypeError):
        return False


def _ints(v) -> bool:
    """v is a list of exact ints; a bool is not an int."""
    return isinstance(v, list) and all(type(x) is int for x in v)


def _exact(v) -> bool:
    """Every entry of v is exactly an int or a Fraction; a bool is neither."""
    return all(type(x) is int or type(x) is Fraction for x in v)


def _membership_holds(m: dict) -> bool:
    target, gens, coeffs = m["target"], m["generators"], m["coeffs"]
    if len(coeffs) != len(gens) or any(len(g) != len(target) for g in gens):
        return False
    if not (_exact(target) and _exact(coeffs) and all(map(_exact, gens))):
        return False
    if any(c < 0 for c in coeffs):
        return False
    terms = [(c, g) for c, g in zip(coeffs, gens) if c]
    return all(
        sum(c * g[d] for c, g in terms) == target[d] for d in range(len(target))
    )


def _proportional_holds(p: dict) -> bool:
    u, v, s = p["u"], p["v"], p["scale"]
    return (len(u) == len(v) and _exact((s, *u, *v)) and s > 0
            and all(x == s * y for x, y in zip(u, v)))
