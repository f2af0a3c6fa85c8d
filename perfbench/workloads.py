"""Workload inputs, per-fan jobs, correctness gates and output digests.

Each workload is a fixed list of fans (one "pass").  Its inputs come from
the seed alone; the library only ever receives the generated fans.

- ``verify-suite``: the bundled paper examples plus 25 random complete fans,
  the inputs of ``fanforge verify --all --seed 7 --random-fans 25``.  A job
  is ``run_paper_suite`` on one fan.  Its checks re-derive the same
  invariants many times per fan, so a per-fan cache acts here.
- ``query``: one random fan of each dimension-2/3 type plus the
  dimension-4 cross-polytope and cube fans, shipped as fan JSON.  A job
  parses the JSON and derives each invariant once, as the
  validate/qp/prim/mori commands do, so a cache is predicted to change
  nothing.  The dimension-4 fans are a seventh of the pass, so the 90th
  percentile falls on them; a stellar step on one would double its cost
  and set-up time and move that percentile from seed to seed.
- ``refine``: two random fans of each dimension-2/3 type plus a third
  cross3d+1, so that the median falls inside one type rather than between
  the cheap dimension-2 fans and the dimension-3 ones.  A job refines the
  fan as ``fanforge refine`` and ``refine --qp`` do, with the weight seed
  ``1000 * seed + k`` for fan ``k``.  It builds new fans and runs a few
  large LPs instead of many small ones.  The fans are drawn at the default
  seed whatever the seed, which picks only the weights: which cones a seed
  subdivides moves a dimension-3 fan's refinement cost by up to 40 %, and
  the few such fans at the top of a pass moved ``fan_p90_ms`` by a fifth
  from seed to seed.

Random fans have a fixed mix of types (dimension, base fan, number of
stellar steps) at every seed, and the seed picks the subdivided cones.  Job
cost differs about fiftyfold between types, so a mix that moved with the
seed would move every metric by more than any bound worth enforcing.  The
verify-suite mix is the one ``random_complete_fan(random.Random(7))`` draws,
and its generator makes the same random draws, so at seed 7 it yields
exactly the fans of the CLI command above.
"""

from __future__ import annotations

import hashlib
import json
import random

from fanforge import corpus, mori, plfun, primcoll, refine, theorems
from fanforge import fan as fanmod

DEFAULT_SEED = 7

# (base, dim, steps) of the 25 fans random_complete_fan draws from Random(7).
SEED7_TYPES = [
    ("cross", 3, 1), ("cross", 2, 1), ("cross", 2, 0), ("cube", 3, 0),
    ("cross", 2, 2), ("cross", 2, 2), ("cross", 3, 0), ("cross", 2, 1),
    ("cross", 2, 2), ("cross", 2, 2), ("cross", 2, 2), ("cube", 2, 2),
    ("cube", 3, 1), ("cross", 2, 2), ("cube", 3, 1), ("cube", 3, 2),
    ("cross", 3, 1), ("cube", 3, 0), ("cube", 2, 1), ("cube", 3, 0),
    ("cube", 2, 1), ("cube", 2, 2), ("cube", 3, 0), ("cube", 3, 0),
    ("cube", 2, 0),
]
VERIFY_RANDOM_FANS = len(SEED7_TYPES)
ALL_TYPES = [
    (base, dim, steps)
    for dim in (2, 3) for base in ("cross", "cube") for steps in range(3)
]


def _typed_fan(rng: random.Random, base: str, dim: int, steps: int):
    """A random complete fan of a given type.  It makes the same draws as
    theorems.random_complete_fan, so it returns the same fan whenever the
    drawn type equals the requested one."""
    rng.choice((2, 3))
    rng.choice(("cross", "cube"))
    rng.randrange(0, 3)
    return _stellar(rng, base, dim, steps)


def _stellar(rng: random.Random, base: str, dim: int, steps: int):
    fan = corpus.cross_fan(dim) if base == "cross" else corpus.cube_fan(dim)
    for _ in range(steps):
        fan = theorems.stellar_subdivide(fan, rng.randrange(len(fan.max_cones)))
    return fan


def _name(base, dim, steps):
    return f"{base}{dim}d+{steps}"


def make_inputs(workload: str, seed: int) -> list[tuple[str, object]]:
    """The workload's pass as (fan id, input) pairs: a Fan for verify-suite
    and refine, a fan JSON object for query."""
    rng = random.Random(seed)
    if workload == "verify-suite":
        fans = corpus.paper_examples()
        for i, t in enumerate(SEED7_TYPES):
            fans.append((f"random-{i}-{_name(*t)}", _typed_fan(rng, *t)))
        return fans
    if workload == "query":
        out = [(_name(*t), _stellar(rng, *t)) for t in ALL_TYPES]
        out += [("cross4d+0", corpus.cross_fan(4)), ("cube4d+0", corpus.cube_fan(4))]
        return [(fid, f.to_json_obj()) for fid, f in out]
    if workload == "refine":
        rng = random.Random(DEFAULT_SEED)
        types = ALL_TYPES * 2 + [("cross", 3, 1)]
        return [
            (f"{k}-{_name(*t)}", _stellar(rng, *t)) for k, t in enumerate(types)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def fresh(workload: str, item):
    """A new Fan object equal to a set-up one, so that no state a fan object
    might carry survives from one job to the next.  Functions are called
    through their modules, so that the tracer's rebinding reaches them."""
    if workload == "query":
        return item
    return fanmod.fan_from_json_obj(item.to_json_obj())


def inputs_digest(workload: str, inputs) -> str:
    objs = [
        [fid, item if workload == "query" else item.to_json_obj()]
        for fid, item in inputs
    ]
    return _sha(json.dumps(objs, sort_keys=True))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(workload: str, index: int, fan_id: str, item, seed: int):
    """One fan's full job, as the CLI would run it; returns its outputs."""
    if workload == "verify-suite":
        return theorems.run_paper_suite(fans=[(fan_id, item)], seed=seed)
    if workload == "query":
        f = fanmod.fan_from_json_obj(item)
        basis = plfun.pl_basis(f)
        qp, witness = plfun.is_quasi_projective(f)
        rels = [
            primcoll.primitive_relation(f, p)
            for p in primcoll.enumerate_primitive_collections(f)
        ]
        mc = mori.mori_cone(f, basis)
        ext = mori.extremal_walls(f, basis) if mc.is_pointed else None
        return f, basis, qp, witness, rels, mc, ext
    if workload == "refine":
        weight_seed = 1000 * seed + index
        r = refine.simplicial_refinement(item, (), seed=weight_seed)
        qp, witness = plfun.is_quasi_projective(item)
        rq = phi = None
        if qp and not item.is_simplicial:
            rq, phi = refine.qp_refinement(item, (), witness, seed=weight_seed)
        return item, r, rq, phi
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, out) -> bool:
    """Invariants every output must satisfy, at any seed."""
    if workload == "verify-suite":
        return all(
            r.verdict in theorems.PASSING and theorems.verify_certificates(r)
            for r in out
        )
    if workload == "query":
        f, _, qp, witness, rels, _, _ = out
        if qp and not plfun.is_strictly_convex(witness):
            return False
        return all(mori.relation_is_valid(f, pr.relation) for pr in rels)
    f, r, rq, phi = out
    for ref in (r, rq):
        if ref is None:
            continue
        if not (ref.fine.is_simplicial and ref.fine.rays == f.rays):
            return False
        if not refine.covers_coarse_exactly(ref):
            return False
    return rq is None or refine.strictly_convex_relative(phi, rq)


def _refine_text(r: refine.Refinement) -> str:
    """The two lines ``fanforge refine`` prints: fine fan JSON and sidecar."""
    sidecar = {
        "weights": {str(i): str(w) for i, w in enumerate(r.weights.w)},
        "cone_map": list(r.cone_map),
        "seed": r.weights.seed,
    }
    return json.dumps(r.fine.to_json_obj()) + "\n" + json.dumps(sidecar)


def output_digest(workload: str, index: int, out) -> str:
    """Digest of a job's user-visible output, compared with the golden
    digests at the default seed (outputs must stay byte-identical)."""
    if workload == "verify-suite":
        return _sha(json.dumps([r.to_json_obj() for r in out]))
    if workload == "query":
        f, basis, qp, witness, rels, mc, ext = out
        obj = {
            "validate": [f.dim, f.n_rays, len(f.max_cones), f.is_simplicial,
                         f.is_complete, len(f.interior_walls)],
            "qp": witness.to_json_obj() if qp else None,
            "prim": [
                [list(pr.collection), list(pr.sigma_min.ray_indices),
                 {str(i): str(c) for i, c in sorted(pr.relation.items())}]
                for pr in rels
            ],
            "mori": [basis.dim_pic, [[str(x) for x in c] for c in mc.classes]],
            "extremal": None if ext is None else [list(w.ray_indices) for w in ext],
        }
        return _sha(json.dumps(obj))
    _, r, rq, _ = out
    text = _refine_text(r)
    if rq is not None:
        text += "\n" + _refine_text(rq)
    return _sha(text)
