"""Command-line front door.

Subcommands cover fan validation, primitive collections, wall relations,
Mori/nef cone reports, quasi-projectivity, refinement, the verification
suite, and the built-in corpus.  Fans travel as JSON
{"dim": n, "rays": [[..]], "max_cones": [[..]]} with 0-based ray indices;
rationals print as lowest-terms "p/q".  Exit codes: 0 ok, 1 verification
failures, 2 invalid fan (also one above the dimension guard of 12, and a
valid fan that is not quasi-projective given to refine --qp), 3 parse
error, 4 usage (also a FANFORGE_SEED that is not an integer, a negative
--random-fans and an output path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import corpus, mori, plfun, primcoll, refine, theorems
from .cones import VCone, cone_contains
from .fan import Fan, FanError, fan_from_json_obj
from .linalg import format_rational, primitivize, rref, vneg

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_FAN = 2
EXIT_PARSE = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    value = os.environ.get("FANFORGE_SEED", "0")
    try:
        return int(value)
    except ValueError:
        print(f"error: FANFORGE_SEED must be an integer, got {value!r}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_fan(spec: str) -> Fan:
    if spec.startswith("corpus:"):
        name = spec[len("corpus:"):]
        f = corpus.corpus_fan(name)
        if f is None:
            print(f"error: unknown corpus name {name!r}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        return f
    try:
        with open(spec) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot parse fan file: {e}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        return fan_from_json_obj(obj)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except FanError as e:
        print(f"error: invalid fan: {e}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_FAN)


def _term(coeff: Fraction, idx: int) -> str:
    c = abs(coeff)
    return f"a{idx}" if c == 1 else f"{format_rational(c)}a{idx}"


def _linear_expr(row) -> str:
    """Signed combination of ray values, positive terms first: 2a0+a2-a4."""
    pos = [(i, c) for i, c in enumerate(row) if c > 0]
    neg = [(i, c) for i, c in enumerate(row) if c < 0]
    if not pos and not neg:
        return "0"
    parts = []
    for k, (i, c) in enumerate(pos):
        parts.append(("" if k == 0 else "+") + _term(c, i))
    for i, c in neg:
        parts.append("-" + _term(c, i))
    return "".join(parts)


def _relation_string(fan: Fan, rel: primcoll.PrimitiveRelation) -> str:
    lhs = " + ".join(f"r{i}" for i in rel.collection)
    if not rel.support:
        return f"{lhs} = 0"
    rhs = " + ".join(
        (f"r{i}" if rel.b[i] == 1 else f"{format_rational(rel.b[i])}*r{i}")
        for i in rel.support
    )
    return f"{lhs} = {rhs}"


def cmd_validate(args) -> int:
    f = _load_fan(args.fan)
    if args.json:
        print(json.dumps({
            "dim": f.dim, "rays": f.n_rays, "max_cones": len(f.max_cones),
            "simplicial": f.is_simplicial, "complete": f.is_complete,
            "interior_walls": len(f.interior_walls),
        }))
    else:
        print(
            f"valid fan: dim={f.dim} rays={f.n_rays} "
            f"max_cones={len(f.max_cones)} "
            f"simplicial={'yes' if f.is_simplicial else 'no'} "
            f"complete={'yes' if f.is_complete else 'no'} "
            f"interior_walls={len(f.interior_walls)}"
        )
    return EXIT_OK


def cmd_prim(args) -> int:
    f = _load_fan(args.fan)
    rows = list(primcoll.primitive_relations(f).values())
    if not args.json:
        for pr in rows:
            pstr = ",".join(map(str, pr.collection))
            sstr = ",".join(map(str, pr.sigma_min.ray_indices))
            bstr = ",".join(
                f"{i}:{format_rational(pr.b[i])}" for i in pr.support
            )
            print(
                f"P={{{pstr}}}  sigma_min={{{sstr}}}  S={{{bstr}}}  "
                f'relation "{_relation_string(f, pr)}"'
            )
    if args.json:
        print(json.dumps([
            {
                "collection": list(pr.collection),
                "sigma_min": list(pr.sigma_min.ray_indices),
                "support": {str(i): format_rational(pr.b[i]) for i in pr.support},
                "relation": {
                    str(i): format_rational(c) for i, c in sorted(pr.relation.items())
                },
            }
            for pr in rows
        ]))
    return EXIT_OK


def cmd_walls(args) -> int:
    f = _load_fan(args.fan)
    out = []
    for w in f.walls:
        kind = "interior" if w.is_interior else "boundary"
        out.append({"rays": list(w.ray_indices), "cones": list(w.cone_indices),
                    "kind": kind})
        if not args.json:
            rstr = ",".join(map(str, w.ray_indices))
            cstr = ",".join(map(str, w.cone_indices))
            print(f"wall {{{rstr}}} cones ({cstr}) {kind}")
    if args.json:
        print(json.dumps(out))
    return EXIT_OK


def cmd_relations(args) -> int:
    f = _load_fan(args.fan)
    out = []
    for w in f.interior_walls:
        rel = mori.wall_relation(f, w)
        out.append({
            "wall": list(w.ray_indices),
            "relation": {str(i): format_rational(c) for i, c in sorted(rel.items())},
        })
        if not args.json:
            rstr = ",".join(map(str, w.ray_indices))
            terms = " ".join(
                f"{'+' if c > 0 else '-'} {format_rational(abs(c))}*r{i}"
                for i, c in sorted(rel.items())
            )
            print(f"wall {{{rstr}}} relation {terms.lstrip('+ ')} = 0")
    if args.json:
        print(json.dumps(out))
    return EXIT_OK


def cmd_mori(args) -> int:
    f = _load_fan(args.fan)
    basis = plfun.pl_basis(f)
    mc = mori.mori_cone(f, basis)
    pointed = mc.is_pointed
    extremal = set()
    if pointed:
        extremal = {w.ray_indices for w in mori.extremal_walls(f, basis)}
    out = []
    for w, cls in zip(mc.walls, mc.classes):
        flag = "yes" if w.ray_indices in extremal else (
            "no" if pointed else "n/a"
        )
        out.append({"wall": list(w.ray_indices),
                    "class": [format_rational(x) for x in cls],
                    "extremal": flag})
        if not args.json:
            rstr = ",".join(map(str, w.ray_indices))
            cstr = ",".join(format_rational(x) for x in cls)
            print(f"wall <{rstr}> class [{cstr}] extremal {flag}")
    if not args.json:
        print(f"mori cone: dim_pic={basis.dim_pic} pointed={'yes' if pointed else 'no'}")
    else:
        print(json.dumps({"walls": out, "dim_pic": basis.dim_pic,
                          "pointed": pointed}))
    return EXIT_OK


def _nef_report(f: Fan) -> dict:
    from .linalg import kernel_basis

    pinned = list(f.max_cones[0].ray_indices)
    relations = primcoll.primitive_relations(f)
    collections = list(relations)
    raw_rows = [mori.relation_dense(f, pr.relation) for pr in relations.values()]
    # linear conditions cutting the function space inside ray-value space
    # (nontrivial only for non-simplicial fans)
    membership = kernel_basis(plfun.pl_basis(f).ray_values, f.n_rays)

    def pin(row):
        return tuple(0 if i in pinned else x for i, x in enumerate(row))

    pinned_rows = [pin(r) for r in raw_rows]
    pinned_membership = [pin(r) for r in membership]
    # forced equalities: inequality rows whose negation lies in the cone of
    # all rows modulo the membership subspace
    span_gens = [g for r in pinned_membership for g in (r, vneg(r))]
    test_gens = [r for r in pinned_rows if any(x != 0 for x in r)] + [
        g for g in span_gens if any(x != 0 for x in g)
    ]
    cone = VCone.make(test_gens, f.n_rays) if test_gens else None
    eq_idx = []
    for k, row in enumerate(pinned_rows):
        if all(x == 0 for x in row):
            continue
        neg = vneg(row)
        if cone is not None and cone_contains(cone, neg)[0]:
            eq_idx.append(k)
    eq_rows, _ = rref(pinned_membership + [pinned_rows[k] for k in eq_idx])
    # reduce the inequality rows modulo the equalities
    red_seen = []
    for k, row in enumerate(pinned_rows):
        if k in eq_idx or all(x == 0 for x in row):
            continue
        r = list(row)
        for erow in eq_rows:
            piv = next(i for i, x in enumerate(erow) if x != 0)
            if r[piv] != 0:
                fctr = Fraction(r[piv], erow[piv])
                r = [a - fctr * b for a, b in zip(r, erow)]
        if any(x != 0 for x in r):
            p = primitivize(r)
            if p not in red_seen:
                red_seen.append(p)
    return {
        "pinned_rays": pinned,
        "collections": [list(p) for p in collections],
        "inequalities": [[format_rational(x) for x in r] for r in raw_rows],
        "equalities": [[format_rational(x) for x in r] for r in eq_rows],
        "reduced": [[str(x) for x in r] for r in red_seen],
    }


def cmd_nef(args) -> int:
    f = _load_fan(args.fan)
    rep = _nef_report(f)
    if args.json:
        print(json.dumps(rep))
        return EXIT_OK
    print("primitive inequalities:")
    for p, row in zip(rep["collections"], rep["inequalities"]):
        pstr = ",".join(map(str, p))
        print(f"  P={{{pstr}}}: {_linear_expr([Fraction(x) for x in row])} >= 0")
    pstr = ",".join(map(str, rep["pinned_rays"]))
    print(f"normalization: a{{{pstr}}} = 0 (rays of the first maximal cone)")
    for row in rep["equalities"]:
        print(f"  {_linear_expr([Fraction(x) for x in row])} = 0")
    for row in rep["reduced"]:
        print(f"  {_linear_expr([Fraction(x) for x in row])} >= 0")
    return EXIT_OK


def cmd_qp(args) -> int:
    f = _load_fan(args.fan)
    ok, witness = plfun.is_quasi_projective(f)
    if args.json:
        obj = {"quasi_projective": ok}
        if ok:
            obj["witness"] = witness.to_json_obj()
        print(json.dumps(obj))
    else:
        print(f"quasi-projective: {'yes' if ok else 'no'}")
        if ok:
            print(json.dumps(witness.to_json_obj()))
    return EXIT_OK


def cmd_refine(args) -> int:
    f = _load_fan(args.fan)
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        support = tuple(int(x) for x in args.support.split(",")) if args.support else ()
    except ValueError:
        print(f"error: --support needs comma-separated ray indices, got {args.support!r}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.qp:
            ok, witness = plfun.is_quasi_projective(f)
            if not ok:
                print("error: fan is not quasi-projective", file=sys.stderr)
                return EXIT_INVALID_FAN
            r, _ = refine.qp_refinement(f, support, witness, seed)
        else:
            r = refine.simplicial_refinement(f, support, seed)
    except refine.PNotIndependent as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    fan_json = json.dumps(r.fine.to_json_obj())
    sidecar = json.dumps({
        "weights": {
            str(i): format_rational(w) for i, w in enumerate(r.weights.w)
        },
        "cone_map": list(r.cone_map),
        "seed": seed,
    })
    if args.out:
        side_path = args.sidecar or args.out + ".sidecar.json"
        try:
            for path, text in ((args.out, fan_json), (side_path, sidecar)):
                with open(path, "w") as fh:
                    fh.write(text + "\n")
        except OSError as e:
            print(f"error: cannot write output: {e}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(fan_json)
        print(sidecar)
    return EXIT_OK


def cmd_corpus(args) -> int:
    obj = corpus.corpus_obj(args.name)
    if obj is None:
        print(f"error: unknown corpus name {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(obj))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.random_fans < 0:
        print("error: --random-fans must not be negative", file=sys.stderr)
        return EXIT_USAGE
    seed = args.seed if args.seed is not None else _default_seed()
    checks = {
        "main-cone-equality": theorems.check_main_theorem,
        "extremal-positive-support": theorems.check_extremal_primitive,
        "reid-conditions": theorems.check_reid_all_walls,
    }
    if args.theorem:
        if not args.fan:
            print("error: --theorem needs --fan", file=sys.stderr)
            return EXIT_USAGE
        f = _load_fan(args.fan)
        if args.theorem == "type-a-subspace":
            r = refine.simplicial_refinement(f, (), seed)
            reports = [theorems.check_type_a_description(f, r, args.fan)]
        elif args.theorem in checks:
            reports = [checks[args.theorem](f, args.fan)]
        else:
            print(f"error: unknown theorem {args.theorem!r}", file=sys.stderr)
            return EXIT_USAGE
    elif args.fan:
        f = _load_fan(args.fan)
        reports = theorems.run_paper_suite(fans=[(args.fan, f)], seed=seed)
    else:
        reports = theorems.run_paper_suite(seed=seed, random_fans=args.random_fans)
    ok = all(r.verdict in theorems.PASSING for r in reports)
    certified = all(theorems.verify_certificates(r) for r in reports)
    if args.json:
        print(json.dumps({
            "reports": [r.to_json_obj(with_timing=args.timing) for r in reports],
            "all_passing": ok,
            "certificates_verified": certified,
        }))
    else:
        for r in reports:
            print(f"{r.fan_id:24s} {r.theorem:28s} {r.verdict:12s} {r.details}")
        print(f"all passing: {'yes' if ok else 'NO'}; "
              f"certificates re-verified: {'yes' if certified else 'NO'}")
    return EXIT_OK if ok and certified else EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    p = _Parser(prog="fanforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, fan_arg=True):
        sp = sub.add_parser(name, help=help_)
        if fan_arg:
            sp.add_argument("--fan", required=True,
                            help="fan JSON path or corpus:NAME")
        sp.add_argument("--json", action="store_true", help="JSON output")
        sp.set_defaults(fn=fn)
        return sp

    add("validate", cmd_validate, "validate a fan and print a summary")
    add("prim", cmd_prim, "primitive collections and relations")
    add("walls", cmd_walls, "all walls with incident cones")
    add("relations", cmd_relations, "wall relations of interior walls")
    add("mori", cmd_mori, "wall classes, extremality, Mori cone")
    add("nef", cmd_nef, "primitive inequalities and reduced nef description")
    add("qp", cmd_qp, "quasi-projectivity with witness")

    sp = add("refine", cmd_refine, "generic-weight simplicial refinement")
    sp.add_argument("--support", help="comma-separated ray indices kept at weight 1")
    sp.add_argument("--qp", action="store_true",
                    help="quasi-projectivity-preserving variant (exit 2 if the "
                    "fan is not quasi-projective)")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", help="write the fine fan JSON here")
    sp.add_argument("--sidecar", help="write weights and cone map here")

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--all", action="store_true", help="full built-in suite")
    sp.add_argument("--theorem", help="run one check by id (needs --fan)")
    sp.add_argument("--fan", help="fan JSON path or corpus:NAME")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--random-fans", type=int, default=8)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--timing", action="store_true", help="seconds per report in --json")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("corpus", help="print a built-in fan as JSON")
    sp.add_argument("name", help="ex21 | ex22(r) | ex31 | fulton")
    sp.set_defaults(fn=cmd_corpus)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
    except FanError as e:
        print(f"error: invalid fan: {e}", file=sys.stderr)
        return EXIT_INVALID_FAN
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
