import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from fanforge import cli, cones, corpus, mori, plfun, primcoll
from fanforge.cones import VCone, cone_contains
from fanforge import fan as fanmod
from fanforge.fan import fan_from_json_obj, fans_equal
from fanforge.linalg import format_rational, kernel_basis, primitivize, rref, vneg
from test_cross_oracles import _route_fans
from test_fan_verdicts import DEPENDENT
from test_theorems import merged_fulton_fans


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_roundtrip(capsys):
    for name in ("ex21", "ex31", "fulton", "ex22:6", "ex22(5)"):
        code, out, _ = run_cli(capsys, "corpus", name)
        assert code == 0
        obj = json.loads(out)
        rebuilt = fan_from_json_obj(obj)
        assert fans_equal(rebuilt, corpus.corpus_fan(name))


def test_corpus_unknown_name(capsys):
    code, _, err = run_cli(capsys, "corpus", "nope")
    assert code == 4 and "unknown corpus" in err


@pytest.mark.parametrize("name", ["ex22(5)", "ex22:5"])
def test_ex22_takes_its_ray_count_in_two_spellings(capsys, name):
    code, out, _ = run_cli(capsys, "corpus", name)
    assert code == 0
    assert fans_equal(fan_from_json_obj(json.loads(out)), corpus.polygon_fan(5))


@pytest.mark.parametrize("name", [
    "ex22(5", "ex22:5)", "ex22(5):", "ex22[5]", "ex22()", "ex22:", "ex22:5\n",
    "ex22:\u0665", "ex22(3)",
])
def test_ex22_rejects_other_spellings(capsys, name):
    code, out, err = run_cli(capsys, "corpus", name)
    assert code == 4 and out == ""
    assert err == f"error: unknown corpus name {name!r}\n"


def test_validate_summary(capsys):
    code, out, _ = run_cli(capsys, "validate", "--fan", "corpus:ex21")
    assert code == 0
    assert "simplicial=yes" in out and "interior_walls=9" in out


def test_module_entry_point_runs_from_a_checkout(capsys):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["validate", "--fan", "corpus:ex21"]
    proc = subprocess.run(
        [sys.executable, "-m", "fanforge", *argv],
        env=env, capture_output=True, text=True, check=False,
    )
    code, out, _ = run_cli(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_verify_and_fan_errors_are_the_same_under_python_optimize(tmp_path, capsys):
    # python -O strips asserts, so no verdict may rest on one
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run_optimized(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "fanforge", *argv],
            env=env, capture_output=True, check=False,
        )

    proc = run_optimized("verify", "--all", "--seed", "7", "--random-fans", "25", "--json")
    assert proc.returncode == 0 and len(proc.stdout) == VERIFY_ALL_BYTES
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_DIGEST
    dim, rays, max_cones, _ = DEPENDENT["facet-interior-3d"]
    p = tmp_path / "fan.json"
    p.write_text(json.dumps({"dim": dim, "rays": rays, "max_cones": max_cones}))
    proc = run_optimized("validate", "--fan", str(p))
    code, _, err = run_cli(capsys, "validate", "--fan", str(p))
    assert proc.returncode == code == 2
    assert proc.stderr.decode() == err


def test_validate_corrupted_fan(tmp_path, capsys):
    bad = corpus.EX21_OBJ.copy()
    bad = json.loads(json.dumps(bad))
    bad["max_cones"][4] = [0, 1, 3]  # swapped cone overlaps improperly
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "validate", "--fan", str(p))
    assert code == 2
    assert "invalid fan" in err


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", "--fan", str(p))
    assert code == 3


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as e:
        cli.build_parser().parse_args(["validate"])  # missing --fan
    assert e.value.code == 4


def test_prim_report_lines(capsys):
    code, out, _ = run_cli(capsys, "prim", "--fan", "corpus:ex21")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("P={0,2,4}")
    assert 'relation "r1 + r3 = r2 + r4"' in lines[1]
    assert "S={2:1/2,4:1/2}" in lines[0]


def test_walls_and_relations(capsys):
    code, out, _ = run_cli(capsys, "walls", "--fan", "corpus:ex31")
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    code, out, _ = run_cli(capsys, "relations", "--fan", "corpus:ex21", "--json")
    rows = json.loads(out)
    assert {"wall": [2, 4], "relation": {"1": "1", "2": "-1", "3": "1", "4": "-1"}} in rows


def test_mori_report(capsys):
    code, out, _ = run_cli(capsys, "mori", "--fan", "corpus:ex21")
    assert code == 0
    assert "wall <2,4>" in out and "extremal yes" in out
    assert "pointed=yes" in out
    code, out, _ = run_cli(capsys, "mori", "--fan", "corpus:fulton")
    assert "pointed=no" in out


def test_nef_split_pyramid(capsys):
    code, out, _ = run_cli(capsys, "nef", "--fan", "corpus:ex21")
    assert code == 0
    assert "a1+a3-a2-a4 >= 0" in out
    assert "a0+1/2a2+1/2a4 >= 0" in out


def test_nef_fulton_reduced_system(capsys):
    code, out, _ = run_cli(capsys, "nef", "--fan", "corpus:fulton", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pinned_rays"] == [0, 1, 2]
    assert len(rep["equalities"]) == 2
    assert sorted(rep["reduced"]) == sorted([["0", "0", "0", "1", "0", "0", "-1"],
                                             ["0", "0", "0", "-2", "0", "0", "3"]])


def reference_nef_report(f):
    """The nef report in Picard terms: the relations that pair to 0 with
    every basis function's ray values span the membership subspace, and a
    row is a forced equality when its negation lies in the cone of all rows
    and of that subspace, in ray-value columns."""
    pinned = list(f.max_cones[0].ray_indices)
    relations = primcoll.primitive_relations(f)
    raw_rows = [mori.relation_dense(f, pr.relation) for pr in relations.values()]
    membership = kernel_basis(plfun.pl_basis(f).ray_values, f.n_rays)

    def pin(row):
        return tuple(0 if i in pinned else x for i, x in enumerate(row))

    pinned_rows = [pin(r) for r in raw_rows]
    pinned_membership = [pin(r) for r in membership]
    gens = [r for r in pinned_rows if any(r)]
    gens += [g for r in pinned_membership if any(r) for g in (r, vneg(r))]
    cone = VCone.make(gens, f.n_rays) if gens else None
    eq_idx = [k for k, row in enumerate(pinned_rows)
              if any(row) and cone is not None and cone_contains(cone, vneg(row))[0]]
    eq_rows, eq_pivots = rref(pinned_membership + [pinned_rows[k] for k in eq_idx])
    reduced = []
    for k, row in enumerate(pinned_rows):
        if k in eq_idx or not any(row):
            continue
        r = list(row)
        for erow, piv in zip(eq_rows, eq_pivots):
            if r[piv]:
                r = [a - r[piv] * b for a, b in zip(r, erow)]
        if any(r) and primitivize(r) not in reduced:
            reduced.append(primitivize(r))
    return {
        "pinned_rays": pinned,
        "collections": [list(p) for p in relations],
        "inequalities": [[format_rational(x) for x in r] for r in raw_rows],
        "equalities": [[format_rational(x) for x in r] for r in eq_rows],
        "reduced": [[str(x) for x in r] for r in reduced],
    }


def test_nef_report_matches_picard_reference():
    # the byte pins hold one membership fan (ex31) and one fan with forced
    # equalities (fulton); here every route fan, the merged Fulton fans and
    # cube_fan(4), compared as JSON
    fans = _route_fans() + merged_fulton_fans() + [("cube4", corpus.cube_fan(4))]
    membership = forced = 0
    for name, f in fans:
        new, ref = cli._nef_report(f), reference_nef_report(f)
        assert json.dumps(new) == json.dumps(ref), name
        # the membership subspace has dimension len(rays) - dim in N_1 terms,
        # and any equality beyond it is a forced primitive row
        rc = plfun._relation_coordinates(f)
        membership += len(rc.rays) > rc.dim
        forced += len(new["equalities"]) > len(rc.rays) - rc.dim
    # every non-simplicial fan has membership rows; fulton and its merged
    # fans have forced equalities
    assert (membership, forced) == (22, 4)


def test_qp_reports(capsys):
    code, out, _ = run_cli(capsys, "qp", "--fan", "corpus:ex31")
    assert code == 0 and "quasi-projective: yes" in out
    code, out, _ = run_cli(capsys, "qp", "--fan", "corpus:fulton", "--json")
    assert json.loads(out) == {"quasi_projective": False}


def test_qp_json_at_picard_rank_zero(tmp_path, capsys):
    p = tmp_path / "orthant.json"
    p.write_text(json.dumps(
        {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "max_cones": [[0, 1, 2]]}
    ))
    code, out, _ = run_cli(capsys, "qp", "--fan", str(p), "--json")
    assert code == 0
    assert out == (
        '{"quasi_projective": true, '
        '"witness": {"ray_values": {"0": "0", "1": "0", "2": "0"}}}\n'
    )


def test_refine_stdout_and_files(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "refine", "--fan", "corpus:ex31", "--support", "2,4", "--seed", "1"
    )
    assert code == 0
    fan_line, sidecar_line = out.strip().splitlines()
    fine = fan_from_json_obj(json.loads(fan_line))
    assert fans_equal(fine, corpus.split_pyramid_fan())
    side = json.loads(sidecar_line)
    assert side["weights"]["2"] == "1" and side["weights"]["4"] == "1"
    assert len(side["cone_map"]) == 6

    out_path = tmp_path / "fine.json"
    code, out, _ = run_cli(
        capsys, "refine", "--fan", "corpus:ex31", "--support", "2,4",
        "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text())["dim"] == 3
    assert (tmp_path / "fine.json.sidecar.json").exists()


def test_refine_deterministic_bytes(capsys):
    a = run_cli(capsys, "refine", "--fan", "corpus:ex31", "--seed", "7")
    b = run_cli(capsys, "refine", "--fan", "corpus:ex31", "--seed", "7")
    assert a == b


def test_verify_single_theorem(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "main-cone-equality", "--fan", "corpus:ex21"
    )
    assert code == 0
    assert "holds" in out


def test_verify_deterministic_bytes(capsys):
    args = ("verify", "--all", "--seed", "7", "--random-fans", "2", "--json")
    a = run_cli(capsys, *args)
    b = run_cli(capsys, *args)
    assert a == b
    assert a[0] == 0
    payload = json.loads(a[1])
    assert payload["all_passing"] and payload["certificates_verified"]


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--theorem", "nope", "--fan", "corpus:ex21"
    )
    assert code == 4


@pytest.mark.parametrize("support", ["a,b", ",", "1,x"])
def test_refine_bad_support_is_usage_error(capsys, support):
    code, out, err = run_cli(capsys, "refine", "--fan", "corpus:ex21", "--support", support)
    assert code == 4 and out == ""
    assert "--support" in err


@pytest.mark.parametrize("support, message", [
    ("0,99", "ray indices (0, 99) out of range"),
    ("1,2,3,4", "support meets cone (1, 2, 3, 4) dependently"),
], ids=["out-of-range", "dependent"])
def test_refine_support_the_fan_cannot_take_is_usage_error(capsys, support, message):
    code, out, err = run_cli(capsys, "refine", "--fan", "corpus:ex31", "--support", support)
    assert code == 4 and out == ""
    assert err == f"error: {message}\n"


def test_refine_qp_on_a_fan_that_is_not_quasi_projective_is_exit_2(capsys):
    # Fulton's fan is valid but has no strictly convex function
    code, out, err = run_cli(capsys, "refine", "--qp", "--fan", "corpus:fulton")
    assert code == 2 and out == ""
    assert err == "error: fan is not quasi-projective\n"


@pytest.mark.parametrize("obj", [
    {"dim": 2, "rays": 5, "max_cones": [[0]]},
    {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [0]},
    {"dim": 2, "rays": [[1, 0], None], "max_cones": [[0, 1]]},
    {"dim": 2, "rays": [[1, 0], [None, 1]], "max_cones": [[0, 1]]},
    {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, None]]},
    {"dim": 2, "rays": [[1, 0], [float("inf"), 1]], "max_cones": [[0, 1]]},
    {"dim": 2, "rays": [[1, 0], [float("nan"), 1]], "max_cones": [[0, 1]]},
    {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1.7]]},
    {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, True]]},
    {"dim": 2.9, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]},
    {"dim": 2, "rays": [["1", 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]},
    {"dim": 2, "rays": [[1, 0], [0, True], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]},
    {"dim": 2, "rays": [["1", 0], [0, True], [-1, "-1"]],
     "max_cones": [[0, 1], [1, 2], [2, 0]]},
])
def test_validate_malformed_shapes_are_invalid_fans(tmp_path, capsys, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "validate", "--fan", str(p))
    assert code == 2
    assert "BadInput" in err


def test_validate_dimension_above_guard_is_invalid_fan(tmp_path, capsys):
    obj = {"dim": 13, "rays": [[int(j == i) for j in range(13)] for i in range(13)],
           "max_cones": [list(range(13))]}
    p = tmp_path / "orthant13.json"
    p.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "validate", "--fan", str(p))
    assert code == 2
    assert "invalid fan: BadInput: ambient dimension 13 exceeds the 12 guard" in err


@pytest.mark.parametrize("argv", [
    ("refine",),
    ("refine", "--qp"),
    ("verify",),
    ("verify", "--theorem", "type-a-subspace"),
], ids=["refine", "refine-qp", "verify", "verify-type-a"])
def test_fan_at_the_dimension_guard_refines_and_verifies(monkeypatch, capsys, argv):
    # a refinement lifts each non-simplicial cone's slice points one
    # coordinate up, and the guard bounds the fan's dimension, not the lift's.
    # The guard is lowered to the dimension of ex31 here, where this is cheap;
    # a dimension-12 fan with a non-simplicial cone takes seconds
    expected = run_cli(capsys, *argv, "--fan", "corpus:ex31")
    assert expected[0] == 0 and "Traceback" not in expected[2]
    monkeypatch.setattr(cones, "MAX_DIM", 3)
    monkeypatch.setattr(fanmod, "MAX_DIM", 3)
    assert run_cli(capsys, *argv, "--fan", "corpus:ex31") == expected


@pytest.mark.parametrize("fan", ["ex22:15", "ex22:16"])
@pytest.mark.parametrize("argv", [
    ("mori",),
    ("verify",),
    ("verify", "--theorem", "extremal-positive-support"),
], ids=["mori", "verify", "verify-theorem"])
def test_picard_rank_above_guard_is_exit_0(capsys, argv, fan):
    # ex22:15 and ex22:16 are valid fans of dimension 2 whose Mori cones
    # live in dimensions 13 and 14, above the double-description guard of
    # 12; no command on them runs double description in Picard space
    code, out, err = run_cli(capsys, *argv, "--fan", f"corpus:{fan}", "--json")
    assert code == 0 and err == "" and "Traceback" not in out
    obj = json.loads(out)
    if argv == ("mori",):
        r = int(fan.split(":")[1])
        assert obj["dim_pic"] == r - 2 and obj["pointed"] is True
        assert len(obj["walls"]) == r
    else:
        assert obj["all_passing"] is True
        assert obj["certificates_verified"] is True
        assert all(rep["verdict"] == "holds" for rep in obj["reports"])


@pytest.mark.parametrize("argv", [
    ("mori",),
    ("verify", "--theorem", "extremal-positive-support"),
    ("verify", "--theorem", "main-cone-equality"),
], ids=["mori", "verify-theorem", "verify-main-theorem"])
def test_picard_rank_at_guard_is_exit_0(capsys, argv):
    code, _, _ = run_cli(capsys, *argv, "--fan", "corpus:ex22:14")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("refine", "--fan", "corpus:ex21"),
    ("verify", "--fan", "corpus:ex21"),
], ids=["refine", "verify"])
def test_non_integer_seed_variable_is_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("FANFORGE_SEED", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == "" and "Traceback" not in err
    assert err == "error: FANFORGE_SEED must be an integer, got 'abc'\n"
    # an explicit --seed does not read the variable
    code, _, _ = run_cli(capsys, *argv, "--seed", "1")
    assert code == 0


def test_negative_random_fans_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--all", "--random-fans", "-3", "--json")
    assert code == 4 and out == ""
    assert err == "error: --random-fans must not be negative\n"
    code, out, _ = run_cli(capsys, "verify", "--all", "--random-fans", "0", "--json")
    assert code == 0 and len(json.loads(out)["reports"]) == 40


@pytest.mark.parametrize("extra", [(), ("--theorem", "main-cone-equality")],
                         ids=["suite", "theorem"])
def test_verify_all_with_a_fan_is_usage_error(capsys, extra):
    # --all runs the built-in suite; with --fan it would check that fan alone
    code, out, err = run_cli(capsys, "verify", "--all", "--fan", "corpus:ex21",
                             "--random-fans", "25", *extra)
    assert code == 4 and out == ""
    assert err == "error: --all runs the built-in suite and takes no --fan\n"


def test_verify_timing_adds_only_seconds(capsys):
    argv = ("verify", "--fan", "corpus:ex21", "--seed", "0", "--json")
    _, plain, _ = run_cli(capsys, *argv)
    # the bytes without --timing are those of the parent release
    digest = "68790bfc8f4397ec96ab96ed0ad1847f2d25d6d3dc0d26ec4471d7a44aabcfd7"
    assert hashlib.sha256(plain.encode()).hexdigest() == digest
    code, timed, _ = run_cli(capsys, *argv, "--timing")
    assert code == 0
    plain_obj, timed_obj = json.loads(plain), json.loads(timed)
    assert all("seconds" not in r for r in plain_obj["reports"])
    for r in timed_obj["reports"]:
        assert type(r.pop("seconds")) is float
    assert timed_obj == plain_obj


@pytest.mark.parametrize("flag", ["--out", "--sidecar"])
def test_unwritable_output_path_is_usage_error(tmp_path, capsys, flag):
    missing = str(tmp_path / "missing" / "x.json")
    argv = ["--out", missing] if flag == "--out" else [
        "--out", str(tmp_path / "fine.json"), "--sidecar", missing
    ]
    code, out, err = run_cli(capsys, "refine", "--fan", "corpus:ex21", *argv)
    assert code == 4 and out == "" and "Traceback" not in err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert missing in err


# SHA-256 of each subcommand's --json output, concatenated over these corpus
# fans, and of the full verify suite.  Tier-1 otherwise checks only that the
# bytes repeat, so a number that leaked as 0.5 or Fraction(1, 2) into a
# report would pass unnoticed.
PINNED_FANS = ("ex21", "ex22:5", "ex22:8", "ex22:10", "ex31", "fulton")
PINNED_JSON = {
    "validate": ((), "aa6a99dc5c8683c5371329a7cdf0ed2ecfbbbad8808cfe439a7130e53d5c37d9"),
    "prim": ((), "a0ec9064710d3074be7e83bc4680f87bd81006e13da7c9a8e55089049309bcc5"),
    "walls": ((), "7a9af03f35df1493e728056eddd8036886ea49cc3ea18bb6a91f62b77800bd5b"),
    "relations": ((), "d2d28814967e2966d235db9fafa060f65592461525c2feead027ea5bd228fd95"),
    "mori": ((), "9a7c510bac316b2eba3a8f43181ee914a5c61a501a3866b44962bd8a478bcd51"),
    "nef": ((), "444ca2989fb7f9629c271c18ab3609c6bc5c3a16857fb242783c5bdbb3b99104"),
    "qp": ((), "b31c1d9ff3b8b3456691bff5f658b606c89c53fc389c73c04660aa79ffbdcc55"),
    "refine": (("--seed", "7"),
               "f5f70df077cb9833717d8de5af4c91e5dc3657607626b227f1625f2daa385d66"),
    "verify": (("--seed", "0"),
               "36f730bd25254dc2e89780073b6c448bb7e26603c2faa09ef568bbaa18af5695"),
}


# SHA-256 of each subcommand's text output, concatenated over PINNED_FANS;
# fulton's nef report prints equality lines and no other pin covers them
PINNED_TEXT = {
    "validate": "71093e816e3b66c84880fff76f967debaf836150e6d0e3632e61d97b7610f6c1",
    "prim": "64f3464aff2e747178dd01d21b8f30353c0a257b0914f3add94ad5ae9c5388b1",
    "walls": "dba7dc8290bd6aa5cd9ca73358a2059c40fdc44cf4d529d564cbb2e9d5cacd76",
    "relations": "f98b636de925d88430dbab66c39291a0bdee2ed07a98fd07bc19ff88ce255659",
    "mori": "18038370ece5f8db47252a1ce17cfe0368ee03380e230cddb5b52856542f1c06",
    "nef": "7e3ad0880a586d2882b289c02de3d5f50764f95afc389a225dd788f8dddcea0b",
    "qp": "2f0edccc40902275593fba925fb6c0a315a7b4541e8fa513cba698e8e6c2451b",
}


@pytest.mark.parametrize("sub", sorted(PINNED_TEXT))
def test_text_output_bytes_are_pinned(capsys, sub):
    h = hashlib.sha256()
    for name in PINNED_FANS:
        code, out, _ = run_cli(capsys, sub, "--fan", f"corpus:{name}")
        assert code == 0, name
        h.update(out.encode())
    assert h.hexdigest() == PINNED_TEXT[sub]


@pytest.mark.parametrize("sub", sorted(PINNED_JSON))
def test_json_output_bytes_are_pinned(capsys, sub):
    extra, digest = PINNED_JSON[sub]
    h = hashlib.sha256()
    for name in PINNED_FANS:
        code, out, _ = run_cli(capsys, sub, "--fan", f"corpus:{name}", "--json", *extra)
        assert code == 0, name
        h.update(out.encode())
    assert h.hexdigest() == digest


# the length and SHA-256 of verify --all --seed 7 --random-fans 25 --json
VERIFY_ALL_BYTES = 18140
VERIFY_ALL_DIGEST = "875cfefe2ddb57bcff9a66fa271f453fdce4bda52650d447369ee725b759a28e"


def test_verify_all_bytes_are_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--seed", "7", "--random-fans", "25", "--json"
    )
    assert code == 0 and len(out.encode()) == VERIFY_ALL_BYTES
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST
