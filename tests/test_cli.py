import json

import pytest

from fanforge import cli, corpus
from fanforge.fan import fan_from_json_obj, fans_equal


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


def test_validate_summary(capsys):
    code, out, _ = run_cli(capsys, "validate", "--fan", "corpus:ex21")
    assert code == 0
    assert "simplicial=yes" in out and "interior_walls=9" in out


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


def test_qp_reports(capsys):
    code, out, _ = run_cli(capsys, "qp", "--fan", "corpus:ex31")
    assert code == 0 and "quasi-projective: yes" in out
    code, out, _ = run_cli(capsys, "qp", "--fan", "corpus:fulton", "--json")
    assert json.loads(out) == {"quasi_projective": False}


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


@pytest.mark.parametrize("obj", [
    {"dim": 2, "rays": 5, "max_cones": [[0]]},
    {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [0]},
    {"dim": 2, "rays": [[1, 0], None], "max_cones": [[0, 1]]},
    {"dim": 2, "rays": [[1, 0], [None, 1]], "max_cones": [[0, 1]]},
    {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, None]]},
])
def test_validate_malformed_shapes_are_invalid_fans(tmp_path, capsys, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "validate", "--fan", str(p))
    assert code == 2
    assert "BadInput" in err
