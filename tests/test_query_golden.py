"""Every fan of the perfbench workloads matches its golden output digest.

The query digest covers the fan, its basis, quasi-projectivity, primitive
relations, the Mori cone and its extremal walls, on random fans of
dimensions 2 and 3 and on the dimension-4 cross and cube fans.  The
verify-suite digest covers each fan's suite reports, and its check re-runs
``verify_certificates`` on every report, so a certificate regression fails
here.  The refine digest covers the printed refinements, plain and
quasi-projective.  The other byte pins in tier-1 cover corpus fans only.
The workload module is compiled from its source, so nothing under
``perfbench/`` is imported as a package or written.
"""

import functools
import json
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
GOLDEN_ALL = json.loads((PERFBENCH / "golden.json").read_text())
GOLDEN = GOLDEN_ALL["query"]
DIMENSION_4 = ["cross4d+0", "cube4d+0"]


@functools.cache
def _load_workloads():
    mod = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), mod.__dict__)
    return mod


@functools.cache
def _inputs(workload):
    """The pass's inputs at the golden seed; each job gets a fresh fan
    equal to its input, as in a benchmark pass."""
    return _load_workloads().make_inputs(workload, GOLDEN_ALL[workload]["seed"])


def _replay(fan_id, workload="query"):
    wl = _load_workloads()
    golden = GOLDEN_ALL[workload]
    index, item = next(
        (k, item) for k, (fid, item) in enumerate(_inputs(workload)) if fid == fan_id
    )
    out = wl.run_job(workload, index, fan_id, wl.fresh(workload, item), golden["seed"])
    assert wl.check(workload, out)
    assert wl.output_digest(workload, index, out) == golden["outputs"][fan_id]


@pytest.mark.parametrize("fan_id", DIMENSION_4)
def test_dimension_4_query_outputs_match_golden(fan_id):
    _replay(fan_id)


@pytest.mark.parametrize(
    "fan_id", [fid for fid in GOLDEN["outputs"] if fid not in DIMENSION_4]
)
def test_dimension_2_and_3_query_outputs_match_golden(fan_id):
    _replay(fan_id)


def test_golden_query_pass_is_replayed_whole():
    assert sorted(fid for fid, _ in _inputs("query")) == sorted(GOLDEN["outputs"])
    assert len(GOLDEN["outputs"]) == 14


@pytest.mark.parametrize("fan_id", sorted(GOLDEN_ALL["verify-suite"]["outputs"]))
def test_verify_suite_outputs_match_golden(fan_id):
    _replay(fan_id, "verify-suite")


@pytest.mark.parametrize("fan_id", sorted(GOLDEN_ALL["refine"]["outputs"]))
def test_refine_outputs_match_golden(fan_id):
    _replay(fan_id, "refine")


@pytest.mark.parametrize("workload, n_fans", [("verify-suite", 35), ("refine", 25)])
def test_golden_pass_is_replayed_whole(workload, n_fans):
    outputs = GOLDEN_ALL[workload]["outputs"]
    assert GOLDEN_ALL[workload]["seed"] == 7
    assert sorted(fid for fid, _ in _inputs(workload)) == sorted(outputs)
    assert len(outputs) == n_fans
