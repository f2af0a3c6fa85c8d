"""Every fan of the perfbench query workload matches its golden output
digest.

The query digest covers the fan, its basis, quasi-projectivity, primitive
relations, the Mori cone and its extremal walls, on random fans of
dimensions 2 and 3 and on the dimension-4 cross and cube fans; the other
byte pins in tier-1 cover corpus fans only.  The workload module is
compiled from its source, so nothing under ``perfbench/`` is imported as a
package or written.
"""

import functools
import json
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["query"]
DIMENSION_4 = ["cross4d+0", "cube4d+0"]


@functools.cache
def _load_workloads():
    mod = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), mod.__dict__)
    return mod


@functools.cache
def _query_inputs():
    """The pass's inputs as fan JSON; each job parses a new Fan from them."""
    return _load_workloads().make_inputs("query", GOLDEN["seed"])


def _replay(fan_id):
    wl = _load_workloads()
    inputs = _query_inputs()
    index, item = next((k, item) for k, (fid, item) in enumerate(inputs) if fid == fan_id)
    out = wl.run_job("query", index, fan_id, item, GOLDEN["seed"])
    assert wl.check("query", out)
    assert wl.output_digest("query", index, out) == GOLDEN["outputs"][fan_id]


@pytest.mark.parametrize("fan_id", DIMENSION_4)
def test_dimension_4_query_outputs_match_golden(fan_id):
    _replay(fan_id)


@pytest.mark.parametrize(
    "fan_id", [fid for fid in GOLDEN["outputs"] if fid not in DIMENSION_4]
)
def test_dimension_2_and_3_query_outputs_match_golden(fan_id):
    _replay(fan_id)


def test_golden_query_pass_is_replayed_whole():
    assert sorted(fid for fid, _ in _query_inputs()) == sorted(GOLDEN["outputs"])
    assert len(GOLDEN["outputs"]) == 14
