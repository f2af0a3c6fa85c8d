"""The dimension-4 fans of the perfbench query workload match their golden
output digests.

The other byte pins in tier-1 cover dimension-2 and dimension-3 fans only.
The workload module is compiled from its source, so nothing under
``perfbench/`` is imported as a package or written.
"""

import json
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def _load_workloads():
    mod = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), mod.__dict__)
    return mod


@pytest.mark.parametrize("fan_id", ["cross4d+0", "cube4d+0"])
def test_dimension_4_query_outputs_match_golden(fan_id):
    wl = _load_workloads()
    golden = json.loads((PERFBENCH / "golden.json").read_text())["query"]
    inputs = wl.make_inputs("query", golden["seed"])
    index, item = next((k, item) for k, (fid, item) in enumerate(inputs) if fid == fan_id)
    out = wl.run_job("query", index, fan_id, item, golden["seed"])
    assert wl.check("query", out)
    assert wl.output_digest("query", index, out) == golden["outputs"][fan_id]
