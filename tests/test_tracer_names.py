"""The perfbench tracer reads fixed metric names off the layer modules.

A traced benchmark run fails with a KeyError when a public function that
its ``wanted`` list names is deleted or renamed; this test finds that out
from tier-1.  The tracer is compiled from its source and only built, never
installed, so no fanforge function is rebound.
"""

import types
from pathlib import Path

import fanforge  # noqa: F401  (loads every layer module the tracer wraps)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_traced_metric_names_exist():
    tr = _load_tracer().Tracer()
    tr._wrap_all()
    metrics = tr.metrics()
    assert metrics["cones.hcone_covered_by.calls"] == (0, "count")
    assert "theorems.check_reid_all_walls.incl_s" in metrics
