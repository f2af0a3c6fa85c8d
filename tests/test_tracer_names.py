"""The perfbench tracer reads fixed metric names off the layer modules.

A traced benchmark run fails with a KeyError when a public function that
its ``wanted`` list names is deleted or renamed; this test finds that out
from tier-1.  The tracer is compiled from its source.  The first test only
builds it; the second installs it, and its context restores every function
it rebinds.
"""

import types
from pathlib import Path

import fanforge  # noqa: F401  (loads every layer module the tracer wraps)
from fanforge import corpus, theorems

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


def test_tracer_sees_each_check_that_run_check_dispatches():
    # a table holding the check functions themselves would keep the
    # unwrapped originals, and the traced incl_s of every check would read 0
    tr = _load_tracer().Tracer()
    f = corpus.corpus_fan("ex21")
    with tr.installed():
        tr.on = True
        for name in theorems.CHECKS:
            theorems.run_check(name, f, "ex21", seed=7)
        tr.on = False
    calls = dict(zip(tr.names, tr.calls))
    assert {n: c for n, c in calls.items() if n.startswith("theorems.check_")} == {
        "theorems.check_main_theorem": 1,
        "theorems.check_extremal_primitive": 1,
        "theorems.check_reid_all_walls": 1,
        "theorems.check_reid_conditions": 0,
        "theorems.check_type_a_description": 1,
    }
    assert calls["theorems.run_check"] == len(theorems.CHECKS)
    assert calls["refine.simplicial_refinement"] == 1
