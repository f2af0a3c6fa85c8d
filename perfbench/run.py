"""fanforge benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload verify-suite --seed 7 --seconds 20 --trace 0

Run from the repository root; fanforge is imported from ``src/``.  The
workloads are described in ``perfbench/workloads.py``.

With ``--trace 0`` the run repeats whole passes over the workload's fans
until one more pass would exceed ``--seconds`` of job time (at least one
pass), and reports the end-to-end metrics:

- ``fans_per_s``: fans per second of job time, the median over passes;
- ``fan_p50_ms``, ``fan_p90_ms``: the time of one fan's job;
- ``setup_s``: importing fanforge plus generating the inputs from the seed
  (the median of three generations in this process);
- ``peak_rss_mib``: the process's resident-set high-water mark.

Times are given at a fixed reference speed of the machine (see
``ReferenceClock``).  On a shared VM the same code runs up to twice as slow
from one minute to the next.  So a fixed pure-Python kernel, which calls no
fanforge code, is timed before, after and every 20 ms during each job and
each set-up step, and the step's wall time is scaled by the mean of
``REFERENCE_S`` over those kernel times.  A change to fanforge moves the
scaled times as it moves the wall times, while a change of machine speed
cancels.  The summary line gives the unscaled figures too.

With ``--trace 1`` the run makes a pass in which each fan's job runs
untraced and traced back to back, and a second traced pass (see
``tracer.py``).  It checks that the two traced passes give identical
counts, reports the per-layer metrics of the first one plus
``trace.overhead_pct``, and writes its spans to ``perfbench/out/``.  Span
times are unscaled wall times; the speed samples taken during a job (about
3 % of its wall time) fall into whichever span is open.

Every job's output is checked outside the timed region.  At the default
seed the inputs must match the pinned input digest (else nothing is
reported) and every output must match its golden digest; verify-suite is
also compared once, untimed, with ``fanforge verify --all --seed 7
--random-fans 25 --json`` run in-process.  ``--record-golden`` rewrites the
pinned digests from the current code.

The last line of standard output is the JSON result; the lines before it
record the environment and the sample counts.  The exit status is 0 only
if every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
WORKLOADS = ("verify-suite", "query", "refine")
SETUP_SAMPLES = 3
# Seconds one reference kernel takes at the reference speed; about its
# median on the 2-vCPU Xeon VM the benchmark was built on.
REFERENCE_S = 0.0007
SAMPLE_EVERY_S = 0.02
_KERNEL_MATRIX = [
    [(3 * i * i + 5 * j + 7 * i * j + 1) % 11 - 5 for j in range(7)] for i in range(7)
]


def _kernel() -> Fraction:
    """The reference kernel: Fraction elimination on a fixed 7x7 matrix."""
    a = [[Fraction(x) for x in row] for row in _KERNEL_MATRIX]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def kernel_s(reps: int = 3) -> float:
    """Mean seconds of one reference kernel, now."""
    t0 = perf_counter()
    for _ in range(reps):
        _kernel()
    return (perf_counter() - t0) / reps


class ReferenceClock:
    """Times a block at the reference speed.

    The kernel runs before and after the block and, from a SIGALRM handler,
    every ``SAMPLE_EVERY_S`` during it; each run gives a speed sample
    ``REFERENCE_S / kernel time``.  ``wall`` is the block's wall time less
    the handler's, and ``seconds`` is ``wall`` times the mean speed sample.
    """

    def __enter__(self):
        self.speeds = [REFERENCE_S / kernel_s()]
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.t0 = perf_counter()
        return self

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.speeds.append(REFERENCE_S / kernel_s(1))
        self.paused += perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = perf_counter() - self.t0 - self.paused
        self.speeds.append(REFERENCE_S / kernel_s())
        self.seconds = self.wall * statistics.fmean(self.speeds)
        return False


def _import_workloads():
    """Import the workloads module, and fanforge with it, from this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    import fanforge

    if Path(fanforge.__file__).resolve().parent != ROOT / "src" / "fanforge":
        raise ImportError(f"fanforge was imported from {fanforge.__file__}")
    return workloads


def _env(seed: int, workload: str, trace: int) -> dict:
    # The benchmark reads no file outside its checkout, so the CPU is named
    # only as far as the platform module can without reading /proc.
    cpu = platform.processor() or platform.machine()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "fanforge").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "commit": commit,
        "src_sha256": src.hexdigest(),
    }


class Passes:
    """Runs whole passes of jobs, checking every output outside the timer."""

    def __init__(self, wl, workload, inputs, seed, golden_outputs):
        self.wl = wl
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.golden = golden_outputs
        self.times: list[float] = []  # at the reference speed
        self.wall: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.first_outputs: list = []
        self.first_digests: list = []

    def items(self):
        """The pass's fans, as fresh objects equal to the set-up ones."""
        return [(fid, self.wl.fresh(self.workload, it)) for fid, it in self.inputs]

    def job(self, k, fid, item, tracer=None) -> float:
        """Run and check one fan's job; returns its time at the reference
        speed, in seconds."""
        with ReferenceClock() as clock:
            if tracer is not None:
                tracer.fan, tracer.on = k, True
            try:
                out = self.wl.run_job(self.workload, k, fid, item, self.seed)
            except Exception:
                out = None
                traceback.print_exc()
            if tracer is not None:
                tracer.on = False
        self.times.append(clock.seconds)
        self.wall.append(clock.wall)
        self.attempted += 1
        if not self._ok(k, fid, out):
            self.failed += 1
            print(f"FAILED: {self.workload} fan {fid}", file=sys.stderr)
        return clock.seconds

    def run_pass(self, tracer=None) -> float:
        """One pass over the workload's fans; returns its job time at the
        reference speed."""
        return sum(
            self.job(k, fid, item, tracer) for k, (fid, item) in enumerate(self.items())
        )

    def _ok(self, k, fid, out) -> bool:
        """A fan's first output must pass the workload's checks and, at the
        default seed, match its golden digest.  Every later output must
        repeat the first byte for byte, which is much cheaper to check."""
        digest = None if out is None else self.wl.output_digest(self.workload, k, out)
        if k < len(self.first_digests):
            return digest is not None and digest == self.first_digests[k]
        ok = (
            digest is not None
            and self.wl.check(self.workload, out)
            and (self.golden is None or self.golden.get(fid) == digest)
        )
        self.first_outputs.append(out)
        self.first_digests.append(digest if ok else None)
        return ok


def _cli_matches(wl, passes: Passes) -> bool:
    """The per-fan verify-suite reports, concatenated, equal the reports the
    CLI prints for the whole suite."""
    from fanforge import cli

    mine = sorted(
        (r for out in passes.first_outputs for r in (out or [])),
        key=lambda r: (r.fan_id, r.theorem),
    )
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([
            "verify", "--all", "--seed", str(wl.DEFAULT_SEED),
            "--random-fans", str(wl.VERIFY_RANDOM_FANS), "--json",
        ])
    printed = json.loads(buf.getvalue())["reports"]
    return code == 0 and printed == [r.to_json_obj() for r in mine]


def run_untraced(args, wl, inputs, setup, golden):
    p = Passes(wl, args.workload, inputs, args.seed, golden)
    pass_times = []
    while not pass_times or sum(p.wall) * (1 + 1 / len(pass_times)) <= args.seconds:
        pass_times.append(p.run_pass())
    busy, n_passes = sum(p.wall), len(pass_times)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = p.failed == 0
    if golden is not None and args.workload == "verify-suite":
        cli_ok = _cli_matches(wl, p)
        print(f"cli check: {'match' if cli_ok else 'MISMATCH'}")
        correct = correct and cli_ok
    n = len(p.times)
    print(
        f"{args.workload}: {n_passes} passes, {n} jobs in {busy:.2f} s of wall "
        f"time ({sum(p.times):.2f} s at the reference speed); "
        f"p50 over {n} samples, p90 with {n - int(0.9 * n)} beyond it; "
        f"unscaled p50 {1000 * statistics.median(p.wall):.1f} ms, "
        f"p90 {1000 * statistics.quantiles(p.wall, n=10, method='inclusive')[8]:.1f} ms; "
        f"failed {p.failed}/{p.attempted}"
    )
    metrics = {
        "fans_per_s": (len(inputs) / statistics.median(pass_times), "1/s"),
        "fan_p50_ms": (1000 * statistics.median(p.times), "ms"),
        "fan_p90_ms": (
            1000 * statistics.quantiles(p.times, n=10, method="inclusive")[8], "ms"
        ),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }
    return correct, p.attempted, p.failed, metrics


def run_traced(args, wl, inputs, golden, env):
    from tracer import Tracer

    p = Passes(wl, args.workload, inputs, args.seed, golden)
    # Each fan runs untraced and traced back to back, in alternating order,
    # so that the overhead compares the two at the same machine speed.
    first, untraced, traced = Tracer(), 0.0, 0.0
    for k, ((fid, a), (_, b)) in enumerate(zip(p.items(), p.items())):
        for run_traced_job in ((False, True) if k % 2 else (True, False)):
            if run_traced_job:
                with first.installed():
                    traced += p.job(k, fid, b, first)
            else:
                untraced += p.job(k, fid, a)
    second = Tracer()
    with second.installed():
        p.run_pass(second)
    c1, c2 = first.counts(), second.counts()
    repeat = c1 == c2
    if not repeat:
        diff = {
            k: (c1.get(k), c2.get(k)) for k in set(c1) | set(c2) if c1.get(k) != c2.get(k)
        }
        print(f"counts differ between traced passes: {diff}", file=sys.stderr)
    metrics = first.metrics()
    metrics["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    first.write(path, [fid for fid, _ in inputs], env)
    print(
        f"{args.workload}: untraced jobs {untraced:.2f} s, the same jobs traced "
        f"{traced:.2f} s; counts repeat: {repeat}; "
        f"spans in {path.relative_to(ROOT)}"
    )
    return p.failed == 0 and repeat, p.attempted, p.failed, metrics


def record_golden():
    """Rewrite golden.json from one pass of each workload at the default seed."""
    wl = _import_workloads()
    import random
    from fanforge import theorems
    from fanforge.fan import fans_equal

    inputs = wl.make_inputs("verify-suite", wl.DEFAULT_SEED)
    rng = random.Random(wl.DEFAULT_SEED)
    for i, (fid, fan) in enumerate(inputs[-wl.VERIFY_RANDOM_FANS:]):
        name, ref = theorems.random_complete_fan(rng)
        if fid != f"random-{i}-{name}" or not fans_equal(fan, ref):
            raise SystemExit(f"verify-suite fan {fid} differs from the CLI's")
    golden = {}
    for workload in WORKLOADS:
        inputs = wl.make_inputs(workload, wl.DEFAULT_SEED)
        p = Passes(wl, workload, inputs, wl.DEFAULT_SEED, None)
        p.run_pass()
        if p.failed:
            raise SystemExit(f"{workload}: {p.failed} jobs failed; nothing recorded")
        golden[workload] = {
            "seed": wl.DEFAULT_SEED,
            "inputs": wl.inputs_digest(workload, inputs),
            "outputs": {
                fid: wl.output_digest(workload, k, out)
                for k, ((fid, _), out) in enumerate(zip(inputs, p.first_outputs))
            },
        }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="input seed (default 7)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite golden.json at the default seed")
    args = ap.parse_args(argv)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        with ReferenceClock() as importing:
            wl = _import_workloads()
    except ImportError as e:
        print(f"error: cannot import fanforge from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = wl.DEFAULT_SEED
    generate_s = []
    for _ in range(SETUP_SAMPLES):
        with ReferenceClock() as generating:
            inputs = wl.make_inputs(args.workload, args.seed)
        generate_s.append(generating.seconds)
    setup = importing.seconds + statistics.median(generate_s)
    golden = None
    if args.seed == wl.DEFAULT_SEED:
        pinned = json.loads(GOLDEN.read_text())[args.workload]
        if wl.inputs_digest(args.workload, inputs) != pinned["inputs"]:
            print(f"error: {args.workload} inputs at seed {args.seed} differ from "
                  "the pinned digest; refusing to report", file=sys.stderr)
            return 3
        golden = pinned["outputs"]
    env = _env(args.seed, args.workload, args.trace)
    print("env " + json.dumps(env))
    if args.trace:
        correct, attempted, failed, metrics = run_traced(args, wl, inputs, golden, env)
    else:
        correct, attempted, failed, metrics = run_untraced(
            args, wl, inputs, setup, golden
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
