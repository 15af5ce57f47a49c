"""Benchmark of the mulam workbench.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one thread and one process at a time, in a closed loop: each
item starts when the previous one returns.  A pass runs every item of the
workload once.  Every item's output is checked outside the timed region.

``--trace 0`` runs each pass in a fresh interpreter, pass p with the inputs
of seed + p, until one more pass would end after ``--seconds`` (at least one
pass).  It prints the end-to-end metrics: the median pass time, set-up time
(import and input building in a fresh interpreter, median of several) and
the median of the passes' peak memory.  ``--trace 1`` repeats the seed's
pass in this process, first untraced and then under the profiler, and
prints the per-layer metrics with the tracing overhead.  The last line of
output is one JSON object; the lines before it say the same for a reader.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

SETUP_REPEATS = 15
# The host's speed drifts by tens of percent over minutes.  End-to-end times
# are therefore scaled by how fast a fixed reference loop runs at the same
# time, to seconds at the speed where it takes REF_NOMINAL_S.  One timing of
# the reference (about 40 ms) stands for the set-up right before it, in the
# same interpreter.  It is too short to stand for the seconds an item takes,
# and scaling items one by one would add its noise to theirs, so pass times
# are scaled by the run's median of the timings made around every item.  Raw
# times are printed too.
REF_LOOPS = 150_000
REF_REPEATS = 3
REF_NOMINAL_S = 0.010
# Share of a traced run spent on the untraced passes it is compared with.
UNTRACED_SHARE = 0.3

# Set-up as a user pays it: a fresh interpreter imports the package (the
# command line imports every module) and builds one pass of inputs.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import mulam.cli
import workloads
workloads.{build}(sys.argv[3], int(sys.argv[4]))
setup = time.perf_counter() - t0
from run import reference_s
print(setup, reference_s())
"""

# An untraced pass runs in a fresh interpreter, as `mulam` runs for a user.
# Its peak memory is then that pass's own, so one heavy seed of the property
# suites moves a single pass of a run and not the run's median.
_PASS_CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
print(json.dumps(run.child_pass(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")))
"""

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


class Tally:
    """Items attempted and failed, with the names of the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOPS):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(items, tally: Tally, tracer=None) -> tuple[float, list[float]]:
    """Run each item once.  Return the summed time of the items' calls and
    the reference timings made before the first item and after each one."""
    raw = 0.0
    refs = [reference_s()]
    for item in items:
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception as e:  # a failed item is counted, and the run goes on
                out = e
            dt = time.perf_counter() - t0
        refs.append(reference_s())
        raw += dt
        tally.attempted += 1
        if isinstance(out, Exception) or not item.check(out):
            tally.failures.append(f"{item.name}: {out!r}"[:200])
    return raw, refs


def repeat_passes(run_one, seconds: float) -> list:
    """Results of ``run_one(p)`` for p = 0, 1, ..., stopping when one more
    pass of average length would end after ``seconds``."""
    passes: list = []
    start = time.perf_counter()
    while True:
        passes.append(run_one(len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _child(code: str, *args) -> str:
    """Run ``code`` in a fresh interpreter and wait for it; return its output.
    Byte code may be written, as an installed package would have it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, "-c", code, SRC_DIR, BENCH_DIR, *map(str, args)],
        capture_output=True, text=True, timeout=170, check=True, env=env,
    )
    return proc.stdout


def child_pass(workload: str, seed: int, quick: bool) -> dict:
    """One untraced pass in this interpreter, as the parent run reads it."""
    import workloads

    tally = Tally()
    build = workloads.build_quick if quick else workloads.build
    raw, refs = run_pass(build(workload, seed), tally)
    return {"raw": raw, "refs": refs, "attempted": tally.attempted,
            "failures": tally.failures,
            "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure_setup(workload: str, seed: int, quick: bool) -> list[tuple[float, float]]:
    """(raw, scaled) set-up times of fresh interpreters.  The first one is
    not counted: it may compile the sources, and writes the byte code that
    the others load."""
    code = _SETUP_CHILD.format(build="build_quick" if quick else "build")
    out = []
    for _ in range(1 + (1 if quick else SETUP_REPEATS)):
        raw, ref = map(float, _child(code, workload, seed).split())
        out.append((raw, raw * REF_NOMINAL_S / ref))
    return out[1:]


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} max={max(values):.6g}"


def _median(pairs, i: int) -> float:
    return statistics.median(p[i] for p in pairs)


def untraced(workload: str, seed: int, seconds: float, quick: bool):
    setups = measure_setup(workload, seed, quick)
    passes = repeat_passes(
        lambda p: json.loads(_child(_PASS_CHILD, workload, seed + p, int(quick))), seconds)
    tally = Tally()
    for p in passes:
        tally.attempted += p["attempted"]
        tally.failures += p["failures"]
    raw = [p["raw"] for p in passes]
    ref = statistics.median(r for p in passes for r in p["refs"])
    scale = REF_NOMINAL_S / ref
    values = {"wall_s": statistics.median(raw) * scale, "setup_s": _median(setups, 1),
              "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes)}
    notes = {"wall_s": (f"raw {statistics.median(raw):.6g} s; {_spread(raw)}; "
                        f"reference {ref * 1000:.4g} ms, scale {scale:.4g}"),
             "setup_s": f"raw {_median(setups, 0):.6g} s; {_spread([p[1] for p in setups])}",
             "peak_rss_mib": _spread([p["rss_mib"] for p in passes])}
    return tally, values, dict(END_TO_END), notes


def traced(build, workload: str, seed: int, seconds: float):
    import layers

    tally = Tally()
    # Every pass of a traced run repeats the seed's inputs, so the traced and
    # untraced passes do the same work and the counts of each pass agree.
    start = time.perf_counter()
    items = build(workload, seed)
    plain = repeat_passes(lambda p: run_pass(items, tally), seconds * UNTRACED_SHARE)
    per_pass: list[dict] = []
    traced_passes: list[tuple[float, list[float]]] = []
    while not per_pass or (time.perf_counter() - start
                           + _median(traced_passes, 0) <= seconds):
        tracer = layers.Tracer()
        traced_passes.append(run_pass(items, tally, tracer))
        per_pass.append(layers.pass_metrics(tracer.profile, tracer.counters))
    units = dict(layers.METRICS)
    values = {}
    for name, unit in layers.METRICS:
        if name.startswith("trace."):
            continue
        if unit == "s":
            values[name] = statistics.median(m[name] for m in per_pass)
        else:
            values[name] = per_pass[0][name]
    values["trace.wall_s"] = _median(traced_passes, 0)
    values["trace.untraced_wall_s"] = _median(plain, 0)
    values["trace.overhead"] = values["trace.wall_s"] / values["trace.untraced_wall_s"]
    counts_repeat = all(
        m[name] == per_pass[0][name] for m in per_pass for name, unit in layers.METRICS
        if unit != "s" and not name.startswith("trace."))
    notes = {name: "" for name in units}
    notes["trace.wall_s"] = _spread([p[0] for p in traced_passes])
    notes["trace.untraced_wall_s"] = _spread([p[0] for p in plain])
    notes["trace.overhead"] = f"counts repeat across {len(per_pass)} traced passes: {counts_repeat}"
    return tally, values, units, notes


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """One benchmark run; returns the result object and prints the report."""
    if trace:
        import workloads

        build = workloads.build_quick if quick else workloads.build
        tally, values, units, notes = traced(build, workload, seed, seconds)
    else:
        tally, values, units, notes = untraced(workload, seed, seconds, quick)
    failed = len(tally.failures)
    for line in tally.failures:
        print(f"FAILED {line}")
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"error_rate {failed / tally.attempted:.6g} ({failed} of {tally.attempted} items)")
    for name, value in values.items():
        print(f"  {name} = {value!r} {units[name]}  {notes[name]}".rstrip())
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    if not os.path.isfile(os.path.join(SRC_DIR, "mulam", "__init__.py")):
        print(f"error: no mulam sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
