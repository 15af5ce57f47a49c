"""Quick self-check of the benchmark.

    python3 bench/selfcheck.py

Runs one small item per workload in both trace modes and checks that every
metric BENCHMARK.json names is printed with its unit, that no item fails,
and that the benchmark refuses to run without the package sources.  It takes
a few seconds and is not part of the repository's test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import workloads  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck failed: {what}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads the benchmark runs")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in workloads.WORKLOADS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                result = run.run(w, seed=1, seconds=0.1, trace=trace, quick=True)
            printed = out.getvalue()
            where = f"{w}, trace {int(trace)}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: every item passes its check")
            expect("error_rate 0 " in printed, f"{where}: error_rate 0 is printed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
            for name, unit in want.items():
                expect(any(line.startswith(f"  {name} = ") and f" {unit}" in line
                           for line in printed.splitlines()),
                       f"{where}: {name} is printed with unit {unit}")
            json.loads(json.dumps(result))
    run.SRC_DIR = os.path.join(BENCH_DIR, "no-such-dir")
    with contextlib.redirect_stderr(io.StringIO()):
        rc = run.main(["--workload", "suites", "--seed", "1", "--seconds", "1"])
    expect(rc == 2, "a checkout without sources exits with code 2")
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
