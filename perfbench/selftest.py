"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

For every workload, runs `run.py --tiny` untraced and traced and checks that
the result line names exactly the metrics of BENCHMARK.json with their
units and that every answer was correct.  Then, in this process, runs one
untraced and one traced pass per workload and checks that the traced
answers and digests equal the untraced ones and that every function the
tracer or a workload tap replaced is back in place afterwards.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_result_line(workload: str, trace: int) -> None:
    out = subprocess.run(
        [sys.executable, str(Path(bench.__file__)), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, "
             f"units {[k for k in got if k in expected and got[k] != expected[k]]}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
    for name, m in result["metrics"].items():
        print(f"  {workload:<9} {name:<36} {m['value']:.6g} {m['unit']}")


def check_in_process(workload: str) -> None:
    work = bench.load_workload(workload, 3, tiny=True)
    import tracer as tracing
    sites = [(o, a) for o, a, *_ in tracing.BINDINGS] + [(o, a) for o, a, _ in work.taps]
    before = {(id(o), a): vars(o)[a] for o, a in sites}
    saved = bench.install_taps(work)
    try:
        untraced = bench.Run(work)
        untraced.run_pass(first=True)
        traced_run, _, disagree, _ = bench.traced(work, 0, untraced)
    finally:
        bench.remove_taps(saved)
    if disagree or untraced.failed or traced_run.failed:
        fail(f"{workload}: traced and untraced answers differ or fail")
    moved = [a for o, a in sites if vars(o)[a] is not before[(id(o), a)]]
    if moved:
        fail(f"{workload}: replaced functions not restored: {moved}")
    print(f"  {workload:<9} traced answers equal untraced; {len(sites)} sites restored")


def main() -> int:
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            check_result_line(workload, trace)
    for workload in bench.WORKLOADS:
        check_in_process(workload)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
