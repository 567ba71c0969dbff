"""Every workload, untraced and traced, in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs `run.py` in a fresh process per workload and mode (peak memory is per
process) and prints the end-to-end metrics, fail_ratio and the per-layer
metrics of the traced runs, one column per workload, with units.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("color", "search", "roundtrip")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results = {(w, t): run_one(w, args.seed, args.seconds, t)
               for t in (0, 1) for w in WORKLOADS}

    head = f"{'metric':<36} {'unit':<6}" + "".join(f"{w:>14}" for w in WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        print(f"\n{section} ({'traced' if trace else 'untraced'} run, seed {args.seed})")
        print(head)
        for m in spec[section]:
            row = "".join(f"{results[w, trace]['metrics'][m['name']]['value']:>14.6g}"
                          for w in WORKLOADS)
            print(f"{m['name']:<36} {m['unit']:<6}{row}")
        row = "".join(f"{results[w, trace]['failed'] / results[w, trace]['attempted']:>14.4f}"
                      for w in WORKLOADS)
        print(f"{'fail_ratio':<36} {'ratio':<6}{row}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
