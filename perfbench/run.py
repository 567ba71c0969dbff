"""geowl benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload color --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports geowl from its `src/`.  One
caller runs the workload's operations in order, each starting when the
previous one returns, and repeats the list until `--seconds` have passed
(the first pass always completes).  Every answer is checked.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`; the per-layer metrics
of a traced run with `--trace 1`).  Lines before it describe the machine
and the run.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools stay at one thread; this must precede numpy's import.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"
WORKLOADS = ("color", "search", "roundtrip")
SETUP_PROBES = 8          # fresh processes timing set-up, besides this one
SETUP_SPEED_PROBES = 5    # speed probes before and after each set-up
MIN_PASSES = 3            # untraced passes a run makes even past --seconds
TAIL_BEYOND = 10          # op executions beyond the tail percentile, over MIN_PASSES passes

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "peak_rss_mb": "MB", "slice1_s": "s", "slice2_s": "s", "slice3_s": "s",
}


class SetupError(Exception):
    """The checkout does not hold the program."""


def load_workload(name: str, seed: int, tiny: bool = False):
    """Import geowl from the checkout and build the workload's operations."""
    if not (SRC / "geowl" / "__init__.py").is_file():
        raise SetupError(f"no geowl package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import geowl
    if Path(geowl.__file__).resolve().parent != SRC / "geowl":
        raise SetupError(f"geowl was imported from {geowl.__file__}, not from {SRC}")
    import workloads
    return workloads.build(name, seed, tiny)


def setup_probe(name: str, seed: int, tiny: bool) -> float:
    """Scaled set-up time (import plus input generation) of a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else []),
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def machine_record(seed: int) -> dict:
    import numpy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(), "affinity": affinity,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(), "seed": seed,
    }


class Run:
    """Runs a workload's operations and books latencies and answers."""

    def __init__(self, work, span=None, speed=None):
        self.work = work
        self.span = span                   # Tracer.span when tracing, else None
        self.speed = speed                 # speed.Speed probing during the run, or None
        n = len(work.ops)
        self.lat = [[] for _ in range(n)]
        self.when = [[] for _ in range(n)]      # (start, end) of each latency in lat
        self.answers = [None] * n          # answer of each op in the first pass
        self.digests: list[str] = []       # exact-mode digests of the first pass
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.mismatched = 0                # answers differing from the first pass

    def run_op(self, i: int, first_pass: bool) -> None:
        op = self.work.ops[i]
        busy = self.speed.busy if self.speed is not None else 0.0
        t0 = time.perf_counter()
        try:
            if self.span is None:
                result = op.run()
            else:
                result = self.span(f"bench.op:{i}", op.run)
        except Exception as exc:  # every exception is a failed operation
            error = exc
        else:
            error = None
        t1 = time.perf_counter()
        busy = self.speed.busy - busy if self.speed is not None else 0.0
        self.lat[i].append(t1 - t0 - busy)     # without the probes that ran during the op
        self.when[i].append((t0, t1))
        if error is not None:
            status, digests, answer = "wrong", (), ("error", type(error).__name__, str(error))
        else:
            status, digests, answer = op.check(result)
        self.attempted += 1
        if first_pass:
            self.answers[i] = answer
            self.digests.extend(digests)
        elif answer != self.answers[i]:
            self.mismatched += 1
            status = "wrong"
        if status == "wrong":
            self.failed += 1
        elif status == "known-defect":
            self.known_defects += 1

    def run_pass(self, first: bool) -> float:
        """One pass over the ops; returns its wall time."""
        t0 = time.perf_counter()
        for i in range(len(self.work.ops)):
            self.run_op(i, first)
        return time.perf_counter() - t0

    def scaled(self) -> list[list[float]]:
        """Latencies times the host's speed around each (speed.Speed.around)."""
        return [[t * self.speed.around(*w) for t, w in zip(x, ws)]
                for x, ws in zip(self.lat, self.when)]

    def run_passes(self, seconds: float, min_passes: int) -> None:
        """Whole passes: at least min_passes, more while the next one fits."""
        walls = [self.run_pass(first=True)]
        while len(walls) < min_passes or sum(walls) + statistics.mean(walls) <= seconds:
            walls.append(self.run_pass(first=False))


def install_taps(work) -> list:
    saved = []
    for owner, attr, replacement in work.taps:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)
    return saved


def remove_taps(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def tail(lat: list[list[float]]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND of the op
    executions of the first MIN_PASSES passes beyond it.

    The percentile is read in each pass, with ceil(TAIL_BEYOND / MIN_PASSES)
    executions beyond it, and the median over the passes is reported: a
    slow spell of the host in one pass then does not set the tail.
    Returns the value, the percentile and the executions beyond it in all.
    """
    beyond = -(-TAIL_BEYOND // MIN_PASSES)
    rank = max(len(lat) - beyond, 1)
    per_pass = [sorted(x[p] for x in lat)[rank - 1] for p in range(MIN_PASSES)]
    return statistics.median(per_pass), 100.0 * rank / len(lat), beyond * MIN_PASSES


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run of whole passes.

    Every latency is scaled by the host's speed during it (speed.py), so
    the timings are seconds at the probe's reference speed.  wall_s and the
    slices add up, over one pass's ops, each op's median latency across the
    passes.  op_p50_s and op_tail_s are taken over the op executions of the
    first MIN_PASSES passes: a fixed sample count keeps the tail at the same
    percentile when a faster program fits more passes.
    """
    lat = run.scaled()
    per_op = [statistics.median(x) for x in lat]
    slices = {s: 0.0 for s in ("slice1", "slice2", "slice3")}
    for op, t in zip(run.work.ops, per_op):
        slices[op.slice] += t
    samples = [t for x in lat for t in x[:MIN_PASSES]]
    tail_value, tail_pct, beyond = tail(lat)
    values = {
        "setup_s": setup_s,
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{f"{s}_s": t for s, t in slices.items()},
    }
    info = {"ops": len(per_op), "samples": len(samples), "tail_percentile": tail_pct,
            "tail_beyond": beyond, "passes_min": min(len(x) for x in run.lat),
            "passes_max": max(len(x) for x in run.lat),
            "probes": len(run.speed.probes),
            "raw_wall_s": sum(statistics.median(x) for x in run.lat)}
    return values, info


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def check_pin(work, run: Run, write: bool) -> str:
    """Compare the first pass's exact digests with the pinned hash."""
    combined = combined_digest(run.digests)
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    key = "*" if work.pin_any_seed else str(work.seed)
    if write:
        if run.failed:
            raise SystemExit("refusing to pin digests of a run with failures")
        pins.setdefault(work.name, {})[key] = combined
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        return f"pinned {combined}"
    pinned = pins.get(work.name, {}).get(key)
    if pinned is None:
        return f"not pinned for seed {work.seed}"
    if pinned != combined:
        # the digests cannot be told apart per op, so every op that
        # contributed one counts as failed
        run.failed += sum(1 for a in run.answers if a is not None)
        return f"MISMATCH: pinned {pinned}, got {combined}"
    return "match"


def traced(work, seconds: float, untraced: Run):
    """Traced passes after an untraced one.

    Returns the traced Run, the per-layer metrics, the number of answers
    that differ from the untraced pass, and notes for the report.
    """
    import tracer as tracing
    tr = tracing.Tracer()
    run = Run(work, span=tr.span)
    per_pass, walls, op_time = [], [], []
    tr.install()
    try:
        # whole traced passes, as many as fit in the run's time after the untraced one
        while not walls or sum(walls) + statistics.mean(walls) <= seconds:
            lo, counts0 = len(tr.spans), dict(tr.counts)
            walls.append(run.run_pass(first=not walls))
            op_time.append(sum(x[-1] for x in run.lat))
            counts = {k: v - counts0.get(k, 0) for k, v in tr.counts.items()}
            m = tracing.layer_metrics(tr.spans[lo:], lo, counts)
            m["trace.spans"] = len(tr.spans) - lo
            per_pass.append(m)
    finally:
        restored = tr.restore()
    if not tracing.originals_in_place(restored):
        raise RuntimeError("tracing wrappers were not removed")
    metrics = {k: statistics.median(m[k] for m in per_pass)
               for k in tracing.PER_LAYER_UNITS if k != "trace.overhead_s"}
    metrics["trace.overhead_s"] = statistics.median(op_time) - sum(x[0] for x in untraced.lat)
    disagree = sum(1 for a, b in zip(untraced.answers, run.answers) if a != b)
    if untraced.digests != run.digests:
        disagree = max(disagree, 1)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{work.name}-seed{work.seed}.json"
    out.write_text(json.dumps({
        "workload": work.name, "seed": work.seed,
        "ops": [op.label for op in work.ops],
        "fields": ["name", "start", "end", "parent"], "spans": tr.spans}))
    self_time = tracing.span_totals(tr.spans, 0)[2]
    top = sorted(((t, name) for name, t in self_time.items()
                  if not name.startswith("bench.")), reverse=True)[:5]
    notes = [f"traced passes {len(walls)}; spans written to {out.relative_to(ROOT)}",
             "top self time over all traced passes: "
             + ", ".join(f"{name} {t:.3f} s" for t, name in top)]
    return run, metrics, disagree, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit")
    p.add_argument("--write-pin", action="store_true",
                   help="record this run's exact-digest hash in pins.json")
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes; digests are not pinned")
    args = p.parse_args(argv)

    # set-up is scaled by probes taken just before and just after it
    setup_speed = speed.Speed()
    for _ in range(SETUP_SPEED_PROBES):
        setup_speed.sample()
    t0 = time.perf_counter()
    try:
        work = load_workload(args.workload, args.seed, args.tiny)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_raw = time.perf_counter() - t0
    for _ in range(SETUP_SPEED_PROBES):
        setup_speed.sample()
    setup_here = setup_raw * setup_speed.scale()
    if args.setup_only:
        print(setup_here)
        return 0

    print(f"# geowl benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(machine_record(args.seed), sort_keys=True))
    setups = [setup_here]
    if not args.trace:
        setups += [setup_probe(args.workload, args.seed, args.tiny)
                   for _ in range(SETUP_PROBES)]

    saved = install_taps(work)
    try:
        gc.collect()
        if args.trace:
            run = Run(work)
            traced_seconds = args.seconds - run.run_pass(first=True)
        else:
            run = Run(work, speed=speed.Speed())
            run.speed.sample()
            with run.speed:
                run.run_passes(args.seconds, MIN_PASSES)
        pin = "skipped at smoke-test sizes" if args.tiny else check_pin(work, run, args.write_pin)
        if args.trace:
            trun, metrics, disagree, notes = traced(work, traced_seconds, run)
    finally:
        remove_taps(saved)

    if args.trace:
        attempted = run.attempted + trun.attempted
        failed = run.failed + trun.failed + disagree
        known = trun.known_defects
        units = sys.modules["tracer"].PER_LAYER_UNITS
        for note in notes:
            print(f"# {note}")
        print(f"# traced answers and digests "
              f"{'agree with' if not disagree else 'DIFFER from'} untraced ones")
    else:
        metrics, info = end_to_end(run, statistics.median(setups))
        units = END_TO_END_UNITS
        attempted, failed, known = run.attempted, run.failed, run.known_defects
        aliases = sys.modules["workloads"].SLICE_NAMES[args.workload]
        print(f"# ops {info['ops']}, passes {info['passes_min']}-{info['passes_max']}; "
              f"op_tail_s is p{info['tail_percentile']:.1f} of each of the first "
              f"{MIN_PASSES} passes, median over them ({info['samples']} op executions, "
              f"{info['tail_beyond']} beyond)")
        print("# slices: " + ", ".join(f"{k}_s = {v}_s" for k, v in aliases.items()))
        print(f"# set-up samples (scaled): {', '.join(f'{s:.4f}' for s in setups)}; "
              f"this process's unscaled: {setup_raw:.4f}")
        print(f"# {info['probes']} speed probes (reference probe {speed.REF_S} s); "
              f"unscaled wall_s {info['raw_wall_s']:.4f}")
    print(f"# exact-digest pin: {pin}")
    print(f"# fail_ratio {failed / attempted:.4f} ({failed} of {attempted} operations; "
          f"{run.mismatched} answers changed between passes)")
    if known:
        print(f"# known defect (ROADMAP item 5): {known} executions of float x1000 "
              f"isometric pairs compared 'different'")
    for name, value in metrics.items():
        print(f"{name:<36} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
