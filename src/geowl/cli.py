"""Command-line surface: gen, color, compare, roundtrip, search.

Exit codes: 0 success, 1 verification failure, 2 parse or validation error,
3 resource cap exceeded, 141 (128 + SIGPIPE, as a shell reports a writer
killed by a closed pipe) when the reader of stdout goes away early.  All
output is deterministic for a fixed input and seed; the GEOWL_SEED
environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

from . import oracle, wl
from .cloudfile import cloud_to_json, load_cloud, save_cloud
from .config import RunConfig, default_seed
from .errors import CapExceededError, GeowlError
from .report import reconstruct

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_CAP_EXCEEDED = 3
EXIT_BROKEN_PIPE = 141


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# RunConfig field -> (flags, argparse keywords); each subcommand declares the ones it reads.
# Defaults are RunConfig's, but --seed's None, which `_config_from` reads as GEOWL_SEED or 0.
_RUN_OPTIONS = {
    "ell": (("--ell",), dict(type=int, help="tuple dimension of the coloring")),
    "iters": (("--iters",), dict(type=int, help="number of refinement iterations")),
    "mode": (("--mode",), dict(choices=("exact", "float"),
                               help="arithmetic mode (default: exact for rational inputs; "
                                    "wlnd runs exact only, reading floats as their exact "
                                    "values, and rejects float)")),
    "tol": (("--tol",), dict(type=float,
                             help="numerical tolerance: the float-mode distance snap, and "
                                  "the rank and ranking tolerance of every algorithm")),
    "seed": (("--seed",), dict(type=int, default=None,
                               help="random seed (default: GEOWL_SEED or 0)")),
    "jobs": (("--jobs",), dict(type=int, help="parallelism for inner maps")),
    "max_tuples": (("--max-tuples",), dict(type=int)),
    "max_candidates": (("--max-candidates",), dict(type=int)),
    "max_depth": (("--max-depth",), dict(type=int)),
}
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _add_run_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name, (flags, kwargs) in _RUN_OPTIONS.items():
        if name in names:
            p.add_argument(*flags, **{"default": _DEFAULTS[name], **kwargs})
    p.add_argument("-o", "--out", default=None, help="write the JSON result to a file")


def _config_from(args) -> RunConfig:
    """A RunConfig from the run options the subcommand declares; the rest keep defaults."""
    given = {name: getattr(args, name) for name in _RUN_OPTIONS if hasattr(args, name)}
    if "seed" in given and given["seed"] is None:
        given["seed"] = default_seed()
    return RunConfig(**given)


def cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    cloud = oracle.random_cloud(args.n, args.d, seed, grid=args.grid, span=args.span)
    if args.out:
        save_cloud(cloud, args.out)
    else:
        _emit(cloud_to_json(cloud), None)
    return EXIT_OK


def cmd_color(args) -> int:
    cloud = load_cloud(args.cloud)
    cfg = _config_from(args)
    store = wl.run_wl(cloud, cfg.ell, cfg.iters, mode=cfg.mode, snap=cfg.tol,
                      max_tuples=cfg.max_tuples)
    for t, count in enumerate(store.class_counts()):
        sys.stdout.write(f"iteration {t}: {count} color classes\n")
    fp = wl.fingerprint(store)
    sys.stdout.write(f"fingerprint digest: {fp.digest()}\n")
    _emit(fp.to_json(), args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    a = load_cloud(args.cloud_a)
    b = load_cloud(args.cloud_b)
    if a.dim != b.dim:
        sys.stderr.write(f"error: dimension mismatch ({a.dim} vs {b.dim})\n")
        return EXIT_PARSE_ERROR
    cfg = _config_from(args)
    mode = cfg.mode or ("exact" if a.exact and b.exact else "float")
    interner = wl.Interner(mode, cfg.tol)
    sa = wl.run_wl(a, cfg.ell, cfg.iters, mode=mode, snap=cfg.tol,
                   interner=interner, max_tuples=cfg.max_tuples)
    sb = wl.run_wl(b, cfg.ell, cfg.iters, mode=mode, snap=cfg.tol,
                   interner=interner, max_tuples=cfg.max_tuples)
    first = wl.first_distinguishing_iteration(sa, sb)
    if first is None:
        sys.stdout.write("equal-fingerprints\n")
    else:
        sys.stdout.write(f"different (first distinguishing iteration: {first})\n")
    _emit({"verdict": "equal-fingerprints" if first is None else "different",
           "first_distinguishing_iteration": first,
           "ell": cfg.ell, "iters": cfg.iters, "mode": mode}, args.out)
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    cloud = load_cloud(args.cloud)
    cfg = _config_from(args)
    try:
        report = reconstruct(cloud, args.algorithm, cfg)
    except CapExceededError:
        raise
    except GeowlError as exc:
        sys.stderr.write(f"reconstruction failed: {exc}\n")
        return EXIT_VERIFY_FAILED
    alignment = report.alignment
    residual = alignment.residual if alignment else None
    sys.stdout.write(f"method: {report.method}\n")
    for key in ("rounds", "depth", "candidates_tried"):
        if key in report.counters and report.counters[key] is not None:
            sys.stdout.write(f"{key}: {report.counters[key]}\n")
    sys.stdout.write("verified: " + ("yes" if report.verified else "no") + "\n")
    if residual is not None:
        sys.stdout.write(f"residual: {residual:.3e}\n")
    doc = {
        "algorithm": args.algorithm,
        "method": report.method,
        "verified": report.verified,
        "residual": residual,
        "counters": report.counters,
        "recovered": cloud_to_json(report.cloud),
    }
    if alignment is not None:
        doc["alignment"] = {
            "matrix": [list(row) for row in alignment.matrix],
            "translation": list(alignment.translation),
            "permutation": list(alignment.permutation),
            "residual": alignment.residual,
        }
    _emit(doc, args.out)
    return EXIT_OK if report.verified else EXIT_VERIFY_FAILED


def _search_shard(params) -> list[dict]:
    ell, iters, d, n, budget, seed, lo, hi = params
    return oracle.search_indistinguishable(ell, iters, d, n, budget, seed,
                                           trials=range(lo, hi))


def cmd_search(args) -> int:
    cfg = _config_from(args)
    budget = args.budget
    if cfg.jobs > 1 and budget > 1:
        bounds = [(i * budget) // cfg.jobs for i in range(cfg.jobs + 1)]
        shards = [(cfg.ell, cfg.iters, args.d, args.n, budget, cfg.seed, lo, hi)
                  for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        with ProcessPoolExecutor(max_workers=min(len(shards), os.cpu_count() or 1)) as pool:
            findings = [f for part in pool.map(_search_shard, shards) for f in part]
    else:
        findings = oracle.search_indistinguishable(cfg.ell, cfg.iters, args.d,
                                                   args.n, budget, cfg.seed)
    sys.stdout.write(f"findings: {len(findings)}\n")
    _emit({"params": {"ell": cfg.ell, "iters": cfg.iters, "d": args.d, "n": args.n,
                      "budget": budget, "seed": cfg.seed},
           "findings": findings}, args.out)
    return EXIT_OK


COLOR_OPTIONS = ("ell", "iters", "mode", "tol", "max_tuples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geowl",
        description="Distance-based tuple colorings of point clouds and "
                    "isometry-complete reconstruction from them")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random rational cloud")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", type=int, default=8, help="coordinate denominator")
    p.add_argument("--span", type=int, default=4, help="coordinate range half-width")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("color", help="run the coloring and emit the fingerprint")
    p.add_argument("cloud")
    _add_run_options(p, *COLOR_OPTIONS)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("compare", help="compare the fingerprints of two clouds")
    p.add_argument("cloud_a")
    p.add_argument("cloud_b")
    _add_run_options(p, *COLOR_OPTIONS)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("roundtrip", help="reconstruct a cloud from its coloring "
                                         "and verify against the original")
    p.add_argument("cloud")
    p.add_argument("--algorithm", choices=("wl2d", "wlnd", "oneshot"), required=True)
    _add_run_options(p, "mode", "tol", "max_tuples", "max_candidates", "max_depth")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("search", help="search for equal-fingerprint non-isometric pairs")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=100)
    _add_run_options(p, "ell", "iters", "seed", "jobs")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # `geowl ... | head`: send what is left to devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP_EXCEEDED
    except (ValueError, OSError, json.JSONDecodeError, GeowlError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
