"""Command-line surface: gen, color, compare, roundtrip, search.

Exit codes: 0 success, 1 verification failure, 2 parse or validation error,
3 resource cap exceeded.  All output is deterministic for a fixed input and
seed; the GEOWL_SEED environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import oracle, recon2d, recon_nd, oneshot, wl
from .cloudfile import cloud_to_json, load_cloud, save_cloud
from .config import (DEFAULT_MAX_CANDIDATES, DEFAULT_MAX_DEPTH, DEFAULT_MAX_TUPLES,
                     DEFAULT_TOL, RunConfig, default_seed)
from .errors import CapExceededError, GeowlError
from .geometry import PointCloud

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_CAP_EXCEEDED = 3


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _add_run_options(p: argparse.ArgumentParser, *, ell=True, iters=True) -> None:
    if ell:
        p.add_argument("--ell", type=int, default=1, help="tuple dimension of the coloring")
    if iters:
        p.add_argument("--iters", type=int, default=3, help="number of refinement iterations")
    p.add_argument("--mode", choices=("exact", "float"), default=None,
                   help="arithmetic mode (default: exact for rational inputs)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="float-mode tolerance")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: GEOWL_SEED or 0)")
    p.add_argument("--jobs", type=int, default=1, help="parallelism for inner maps")
    p.add_argument("--max-tuples", type=int, default=DEFAULT_MAX_TUPLES)
    p.add_argument("--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES)
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.add_argument("-o", "--out", default=None, help="write the JSON result to a file")


def _config_from(args, ell=None, iters=None) -> RunConfig:
    return RunConfig(
        ell=ell if ell is not None else getattr(args, "ell", 1),
        iters=iters if iters is not None else getattr(args, "iters", 3),
        mode=args.mode,
        tol=args.tol,
        seed=args.seed if args.seed is not None else default_seed(),
        jobs=args.jobs,
        max_tuples=args.max_tuples,
        max_candidates=args.max_candidates,
        max_depth=args.max_depth,
    )


def _run_store(cloud: PointCloud, cfg: RunConfig, ell: int, iters: int,
               interner: wl.Interner | None = None) -> wl.ColorStore:
    return wl.run_wl(cloud, ell, iters, mode=cfg.mode, snap=cfg.tol,
                     interner=interner, max_tuples=cfg.max_tuples)


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
    store = _run_store(cloud, cfg, cfg.ell, cfg.iters)
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


def _roundtrip_report(cloud: PointCloud, algorithm: str, cfg: RunConfig):
    if algorithm == "wl2d":
        if cloud.dim != 2:
            raise ValueError("wl2d needs a two-dimensional cloud")
        store = _run_store(cloud, cfg, 1, max(cfg.iters, 3))
        res = recon2d.reconstruct_planar(store, tol=cfg.tol)
        counters = {"rounds": res.rounds, "round_bound": res.round_bound,
                    "alpha": res.alpha}
        return res.cloud, "wl2d", counters
    if algorithm == "wlnd":
        if cloud.dim < 3:
            raise ValueError("wlnd needs dimension at least 3")
        store = _run_store(cloud, cfg, cloud.dim - 1, max(cfg.iters, 3))
        report = recon_nd.reconstruct_nd(store, tol=cfg.tol,
                                         samples=cfg.select_samples, seed=cfg.seed,
                                         max_depth=cfg.max_depth,
                                         verify_snap=cfg.verify_snap)
        return report.cloud, report.method, report.counters
    if algorithm == "oneshot":
        store = _run_store(cloud, cfg, cloud.dim, 1)
        report = oneshot.reconstruct_one_iter(store, tol=cfg.tol,
                                              cap=cfg.max_candidates)
        return report.cloud, report.method, report.counters
    raise ValueError(f"unknown algorithm {algorithm!r}")


def cmd_roundtrip(args) -> int:
    cloud = load_cloud(args.cloud)
    cfg = _config_from(args)
    try:
        recovered, method, counters = _roundtrip_report(cloud, args.algorithm, cfg)
    except CapExceededError:
        raise
    except GeowlError as exc:
        sys.stderr.write(f"reconstruction failed: {exc}\n")
        return EXIT_VERIFY_FAILED
    alignment = oracle.is_isometric(recovered, cloud, tol=1e-6)
    verified = alignment is not None
    residual = alignment.residual if alignment else None
    sys.stdout.write(f"method: {method}\n")
    for key in ("rounds", "depth", "candidates_tried"):
        if key in counters and counters[key] is not None:
            sys.stdout.write(f"{key}: {counters[key]}\n")
    sys.stdout.write("verified: " + ("yes" if verified else "no") + "\n")
    if residual is not None:
        sys.stdout.write(f"residual: {residual:.3e}\n")
    doc = {
        "algorithm": args.algorithm,
        "method": method,
        "verified": verified,
        "residual": residual,
        "counters": counters,
        "recovered": cloud_to_json(recovered),
    }
    if alignment is not None:
        doc["alignment"] = {
            "matrix": [list(row) for row in alignment.matrix],
            "translation": list(alignment.translation),
            "permutation": list(alignment.permutation),
            "residual": alignment.residual,
        }
    _emit(doc, args.out)
    return EXIT_OK if verified else EXIT_VERIFY_FAILED


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
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            findings = [f for part in pool.map(_search_shard, shards) for f in part]
    else:
        findings = oracle.search_indistinguishable(cfg.ell, cfg.iters, args.d,
                                                   args.n, budget, cfg.seed)
    sys.stdout.write(f"findings: {len(findings)}\n")
    _emit({"params": {"ell": cfg.ell, "iters": cfg.iters, "d": args.d, "n": args.n,
                      "budget": budget, "seed": cfg.seed},
           "findings": findings}, args.out)
    return EXIT_OK


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
    _add_run_options(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("compare", help="compare the fingerprints of two clouds")
    p.add_argument("cloud_a")
    p.add_argument("cloud_b")
    _add_run_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("roundtrip", help="reconstruct a cloud from its coloring "
                                         "and verify against the original")
    p.add_argument("cloud")
    p.add_argument("--algorithm", choices=("wl2d", "wlnd", "oneshot"), required=True)
    _add_run_options(p, ell=False)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("search", help="search for equal-fingerprint non-isometric pairs")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=100)
    _add_run_options(p, iters=True)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP_EXCEEDED
    except (ValueError, OSError, json.JSONDecodeError, GeowlError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
