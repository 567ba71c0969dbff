"""Workload definitions: each builds a fixed list of operations from a seed.

A workload is a list of `Op`s.  `Op.run` is the timed call and goes through
geowl's public functions by module attribute (so the traced run's wrappers
see it); `Op.check` runs untimed afterwards and judges the answer.

Clouds come from a fixed corpus: shapes from `oracle.random_cloud` and
poses from `oracle.apply_random_isometry`, both with corpus seeds.  The run
seed draws the order in which each cloud lists its points.  Every seed thus
poses the same problems at the same cost (the size of a pose's rational
denominators alone moves exact coloring time by up to a third), while the
inputs and the interner's id assignment change with the seed.  Exact
fingerprints do not depend on the point order, which makes the pinned
digests of `color` and `roundtrip` valid for every seed.  `search` draws its
clouds inside `oracle.search_indistinguishable` from the run seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from geowl import oneshot, oracle, recon2d, recon_nd, wl
from geowl.config import RunConfig
from geowl.geometry import PointCloud

OK, WRONG, KNOWN_DEFECT = "ok", "wrong", "known-defect"

# bound at import, before any tracing wrapper, so that answer checks (which
# run outside the timed call) leave no spans
_fingerprint = wl.fingerprint

# End-to-end slice metric -> what it covers, per workload.
SLICE_NAMES = {
    "color": {"slice1": "ell1", "slice2": "ell2", "slice3": "ell3"},
    "search": {"slice1": "ell1", "slice2": "ell2", "slice3": "ell3"},
    "roundtrip": {"slice1": "wl2d", "slice2": "wlnd", "slice3": "oneshot"},
}


@dataclass
class Op:
    slice: str                       # "slice1" | "slice2" | "slice3"
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, tuple[str, ...], tuple]]
    # check(result) -> (status, exact-mode digests, answer summary)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    taps: list                       # (owner, attr, replacement) installed while measuring
    pin_any_seed: bool               # exact digests are the same for every seed


def _posed(shape: PointCloud, k: int, role: int, seed: int) -> PointCloud:
    """Corpus pose k of the shape, points listed in an order drawn from seed."""
    cloud = oracle.apply_random_isometry(shape, 7000 + 2 * k + role)
    points = list(cloud.points)
    random.Random(seed * 1_000_003 + k * 7919 + role).shuffle(points)
    return PointCloud(dim=cloud.dim, points=tuple(points), label=cloud.label)


def _moved(cloud: PointCloud, step: Fraction = Fraction(1, 8)) -> PointCloud:
    """The cloud with its first point shifted by one grid step along an axis."""
    pts = list(cloud.points)
    taken = set(pts)
    for axis in range(cloud.dim):
        for mult in (1, -1, 2, -2):
            p = list(pts[0])
            p[axis] += mult * step
            if tuple(p) not in taken:
                pts[0] = tuple(p)
                return PointCloud(dim=cloud.dim, points=tuple(pts), label=cloud.label)
    raise ValueError("no free grid position next to the first point")


def _float_copy(cloud: PointCloud, scale: int) -> PointCloud:
    return PointCloud(dim=cloud.dim, points=tuple(tuple(float(c) * scale for c in p)
                                                  for p in cloud.points))


# -- color ------------------------------------------------------------------

# (slice, ell, d, n, partner, float scale or None); the shape is the corpus
# cloud of its (d, n), so float copies share the exact clouds' shapes
COLOR_PLAN = (
    [("slice1", 1, 2, 150, "image", None), ("slice1", 1, 2, 150, "moved", None)]
    + [("slice1", 1, 3, 150, "image", scale) for scale in (None, 1, 1000)]
    + [("slice2", 2, 3, 40, "image", None), ("slice2", 2, 3, 44, "moved", None)]
    + [("slice3", 3, 4, n, p, None) for n, p in ((10, "image"), (10, "moved"),
                                                  (11, "moved"), (12, "image"),
                                                  (13, "moved"), (14, "image"))]
)


def _color_op(sl: str, ell: int, d: int, n: int, partner: str, scale, a, b) -> Op:
    theorem = ell >= d - 1
    expect_iso = partner == "image"

    def run():
        interner = wl.Interner("exact" if a.exact else "float")
        fa = wl.fingerprint(wl.run_wl(a, ell, 3, interner=interner))
        fb = wl.fingerprint(wl.run_wl(b, ell, 3, interner=interner))
        verdict = wl.compare(fa, fb)
        iso = oracle.is_isometric(a, b) is not None
        return verdict, iso, fa, fb

    def check(res):
        verdict, iso, fa, fb = res
        answer = (verdict, iso, fa.digest(), fb.digest())
        digests = answer[2:] if fa.mode == "exact" else ()
        if iso != expect_iso:
            return WRONG, digests, answer
        if iso and verdict != "equal":
            # float snapping on an absolute grid splits isometric clouds at
            # large coordinate scales (ROADMAP item 5)
            return (KNOWN_DEFECT if scale == 1000 else WRONG), digests, answer
        if theorem and not iso and verdict != "different":
            return WRONG, digests, answer
        return OK, digests, answer

    kind = "exact" if scale is None else f"float x{scale}"
    return Op(sl, f"ell={ell} d={d} n={n} {kind} {partner}", run, check)


def build_color(seed: int, tiny: bool = False) -> Workload:
    ops = []
    for k, (sl, ell, d, n, partner, scale) in enumerate(COLOR_PLAN):
        if tiny:
            n = {1: 12, 2: 6, 3: 5}[ell]
        shape = oracle.random_cloud(n, d, 1000 * d + n)
        other = _moved(shape) if partner == "moved" else shape
        if scale is not None:
            shape, other = _float_copy(shape, scale), _float_copy(other, scale)
        a, b = _posed(shape, k, 0, seed), _posed(other, k, 1, seed)
        ops.append(_color_op(sl, ell, d, n, partner, scale, a, b))
    return Workload("color", seed, ops, [], True)


# -- search -----------------------------------------------------------------

# (slice, d, n, ell, iters): in every regime the paper's theorem holds.  An odd
# number of entries (and of color and roundtrip ops) puts op_p50_s inside one
# kind of op's latencies rather than in the gap between two kinds.
SEARCH_MIX = [
    ("slice1", 1, 4, 1, 1),
    ("slice1", 2, 6, 1, 3),
    ("slice1", 2, 10, 1, 3),
    ("slice2", 3, 6, 2, 3),
    ("slice3", 3, 5, 3, 1),
]
SEARCH_TRIALS = 450


def _search_check(res):
    found, fps = res
    digests = tuple(fp.digest() for fp in fps)
    return (WRONG if found else OK), digests, (len(found), digests)


def build_search(seed: int, tiny: bool = False) -> Workload:
    # the library computes the fingerprints inside the search; a tap on
    # wl.fingerprint hands them to the check for the digest pin
    tapped: list = []

    def tap(store, iteration=None):
        fp = _fingerprint(store, iteration)
        tapped.append(fp)
        return fp

    ops = []
    for trial in range(4 if tiny else SEARCH_TRIALS):
        for sl, d, n, ell, iters in SEARCH_MIX:
            def run(d=d, n=n, ell=ell, iters=iters, trial=trial):
                tapped.clear()
                found = oracle.search_indistinguishable(
                    ell, iters, d, n, 1, seed, trials=range(trial, trial + 1))
                return found, tuple(tapped)

            ops.append(Op(sl, f"d={d} n={n} ell={ell} iters={iters} trial={trial}",
                          run, _search_check))
    return Workload("search", seed, ops, [(wl, "fingerprint", tap)], False)


# -- roundtrip --------------------------------------------------------------

# (slice, algorithm, d, n); corpus seed = 900 + index
ROUNDTRIP_PLAN = (
    [("slice1", "wl2d", 2, 60 + 4 * i) for i in range(6)]
    + [("slice2", "wlnd", 3, 6)] * 3 + [("slice2", "wlnd", 4, 5)] * 2
    + [("slice3", "oneshot", 2, 24), ("slice3", "oneshot", 3, 10)]
)


def _roundtrip_op(sl: str, algorithm: str, cloud: PointCloud) -> Op:
    cfg = RunConfig()
    d = cloud.dim

    def run():
        if algorithm == "wl2d":
            store = wl.run_wl(cloud, 1, max(cfg.iters, 3), mode=cfg.mode, snap=cfg.tol,
                              max_tuples=cfg.max_tuples)
            res = recon2d.reconstruct_planar(store, tol=cfg.tol)
            recovered, method = res.cloud, "wl2d"
        elif algorithm == "wlnd":
            store = wl.run_wl(cloud, d - 1, max(cfg.iters, 3), mode=cfg.mode,
                              snap=cfg.tol, max_tuples=cfg.max_tuples)
            rep = recon_nd.reconstruct_nd(store, tol=cfg.tol, samples=cfg.select_samples,
                                          seed=cfg.seed, max_depth=cfg.max_depth,
                                          verify_snap=cfg.verify_snap)
            recovered, method = rep.cloud, rep.method
        else:
            store = wl.run_wl(cloud, d, 1, mode=cfg.mode, snap=cfg.tol,
                              max_tuples=cfg.max_tuples)
            rep = oneshot.reconstruct_one_iter(store, tol=cfg.tol, cap=cfg.max_candidates)
            recovered, method = rep.cloud, rep.method
        alignment = oracle.is_isometric(recovered, cloud, tol=1e-6)
        return store, method, alignment

    def check(res):
        store, method, alignment = res
        digest = _fingerprint(store).digest()
        answer = (method, alignment is not None, digest)
        return (OK if alignment is not None else WRONG), (digest,), answer

    return Op(sl, f"{algorithm} d={d} n={cloud.n}", run, check)


def build_roundtrip(seed: int, tiny: bool = False) -> Workload:
    ops = []
    for k, (sl, algorithm, d, n) in enumerate(ROUNDTRIP_PLAN):
        if tiny:
            n = {"wl2d": 8, "wlnd": d + 1, "oneshot": 5}[algorithm]
        shape = oracle.random_cloud(n, d, 900 + k)
        cloud = _posed(shape, k, 0, seed)
        ops.append(_roundtrip_op(sl, algorithm, cloud))
    return Workload("roundtrip", seed, ops, [], True)


BUILDERS = {"color": build_color, "search": build_search, "roundtrip": build_roundtrip}


def _interleave(ops: list[Op]) -> list[Op]:
    """Spread each slice's ops evenly over the pass.

    The machine's speed drifts over seconds, so a slice whose ops ran back
    to back would be timed in one stretch of it.
    """
    by_slice: dict[str, list[Op]] = {}
    for op in ops:
        by_slice.setdefault(op.slice, []).append(op)
    keyed = [((i + 0.5) / len(group), sl, i) for sl, group in by_slice.items()
             for i in range(len(group))]
    return [by_slice[sl][i] for _, sl, i in sorted(keyed)]


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    work = BUILDERS[name](seed, tiny)
    work.ops = _interleave(work.ops)
    return work
