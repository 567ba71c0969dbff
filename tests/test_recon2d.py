import hashlib
import math
import random
from fractions import Fraction as F
from typing import Callable, Sequence

import numpy as np
import pytest

from geowl import oracle, reconstruct
from geowl.errors import InconsistentDataError, ReconstructionError
from geowl.geometry import Entries, PointCloud, barycenter, barycenter_sq_norms, sq_dist
from geowl.geometry import _over_tol
from geowl.recon2d import (InitData2D, PlanarReconstruction, _cos_greater, _entry_round, init2d,
                           norms_from_chi1, profiles_from_chi2, reconstruct2d,
                           reconstruct_planar)
from geowl.wl import KIND_NODE1, Interner, run_wl


def _direct_norms(cloud):
    b = barycenter(cloud)
    return sorted(sq_dist(p, b) for p in cloud.points)


def _direct_profiles(cloud):
    b = barycenter(cloud)
    out = []
    for p in cloud.points:
        out.append(tuple(sorted((sq_dist(p, y), sq_dist(y, b)) for y in cloud.points)))
    return sorted(out)


def test_norms_from_chi1_examples():
    cloud = PointCloud(2, ((F(0), F(0)), (F(2), F(0))))
    store = run_wl(cloud, 1, 3)
    norms = norms_from_chi1(store)
    got = sorted(norms[store.tables[1][i]] for i in range(cloud.n))
    assert got == [F(1), F(1)]

    line = PointCloud(2, ((F(0), F(0)), (F(1), F(0)), (F(2), F(0))))
    store = run_wl(line, 1, 3)
    norms = norms_from_chi1(store)
    got = sorted(norms[store.tables[1][i]] for i in range(3))
    assert got == [F(0), F(1), F(1)]


def test_norms_match_direct_computation():
    for seed in range(30):
        cloud = oracle.random_cloud(2 + seed % 6, 2, seed=seed)
        store = run_wl(cloud, 1, 1)
        norms = norms_from_chi1(store)
        got = sorted(norms[c] for c in store.tables[1])
        assert got == _direct_norms(cloud)


def _fraction_norms(store):
    """norms_from_chi1 as one scalar sum per color, in record order."""
    f = {cid: sum(store.value_of(did) for did, _ in store.interner.payload(cid, KIND_NODE1)[1])
         for cid in set(store.tables[1])}
    total = sum(f[cid] for cid in store.tables[1])
    return dict(zip(f, barycenter_sq_norms(list(f.values()), total, store.n)))


def test_norms_equal_the_scalar_sums():
    # integer sums over one denominator give the Fraction sums exactly, also for
    # stores whose interner holds another cloud's distances; float stores agree bit for
    # bit, as they sum in record order (the Gaussian cloud's sums depend on the order)
    clouds = [oracle.apply_random_isometry(oracle.random_cloud(n, 2, seed=70 + n), seed=n)
              for n in (3, 8, 17, 30)]
    clouds.append(PointCloud(2, tuple((F(x, 2), F(y, 3)) for x in range(3) for y in range(3))))
    shared = Interner("exact")
    stores = [run_wl(c, 1, 1) for c in clouds]
    stores += [run_wl(c, 1, 1, interner=shared) for c in clouds[1:3]]
    stores += [run_wl(c, 1, 1, mode="float") for c in clouds[:3]]
    rng = random.Random(5)
    stores.append(run_wl(PointCloud(2, tuple((rng.gauss(0, 3), rng.gauss(0, 3))
                                             for _ in range(17))), 1, 1))
    for store in stores:
        norms = norms_from_chi1(store)
        assert norms == _fraction_norms(store)
        assert all(type(v) is (F if store.interner.mode == "exact" else float)
                   for v in norms.values())


def test_profiles_from_chi2_examples():
    cloud = PointCloud(2, ((F(0), F(0)), (F(2), F(0))))
    store = run_wl(cloud, 1, 3)
    profiles = profiles_from_chi2(store)
    for i in range(2):
        assert profiles[store.tables[2][i]] == ((F(0), F(1)), (F(4), F(1)))


def test_profiles_match_direct_computation():
    for seed in range(20):
        cloud = oracle.random_cloud(2 + seed % 6, 2, seed=40 + seed)
        store = run_wl(cloud, 1, 2)
        profiles = profiles_from_chi2(store)
        got = sorted(profiles[c] for c in store.tables[2])
        assert got == _direct_profiles(cloud)
        # isometric clouds give identical profile multisets
        moved = oracle.apply_random_isometry(cloud, seed=60 + seed)
        assert _direct_profiles(moved) == _direct_profiles(cloud)


def test_init2d_collinear_fallback():
    cloud = PointCloud(2, ((F(0), F(0)), (F(2), F(0))))
    init = init2d(run_wl(cloud, 1, 3))
    assert init.d0_sq == 0
    assert init.m_u == init.m_v


def test_init2d_square_picks_quarter_angle():
    sq = PointCloud(2, ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
    init = init2d(run_wl(sq, 1, 3))
    # adjacent corners of the square subtend a right angle at the center
    nu2 = next(n2 for d2, n2 in init.m_u if d2 == 0)
    nv2 = next(n2 for d2, n2 in init.m_v if d2 == 0)
    cos = float(nu2 + nv2 - init.d0_sq) / (2 * math.sqrt(float(nu2 * nv2)))
    assert abs(cos) < 1e-12


def test_init2d_cone_is_empty_by_brute_force():
    # every selected pivot pair must leave the open cone at the barycenter
    # free of cloud points: check by direct angle enumeration
    for seed in range(30):
        cloud = oracle.random_cloud(3 + seed % 6, 2, seed=800 + seed)
        init = init2d(run_wl(cloud, 1, 3))
        if init.d0_sq == 0:
            continue
        b = barycenter(cloud)
        centered = [(float(p[0] - b[0]), float(p[1] - b[1])) for p in cloud.points]
        nu2 = float(next(n2 for d2, n2 in init.m_u if d2 == 0))
        nv2 = float(next(n2 for d2, n2 in init.m_v if d2 == 0))
        d0 = float(init.d0_sq)
        # find matching (u, v) pairs in the cloud by distances
        for u in centered:
            if abs(u[0] ** 2 + u[1] ** 2 - nu2) > 1e-9:
                continue
            for v in centered:
                dv = (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2
                if abs(v[0] ** 2 + v[1] ** 2 - nv2) > 1e-9 or abs(dv - d0) > 1e-9:
                    continue
                det = u[0] * v[1] - u[1] * v[0]
                if abs(det) < 1e-12:
                    continue
                for p in centered:
                    # p interior to cone(u, v) iff both coefficients positive
                    a = (p[0] * v[1] - p[1] * v[0]) / det
                    c = (u[0] * p[1] - u[1] * p[0]) / det
                    assert not (a > 1e-9 and c > 1e-9), (seed, u, v, p)


def test_reconstruct2d_collinear():
    cloud = PointCloud(2, ((F(0), F(0)), (F(1), F(0)), (F(2), F(0))))
    res = reconstruct_planar(run_wl(cloud, 1, 3))
    align = oracle.is_isometric(res.cloud, cloud)
    assert align is not None and align.residual < 1e-9


def test_reconstruct2d_square():
    sq = PointCloud(2, ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
    res = reconstruct_planar(run_wl(sq, 1, 3))
    align = oracle.is_isometric(res.cloud, sq)
    assert align is not None and align.residual < 1e-9
    # the other two corners sit on the pivot lines: placed before round 0
    assert res.counters["rounds"] == 0


def test_reconstruct2d_round_trip_random():
    for seed in range(60):
        cloud = oracle.random_cloud(2 + seed % 7, 2, seed=1200 + seed)
        res = reconstruct_planar(run_wl(cloud, 1, 3))
        align = oracle.is_isometric(res.cloud, cloud)
        assert align is not None and align.residual < 1e-6, seed
        if res.counters["alpha"] is not None:
            assert res.counters["rounds"] <= math.ceil(1 + math.pi / res.counters["alpha"])


def test_reconstruct2d_rejects_inconsistent_multisets():
    bad = InitData2D(d0_sq=F(0), m_u=((F(1), F(1)), (F(2), F(1))),
                     m_v=((F(1), F(1)), (F(2), F(1))))
    with pytest.raises(InconsistentDataError):
        reconstruct2d(bad)  # no zero-distance entry marks the pivot


def test_point_at_barycenter_is_recovered():
    cloud = PointCloud(2, ((F(1), F(1)), (F(-1), F(1)), (F(0), F(-2)),
                           (F(0), F(0))))
    res = reconstruct_planar(run_wl(cloud, 1, 3))
    align = oracle.is_isometric(res.cloud, cloud)
    assert align is not None and align.residual < 1e-6


# `geowl gen --n 80 --d 2 --seed 905`: 1 183 elimination rounds
PERMUTATION_80_905 = [
    35, 49, 36, 16, 52, 29, 15, 5, 1, 62, 24, 60, 9, 68, 50, 22, 64, 32, 33, 75, 40, 3, 63, 7,
    8, 77, 12, 79, 59, 13, 20, 41, 17, 69, 56, 47, 78, 4, 26, 70, 19, 14, 27, 53, 0, 72, 31, 67,
    43, 37, 65, 30, 61, 58, 21, 44, 55, 74, 57, 73, 48, 66, 10, 71, 11, 23, 34, 39, 76, 51, 25,
    38, 46, 28, 42, 2, 18, 45, 54, 6]


@pytest.mark.parametrize("n, seed, permutation", [
    (6, 5, [5, 0, 4, 1, 2, 3]),         # `geowl gen --n 6 --d 2 --seed 5`
    (60, 900, [33, 58, 37, 31, 11, 38, 46, 22, 24, 32, 10, 9, 7, 3, 36, 51, 48, 13, 57, 0,
               2, 26, 1, 42, 20, 12, 17, 56, 35, 8, 50, 14, 30, 55, 41, 49, 53, 45, 5, 25,
               19, 6, 59, 40, 54, 47, 34, 4, 21, 43, 15, 18, 23, 52, 28, 27, 39, 29, 16, 44]),
    (80, 905, PERMUTATION_80_905),
])
def test_placement_order_is_pinned(n, seed, permutation):
    rep = reconstruct(oracle.random_cloud(n, 2, seed), "wl2d")
    assert list(rep.alignment.permutation) == permutation
    if n == 80:
        assert rep.counters["rounds"] == 1183


@pytest.mark.parametrize("n, rounds, round_bound, digest", [
    (300, 5469, 5473, "1b1286939410c35a9a909e9b2872f187c62aae7dbf8ecbd65a9a3174509adc57"),
    (1000, 615, 618, "0f463fc8f1f7612cea8e43a04a3192812707f5b7c7b5e4e7d5d7f31548a138e5"),
], ids=["n300", "n1000"])
def test_large_placement_order_is_pinned(n, rounds, round_bound, digest):
    # `geowl gen --n <n> --d 2 --seed 1`: thousands of rounds, and a thousand entries,
    # beyond the n <= 80 shapes that the reference covers
    rep = reconstruct(oracle.random_cloud(n, 2, 1), "wl2d")
    assert (rep.counters["rounds"], rep.counters["round_bound"]) == (rounds, round_bound)
    assert hashlib.sha256(repr(list(rep.alignment.permutation)).encode()).hexdigest() == digest


# -- reference equivalence ----------------------------------------------------

class _Spans:
    """Union of closed angular intervals on [0, 2*pi), merged and normalized."""

    def __init__(self, intervals=()):
        self.spans = []
        for lo, hi in intervals:
            self.add(lo, hi)

    def add(self, lo, hi):
        width = hi - lo
        if width >= 2 * math.pi:
            self.spans = [(0.0, 2 * math.pi)]
            return
        lo %= 2 * math.pi
        hi = lo + width
        pieces = [(lo, min(hi, 2 * math.pi))]
        if hi > 2 * math.pi:
            pieces.append((0.0, hi - 2 * math.pi))
        spans = sorted(self.spans + pieces)
        merged = [spans[0]]
        for s in spans[1:]:
            if s[0] <= merged[-1][1] + 1e-15:
                merged[-1] = (merged[-1][0], max(merged[-1][1], s[1]))
            else:
                merged.append(s)
        # wraparound join
        if len(merged) > 1 and merged[0][0] <= 1e-15 and merged[-1][1] >= 2 * math.pi - 1e-15:
            merged[0] = (0.0, merged[0][1])
            merged[-1] = (merged[-1][0], 2 * math.pi)
        self.spans = merged

    def reflected(self, axis):
        """Image under the reflection theta -> 2*axis - theta."""
        out = _Spans()
        for lo, hi in self.spans:
            image = (2 * axis - hi) % (2 * math.pi)
            out.add(image, image + (hi - lo))
        return out

    def grown(self, alpha):
        """The union with its images through both pivot lines."""
        out = _Spans(self.spans)
        for image in (self.reflected(0.0), self.reflected(alpha)):
            for lo, hi in image.spans:
                out.add(lo, hi)
        return out


def _reference_depth(spans, theta):
    """The scalar angular depth over spans, one span and shift at a time."""
    theta %= 2 * math.pi
    best = -float("inf")
    for lo, hi in spans:
        for shift in (-2 * math.pi, 0.0, 2 * math.pi):
            t = theta + shift
            best = max(best, min(t - lo, hi - t))
    return best


# The linear nearest-entry search and the restart scan that `geometry.Entries`
# replaced, kept here so that the reference places points without it.

def remove_nearest(entries: list, target: Sequence[float], limit: float) -> None:
    """Remove the entry closest to target in the max norm.

    Raises InconsistentDataError when no entry lies within limit; limit 0
    asks for an exactly equal entry.
    """
    if limit == 0:
        if tuple(target) in entries:
            entries.remove(tuple(target))
            return
        raise InconsistentDataError(f"no multiset entry equals {target}")
    best_i, best_err = -1, float("inf")
    for i, e in enumerate(entries):
        err = max(abs(a - b) for a, b in zip(e, target))
        if err < best_err:
            best_i, best_err = i, err
    if best_i < 0 or best_err > limit:
        raise InconsistentDataError(
            f"no multiset entry matches {target} (best error {best_err:.3e})")
    entries.pop(best_i)


def sweep(entries: list, choose: Callable, place: Callable) -> None:
    """Place entries one at a time until no entry has a position.

    choose(entry) returns a position, or None while the entry is unresolved;
    the first position found goes to place, which removes entries from the
    list, so the scan then restarts from the front.  choose must be a pure
    function of the entry for the whole call (the caller's forbidden region
    is fixed meanwhile): an entry unresolved once stays unresolved, so a
    caller that finds no entry resolving may skip the call, which would
    place nothing.
    """
    while True:
        for entry in entries:
            p = choose(entry)
            if p is not None:
                place(p)
                break
        else:
            return


def _outcome(fn, *args):
    try:
        fn(*args)
    except InconsistentDataError as exc:
        return str(exc)
    return None


def _take_case(rng):
    """A multiset, a limit and targets near its entries, of one of three kinds."""
    kind = rng.randrange(3)
    size = rng.randint(0, 12)
    if kind == 0:  # floats: near-duplicates inside and outside limit, equal-error ties,
        # and first coordinates of the limit's size, whose differences round at the edge
        limit = rng.choice([2.0 ** -20, 1e-9, 1e-6 * rng.random()])
        base = [(rng.choice([0.0, 0.1, 1.0, 3.7, -2.5, rng.uniform(-2, 2) * limit]),
                 rng.choice([0.5, 1.3])) for _ in range(size)]
        entries = [(a + limit * rng.choice([0, 0, 0.5, 1, 1.5, 2.5]), b) for a, b in base]
        targets = [(a + limit * rng.choice([0, 0.25, 0.5, 1, -1, 1 + 1e-9, 2]),
                    b + limit * rng.choice([0, 0.5, 1.25])) for a, b in base]
    elif kind == 1:  # exact entries with duplicates, limit 0 as an exact store passes it
        limit = rng.choice([0, 0.0])
        base = [(F(rng.randint(-2, 2), rng.randint(1, 3)), F(rng.randint(0, 3)))
                for _ in range(size)]
        entries = [(a, b) for a, b in base]  # new tuples: a target matches by value only
        targets = base + [(F(rng.randint(-2, 2), rng.randint(1, 3)), F(rng.randint(0, 3)))
                          for _ in range(3)]
    else:  # NaN in either coordinate of entries and targets
        limit = 1e-9
        pool = [0.0, 1.0, 1.0 + 5e-10, 2.0, float("nan")]
        entries = [(rng.choice(pool), rng.choice(pool)) for _ in range(size)]
        targets = [(rng.choice(pool), rng.choice(pool)) for _ in range(size + 3)]
    rng.shuffle(targets)
    return entries, limit, targets


@pytest.mark.parametrize("seed", range(4))
def test_entries_take_matches_the_linear_scan(seed):
    # the same removed entry (by identity), the same live entries in order, and the
    # same error text as `remove_nearest`
    rng = random.Random(seed)
    for _ in range(300):
        entries, limit, targets = _take_case(rng)
        want, got = list(entries), Entries(entries)
        for target in targets:
            assert _outcome(got.take, target, limit) == _outcome(remove_nearest, want,
                                                                  target, limit)
            assert [id(e) for _, e in got.live()] == [id(e) for e in want]
            assert len(got) == len(want)


def test_entries_sweep_matches_the_restart_scan_when_a_placement_takes_another_entry():
    # choose((1,)) gives 1.75, whose nearest entry is (2,): the chosen entry stays live,
    # resolves again, and its second placement takes it
    def choose(e):
        return e[0] + 0.75 if e[0] < 5 else None

    want, want_placed = [(1,), (2,), (5,)], []
    sweep(want, choose, lambda p: (want_placed.append(p), remove_nearest(want, (p,), 1)))
    got, got_placed = Entries([(1,), (2,), (5,)]), []
    got.sweep(choose, lambda p: (got_placed.append(p), got.take((p,), 1)))
    assert got_placed == want_placed == [1.75, 1.75]
    assert [e for _, e in got.live()] == want == [(5,)]


def _reference_reconstruct2d(init, tol=1e-9):
    """Sweep both multisets in every round, recomputing every entry's candidates,
    with the forbidden region grown by reflecting a union of spans."""
    m_u = [(float(a), float(b)) for a, b in init.m_u]
    m_v = [(float(a), float(b)) for a, b in init.m_v]
    n = len(m_u)
    d0sq = float(init.d0_sq)
    zero_u = [e for e in m_u if abs(e[0]) <= tol]
    if len(zero_u) != 1:
        raise InconsistentDataError("pivot multiset must contain exactly one zero-distance entry")
    ru2 = zero_u[0][1]
    if ru2 <= tol:
        raise InconsistentDataError("pivot u must not sit at the barycenter")
    ru = math.sqrt(ru2)
    assert d0sq > tol, "the reference covers the non-collinear path only"
    zero_v = [e for e in m_v if abs(e[0]) <= tol]
    if len(zero_v) != 1:
        raise InconsistentDataError("pivot multiset must contain exactly one zero-distance entry")
    rv2 = zero_v[0][1]
    if rv2 <= tol:
        raise InconsistentDataError("pivot v must not sit at the barycenter")
    rv = math.sqrt(rv2)
    u = (ru, 0.0)
    xv = (ru2 + rv2 - d0sq) / (2 * ru)
    yv2 = rv2 - xv * xv
    if yv2 <= tol * max(1.0, rv2):
        raise InconsistentDataError("pivots are collinear with the barycenter but d0 > 0")
    v = (xv, math.sqrt(yv2))
    alpha = math.atan2(v[1], v[0])
    placed = []

    def place(p):
        n2 = p[0] * p[0] + p[1] * p[1]
        du2 = (p[0] - u[0]) ** 2 + (p[1] - u[1]) ** 2
        dv2 = (p[0] - v[0]) ** 2 + (p[1] - v[1]) ** 2
        remove_nearest(m_u, (du2, n2), tol * max(1.0, du2, n2) * 1000)
        remove_nearest(m_v, (dv2, n2), tol * max(1.0, dv2, n2) * 1000)
        placed.append(p)

    place(u)
    place(v)

    def u_candidates(d2, n2):
        x = (ru2 + n2 - d2) / (2 * ru)
        h2 = n2 - x * x
        if h2 <= tol * max(1.0, n2):
            return [(x, 0.0)]
        h = math.sqrt(h2)
        return [(x, h), (x, -h)]

    vx, vy = v[0] / rv, v[1] / rv

    def v_candidates(d2, n2):
        x = (rv2 + n2 - d2) / (2 * rv)
        h2 = n2 - x * x
        if h2 <= tol * max(1.0, n2):
            return [(x * vx, x * vy)]
        h = math.sqrt(h2)
        return [(x * vx - h * vy, x * vy + h * vx), (x * vx + h * vy, x * vy - h * vx)]

    ang_tol = max(tol, 1e-12) * 10

    def kind(spans, c):
        d = _reference_depth(spans, math.atan2(c[1], c[0]))
        return "in" if d > ang_tol else "boundary" if d >= -ang_tol else "out"

    def chooser(cands_of, forbidden):
        spans = forbidden.spans

        def choose(entry):
            cands = cands_of(*entry)
            if len(cands) == 1:
                return cands[0]
            c1, c2 = cands
            k1, k2 = kind(spans, c1), kind(spans, c2)
            if k1 == "in" and k2 == "in":
                raise ReconstructionError("both mirror candidates are forbidden")
            if k1 == "in" or (k1 == "boundary" and k2 == "out"):
                return c2
            if k2 == "in" or (k2 == "boundary" and k1 == "out"):
                return c1
            return None
        return choose

    sweep(m_u, chooser(u_candidates, _Spans()), place)
    sweep(m_v, chooser(v_candidates, _Spans()), place)
    forbidden = _Spans([(0.0, alpha)])
    round_bound = math.ceil(1.0 + math.pi / alpha)
    rounds = 0
    while m_u or m_v:
        sweep(m_u, chooser(u_candidates, forbidden), place)
        sweep(m_v, chooser(v_candidates, forbidden), place)
        if not m_u and not m_v:
            break
        forbidden = forbidden.grown(alpha)
        rounds += 1
        if rounds > round_bound:
            raise ReconstructionError(f"unresolved points after the round bound {round_bound}")
    if len(placed) != n:
        raise InconsistentDataError("placement count does not match multiset size")
    return PlanarReconstruction(cloud=PointCloud(2, tuple(placed)), rounds=rounds,
                                round_bound=round_bound, alpha=alpha)


def _float_copy(cloud):
    return PointCloud(2, tuple((float(x), float(y)) for x, y in cloud.points))


def _assert_same_reconstruction(init):
    got, want = reconstruct2d(init), _reference_reconstruct2d(init)
    assert got.cloud.points == want.cloud.points  # same points in the same order
    assert (got.rounds, got.round_bound, got.alpha) == (want.rounds, want.round_bound,
                                                       want.alpha)
    return got


@pytest.mark.parametrize("k", range(6))
def test_reconstruct2d_matches_the_reference_on_the_benchmark_shapes(k):
    shape = oracle.random_cloud(60 + 4 * k, 2, 900 + k)
    for cloud in (shape, _float_copy(shape)):
        got = _assert_same_reconstruction(init2d(run_wl(cloud, 1, 3)))
        assert got.rounds > 0


def test_reconstruct2d_matches_the_reference_on_a_corrupted_entry():
    # the bad entry's point is placed in round 104, after many rounds place nothing
    init = init2d(run_wl(oracle.random_cloud(12, 2, 7), 1, 3))
    m_u = list(init.m_u)
    m_u[6] = (m_u[6][0] + F(1, 3), m_u[6][1])
    bad = InitData2D(d0_sq=init.d0_sq, m_u=tuple(m_u), m_v=init.m_v)
    errors = []
    for fn in (reconstruct2d, _reference_reconstruct2d):
        with pytest.raises(Exception) as exc:
            fn(bad)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is InconsistentDataError


def test_reconstruct2d_matches_the_reference_on_nan_entries():
    # NaN entries give NaN mirror candidates, which no round resolves: the round bound
    # ends the elimination, as in the reference, rather than an unbounded scan
    init = init2d(run_wl(oracle.random_cloud(12, 2, 7), 1, 3))
    m_u, m_v = list(init.m_u), list(init.m_v)
    m_u[4] = (float(m_u[4][0]), math.nan)
    m_v[4] = (math.nan, float(m_v[4][1]))
    bad = InitData2D(d0_sq=init.d0_sq, m_u=tuple(m_u), m_v=tuple(m_v))
    errors = []
    for fn in (reconstruct2d, _reference_reconstruct2d):
        with pytest.raises(ReconstructionError) as exc:
            fn(bad)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == "unresolved points after the round bound 266"


@pytest.mark.parametrize("alpha", [1e-3, math.pi / 2 - 1e-9, math.pi - 1e-6, 2 * math.pi / 5],
                         ids=["tiny", "near_half_pi", "near_pi", "closes_at_two_pi"])
def test_reflection_growth_is_the_closed_form_arc(alpha):
    # k reflection rounds grow [0, alpha] to the arc [-k*alpha, (k+1)*alpha], split at
    # angle 0, until it covers the circle; at the arc's edges and its far point
    # alpha/2 + pi the kinds agree with the closed-form depth (2k+1)*alpha/2 - delta
    ang_tol = 1e-8
    two_pi = 2 * math.pi

    def kind(depth):
        return 2 if depth > ang_tol else 1 if depth >= -ang_tol else 0

    forbidden = _Spans([(0.0, alpha)])
    k = 0
    while (2 * k + 1) * alpha < two_pi - 1e-12:
        want = [0.0, alpha] if k == 0 else [0.0, (k + 1) * alpha, two_pi - k * alpha, two_pi]
        assert [x for span in forbidden.spans for x in span] == pytest.approx(want, abs=1e-12)
        for edge in (-k * alpha, (k + 1) * alpha, alpha / 2 + math.pi):
            for theta in (edge - 2 * ang_tol, edge, edge + 2 * ang_tol):
                off = abs(math.remainder(theta - alpha / 2, two_pi))
                closed = kind((2 * k + 1) * alpha / 2 - off)
                assert kind(_reference_depth(forbidden.spans, theta)) == closed, (k, theta)
        forbidden = forbidden.grown(alpha)
        k += 1
    assert sum(hi - lo for lo, hi in forbidden.spans) >= two_pi - 1e-12


def _brute_entry_round(d0, d1, alpha, ang_tol):
    """Classify both candidates in every round k = 0, 1, ... until one is taken."""
    k = 0
    while True:
        kinds = []
        for delta in (d0, d1):
            depth = (2 * k + 1) * alpha / 2 - delta
            kinds.append("in" if depth > ang_tol else "boundary" if depth >= -ang_tol
                         else "out")
        if kinds == ["in", "in"]:
            return k, -2
        if kinds[0] == "in" or kinds == ["boundary", "out"]:
            return k, 1
        if kinds[1] == "in" or kinds == ["out", "boundary"]:
            return k, 0
        k += 1


@pytest.mark.parametrize("alpha", [1e-4, 0.01, 2 * math.pi / 5, math.pi / 2 - 1e-9,
                                   math.pi - 1e-6])
@pytest.mark.parametrize("ang_tol", [0.0, 1e-8, 3e-4])
def test_entry_round_matches_classifying_every_round(alpha, ang_tol):
    # distances on each round's arc edge, ang_tol and one ulp either side of it,
    # paired with an equal, a close (within 2*ang_tol), a far and an antipodal partner
    deltas = {0.0, math.pi, math.pi / 3}
    for k in (0, 1, 2, 7, math.floor(math.pi / alpha) - 1):
        edge = (2 * k + 1) * alpha / 2
        for x in (edge, edge - ang_tol, edge + ang_tol):
            deltas.update((math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)))
    deltas = sorted(d for d in deltas if 0.0 <= d <= math.pi)
    for d0 in deltas:
        for d1 in {d0, min(d0 + 1.5 * ang_tol, math.pi), min(d0 + 0.3, math.pi), math.pi}:
            for pair in ((d0, d1), (d1, d0)):
                assert _entry_round(*pair, alpha, ang_tol) == \
                    _brute_entry_round(*pair, alpha, ang_tol), pair
        assert _entry_round(d0, d0, alpha, ang_tol)[1] == -2


def test_entry_round_keeps_candidates_on_the_boundary_for_several_rounds():
    # alpha below 2*ang_tol: two candidates closer than alpha enter the boundary band
    # in one round and stay there, unresolved, until the nearer one is in
    alpha, ang_tol = 1e-4, 1e-3
    d0, d1 = 0.5, 0.5 + alpha / 10
    enters = _brute_entry_round(d0, math.pi, alpha, ang_tol)[0]
    assert _brute_entry_round(d1, math.pi, alpha, ang_tol)[0] == enters
    k, pick = _entry_round(d0, d1, alpha, ang_tol)
    assert (k, pick) == _brute_entry_round(d0, d1, alpha, ang_tol)
    assert k >= enters + 19 and pick in (1, -2)


@pytest.mark.parametrize("near, alpha", [(0.801322977421273, 2.5298381201802593e-18),
                                         (0.29486858827891005, 1.376720153405023e-17)])
def test_entry_round_start_holds_below_float_resolution(near, alpha):
    # past 2**53 rounds, floor(delta / alpha) overshoots the first round whose float
    # depth reaches the candidate; the rounds before the answer must still resolve nothing
    k, pick = _entry_round(near, math.pi, alpha, 0.0)
    assert pick == 1
    for j in range(k - 100, k):
        assert (2 * j + 1) * alpha / 2 - near < 0.0, j
    assert (2 * k + 1) * alpha / 2 - near >= 0.0


def test_entry_round_of_nan_distances():
    # NaN compares false, so its candidate is always out: with two, no round resolves
    assert _entry_round(math.nan, math.nan, 0.1, 1e-8) == (math.inf, -1)
    assert _entry_round(math.nan, 0.5, 0.1, 1e-8) == _brute_entry_round(math.nan, 0.5, 0.1, 1e-8)


def _lattice_disk(k, half):
    return PointCloud(2, tuple((F(x), F(y)) for x in range(-k, k + 1) for y in range(-k, k + 1)
                               if x * x + y * y <= k * k and (y >= 0 or not half)))


@pytest.mark.parametrize("half", [False, True], ids=["disk", "half_disk"])
@pytest.mark.parametrize("k", range(2, 7))
def test_reconstruct2d_matches_the_reference_on_lattice_disks(k, half):
    # candidates sit exactly on reflected pivot lines: the boundary kind
    shape = _lattice_disk(k, half)
    for cloud in (shape, _float_copy(shape)):
        _assert_same_reconstruction(init2d(run_wl(cloud, 1, 3)))


@pytest.mark.parametrize("seed", [114, 181])
def test_float_partner_within_tol_of_the_u_line_is_no_pivot(seed):
    # float copies of `geowl gen --n 50 --d 2 --seed <seed> --grid 8 --span 1`: a
    # partner collinear with u passed q^2 < 4N by rounding, and reconstruct2d then
    # rejected the pivot pair as collinear with the barycenter
    shape = oracle.random_cloud(50, 2, seed, grid=8, span=1)
    rep = reconstruct(_float_copy(shape), "wl2d")
    assert rep.verified and rep.counters["alpha"] is not None


def _with_mean(seed, d):
    """A Gaussian float cloud with its own barycenter added as a point."""
    pts = np.random.default_rng(seed).normal(size=(6, d)) * 3
    return PointCloud.from_array(np.vstack([pts, pts.mean(axis=0)]))


def test_float_norms_use_the_grid_step():
    # snapped sums put an error of up to about the step into the norm of the
    # point at the barycenter, which a 1e-9 bound rejected for 19 of these
    for seed in range(40):
        store = run_wl(_with_mean(seed, 2), 1, 1, mode="float", snap=1e-4)
        norms = norms_from_chi1(store)
        assert min(norms.values()) >= 0.0, seed


def test_pivot_u_is_never_the_point_at_the_barycenter():
    # the mean's norm read off the colors is 2.0e-11 here, below tol
    cloud = _with_mean(9, 2)
    store = run_wl(cloud, 1, 3)
    norms = norms_from_chi1(store)
    assert 0 < min(norms.values()) <= 1e-9
    rep = reconstruct(cloud, "wl2d")
    assert rep.verified


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("power", [-12, -8, -5, -4, 80, 100, 150])
def test_exact_clouds_verify_at_every_scale(seed, power):
    # past 1e80 the partner's height test multiplied two squared norms, 4 |u|^2 tol
    # |y|^2, which overflowed to inf: every partner then read as collinear and
    # reconstruct2d reported "collinear entry is off the pivot line".  At 1e-4 and
    # below, tests floored at tol * 1 in the cloud's units raised "no point off the
    # barycenter" or came back unverified; exact data has no floor
    shape = oracle.random_cloud(8, 2, seed)
    cloud = PointCloud(2, tuple(tuple(c * F(10) ** power for c in p) for p in shape.points))
    rep = reconstruct(cloud, "wl2d")
    assert rep.verified and rep.counters["alpha"] is not None


def test_points_closer_than_tol_times_the_extent_fail_typed():
    # (1, 0) and (1, 1e-12) are 1e-24 apart squared, within tol * |y|^2 of each
    # other: the pivot's multiset then has two zero-distance entries.  Testing them
    # against exact zero instead raised ValueError("duplicate points are not
    # allowed"), which the CLI reports as a parse error
    gap = F(1, 10 ** 12)
    cloud = PointCloud(2, ((F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)),
                           (F(1), gap), (F(-1), -gap)))
    with pytest.raises(InconsistentDataError):
        reconstruct(cloud, "wl2d")


# -- init2d against its Fraction form ------------------------------------------

def _reference_profile(store, norms, c2):
    return tuple(sorted((store.value_of(did), norms[c1])
                        for did, c1 in store.interner.payload(c2, KIND_NODE1)[1]))


def _reference_init2d(store, tol=1e-9):
    """init2d as written on scalars: `Fraction` norms from `_fraction_norms`, each
    distance by `value_of`, each record by `Interner.payload`, and both tests
    against tol * max(f, s) as a float."""
    norms = _fraction_norms(store)
    digests = store.interner.digests
    prev = {c: store.interner.payload(c, KIND_NODE1)[0]
            for c in set(store.tables[2]) | set(store.tables[3])}
    c3s = sorted(set(store.tables[3]), key=digests.__getitem__)
    top = max(norms.values())
    f = 0 if isinstance(top, F) else 1
    u_color = next((c3 for c3 in c3s if norms[prev[prev[c3]]] > tol * max(f, top)), None)
    if u_color is None:
        raise InconsistentDataError("no point off the barycenter")
    nu2 = norms[prev[prev[u_color]]]
    m_u = _reference_profile(store, norms, prev[u_color])
    best = None  # (q, N, tiebreak, d2, c2_y)
    for did, c2_y in store.interner.payload(u_color, KIND_NODE1)[1]:
        d2, ny2 = store.value_of(did), norms[prev[c2_y]]
        if ny2 == 0:
            continue
        q, N = nu2 + ny2 - d2, nu2 * ny2
        if (4 * N - q * q) / (4 * nu2) <= tol * max(f, ny2):
            continue
        tiebreak = (digests[c2_y], did)
        if (best is None or _cos_greater(q, N, best[0], best[1])
                or (not _cos_greater(best[0], best[1], q, N) and tiebreak < best[2])):
            best = (q, N, tiebreak, d2, c2_y)
    if best is None:
        return InitData2D(d0_sq=0 if f == 0 else 0.0, m_u=m_u, m_v=m_u)
    return InitData2D(d0_sq=best[3], m_u=m_u, m_v=_reference_profile(store, norms, best[4]))


def _scalar_types(init):
    return [type(init.d0_sq)] + [type(x) for e in init.m_u + init.m_v for x in e]


def _scaled(cloud, power):
    return PointCloud(2, tuple(tuple(c * F(10) ** power for c in p) for p in cloud.points))


def _init2d_stores():
    randoms = [oracle.apply_random_isometry(oracle.random_cloud(3 + s % 9, 2, seed=500 + s),
                                            seed=s) for s in range(12)]
    stores = [run_wl(c, 1, 3) for c in randoms]
    # one interner, two denominators: the second cloud's ids interleave with the first's
    shared = Interner("exact")
    thirds = PointCloud(2, tuple((F(x, 3), F(y, 3)) for x, y in ((0, 0), (5, 1), (2, 7), (-4, 3),
                                                                 (1, -6), (6, 6))))
    stores += [run_wl(c, 1, 3, interner=shared) for c in (thirds, randoms[5], randoms[8])]
    shape = oracle.random_cloud(10, 2, seed=3)
    stores += [run_wl(_scaled(shape, p), 1, 3) for p in (-80, 80)]
    stores += [run_wl(_float_copy(c), 1, 3) for c in (randoms[4], shape, _lattice_disk(3, True))]
    stores.append(run_wl(_with_mean(9, 2), 1, 3))  # a float point at the barycenter
    lines = [PointCloud(2, ((F(0), F(0)), (F(2), F(0)))),
             PointCloud(2, tuple((F(x), F(2 * x)) for x in (-3, -1, 0, 2, 5))),
             PointCloud(2, ((F(1), F(1)), (F(-1), F(1)), (F(0), F(-2)), (F(0), F(0))))]
    stores += [run_wl(c, 1, 3) for c in lines]
    stores.append(run_wl(_float_copy(lines[1]), 1, 3))
    # centrally symmetric, each point x with a far partner 1000 x + (x rotated by 90
    # degrees) / 100, whose squared height over the u-line is within tol times its own
    # squared norm but not tol * |u|^2
    pts = [p for x, y in oracle.random_cloud(3, 2, seed=0).points
           for p in ((x, y), (1000 * x - y / 100, 1000 * y + x / 100))]
    far = PointCloud(2, tuple(pts + [(-x, -y) for x, y in pts]))
    stores += [run_wl(far, 1, 3), run_wl(_float_copy(far), 1, 3)]
    return stores


def test_init2d_matches_its_fraction_form():
    # random, shared-interner, scaled (1e-80 and 1e80), float, point-at-barycenter and
    # collinear stores: equal pivot data, of equal types
    fallbacks = 0
    for store in _init2d_stores():
        got, want = init2d(store), _reference_init2d(store)
        assert got == want
        assert _scalar_types(got) == _scalar_types(want)
        fallbacks += got.d0_sq == 0
    assert fallbacks == 3  # the three collinear ones, exact and float


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.1, 2.0 ** -30, 1 / 3])
def test_exact_tolerance_test_at_its_boundary(tol):
    # value / den = tol * scale exactly, and one numerator either side, against the
    # Fraction comparison: tol's integer ratio is exact, up to numerators of 1e160
    over = _over_tol(tol, True)
    a, b = F(tol).as_integer_ratio()
    for scale in (0, 1, 7, 10 ** 80, 10 ** 140):
        for k in (1, 3, 10 ** 20):
            den, edge = b * k, a * k * scale
            for value in (edge - 1, edge, edge + 1):
                assert over(value, den, scale) == (F(value, den) > F(tol) * scale)
                assert over(-value, den, scale) == (F(-value, den) > F(tol) * scale)
    assert edge >= 10 ** 160
