import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from geowl import oracle, reconstruct
from geowl.errors import InconsistentDataError, ReconstructionError
from geowl.geometry import (PointCloud, barycenter, barycenter_sq_norms, remove_nearest,
                            sq_dist, sweep)
from geowl.recon2d import (InitData2D, PlanarReconstruction, init2d, norms_from_chi1,
                           profiles_from_chi2, reconstruct2d, reconstruct_planar)
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
