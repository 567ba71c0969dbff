import hashlib
import json
import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

from geowl import oracle, wl
from geowl.errors import CapExceededError
from geowl.geometry import PointCloud, sq_dist
from geowl.report import reconstruct
from geowl.wl import Interner, fingerprint, run_wl


def test_is_isometric_rotation_translation():
    cloud = oracle.random_cloud(5, 2, seed=1)
    pts = [(-p[1] + F(3), p[0] - F(7)) for p in cloud.points]  # rotate 90 + shift
    rotated = PointCloud(2, tuple(pts))
    align = oracle.is_isometric(cloud, rotated)
    assert align is not None and align.residual < 1e-12


def test_is_isometric_mirror():
    cloud = oracle.random_cloud(6, 3, seed=2)
    mirrored = PointCloud(3, tuple((-p[0], p[1], p[2]) for p in cloud.points))
    assert oracle.is_isometric(cloud, mirrored) is not None


def test_is_isometric_rejects():
    a = PointCloud(1, ((F(0),), (F(1),), (F(2),)))
    b = PointCloud(1, ((F(0),), (F(1),), (F(3),)))
    assert oracle.is_isometric(a, b) is None
    c = PointCloud(1, ((F(0),), (F(1),)))
    assert oracle.is_isometric(a, c) is None  # size mismatch
    d = PointCloud(2, ((F(0), F(0)), (F(1), F(0)), (F(2), F(0))))
    assert oracle.is_isometric(a, d) is None  # dimension mismatch


def test_is_isometric_equivalence_properties():
    clouds = [oracle.random_cloud(4, 2, seed=s) for s in range(6)]
    clouds += [oracle.apply_random_isometry(clouds[0], seed=77)]
    for c in clouds:
        assert oracle.is_isometric(c, c) is not None  # reflexive
    for a in clouds:
        for b in clouds:
            ab = oracle.is_isometric(a, b)
            ba = oracle.is_isometric(b, a)
            assert (ab is None) == (ba is None)  # symmetric
    # transitivity on the one known-equivalent pair
    assert oracle.is_isometric(clouds[0], clouds[-1]) is not None


def test_alignment_maps_points():
    cloud = oracle.random_cloud(5, 3, seed=3)
    moved = oracle.apply_random_isometry(cloud, seed=4)
    align = oracle.is_isometric(cloud, moved)
    mapped = align.apply(cloud.as_array())
    target = moved.as_array()[list(align.permutation)]
    assert float(np.max(np.abs(mapped - target))) < 1e-9


def _scaled(cloud, factor, as_float=False):
    """The cloud with every coordinate times factor, in floats when as_float."""
    return PointCloud(cloud.dim, tuple(
        tuple(float(c) * float(factor) if as_float else c * factor for c in p)
        for p in cloud.points))


def test_tiny_non_isometric_pairs_are_rejected():
    # their squared distances, about 1e-14, lie below any absolute bound
    tiny = F(1, 10 ** 8)
    for s in range(20):
        a = _scaled(oracle.random_cloud(8, 3, 300 + s), tiny)
        b = _scaled(oracle.random_cloud(8, 3, 400 + s), tiny)
        assert oracle.is_isometric(a, b) is None


def test_verdict_is_scale_free():
    for s in range(24):
        n, d = 4 + s % 5, 1 + s % 3
        cloud = oracle.random_cloud(n, d, 500 + s, grid=3)
        other = (oracle.apply_random_isometry(cloud, 600 + s) if s % 2 == 0
                 else oracle.random_cloud(n, d, 700 + s, grid=3))
        verdict = oracle.is_isometric(cloud, other) is not None
        for k in (-8, -4, 4, 8):
            for as_float in (False, True):
                a, b = (_scaled(c, F(10) ** k, as_float) for c in (cloud, other))
                assert (oracle.is_isometric(a, b) is not None) == verdict, (s, k, as_float)


def test_verdict_holds_where_squared_gaps_overflow():
    # at 10^100 and more the squares of squared-distance gaps pass the float
    # range unless both clouds are scaled down first
    for s in range(5):
        cloud = oracle.random_cloud(8, 3, 800 + s)
        image = oracle.apply_random_isometry(cloud, 850 + s)
        other = oracle.random_cloud(8, 3, 900 + s)
        for k in (100, 150):
            for as_float in (False, True):
                a, b, c = (_scaled(x, F(10) ** k, as_float) for x in (cloud, image, other))
                align = oracle.is_isometric(a, b)
                assert align is not None and oracle.is_isometric(a, c) is None, (s, k, as_float)
                B = b.as_array()[list(align.permutation)]
                assert np.abs(align.apply(a.as_array()) - B).max() <= 1e-9 * np.abs(B).max()


def test_exact_clouds_need_exactly_equal_distances():
    cloud = oracle.random_cloud(8, 3, 5)
    points = [list(p) for p in cloud.points]
    points[3][1] += F(1, 10 ** 12)
    moved = PointCloud(3, tuple(map(tuple, points)))
    assert oracle.is_isometric(cloud, moved) is None
    # in floats the move is far inside tol relative to the extent
    assert oracle.is_isometric(_scaled(cloud, 1, True), _scaled(moved, 1, True)) is not None


def test_points_that_tie_in_floats_get_distinct_images():
    # (0, 0, 0) and (1e-300, 0, 0) have equal float distance rows (1e-600 underflows
    # to 0), so both went to one image and the clouds read as non-isometric; a
    # float cloud against itself, at every scale, and a swap of the two must align
    for scale in (1.0, 1e100):
        pts = [(0, 0, 0), (1e-300, 0, 0), (0, scale, 0), (0, 0, scale), (scale,) * 3]
        fc = PointCloud.from_array(np.array(pts, dtype=float))
        align = oracle.is_isometric(fc, fc)
        assert align is not None and sorted(align.permutation) == list(range(5)), scale
        swapped = PointCloud(3, (fc.points[1], fc.points[0]) + fc.points[2:])
        assert oracle.is_isometric(fc, swapped) is not None, scale
    # the greedy bijection is the row-wise argmin where that is injective
    rng = np.random.default_rng(0)
    for _ in range(20):
        cost, perm = rng.random((6, 6)), rng.permutation(6)
        assert sorted(oracle._cheapest_first(cost).tolist()) == list(range(6))
        cost[range(6), perm] -= 1
        assert oracle._cheapest_first(cost).tolist() == perm.tolist()
    assert oracle._cheapest_first(np.zeros((3, 3))).tolist() == [0, 1, 2]


def test_wide_planar_cloud_verifies():
    # the best alignment's residual, about 5e-3, is far below tol times the
    # extent of about 4.5e4
    points = ((5, 5), (1, 2), (-3, 1), (4, -3), (-1, 1), (5, -1), (1, 4), (-1, 0),
              (0, -50000), (3, -4), (-4, 5))
    wide = PointCloud(2, tuple(tuple(F(c) for c in p) for p in points))
    assert reconstruct(wide, "wl2d").verified


def test_random_cloud_shape_and_determinism():
    a = oracle.random_cloud(7, 3, seed=42)
    b = oracle.random_cloud(7, 3, seed=42)
    assert a.points == b.points
    assert a.n == 7 and a.dim == 3 and a.exact
    assert len(set(a.points)) == 7
    c = oracle.random_cloud(7, 3, seed=43)
    assert c.points != a.points


def test_random_cloud_distinctness_heavy():
    # coarse grid forces collisions; distinctness must still hold
    cloud = oracle.random_cloud(25, 2, seed=5, grid=2, span=2)
    assert len(set(cloud.points)) == 25


@contextmanager
def _time_limit(seconds: float):
    """Fail with TimeoutError instead of hanging past seconds."""
    def expire(*_):
        raise TimeoutError(f"no answer within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n, d, grid, span", [
    (10, 1, 1, 1),         # 3 grid positions: the draw loop never ended
    (2, 0, 8, 4),          # d = 0 has one position, the empty point
    (4, 2, 0, 4),          # ZeroDivisionError in Fraction(k, 0)
    (4, 2, -8, 4),
    (4, 2, 8, -1),
    (2, 40, 8, 0),         # span 0: one position in any dimension
])
def test_random_cloud_rejects_impossible_grids(n, d, grid, span):
    with _time_limit(5), pytest.raises(ValueError):
        oracle.random_cloud(n, d, seed=1, grid=grid, span=span)


def test_random_cloud_fills_a_grid_exactly():
    with _time_limit(5):
        cloud = oracle.random_cloud(3, 1, seed=1, grid=1, span=1)
    assert sorted(cloud.points) == [(-1,), (0,), (1,)]


def _fraction_random_cloud(n, d, seed, grid, span):
    """random_cloud's points with a Fraction tuple built for every draw."""
    rng = random.Random(seed)
    seen, points = set(), []
    while len(points) < n:
        p = tuple(F(rng.randint(-span * grid, span * grid), grid) for _ in range(d))
        if p not in seen:
            seen.add(p)
            points.append(p)
    return tuple(points)


def _fraction_symmetric_cloud(n, d, seed, grid):
    """_symmetric_cloud's points (or None) with a Fraction tuple built for every draw."""
    rng = random.Random(seed)
    pts = set()
    for _ in range(200):
        if len(pts) >= n:
            break
        p = tuple(F(rng.randint(-2 * grid, 2 * grid), grid) for _ in range(d))
        if p[0] == 0:
            if len(pts) + 1 <= n:
                pts.add(p)
        elif len(pts) + 2 <= n:
            pts.add(p)
            pts.add((-p[0],) + p[1:])
    return tuple(sorted(pts)) if len(pts) == n else None


def test_generators_match_a_fraction_per_draw():
    nones = 0
    for n in (1, 2, 3, 4, 7, 12):
        for d in (1, 2, 3):
            for grid in (1, 2, 3, 8):
                for seed in range(4):
                    span = seed % 3
                    if (2 * span * grid + 1) ** d >= n:
                        got = oracle.random_cloud(n, d, seed, grid=grid, span=span).points
                        assert got == _fraction_random_cloud(n, d, seed, grid, span)
                        assert all(type(c) is F for p in got for c in p)
                    want = _fraction_symmetric_cloud(n, d, seed, grid)
                    sym = oracle._symmetric_cloud(n, d, seed, grid)
                    nones += want is None
                    if want is None:
                        assert sym is None
                    else:
                        assert sym.points == want
                        assert all(type(c) is F for p in sym.points for c in p)
    assert nones > 0


def test_apply_random_isometry_is_exact():
    for seed in range(20):
        cloud = oracle.random_cloud(2 + seed % 6, 1 + seed % 4, seed=100 + seed)
        moved = oracle.apply_random_isometry(cloud, seed=200 + seed)
        assert moved.exact
        assert oracle.is_isometric(cloud, moved) is not None
        # distance multisets agree exactly, not just within tolerance
        da = sorted(sq_dist(p, q) for p in cloud.points for q in cloud.points)
        db = sorted(sq_dist(p, q) for p in moved.points for q in moved.points)
        assert da == db
        inter = Interner("exact")
        fa = fingerprint(run_wl(cloud, 1, 2, interner=inter))
        fb = fingerprint(run_wl(moved, 1, 2, interner=inter))
        assert fa.entries == fb.entries


def test_agreement_between_oracle_and_fingerprints():
    # oracle-isometric implies exact fingerprint equality for all (ell, t)
    for seed in range(10):
        cloud = oracle.random_cloud(4, 3, seed=300 + seed, grid=3)
        moved = oracle.apply_random_isometry(cloud, seed=400 + seed)
        assert oracle.is_isometric(cloud, moved) is not None
        for ell in (1, 2, 3):
            inter = Interner("exact")
            sa = run_wl(cloud, ell, 3, interner=inter)
            sb = run_wl(moved, ell, 3, interner=inter)
            for t in range(4):
                assert fingerprint(sa, t).entries == fingerprint(sb, t).entries


def test_search_finds_nothing_in_complete_regimes():
    # hits would contradict completeness: any finding is a failure
    assert oracle.search_indistinguishable(1, 3, 2, 4, budget=40, seed=9) == []
    assert oracle.search_indistinguishable(2, 3, 3, 4, budget=10, seed=9) == []


def test_search_is_deterministic_and_reports_provenance():
    a = oracle.search_indistinguishable(1, 1, 1, 3, budget=30, seed=5)
    b = oracle.search_indistinguishable(1, 1, 1, 3, budget=30, seed=5)
    assert a == b
    for finding in a:
        assert {"trial", "seed", "ell", "iters", "cloud_a", "cloud_b"} <= set(finding)
    # sharding the same budget yields the same findings
    lo = oracle.search_indistinguishable(1, 1, 1, 3, budget=30, seed=5,
                                         trials=range(0, 15))
    hi = oracle.search_indistinguishable(1, 1, 1, 3, budget=30, seed=5,
                                         trials=range(15, 30))
    assert lo + hi == a


def _reference_search_pair(ell, iters, d, n, seed, trial):
    """A search trial's fingerprints, from `PointCloud`s colored one after the other."""
    base = seed * 1_000_003 + trial * 7919
    if trial % 2 == 0:
        a, b = (oracle.random_cloud(n, d, base + i, grid=2, span=1) for i in (0, 1))
    else:
        a, b = (oracle._symmetric_cloud(n, d, base + i, grid=2) for i in (0, 1))
        if a is None or b is None:
            return None
    inter = Interner("exact")
    return a, b, [fingerprint(run_wl(c, ell, iters, interner=inter)) for c in (a, b)]


def test_search_fingerprints_match_coloring_the_clouds(monkeypatch):
    """The search's lockstep trials on integer numerators tap the fingerprints of
    `random_cloud` / `_symmetric_cloud` -> `run_wl` -> `fingerprint`, and its
    findings are the pairs whose fingerprints tie and the oracle rejects."""
    tapped = []

    def tap(store, iteration=None):
        tapped.append(fingerprint(store, iteration))
        return tapped[-1]

    monkeypatch.setattr(wl, "fingerprint", tap)
    regimes = [(1, 4, 1, 1), (2, 6, 1, 3), (2, 10, 1, 3), (3, 6, 2, 3), (3, 5, 3, 1),
               (2, 4, 1, 0), (1, 3, 1, 2), (2, 5, 2, 0), (3, 4, 3, 2)]
    ties = 0
    for d, n, ell, iters in regimes:
        for seed in (0, 3):
            tapped.clear()
            found = oracle.search_indistinguishable(ell, iters, d, n, 6, seed)
            want, findings = [], []
            for trial in range(6):
                ref = _reference_search_pair(ell, iters, d, n, seed, trial)
                if ref is None:
                    continue
                a, b, fps = ref
                want += [fp.digest() for fp in fps]
                if fps[0].entries == fps[1].entries:
                    ties += 1
                    if oracle.is_isometric(a, b) is None:
                        findings.append((trial, [[str(c) for c in p] for p in a.points],
                                         [[str(c) for c in p] for p in b.points]))
            assert [fp.digest() for fp in tapped] == want
            assert [(f["trial"], f["cloud_a"], f["cloud_b"]) for f in found] == findings
    assert ties > 0


def test_search_tie_path_findings_are_pinned():
    # at iters = 0 every pair of the same n ties, so every trial reaches the oracle
    found = oracle.search_indistinguishable(1, 0, 2, 4, 10, 5)
    assert [f["trial"] for f in found] == list(range(10))
    assert found[0] == {"trial": 0, "seed": 5, "ell": 1, "iters": 0, "dim": 2,
                        "cloud_a": [["1", "0"], ["1/2", "0"], ["-1/2", "1/2"], ["-1", "-1/2"]],
                        "cloud_b": [["-1", "1/2"], ["1", "-1/2"], ["1", "1/2"], ["1/2", "-1"]]}
    digest = hashlib.blake2b(json.dumps(found, sort_keys=True).encode(), digest_size=16)
    assert digest.hexdigest() == "5230f3cad435045988c9e5f3802043eb"


def test_search_rejects_bad_ell_and_iters():
    with pytest.raises(ValueError, match="ell"):
        oracle.search_indistinguishable(0, 1, 2, 4, 2, 1)
    with pytest.raises(ValueError, match="iters"):
        oracle.search_indistinguishable(1, -1, 2, 4, 2, 1)


def test_search_keeps_the_tuple_cap():
    # 50^3 tuples exceed the default cap of 100 000: nothing is interned
    with pytest.raises(CapExceededError, match="exceeds the cap"):
        oracle.search_indistinguishable(3, 1, 3, 50, 1, 0)
