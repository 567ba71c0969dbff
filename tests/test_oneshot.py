import math
from fractions import Fraction as F
from itertools import combinations, islice, product

import numpy as np
import pytest

from geowl import oneshot, oracle
from geowl.errors import CapExceededError, InconsistentDataError
from geowl.geometry import PointCloud, SquaredDistanceMatrix, _gram, affine_dim, anchor_embed, \
    gram_affine_dim, gram_basis, mirror_pair, sq_dist, squared_distance_matrix, trilaterate
from geowl.oneshot import (BLOCK, _heights, _pair_sum, _pair_sums, _placed, _rows, _solve,
                           enumerate_candidates, reconstruct_one_iter,
                           supporting_tuple_scan, total_distance_sum)
from geowl.report import reconstruct
from geowl.wl import ColorStore, run_wl

SQUARE = PointCloud(2, ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
TET = PointCloud(3, ((F(0), F(0), F(0)), (F(1), F(0), F(0)),
                     (F(0), F(1), F(0)), (F(0), F(0), F(1))))


def _direct_pair_sum(cloud):
    return sum(math.sqrt(float(sq_dist(p, q)))
               for p in cloud.points for q in cloud.points)


def test_total_distance_sum_examples():
    two = PointCloud(2, ((F(0), F(0)), (F(3), F(0))))
    assert total_distance_sum(run_wl(two, 2, 1)) == pytest.approx(6.0, abs=1e-12)
    two3 = PointCloud(3, ((F(0), F(0), F(0)), (F(3), F(0), F(0))))
    assert total_distance_sum(run_wl(two3, 3, 1)) == pytest.approx(6.0, abs=1e-12)
    single = PointCloud(2, ((F(1), F(2)),))
    assert total_distance_sum(run_wl(single, 2, 1)) == 0.0


def test_total_distance_sum_matches_direct():
    for seed in range(30):
        d = 1 + seed % 3
        cloud = oracle.random_cloud(2 + seed % 5, d, seed=seed)
        got = total_distance_sum(run_wl(cloud, d, 1))
        assert abs(got - _direct_pair_sum(cloud)) < 1e-9


def test_enumerate_candidates_counts():
    # all points on the anchors' span: single candidate
    line = [(F(0), F(0)), (F(2), F(0))]
    tuples = [(F(0), F(4)), (F(4), F(0)), (F(1), F(1))]
    anchors = anchor_embed(squared_distance_matrix(line), 2)
    cands = enumerate_candidates(anchors, tuples)
    assert len(cands) == 1
    # one off-plane point: still a single candidate after quotienting
    tuples.append((F(1), F(5)))
    cands = enumerate_candidates(anchors, tuples)
    assert len(cands) == 1
    # two off-plane points: two candidates
    tuples.append((F(2), F(2)))
    cands = enumerate_candidates(anchors, tuples)
    assert len(cands) == 2
    with pytest.raises(CapExceededError):
        enumerate_candidates(anchors, tuples, cap=1)


def test_candidates_realize_distances():
    anchors = anchor_embed(squared_distance_matrix(
        [(F(0), F(0)), (F(2), F(0))]), 2)
    tuples = [(F(0), F(4)), (F(4), F(0)), (F(2), F(2)), (F(1), F(5))]
    for cand in enumerate_candidates(anchors, tuples):
        for point, target in zip(cand.points, tuples):
            for a, t in zip(anchors, target):
                assert abs(float(np.sum((np.array(point) - a) ** 2)) - float(t)) < 1e-9
        assert cand.total == pytest.approx(sum(
            math.sqrt(float(sq_dist(p, q)))
            for p in cand.points for q in cand.points), abs=1e-9)


def test_selection_uniqueness_on_accepted_tuple():
    # every candidate that leaves the half-space has a strictly larger total
    for cloud in (SQUARE, TET):
        d = cloud.dim
        store = run_wl(cloud, d, 1)
        ds = total_distance_sum(store)
        rep = reconstruct_one_iter(store)
        assert rep.method == "oneshot-halfspace"
        # rebuild candidates around the accepted reconstruction's anchors
        pts = rep.cloud.as_array()
        for idx in combinations(range(cloud.n), d):
            sel = [tuple(pts[i]) for i in idx]
            if affine_dim(sel) != d - 1:
                continue
            base = np.array(sel[0])
            rows = np.array(sel) - base
            _, _, vt = np.linalg.svd(rows)
            normal = vt[-1]
            sides = (pts - base) @ normal
            if not (np.all(sides >= -1e-9) or np.all(sides <= 1e-9)):
                continue
            anchors = np.array(sel)
            tuples = [tuple(float(np.sum((p - anchors[j]) ** 2))
                            for j in range(d)) for p in pts]
            cands = enumerate_candidates(anchors, tuples)
            halfspace = [c for c in cands if _one_sided(c, anchors)]
            assert len(halfspace) == 1
            assert halfspace[0].total == pytest.approx(ds, abs=1e-6)
            for c in cands:
                if c is not halfspace[0]:
                    assert c.total > halfspace[0].total + 1e-9
            break


def _one_sided(cand, anchors):
    base = anchors[0]
    rows = anchors - base
    _, _, vt = np.linalg.svd(rows)
    normal = vt[-1]
    sides = (np.array(cand.points) - base) @ normal
    return bool(np.all(sides >= -1e-9) or np.all(sides <= 1e-9))


def test_reconstruct_collinear_degenerate():
    line2 = PointCloud(2, ((F(0), F(0)), (F(1), F(0)), (F(3), F(0))))
    rep = reconstruct_one_iter(run_wl(line2, 2, 1))
    align = oracle.is_isometric(rep.cloud, line2)
    assert align is not None and align.residual < 1e-6

    # n=2 in R^3: every tuple spans less than d-1, the span path applies
    two = PointCloud(3, ((F(0), F(0), F(0)), (F(1), F(1), F(0))))
    rep = reconstruct_one_iter(run_wl(two, 3, 1))
    assert rep.method == "oneshot-span"
    align = oracle.is_isometric(rep.cloud, two)
    assert align is not None and align.residual < 1e-6


def test_reconstruct_fixtures():
    for cloud in (SQUARE, TET):
        rep = reconstruct_one_iter(run_wl(cloud, cloud.dim, 1))
        align = oracle.is_isometric(rep.cloud, cloud)
        assert align is not None and align.residual < 1e-6

    extra = PointCloud(3, TET.points + ((F(1), F(1), F(2)), (F(2), F(1, 2), F(1))))
    rep = reconstruct_one_iter(run_wl(extra, 3, 1))
    align = oracle.is_isometric(rep.cloud, extra)
    assert align is not None and align.residual < 1e-6


def test_reconstruct_line_case():
    line = PointCloud(1, ((F(0),), (F(1),), (F(3),)))
    rep = reconstruct_one_iter(run_wl(line, 1, 1))
    align = oracle.is_isometric(rep.cloud, line)
    assert align is not None and align.residual < 1e-9


def test_reconstruct_round_trip_random():
    for seed in range(45):
        d = 1 + seed % 3
        n = 2 + seed % 5
        cloud = oracle.random_cloud(n, d, seed=7000 + seed, grid=4, span=2)
        rep = reconstruct_one_iter(run_wl(cloud, d, 1))
        align = oracle.is_isometric(rep.cloud, cloud)
        assert align is not None and align.residual < 1e-6, (seed, d, n)


def _scan_clouds():
    """The 30 reference clouds and their float copies, n = 2 clouds in d = 2,
    a coplanar and a collinear d = 3 cloud, and a nearly collinear d = 2 cloud."""
    clouds = []
    for seed in range(30):
        d, n = (2, 5 + seed % 8) if seed < 16 else (3, 5 + seed % 5)
        clouds.append(oracle.random_cloud(n, d, seed=9100 + seed, grid=4, span=2))
    clouds += [PointCloud(c.dim, tuple(tuple(float(x) for x in p) for p in c.points))
               for c in clouds]
    clouds += [oracle.random_cloud(2, 2, seed=9200 + k, grid=4, span=2) for k in range(6)]
    flat = oracle.random_cloud(8, 2, seed=9300, grid=4, span=2)
    clouds.append(PointCloud(3, tuple((x, y, x - 2 * y + 1) for x, y in flat.points)))
    clouds.append(PointCloud(3, tuple((F(t), F(2 * t), F(-t, 3)) for t in (0, 1, 3, 4, 7))))
    # one point just above the resident limit over a line of nine, so the
    # barycenter's height is below that limit on the lines that support it
    clouds.append(PointCloud(2, tuple((F(x), F(0)) for x in range(9)) + ((F(4), F(1, 128)),)))
    return clouds


def _colors(store, tol=1e-9):
    """(dimension, matrix, records) of every tuple color in digest order, each
    color read alone by `tuple_distances`, in the store's arithmetic."""
    digests = store.interner.digests
    values = np.vectorize(store.value_of, otypes=[object]) \
        if store.interner.mode == "exact" else store.dist_floats.__getitem__
    for c in sorted(set(store.tables[1]), key=lambda c: digests[c]):
        mats, dists = store.tuple_distances([c])
        A = values(mats[0])
        yield gram_affine_dim(SquaredDistanceMatrix(store.ell, tuple(map(tuple, A.tolist()))),
                              tol), A, values(dists[0])


def _one_color(A, R, hyperplane, tol=1e-9, sq_total=None):
    """One color alone through oneshot's support test (a hyperplane color that
    fails it gives None) and placement."""
    G, R = _gram(A.astype(float)), R.astype(float)
    if hyperplane:
        supports = _rows(G[None], R[None], sq_total, tol)[3][0]
        return _placed(G, R, list(range(len(G))), tol) if supports else None
    return _placed(G, R, gram_basis(_gram(A), tol), tol)


def _anchor_frame(A, R, hyperplane, tol=1e-9, sq_total=None):
    """Mirror pairs (positive side) or trilateration, each in an SVD basis of the
    anchors' span, with anchors in anchor_embed's frame."""
    anchors = anchor_embed(SquaredDistanceMatrix(len(A), tuple(map(tuple, A.tolist()))),
                           len(A), tol)
    place = (lambda t: mirror_pair(anchors, t, tol)[0]) if hyperplane else \
        (lambda t: trilaterate(anchors, t, tol))
    return np.array([place(t) for t in R])


def _sum_matches(points, ds_total, tol=1e-9):
    n = len(points)
    return abs(_pair_sum(points) - ds_total) <= tol * n * n * max(1.0, ds_total)


def _reference_one_iter(store, place, tol=1e-9):
    """Reference scan, one color at a time: every hyperplane color's records placed
    by place in digest order until they match the pair sum with distinct points;
    else the records of the first color of greatest dimension."""
    d, n = store.dim, store.n
    ds_total, sq_total = _pair_sums(store)
    colors = list(_colors(store, tol))
    hyper = [(A, R) for dim, A, R in colors if dim == d - 1]
    for tried, (A, R) in enumerate(hyper, 1):
        points = place(A, R, True, tol, sq_total)
        if points is not None and _sum_matches(points, ds_total, tol) \
                and len(set(map(tuple, points))) == n:
            return tried, points
    assert not hyper, "the reference scan accepted no tuple"
    dims = [dim for dim, _, _ in colors]
    _, A, R = colors[dims.index(max(dims))]
    return 1, place(A, R, False, tol)


def test_lazy_scan_matches_reference_scan():
    methods = set()
    for k, cloud in enumerate(_scan_clouds()):
        store = run_wl(cloud, cloud.dim, 1)
        rep = reconstruct_one_iter(store)
        got = rep.cloud.as_array()
        # the block scan picks the color that a scan reading one color at a time
        # picks, and renders it bit for bit as that color alone
        tried, points = _reference_one_iter(store, _one_color)
        assert rep.counters["candidates_tried"] == tried, k
        assert np.array_equal(got, points), k
        tried, points = _reference_one_iter(store, _anchor_frame)
        assert rep.counters["candidates_tried"] == tried, k
        assert float(np.abs(got - points).max()) <= 1e-9 * max(1.0, float(np.abs(points).max())), k
        methods.add(rep.method)
    assert methods == {"oneshot-halfspace", "oneshot-span"}


def test_height_identity_holds_exactly_when_pair_sum_matches():
    seen = set()
    for k, cloud in enumerate(_scan_clouds()):
        store = run_wl(cloud, cloud.dim, 1)
        ds_total, sq_total = _pair_sums(store)
        for dim, A, R in _colors(store):
            if dim != cloud.dim - 1:
                continue
            G, R = _gram(A.astype(float)), R.astype(float)
            matches = _sum_matches(_placed(G, R, list(range(len(G))), 1e-9), ds_total)
            assert _rows(G[None], R[None], sq_total, 1e-9)[3][0] == matches, k
            seen.add(matches)
    assert seen == {True, False}


def test_frame_with_fewer_axes_than_the_rank():
    # exactly a hyperplane tuple that anchor_embed gives no axis for a gap of 1e-12;
    # the L D L^T frame has one (D = 1e-24), and the tuple is tried and rejected
    cloud = PointCloud(2, ((F(0), F(0)), (F(1, 10 ** 12), F(0)), (F(0), F(1)), (F(1), F(1))))
    mat = squared_distance_matrix(cloud.points[:2])
    assert gram_affine_dim(mat) == 1 and not anchor_embed(mat, 2).any()
    rep = reconstruct(cloud, "oneshot")
    assert rep.method == "oneshot-halfspace" and rep.verified
    assert rep.counters["candidates_tried"] == 3
    tried, points = _reference_one_iter(run_wl(cloud, 2, 1), _one_color)
    assert tried == 3 and np.array_equal(rep.cloud.as_array(), points)


def test_frame_points_rows_equal_one_record_solves():
    # a block of tuples rounds each row as that tuple alone, and each record as
    # that record alone, for frames up to d = 6
    for seed in range(20):
        d = 2 + seed % 5
        cloud = oracle.random_cloud(d + 6, d, seed=9400 + seed)
        pts = cloud.points
        tuples = list(combinations(range(len(pts)), d))[:8]
        A = np.array([[[float(sq_dist(pts[i], pts[j])) for j in t] for i in t] for t in tuples])
        R = np.array([[[float(sq_dist(p, pts[i])) for i in t] for p in pts] for t in tuples])
        G, sq_total = _gram(A), float(sum(sq_dist(p, q) for p in pts for q in pts))
        block = _rows(G, R, sq_total, 1e-9)
        Rb, h2 = block[:2]
        for k in range(len(tuples)):
            one = _rows(G[k:k + 1], R[k:k + 1], sq_total, 1e-9)
            assert all(np.array_equal(a[0], b[k]) for a, b in zip(one, block)), seed
            solo = [_solve(G[k], Rb[k, y:y + 1])[3][0] for y in range(len(pts) + 1)]
            assert np.array_equal(np.array(solo), h2[k]), seed


def test_frame_points_snap_heights_at_the_resident_limit():
    # the record (1, 0) on the line of the anchors (0, 0) and (2, 0), lifted by
    # h^2 = -1/2, 1/2 and 2 times the resident limit 100 tol r_max (r_max = 1);
    # scaled by 10^-16 (the coordinates by 10^-8) the limit scales with it
    for scale in (1.0, 1e-16):
        G = np.array([[4.0]]) * scale
        R = np.array([[1 + k * 1e-7, 1 + k * 1e-7] for k in (-0.5, 0.5, 2)]) * scale
        h2 = _solve(G, R)[3]
        assert np.allclose(h2 / scale, [-0.5e-7, 0.5e-7, 2e-7], rtol=1e-6, atol=0)
        heights, negative = _heights(h2, R, 1e-9)
        assert heights.tolist() == [0.0, 0.0, math.sqrt(h2[2])] and not negative
        R = np.array([[1 - 2e-7, 1 - 2e-7]]) * scale
        assert _heights(_solve(G, R)[3], R, 1e-9)[1]
        with pytest.raises(InconsistentDataError):
            _placed(G, R, [0], 1e-9)
    # d = 1: no span axis, the height is the distance to the anchor
    R = np.array([[4.0], [0.0]])
    assert _heights(_solve(np.zeros((0, 0)), R)[3], R, 1e-9)[0].tolist() == [2.0, 0.0]


def test_reconstruct_n30_d3():
    # geowl gen --n 30 --d 3 --seed 2; ranking tuples by resident count tried 419
    rep = reconstruct(oracle.random_cloud(30, 3, 2), "oneshot")
    assert rep.method == "oneshot-halfspace"
    assert rep.counters["candidates_tried"] == 5
    assert rep.alignment is not None


def _forbidden(*args, **kwargs):
    raise AssertionError("oneshot places no point one record at a time")


def test_scan_reads_one_block_at_a_time(monkeypatch):
    # the shapes of the benchmark's two `roundtrip` oneshot clouds (their poses
    # color alike) and gen --n 30 --d 3 --seed 2
    assert not hasattr(oneshot, "_color_tuple_data") and not hasattr(oneshot, "_frame_points")
    for name in ("anchor_embed", "mirror_pair", "trilaterate"):
        monkeypatch.setattr(oneshot, name, _forbidden)
    reads = []
    read = ColorStore.tuple_distances
    monkeypatch.setattr(ColorStore, "tuple_distances",
                        lambda self, colors: reads.append(list(colors)) or read(self, colors))
    for (n, d, seed), tried in (((24, 2, 911), 49), ((10, 3, 912), 4), ((30, 3, 2), 5)):
        store = run_wl(oracle.random_cloud(n, d, seed), d, 1)
        digests = store.interner.digests
        colors = sorted(set(store.tables[1]), key=lambda c: digests[c])
        hyper = (k for k, (dim, _, _) in enumerate(_colors(store)) if dim == d - 1)
        accepted = next(islice(hyper, tried - 1, None))
        reads.clear()
        assert reconstruct_one_iter(store).counters["candidates_tried"] == tried
        blocks = [colors[s:s + BLOCK] for s in range(0, len(colors), BLOCK)]
        assert reads == blocks[:accepted // BLOCK + 1], (n, d, seed)


def _det(M):
    return M[0][0] if len(M) == 1 else sum(
        (-1) ** j * M[0][j] * _det([r[:j] + r[j + 1:] for r in M[1:]]) for j in range(len(M)))


def _first_supporting(cloud):
    """Exact reference: the rank, among the hyperplane colors in digest order, of
    the first whose tuples' hyperplane leaves the cloud on one side."""
    d, pts = cloud.dim, cloud.points
    store = run_wl(cloud, d, 1)
    first = {}
    for t, c in zip(product(range(cloud.n), repeat=d), store.tables[1]):
        first.setdefault(c, t)
    digests = store.interner.digests
    rank = 0
    for c in sorted(first, key=lambda c: digests[c]):
        tup = [pts[i] for i in first[c]]
        if affine_dim(tup) != d - 1:
            continue
        rank += 1
        rows = [[a - b for a, b in zip(p, tup[0])] for p in tup[1:]]
        sides = {(v > 0) - (v < 0) for v in
                 (_det(rows + [[a - b for a, b in zip(y, tup[0])]]) for y in pts)}
        if not {1, -1} <= sides:
            return rank
    raise AssertionError("no supporting hyperplane tuple")


def test_oneshot_is_scale_free():
    # every scaled copy verifies with the method of the unscaled cloud and tries
    # exactly the hyperplane colors up to the first supporting one; the digest
    # order, and so that count, depends on the exact squared distances
    for d, n in ((1, 5), (2, 3), (2, 8), (3, 6)):
        for s in range(3):
            base = oracle.random_cloud(n, d, 100 + s)
            method = reconstruct(base, "oneshot").method
            for k in (-8, -6, -4, 0, 4, 8):
                cloud = PointCloud(d, tuple(tuple(x * F(10) ** k for x in p) for p in base.points))
                rep = reconstruct(cloud, "oneshot")
                assert rep.verified and rep.method == method, (d, n, s, k)
                assert rep.counters["candidates_tried"] == _first_supporting(cloud), (d, n, s, k)


def test_supporting_tuple_scan_examples():
    sel = supporting_tuple_scan(SQUARE)
    assert len(sel) == 2
    sel = supporting_tuple_scan(TET)
    assert len(sel) == 3


def test_supporting_tuple_scan_random():
    # existence is guaranteed whenever the affine dimension is at least d-1
    for seed in range(40):
        d = 2 + seed % 3
        cloud = oracle.random_cloud(3 + seed % 6, d, seed=8000 + seed, grid=3)
        if affine_dim(cloud.points) < d - 1:
            continue
        sel = supporting_tuple_scan(cloud)
        assert affine_dim(sel) == d - 1
