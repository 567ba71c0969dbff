import math
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from geowl import oracle
from geowl.errors import CapExceededError, InconsistentDataError
from geowl.geometry import PointCloud, affine_dim, anchor_embed, gram_affine_dim, mirror_pair, \
    sq_dist, squared_distance_matrix, trilaterate
from geowl.oneshot import (_color_tuple_data, _frame_points, _halfspace_points, _pair_sum,
                           _pair_sums, enumerate_candidates, reconstruct_one_iter,
                           supporting_tuple_scan, total_distance_sum)
from geowl.report import reconstruct
from geowl.wl import run_wl

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


def _hyperplane_colors(store, tol=1e-9):
    """Anchors and records of each hyperplane tuple color, in digest order."""
    digests = store.interner.digests
    for c in sorted(set(store.tables[1]), key=lambda c: digests[c]):
        mat, tuples = _color_tuple_data(store, c)
        if gram_affine_dim(mat, tol) == store.dim - 1:
            yield anchor_embed(mat, store.dim, tol), tuples


def _frame_point(anchors, r, tol=1e-9):
    """One record solved alone in anchor_embed's frame: span coordinates t on
    the first d-1 axes, and the height sqrt(r_1 - |t|^2), 0 at most the
    resident limit, on the last."""
    V, r = anchors[1:, :-1], np.asarray(r, dtype=float)
    t = np.linalg.lstsq(V, (r[0] + np.sum(V * V, axis=1) - r[1:]) / 2.0, rcond=None)[0] \
        if V.size else np.zeros(0)
    h2 = r[0] - float(t @ t)
    scale = max(1.0, float(r.max()), float(np.abs(anchors).max()))
    return np.append(t, 0.0 if h2 <= tol * scale * 100 else math.sqrt(h2))


def _solo_frame(anchors, tuples, tol=1e-9):
    return np.array([_frame_point(anchors, t, tol) for t in tuples])


def _positive_side(anchors, tuples, tol=1e-9):
    return np.array([mirror_pair(anchors, t, tol)[0] for t in tuples])


def _trilaterated(anchors, tuples, tol=1e-9):
    return np.array([trilaterate(anchors, t, tol) for t in tuples])


def _sum_matches(points, ds_total, tol=1e-9):
    n = len(points)
    return abs(_pair_sum(points) - ds_total) <= tol * n * n * max(1.0, ds_total)


def _reference_one_iter(store, halfspace, span, tol=1e-9):
    """Reference scan: every entry of every hyperplane color placed by
    halfspace, in digest order; the span branch places the records of the
    first color of greatest dimension by span."""
    d, n = store.dim, store.n
    ds_total = total_distance_sum(store)
    tried = 0
    for tried, (anchors, tuples) in enumerate(_hyperplane_colors(store, tol), 1):
        points = halfspace(anchors, tuples, tol)
        if _sum_matches(points, ds_total, tol) and len(set(map(tuple, points))) == n:
            return tried, points
    assert tried == 0, "the reference scan accepted no tuple"
    digests = store.interner.digests
    data = [_color_tuple_data(store, c)
            for c in sorted(set(store.tables[1]), key=lambda c: digests[c])]
    dims = [gram_affine_dim(mat, tol) for mat, _ in data]
    mat, tuples = data[dims.index(max(dims))]
    return 1, span(anchor_embed(mat, d, tol), tuples, tol)


def test_lazy_scan_matches_reference_scan():
    methods = set()
    for k, cloud in enumerate(_scan_clouds()):
        store = run_wl(cloud, cloud.dim, 1)
        rep = reconstruct_one_iter(store)
        got = rep.cloud.as_array()
        tried, points = _reference_one_iter(store, _solo_frame, _solo_frame)
        assert rep.counters["candidates_tried"] == tried, k
        assert np.array_equal(got, points), k
        # mirror pairs and trilateration, each in an SVD basis of the anchors' span
        tried, points = _reference_one_iter(store, _positive_side, _trilaterated)
        assert rep.counters["candidates_tried"] == tried, k
        assert float(np.abs(got - points).max()) <= 1e-9 * max(1.0, float(np.abs(points).max())), k
        methods.add(rep.method)
    assert methods == {"oneshot-halfspace", "oneshot-span"}


def test_height_identity_holds_exactly_when_pair_sum_matches():
    seen = set()
    for k, cloud in enumerate(_scan_clouds()):
        store = run_wl(cloud, cloud.dim, 1)
        ds_total, sq_total = _pair_sums(store)
        for anchors, tuples in _hyperplane_colors(store):
            points, supports = _halfspace_points(anchors, tuples, sq_total, 1e-9)
            matches = _sum_matches(points, ds_total)
            assert supports == matches, k
            seen.add(matches)
    assert seen == {True, False}


def test_frame_with_fewer_axes_than_the_rank():
    # exactly a hyperplane tuple, but anchor_embed finds no axis for a gap of 1e-12:
    # it is tried and rejected, not a ValueError
    cloud = PointCloud(2, ((F(0), F(0)), (F(1, 10 ** 12), F(0)), (F(0), F(1)), (F(1), F(1))))
    mat = squared_distance_matrix(cloud.points[:2])
    assert gram_affine_dim(mat) == 1 and not anchor_embed(mat, 2).any()
    rep = reconstruct(cloud, "oneshot")
    assert rep.method == "oneshot-halfspace" and rep.verified
    assert rep.counters["candidates_tried"] == 3
    tried, points = _reference_one_iter(run_wl(cloud, 2, 1), _solo_frame, _solo_frame)
    assert tried == 3 and np.array_equal(rep.cloud.as_array(), points)


def test_frame_points_rows_equal_one_record_solves():
    # the batched solve rounds each row as a solve of that record alone, for
    # frames up to d = 6, where strided rows would round differently
    for seed in range(20):
        d = 2 + seed % 5
        cloud = oracle.random_cloud(d + 6, d, seed=9400 + seed)
        anchors = anchor_embed(squared_distance_matrix(cloud.points[:d]), d)
        R2 = np.array([[float(sq_dist(p, a)) for a in cloud.points[:d]] for p in cloud.points])
        points = _frame_points(anchors, R2, 1e-9)[0]
        assert np.array_equal(points, _solo_frame(anchors, R2)), seed


def test_frame_points_snap_heights_at_the_resident_limit():
    # the record (1, 0) on the anchors' line, lifted by h^2 = -1/2, 1/2 and 2 times
    # the resident limit 1e-7 * scale (scale 2, the anchors' largest coordinate)
    anchors = anchor_embed(squared_distance_matrix([(F(0), F(0)), (F(2), F(0))]), 2)
    R2 = np.array([[1 + k * 1e-7, 1 + k * 1e-7] for k in (-1, 1, 4)])
    points, h2, scale = _frame_points(anchors, R2, 1e-9)
    assert scale.tolist() == [2.0] * 3 and np.allclose(points[:, 0], 1.0, rtol=0, atol=1e-15)
    assert points[:, 1].tolist() == [0.0, 0.0, math.sqrt(h2[2])]
    with pytest.raises(InconsistentDataError):
        _frame_points(anchors, np.array([[1 - 4e-7, 1 - 4e-7]]), 1e-9)
    # d = 1: no span axis, the height is the distance to the anchor
    assert _frame_points(np.zeros((1, 1)), np.array([[4.0], [0.0]]), 1e-9)[0].tolist() == \
        [[2.0], [0.0]]


def test_reconstruct_n30_d3():
    # geowl gen --n 30 --d 3 --seed 2; ranking tuples by resident count tried 419
    rep = reconstruct(oracle.random_cloud(30, 3, 2), "oneshot")
    assert rep.method == "oneshot-halfspace"
    assert rep.counters["candidates_tried"] == 5
    assert rep.alignment is not None


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
