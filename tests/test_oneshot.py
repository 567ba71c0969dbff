import math
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from geowl import oracle
from geowl.errors import CapExceededError
from geowl.geometry import PointCloud, affine_dim, anchor_embed, gram_affine_dim, \
    mirror_pair, sq_dist, squared_distance_matrix
from geowl.oneshot import (_color_tuple_data, _pair_sum, enumerate_candidates,
                           reconstruct_one_iter, supporting_tuple_scan, total_distance_sum)
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


def _eager_one_iter(store, tol=1e-9):
    """Reference scan: mirror pairs for every entry, tuples ranked by residents."""
    d, n = store.dim, store.n
    digests = store.interner.digests
    ranked = []
    for c in set(store.tables[1]):
        mat, tuples = _color_tuple_data(store, c)
        if gram_affine_dim(mat, tol) == d - 1:
            cands = [mirror_pair(anchor_embed(mat, d, tol), t, tol) for t in tuples]
            ranked.append((-sum(len(cc) == 1 for cc in cands), digests[c], cands))
    ranked.sort(key=lambda r: r[:2])
    ds_total = total_distance_sum(store)
    for tried, (_, _, cands) in enumerate(ranked, 1):
        points = np.array([cc[0] for cc in cands])
        if (abs(_pair_sum(points) - ds_total) <= tol * n * n * max(1.0, ds_total)
                and len(set(map(tuple, points))) == n):
            return tried, points
    raise AssertionError("the eager scan accepted no tuple")


def test_lazy_scan_matches_eager_ranking():
    for seed in range(30):
        d, n = (2, 5 + seed % 8) if seed < 16 else (3, 5 + seed % 5)
        cloud = oracle.random_cloud(n, d, seed=9100 + seed, grid=4, span=2)
        store = run_wl(cloud, d, 1)
        rep = reconstruct_one_iter(store)
        tried, points = _eager_one_iter(store)
        assert rep.counters["candidates_tried"] == tried, seed
        assert np.array_equal(rep.cloud.as_array(), points), seed


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
