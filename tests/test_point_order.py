"""The pipelines are label-free: the order of a cloud's points changes nothing."""

import numpy as np
import pytest

from geowl import oracle, reconstruct
from geowl.geometry import PointCloud


@pytest.mark.parametrize("algorithm, n, d, seeds", [
    ("wl2d", 12, 2, (1, 2, 3)), ("wlnd", 10, 3, (1, 2, 3)), ("oneshot", 12, 2, (1, 2, 3))])
def test_point_order_changes_no_output(algorithm, n, d, seeds):
    # each cloud in its own order and three shuffles: bit-identical points and
    # equal search counts (candidates tried, planar rounds, elimination depth)
    for seed in seeds:
        cloud = oracle.random_cloud(n, d, seed)
        runs = []
        for k in range(4):
            order = np.random.default_rng(k).permutation(n) if k else range(n)
            rep = reconstruct(PointCloud(d, tuple(cloud.points[i] for i in order)), algorithm)
            assert rep.verified, (seed, k)
            counts = {key: rep.counters.get(key)
                      for key in ("candidates_tried", "rounds", "depth")}
            runs.append((rep.cloud.points, counts))
        assert all(run == runs[0] for run in runs), seed
