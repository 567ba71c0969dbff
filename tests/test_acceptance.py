"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from geowl import cli, oracle, recon2d, recon_nd, oneshot, reconstruct
from geowl.config import RunConfig
from geowl.geometry import (ConeSpec, Hyperplane, PointCloud, affine_dim,
                            barycenter, barycenter_sq_norms, mirror_pair, reflect,
                            solid_angle_mc, sq_dist)
from geowl.wl import Interner, fingerprint, run_wl


def _regular_polygon(m: int, phase: float = 0.0) -> PointCloud:
    pts = tuple((math.cos(2 * math.pi * k / m + phase),
                 math.sin(2 * math.pi * k / m + phase)) for k in range(m))
    return PointCloud(2, pts, label=f"{m}-gon")


def _planar_fixtures() -> list[PointCloud]:
    fixtures = [
        PointCloud(2, ((F(0), F(0)), (F(1), F(0)), (F(3), F(0)), (F(7), F(0))),
                   label="collinear"),
        PointCloud(2, ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))),
                   label="square"),
        _regular_polygon(3), _regular_polygon(5), _regular_polygon(6),
        _regular_polygon(8),
    ]
    return fixtures


def _spatial_fixtures() -> list[PointCloud]:
    return [
        PointCloud(3, ((F(0), F(0), F(0)), (F(1), F(0), F(0)),
                       (F(0), F(1), F(0)), (F(0), F(0), F(1))), label="tetrahedron"),
        PointCloud(3, ((F(1), F(1), F(1)), (F(1), F(-1), F(-1)),
                       (F(-1), F(1), F(-1)), (F(-1), F(-1), F(1))), label="simplex"),
        PointCloud(3, ((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)),
                       (F(1), F(1), F(0)), (F(2), F(1), F(0))), label="planar"),
    ]


def test_criterion_1_soundness_bit_exact():
    t0 = time.time()
    checked = 0
    for d in (2, 3):
        for n in range(2, 7):
            for trial in range(200):
                seed = d * 100_000 + n * 10_000 + trial
                cloud = oracle.random_cloud(n, d, seed=seed)
                moved = oracle.apply_random_isometry(cloud, seed=seed + 1)
                for ell in sorted({1, d - 1, d}):
                    inter = Interner("exact")
                    sa = run_wl(cloud, ell, 3, interner=inter)
                    sb = run_wl(moved, ell, 3, interner=inter)
                    for t in (1, 2, 3):
                        fa = fingerprint(sa, t)
                        fb = fingerprint(sb, t)
                        assert fa.to_bytes() == fb.to_bytes(), (d, n, trial, ell, t)
                        checked += 1
    print(f"\nPASS criterion 1: soundness, {checked} bit-exact fingerprint "
          f"equalities in {time.time() - t0:.1f}s")


# counters recorded for criterion 7
_PLANAR_RUNS: list[tuple[int, int]] = []
_SPATIAL_RUNS: list[tuple[int, int]] = []


def _roundtrip(cloud: PointCloud, algorithm: str, seed: int = 0):
    report = reconstruct(cloud, algorithm, RunConfig(seed=seed))
    return report.cloud, report.method, report.counters, report.alignment


def test_criterion_2_planar_roundtrips_and_completeness():
    t0 = time.time()
    clouds = [oracle.random_cloud(2 + s % 7, 2, seed=20_000 + s) for s in range(200)]
    clouds += _planar_fixtures()
    for cloud in clouds:
        _, _, counters, align = _roundtrip(cloud, "wl2d")
        assert align is not None and align.residual < 1e-6, cloud.label
        if counters.get("alpha"):
            _PLANAR_RUNS.append((counters["rounds"], counters["round_bound"]))
            assert counters["rounds"] <= counters["round_bound"]

    # completeness at desk scale: fingerprint equality iff oracle isometry
    inter = Interner("float", 1e-9)
    prints = [fingerprint(run_wl(c, 1, 3, mode="float", interner=inter))
              for c in clouds]
    mismatches = 0
    for i in range(len(clouds)):
        for j in range(i + 1, len(clouds)):
            equal = prints[i].entries == prints[j].entries
            iso = oracle.is_isometric(clouds[i], clouds[j]) is not None
            assert equal == iso, (i, j)
            mismatches += equal != iso
    print(f"\nPASS criterion 2: {len(clouds)} planar roundtrips (residual < 1e-6) "
          f"and {len(clouds) * (len(clouds) - 1) // 2} cross-pairs "
          f"(equality iff isometry) in {time.time() - t0:.1f}s")


def test_criterion_3_spatial_roundtrips():
    t0 = time.time()
    clouds = [oracle.random_cloud(2 + s % 5, 3, seed=30_000 + s, grid=4, span=2)
              for s in range(100)]
    clouds += _spatial_fixtures()
    for cloud in clouds:
        _, method, counters, align = _roundtrip(cloud, "wlnd")
        assert align is not None and align.residual < 1e-6, cloud.label
        if "depth" in counters:
            _SPATIAL_RUNS.append((counters["depth"], counters["gamma_bound"]))
            assert counters["depth"] <= counters["gamma_bound"]
    smoke = [oracle.random_cloud(2 + s % 4, 4, seed=40_000 + s, grid=3, span=2)
             for s in range(10)]
    for cloud in smoke:
        _, _, counters, align = _roundtrip(cloud, "wlnd")
        assert align is not None and align.residual < 1e-6
        if "depth" in counters:
            _SPATIAL_RUNS.append((counters["depth"], counters["gamma_bound"]))
    print(f"\nPASS criterion 3: {len(clouds)} spatial (d=3) and {len(smoke)} "
          f"d=4 roundtrips, residual < 1e-6, in {time.time() - t0:.1f}s")


def test_criterion_4_one_iteration_roundtrips():
    t0 = time.time()
    count = 0
    for d in (1, 2, 3):
        for s in range(100):
            cloud = oracle.random_cloud(2 + s % 5, d, seed=50_000 + 997 * d + s,
                                        grid=4, span=2)
            _, _, _, align = _roundtrip(cloud, "oneshot")
            assert align is not None and align.residual < 1e-6, (d, s)
            count += 1
    for cloud in _planar_fixtures() + _spatial_fixtures():
        _, _, _, align = _roundtrip(cloud, "oneshot")
        assert align is not None and align.residual < 1e-6, cloud.label
        count += 1
    print(f"\nPASS criterion 4: {count} one-iteration roundtrips, "
          f"residual < 1e-6, in {time.time() - t0:.1f}s")


def test_criterion_5_barycenter_identities_exact():
    t0 = time.time()
    for s in range(500):
        n = 2 + s % 7
        d = 1 + s % 4
        cloud = oracle.random_cloud(n, d, seed=60_000 + s)
        b = barycenter(cloud)
        f = [sum(sq_dist(p, q) for q in cloud.points) for p in cloud.points]
        total = sum(f)
        # per-point identity against the directly computed barycenter
        assert barycenter_sq_norms(f, total, n) == \
            [sq_dist(p, b) for p in cloud.points]
        # averaged identity: mean squared radius equals half the mean
        # squared pairwise distance
        lhs = F(sum(sq_dist(b, y) for y in cloud.points), n)
        rhs = F(sum(sq_dist(y, z) for y in cloud.points for z in cloud.points),
                2 * n * n)
        assert lhs == rhs
    print(f"\nPASS criterion 5: barycenter identities exact on 500 clouds "
          f"in {time.time() - t0:.1f}s")


def test_criterion_6_geometric_lemma_suite():
    t0 = time.time()
    rng = np.random.default_rng(99)

    # mirror-pair symmetry on 100 instances
    done = 0
    trial = 0
    while done < 100:
        trial += 1
        d = 2 + trial % 3
        anchors = oracle.random_cloud(d, d, seed=70_000 + trial)
        if affine_dim(anchors.points) != d - 1:
            continue
        target = oracle.random_cloud(1, d, seed=71_000 + trial).points[0]
        cands = mirror_pair(anchors.points, [sq_dist(target, a)
                                             for a in anchors.points])
        h = Hyperplane.from_points(anchors.points)
        if len(cands) == 2:
            assert float(np.max(np.abs(reflect(cands[0], h) - cands[1]))) < 1e-9
        done += 1

    # reflection-distance inequality on 100 instances
    done = 0
    while done < 100:
        d = int(rng.integers(2, 5))
        pts = rng.uniform(-2, 2, size=(d, d))
        if affine_dim([tuple(p) for p in pts]) != d - 1:
            continue
        h = Hyperplane.from_points(pts)
        a, b = rng.uniform(-3, 3, size=d), rng.uniform(-3, 3, size=d)
        sa, sb = h.signed_distance(a), h.signed_distance(b)
        if sa * sb <= 0 or min(abs(sa), abs(sb)) < 1e-3:
            continue
        a2, b2 = reflect(a, h), reflect(b, h)
        dab = float(np.linalg.norm(a - b))
        assert abs(dab - float(np.linalg.norm(a2 - b2))) < 1e-12
        assert dab < float(np.linalg.norm(a - b2))
        done += 1

    # cone-angle monotonicity with common random numbers, 100 instances
    for k in range(100):
        d = 2 + k % 2
        while True:
            gens = rng.uniform(-1, 1, size=(d, d))
            if abs(np.linalg.det(gens)) > 0.3:
                break
        lams = rng.uniform(0.25, 1.0, size=d)
        y = np.sum(gens * lams[:, None], axis=0)
        seed = 80_000 + k
        big = solid_angle_mc(ConeSpec(generators=tuple(map(tuple, gens))),
                             1_000_000, seed=seed)
        small = solid_angle_mc(
            ConeSpec(generators=tuple(map(tuple, np.vstack([y, gens[1:]])))),
            1_000_000, seed=seed)
        assert small < big

    # reference solid angles at a million samples
    est2 = solid_angle_mc(ConeSpec(generators=((1.0, 0.0), (0.0, 1.0))),
                          1_000_000, seed=1)
    assert abs(est2 - math.pi / 8) <= 0.02 * math.pi / 8
    est3 = solid_angle_mc(ConeSpec(generators=((1.0, 0, 0), (0, 1.0, 0),
                                               (0, 0, 1.0))), 1_000_000, seed=1)
    assert abs(est3 - math.pi / 18) <= 0.02 * math.pi / 18

    # supporting-hyperplane scan on 100 random clouds
    done = 0
    trial = 0
    while done < 100:
        trial += 1
        d = 2 + trial % 3
        cloud = oracle.random_cloud(3 + trial % 6, d, seed=90_000 + trial, grid=3)
        if affine_dim(cloud.points) < d - 1:
            continue
        sel = oneshot.supporting_tuple_scan(cloud)
        assert affine_dim(sel) == d - 1
        done += 1

    print(f"\nPASS criterion 6: geometric lemma suite (mirror symmetry, "
          f"reflection inequality, cone monotonicity, solid angles, "
          f"supporting scan) in {time.time() - t0:.1f}s")


def test_criterion_7_termination_bounds():
    t0 = time.time()
    planar = list(_PLANAR_RUNS)
    spatial = list(_SPATIAL_RUNS)
    if not planar:  # standalone invocation: generate a modest set
        for s in range(40):
            cloud = oracle.random_cloud(3 + s % 6, 2, seed=110_000 + s)
            _, _, counters, align = _roundtrip(cloud, "wl2d")
            assert align is not None
            if counters.get("alpha"):
                planar.append((counters["rounds"], counters["round_bound"]))
    if not spatial:
        for s in range(15):
            cloud = oracle.random_cloud(4 + s % 3, 3, seed=120_000 + s,
                                        grid=4, span=2)
            _, _, counters, align = _roundtrip(cloud, "wlnd")
            assert align is not None
            if "depth" in counters:
                spatial.append((counters["depth"], counters["gamma_bound"]))
    assert planar and all(r <= b for r, b in planar)
    assert spatial and all(d <= b for d, b in spatial)
    print(f"\nPASS criterion 7: termination bounds held on {len(planar)} planar "
          f"runs (max rounds {max(r for r, _ in planar)}) and {len(spatial)} "
          f"spatial runs (max depth {max(d for d, _ in spatial)}) "
          f"in {time.time() - t0:.1f}s")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    t0 = time.time()
    import json

    sq = tmp_path / "sq.json"
    sq.write_text(json.dumps({"dim": 2, "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}),
                  encoding="utf-8")
    tet = tmp_path / "tet.json"
    tet.write_text(json.dumps({"dim": 3,
                               "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                          [0, 0, 1]]}), encoding="utf-8")
    commands = [
        ["gen", "--n", "6", "--d", "3", "--seed", "5"],
        ["color", str(sq), "--ell", "2", "--iters", "3"],
        ["compare", str(sq), str(sq), "--ell", "1", "--iters", "2"],
        ["roundtrip", str(sq), "--algorithm", "wl2d"],
        ["roundtrip", str(tet), "--algorithm", "wlnd"],
        ["roundtrip", str(tet), "--algorithm", "oneshot"],
        ["search", "--d", "1", "--n", "3", "--ell", "1", "--iters", "1",
         "--budget", "8", "--seed", "2"],
    ]
    for argv in commands:
        outputs = []
        for run in range(2):
            out = tmp_path / f"out-{run}.json"
            code = cli.main(argv + ["-o", str(out)])
            assert code == 0, argv
            captured = capsys.readouterr()
            outputs.append((out.read_bytes(), captured.out))
        assert outputs[0] == outputs[1], argv
    print(f"\nPASS criterion 8: {len(commands)} CLI commands byte-identical "
          f"across repeated runs in {time.time() - t0:.1f}s")
