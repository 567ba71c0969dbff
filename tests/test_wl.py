import hashlib
import math
import random
from collections import Counter
from fractions import Fraction as F
from functools import partial
from itertools import chain, permutations, product

import numpy as np
import pytest

from geowl import oracle, reconstruct, wl
from geowl.config import RunConfig
from geowl.errors import CapExceededError, ParameterMismatchError
from geowl.geometry import PointCloud, barycenter, exact_sq_numerators, sq_dist
from geowl.wl import (KIND_MAT, KIND_NODE, KIND_NODE1, Interner, _as_float, _key_rows, compare,
                      fingerprint, first_distinguishing_iteration, initial_coloring, refine,
                      run_wl, store_from_sq_values)


def _line(*xs):
    return PointCloud(1, tuple((F(x),) for x in xs))


def test_initial_coloring_ell1_trivial():
    cloud = oracle.random_cloud(5, 3, seed=1)
    store = initial_coloring(cloud, 1)
    assert len(set(store.tables[0])) == 1


def test_initial_coloring_ell2_classes():
    cloud = PointCloud(2, ((F(0), F(0)), (F(3), F(4))))
    store = initial_coloring(cloud, 2)
    # diagonal tuples share the zero matrix, off-diagonal tuples the 25-matrix
    assert len(store.tables[0]) == 4
    assert len(set(store.tables[0])) == 2
    equi = PointCloud(2, ((0.0, 0.0), (1.0, 0.0), (0.5, 3 ** 0.5 / 2)))
    store = initial_coloring(equi, 2)
    assert len(set(store.tables[0])) == 2  # diagonal and edge


def test_refine_symmetric_pair_stays_merged():
    store = run_wl(_line(0, 1), 1, 1)
    assert len(set(store.tables[1])) == 1


def test_refine_distinguishes_line_clouds():
    # independent oracle: the multiset of per-point distance multisets
    a, b = _line(0, 1, 2), _line(0, 1, 3)

    def dist_multisets(cloud):
        return sorted(sorted(sq_dist(p, q) for q in cloud.points)
                      for p in cloud.points)

    assert dist_multisets(a) != dist_multisets(b)
    inter = Interner("exact")
    sa = run_wl(a, 1, 1, interner=inter)
    sb = run_wl(b, 1, 1, interner=inter)
    assert compare(fingerprint(sa, 1), fingerprint(sb, 1)) == "different"
    # and the colors decode back to exactly those multisets
    for store, want in ((sa, dist_multisets(a)), (sb, dist_multisets(b))):
        got = sorted(sorted(store.value_of(did) for did, _ in
                            store.interner.payload(cid, KIND_NODE1)[1])
                     for cid in store.tables[1])
        assert got == want


def test_refinement_property_random():
    # iteration i+1 never merges classes split at iteration i
    for seed in range(30):
        cloud = oracle.random_cloud(2 + seed % 5, 1 + seed % 3, seed=100 + seed)
        ell = 1 + seed % 2
        store = run_wl(cloud, ell, 3)
        for t in range(store.iterations):
            coarse = store.tables[t]
            fine = store.tables[t + 1]
            blocks = {}
            for idx, c in enumerate(fine):
                blocks.setdefault(c, set()).add(coarse[idx])
            assert all(len(s) == 1 for s in blocks.values())


def test_run_wl_shapes_and_caps():
    cloud = oracle.random_cloud(6, 2, seed=3)
    store = run_wl(cloud, 2, 3)
    assert len(store.tables) == 4
    assert all(len(t) == 36 for t in store.tables)
    store = run_wl(cloud, 1, 0)
    assert store.iterations == 0
    with pytest.raises(CapExceededError):
        run_wl(cloud, 2, 1, max_tuples=35)


def test_fingerprint_multiplicity_and_total():
    cloud = oracle.random_cloud(4, 2, seed=5)
    store = run_wl(cloud, 2, 2)
    fp = fingerprint(store)
    assert fp.total == 16
    assert sum(m for _, m in fp.entries) == 16


def test_fingerprint_isometry_and_permutation_invariance():
    for seed in range(20):
        cloud = oracle.random_cloud(2 + seed % 5, 2 + seed % 2, seed=200 + seed)
        moved = oracle.apply_random_isometry(cloud, seed=300 + seed)
        perm = PointCloud(cloud.dim, tuple(reversed(cloud.points)))
        inter = Interner("exact")
        ell = 1 + seed % 3
        fa = fingerprint(run_wl(cloud, ell, 2, interner=inter))
        fb = fingerprint(run_wl(moved, ell, 2, interner=inter))
        fc = fingerprint(run_wl(perm, ell, 2, interner=inter))
        assert fa.entries == fb.entries == fc.entries


def test_fingerprint_separates_non_congruent_lines():
    inter = Interner("exact")
    fa = fingerprint(run_wl(_line(0, 1), 1, 1, interner=inter))
    fb = fingerprint(run_wl(_line(0, 2), 1, 1, interner=inter))
    assert compare(fa, fb) == "different"


def test_compare_parameter_mismatch():
    cloud = oracle.random_cloud(3, 2, seed=9)
    fa = fingerprint(run_wl(cloud, 1, 1))
    fb = fingerprint(run_wl(cloud, 1, 2))
    with pytest.raises(ParameterMismatchError):
        compare(fa, fb)


def test_fingerprint_serialization_stable_across_runs():
    cloud = oracle.random_cloud(5, 3, seed=11)
    one = fingerprint(run_wl(cloud, 2, 3)).to_bytes()
    two = fingerprint(run_wl(cloud, 2, 3)).to_bytes()
    assert one == two
    moved = oracle.apply_random_isometry(cloud, seed=12)
    three = fingerprint(run_wl(moved, 2, 3)).to_bytes()
    assert one == three  # separate interners, same canonical bytes


def test_color_class_counts_monotone():
    for seed in range(20):
        cloud = oracle.random_cloud(3 + seed % 5, 2, seed=400 + seed)
        store = run_wl(cloud, 1, 4)
        counts = store.class_counts()
        assert counts == sorted(counts)
        # once stable between consecutive iterations, stays stable
        for t in range(1, len(counts) - 1):
            if counts[t] == counts[t - 1]:
                assert counts[t + 1] == counts[t]


def test_float_mode_snapping_matches_exact_partition():
    cloud = oracle.random_cloud(5, 2, seed=13)
    as_float = PointCloud(2, tuple(tuple(float(c) for c in p) for p in cloud.points))
    exact = run_wl(cloud, 1, 3)
    snapped = run_wl(as_float, 1, 3, mode="float", snap=1e-9)
    assert exact.class_counts() == snapped.class_counts()


def test_first_distinguishing_iteration():
    inter = Interner("exact")
    sa = run_wl(_line(0, 1, 2), 1, 3, interner=inter)
    sb = run_wl(_line(0, 1, 3), 1, 3, interner=inter)
    assert first_distinguishing_iteration(sa, sb) == 1
    sc = run_wl(_line(0, 1, 2), 1, 3, interner=inter)
    assert first_distinguishing_iteration(sa, sc) is None


def test_refine_is_incremental():
    cloud = oracle.random_cloud(4, 2, seed=17)
    store = initial_coloring(cloud, 2)
    refine(store)
    refine(store)
    assert store.iterations == 2
    assert fingerprint(store, 2).entries == fingerprint(run_wl(cloud, 2, 2), 2).entries


# Golden digests: fingerprints must stay bit-identical across engine changes.

def _posed(n, d, seed):
    return oracle.apply_random_isometry(oracle.random_cloud(n, d, seed=seed), seed=seed + 1)


def _floats(cloud):
    return PointCloud(cloud.dim, tuple(tuple(float(c) for c in p) for p in cloud.points))


_GRID = PointCloud(2, tuple((x, y) for x in range(3) for y in range(3)))
_HALF_GRID = PointCloud(2, tuple((F(x, 2), F(y, 3)) for x in range(3) for y in range(3)))


@pytest.mark.parametrize("ell,n,d,seed,counts,digest", [
    (1, 12, 2, 21, [1, 12, 12, 12], "80dd6d9667c833803fa9c4925cac8c76"),
    (1, 9, 1, 22, [1, 9, 9, 9], "f12aede1f0704e4e23bd83e6c76088af"),
    (2, 7, 3, 23, [22, 49, 49, 49], "09f985eaec389c9f9355469127380c7d"),
    (2, 6, 1, 24, [15, 36, 36, 36], "c99b118c75871e3be17cc8606ed29b79"),
    (3, 5, 2, 25, [91, 125, 125, 125], "f1b14de23923c1d10c3478b4dcd2e7d0"),
    (3, 4, 1, 26, [43, 64, 64, 64], "8eee34a8420aab854edaf85d91cf1e99"),
])
def test_golden_digest_exact(ell, n, d, seed, counts, digest):
    store = run_wl(_posed(n, d, seed), ell, 3)
    assert store.class_counts() == counts
    assert fingerprint(store).digest() == digest


@pytest.mark.parametrize("ell,n,d,seed,as_float,forced_float,forced_exact", [
    (1, 12, 2, 31, "b29d7983f9a92e64f1d933af8a394093", "b29d7983f9a92e64f1d933af8a394093",
     "3a4a0a8998d183484b522838d8db6527"),
    (2, 6, 3, 32, "63ef5799f7ce6684341a1142571ed1c9", "63ef5799f7ce6684341a1142571ed1c9",
     "ab33a53bada3be8ac239a091c86d06f0"),
    (3, 4, 1, 33, "8aa4816f08d231b6fad84751564941a9", "8aa4816f08d231b6fad84751564941a9",
     "2bc18cc3a79f061320ff89067d3ea751"),
])
def test_golden_digest_float(ell, n, d, seed, as_float, forced_float, forced_exact):
    cloud = _posed(n, d, seed)
    flt = _floats(cloud)
    assert fingerprint(run_wl(flt, ell, 3)).digest() == as_float
    assert fingerprint(run_wl(cloud, ell, 3, mode="float")).digest() == forced_float
    assert fingerprint(run_wl(flt, ell, 3, mode="exact")).digest() == forced_exact


@pytest.mark.parametrize("ell,n,d,as_float,counts,digest", [
    (1, 150, 3, False, [1, 150, 150, 150], "2a5ce027fbce19bf010284b82c9d169f"),
    (1, 150, 3, True, [1, 150, 150, 150], "ddd1f53c30cad027f848143585f2da52"),
    (2, 44, 3, False, [823, 1936, 1936, 1936], "bebd886169fa4ad5648249947aaf79a2"),
    (3, 14, 4, False, [2458, 2744, 2744, 2744], "627b73683d83d072590c9a716754384c"),
])
def test_golden_digest_benchmark_scale(ell, n, d, as_float, counts, digest):
    # the `color` benchmark's corpus shapes: encodings past 2 KB, thousands of
    # new classes per interning call
    cloud = oracle.random_cloud(n, d, 1000 * d + n)
    store = run_wl(_floats(cloud) if as_float else cloud, ell, 3)
    assert store.class_counts() == counts
    assert fingerprint(store).digest() == digest


@pytest.mark.parametrize("ell,counts,grid,half,half_float", [
    (1, [1, 3, 3, 3], "b99d87aec44b5ca360464f1b9486e032", "c8abd5dc99cc91584b45d16609a51965",
     "c7cf2149a2773b3c30bce966c675e6b4"),
    (2, [6, 15, 15, 15], "39b15a35b08b50edd517dd0af9cd38db", "3377d747fdc2dea3c3b74555c36b3852",
     "e2564c3474874f93091d848726ea90d1"),
])
def test_golden_digest_symmetric_grid(ell, counts, grid, half, half_float):
    # integer and mixed-denominator coordinates; many ties within each record list
    store = run_wl(_GRID, ell, 3)
    assert store.class_counts() == counts
    assert fingerprint(store).digest() == grid
    assert fingerprint(run_wl(_HALF_GRID, ell, 3)).digest() == half
    assert fingerprint(run_wl(_floats(_HALF_GRID), ell, 3)).digest() == half_float


def test_distance_matrix_matches_pairwise_sq_dist():
    # the integer-exact and the vectorised float paths agree with sq_dist bit for bit
    cloud = _posed(9, 3, 41)
    for c, mode in ((cloud, None), (_floats(cloud), "exact")):
        store = initial_coloring(c, 1, mode=mode)
        values = [list(map(store.value_of, row)) for row in store.dist_array.tolist()]
        assert values == [[F(sq_dist(p, q)) for q in c.points] for p in c.points]


@pytest.mark.parametrize("snap", [0.0, -1e-6, math.inf, math.nan])
def test_grid_step_must_be_positive_and_finite(snap):
    # inf put every float distance on one token, nan failed as a snap mismatch and
    # 0 as an overflow of the grid
    for mode in ("exact", "float"):
        with pytest.raises(ValueError, match="snap must be positive and finite"):
            Interner(mode, snap)
    with pytest.raises(ValueError, match="snap must be positive and finite"):
        run_wl(oracle.random_cloud(4, 2, 1), 2, 1, mode="float", snap=snap)
    with pytest.raises(ValueError, match="verify_snap must be positive and finite"):
        RunConfig(verify_snap=snap)


def test_rejected_run_leaves_interner_empty():
    cloud = oracle.random_cloud(6, 2, seed=3)
    for inter, kwargs, err in (
            (Interner("exact"), {"mode": "float"}, ValueError),
            (Interner("float", 1e-6), {"mode": "float", "snap": 1e-9}, ValueError),
            (Interner("exact"), {"max_tuples": 35}, CapExceededError)):
        with pytest.raises(err):
            initial_coloring(cloud, 2, interner=inter, **kwargs)
        assert inter.dist_keys == [] and inter.kinds == []
    # float values are all checked before the first is interned
    inter = Interner("float")
    with pytest.raises(ValueError, match="overflows"):
        initial_coloring(PointCloud(1, ((0.0,), (1.0,), (1e200,))), 1, interner=inter)
    assert inter.dist_keys == [] and inter.kinds == []
    nan = float("nan")
    with pytest.raises(ValueError, match="overflows"):
        store_from_sq_values([[0.0, 1.0, nan], [1.0, 0.0, 2.0], [nan, 2.0, 0.0]], 1, 1,
                             mode="float", interner=inter)
    assert inter.dist_keys == [] and inter.kinds == []
    # so are they in exact mode, where inf has no Fraction: a ValueError, not an
    # OverflowError, and the finite distances before it are not interned either
    inter = Interner("exact")
    with pytest.raises(ValueError, match="finite"):
        initial_coloring(PointCloud(1, ((0.0,), (1.0,), (1e200,))), 1, mode="exact",
                         interner=inter)
    assert inter.dist_keys == [] and inter.kinds == []


def test_float_snap_matches_rounding_each_value():
    # keys are int(v / snap + 0.5), negative values and .5 boundaries included, and
    # new keys get ids in row-major order of first occurrence, after the keys
    # already in a shared interner
    rng = random.Random(3)
    boundaries = [[0.0, 0.375, -0.375, 1e-9, -0.125],
                  [0.375, 0.0, 0.625, -0.625, 2.0 / 3.0],
                  [-0.375, 0.625, 0.0, 12345.125, -0.2],
                  [1e-9, -0.625, 12345.125, 0.0, 7.0],
                  [-0.125, 2.0 / 3.0, -0.2, 7.0, 0.0]]
    noise = [[rng.uniform(-3e-9, 3e-9) * rng.choice((1, 1e9)) for _ in range(6)]
             for _ in range(6)]
    for snap, values in ((0.25, boundaries), (1e-9, boundaries), (1e-9, noise)):
        inter = Interner("float", snap)
        inter.intern_distance(7.0)
        store = store_from_sq_values(values, 1, 1, mode="float", snap=snap, interner=inter)
        want = {int(7.0 / snap + 0.5): 0}
        for row in values:
            for v in row:
                want.setdefault(int(v / snap + 0.5), len(want))
        assert inter.dist_keys == list(want)
        assert store.dist_array.tolist() == [[want[int(v / snap + 0.5)] for v in row]
                                             for row in values]
    assert {int(v / 0.25 + 0.5) for row in boundaries for v in row} >= {-1, 0, 2, -2, 3}


def _intern_one_at_a_time(keys, values):
    """Ids of each value's Fraction, interned one at a time after `keys`, which
    is extended with the new keys."""
    index = {key: i for i, key in enumerate(keys)}
    ids = tuple(tuple(index.setdefault(F(v), len(index)) for v in row) for row in values)
    keys[:] = index
    return ids


def test_exact_keys_match_interning_each_value():
    # S fits int64 for the clouds of small coordinates and of a = 1518500249,
    # where d (2a)^2 is just below 2^63, and does not for a + 1 or 3^40 / 7
    a = 1518500249
    big = F(3 ** 40, 7)
    clouds = [_posed(8, 3, 71), _HALF_GRID,
              PointCloud(1, ((F(-a),), (F(a),), (F(0),))),
              PointCloud(1, ((F(-a - 1),), (F(a + 1),), (F(0),))),
              PointCloud(2, ((big, F(1, 2)), (-big, F(0)), (F(1, 3), big), (F(0), F(0)))),
              _floats(_posed(7, 3, 72))]
    mixed = [[0, F(1, 3), 0.5, 0.1, 10 ** 30],
             [F(1, 3), 0.0, 2, F(1, 10), F(1, 10 ** 20)],
             [0.5, 2.0, F(0), F(1, 2), 7],
             [0.1, F(1, 10), F(1, 2), 0, 2 ** -60],
             [10 ** 30, F(1, 10 ** 20), 7.0, 2 ** -60, 0]]
    cases = [(c, [[sq_dist(p, q) for q in c.points] for p in c.points]) for c in clouds]
    for cloud, values in cases + [(None, mixed)]:
        keys = [F(2), F(1, 3), F(0)]
        inter = Interner("exact")
        for key in keys:
            inter.intern_distance(key)
        want = _intern_one_at_a_time(keys, values)
        if cloud is None:
            store = store_from_sq_values(values, 2, 1, interner=inter)
        else:
            store = initial_coloring(cloud, 2, mode="exact", interner=inter)
        assert store.dist_array.tolist() == [list(row) for row in want]
        assert inter.dist_keys == keys


def test_distance_ranking_orders_keys_that_round_to_one_float():
    third, tiny = F(1, 3), F(1, 10 ** 30)
    huge = F(10 ** 400)  # past the float range
    inter = Interner("exact")
    for key in (F(2), third + tiny, huge + 1, third, F(0), huge, third - tiny):
        inter.intern_distance(key)
    assert float(third + tiny) == float(third) == float(third - tiny)
    for more in ((), (third + tiny / 2, huge - F(1, 2))):
        for key in more:
            inter.intern_distance(key)
        ranks, order = inter.distance_ranking()
        want = sorted(inter.dist_keys)
        assert [inter.dist_keys[i] for i in order] == want
        assert ranks.tolist() == [want.index(key) for key in inter.dist_keys]
    # a negative key past the float range ranks first, not with +inf
    inter.intern_distance(-huge)
    ranks, order = inter.distance_ranking()
    assert order[0] == len(inter.dist_keys) - 1 and inter._dist_floats[-1] == -math.inf


def test_exact_keys_are_reduced_pairs():
    inter = Interner("exact")
    assert inter.intern_keys([2, 6], 4).tolist() == [0, 1]
    # 1/2 and 3/2 again, over another denominator, and 4/2 = 2/1 new
    assert inter.intern_keys([1, 3, 4, 1], 2).tolist() == [0, 1, 2, 0]
    assert inter.dist_keys == [F(1, 2), F(3, 2), F(2)]
    assert inter.intern_keys([-10, 0], 20).tolist() == [3, 4]
    assert inter.dist_keys[3:] == [F(-1, 2), F(0)]
    with pytest.raises(ValueError, match="den must be a positive integer"):
        inter.intern_keys([1], 0)
    assert len(inter.dist_keys) == 5


def test_distance_frames_and_floats_are_set_when_interned():
    huge = F(10 ** 400)
    exact = Interner("exact")
    exact.intern_keys([0, 3, -6, 9, 2 ** 80], 9)
    for key in (huge, -huge, F(-10 ** 400, 3), 2.0 ** -1074, F(1, 10 ** 400)):
        exact.intern_distance(key)
    grid = Interner("float", 0.25)
    store_from_sq_values([[0.0, -1.0, 1e300], [-1.0, 0.0, 0.3], [1e300, 0.3, 0.0]], 1, 1,
                         mode="float", snap=0.25, interner=grid)
    grid.intern_keys([10 ** 400, -(10 ** 400), 5])
    for inter, enc in ((exact, str), (grid, lambda key: "q%d" % key)):
        framed = [len(enc(k)).to_bytes(4, "big") + enc(k).encode() for k in inter.dist_keys]
        assert inter._dist_frames == framed
        assert inter._dist_floats == list(map(_as_float, inter.dist_keys))
    assert exact._dist_floats[1:3] == [1 / 3, -2 / 3]
    assert exact._dist_floats[-5:] == [math.inf, -math.inf, -math.inf, 2.0 ** -1074, 0.0]
    assert grid._dist_floats[-3:] == [math.inf, -math.inf, 5.0]


def test_reinterning_known_keys_builds_no_fraction(monkeypatch):
    cloud = _posed(30, 2, 66)
    inter = Interner("exact")
    first = initial_coloring(cloud, 1, interner=inter)
    count = len(inter.dist_keys)

    def no_fraction(*args):
        raise AssertionError("a known key built a Fraction")
    monkeypatch.setattr(wl, "Fraction", no_fraction)
    # the image's coordinates have other denominators, its distances the same values
    image = oracle.apply_random_isometry(cloud, seed=11)
    second = initial_coloring(image, 1, interner=inter)
    assert len(inter.dist_keys) == count
    assert sorted(second.dist_array.ravel().tolist()) == sorted(first.dist_array.ravel().tolist())


# The per-tuple refinement that the array code in `wl.refine` replaced, kept
# as the reference: colors ranked by digest over all colors, one `sorted` call
# per tuple, record lists interned as tuples of tuples under the reference's
# own keys and lists, seeded with an interner's initial colors.

def _reference_ranking(keys):
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0] * len(keys)
    for r, i in enumerate(order):
        ranks[i] = r
    return ranks, order


class _ReferenceColors:
    def __init__(self, inter):
        self.dist_keys, self.dist_frames = inter.dist_keys, inter._dist_frames
        self.kinds = list(inter.kinds)
        self.digests = list(inter.digests)
        self.payloads = [inter.payload(c, k) for c, k in enumerate(self.kinds)]
        self.index = {}

    def add(self, key, enc):
        cid = self.index.get(key)
        if cid is None:
            cid = self.index[key] = len(self.kinds)
            self.kinds.append(key[0])
            self.payloads.append(key[1:])
            self.digests.append(hashlib.blake2b(enc, digest_size=16).digest())
        return cid


def _reference_intern_node(ref, ell, prev, records):
    enc = b"N" + ell.to_bytes(2, "big") + ref.digests[prev] + b"".join(
        map(ref.digests.__getitem__, chain.from_iterable(records)))
    return ref.add((KIND_NODE, prev, records), enc)


def _reference_intern_node1(ref, prev, records):
    enc = b"1" + ref.digests[prev] + b"".join(
        ref.dist_frames[did] + ref.digests[child] for did, child in records)
    return ref.add((KIND_NODE1, prev, records), enc)


def _reference_refine(store, inter):
    n, ell = store.n, store.ell
    prev = store.tables[-1]
    ranks, order = _reference_ranking(inter.digests)
    rprev = list(map(ranks.__getitem__, prev))
    color_of = order.__getitem__
    if ell == 1:
        dranks, dorder = _reference_ranking(inter.dist_keys)
        drank_of, dist_of = dranks.__getitem__, dorder.__getitem__
        table = []
        for x, row in enumerate(store.dist_array.tolist()):
            dcol, ccol = zip(*sorted(zip(map(drank_of, row), rprev)))
            table.append(_reference_intern_node1(
                inter, prev[x], tuple(zip(map(dist_of, dcol), map(color_of, ccol)))))
    else:
        strides = [n ** (ell - 1 - i) for i in range(ell)]
        table = []
        for t, digs in enumerate(product(range(n), repeat=ell)):
            rcols = [rprev[t - dig * s:t + (n - dig) * s:s] for dig, s in zip(digs, strides)]
            cols = zip(*sorted(zip(*rcols)))
            table.append(_reference_intern_node(
                inter, ell, prev[t], tuple(zip(*[map(color_of, col) for col in cols]))))
    store.tables.append(table)
    return store


def _equivalence_cases():
    exact = [(ell, n, d, 500 + 10 * ell + n + d) for ell, n, d in (
        (1, 7, 2), (1, 9, 1), (2, 2, 1), (2, 5, 1), (2, 6, 2), (2, 8, 3), (2, 7, 4),
        (3, 3, 1), (3, 4, 2), (3, 5, 3), (3, 6, 2), (4, 3, 2), (4, 4, 1), (4, 4, 3))]
    cases = [(ell, [_posed(n, d, seed)], None) for ell, n, d, seed in exact]
    cases += [(ell, [_floats(_posed(n, d, seed))], None) for ell, n, d, seed in exact[::2]]
    cases += [(ell, [_posed(n, d, seed)], "float") for ell, n, d, seed in exact[1::3]]
    line = PointCloud(1, tuple((F(x),) for x in (0, 1, 2, 3, 5, 6)))
    cases += [(ell, [cloud], None) for ell in (1, 2, 3, 4)
              for cloud in (_GRID, _HALF_GRID, line)][:10]
    cases += [(ell, [c, oracle.apply_random_isometry(c, seed=7), _posed(c.n, c.dim, 8)], mode)
              for ell, c, mode in ((2, _posed(6, 2, 61), None), (3, _posed(5, 3, 62), None),
                                   (2, _floats(_posed(6, 3, 63)), None),
                                   (3, _HALF_GRID, None), (4, line, None))]
    # ell = 1 at n >= 40; an isometric image colored second hits every class
    big = _posed(40, 2, 64)
    cases += [(1, [big], None), (1, [_floats(_posed(45, 3, 65))], None), (1, [big], "float"),
              (1, [big, oracle.apply_random_isometry(big, seed=9)], None)]
    return cases


def test_intern_nodes_inserts_each_new_row_once():
    inter = Interner("exact")
    calls = []

    def encode(ts, keys):
        calls.append(ts)
        return [b"enc%d" % t for t in ts]

    def intern(kind, heads, rows):
        keys = _key_rows(kind, heads, 4, 2)
        keys[:, 2:] = np.array(rows).reshape(len(rows), 4)
        return inter.intern_nodes(kind, keys, encode)

    a, b, c, d = [[1, 2], [3, 4]], [[3, 4], [1, 2]], [[5, 6], [7, 8]], [[0, 0], [0, 0]]
    assert intern(KIND_NODE, [9, 9], [a, b]) == [0, 1]
    # c repeats inside the call, a was interned by the call before, and the
    # same rows under another head are another color
    assert intern(KIND_NODE, [9, 9, 9, 9, 8, 9], [c, a, c, d, a, d]) == [2, 0, 2, 3, 4, 3]
    assert calls == [[0, 1], [0, 3, 4]]
    assert inter.kinds == [KIND_NODE] * 5
    digest = [hashlib.blake2b(b"enc%d" % t, digest_size=16).digest() for t in (0, 1, 0, 3, 4)]
    assert inter.digests == digest
    assert intern(KIND_NODE, [9, 8], [d, a]) == [3, 4] and calls[2:] == []
    # n = ell: a distance matrix row and a refined row of the same ints
    assert intern(KIND_MAT, [9], [a]) == [5]
    assert inter.kinds[5] == KIND_MAT and len(inter.digests) == 6
    assert inter.payload(5, KIND_MAT) == (9, (1, 2, 3, 4))
    assert inter.payload(0, KIND_NODE) == (9, ((1, 2), (3, 4)))


def test_isometric_image_hits_every_class():
    cloud = _posed(40, 2, 64)
    inter = Interner("exact")
    first = run_wl(cloud, 1, 3, interner=inter)
    count = len(inter.kinds), len(inter.dist_keys)
    second = run_wl(oracle.apply_random_isometry(cloud, seed=9), 1, 3, interner=inter)
    assert (len(inter.kinds), len(inter.dist_keys)) == count
    assert sorted(first.tables[3]) == sorted(second.tables[3])


def test_refine_matches_the_per_tuple_reference():
    """Array `refine` gives the reference's tables, ids, kinds, digests and payloads.

    Cases: exact and float clouds (native and forced float mode), symmetric
    grids and a line with repeated gaps, d = 1-4, ell = 1-4, ell = 1 clouds
    of 40 and 45 points, and clouds that share one interner, among them an
    isometric image colored second.  The reference interns its own tuple
    keys and digest bytes, so `wl`'s interning is not compared with itself.
    """
    cases = _equivalence_cases()
    assert len(cases) >= 40
    for ell, clouds, mode in cases:
        mode = mode or ("exact" if clouds[0].exact else "float")
        runs = []
        for reference in (False, True):
            inter = Interner(mode)
            stores = [initial_coloring(c, ell, mode=mode, interner=inter) for c in clouds]
            colors = _ReferenceColors(inter) if reference else inter
            step = partial(_reference_refine, inter=colors) if reference else refine
            for store in stores:
                for _ in range(3):
                    step(store)
            runs.append((colors, [s.tables for s in stores]))
        (new, new_tables), (ref, ref_tables) = runs
        assert new_tables == ref_tables
        assert new.kinds == ref.kinds and new.digests == ref.digests
        assert [new.payload(c, k) for c, k in enumerate(new.kinds)] == ref.payloads


def test_lockstep_refine_matches_refining_one_store_at_a_time():
    """`refine(*stores)` gives, at every iteration, the tables, kinds, digests and
    payloads of refining the stores one after the other: each case's clouds plus
    a partner of another shape, through one interner."""
    for ell, clouds, mode in _equivalence_cases():
        mode = mode or ("exact" if clouds[0].exact else "float")
        clouds = clouds + [_posed(clouds[0].n, clouds[0].dim, 99)]
        runs = []
        for lockstep in (False, True):
            inter = Interner(mode)
            stores = [initial_coloring(c, ell, mode=mode, interner=inter) for c in clouds]
            history = []
            for _ in range(3):
                if lockstep:
                    assert refine(*stores) is stores[0]
                else:
                    for store in stores:
                        refine(store)
                history.append((list(inter.kinds), list(inter.digests)))
            payloads = [inter.payload(c, k) for c, k in enumerate(inter.kinds)]
            runs.append(([s.tables for s in stores], history, payloads))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_stacked_iteration_0_matches_one_store_at_a_time(ell, b):
    """B matrices of keys interned in one call and built by one `_stores` call give
    the tables, distance keys, kinds and digests of building one store after the
    other through one interner, also after two lockstep refinements.  The clouds
    are a search's coarse-grid draws, random and mirror-symmetric, so distances
    and tuple matrices repeat within and across the clouds."""
    draws = [oracle._random_numerators(5, 3, 40 + i, 2, 1) if i % 2 == 0
             else oracle._symmetric_numerators(5, 3, 40 + i, 2) for i in range(b)]
    sqs = np.array([exact_sq_numerators(nums)[0] for nums in draws])
    inter = Interner("exact")
    ids = inter.intern_keys(sqs.ravel().tolist(), 4).reshape(sqs.shape)
    stacked = wl._stores(inter, ell, 3, ids, [None] * b)
    ref = Interner("exact")
    single = [store_from_sq_values(sq, ell, 3, den=4, interner=ref) for sq in sqs]
    for step in range(3):
        if step:
            refine(*stacked)
            refine(*single)
        assert [s.tables for s in stacked] == [s.tables for s in single]
        assert inter.dist_keys == ref.dist_keys and inter.kinds == ref.kinds
        assert inter.digests == ref.digests


def _lexsort_records(rprev, m):
    """The column-lexsort record order: every tuple's (n, ell) record ranks built
    whole, then ordered by one `np.lexsort` over the ell rank columns."""
    ell, n = rprev.ndim - 1, rprev.shape[1]
    records = np.empty(rprev.shape + (n, ell), dtype=np.int64)
    for i in range(ell):
        axes = [0, *(1 + j for j in range(ell) if j != i), 1 + i]
        records[..., i] = rprev.transpose(axes)[(slice(None),) * (1 + i) + (None,)]
    records = records.reshape(-1, n, ell)
    perm = np.lexsort([records[..., i] for i in reversed(range(ell))], axis=-1)
    return np.take_along_axis(records, perm[..., None], 1)


def test_ranks_per_word_is_exact_at_two_to_the_63():
    # m^k = 2^63 packs (the largest word is 2^63 - 1), one rank more does not
    assert wl._ranks_per_word(2 ** 21, 4) == 3 and wl._ranks_per_word(2 ** 21 + 1, 4) == 2
    assert wl._ranks_per_word(2, 64) == 63 and wl._ranks_per_word(2, 63) == 63
    assert wl._ranks_per_word(3, 64) == 39  # 3^39 < 2^63 < 3^40
    assert wl._ranks_per_word(2 ** 63, 3) == 1 and wl._ranks_per_word(1, 5) == 5


@pytest.mark.parametrize("b,n,ell,m,low", [
    (1, 5, 2, 7, 0), (2, 4, 3, 60, 0), (1, 3, 4, 81, 0), (1, 3, 3, 1, 0),
    (1, 4, 3, 2 ** 21, 2 ** 21 - 3),  # one word up to 2^63 - 1
    (2, 6, 2, 2 ** 40, 0), (1, 4, 3, 2 ** 22, 2 ** 22 - 3), (1, 3, 5, 7546, 0),  # two words
    (1, 4, 3, 5 * 2 ** 19, 5 * 2 ** 19 - 3)])  # two words: m^3 is about 2^63.97
def test_packed_records_match_the_column_lexsort(b, n, ell, m, low):
    rprev = np.random.default_rng(m).integers(low, m, size=(b,) + (n,) * ell)
    assert (wl._sorted_records(rprev, m) == _lexsort_records(rprev, m)).all()


def _refine_history(clouds, ell, mode, iters):
    """Tables, kinds and digests after each lockstep refinement of the clouds."""
    inter = Interner(mode)
    stores = [initial_coloring(c, ell, mode=mode, interner=inter) for c in clouds]
    history = []
    for _ in range(iters):
        refine(*stores)
        history.append(([s.tables[-1] for s in stores], list(inter.kinds), list(inter.digests)))
    return stores[0], history


def test_refine_matches_the_column_lexsort_reference(monkeypatch):
    """Packed record words give the column lexsort's tables, kinds and digests at
    every iteration: ell = 2-4, exact and float stores, symmetric grids and a
    line, and three clouds refined in lockstep."""
    packed, cases = wl._sorted_records, [c for c in _equivalence_cases() if c[0] >= 2]
    assert len(cases) >= 25 and sum(len(clouds) > 1 for _, clouds, _ in cases) >= 5
    for ell, clouds, mode in cases:
        mode = mode or ("exact" if clouds[0].exact else "float")
        runs = []
        for sort in (packed, _lexsort_records):
            monkeypatch.setattr(wl, "_sorted_records", sort)
            runs.append(_refine_history(clouds, ell, mode, 3)[1])
        assert runs[0] == runs[1], (ell, len(clouds), mode)


def test_refine_packs_two_words_per_record_at_ell_5(monkeypatch):
    # 7 546 classes at iteration 0 and 7 546^5 > 2^63: four ranks in the first
    # word and one in the second; the digest is the column lexsort's
    cloud = oracle.random_cloud(6, 3, 11)
    packed, runs = wl._sorted_records, []
    for sort in (packed, _lexsort_records):
        monkeypatch.setattr(wl, "_sorted_records", sort)
        runs.append(_refine_history([cloud], 5, "exact", 2))
    (store, history), (_, reference) = runs
    assert history == reference
    assert wl._ranks_per_word(len(set(store.tables[0])), 5) == 4
    assert fingerprint(store).digest() == "fcd5075da0560f149c316c1d7e4b96c1"


def test_lockstep_refine_rejects_unlike_stores():
    inter = Interner("exact")
    a = initial_coloring(oracle.random_cloud(5, 2, seed=1), 2, interner=inter)
    cases = [initial_coloring(oracle.random_cloud(5, 2, seed=2), 2),  # another interner
             initial_coloring(oracle.random_cloud(4, 2, seed=2), 2, interner=inter),
             initial_coloring(oracle.random_cloud(5, 2, seed=2), 1, interner=inter)]
    for other in cases:
        count = len(inter.kinds)
        with pytest.raises(ValueError, match="one interner and equal n and ell"):
            refine(a, other)
        assert a.iterations == 0 and other.iterations == 0 and len(inter.kinds) == count


def test_point_history_takes_each_record_row_as_its_slot_row():
    """At ell = 1 `_History` skips the sort and `_distinct_rows`: the general path
    (sorted slot rows, then their distinct rows) finds every color's row distinct,
    in color order, and sums the same values, on exact and float, random and
    symmetric clouds."""
    clouds = [oracle.random_cloud(n, d, seed=70 + n) for n, d in ((2, 1), (7, 2), (9, 1),
                                                                  (12, 3), (40, 2))]
    clouds += [c for c in (oracle._symmetric_cloud(n, d, 80 + n, 2)
                           for n, d in ((5, 1), (6, 2), (8, 2), (9, 3))) if c is not None]
    clouds += [_GRID, _HALF_GRID, _line(0, 1, 2, 3, 5, 6)]
    runs = [(c, run_wl(c, 1, 1, mode=mode)) for c in clouds for mode in ("exact", "float")]
    runs += [(_floats(c), run_wl(_floats(c), 1, 1)) for c in clouds]
    assert len(runs) >= 30
    for cloud, store in runs:
        h = wl._History(store, 1)
        _, recs = store.tuple_distances(h.c1)
        slots = np.sort(np.swapaxes(recs, 1, 2), -1).reshape(-1, store.n)
        first, inv = wl._distinct_rows(slots)
        assert first == list(range(len(h.c1))) and inv.tolist() == first
        assert (np.sort(h.nums[slots]) == np.sort(h.nums[recs[..., 0]])).all()
        center = barycenter(cloud)
        for p, c in zip(cloud.points, store.tables[1]):
            want = sq_dist(p, center)
            assert (h.value(h.norms[c][0]) == want if h.exact
                    else math.isclose(h.norms[c][0], want, rel_tol=1e-9, abs_tol=1e-8))


def _payload_decode(store, c):
    """tuple_distances of one iteration-1 color, decoded through Interner.payload."""
    inter, m = store.interner, store.ell
    if m == 1:
        return [[store.dist_array[0, 0]]], [[did] for did, _ in inter.payload(c, KIND_NODE1)[1]]
    prev, recs = inter.payload(c, KIND_NODE)
    mat = inter.payload(prev, KIND_MAT)[1]
    dists = [[inter.payload(r[1], KIND_MAT)[1][m]]
             + [inter.payload(r[0], KIND_MAT)[1][j] for j in range(1, m)] for r in recs]
    return [list(mat[i * m:(i + 1) * m]) for i in range(m)], dists


@pytest.mark.parametrize("ell,n,d", [(1, 7, 2), (2, 6, 3), (3, 4, 3)])
def test_readers_match_the_payload_decode(ell, n, d):
    store = run_wl(oracle.random_cloud(n, d, seed=40 + ell), ell, 2)
    kind = KIND_NODE1 if ell == 1 else KIND_NODE
    read_first = store.tables[1][1]
    store.interner.payload(read_first, kind)  # a payload read before the readers
    for it in (1, 2):
        colors = list(dict.fromkeys(store.tables[it]))
        prev, recs = store.nodes(colors)
        assert recs.shape == (len(colors), n, 2 if ell == 1 else ell)
        assert [(p, tuple(map(tuple, r))) for p, r in zip(prev.tolist(), recs.tolist())] == \
            [store.interner.payload(c, kind) for c in colors]
    colors = list(dict.fromkeys(store.tables[1]))
    assert read_first in colors
    mats, dists = store.tuple_distances(colors)
    assert [[m.tolist(), x.tolist()] for m, x in zip(mats, dists)] == \
        [list(_payload_decode(store, c)) for c in colors]
    # every ordered pair once, the (x, x) pairs included
    assert store.pair_distances() == Counter(store.dist_array.ravel().tolist())
    if ell >= 2:  # in order of first occurrence
        assert list(store.pair_distances()) == \
            list(dict.fromkeys(store.dist_array.ravel().tolist()))


def _unique_tuple_distances(store, colors):
    """tuple_distances as written with np.unique(return_inverse=True)."""
    prev, recs = store.nodes(colors)
    k, n, m = len(prev), store.n, store.ell
    used, at = np.unique(np.concatenate([prev, recs[..., :2].ravel()]), return_inverse=True)
    mats = store._packed(used.tolist(), KIND_MAT, m * m)[:, 2:]
    pairs = at.ravel()[k:].reshape(k, n, 2)
    dists = np.concatenate([mats[pairs[..., 1], m:m + 1], mats[pairs[..., 0], 1:m]], -1)
    return mats[at.ravel()[:k]].reshape(k, m, m), dists


@pytest.mark.parametrize("ell", [2, 3])
def test_tuple_distances_match_the_unique_form(ell):
    # through one shared interner the second cloud's color ids are not 0, 1, ...: blocks
    # in either order, with repeats, of one color and of none
    shared = Interner("exact")
    for n, seed in ((5, 61), (4, 62)):
        store = run_wl(oracle.random_cloud(n, 3, seed=seed), ell, 1, interner=shared)
        colors = list(dict.fromkeys(store.tables[1]))
        for block in (colors, colors[::-1][:7], colors[:3] + colors[:2], colors[3:4], []):
            for got, want in zip(store.tuple_distances(block),
                                 _unique_tuple_distances(store, block)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert (got == want).all()


def test_readers_reject_colors_of_another_kind():
    store = run_wl(oracle.random_cloud(5, 3, seed=3), 2, 2)
    with pytest.raises(ValueError, match="kind"):
        store.nodes(store.tables[0])  # initial colors are distance matrices
    with pytest.raises(ValueError, match="first refinement"):
        store.tuple_distances(store.tables[2][:1])
    line = run_wl(oracle.random_cloud(5, 2, seed=3), 1, 1)
    with pytest.raises(ValueError, match="kind"):
        line.tuple_distances(line.tables[0])
    with pytest.raises(ValueError, match="refinement"):
        initial_coloring(oracle.random_cloud(5, 2, seed=3), 1).pair_distances()


def test_point_coloring_is_not_complete_in_three_dimensions():
    """The paper's d - 1 bound is tight at d = 3: two non-isometric clouds of
    six points that 1-WL never tells apart and 2-WL splits at once."""
    a, b = (PointCloud(3, tuple(tuple(map(F, p)) for p in pts)) for pts in (
        ((-3, 0, 1), (-1, -3, 0), (0, -1, 3), (0, 1, -3), (1, 3, 0), (3, 0, -1)),
        ((-3, 1, 0), (-1, 0, -3), (0, -3, -1), (0, 3, 1), (1, 0, 3), (3, -1, 0))))
    sa, sb = run_wl(a, 1, 6), run_wl(b, 1, 6)
    for it in (1, 3, 6):
        assert compare(fingerprint(sa, it), fingerprint(sb, it)) == "equal"
    da, db = ([[sq_dist(p, q) for q in c.points] for p in c.points] for c in (a, b))
    assert sorted(chain.from_iterable(da)) == sorted(chain.from_iterable(db))
    assert not any(all(da[i][j] == db[s[i]][s[j]] for i in range(6) for j in range(6))
                   for s in permutations(range(6)))
    assert oracle.is_isometric(a, b) is None
    assert first_distinguishing_iteration(run_wl(a, 2, 1), run_wl(b, 2, 1)) == 1
    for cloud in (a, b):
        for algorithm in ("wlnd", "oneshot"):
            assert reconstruct(cloud, algorithm).verified
