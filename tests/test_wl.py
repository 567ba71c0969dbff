import random
from collections import Counter
from fractions import Fraction as F
from itertools import chain, permutations, product

import pytest

from geowl import oracle, reconstruct
from geowl.errors import CapExceededError, ParameterMismatchError
from geowl.geometry import PointCloud, sq_dist
from geowl.wl import (KIND_MAT, KIND_NODE, KIND_NODE1, Interner, compare, fingerprint,
                      first_distinguishing_iteration, initial_coloring, refine, run_wl,
                      store_from_sq_values)


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


# The per-tuple refinement that the array code in `wl.refine` replaced, kept
# as the reference: colors ranked by digest over the whole interner, one
# `sorted` call per tuple, record lists interned as tuples of tuples through
# the reference's own interning functions.

def _reference_ranking(keys):
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0] * len(keys)
    for r, i in enumerate(order):
        ranks[i] = r
    return ranks, order


def _reference_intern_node(inter, ell, prev, records):
    key = (KIND_NODE, prev, records)
    cid = inter._index.get(key)
    if cid is None:
        enc = b"N" + ell.to_bytes(2, "big") + inter.digests[prev] + b"".join(
            map(inter.digests.__getitem__, chain.from_iterable(records)))
        cid = inter._add(key, KIND_NODE, (prev, records), enc)
    return cid


def _reference_intern_node1(inter, prev, records):
    key = (KIND_NODE1, prev, records)
    cid = inter._index.get(key)
    if cid is None:
        enc = b"1" + inter.digests[prev] + b"".join(
            inter._dist_frames[did] + inter.digests[child] for did, child in records)
        cid = inter._add(key, KIND_NODE1, (prev, records), enc)
    return cid


def _reference_refine(store):
    inter = store.interner
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
    keys and digest bytes, so `wl`'s interning is not compared with itself.  At
    ell >= 2 the array sort compares rank tuples column by column and never
    packs ranks into one integer, so no class count can overflow it.
    """
    cases = _equivalence_cases()
    assert len(cases) >= 40
    for ell, clouds, mode in cases:
        mode = mode or ("exact" if clouds[0].exact else "float")
        runs = []
        for step in (refine, _reference_refine):
            inter = Interner(mode)
            stores = [initial_coloring(c, ell, mode=mode, interner=inter) for c in clouds]
            for store in stores:
                for _ in range(3):
                    step(store)
            runs.append((inter, [s.tables for s in stores]))
        (new, new_tables), (ref, ref_tables) = runs
        assert new_tables == ref_tables
        assert new.kinds == ref.kinds and new.digests == ref.digests
        assert [new.payload(c, k) for c, k in enumerate(new.kinds)] == \
            [ref.payload(c, k) for c, k in enumerate(ref.kinds)]


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
