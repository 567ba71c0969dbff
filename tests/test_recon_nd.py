import hashlib
import math
import random
import time
import warnings
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest

from geowl import RunConfig, oracle, recon_nd, reconstruct
from geowl.errors import ReconstructionError
from geowl.geometry import (ConeSpec, Hyperplane, PointCloud, _gram, barycenter, gram_affine_dim,
                            reflect, solid_angle_mc, sq_dist, squared_distance_matrix)
from geowl.oneshot import reconstruct_one_iter
from geowl.recon2d import reconstruct_planar
from geowl.recon_nd import (CandidateRejected, EnhancedProfile, ForbiddenRegion, GramCloud,
                            GramKernel, ProfileTable, _float_sqrt, _gram2, _numerators,
                            depth_bound, enhanced_profiles_from_wl3, mirror_lambdas,
                            reconstruct_fulldim, reconstruct_lowdim, reconstruct_nd,
                            select_cone_tuple)
from geowl.wl import _History, run_wl, run_wl_from_sq_values

TET = PointCloud(3, ((F(0), F(0), F(0)), (F(1), F(0), F(0)),
                     (F(0), F(1), F(0)), (F(0), F(0), F(1))))
PLANAR3 = PointCloud(3, ((F(0), F(0), F(0)), (F(1), F(0), F(0)),
                         (F(0), F(1), F(0)), (F(1), F(1), F(0)),
                         (F(2), F(1), F(0))))
# a gap of 1e-12 is exactly a full-rank tuple, but some of its float Gram
# matrices are singular
TINY_GAP = PointCloud(3, ((F(0), F(0), F(0)), (F(1, 10 ** 12), F(0), F(0)),
                          (F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(1), F(1), F(1))))


def _dyadic(cloud):
    """The cloud with its floats read exactly, as `reconstruct` reads it for wlnd."""
    return PointCloud(cloud.dim, tuple(tuple(map(F, p)) for p in cloud.points))


def _multiset(table):
    """A ProfileTable as a Counter of EnhancedProfile to multiplicity."""
    out = Counter()
    for r, m in enumerate(table.counts.tolist()):
        out[table.profile(r)] += m
    return out


def _direct_bary_tuples(cloud, m):
    """Oracle: squared barycenter distances per slot for every m-tuple."""
    b = barycenter(cloud)
    out = Counter()
    for tup in product(cloud.points, repeat=m):
        out[tuple(sq_dist(x, b) for x in tup)] += 1
    return out


def _direct_profiles(cloud, m):
    """Oracle: profile of (b, x_1, ..., x_m) for every m-tuple."""
    b = barycenter(cloud)
    out = Counter()
    for tup in product(cloud.points, repeat=m):
        anchors = (b,) + tup
        entries = tuple(sorted(tuple(sq_dist(y, a) for a in anchors)
                               for y in cloud.points))
        out[entries] += 1
    return out


def _direct_ep(cloud, b, tup):
    """Oracle: the enhanced profile of one d-tuple, straight from coordinates."""
    profiles = []
    for i in range(cloud.dim):
        sub = list(tup)
        sub[i] = b
        entries = tuple(sorted(tuple(sq_dist(y, a) for a in sub)
                               for y in cloud.points))
        profiles.append(entries)
    return EnhancedProfile(a=squared_distance_matrix((b,) + tup), profiles=tuple(profiles))


def _direct_eps(cloud):
    """Oracle: enhanced profiles over all d-tuples, straight from coordinates."""
    b = barycenter(cloud)
    return Counter(_direct_ep(cloud, b, tup)
                   for tup in product(cloud.points, repeat=cloud.dim))


def _bary(store):
    """Each iteration-1 color's slot norms, as values."""
    h = _History(store, 1)
    return {c: tuple(map(h.value, norms)) for c, norms in h.norms.items()}


@pytest.mark.parametrize("cloud", [TET, PLANAR3], ids=["tetrahedron", "planar"])
def test_barycenter_tuple_distances_match_direct(cloud):
    store = run_wl(cloud, 2, 1)
    bary = _bary(store)
    got = Counter()
    for cid in store.tables[1]:
        got[bary[cid]] += 1
    assert got == _direct_bary_tuples(cloud, 2)


def test_barycenter_tuple_distances_random():
    for seed in range(10):
        cloud = oracle.random_cloud(3 + seed % 3, 3, seed=seed, grid=4)
        store = run_wl(cloud, 2, 1)
        bary = _bary(store)
        got = Counter(bary[cid] for cid in store.tables[1])
        assert got == _direct_bary_tuples(cloud, 2)


def test_diagonal_tuple_gets_equal_slots():
    store = run_wl(TET, 2, 1)
    bary = _bary(store)
    n = TET.n
    for i in range(n):
        cid = store.tables[1][i * n + i]  # tuple (x_i, x_i)
        assert bary[cid][0] == bary[cid][1]


@pytest.mark.parametrize("cloud", [TET, PLANAR3], ids=["tetrahedron", "planar"])
def test_profiles_match_direct(cloud):
    store = run_wl(cloud, 2, 2)
    h = _History(store, 2)
    prof = {c: tuple(tuple(map(h.distances.__getitem__, e)) for e in rows)
            for c, rows in zip(h.c2, h.entries.tolist())}
    got = Counter(prof[cid] for cid in store.tables[2])
    assert got == _direct_profiles(cloud, 2)


def test_enhanced_profiles_match_direct():
    for cloud in (TET, PLANAR3):
        store = run_wl(cloud, 2, 3)
        got = enhanced_profiles_from_wl3(store)
        assert _multiset(got) == _direct_eps(cloud)
    for seed in range(5):
        cloud = oracle.random_cloud(4 + seed % 2, 3, seed=100 + seed, grid=3)
        got = enhanced_profiles_from_wl3(run_wl(cloud, 2, 3))
        assert _multiset(got) == _direct_eps(cloud)


def test_enhanced_profile_matrix_shape_invariants():
    store = run_wl(TET, 2, 3)
    for ep in _multiset(enhanced_profiles_from_wl3(store)):
        assert ep.a.order == 4
        arr = ep.a.as_array()
        assert np.allclose(arr, arr.T) and np.allclose(np.diag(arr), 0)
        assert all(len(p) == TET.n for p in ep.profiles)


def test_ep_multiset_is_isometry_invariant():
    cloud = oracle.random_cloud(4, 3, seed=9, grid=3)
    moved = oracle.apply_random_isometry(cloud, seed=10)
    a = enhanced_profiles_from_wl3(run_wl(cloud, 2, 3))
    b = enhanced_profiles_from_wl3(run_wl(moved, 2, 3))
    assert _multiset(a) == _multiset(b)


def test_ep_dimension_rule():
    # the maximal enhanced-profile dimension equals the cloud's affine dimension
    from geowl.geometry import affine_dim
    for cloud in (TET, PLANAR3):
        eps = _multiset(enhanced_profiles_from_wl3(run_wl(cloud, 2, 3)))
        assert max(ep.dimension() for ep in eps) == affine_dim(cloud.points)


def test_select_cone_tuple_planar_goes_lowdim():
    eps = enhanced_profiles_from_wl3(run_wl(PLANAR3, 2, 3))
    chosen = select_cone_tuple(eps)
    assert len(chosen) == 1
    assert chosen[0].dimension() == 2


def test_select_cone_tuple_minimal_angle_cone_is_empty():
    # brute-force check of the cone condition for the minimal-angle profile
    eps = enhanced_profiles_from_wl3(run_wl(TET, 2, 3))
    from geowl.geometry import anchor_embed
    chosen = sorted(select_cone_tuple(eps), key=lambda ep: (solid_angle_mc(
        ConeSpec(generators=tuple(map(tuple, anchor_embed(ep.a, 3, 1e-9)[1:]))), 200_000, 5),
        ep.sort_key()))
    zs = anchor_embed(chosen[0].a, 3)[1:]
    b = barycenter(TET)
    Z = np.array(zs).T
    # candidate anchor embeddings are congruent to (x_i - b); test every
    # centered cloud point against the cone in the embedded frame via distances
    res = reconstruct_fulldim(chosen[0])
    for p in res.points:
        lam = np.linalg.solve(Z, p)
        assert not bool(np.all(lam > 1e-9))


def test_select_deterministic_for_fixed_seed():
    eps = list(_multiset(enhanced_profiles_from_wl3(run_wl(TET, 2, 3))))
    a = list(select_cone_tuple(ProfileTable.from_profiles(eps)))
    assert list(select_cone_tuple(ProfileTable.from_profiles(eps))) == a
    for seed in range(3):
        shuffled = eps[:]
        random.Random(seed).shuffle(shuffled)
        assert list(select_cone_tuple(ProfileTable.from_profiles(shuffled))) == a


def _ranking_bound(ep, tol=1e-9):
    """The depth bound `select_cone_tuple` ranks by, for one profile; NaN if G is
    singular in floats."""
    G = _gram(ep.a.as_array())
    try:
        H = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        return math.nan
    E = np.array([[float(v) for v in e] for e in ep.profiles[0]])
    plus, minus, _ = mirror_lambdas(G, H, E, 0, tol)
    return float(depth_bound(np.concatenate([plus, minus]), G, H, tol)[1])


def test_select_order_is_nondecreasing_in_the_depth_bound():
    for n, d, seed in [(6, 3, 5), (8, 3, 3), (5, 4, 4000)]:
        eps = enhanced_profiles_from_wl3(run_wl(oracle.random_cloud(n, d, seed), d - 1, 3))
        bounds = [_ranking_bound(ep) for ep in select_cone_tuple(eps)]
        assert bounds == sorted(bounds), (n, d, seed)
        assert bounds[0] < bounds[-1]


def _select_by_one_sort(eps, tol=1e-9):
    """Selection as one sort on (bound, `sort_key`), with `sort_key` for every candidate."""
    cands = [ep for ep in eps
             if not ep.repeats_a_point() and ep.dimension(tol) == ep.a.order - 1]
    G = _gram(np.array([ep.a.as_array() for ep in cands]))
    H = np.linalg.inv(G)
    E = np.array([[[float(v) for v in e] for e in ep.profiles[0]] for ep in cands])
    plus, minus, _ = mirror_lambdas(G, H, E, 0, tol)
    bounds = depth_bound(np.concatenate([plus, minus], axis=-2), G, H, tol)[1]
    ranked = zip(np.nan_to_num(bounds, nan=np.inf, posinf=np.inf).tolist(),
                 map(EnhancedProfile.sort_key, cands), cands)
    return [ep for *_, ep in sorted(ranked, key=lambda r: r[:2])]


def test_select_order_equals_one_sort_on_bound_and_sort_key():
    # the table's ranking, read in order, against the one-sort reference on
    # enhanced profiles built straight from coordinates; a float copy is read
    # as its exact dyadic values, over denominators near 2^52
    coarse = oracle.random_cloud(6, 3, 1, grid=1, span=1)
    floated = _dyadic(PointCloud.from_array(oracle.random_cloud(8, 3, 3).as_array()))
    for cloud in (coarse, oracle.random_cloud(8, 3, 3), oracle.random_cloud(5, 4, 4000),
                  floated):
        table = enhanced_profiles_from_wl3(run_wl(cloud, cloud.dim - 1, 3))
        ranked = select_cone_tuple(table)
        want = _select_by_one_sort(_direct_eps(cloud))
        assert ranked.full and list(ranked) == want
        # on the integer grid, congruent anchor sets tie on (bound, anchor matrix)
        keys = [(_ranking_bound(ep), ep.a.as_array().tolist()) for ep in want]
        ties = sum(a == b for a, b in zip(keys, keys[1:]))
        assert bool(ties) == (cloud is coarse)
    planar = select_cone_tuple(enhanced_profiles_from_wl3(run_wl(PLANAR3, 2, 3)))
    lowest = min(_direct_eps(PLANAR3), key=lambda ep: (-ep.dimension(), ep.sort_key()))
    assert not planar.full and list(planar) == [lowest]


def _candidate_digest(candidates):
    """sha256 prefix of each candidate's anchor matrix and profiles, in order."""
    h = hashlib.sha256()
    for ep in candidates:
        rows = (*ep.a.entries, *(e for p in ep.profiles for e in p))
        h.update(" ".join(",".join(map(str, row)) for row in rows).encode() + b";")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("n, d, seed, digest", [
    # the `roundtrip` benchmark's wlnd shapes; digests of the ranking before
    # extraction and ranking moved to integer arrays
    (6, 3, 906, "c3a1a9de77800826"), (6, 3, 907, "9a7d5d60d608a76f"),
    (6, 3, 908, "dbd9b521d0a0da3a"), (5, 4, 909, "6875c2ddd0d52517"),
    (5, 4, 910, "2945f5ea40d52b01"),
])
def test_candidate_order_is_pinned(n, d, seed, digest):
    table = enhanced_profiles_from_wl3(run_wl(oracle.random_cloud(n, d, seed), d - 1, 3))
    assert _candidate_digest(select_cone_tuple(table)) == digest


def test_rows_singular_in_floats_rank_last():
    # rows singular in floats rank last instead of raising LinAlgError
    cloud = TINY_GAP
    table = enhanced_profiles_from_wl3(run_wl(cloud, 2, 3))
    rows = np.arange(len(table))
    rows = rows[~table.repeats()]
    ranks, bounds = table.ranks_and_bounds(rows)
    rows, bounds = rows[ranks == 3], bounds[ranks == 3]
    singular = []
    for r in rows.tolist():
        try:
            np.linalg.inv(_gram(table.floats[table.A[[r]]]))
        except np.linalg.LinAlgError:
            singular.append(r)
    bounds = dict(zip(rows.tolist(), bounds.tolist()))
    assert singular and all(bounds[r] == math.inf for r in singular)
    ranked = select_cone_tuple(table).rows
    assert min(map(ranked.index, singular)) >= sum(b < math.inf for b in bounds.values())
    rep = reconstruct(cloud, "wlnd")
    assert rep.verified and rep.counters["candidates_tried"] == 2
    assert rep.counters["total_candidates"] == 27


# an octahedron with TINY_GAP's gap at one vertex, mirrored to keep the
# barycenter at the origin: orthogonal anchor triples have every candidate on a
# face (bound inf), and the gap's triples are singular in floats (NaN)
GAPPED_OCTAHEDRON = PointCloud(3, tuple(tuple(map(F, p)) for p in (
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    (1, F(1, 10 ** 12), 0), (-1, F(-1, 10 ** 12), 0))))


@pytest.mark.parametrize("cloud, counters, failures", [
    (TINY_GAP, (2, 27), {"unmatched": 1}), (GAPPED_OCTAHEDRON, (1, 36), {})],
    ids=["tiny-gap", "gapped-octahedron"])
def test_rows_without_a_finite_bound_rank_last_by_sort_key(cloud, counters, failures):
    # every row with no finite bound, whatever the reason, ranks after every
    # finite one, and those rows go in one `sort_key` order
    ranked = select_cone_tuple(enhanced_profiles_from_wl3(run_wl(cloud, 2, 3)))
    bounds = [_ranking_bound(ep) for ep in ranked]
    finite = sum(map(math.isfinite, bounds))
    assert finite < len(bounds) and all(map(math.isfinite, bounds[:finite]))
    last = list(ranked)[finite:]
    assert last == sorted(last, key=EnhancedProfile.sort_key)
    rep = reconstruct(cloud, "wlnd")
    assert rep.verified
    assert (rep.counters["candidates_tried"], rep.counters["total_candidates"]) == counters
    assert {k: v for k, v in rep.counters["failures"].items() if v} == failures


def test_rendered_points_keep_a_gap_of_1e_12_apart():
    # the render rounds only lambda L and sqrt(D), so the octahedron's vertex and
    # its copy 1e-12 away stay distinct rows
    ranked = select_cone_tuple(enhanced_profiles_from_wl3(run_wl(GAPPED_OCTAHEDRON, 2, 3)))
    pts = reconstruct_fulldim(ranked[0]).points
    assert len(np.unique(pts, axis=0)) == GAPPED_OCTAHEDRON.n == 8


def test_float_candidates_recolor_their_gram_coordinates(monkeypatch):
    # a float cloud read as its dyadic values has its candidates certified from
    # (l_x - l_y)^T G (l_x - l_y), integers over one denominator that equal the
    # input's squared distances, symmetric with a zero diagonal; no candidate is
    # embedded or recolored as a point cloud, and the input is not recolored at all
    matrices = []

    def recolor(sq, *args, den, **kwargs):
        matrices.append((np.asarray(sq), den))
        return run_wl_from_sq_values(sq, *args, den=den, **kwargs)
    monkeypatch.setattr("geowl.recon_nd.run_wl_from_sq_values", recolor)
    for name in ("run_wl", "anchor_embed"):
        monkeypatch.setattr(f"geowl.recon_nd.{name}", lambda *a, **k: pytest.fail("called"))
    cloud = _dyadic(PointCloud.from_array(oracle.random_cloud(7, 3, 4).as_array() * 1.0001))
    store = run_wl(cloud, 2, 3)
    rep = reconstruct_nd(store)
    # four candidates are rejected as unmatched before the fifth is recolored
    assert rep.counters["candidates_tried"] == 5 and len(matrices) == 1
    (keys, den), values = matrices[0], store.interner.dist_keys
    assert sorted(F(k, den) for k in keys.ravel().tolist()) == \
        sorted(values[i] for i in store.dist_array.ravel())
    assert np.array_equal(keys, keys.T) and not np.diagonal(keys).any()


def _scaled(n: int, d: int, seed: int, factor: float) -> PointCloud:
    return PointCloud.from_array(oracle.random_cloud(n, d, seed).as_array() * factor)


@pytest.mark.parametrize("n, d", [(7, 3), (6, 4)])
def test_float_certificate_is_free_of_the_clouds_units(n, d):
    # on an absolute float verify grid of 1e-6 every early candidate of these
    # x10^4 float copies read as a fingerprint mismatch, and none verified; read
    # exactly, they have no grid
    rep = reconstruct(_scaled(n, d, 100, 10.0 ** 4), "wlnd")
    assert rep.verified and rep.counters["candidates_tried"] == 1


@pytest.mark.parametrize("n, d, seed", [(8, 3, 101), (7, 4, 501)])
def test_float_certificate_does_not_hinge_on_a_grid_boundary(n, d, seed):
    # x0.37 put input distances a few grid tokens from a boundary of an old float
    # verify grid: the first copy then tried 5 candidates, 2 of them mismatches
    rep = reconstruct(_scaled(n, d, seed, 0.37), "wlnd")
    assert rep.verified and rep.counters["failures"]["fingerprint_mismatch"] == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_float_certificate_follows_a_coarse_tolerance(seed):
    # at tol 1e-6 an old float certificate rejected every candidate of both
    # copies; tol now only ranks, and the certificate is exact
    rep = reconstruct(_scaled(7, 3, seed, 1.0001), "wlnd", RunConfig(tol=1e-6))
    assert rep.verified


def test_no_hundredth_scale_copy_comes_back_unverified():
    # a candidate the certificate accepts is one the oracle accepts; a float
    # certificate keyed on grid tokens let 3 of these 12 come back unverified,
    # and left others unreconstructed; read exactly, every copy verifies
    for (n, d), s in product([(7, 3), (6, 4)], range(6)):
        assert reconstruct(_scaled(n, d, 100 + s, 10.0 ** -2), "wlnd").verified, (n, d, s)


def test_wlnd_is_scale_free():
    # every exact scaled copy verifies as the unscaled cloud does, by the same
    # candidate at the same depth; with the float ranking's tests floored at
    # tol * 1 in the cloud's units, 14 of these 32 copies ranked otherwise
    for (n, d), s in product([(7, 3), (6, 4)], range(4)):
        base = oracle.random_cloud(n, d, 100 + s)
        want = reconstruct(base, "wlnd")
        for k in (-8, -4, 4, 8):
            cloud = PointCloud(d, tuple(tuple(x * F(10) ** k for x in p) for p in base.points))
            rep = reconstruct(cloud, "wlnd")
            assert rep.verified and rep.method == want.method, (n, d, s, k)
            for key in ("candidates_tried", "depth"):
                assert rep.counters.get(key) == want.counters.get(key), (n, d, s, k, key)


def test_reconstruct_nd_builds_only_the_candidates_tried(monkeypatch):
    # `geowl gen --n 10 --d 3 --seed 3` rejects two candidates before the third verifies
    built = []
    profile = ProfileTable.profile
    monkeypatch.setattr(ProfileTable, "profile", lambda t, r: built.append(r) or profile(t, r))
    rep = reconstruct_nd(run_wl(oracle.random_cloud(10, 3, 3), 2, 3))
    assert rep.counters["candidates_tried"] == len(built) == 3
    assert rep.counters["total_candidates"] == 720


def test_table_rank_agrees_with_gram_affine_dim():
    # coarse grids have coplanar anchor quadruples, whose determinant is exactly
    # 0; PLANAR3 has nothing else; random_cloud(7, 3, 17) has six thin full
    # tuples whose float determinant falls under the screen
    clouds = [oracle.random_cloud(7, 3, 11, grid=1, span=1), oracle.random_cloud(7, 3, 17),
              oracle.random_cloud(6, 4, 12, grid=1, span=1), PLANAR3]
    for cloud in clouds:
        table = enhanced_profiles_from_wl3(run_wl(cloud, cloud.dim - 1, 3))
        ranks = table.ranks_and_bounds(np.arange(len(table)))[0].tolist()
        assert ranks == [gram_affine_dim(table.profile(r).a) for r in range(len(table))]
        assert min(ranks) < max(ranks)


def test_repeated_point_filter_agrees_with_the_exact_rank():
    for n, d, seed in [(4, 3, 1), (6, 3, 2), (5, 3, 3000), (4, 4, 4), (5, 4, 5), (6, 4, 6)]:
        eps = _multiset(enhanced_profiles_from_wl3(
            run_wl(oracle.random_cloud(n, d, seed), d - 1, 3)))
        repeats = 0
        for ep in eps:
            full = gram_affine_dim(ep.a) == d
            assert not (ep.repeats_a_point() and full), (n, d, seed)
            repeats += ep.repeats_a_point()
        assert 0 < repeats < len(eps)


def test_reconstruct_lowdim_paths():
    # collinear cloud inside R^3
    line = PointCloud(3, ((F(0), F(0), F(0)), (F(1), F(0), F(0)),
                          (F(3), F(0), F(0))))
    rep = reconstruct_nd(run_wl(line, 2, 3))
    align = oracle.is_isometric(rep.cloud, line)
    assert rep.method == "nd-lowdim" and align and align.residual < 1e-6

    rep = reconstruct_nd(run_wl(PLANAR3, 2, 3))
    align = oracle.is_isometric(rep.cloud, PLANAR3)
    assert rep.method == "nd-lowdim" and align and align.residual < 1e-6

    two = PointCloud(3, ((F(0), F(0), F(0)), (F(1), F(2), F(3))))
    rep = reconstruct_nd(run_wl(two, 2, 3))
    align = oracle.is_isometric(rep.cloud, two)
    assert align and align.residual < 1e-6


def test_reconstruct_lowdim_anchors_only():
    eps = enhanced_profiles_from_wl3(run_wl(PLANAR3, 2, 3))
    chosen = select_cone_tuple(eps)[0]
    pts = reconstruct_lowdim(chosen).points
    assert pts.shape == (PLANAR3.n, 3)


def test_forbidden_membership_examples():
    # generators e_0, 2 e_1, 3 e_2 over c = 2: G = diag(1, 4, 9) / 2
    _check_orthant_region(GramKernel(np.diag([1, 4, 9]).astype(object), 2))


def test_forbidden_membership_examples_exact():
    _check_orthant_region(GramKernel(np.eye(3, dtype=object), 1))


def _check_orthant_region(kernel):
    # an orthant cone: orthogonal generators z_j along the axes, so Gram
    # coordinates are the coordinates over |z_j|, and points are integer
    # numerators over the kernel's q
    planes = tuple(
        Hyperplane.from_points([(0, 0, 0), [1.0 if k == i else 0.0 for k in range(3)],
                                [1.0 if k == j else 0.0 for k in range(3)]],
                               toward=[1.0 if k == m else 0.0 for k in range(3)])
        for m, (i, j) in enumerate(((1, 2), (0, 2), (0, 1))))
    region = ForbiddenRegion(kernel, eps2=F(1, 100))

    def num(x):
        return x * kernel.q
    inside = tuple(map(num, (1, 2, 3)))
    for depth in range(4):
        assert region.membership(inside, depth)
    mirrored = tuple(num(round(c)) for c in reflect((1.0, 2.0, 3.0), planes[0]))
    assert not region.membership(mirrored, 0)
    assert region.membership(mirrored, 1)
    far = tuple(map(num, (-10, -10, -10)))
    # brute-force word oracle: all sign flips needed, so depth 3 is the first hit
    assert not region.membership(far, 2)
    assert region.membership(far, 3)


def _integer_frame(rng, d):
    """Integer generators z_j (rows) of a frame that is not too thin, and its
    GramKernel over c = 1."""
    while True:
        zs = rng.integers(-4, 5, size=(d, d))
        if abs(np.linalg.det(zs)) > 0.3 * 4 ** d:
            break
    return zs, GramKernel((zs @ zs.T).astype(object), 1)


def _random_numerators(rng, kernel, d, span=3):
    """Gram coordinates in [-span, span], as integer numerators over the kernel's q."""
    return tuple(int(kernel.q * F(int(v), 64)) for v in rng.integers(-64 * span, 64 * span + 1,
                                                                     size=d))


def test_forbidden_membership_monotone():
    rng = np.random.default_rng(17)
    for _ in range(10):
        _, kernel = _integer_frame(rng, 3)
        region = ForbiddenRegion(kernel, eps2=F(1, 25))
        for _ in range(10):
            lam = _random_numerators(rng, kernel, 3)
            for k in range(4):
                if region.membership(lam, k):
                    assert region.membership(lam, k + 1)


def test_greedy_reflection_path_reaches_base_region():
    # the potential sum_i <x, z_i> rises by at least c*epsilon per greedy step,
    # so the path length stays under |x| * sum|z_i| / (c*epsilon) + 1, and the
    # region at that depth holds the start; Gram coordinates are reflected in
    # Fractions, the point itself in floats
    rng = np.random.default_rng(29)
    eps2, epsilon = F(1, 25), 0.2
    for _ in range(20):
        d = int(rng.integers(2, 5))
        zs, kernel = _integer_frame(rng, d)
        zs = zs.astype(float)
        planes = []
        for i in range(d):
            anchors = zs.copy()
            anchors[i] = 0.0
            planes.append(Hyperplane.from_points(anchors, toward=zs[i]))
        region = ForbiddenRegion(kernel, eps2)
        H = [[F(int(a), kernel.det) for a in row] for row in kernel.adj.tolist()]  # G^-1, c = 1
        c_const = 2.0 * min(abs(float(np.dot(zs[i], planes[i].normal))) for i in range(d))
        start = _random_numerators(rng, kernel, d)
        lam = [F(v, kernel.q) for v in start]
        x = np.array([float(v) for v in lam]) @ zs

        def in_base(lam):
            return min(lam) >= 0 or any(v * v < eps2 * H[j][j] for j, v in enumerate(lam))
        assert region.membership(start, 0) == in_base(lam)
        bound = math.ceil(float(np.linalg.norm(x))
                          * float(sum(np.linalg.norm(z) for z in zs))
                          / (c_const * epsilon)) + 1
        steps = 0
        gamma = float(sum(np.dot(x, z) for z in zs))
        while not in_base(lam):
            i = min(range(d), key=lam.__getitem__)
            assert lam[i] < 0
            lam = [v - 2 * lam[i] / H[i][i] * H[k][i] for k, v in enumerate(lam)]
            x = np.asarray(reflect(x, planes[i]))
            assert np.allclose(x, np.array([float(v) for v in lam]) @ zs)
            new_gamma = float(sum(np.dot(x, z) for z in zs))
            assert new_gamma >= gamma + c_const * epsilon - 1e-9
            gamma = new_gamma
            steps += 1
            assert steps <= bound
        assert region.membership(start, steps)


def test_epsilon_clears_all_recovered_points():
    eps = enhanced_profiles_from_wl3(run_wl(TET, 2, 3))
    chosen = select_cone_tuple(eps)[0]
    res = reconstruct_fulldim(chosen)
    assert res.epsilon is not None
    planes = []
    from geowl.geometry import anchor_embed
    anchors = anchor_embed(chosen.a, 3)[1:]
    for i in range(3):
        aset = anchors.copy()
        aset[i] = 0.0
        planes.append(Hyperplane.from_points(aset, toward=anchors[i]))
    for p in res.points:
        dists = [abs(h.signed_distance(p)) for h in planes]
        if min(dists) > 1e-7:  # off-plane points only
            assert min(dists) >= res.epsilon - 1e-12


def test_reconstruct_fulldim_fixtures():
    regular = PointCloud(3, ((F(1), F(1), F(1)), (F(1), F(-1), F(-1)),
                             (F(-1), F(1), F(-1)), (F(-1), F(-1), F(1))))
    for cloud in (TET, regular):
        rep = reconstruct(cloud, "wlnd")
        align = oracle.is_isometric(rep.cloud, cloud)
        assert align is not None and align.residual < 1e-6
        assert rep.verified


def test_reconstruct_nd_round_trip_random():
    for seed in range(25):
        n = 4 + seed % 3
        cloud = oracle.random_cloud(n, 3, seed=3000 + seed, grid=4, span=2)
        rep = reconstruct_nd(run_wl(cloud, 2, 3))
        align = oracle.is_isometric(rep.cloud, cloud)
        assert align is not None and align.residual < 1e-6, seed
        if "depth" in rep.counters:
            assert rep.counters["depth"] <= rep.counters["gamma_bound"]


def test_reconstruct_nd_depth_counter_within_bound():
    rep = reconstruct_nd(run_wl(TET, 2, 3))
    if "depth" in rep.counters:
        assert rep.counters["depth"] <= rep.counters["gamma_bound"]


def test_reconstruct_nd_d4_smoke():
    for seed in range(3):
        cloud = oracle.random_cloud(5, 4, seed=4000 + seed, grid=3, span=2)
        rep = reconstruct_nd(run_wl(cloud, 3, 3))
        align = oracle.is_isometric(rep.cloud, cloud)
        assert align is not None and align.residual < 1e-6, seed


def test_thin_cone_ranks_last_and_fails_at_the_depth_cap():
    # `geowl gen --n 20 --d 3 --seed 1`: the anchors (b, x12, x15, x19) are exactly
    # affinely independent, yet too thin for a float frame of embedded generators
    cloud = oracle.random_cloud(20, 3, 1)
    b = barycenter(cloud)
    thin = _direct_ep(cloud, b, tuple(cloud.points[i] for i in (12, 15, 19)))
    wide = _direct_ep(cloud, b, tuple(cloud.points[i] for i in (0, 1, 2)))
    assert thin.dimension() == wide.dimension() == 3
    assert list(select_cone_tuple(ProfileTable.from_profiles([thin]))) == [thin]
    assert list(select_cone_tuple(ProfileTable.from_profiles([thin, wide]))) == [wide, thin]
    assert _ranking_bound(wide) < _ranking_bound(thin)
    start = time.perf_counter()
    with pytest.raises(CandidateRejected, match=r"depth bound \(cap 10\)") as info:
        reconstruct_fulldim(thin)
    assert info.value.reason == "depth_cap"
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("n, d, seed, permutation", [
    (6, 3, 5, [5, 0, 1, 4, 3, 2]),      # `geowl gen --n 6 --d 3 --seed 5`
    (5, 4, 4000, [2, 0, 3, 4, 1]),
])
def test_placement_order_is_pinned(n, d, seed, permutation):
    rep = reconstruct(oracle.random_cloud(n, d, seed), "wlnd")
    assert list(rep.alignment.permutation) == permutation


def test_fulldim_depth_cap_is_enforced():
    # on the golden CLI cloud, the anchors (b, x2, x4, x0) need depth 5
    cloud = oracle.random_cloud(6, 3, 5)
    deep = _direct_ep(cloud, barycenter(cloud), tuple(cloud.points[i] for i in (2, 4, 0)))
    assert reconstruct_fulldim(deep, max_depth=5).depth == 5
    with pytest.raises(ReconstructionError, match=r"depth bound \(cap 4\)"):
        reconstruct_fulldim(deep, max_depth=4)


def test_profile0_mirror_candidates_never_both_inside_the_cone():
    # profile 0's hyperplane is the cone face spanned by z_1..z_{d-1}, and its
    # mirror candidates p +- h*n have cone coordinates lambda_0 of opposite signs
    pairs = 0
    for seed in range(8):
        d = 3 + seed % 2
        cloud = oracle.random_cloud(d + 3, d, 7000 + seed)
        b = barycenter(cloud)
        for combo in combinations(range(cloud.n), d):
            idx = combo[seed % d:] + combo[:seed % d]  # vary the slot-0 point
            ep = _direct_ep(cloud, b, tuple(cloud.points[i] for i in idx))
            if ep.dimension() < d:
                continue
            G, c, entries = _numerators(ep)
            plus, minus, resident = GramKernel(G, c).mirror(entries[0], 0)
            for lam in zip(plus, minus, resident):
                if lam[2]:
                    continue
                inside = [min(v) > 0 for v in lam[:2]]
                assert not all(inside), (seed, idx)
                assert lam[0][0] * lam[1][0] < 0, (seed, idx)
                pairs += 1
    assert pairs > 400


@pytest.mark.parametrize("n, d, seed", [(6, 3, 5), (10, 3, 3), (5, 4, 4000), (6, 4, 7105)])
def test_float_store_roundtrips(n, d, seed):
    # float copies of exact clouds are read as their dyadic values, and verify
    # by the candidate that float reconstruction accepted; the render is floats
    cloud = PointCloud.from_array(oracle.random_cloud(n, d, seed).as_array())
    rep = reconstruct(cloud, "wlnd")
    assert rep.verified, (n, d, seed)
    assert rep.counters["candidates_tried"] == {10: 3}.get(n, 1)
    assert all(isinstance(c, float) for p in rep.cloud.points for c in p)


def test_exact_cloud_in_float_mode_is_a_value_error():
    # every pipeline runs exact only: mode "float" colors a float store, exact
    # cloud or float, and the pipeline refuses it, also for a single point
    for algorithm, d in (("wlnd", 3), ("wl2d", 2), ("oneshot", 3), ("oneshot", 2)):
        for cloud in (oracle.random_cloud(6, d, 5), _scaled(6, d, 5, 1.0)):
            with pytest.raises(ValueError, match="exact store"):
                reconstruct(cloud, algorithm, RunConfig(mode="float"))
    for pipeline, d, ell, iters in ((reconstruct_nd, 3, 2, 3), (reconstruct_planar, 2, 1, 3),
                                    (reconstruct_one_iter, 3, 3, 1)):
        for cloud in (oracle.random_cloud(6, d, 5), PointCloud(d, ((F(1),) * d,))):
            with pytest.raises(ValueError, match="exact store"):
                pipeline(run_wl(cloud, ell, iters, mode="float"))


def _gaussian_with_mean(seed: int) -> PointCloud:
    """Seven Gaussian points and their float mean: the barycenter of the eight
    is a hair off the last point."""
    pts = np.random.default_rng(seed).normal(size=(7, 3))
    return PointCloud.from_array(np.vstack([pts, pts.mean(axis=0)]))


def _noisy(n: int, d: int, seed: int, k: int) -> PointCloud:
    """random_cloud(n, d, seed) x 10^k plus Gaussian noise of 10^-3 x 10^k: generic floats."""
    pts = oracle.random_cloud(n, d, seed).as_array()
    noise = np.random.default_rng(seed).normal(size=pts.shape)
    return PointCloud.from_array((pts + 1e-3 * noise) * 10.0 ** k)


def test_float_clouds_of_every_scale_verify():
    # a float cloud is read as the dyadic rationals its floats are: from float
    # reconstruction the x10^-4 wlnd copies raised, and the x10^-3 ones and the
    # Gaussian clouds plus their mean at tol 1e-4 came back unverified; so did
    # the noisy wl2d copies at k = -4 and -3, and the noisy oneshot copies at
    # k <= -3 raised "negative squared height"
    for (n, d), s, k in product([(7, 3), (6, 4)], range(3), (-4, -3, 0, 4)):
        assert reconstruct(_scaled(n, d, 100 + s, 10.0 ** k), "wlnd").verified, (n, d, s, k)
    for s, k in product(range(3), (-4, -3, -2, 0, 4, 8)):
        assert reconstruct(_noisy(12, 2, 100 + s, k), "wl2d").verified, ("wl2d", s, k)
    for s, k in product(range(3), (-4, -3, 0, 4, 8)):
        assert reconstruct(_noisy(8, 3, 100 + s, k), "oneshot").verified, ("oneshot", s, k)
    for seed in range(4):
        assert reconstruct(_gaussian_with_mean(seed), "wlnd", RunConfig(tol=1e-4)).verified, seed


def _gap_cloud(scale: float) -> PointCloud:
    """Points 1e-300 apart, with the other three at `scale`, read exactly."""
    return _dyadic(PointCloud.from_array(np.array(
        [(0, 0, 0), (1e-300, 0, 0), (0, scale, 0), (0, 0, scale), (scale,) * 3])))


@pytest.mark.parametrize("cloud, tried", [
    (_dyadic(_gaussian_with_mean(1)), 1), (_gap_cloud(1), 1)], ids=["gaussian-1", "gap-1e-300"])
def test_rows_without_a_float_bound_raise_no_warning(cloud, tried):
    # frames whose float G^-1 has a negative diagonal rank +inf, and a positive
    # epsilon^2 that is 0 as a float gives no ranking bound; neither warns, and
    # the candidate order is the one reached with warnings ignored.  Elimination
    # takes epsilon from the exact epsilon^2, so the gap cloud's first candidate
    # is accepted at depth 0 (5 were tried while epsilon^2 underflowed to 0)
    table = enhanced_profiles_from_wl3(run_wl(cloud, 2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = select_cone_tuple(table).rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert select_cone_tuple(table).rows == want
        rep = reconstruct_nd(run_wl(cloud, 2, 3))
    assert rep.counters["candidates_tried"] == tried


def test_float_sqrt_matches_math_sqrt_and_scales_past_the_float_range():
    # bit-identical to math.sqrt(float(x)) wherever x is a normal float, and
    # within an ulp of the root where x under- or overflows a float
    rng = random.Random(5)
    for _ in range(2000):
        num, den = rng.randrange(1, 10 ** 30), rng.randrange(1, 10 ** 30)
        x = F(num, den) * F(2) ** rng.randrange(-990, 990)
        assert _float_sqrt(x) == math.sqrt(float(x)), x
    for x, root in ((F(1, 10 ** 600), 1e-300), (F(10 ** 600), 1e300),
                    (F(1, 10 ** 601), 3.1622776601683794e-301)):
        assert math.isclose(_float_sqrt(x), root, rel_tol=3e-16)


def test_gap_cloud_epsilon_and_bound_come_from_the_exact_epsilon():
    # epsilon^2 ~ 7.2e-602: the counter reports its root; at scale 1e10 the
    # depth bound is past the float range, inf, and the depth cap applies.  At
    # scale 1e100 the Gram entries and factors themselves span past the float
    # range: the bound's floats saturate to inf and the render stays finite
    for scale, gamma in ((1, 10 ** 300), (1e10, math.inf), (1e100, math.inf)):
        cloud = _gap_cloud(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = reconstruct_nd(run_wl(cloud, 2, 3))
        assert rep.counters["candidates_tried"] == 1 and rep.counters["depth"] == 0
        assert math.isclose(rep.counters["epsilon"], 2.6832815729997475e-301, rel_tol=1e-15)
        assert rep.counters["gamma_bound"] >= gamma
        got, want = (np.sort(oracle._sq_matrix(c.as_array() / scale), axis=None)
                     for c in (rep.cloud, cloud))
        assert np.abs(got - want).max() < 1e-12


def test_float_cloud_slot_norms_are_exact_and_non_negative():
    # the tuple coloring's barycenter identity, with a float point at the
    # barycenter, on the cloud read as the dyadic rationals its floats are
    for seed in range(40):
        pts = np.random.default_rng(seed).normal(size=(6, 3)) * 3
        cloud = _dyadic(PointCloud.from_array(np.vstack([pts, pts.mean(axis=0)])))
        store = run_wl(cloud, 2, 1)
        norms = _bary(store)
        assert min(map(min, norms.values())) >= 0.0, seed


def test_exact_inverse_of_a_singular_gram_matrix_raises():
    # coplanar anchors: the Gram matrix of (b, x_1, x_2, x_3) has rank 2; the
    # kernel holds G = G8 / 8, G8 an integer matrix, as coordinates are halves
    def kernel(pts):
        A = squared_distance_matrix(pts).entries
        return GramKernel(_gram2(np.array([[int(4 * x) for x in row] for row in A])), 8)
    pts = [(F(0), F(0), F(0)), (F(1), F(2), F(0)), (F(3), F(-1), F(0)), (F(4), F(1), F(0))]
    with pytest.raises(ReconstructionError, match="not full-dimensional"):
        kernel(pts)
    pts[3] = (F(4), F(1), F(1, 2))
    G, k = _gram(np.array(squared_distance_matrix(pts).entries, dtype=object)), kernel(pts)
    inverse = np.vectorize(F, otypes="O")(k.c * k.adj, k.det)
    assert (inverse @ G == np.eye(3, dtype=int)).all()


def _reference_inverse(G):
    """G^-1 by Gauss-Jordan elimination over Fractions."""
    d = len(G)
    M = [list(row) + [F(int(i == j)) for j in range(d)] for i, row in enumerate(G)]
    for k in range(d):
        p = next(i for i in range(k, d) if M[i][k])
        M[k], M[p] = M[p], M[k]
        M[k] = [x / M[k][k] for x in M[k]]
        for i in range(d):
            if i != k:
                M[i] = [a - M[i][k] * b for a, b in zip(M[i], M[k])]
    return np.array([row[d:] for row in M], dtype=object)


def _reference_mirror(G, H, E, i):
    """`mirror_lambdas` over Fractions: G^-1 <x, z> but for lambda_i = +-sqrt(disc)."""
    g = (E[:, i:i + 1] + np.diagonal(G)[None, :] - E) * F(1, 2)
    g[:, i] = 0
    Hg = g @ H.T
    disc = Hg[:, i] ** 2 - H[i, i] * ((g * Hg).sum(-1) - E[:, i])
    root = np.array([F(math.isqrt(q.numerator), math.isqrt(q.denominator)) for q in disc],
                    dtype=object)
    assert (root * root == disc).all()
    v = H[:, i] / H[i, i]
    u = Hg - Hg[:, i:i + 1] * v[None, :]
    lift = root[:, None] * v[None, :]
    return u + lift, u - lift, disc == 0


def _reference_depth_bound(lams, G, H):
    """`depth_bound` over Fractions: epsilon^2 exact, gamma_bound from its floats."""
    hd = np.diagonal(H)
    rho2 = [r for r in (lams * lams / hd[None, :]).min(-1) if r > 0]
    eps2 = min(rho2) / 4 if rho2 else math.inf
    norm = math.sqrt(float(((lams @ G) * lams).sum(-1).max()))
    gd = np.array([float(x) for x in np.diagonal(G)])
    c_const = 2 / np.sqrt(max(float(x) for x in hd))
    gamma = math.ceil(norm * np.sqrt(gd).sum() / (c_const * math.sqrt(float(eps2)))) + 1
    return eps2, gamma if eps2 < math.inf else math.inf


@pytest.mark.parametrize("cloud, stride", [
    (oracle.random_cloud(6, 3, 5), 1), (oracle.random_cloud(9, 4, 1), 24),
    (GAPPED_OCTAHEDRON, 1)], ids=["n6d3s5", "n9d4s1", "gapped-oct"])
def test_gram_kernel_matches_the_fraction_formulas(cloud, stride):
    # each candidate row's profiles: mirror candidates, epsilon^2 and gamma_bound
    # from profile 0's doubled candidates, and the squared distances of its plus
    # candidates, from the integer kernel and from Fractions, equal as rationals.
    # Every row, but for `gen --n 9 --d 4 --seed 1` (3 024 rows at ~18 ms each in
    # Fractions) the 19 that wlnd tries and every stride-th row after them
    ranked = select_cone_tuple(enhanced_profiles_from_wl3(run_wl(cloud, cloud.dim - 1, 3)))
    assert ranked.full
    frac = np.vectorize(F, otypes="O")
    for ep in (ranked[k] for k in range(len(ranked)) if k < 19 or k % stride == 0):
        G, (Gi, c, entries) = _gram(np.array(ep.a.entries, dtype=object)), _numerators(ep)
        H, kernel = _reference_inverse(G), GramKernel(Gi, c)
        assert (frac(c * kernel.adj, kernel.det) == H).all()
        for i, profile in enumerate(ep.profiles):
            distinct = list(dict.fromkeys(profile))
            plus, minus, resident = kernel.mirror(list(dict.fromkeys(entries[i])), i)
            ref = _reference_mirror(G, H, np.array(distinct, dtype=object), i)
            assert (frac(plus, kernel.q) == ref[0]).all() and resident == ref[2].tolist()
            assert (frac(minus, kernel.q) == ref[1]).all()
            if i == 0:
                doubled = plus + minus
                eps2, gamma = kernel.depth_bound(doubled)
                want = _reference_depth_bound(frac(doubled, kernel.q), G, H)
                assert (eps2, float(gamma)) == want
                sq, den = GramCloud(Gi, plus, c, kernel.q).sq_distances()
                lams = frac(plus, kernel.q)
                diff = lams[:, None, :] - lams[None, :, :]
                assert (frac(sq, den) == ((diff @ G) * diff).sum(-1)).all()


def test_exact_candidates_run_no_fraction_arithmetic(monkeypatch):
    # `geowl gen --n 10 --d 3 --seed 3`: no Fraction is added, subtracted, multiplied
    # or divided while a candidate is eliminated (`reconstruct_fulldim`) or certified
    # (from its return to the `compare` of the recolored fingerprint)
    counts, where = Counter(), [None]

    def counted(name):
        op = getattr(F, name)

        def wrapper(*args):
            counts[where[0]] += 1
            return op(*args)
        return wrapper
    for op in ("add", "sub", "mul", "truediv"):
        for name in (f"__{op}__", f"__r{op}__"):
            monkeypatch.setattr(F, name, counted(name))
    assert F(1, 2) + 1 == F(3, 2) and counts[None] == 1

    def fulldim(*args, **kwargs):
        where[0] = "fulldim"
        try:
            res = reconstruct_fulldim(*args, **kwargs)
        finally:
            where[0] = None
        where[0] = "certificate"
        calls["fulldim"] += 1
        return res

    def compare(a, b, original=recon_nd.compare):
        calls["certificate"] += where[0] == "certificate"
        where[0] = None
        return original(a, b)
    calls = Counter()
    monkeypatch.setattr(recon_nd, "reconstruct_fulldim", fulldim)
    monkeypatch.setattr(recon_nd, "compare", compare)
    cloud = oracle.random_cloud(10, 3, 3)
    rep = reconstruct_nd(run_wl(cloud, 2, 3))
    assert (rep.counters["candidates_tried"], rep.counters["depth"]) == (3, 3)
    assert oracle.is_isometric(rep.cloud, cloud) is not None
    assert calls["certificate"] >= 1 and calls["fulldim"] >= 1
    assert counts["fulldim"] == counts["certificate"] == 0
    assert counts[None] > 1  # the render of the accepted cloud runs in Fractions
