import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from geowl import oracle
from geowl.errors import InconsistentDataError, NotRealizableError, ReconstructionError
from geowl.geometry import (ConeSpec, Entries, Hyperplane, PointCloud, _eliminate, _float_rank,
                            _gram, _span_basis, _unit_normal,
                            affine_dim, anchor_embed, barycenter,
                            barycenter_sq_norms, cone_coefficients, mirror_pair,
                            reflect, solid_angle_mc, sq_dist, squared_distance_matrix,
                            trilaterate)


def test_point_cloud_invariants():
    with pytest.raises(ValueError):
        PointCloud(2, ())
    with pytest.raises(ValueError):
        PointCloud(2, ((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(ValueError):
        PointCloud(3, ((F(0), F(0)),))
    c = PointCloud(2, ((F(0), F(0)), (F(1), F(2))))
    assert c.n == 2 and c.exact


def test_barycenter_examples():
    c = PointCloud(2, ((F(0), F(0)), (F(2), F(0))))
    assert barycenter(c) == (F(1), F(0))
    single = PointCloud(3, ((F(1), F(2), F(3)),))
    assert barycenter(single) == (F(1), F(2), F(3))
    # equilateral triangle with rational stand-in for sqrt(3)/2 keeps exactness
    tri = PointCloud(2, ((F(0), F(0)), (F(1), F(0)), (F(1, 2), F(7, 8))))
    assert barycenter(tri) == (F(1, 2), F(7, 24))
    equi = PointCloud(2, ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)))
    bx, by = barycenter(equi)
    assert math.isclose(bx, 0.5) and math.isclose(by, math.sqrt(3) / 6)


def test_squared_distance_matrix_examples():
    m = squared_distance_matrix([(F(0), F(0)), (F(3), F(4))])
    assert m.entries == ((0, F(25)), (F(25), 0))
    assert squared_distance_matrix([(F(0), F(0))]).entries == ((0,),)
    m = squared_distance_matrix([(F(0), F(0)), (F(3), F(0)), (F(0), F(4))])
    assert m.entries == ((0, F(9), F(16)), (F(9), 0, F(25)), (F(16), F(25), 0))
    with pytest.raises(ValueError):
        squared_distance_matrix([(F(0),), (F(1), F(2))])


def test_barycenter_sq_norms_examples():
    # expected values verified against direct centroid computation below
    assert barycenter_sq_norms([F(4), F(4)], F(8), 2) == [F(1), F(1)]
    assert barycenter_sq_norms([F(5), F(2), F(5)], F(12), 3) == [F(1), F(0), F(1)]
    assert barycenter_sq_norms([F(0)], F(0), 1) == [F(0)]
    with pytest.raises(InconsistentDataError):
        barycenter_sq_norms([F(0)], F(100), 2)


def test_barycenter_identity_against_direct_centroid():
    # f(x) = sum_y |x-y|^2 must reproduce |x-b|^2 exactly on rational clouds
    for seed in range(50):
        cloud = oracle.random_cloud(2 + seed % 7, 1 + seed % 4, seed=seed)
        b = barycenter(cloud)
        f = [sum(sq_dist(p, q) for q in cloud.points) for p in cloud.points]
        total = sum(f)
        got = barycenter_sq_norms(f, total, cloud.n)
        want = [sq_dist(p, b) for p in cloud.points]
        assert got == want


def test_variance_identity_exact():
    # (1/n) sum |b-y|^2 == (1/(2n^2)) sum sum |y-z|^2, exactly, on rationals
    for seed in range(100):
        cloud = oracle.random_cloud(2 + seed % 7, 1 + seed % 4, seed=1000 + seed)
        b = barycenter(cloud)
        n = cloud.n
        lhs = F(sum(sq_dist(b, y) for y in cloud.points), n)
        rhs = F(sum(sq_dist(y, z) for y in cloud.points for z in cloud.points),
                2 * n * n)
        assert lhs == rhs


def test_affine_dim():
    assert affine_dim([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))]) == 1
    assert affine_dim([(F(1), F(2), F(3))]) == 0
    # regular simplex corners in R^3
    simplex = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)),
               (F(0), F(0), F(1))]
    assert affine_dim(simplex) == 3
    assert affine_dim([(0.0, 0.0), (1.0, 1e-15)]) == 1


def test_anchor_embed_round_trip():
    from geowl.geometry import SquaredDistanceMatrix
    m = SquaredDistanceMatrix(2, ((0, F(25)), (F(25), 0)))
    pts = anchor_embed(m, 2)
    assert np.allclose(pts[0], 0)
    assert math.isclose(float(np.sum((pts[1] - pts[0]) ** 2)), 25.0, abs_tol=1e-9)
    m = squared_distance_matrix([(F(0), F(0)), (F(3), F(0)), (F(0), F(4))])
    pts = anchor_embed(m, 2)
    back = squared_distance_matrix([tuple(p) for p in pts])
    assert np.allclose(back.as_array(), m.as_array(), atol=1e-9)
    # one-dimensional target
    m = SquaredDistanceMatrix(2, ((0, F(1)), (F(1), 0)))
    pts = anchor_embed(m, 1)
    assert abs(abs(float(pts[1, 0])) - 1.0) < 1e-12


def test_anchor_embed_random_round_trips():
    for seed in range(40):
        cloud = oracle.random_cloud(2 + seed % 6, 1 + seed % 4, seed=2000 + seed)
        m = squared_distance_matrix(cloud.points)
        pts = anchor_embed(m, cloud.dim)
        back = squared_distance_matrix([tuple(p) for p in pts])
        assert float(np.max(np.abs(back.as_array() - m.as_array()))) < 1e-9


def test_anchor_embed_rejects_bad_matrices():
    from geowl.geometry import SquaredDistanceMatrix
    # triangle inequality violated: not a Euclidean distance matrix
    bad = SquaredDistanceMatrix(3, ((0, F(1), F(100)), (F(1), 0, F(1)),
                                    (F(100), F(1), 0)))
    with pytest.raises(NotRealizableError):
        anchor_embed(bad, 3)
    # rank too high for the requested dimension
    simplex = squared_distance_matrix([(F(0), F(0), F(0)), (F(1), F(0), F(0)),
                                       (F(0), F(1), F(0)), (F(0), F(0), F(1))])
    with pytest.raises(NotRealizableError):
        anchor_embed(simplex, 2)


def test_trilaterate_examples():
    p = trilaterate([(0, 0), (1, 0)], [1, 4])
    assert np.allclose(p, [-1, 0], atol=1e-9)
    p = trilaterate([(0, 0), (1, 0), (0, 1)], [2, 1, 1])
    assert np.allclose(p, [1, 1], atol=1e-9)
    with pytest.raises(InconsistentDataError):
        trilaterate([(0, 0), (1, 0)], [1, 100])


def test_trilaterate_recovers_random_points():
    rng = random.Random(7)
    for seed in range(40):
        cloud = oracle.random_cloud(3 + seed % 4, 2 + seed % 3, seed=3000 + seed)
        anchors = cloud.points
        # a random affine combination stays inside the span
        weights = [rng.uniform(-1, 1) for _ in anchors]
        s = sum(weights)
        weights = [w / s if abs(s) > 0.1 else 1.0 / len(anchors) for w in weights]
        target = np.sum(np.array([[float(c) for c in p] for p in anchors])
                        * np.array(weights)[:, None], axis=0)
        dists = [float(np.sum((target - np.array([float(c) for c in a])) ** 2))
                 for a in anchors]
        got = trilaterate(anchors, dists)
        assert float(np.max(np.abs(got - target))) < 1e-9


def test_mirror_pair_examples():
    cands = mirror_pair([(0, 0), (1, 0)], [1, 2])
    assert len(cands) == 2
    got = sorted(tuple(np.round(c, 9)) for c in cands)
    assert got == [(0.0, -1.0), (0.0, 1.0)]
    cands = mirror_pair([(0, 0), (1, 0)], [1, 4])
    assert len(cands) == 1
    assert np.allclose(cands[0], [-1, 0], atol=1e-9)
    with pytest.raises(InconsistentDataError):
        mirror_pair([(0, 0), (1, 0)], [1, 9])


def test_mirror_pair_symmetry_random():
    for seed in range(40):
        d = 2 + seed % 3
        cloud = oracle.random_cloud(d, d, seed=4000 + seed)
        if affine_dim(cloud.points) != d - 1:
            continue
        target = oracle.random_cloud(1, d, seed=5000 + seed).points[0]
        dists = [sq_dist(target, a) for a in cloud.points]
        cands = mirror_pair(cloud.points, dists)
        h = Hyperplane.from_points(cloud.points)
        if len(cands) == 2:
            assert float(np.max(np.abs(reflect(cands[0], h) - cands[1]))) < 1e-9
        else:
            assert abs(h.signed_distance(cands[0])) < 1e-7


def _mirror_pair_reference(anchors, sq_dists, tol=1e-9):
    """One tuple solved on its own in an SVD basis of the span, bit for bit."""
    P = np.array([[float(c) for c in a] for a in anchors])
    r2 = np.array([float(v) for v in sq_dists])
    base, B = _span_basis(P, tol)
    assert B.shape[1] == P.shape[1] - 1
    scale = max(1.0, float(np.max(r2, initial=0.0)), float(np.max(np.abs(P))))
    V = P[1:] - base
    t = np.linalg.lstsq(V @ B, ((r2[0] + np.sum(V * V, axis=1) - r2[1:]) / 2.0)[:, None],
                        rcond=None)[0][:, 0] if B.shape[1] else np.zeros(0)
    p = base if B.shape[1] == 0 else base + B @ t
    h2 = r2[0] - float(t @ t)
    if h2 <= tol * scale * 100:
        return [p]
    h = math.sqrt(h2)
    return [p + h * _unit_normal(B), p - h * _unit_normal(B)]


def _residents(anchors, tuples):
    return [len(mirror_pair(anchors, t)) == 1 for t in tuples]


def test_mirror_pair_residents_at_the_limit():
    rng = random.Random(9)
    flags_seen = set()
    for seed in range(80):
        d = 1 + seed % 4
        anchors = oracle.random_cloud(d, d, seed=6000 + seed, grid=4).points
        if affine_dim(anchors) != d - 1:
            continue
        # rational affine combinations of the anchors lie on their span
        on_plane = []
        for _ in range(3):
            w = [F(rng.randint(-4, 4), 3) for _ in range(d - 1)]
            on_plane.append(tuple(a0 + sum(wj * (aj[i] - a0)
                                           for wj, aj in zip(w, anchors[1:]))
                                  for i, a0 in enumerate(anchors[0])))
        points = on_plane + list(oracle.random_cloud(5, d, seed=7000 + seed).points)
        tuples = [[sq_dist(p, a) for a in anchors] for p in points]
        # lifting an on-plane point by h adds h^2 to every squared distance; these
        # lifts sit at -1/2, 1/2 and 2 times the on-plane threshold 1e-7 * scale
        for t in tuples[:3]:
            scale = max(1, max(t), max(abs(c) for a in anchors for c in a))
            tuples += [[v + F(k, 2) * 1e-7 * scale for v in t] for k in (-1, 1, 4)]
        flags = _residents(anchors, tuples)
        for t in tuples:
            got, want = mirror_pair(anchors, t), _mirror_pair_reference(anchors, t)
            assert len(got) == len(want), seed
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), seed
        assert all(flags[:3]) and flags[8:] == [True, True, False] * 3
        flags_seen.update((d, bool(f)) for f in flags)
    assert flags_seen == {(d, f) for d in range(1, 5) for f in (True, False)}


def test_mirror_pair_rejects_unrealizable_tuples():
    anchors = [(0, 0), (1, 0)]
    assert _residents(anchors, [[1, 2], [1, 4]]) == [False, True]
    with pytest.raises(InconsistentDataError):
        _residents(anchors, [[1, 2], [1, 9], [1, 4]])
    # d = 1: the anchor span is a single point and the basis has no columns
    assert _residents([(2,)], [[0], [4]]) == [True, False]
    with pytest.raises(ValueError, match="exactly d-1"):
        mirror_pair([(0, 0, 0), (1, 0, 0), (2, 0, 0)], [1, 0, 1])


def test_reflect_examples():
    h = Hyperplane(normal=(0.0, 1.0), offset=0.0)
    assert np.allclose(reflect((0, 1), h), [0, -1])
    assert np.allclose(reflect((3, 0), h), [3, 0])
    p = (2.0, 5.0)
    assert np.allclose(reflect(reflect(p, h), h), p)


def test_reflection_distance_observation():
    # points on the same side keep their distance under reflection and are
    # strictly closer to each other than to the other's mirror image
    rng = random.Random(11)
    for _ in range(100):
        d = rng.choice((2, 3, 4))
        cloud = oracle.random_cloud(d, d, seed=rng.randint(0, 10 ** 6))
        if affine_dim(cloud.points) != d - 1:
            continue
        h = Hyperplane.from_points(cloud.points)
        a = np.array([rng.uniform(-3, 3) for _ in range(d)])
        b = np.array([rng.uniform(-3, 3) for _ in range(d)])
        sa, sb = h.signed_distance(a), h.signed_distance(b)
        if sa * sb <= 1e-6 or abs(sa) < 1e-3 or abs(sb) < 1e-3:
            continue
        a2, b2 = reflect(a, h), reflect(b, h)
        dab = float(np.linalg.norm(a - b))
        assert abs(dab - float(np.linalg.norm(a2 - b2))) < 1e-12
        assert dab < float(np.linalg.norm(a - b2))


def test_cone_coefficients_examples():
    cone = ConeSpec(generators=((1.0, 0.0), (0.0, 1.0)))
    lam, cls = cone_coefficients(cone, (1, 1))
    assert np.allclose(lam, [1, 1]) and cls == "interior"
    assert cone_coefficients(cone, (1, 0))[1] == "boundary"
    assert cone_coefficients(cone, (-1, 0))[1] == "outside"
    with pytest.raises(ValueError):
        ConeSpec(generators=((1.0, 0.0), (2.0, 0.0)))


def test_solid_angle_known_values():
    # quarter disc has area pi/4, halved by the 1/d factor
    cone = ConeSpec(generators=((1.0, 0.0), (0.0, 1.0)))
    est = solid_angle_mc(cone, 1_000_000, seed=42)
    assert abs(est - math.pi / 8) < 0.02 * math.pi / 8
    # octant of the unit ball: (4*pi/3)/8, divided by 3
    cone3 = ConeSpec(generators=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)))
    est3 = solid_angle_mc(cone3, 1_000_000, seed=42)
    assert abs(est3 - math.pi / 18) < 0.02 * math.pi / 18


@pytest.mark.parametrize("angle", [0.3, 0.8, 1.5, 2.4])
def test_solid_angle_planar_sector(angle):
    cone = ConeSpec(generators=((1.0, 0.0), (math.cos(angle), math.sin(angle))))
    est = solid_angle_mc(cone, 400_000, seed=7)
    assert abs(est - angle / 4) < 0.03 * angle / 4


def test_solid_angle_deterministic():
    cone = ConeSpec(generators=((1.0, 0.2, 0.0), (0.1, 1.0, 0.3), (0.0, 0.2, 1.0)))
    a = solid_angle_mc(cone, 200_000, seed=123)
    b = solid_angle_mc(cone, 200_000, seed=123)
    assert a == b


def test_cone_angle_monotone_under_interior_swap():
    # replacing a generator by an interior point shrinks the solid angle;
    # common random numbers make the comparison strict sample-for-sample
    rng = random.Random(23)
    for trial in range(25):
        d = rng.choice((2, 3))
        while True:
            gens = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(d)])
            if abs(np.linalg.det(gens)) > 0.3:
                break
        lams = [rng.uniform(0.25, 1.0) for _ in range(d)]
        y = np.sum(gens * np.array(lams)[:, None], axis=0)
        cone = ConeSpec(generators=tuple(map(tuple, gens)))
        swapped = ConeSpec(generators=tuple(map(tuple, np.vstack([y, gens[1:]]))))
        seed = 9000 + trial
        a = solid_angle_mc(cone, 1_000_000, seed=seed)
        b = solid_angle_mc(swapped, 1_000_000, seed=seed)
        assert b < a


def test_sweep_places_every_resolving_entry_in_one_pass():
    # (0,) and (2,) resolve, (1,) does not: each entry is asked once, in list order
    entries = Entries([(1,), (0,), (2,)])
    asked, placed = [], []

    def choose(e):
        asked.append(e)
        return None if e == (1,) else 10 * e[0]

    def place(p):
        placed.append(p)
        entries.take((p // 10,), 0)

    entries.sweep(choose, place)
    assert placed == [0, 20] and entries.live() == [(0, (1,))]
    assert asked == [(1,), (0,), (2,)]


def test_sweep_placement_may_remove_several_entries():
    entries = Entries([(5,), (6,), (7,), (8,)])
    placed = []

    def place(p):
        placed.append(p)
        entries.take((p,), 0)
        entries.take(entries.live()[-1][1], 0)  # a placed point also consumes its partner entry

    entries.sweep(lambda e: e[0] if e[0] % 2 else None, place)
    assert placed == [5, 7] and len(entries) == 0


def test_sweep_stops_when_nothing_resolves():
    entries = Entries([(3,), (1,), (2,)])
    asked = []

    def place(p):
        raise AssertionError("nothing should be placed")

    entries.sweep(lambda e: asked.append(e), place)
    assert asked == [(3,), (1,), (2,)] and [e for _, e in entries.live()] == asked


def test_sweep_propagates_errors_from_choose():
    def choose(e):
        raise ReconstructionError("both mirror candidates are forbidden")

    with pytest.raises(ReconstructionError, match="both mirror candidates"):
        Entries([(1,)]).sweep(choose, lambda p: None)


def test_take_with_a_float_zero_limit_matches_exact_entries():
    # an exact store's limit is tol * ... = 0.0: the bound on the first coordinate must
    # stay exact, or F(1, 3) - 0.0 turns into a float that misses the entry
    entries = Entries([(F(1, 3), F(2)), (F(1, 3), F(1)), (F(1, 3), F(1))])
    entries.take((F(1, 3), F(1)), 0.0)
    assert entries.live() == [(0, (F(1, 3), F(2))), (2, (F(1, 3), F(1)))]
    with pytest.raises(InconsistentDataError, match="no multiset entry equals"):
        entries.take((F(1, 3), F(3)), 0.0)


def _det(M):
    """Exact determinant by the Leibniz formula."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += sign * math.prod(M[i][perm[i]] for i in range(n))
    return total


def _greedy_basis(G):
    """Slots j whose principal submatrix over the basis so far and j gains rank."""
    basis = []
    for j in range(len(G)):
        idx = basis + [j]
        if _det([[G[a][b] for b in idx] for a in idx]) != 0:
            basis.append(j)
    return basis


# anchor tuples (x_0, x_1, ..., x_k) whose dependent slots are not the last
DEPENDENT_TUPLES = [
    ((0, 0, 0), (1, 2, 0), (3, -1, 0), (4, 1, 0), (0, 1, 5)),   # z_3 = z_1 + z_2
    ((0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 2, 0)),               # a repeated point
    ((1, 1, 1), (1, 1, 1), (2, 1, 0), (0, 3, 1)),               # x_1 = x_0
    ((0, 0), (2, 1), (F(1, 3), F(1, 6)), (1, 5)),               # z_2 = z_1 / 6
    ((0, 0, 0, 0), (1, 0, 2, 0), (2, 0, 4, 0), (3, 1, 0, 0), (0, 0, 0, 7)),
]


def test_pivot_columns_are_the_greedy_basis():
    rng = random.Random(4)
    tuples = list(DEPENDENT_TUPLES)
    for _ in range(30):  # random coplanar anchor sets in R^3
        base = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in range(2)]
        pts = [(0, 0, 0)] + [tuple(a * u + b * v for u, v in zip(*base))
                             for a, b in ((rng.randint(-3, 3), rng.randint(-3, 3))
                                          for _ in range(4))]
        tuples.append(tuple(pts))
    for k, pts in enumerate(tuples):
        pts = [tuple(F(c) for c in p) for p in pts]
        G = _gram(np.array(squared_distance_matrix(pts).entries, dtype=object))
        basis = _eliminate(G.tolist())[0]
        assert basis == _greedy_basis(G.tolist()), pts
        assert len(basis) == affine_dim(pts) < len(G)
        if k < len(DEPENDENT_TUPLES):  # a dependent slot comes before an independent one
            assert basis != list(range(len(basis))), pts


def _reference_rref(M):
    """Pivot columns and reduced row echelon form of M, in Fractions."""
    m, pivots = [[F(x) for x in row] for row in M], []
    for c in range(len(m[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m


def _random_matrix(rng, rational: bool):
    """A random rectangular matrix, a third of them square, of random rank (full
    for a third), maybe with a zero column and a zero top entry over a nonzero
    one, which forces a row swap."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    cols = rows if rng.random() < 1 / 3 else cols
    k = min(rows, cols) if rng.random() < 1 / 3 else rng.randint(0, min(rows, cols))

    def entry():
        return F(rng.randint(-4, 4), rng.randint(1, 5)) if rational else rng.randint(-4, 4)
    left = [[entry() for _ in range(k)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(k)]
    M = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
         for i in range(rows)]
    if rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in M:
            row[c] = 0
    if rows > 1 and rng.random() < 0.5:
        M[0], M[1] = M[1], M[0]
        M[0][0], M[1][0] = 0, M[1][0] or 1
    return M


def test_fraction_free_elimination_matches_the_rational_reference():
    rng = random.Random(7)
    for t in range(600):
        M = _random_matrix(rng, rational=t % 3 == 0)
        pivots, sign, rows = _eliminate(M)
        ref, rref = _reference_rref(M)
        assert pivots == ref, M
        # each pivot row is p times its reduced row, p the last pivot; the rest are 0
        p = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
        assert rows == [[p * x for x in row] for row in rref[:len(pivots)]] \
            + [[0] * len(M[0])] * (len(M) - len(pivots)), M
        if len(M) == len(M[0]) and t % 3:  # square integer: det and adj from [M | I]
            m = len(M)
            pivots, sign, rows = _eliminate([row + [int(i == j) for j in range(m)]
                                             for i, row in enumerate(M)])
            det = sign * rows[0][0] if pivots == list(range(m)) else 0
            assert det == _det(M), M
            if det:
                adj = [[sign * x for x in row[m:]] for row in rows]
                assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)]
                        for row in M] == [[det * (i == j) for j in range(m)] for i in range(m)]


def test_float_rank_of_a_stack_is_each_matrix_rank():
    rng = np.random.default_rng(2)
    Z = rng.normal(size=(12, 3, 2)) @ rng.normal(size=(12, 2, 3))  # rank 2
    Z[::3, 1:] = 0  # rank 1
    Z[1::3] = rng.normal(size=(4, 3, 3))  # rank 3
    ranks = _float_rank(Z, 1e-9)
    assert ranks.tolist() == [_float_rank(z, 1e-9) for z in Z]
    assert set(ranks.tolist()) == {1, 2, 3}
