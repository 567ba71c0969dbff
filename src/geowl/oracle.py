"""Ground-truth utilities: brute-force isometry decision and random generators.

The isometry oracle is deliberately independent of the coloring machinery:
it searches point correspondences on the clouds' squared-distance matrices
and fits an orthogonal alignment, so it can serve as the reference answer
when validating everything else.  Its verdict is scale-free: two exact clouds
must have exactly equal squared distances, and every float bound is tol
relative to the clouds' extent, so a cloud and its scaled copy get the same
answer against equally scaled partners.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import wl
from .geometry import PointCloud, _eliminate, exact_sq_numerators

# Exactness-preserving rational rotations: columns (a, b, c) with a^2+b^2=c^2.
_PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


@dataclass(frozen=True)
class Alignment:
    """An isometry b[perm[i]] ~ matrix @ a[i] + translation with max residual."""

    matrix: tuple[tuple[float, ...], ...]
    translation: tuple[float, ...]
    permutation: tuple[int, ...]
    residual: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        Q = np.array(self.matrix)
        t = np.array(self.translation)
        return points @ Q.T + t


def _anchor_indices(A: np.ndarray, floor: float, points=None) -> list[int]:
    """Row 0 and, in index order, each later row that raises the affine
    dimension of the rows kept, until dim + 1 are held.

    With the cloud's exact `points` the rank is exact: the kept rows are the
    pivot columns of the differences to row 0.  Otherwise a row is kept when
    it lies farther than `floor` from the affine span of the rows kept.
    """
    n, d = A.shape
    if points is not None:
        diffs = [[p[c] - points[0][c] for p in points[1:]] for c in range(d)]
        return [0] + [1 + c for c in _eliminate(diffs)[0]]
    idx, basis = [0], np.zeros((0, d))
    for i in range(1, n):
        r = A[i] - A[0]
        r -= basis.T @ (basis @ r)
        norm = float(np.linalg.norm(r))
        if norm > floor:
            idx.append(i)
            basis = np.vstack([basis, r / norm])
            if len(idx) == d + 1:
                break
    return idx


def _fit(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal Procrustes fit (reflections allowed): B ~ A @ Q.T + t."""
    ca = A.mean(axis=0)
    cb = B.mean(axis=0)
    H = (A - ca).T @ (B - cb)
    U, _, Vt = np.linalg.svd(H)
    Q = (U @ Vt).T
    t = cb - Q @ ca
    return Q, t


def _sq_matrix(X: np.ndarray) -> np.ndarray:
    return np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)


def _cheapest_first(cost: np.ndarray) -> np.ndarray:
    """The bijection taking pairs (i, j) by increasing cost[i, j], ties row-major, while
    both are free: the row-wise argmin wherever that argmin is injective."""
    n = len(cost)
    perm, used = [-1] * n, set()
    for flat in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n)
        if perm[i] < 0 and j not in used:
            perm[i] = j
            used.add(j)
    return np.array(perm)


def is_isometric(a: PointCloud, b: PointCloud, tol: float = 1e-6) -> Alignment | None:
    """Decide whether a distance-preserving bijection maps a onto b.

    With R the larger of the two clouds' extents (the largest distance from
    a cloud's barycenter), a bijection is accepted when every squared
    distance is preserved within 8·tol·R², exactly when both clouds are
    exact, and its orthogonal fit leaves every point within tol·R of its
    image.  The search backtracks a's affinely independent anchors onto b
    through sorted squared-distance rows, then sends every other point to
    the point of b nearest in squared distances to the anchors' images (by
    `_cheapest_first` where two points' float distances tie).
    Returns the witnessing alignment (orthogonal matrix, translation, point
    permutation, max per-point residual) or None.  Size or dimension
    mismatches simply report non-isometric.
    """
    if a.n != b.n or a.dim != b.dim:
        return None
    A, B = a.as_array(), b.as_array()
    # scaling by 2^-e, 2^e about the largest coordinate, is exact and keeps every square finite
    e = np.frexp(max(np.abs(A).max(), np.abs(B).max()))[1]
    A, B = np.ldexp(A, -e), np.ldexp(B, -e)
    n = A.shape[0]
    R = max(float(np.max(np.linalg.norm(X - X.mean(axis=0), axis=1))) for X in (A, B))
    bound = 8 * tol * R * R
    sqA, sqB = _sq_matrix(A), _sq_matrix(B)
    rows_a, rows_b = np.sort(sqA, axis=1), np.sort(sqB, axis=1)
    points = a.points if a.exact else None
    anchors = _anchor_indices(A, tol * R, points)
    k = len(anchors)
    to_anchors = sqA[:, anchors]
    exact = points is not None and b.exact

    def try_assignment(images: list[int]) -> Alignment | None:
        gaps = to_anchors[:, None, :] - sqB[None, :, images]
        cost = np.sum(gaps * gaps, axis=2)
        perm = np.argmin(cost, axis=1)
        if len(set(perm.tolist())) < n:  # rows tie in floats: the cheapest injective pairs
            perm = _cheapest_first(cost)
        if float(np.max(np.abs(sqA - sqB[np.ix_(perm, perm)]))) > bound:
            return None
        if exact:  # one common denominator for both clouds' squared distances
            S = exact_sq_numerators(a.points + b.points)[0]
            if not np.array_equal(S[:n, :n], S[n:, n:][np.ix_(perm, perm)]):
                return None
        Q, t = _fit(A, B[perm])
        residual = float(np.max(np.sqrt(np.sum((A @ Q.T + t - B[perm]) ** 2, axis=1))))
        if residual > tol * R:
            return None
        return Alignment(tuple(map(tuple, Q)), tuple(np.ldexp(t, e).tolist()),
                         tuple(perm.tolist()), float(np.ldexp(residual, e)))

    def backtrack(pos: int, images: list[int]) -> Alignment | None:
        if pos == k:
            return try_assignment(images)
        ai = anchors[pos]
        for j in range(n):
            if j in images or float(np.max(np.abs(rows_a[ai] - rows_b[j]))) > bound:
                continue
            if any(abs(sqA[ai, anchors[s]] - sqB[j, images[s]]) > bound for s in range(pos)):
                continue
            images.append(j)
            found = backtrack(pos + 1, images)
            images.pop()
            if found is not None:
                return found
        return None

    return backtrack(0, [])


def random_cloud(n: int, d: int, seed: int, grid: int = 8, span: int = 4) -> PointCloud:
    """n distinct points with rational coordinates k/grid, deterministic per seed.

    Raises ValueError, before drawing anything, when the (2*span*grid + 1)^d
    grid positions are fewer than n.
    """
    return PointCloud(dim=d, points=_on_grid(_random_numerators(n, d, seed, grid, span), grid),
                      label=f"random-{n}x{d}-s{seed}")


def _random_numerators(n: int, d: int, seed: int, grid: int, span: int) -> list[tuple]:
    """The numerator tuples k of `random_cloud`'s points k/grid, in draw order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if d < 1 or grid < 1 or span < 0:
        raise ValueError(f"need d >= 1, grid >= 1 and span >= 0 (got d={d}, grid={grid}, "
                         f"span={span})")
    side = 2 * span * grid + 1
    if side ** d < n:
        raise ValueError(f"{n} distinct points do not fit on the {side}^{d} grid positions")
    rng = random.Random(seed)
    lo, hi = -span * grid, span * grid
    drawn: dict = {}  # distinct numerator tuples, in draw order
    while len(drawn) < n:
        drawn[tuple(rng.randint(lo, hi) for _ in range(d))] = None
    return list(drawn)


def _on_grid(numerators, grid: int) -> tuple:
    """Points with coordinates k/grid from their numerator tuples, in order."""
    return tuple(tuple(Fraction(k, grid) for k in p) for p in numerators)


def _rational_rotation(d: int, rng: random.Random) -> list[list[Fraction]]:
    """Random signed permutation composed with rational plane rotations (exactly orthogonal)."""
    perm = list(range(d))
    rng.shuffle(perm)
    Q = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        Q[i][perm[i]] = Fraction(rng.choice((1, -1)))
    if d >= 2:
        for _ in range(d):
            i, j = rng.sample(range(d), 2)
            a, b, c = rng.choice(_PYTHAGOREAN_TRIPLES)
            if rng.random() < 0.5:
                a, b = b, a
            R = [[Fraction(1) if r == s else Fraction(0) for s in range(d)] for r in range(d)]
            R[i][i] = Fraction(a, c)
            R[i][j] = Fraction(-b, c)
            R[j][i] = Fraction(b, c)
            R[j][j] = Fraction(a, c)
            Q = [[sum(R[r][t] * Q[t][s] for t in range(d)) for s in range(d)]
                 for r in range(d)]
    return Q


def apply_random_isometry(cloud: PointCloud, seed: int) -> PointCloud:
    """A random exactness-preserving isometry plus a random point reordering.

    The orthogonal part combines a signed permutation with rational rotations
    built from Pythagorean triples, so rational inputs stay rational and
    fingerprints of the image match the original bit for bit in exact mode.
    """
    rng = random.Random(seed)
    d = cloud.dim
    Q = _rational_rotation(d, rng)
    t = [Fraction(rng.randint(-16, 16), rng.choice((1, 2, 3, 4, 5, 8))) for _ in range(d)]
    exact = cloud.exact
    points = []
    for p in cloud.points:
        src = [Fraction(c) if exact else c for c in p]
        img = []
        for r in range(d):
            v = sum(Q[r][s] * src[s] for s in range(d)) + t[r]
            img.append(v if exact else float(v))
        points.append(tuple(img))
    rng.shuffle(points)
    return PointCloud(dim=d, points=tuple(points), label=cloud.label)


def _symmetric_cloud(n: int, d: int, seed: int, grid: int) -> PointCloud | None:
    """A cloud closed under reflection through the first coordinate hyperplane."""
    nums = _symmetric_numerators(n, d, seed, grid)
    if nums is None:
        return None
    return PointCloud(dim=d, points=_on_grid(nums, grid), label=f"sym-{n}x{d}-s{seed}")


def _symmetric_numerators(n: int, d: int, seed: int, grid: int) -> list[tuple] | None:
    """The sorted numerator tuples k of `_symmetric_cloud`'s points k/grid (k -> k/grid
    keeps their order), or None when 200 draws do not give n points."""
    rng = random.Random(seed)
    pts: set = set()
    guard = 0
    while len(pts) < n and guard < 200:
        guard += 1
        p = tuple(rng.randint(-2 * grid, 2 * grid) for _ in range(d))
        mirror = (-p[0],) + p[1:]
        if p[0] == 0:
            if len(pts) + 1 <= n:
                pts.add(p)
        elif len(pts) + 2 <= n:
            pts.add(p)
            pts.add(mirror)
    return sorted(pts) if len(pts) == n else None


def search_indistinguishable(ell: int, iters: int, d: int, n: int, budget: int,
                             seed: int, trials=None) -> list[dict]:
    """Randomized and symmetry-biased search for equal-fingerprint non-isometric pairs.

    Draws pairs of small-grid clouds (coarse grids make distance collisions
    frequent), compares exact fingerprints at (ell, iters), and keeps pairs
    that the isometry oracle rejects: the clouds are exact, so a pair is kept
    when no bijection preserves every squared distance exactly.  A trial
    stays on the clouds' integer numerators over the grid: one int64
    broadcast squares both, one `intern_keys` call interns both matrices
    over grid^2, one stacked build makes both iteration-0 stores, which are
    refined in lockstep (`wl.refine(sa, sb)`); the `PointCloud`s are built
    only when the fingerprints tie.  Returns findings with full
    provenance; an empty list is the expected outcome in the regimes where
    the test is complete.  `trials` restricts the scan to a subset of trial
    indices so callers can shard the budget; results depend only on
    (seed, trial).
    """
    if iters < 0:
        raise ValueError("iters must be non-negative")
    grid = 2
    findings = []
    if trials is None:
        trials = range(budget)
    for trial in trials:
        base = seed * 1_000_003 + trial * 7919
        if trial % 2 == 0:
            drawn = [_random_numerators(n, d, base + i, grid, 1) for i in (0, 1)]
        else:
            drawn = [_symmetric_numerators(n, d, base + i, grid) for i in (0, 1)]
            if None in drawn:
                continue
        interner = wl._checked_interner(n, ell)
        nums = np.array(drawn)  # (2, n, d): both clouds' numerators over grid
        sq = ((nums[:, :, None] - nums[:, None]) ** 2).sum(-1)
        ids = interner.intern_keys(sq.ravel().tolist(), grid * grid).reshape(sq.shape)
        sa, sb = wl._stores(interner, ell, d, ids, [None, None])
        for _ in range(iters):
            wl.refine(sa, sb)
        fa = wl.fingerprint(sa)
        fb = wl.fingerprint(sb)
        if fa.entries != fb.entries:
            continue
        a, b = (PointCloud(dim=d, points=_on_grid(nums, grid)) for nums in drawn)
        if is_isometric(a, b) is not None:
            continue
        findings.append({
            "trial": trial,
            "seed": seed,
            "ell": ell,
            "iters": iters,
            "cloud_a": [[str(c) for c in p] for p in a.points],
            "cloud_b": [[str(c) for c in p] for p in b.points],
            "dim": d,
        })
    return findings
