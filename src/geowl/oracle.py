"""Ground-truth utilities: brute-force isometry decision and random generators.

The isometry oracle is deliberately independent of the coloring machinery:
it searches point correspondences directly and fits an orthogonal alignment,
so it can serve as the reference answer when validating everything else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import wl
from .geometry import PointCloud, affine_dim

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


def _anchor_indices(A: np.ndarray) -> list[int]:
    """Greedy affinely independent subset of rows, picked in index order.

    Row 0 is always taken; each later row is kept when it raises the affine
    dimension, judged at a fixed tolerance of 1e-12, until dim + 1 rows are
    held.
    """
    n = A.shape[0]
    idx = [0]
    for i in range(1, n):
        cand = idx + [i]
        if affine_dim([tuple(A[j]) for j in cand], tol=1e-12) == len(cand) - 1:
            idx.append(i)
        if len(idx) == A.shape[1] + 1:
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


def _match(mapped: np.ndarray, B: np.ndarray, limit: float) -> list[int] | None:
    """Greedy nearest-unused assignment; None when any point has no match."""
    n = B.shape[0]
    used = [False] * n
    perm: list[int] = []
    for i in range(n):
        diffs = np.sum((B - mapped[i]) ** 2, axis=1)
        order = np.argsort(diffs)
        chosen = -1
        for j in order:
            if not used[j]:
                chosen = int(j)
                break
        if chosen < 0 or diffs[chosen] > limit * limit:
            return None
        used[chosen] = True
        perm.append(chosen)
    return perm


def is_isometric(a: PointCloud, b: PointCloud, tol: float = 1e-6) -> Alignment | None:
    """Decide whether a distance-preserving bijection maps a onto b.

    Returns the witnessing alignment (orthogonal matrix, translation, point
    permutation, max per-point residual) or None.  Size or dimension
    mismatches simply report non-isometric.
    """
    if a.n != b.n or a.dim != b.dim:
        return None
    A, B = a.as_array(), b.as_array()
    n, d = A.shape
    scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(B))))
    if n == 1:
        t = B[0] - A[0]
        return Alignment(tuple(map(tuple, np.eye(d))), tuple(t), (0,), 0.0)

    def sorted_sq(M):
        return np.sort(np.sum((M[:, None, :] - M[None, :, :]) ** 2, axis=2), axis=None)

    pre_tol = 8 * tol * scale * max(1.0, scale)
    if float(np.max(np.abs(sorted_sq(A) - sorted_sq(B)))) > pre_tol:
        return None

    anchors = _anchor_indices(A)
    k = len(anchors)
    sqA = np.sum((A[:, None, :] - A[None, :, :]) ** 2, axis=2)
    sqB = np.sum((B[:, None, :] - B[None, :, :]) ** 2, axis=2)
    inv_a = [np.sort(sqA[i]) for i in range(n)]
    inv_b = [np.sort(sqB[i]) for i in range(n)]

    def compatible(i, j):
        return float(np.max(np.abs(inv_a[i] - inv_b[j]))) <= pre_tol

    def try_assignment(images: list[int]) -> Alignment | None:
        Q, t = _fit(A[anchors], B[images])
        mapped = A @ Q.T + t
        perm = _match(mapped, B, limit=100 * tol * scale)
        if perm is None:
            return None
        # refit on the full correspondence for the final residual
        Q, t = _fit(A, B[perm])
        mapped = A @ Q.T + t
        residual = float(np.max(np.sqrt(np.sum((mapped - B[perm]) ** 2, axis=1))))
        if residual > tol * scale:
            return None
        return Alignment(tuple(map(tuple, Q)), tuple(t), tuple(perm), residual)

    def backtrack(pos: int, images: list[int]) -> Alignment | None:
        if pos == k:
            return try_assignment(images)
        ai = anchors[pos]
        for j in range(n):
            if j in images or not compatible(ai, j):
                continue
            ok = all(abs(sqA[ai, anchors[s]] - sqB[j, images[s]]) <= pre_tol
                     for s in range(pos))
            if not ok:
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
    return PointCloud(dim=d, points=_on_grid(drawn, grid), label=f"random-{n}x{d}-s{seed}")


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
    """A cloud closed under reflection through the first coordinate hyperplane.

    Drawn, mirrored and sorted as numerator tuples: k -> k/grid keeps their order.
    """
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
    if len(pts) != n:
        return None
    return PointCloud(dim=d, points=_on_grid(sorted(pts), grid), label=f"sym-{n}x{d}-s{seed}")


def search_indistinguishable(ell: int, iters: int, d: int, n: int, budget: int,
                             seed: int, trials=None) -> list[dict]:
    """Randomized and symmetry-biased search for equal-fingerprint non-isometric pairs.

    Draws pairs of small-grid clouds (coarse grids make distance collisions
    frequent), compares exact fingerprints at (ell, iters), and keeps pairs
    that the isometry oracle rejects.  Returns findings with full provenance;
    an empty list is the expected outcome in the regimes where the test is
    complete.  `trials` restricts the scan to a subset of trial indices so
    callers can shard the budget; results depend only on (seed, trial).
    """
    findings = []
    if trials is None:
        trials = range(budget)
    for trial in trials:
        base = seed * 1_000_003 + trial * 7919
        if trial % 2 == 0:
            a = random_cloud(n, d, base, grid=2, span=1)
            b = random_cloud(n, d, base + 1, grid=2, span=1)
        else:
            a = _symmetric_cloud(n, d, base, grid=2)
            b = _symmetric_cloud(n, d, base + 1, grid=2)
            if a is None or b is None:
                continue
        interner = wl.Interner("exact")
        fa = wl.fingerprint(wl.run_wl(a, ell, iters, interner=interner))
        fb = wl.fingerprint(wl.run_wl(b, ell, iters, interner=interner))
        if fa.entries != fb.entries:
            continue
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
