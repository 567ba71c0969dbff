"""Reconstruction from a single refinement of the d-tuple coloring.

Every refined tuple color carries the tuple's own distance matrix plus the
multiset of distance d-tuples from all cloud points to the tuple.  If no
tuple spans d-1 dimensions, the whole cloud lies in the top tuple's affine
span, where each point has one position.  Otherwise each point has at most
two mirror positions over a hyperplane tuple, and the cloud is rebuilt
from one whose hyperplane supports it (leaves every point in one closed
half-space), by placing every point on the same side.

Signed heights over a hyperplane average to the barycenter's height, so
the hyperplane supports the cloud exactly when sum_y |h_y| = n |h_b|.  The
|h_y| come from the tuple's records, and |h_b| from the barycenter's
squared distances to the tuple, (f(x_j) - T/(2n))/n, where f(x_j) sums the
records' j-th entries and T, the ordered-pair sum of squared distances,
comes from the initial colors.  Colors are scanned in digest order, BLOCK
at a time: one `ColorStore.tuple_distances` read and one float Gram stack
give every tuple's rank (`geometry.gram_ranks`, as `wlnd` ranks) and every
height over each hyperplane tuple, from one L D L^T solve.  Only the tuple
accepted is placed, in Gram coordinates rendered by `geometry.gram_points`,
its heights on the last axis.  Every bound is relative to the data.

The built cloud must still match the coloring's total distance sum.  That
certificate works with true (unsquared) distances: strict subadditivity
under mirror mixing fails for squared distances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .config import DEFAULT_MAX_CANDIDATES, DEFAULT_TOL
from .errors import CapExceededError, InconsistentDataError, ReconstructionError
from .geometry import (PointCloud, _gram, affine_dim, gram_basis, gram_points, gram_ranks,
                       ldl)
# perfbench/tracer.py binds these names on this module, and its per-layer
# metrics read them; `anchor_embed` and `trilaterate` are bound only.
from .geometry import anchor_embed, mirror_pair, trilaterate  # noqa: F401
from .report import ReconstructionReport
from .wl import ColorStore

# Tuple colors per `tuple_distances` read.  At n = 30, d = 3 a read of 32 colors
# takes 0.7 ms and one of 64 2.0 ms.  Of 16, 32, 48, 64 and 128, 32 took least in
# total on scans of 6 colors (d = 3) and of 51 (d = 2, n = 24), 16 a close second.
BLOCK = 32


def _pair_sum(points: np.ndarray) -> float:
    """Sum of distances over ordered point pairs."""
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sum(np.sqrt(np.sum(diff * diff, axis=2))))


def _pair_sums(store: ColorStore) -> tuple[float, float]:
    """The ordered pairwise sums of distances and of squared distances, read off
    the coloring by `ColorStore.pair_distances`."""
    dist = sq = 0.0
    for did, k in store.pair_distances().items():
        v = float(store.value_of(did))
        dist += k * math.sqrt(v)
        sq += k * v
    return dist, sq


def total_distance_sum(store: ColorStore) -> float:
    """The cloud's ordered pairwise distance sum, read off the coloring."""
    return _pair_sums(store)[0]


@dataclass(frozen=True)
class CandidateCloud:
    """One mirror assignment for the points of a candidate reconstruction."""

    anchors: tuple[tuple[float, ...], ...]
    assignment: tuple[int, ...]  # +1/-1 per two-sided entry, 0 for residents
    points: tuple[tuple[float, ...], ...]
    total: float


def enumerate_candidates(anchors, sq_tuples, tol: float = DEFAULT_TOL,
                         cap: int = DEFAULT_MAX_CANDIDATES) -> list[CandidateCloud]:
    """All candidate clouds realizing the distance tuples, up to global reflection.

    Anchors must span a hyperplane (affine dimension d-1).  Entries on the
    span have a single position; the first two-sided entry is pinned to the
    positive side to quotient out the reflection through the span.
    """
    anchors = np.array([[float(c) for c in a] for a in anchors])
    resolved = [mirror_pair(anchors, entry, tol) for entry in sq_tuples]
    two_sided = [i for i, c in enumerate(resolved) if len(c) == 2]
    free = max(len(two_sided) - 1, 0)
    if 2 ** free > cap:
        raise CapExceededError(
            f"{2 ** free} mirror assignments exceed the candidate cap of {cap}")
    out = []
    for signs in product((1, -1), repeat=free):
        assignment = [0] * len(resolved)
        for i, sign in zip(two_sided, (1,) + signs):
            assignment[i] = sign
        points = tuple(tuple(c[sign < 0]) for c, sign in zip(resolved, assignment))
        out.append(CandidateCloud(anchors=tuple(map(tuple, anchors)),
                                  assignment=tuple(assignment), points=points,
                                  total=_pair_sum(np.array(points))))
    return out


def _solve(G: np.ndarray, R: np.ndarray):
    """L, D, u and the squared heights h^2 of points over the span of anchors x_0..x_m,
    G = L D L^T the Gram matrix of z_j = x_j - x_0 and R a point's squared distances
    (r_0, ..., r_m) per row; leading axes stack frames.  u = L^-1 g solves for
    g_j = <x - x_0, z_j> = (r_0 + G_jj - r_j)/2 with the condition number of
    L sqrt(D), the square root of G's, and h^2 = r_0 - sum_j u_j (u_j / D_j)."""
    u = (R[..., :1] + np.diagonal(G, axis1=-2, axis2=-1)[..., None, :] - R[..., 1:]) / 2
    L, D = ldl(G)
    for j in range(1, u.shape[-1]):
        u[..., j] -= (u[..., :j] * L[..., None, j, :j]).sum(-1)
    return L, D, u, R[..., 0] - (u * (u / D[..., None, :])).sum(-1)


def _heights(h2: np.ndarray, R: np.ndarray, tol: float):
    """sqrt(h^2), 0 (a resident) where h^2 is at most 100 tol times its row's largest
    squared distance, and per stack of rows whether one h^2 is below minus that."""
    limit = 100 * tol * R.max(-1)
    return np.sqrt(np.where(h2 <= limit, 0.0, h2)), (h2 < -limit).any(-1)


def _rows(G: np.ndarray, R: np.ndarray, sq_total: float, tol: float):
    """Tuples' records R, (k, n, d), with the barycenter's squared distances
    appended; `_solve`'s h^2 of them (NaN for a G singular in floats); whether
    one is negative; and whether each tuple's hyperplane supports the cloud:
    (sum_y h_y)^2 = n^2 h_b^2 within tol n^2 times the records' largest r_j."""
    n = R.shape[1]
    R = np.concatenate([R, (R.sum(1, keepdims=True) - sq_total / (2 * n)) / n], 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        h2 = _solve(G, R)[3]
    heights, negative = _heights(h2, R, tol)
    s, bound = heights[:, :n].sum(-1), tol * n * n * R[:, :n].max((-2, -1))
    return R, h2, negative, np.abs(s * s - n * n * h2[:, n]) <= bound


def _placed(G: np.ndarray, R: np.ndarray, B: list[int], tol: float) -> np.ndarray:
    """Points at squared distances R to the anchors: Gram coordinates lambda over
    the anchors in the basis B, from lambda L = u / D by back substitution,
    rendered by `gram_points`, and their heights above the span last."""
    L, D, u, h2 = _solve(G[np.ix_(B, B)], R[:, [0] + [j + 1 for j in B]])
    lams, w = np.zeros((len(R), len(G))), u / D
    for j in reversed(range(len(B) - 1)):
        w[:, j] -= (w[:, j + 1:] * L[j + 1:, j]).sum(-1)
    lams[:, B] = w
    heights, negative = _heights(h2, R, tol)
    if negative:
        raise InconsistentDataError("negative squared height: distances are unrealizable")
    return np.column_stack([gram_points(G, lams), heights])


def reconstruct_one_iter(store: ColorStore, tol: float = DEFAULT_TOL,
                         cap: int = DEFAULT_MAX_CANDIDATES) -> ReconstructionReport:
    """Rebuild the cloud from one refinement of its d-tuple coloring.

    Scans the tuple colors in digest order.  Each tuple spanning a
    hyperplane is tested by the barycenter-height identity, and one that
    passes has its points placed on the positive side of its span; they are
    accepted when their ordered pair-distance sum matches the coloring's and
    they are distinct.  Unrealizable distance data in a tested tuple raises
    InconsistentDataError, and a test past the `cap`-th CapExceededError.
    When no tuple spans a hyperplane, the cloud lies in the span of the
    first color of greatest dimension and is placed in it.
    """
    if store.iterations < 1:
        raise ValueError("need at least one refinement")
    d = store.dim
    if store.ell != d:
        raise ValueError(f"one-iteration reconstruction needs ell == dim, "
                         f"got ell={store.ell}, dim={d}")
    n = store.n
    if n == 1:
        cloud = PointCloud(dim=d, points=(tuple([0.0] * d),))
        return ReconstructionReport(cloud=cloud, method="oneshot-trivial",
                                    counters={"candidates_tried": 0})

    ds_total, sq_total = _pair_sums(store)
    floats = store.dist_floats
    exact = np.vectorize(store.value_of, otypes="O") if store.interner.mode == "exact" else None
    heap = [(store.interner.digests[c], c) for c in set(store.tables[1])]
    heapq.heapify(heap)  # popped in digest order a block at a time: most scans stop early
    colors, off, tried = [], ~np.eye(d, dtype=bool), 0
    while heap:
        colors += (block := [heapq.heappop(heap)[1] for _ in range(min(BLOCK, len(heap)))])
        mats, dists = store.tuple_distances(block)
        # a tuple that repeats a point spans no hyperplane
        rows = np.flatnonzero(~(mats[:, off] == store.dist_array[0, 0]).any(-1))
        G, rank = gram_ranks(mats[rows], floats, tol, exact)
        rows, G = rows[rank == d - 1], G[rank == d - 1]
        R, _, negative, supports = _rows(G, floats[dists[rows]], sq_total, tol)
        for i in range(len(rows)):
            if tried == cap:
                raise CapExceededError(
                    f"no hyperplane tuple accepted within the cap of {cap} tried tuples")
            tried += 1
            if negative[i]:
                raise InconsistentDataError("negative squared height: distances are unrealizable")
            if not supports[i]:
                continue
            points = _placed(G[i], R[i, :n], list(range(d - 1)), tol)
            total = _pair_sum(points)
            # degenerate coincidences cannot be the accepted candidate
            if abs(total - ds_total) <= tol * n * n * ds_total \
                    and len(set(map(tuple, points))) == n:
                return ReconstructionReport(
                    cloud=PointCloud.from_array(points), method="oneshot-halfspace",
                    counters={"candidates_tried": tried, "total_gap": total - ds_total,
                              "pair_sum": total})
    if tried:
        raise ReconstructionError(
            f"no hyperplane tuple accepted: {tried} tuples scanned, target sum {ds_total}")
    # the whole cloud lies in the span of the first color of greatest dimension
    mats, dists = store.tuple_distances(colors)
    rank = gram_ranks(mats, floats, tol, exact)[1]
    k = int(np.argmax(rank))
    basis = gram_basis(_gram((exact or floats.__getitem__)(mats[k])), tol)
    points = _placed(_gram(floats[mats[k]]), floats[dists[k]], basis, tol)
    if points[:, -1].any():
        raise InconsistentDataError("a record lies off the span of the top tuple")
    return ReconstructionReport(cloud=PointCloud.from_array(points), method="oneshot-span",
                                counters={"candidates_tried": 1, "anchor_dim": int(rank[k])})


def supporting_tuple_scan(cloud: PointCloud, tol: float = DEFAULT_TOL) -> tuple:
    """Brute-force search for d points spanning a supporting hyperplane.

    Returns d cloud points whose affine span has dimension d-1 and leaves the
    whole cloud in one closed half-space.  Existence is guaranteed whenever
    the cloud's affine dimension is at least d-1; exhausting the scan without
    a hit is therefore a hard failure.
    """
    d, pts = cloud.dim, cloud.as_array()
    scale = max(1.0, float(np.max(np.abs(pts))))
    for idx in combinations(range(cloud.n), d):
        sel = [cloud.points[i] for i in idx]
        if affine_dim(sel, tol) != d - 1:
            continue
        base = pts[idx[0]]
        normal = np.linalg.svd(pts[list(idx)] - base)[2][-1] if d > 1 else np.ones(1)
        sides = (pts - base) @ normal
        if np.all(sides >= -tol * scale * 100) or np.all(sides <= tol * scale * 100):
            return tuple(sel)
    raise ReconstructionError("no supporting hyperplane tuple found")
