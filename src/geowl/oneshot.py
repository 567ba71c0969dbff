"""Reconstruction from a single refinement of the d-tuple coloring.

Every refined tuple color carries the tuple's own distance matrix plus the
multiset of distance d-tuples from all cloud points to the tuple.  Two
regimes cover everything:

* every tuple spans less than d-1 dimensions: the whole cloud lies in the
  top tuple's affine span and trilateration places each point uniquely;
* some tuple spans exactly d-1 dimensions: each point then has at most two
  mirror positions, and the cloud is rebuilt from a tuple whose hyperplane
  supports it (leaves every point in one closed half-space), by placing
  every point on the same side.

Signed heights over a hyperplane average to the barycenter's height, so
the hyperplane supports the cloud exactly when sum_y |h_y| = n |h_b|.  The
|h_y| come from the tuple's records, and |h_b| from the barycenter's
squared distances to the tuple, (f(x_j) - T/(2n))/n, where f(x_j) sums the
records' j-th entries and T, the ordered-pair sum of squared distances,
comes from the initial colors.  Tuple colors are scanned lazily in digest
order, each decoded by `ColorStore.tuple_distances` when it is visited and
solved once in the frame `anchor_embed` gives its anchors, which yields the
heights and the points together.

The built cloud must still match the coloring's total distance sum.  That
certificate works with true (unsquared) distances: strict subadditivity
under mirror mixing fails for squared distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .config import DEFAULT_MAX_CANDIDATES, DEFAULT_TOL
from .errors import CapExceededError, InconsistentDataError, ReconstructionError
from .geometry import (PointCloud, SquaredDistanceMatrix, affine_dim, barycenter_sq_norms,
                       gram_affine_dim)
# perfbench/tracer.py binds these names on this module, and its per-layer
# metrics read them; `trilaterate` is bound only.
from .geometry import anchor_embed, mirror_pair, trilaterate  # noqa: F401
from .report import ReconstructionReport
from .wl import ColorStore


def _pair_sum(points: np.ndarray) -> float:
    """Sum of distances over ordered point pairs."""
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sum(np.sqrt(np.sum(diff * diff, axis=2))))


def _pair_sums(store: ColorStore) -> tuple[float, float]:
    """The ordered pairwise sums of distances and of squared distances.

    Both are read off the coloring, by `ColorStore.pair_distances`.
    """
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
    resolved = []
    for entry in sq_tuples:
        cands = mirror_pair(anchors, entry, tol)
        resolved.append(cands)
    two_sided = [i for i, c in enumerate(resolved) if len(c) == 2]
    free = max(len(two_sided) - 1, 0)
    if 2 ** free > cap:
        raise CapExceededError(
            f"{2 ** free} mirror assignments exceed the candidate cap of {cap}")
    out = []
    for signs in product((1, -1), repeat=free):
        assignment = [0] * len(resolved)
        points = []
        sign_of = {}
        if two_sided:
            sign_of[two_sided[0]] = 1
            for idx, s in zip(two_sided[1:], signs):
                sign_of[idx] = s
        for i, cands in enumerate(resolved):
            if len(cands) == 1:
                points.append(tuple(cands[0]))
            else:
                s = sign_of[i]
                assignment[i] = s
                points.append(tuple(cands[0] if s > 0 else cands[1]))
        arr = np.array(points)
        out.append(CandidateCloud(anchors=tuple(map(tuple, anchors)),
                                  assignment=tuple(assignment),
                                  points=tuple(map(tuple, points)),
                                  total=_pair_sum(arr)))
    return out


def _color_tuple_data(store: ColorStore, cid: int):
    """Anchor distance matrix (the store's scalars) and distance-tuple multiset
    (an (n, d) float array, as only float solvers read it) of a refined color."""
    mats, dists = store.tuple_distances([cid])
    val = store.value_of
    entries = tuple(tuple(0 if i == j else val(did) for j, did in enumerate(row))
                    for i, row in enumerate(mats[0].tolist()))
    return SquaredDistanceMatrix(order=store.ell, entries=entries), store.dist_floats[dists[0]]


def _frame_points(anchors: np.ndarray, R2: np.ndarray, tol: float):
    """Points at squared distances R2 (a row each) to anchors, in `anchor_embed`'s frame.

    That frame puts the first anchor at the origin and the anchors' span in
    the first d-1 axes.  A row's span coordinates t solve <t, a_j> =
    (r_1 + |a_j|^2 - r_j)/2, all rows in one least-squares solve whose
    minimum-norm solution leaves t at 0 on an axis the anchors do not reach,
    and its squared height is h^2 = r_1 - |t|^2.  Returns the points (t, +h),
    h^2 and the per-row scale.  h is snapped to 0 (a span resident) when h^2
    is at most tol * scale * 100; InconsistentDataError is raised when h^2 is
    below minus that.
    """
    V = anchors[1:, :-1]
    rhs = (R2[:, :1] + np.sum(V * V, axis=1) - R2[:, 1:]) / 2.0
    # contiguous rows and per-row matmuls round like the one-row t @ t
    T = np.linalg.lstsq(V, rhs.T, rcond=None)[0].T.copy() if V.size else np.zeros((len(R2), 0))
    h2 = R2[:, 0] - (T[:, None, :] @ T[:, :, None])[:, 0, 0]
    scale = R2.max(axis=1, initial=max(1.0, float(np.abs(anchors).max())))
    if (bad := h2 < -tol * scale * 100).any():
        raise InconsistentDataError(
            f"negative squared height {h2[bad][0]:.3e}: distances are unrealizable")
    return np.column_stack([T, np.sqrt(np.where(h2 <= tol * scale * 100, 0.0, h2))]), h2, scale


def _halfspace_points(anchors: np.ndarray, tuples: np.ndarray, sq_total: float, tol: float):
    """The records placed on the positive side of the anchors' span, and whether
    that span leaves every point in one closed half-space.

    The test is sum_y |h_y| = n |h_b| in squares, from one `_frame_points`
    solve over the records and the barycenter's squared distances to the
    anchors.  h_b^2 is not snapped: the barycenter is no point of the cloud,
    and the square of a rounding residue is far below the tolerance where
    its root is not.
    """
    n = len(tuples)
    bary = barycenter_sq_norms(tuples.sum(axis=0), sq_total, n, tol)
    points, h2, scale = _frame_points(anchors, np.vstack([tuples, bary]), tol)
    s = float(points[:n, -1].sum())
    return points[:n], abs(s * s - n * n * h2[n]) <= tol * n * n * float(scale.max())


def reconstruct_one_iter(store: ColorStore, tol: float = DEFAULT_TOL,
                         cap: int = DEFAULT_MAX_CANDIDATES) -> ReconstructionReport:
    """Rebuild the cloud from one refinement of its d-tuple coloring.

    Scans the tuple colors in digest order.  Each tuple spanning a
    hyperplane is tested by the barycenter-height identity, and the first
    that passes has its points placed on the positive side of its span.
    The result is accepted when its ordered pair-distance sum matches the
    coloring's and its points are distinct; otherwise the scan goes on.
    Unrealizable distance data in a tested tuple raises
    InconsistentDataError.  At most `cap` hyperplane tuples are tested
    before CapExceededError is raised.  When no tuple spans a hyperplane,
    the cloud lies in the span of the first tuple of greatest dimension and
    is trilaterated from it.
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
    scale = max(1.0, ds_total)
    digests = store.interner.digests
    span = None  # (dim, matrix, records) of the first color of greatest dimension
    tried = 0
    for c in sorted(set(store.tables[1]), key=lambda c: digests[c]):
        mat, tuples = _color_tuple_data(store, c)
        dim = gram_affine_dim(mat, tol)
        if dim < d - 1:
            if span is None or dim > span[0]:
                span = (dim, mat, tuples)
            continue
        if tried == cap:
            raise CapExceededError(
                f"no hyperplane tuple accepted within the cap of {cap} tried tuples")
        tried += 1
        points, supports = _halfspace_points(anchor_embed(mat, d, tol), tuples, sq_total, tol)
        if not supports:
            continue
        total = _pair_sum(points)
        if abs(total - ds_total) <= tol * n * n * scale:
            try:
                cloud = PointCloud(dim=d, points=tuple(map(tuple, points)))
            except ValueError:
                continue  # degenerate coincidences cannot be the accepted candidate
            return ReconstructionReport(
                cloud=cloud, method="oneshot-halfspace",
                counters={"candidates_tried": tried, "total_gap": total - ds_total,
                          "pair_sum": total})
    if tried:
        raise ReconstructionError(
            f"no hyperplane tuple accepted: {tried} tuples scanned, target sum {ds_total}")
    # the whole cloud lies in the top tuple's affine span
    maxdim, mat, tuples = span
    points = _frame_points(anchor_embed(mat, d, tol), tuples, tol)[0]
    if points[:, -1].any():
        raise InconsistentDataError("a record lies off the span of the top tuple")
    cloud = PointCloud(dim=d, points=tuple(map(tuple, points)))
    return ReconstructionReport(cloud=cloud, method="oneshot-span",
                                counters={"candidates_tried": 1, "anchor_dim": maxdim})


def supporting_tuple_scan(cloud: PointCloud, tol: float = DEFAULT_TOL) -> tuple:
    """Brute-force search for d points spanning a supporting hyperplane.

    Returns d cloud points whose affine span has dimension d-1 and leaves the
    whole cloud in one closed half-space.  Existence is guaranteed whenever
    the cloud's affine dimension is at least d-1; exhausting the scan without
    a hit is therefore a hard failure.
    """
    d = cloud.dim
    pts = cloud.as_array()
    scale = max(1.0, float(np.max(np.abs(pts))))
    for idx in combinations(range(cloud.n), d):
        sel = [cloud.points[i] for i in idx]
        if affine_dim(sel, tol) != d - 1:
            continue
        base = pts[idx[0]]
        rows = pts[list(idx)] - base
        _, _, vt = np.linalg.svd(rows if d > 1 else np.zeros((1, 1)))
        normal = vt[-1] if d > 1 else np.array([1.0])
        sides = (pts - base) @ normal
        if bool(np.all(sides >= -tol * scale * 100)) or bool(np.all(sides <= tol * scale * 100)):
            return tuple(sel)
    raise ReconstructionError("no supporting hyperplane tuple found")
