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
order, and only a tuple that passes this test has its points built.

The built cloud must still match the coloring's total distance sum.  That
certificate works with true (unsquared) distances: strict subadditivity
under mirror mixing fails for squared distances.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .config import DEFAULT_MAX_CANDIDATES, DEFAULT_TOL
from .errors import CapExceededError, ReconstructionError
from .geometry import (PointCloud, SquaredDistanceMatrix, _mirror_rows, _plane_heights,
                       affine_dim, barycenter_sq_norms, gram_affine_dim)
# perfbench/tracer.py binds these names on this module, and its per-layer
# metrics read them.
from .geometry import anchor_embed, mirror_pair, trilaterate
from .report import ReconstructionReport
from .wl import KIND_MAT, KIND_NODE, KIND_NODE1, ColorStore


def _pair_sum(points: np.ndarray) -> float:
    """Sum of distances over ordered point pairs."""
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sum(np.sqrt(np.sum(diff * diff, axis=2))))


def _pair_sums(store: ColorStore) -> tuple[float, float]:
    """The ordered pairwise sums of distances and of squared distances.

    Both are read off the coloring.  For d >= 2 the initial colors carry one
    (1,2)-entry per d-tuple, which counts each pair n^(d-2) times.  The line
    case has trivial initial colors, so the per-point distance multisets of
    the first refinement are counted instead.
    """
    payload = store.interner.payload
    if store.ell == 1:
        if store.iterations < 1:
            raise ValueError("the line case needs one refinement")
        counts = Counter(did for cid in store.tables[1]
                         for did, _ in payload(cid, KIND_NODE1)[1])
        repeat = 1
    else:
        counts = Counter(payload(cid, KIND_MAT)[1][1] for cid in store.tables[0])
        repeat = store.n ** (store.ell - 2)
    dist = sq = 0.0
    for did, k in counts.items():
        k //= repeat
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
    """Anchor distance matrix and distance-tuple multiset of a refined color."""
    ell = store.ell
    val = store.value_of
    payload = store.interner.payload
    if ell == 1:
        _, recs = payload(cid, KIND_NODE1)
        mat = SquaredDistanceMatrix(order=1, entries=((0,),))
        tuples = [(val(did),) for did, _ in recs]
        return mat, tuples
    prev, recs = payload(cid, KIND_NODE)
    dids = payload(prev, KIND_MAT)[1]
    entries = tuple(tuple(0 if i == j else val(dids[i * ell + j])
                          for j in range(ell)) for i in range(ell))
    mat = SquaredDistanceMatrix(order=ell, entries=entries)
    tuples = []
    for rec in recs:
        mat0 = payload(rec[0], KIND_MAT)[1]
        mat1 = payload(rec[1], KIND_MAT)[1]
        dy = [val(mat1[ell])] + [val(mat0[j]) for j in range(1, ell)]
        tuples.append(tuple(dy))
    return mat, tuples


def _supports(anchors: np.ndarray, tuples, sq_total: float, tol: float) -> bool:
    """Whether the anchors' hyperplane leaves every point in one closed half-space.

    Tests sum_y |h_y| = n |h_b| in squares, from one solve over the records
    and the barycenter's squared distances to the anchors.  A record's
    height is 0 when `mirror_pair` would place it on the span.  h_b^2 is not
    snapped: the barycenter is no point of the cloud, and the square of a
    rounding residue is far below the tolerance where its root is not.
    """
    n = len(tuples)
    R2 = np.array([[float(v) for v in t] for t in tuples], dtype=float)
    bary = barycenter_sq_norms(R2.sum(axis=0), sq_total, n, tol)
    *_, h2, resident, scale = _plane_heights(anchors, np.vstack([R2, bary]), tol)
    s = float(np.sqrt(np.where(resident, 0.0, h2)[:n]).sum())
    return abs(s * s - n * n * h2[n]) <= tol * n * n * float(scale.max())


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
        anchors = anchor_embed(mat, d, tol)
        if not _supports(anchors, tuples, sq_total, tol):
            continue
        # every two-sided entry on the positive side
        feet, up, _, resident = _mirror_rows(anchors, tuples, tol)
        points = np.where(resident[:, None], feet, up)
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
    anchors = anchor_embed(mat, d, tol)
    points = [tuple(trilaterate(anchors, t, tol)) for t in tuples]
    cloud = PointCloud(dim=d, points=tuple(points))
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
