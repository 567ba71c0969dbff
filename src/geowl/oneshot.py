"""Reconstruction from a single refinement of the d-tuple coloring.

Every refined tuple color carries the tuple's own distance matrix plus the
multiset of distance d-tuples from all cloud points to the tuple.  Two
regimes cover everything:

* every tuple spans less than d-1 dimensions: the whole cloud lies in the
  top tuple's affine span and trilateration places each point uniquely;
* some tuple spans exactly d-1 dimensions: each point then has at most two
  mirror positions, and the total pairwise distance sum (recoverable from
  the initial coloring) singles out the correct assignment, because mixing
  mirror images across the anchor hyperplane strictly inflates the sum.
  The accepted candidate is the one contained in a single closed half-space
  whose total matches.

Hyperplane tuples are tried in order of how many points lie on their span
("residents"), most first, because residents leave no mirror choice.  The
ranking needs only those counts, so it takes one batched solve per tuple
(`geometry.mirror_residents`); mirror pairs are built only for the entries
of the tuples actually tried.

This module works with true (unsquared) distances for the total-sum test:
strict subadditivity under mirror mixing fails for squared distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .config import DEFAULT_MAX_CANDIDATES, DEFAULT_TOL
from .errors import CapExceededError, ReconstructionError
from .geometry import (PointCloud, SquaredDistanceMatrix, affine_dim, anchor_embed,
                       gram_affine_dim, mirror_pair, mirror_residents, trilaterate)
from .report import ReconstructionReport
from .wl import KIND_MAT, KIND_NODE, KIND_NODE1, ColorStore


def _pair_sum(points: np.ndarray) -> float:
    """Sum of distances over ordered point pairs."""
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sum(np.sqrt(np.sum(diff * diff, axis=2))))


def total_distance_sum(store: ColorStore) -> float:
    """The cloud's ordered pairwise distance sum, read off the coloring.

    For d >= 2 the initial colors contribute one (1,2)-entry per d-tuple,
    which overcounts the sum by n^(d-2).  The line case has trivial initial
    colors, so the per-point distance multisets of the first refinement are
    summed instead.
    """
    n = store.n
    ell = store.ell
    if ell == 1:
        if store.iterations < 1:
            raise ValueError("the line case needs one refinement")
        total = 0.0
        for cid in store.tables[1]:
            _, recs = store.interner.payload(cid, KIND_NODE1)
            total += sum(math.sqrt(float(store.value_of(did))) for did, _ in recs)
        return total
    total = 0.0
    for cid in store.tables[0]:
        dids = store.interner.payload(cid, KIND_MAT)[1]
        total += math.sqrt(float(store.value_of(dids[1])))
    return total / (n ** (ell - 2))


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


def reconstruct_one_iter(store: ColorStore, tol: float = DEFAULT_TOL,
                         cap: int = DEFAULT_MAX_CANDIDATES) -> ReconstructionReport:
    """Rebuild the cloud from one refinement of its d-tuple coloring.

    Tuple colors spanning a hyperplane are ranked by (-residents, digest),
    with residents counted by one batched solve per tuple; unrealizable
    distance data raises InconsistentDataError during that pass.  The scan
    then builds mirror pairs for one tuple at a time and accepts the first
    whose positive-side cloud has the coloring's total distance sum.  At
    most `cap` tuples are tried before CapExceededError is raised.
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

    digests = store.interner.digests
    colors = sorted(set(store.tables[1]), key=lambda c: digests[c])
    data = {c: _color_tuple_data(store, c) for c in colors}
    dims = {c: gram_affine_dim(data[c][0], tol) for c in colors}
    maxdim = max(dims.values())

    if maxdim < d - 1:
        # the whole cloud lies in the top tuple's affine span
        best = next(c for c in colors if dims[c] == maxdim)
        mat, tuples = data[best]
        anchors = anchor_embed(mat, d, tol)
        points = [tuple(trilaterate(anchors, t, tol)) for t in tuples]
        cloud = PointCloud(dim=d, points=tuple(points))
        return ReconstructionReport(cloud=cloud, method="oneshot-span",
                                    counters={"candidates_tried": 1,
                                              "anchor_dim": maxdim})

    ds_total = total_distance_sum(store)
    scale = max(1.0, ds_total)
    # fewer off-plane points means fewer mirror choices: try those tuples first
    ranked = []
    for c in colors:
        if dims[c] != d - 1:
            continue
        mat, tuples = data[c]
        anchors = anchor_embed(mat, d, tol)
        residents = int(np.count_nonzero(mirror_residents(anchors, tuples, tol)))
        ranked.append((-residents, digests[c], anchors, tuples))
    ranked.sort(key=lambda r: (r[0], r[1]))

    tried = 0
    for _, _, anchors, tuples in ranked:
        if tried == cap:
            raise CapExceededError(
                f"no hyperplane tuple accepted within the cap of {cap} tried tuples")
        tried += 1
        # positive side for every two-sided entry
        points = [mirror_pair(anchors, t, tol)[0] for t in tuples]
        arr = np.array(points)
        total = _pair_sum(arr)
        if abs(total - ds_total) <= tol * n * n * scale:
            try:
                cloud = PointCloud(dim=d, points=tuple(map(tuple, points)))
            except ValueError:
                continue  # degenerate coincidences cannot be the accepted candidate
            return ReconstructionReport(
                cloud=cloud, method="oneshot-halfspace",
                counters={"candidates_tried": tried, "total_gap": total - ds_total,
                          "pair_sum": total})
    raise ReconstructionError(
        f"no hyperplane tuple accepted: {tried} tuples scanned, target sum {ds_total}")


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
