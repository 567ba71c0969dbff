"""Reconstruction in dimension d >= 3 from a 3-iteration (d-1)-tuple coloring.

The extraction chain mirrors the information content of the color history:
iteration 1 of the coloring determines, for every tuple, the squared
distances of its components to the barycenter; iteration 2 determines the
distance profile of the barycenter-extended tuple; iteration 3 assembles,
for every tuple and every cloud point, an enhanced profile: the full squared
distance matrix of (barycenter, x_1, ..., x_d) together with the d profiles
obtained by substituting the barycenter into each slot.

Extraction reads the history through `wl._History`, which numbers the
distinct squared distances and barycenter norms in increasing order (exact
ones as integers over one denominator), and builds one `ProfileTable` per
store: each enhanced profile as arrays of those numbers, each distinct
substituted profile once.  Ranking is one float pass over these arrays,
`ProfileTable.ranks_and_bounds`, which gives each row its rank and depth
bound from one Gram build; the `EnhancedProfile` of a candidate, in
Fractions or floats, is built only when reconstruction tries it.  Gram
matrices and exact elimination come from `geometry`.

Reconstruction runs in the anchors' Gram coordinates: with the barycenter
at the origin, x = sum_j lambda_j z_j over the anchors z_j, whose Gram
matrix G comes straight from the enhanced profile (rational for exact
stores, which run everything in Fractions; float stores use tolerances).
The cone is lambda >= 0, the slab about face j is lambda_j^2 <
epsilon^2 (G^-1)_jj, and reflecting through face j is the rational map
lambda -> lambda - 2 lambda_j / (G^-1)_jj * G^-1 e_j.  Degenerate clouds are
placed inside the anchors' span; full-dimensional ones by forbidden-region
elimination under a potential bound on the depth, the anchor tuples tried
in increasing order of that bound; each is certified, and the accepted one
rendered as float points, from G.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import (DEFAULT_MAX_DEPTH, DEFAULT_SELECT_SAMPLES, DEFAULT_TOL,
                     DEFAULT_VERIFY_SNAP)
from .errors import InconsistentDataError, ReconstructionError
from .geometry import (Entries, PointCloud, SquaredDistanceMatrix, _eliminate, _exact_rank,
                       _float_rank, _gram, gram_affine_dim, is_exact)
# Not called here: perfbench/tracer.py binds these names on this module, and
# its per-layer metrics read them (their call counts stay 0).
from .geometry import anchor_embed, mirror_pair, solid_angle_mc, trilaterate  # noqa: F401
from .report import ReconstructionReport
from .wl import (ColorStore, Interner, _distinct_rows, _History, _index, _sorted_rows,
                 compare, fingerprint, run_wl_from_sq_values)
from .wl import run_wl  # noqa: F401  (not called here either)


@dataclass(frozen=True)
class EnhancedProfile:
    """Squared-distance matrix of (b, x_1, ..., x_d) plus the d substituted profiles.

    profiles[i] is the distance profile of the tuple with the barycenter in
    slot i; every profile entry is a d-tuple of squared distances and every
    profile holds one entry per cloud point.
    """

    a: SquaredDistanceMatrix
    profiles: tuple[tuple, ...]

    def __post_init__(self):
        d = self.a.order - 1
        if len(self.profiles) != d:
            raise ValueError("need one substituted profile per anchor slot")

    def repeats_a_point(self) -> bool:
        """Whether two of (b, x_1, ..., x_d) coincide, which caps the dimension below d."""
        e = self.a.entries
        return any(e[i][j] == 0 for i in range(len(e)) for j in range(i))

    def dimension(self, tol: float = DEFAULT_TOL) -> int:
        return gram_affine_dim(self.a, tol)

    def gram(self) -> np.ndarray:
        """The anchors' Gram matrix: Fractions (object array) if exact, else floats."""
        exact = all(is_exact(v) for row in self.a.entries for v in row)
        return _gram(np.array(self.a.entries, dtype=object if exact else float))

    def sort_key(self):
        return (_float_rows(self.a.entries), tuple(map(_float_rows, self.profiles)))


def _float_rows(rows) -> tuple:
    return tuple(tuple(float(x) for x in row) for row in rows)


class ProfileTable:
    """Enhanced profiles with their multiplicities, as arrays of value ids.

    distances[v] is the v-th smallest distinct squared distance (Fractions
    for an exact store, else floats) and floats[v] its float, correctly rounded.
    Row r is one distinct enhanced profile: A[r] holds the ids of its anchor
    distance matrix and profiles[P[r, i]] the (n, d) ids of its profile i,
    so each distinct substituted profile is stored once; counts[r] is its
    multiplicity.  `profile(r)` builds row r's EnhancedProfile.
    """

    def __init__(self, distances: list, A: np.ndarray, P: np.ndarray, profiles: np.ndarray,
                 counts: np.ndarray):
        self.distances, self.A, self.P, self.profiles = distances, A, P, profiles
        self.counts = counts
        self.d = A.shape[-1] - 1
        self.exact = all(map(is_exact, distances))
        self.floats = np.array([float(v) for v in distances])
        self._profile_rows: dict[int, tuple] = {}

    @classmethod
    def from_profiles(cls, eps) -> ProfileTable:
        """One row per given EnhancedProfile, in order (equal ones not merged)."""
        eps = list(eps)
        if not eps:
            raise ValueError("no enhanced profiles given")
        profs = list(dict.fromkeys(p for ep in eps for p in ep.profiles))
        values = {x for ep in eps for row in ep.a.entries for x in row}
        values = sorted(values | {x for p in profs for e in p for x in e})
        pos = {v: i for i, v in enumerate(values)}
        pid = {p: i for i, p in enumerate(profs)}

        def ids(rows):
            return [[pos[x] for x in row] for row in rows]
        return cls(values, np.array([ids(ep.a.entries) for ep in eps]),
                   np.array([[pid[p] for p in ep.profiles] for ep in eps]),
                   np.array([ids(p) for p in profs]), np.ones(len(eps), dtype=np.int64))

    def _rows(self, ids: np.ndarray) -> tuple:
        return tuple(tuple(map(self.distances.__getitem__, row)) for row in ids.tolist())

    def profile(self, r: int) -> EnhancedProfile:
        """Row r as an EnhancedProfile; rows share equal profiles."""
        cache = self._profile_rows
        for p in self.P[r].tolist():
            if p not in cache:
                cache[p] = self._rows(self.profiles[p])
        return EnhancedProfile(SquaredDistanceMatrix(self.d + 1, self._rows(self.A[r])),
                               tuple(map(cache.__getitem__, self.P[r].tolist())))

    def __len__(self) -> int:
        return len(self.A)

    def repeats(self) -> np.ndarray:
        """Per row, whether two of (b, x_1, ..., x_d) coincide."""
        off = ~np.eye(self.d + 1, dtype=bool)
        return (self.A[:, off] == self.distances.index(0)).any(-1)

    def ranks_and_bounds(self, rows: np.ndarray, tol: float = DEFAULT_TOL):
        """Per row, `gram_affine_dim` of its anchor matrix and profile 0's `depth_bound`.

        One float Gram stack per block of 1024 rows gives both.  Float stores
        take `geometry._float_rank` of it.  For exact stores a float
        determinant of G above 1e-8 * max|G_ij|^d is nonzero, as rounding the
        entries and the elimination perturb it by orders of magnitude less;
        only the rest take the exact `gram_affine_dim`.  Only rows of rank d
        are inverted, one by one if the block's inverse raises, and get a
        bound.  Every row without a finite bound (all its candidates on a
        face, G singular in floats, or rank below d) gets +inf.
        """
        d = self.d
        ranks, bounds = np.full(len(rows), d), np.full(len(rows), np.inf)
        for s in range(0, len(rows), 1024):
            block, rank = rows[s:s + 1024], ranks[s:s + 1024]  # rank is a view
            G = _gram(self.floats[self.A[block]])
            if not self.exact:
                rank[:] = _float_rank(G, tol)
            else:
                scale = np.abs(G).max(axis=(-2, -1)) ** d
                for k in np.flatnonzero(~(np.abs(np.linalg.det(G)) > 1e-8 * scale)).tolist():
                    rank[k] = gram_affine_dim(
                        SquaredDistanceMatrix(d + 1, self._rows(self.A[block[k]])))
            full = np.flatnonzero(rank == d)
            G = G[full]
            try:
                H = np.linalg.inv(G)
            except np.linalg.LinAlgError:
                H = np.full_like(G, np.nan)  # rows singular in floats stay NaN
                for k, g in enumerate(G):
                    with suppress(np.linalg.LinAlgError):
                        H[k] = np.linalg.inv(g)
            plus, minus, _ = mirror_lambdas(
                G, H, self.floats[self.profiles[self.P[block[full], 0]]], 0, tol)
            bound = depth_bound(np.concatenate([plus, minus], axis=-2), G, H, tol)[1]
            bounds[s + full] = np.where(np.isfinite(bound), bound, np.inf)  # NaN too
        return ranks, bounds

    def order(self, rows: np.ndarray, primary: np.ndarray) -> np.ndarray:
        """Positions of rows sorted by (primary, float anchor matrix, float profiles).

        This is the order of (primary, `sort_key`); profiles are floated only
        for rows that tie on the rest.  The sort is stable.
        """
        keys = np.column_stack([primary, self.floats[self.A[rows]].reshape(len(rows), -1)])
        idx = np.lexsort(keys.T[::-1])
        keys = keys[idx]
        cuts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(-1), True]).tolist()
        for s, e in zip(cuts, cuts[1:]):
            if e - s > 1:
                idx[s:e] = sorted(idx[s:e].tolist(), key=lambda k: self.floats[
                    self.profiles[self.P[rows[k]]]].tolist())
        return idx


def enhanced_profiles_from_wl3(store: ColorStore) -> ProfileTable:
    """The enhanced profiles of all d-tuples with their multiplicities, as one table.

    Tuple color c3 of x = (x_1, ..., x_m) has one record per point y, the
    iteration-2 colors of x with y in each slot; the record gives y's row of
    (b, x_1, ..., x_m, y)'s distance matrix.  The profile with b in slot i < m
    is the profile of record color i with its slot i moved last, and the last
    one is x's own with b moved last; each is keyed (c2, i) and sorted once.
    """
    h = _History(store, 3)
    m, n, d = store.ell, store.n, store.ell + 1
    perms = [[*range(1, i + 1), 0, *range(i + 2, d), i + 1] for i in range(m)]
    perms.append([*range(1, d), 0])
    subs = _sorted_rows(np.concatenate([h.entries[:, :, p] for p in perms]))
    first, pid = _distinct_rows(subs.reshape(len(subs), -1))
    pid = pid.reshape(d, -1).T  # (c2 position, slot i) -> profile id

    counts = Counter(store.tables[3])
    prev, recs = store.nodes(list(counts))
    x, rec = _index(h.c2, prev), _index(h.c2, recs)
    y = h.entry(h.prev2[rec])  # (c3, y): d(y, b), d(y, x_1), ..., d(y, x_m)
    bx = h.bary[h.prev2[x]][:, None]
    A = np.empty((len(x), n, d + 1, d + 1), dtype=np.intp)
    A[..., 1:d, 1:d] = h.mat[h.prev2[x]][:, None]
    A[..., 0, 1:d] = A[..., 1:d, 0] = bx
    A[..., d, :d] = A[..., :d, d] = y
    A[..., 0, 0] = A[..., d, d] = h.distances.index(0)
    P = np.empty((len(x), n, d), dtype=np.intp)
    for i in range(m):
        P[..., i] = pid[rec[..., i], i]
    P[..., m] = pid[x, m][:, None]

    A, P = A.reshape(-1, d + 1, d + 1), P.reshape(-1, d)
    rows, inv = _distinct_rows(np.concatenate([A.reshape(len(A), -1), P], 1))
    mult = np.zeros(len(rows), dtype=np.int64)
    np.add.at(mult, inv, np.repeat(np.array(list(counts.values())), n))
    return ProfileTable(h.distances, A[rows], P[rows], subs[first], mult)


def _dots(G: np.ndarray, E: np.ndarray, i: int) -> np.ndarray:
    """<x, z_k> = (|x|^2 + G_kk - E[r, k]) / 2 for k != i (0 at k = i), where
    row r of E holds x's squared distances to the anchors with b in slot i."""
    half = Fraction(1, 2) if E.dtype == object else 0.5
    g = (E[..., i:i + 1] + np.diagonal(G, axis1=-2, axis2=-1)[..., None, :] - E) * half
    g[..., i] = 0
    return g


def _inverse(G: np.ndarray) -> np.ndarray:
    """G^-1 by `geometry._eliminate` over Fractions, or by LAPACK for floats."""
    if G.dtype != object:
        return np.linalg.inv(G)
    d = len(G)
    M, pivots = _eliminate([list(row) + [int(i == j) for j in range(d)]
                            for i, row in enumerate(G)])
    if pivots != list(range(d)):
        raise ReconstructionError("anchors are not full-dimensional")
    return np.array([[Fraction(x, row[i]) for x in row[d:]] for i, row in enumerate(M)],
                    dtype=object)


def mirror_lambdas(G: np.ndarray, H: np.ndarray, E: np.ndarray, i: int,
                   tol: float = 0.0):
    """Gram coordinates (plus, minus, resident) of the points realizing profile-i entries.

    `_dots` and |x|^2 = E[r, i] fix lambda = G^-1 <x, z> but for lambda_i =
    +-sqrt(disc): x and its mirror image across face i, equal for resident
    rows (disc within tol of 0).  Leading axes stack frames.  Object arrays
    stay exact and raise InconsistentDataError unless disc is a rational
    square; float rows that no point realizes come out NaN.
    """
    g = _dots(G, E, i)
    Hg = g @ np.swapaxes(H, -1, -2)
    hii = H[..., i, i][..., None]
    disc = Hg[..., i] ** 2 - hii * ((g * Hg).sum(-1) - E[..., i])
    v = H[..., :, i] / hii
    u = Hg - Hg[..., i:i + 1] * v[..., None, :]
    if E.dtype == object:
        resident = disc == 0
        root = np.array([Fraction(math.isqrt(max(q.numerator, 0)), math.isqrt(q.denominator))
                         for q in disc.flat], dtype=object).reshape(disc.shape)
        if (root * root != disc).any():
            raise InconsistentDataError("a profile entry has no rational realization")
    else:
        resident = np.abs(disc) <= hii * tol * np.maximum(E.max(-1), 1.0) * 100
        with np.errstate(invalid="ignore"):
            root = np.sqrt(np.where(resident, 0.0, disc))
    lift = root[..., None] * v[..., None, :]
    return u + lift, u - lift, resident


def depth_bound(lams: np.ndarray, G: np.ndarray, H: np.ndarray, tol: float = 0.0):
    """Squared slab width epsilon^2 and the potential bound gamma_bound on the depth.

    epsilon^2 is a quarter of the least squared face distance min_j
    lambda_j^2 / (G^-1)_jj of a candidate (row of lams) above tol * 1000 times
    the longest anchor; exact arrays keep it exact.  A useful reflection
    raises sum_j <x, z_j> by c*epsilon, c = 2 min_j (G^-1)_jj^(-1/2), so the
    depth is below ceil(max |x| * sum_j |z_j| / (c*epsilon)) + 1, or inf if
    every candidate sits on a face.  Leading axes stack frames.
    """
    hd = np.diagonal(H, axis1=-2, axis2=-1)
    gd = np.asarray(np.diagonal(G, axis1=-2, axis2=-1), dtype=float)
    face2 = np.asarray((tol * 1000) ** 2 * np.maximum(1.0, gd.max(-1)))
    rho2 = (lams * lams / hd[..., None, :]).min(-1)
    eps2 = np.where(rho2 > face2[..., None], rho2, np.inf).min(-1) / 4
    norm = np.sqrt(np.asarray(((lams @ G) * lams).sum(-1).max(-1), dtype=float))
    eps = np.sqrt(np.asarray(eps2, dtype=float))
    c_const = 2 / np.sqrt(np.asarray(hd, dtype=float).max(-1))  # twice the least z_j to face j
    gamma = np.ceil(norm * np.sqrt(gd).sum(-1) / (c_const * eps)) + 1
    return eps2, np.where(eps < np.inf, gamma, np.inf)


class Ranked(Sequence):
    """A ProfileTable's candidates in ranked order; each EnhancedProfile is built when read.

    `full` says whether they are d-dimensional; a degenerate cloud gets one
    candidate, of maximal dimension.
    """

    def __init__(self, table: ProfileTable, rows: np.ndarray, full: bool):
        self.table, self.rows, self.full = table, rows.tolist(), full

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> EnhancedProfile:
        return self.table.profile(self.rows[k])


def select_cone_tuple(table: ProfileTable, tol: float = DEFAULT_TOL) -> Ranked:
    """Order a table's enhanced profiles for reconstruction attempts.

    Every d-dimensional profile (a repeated point skips the rank test) goes
    by increasing `depth_bound` from profile 0's mirror candidates, then
    `sort_key`, from one `ranks_and_bounds` pass.  A thin cone gets a large
    bound; rows with no finite bound share +inf and come last, by `sort_key`.
    Degenerate clouds get one profile of maximal dimension, also among rows
    that repeat a point.  The result is a `Ranked` sequence, which builds
    each EnhancedProfile when it is read.
    """
    repeats = table.repeats()
    rows = np.flatnonzero(~repeats)
    ranks, bounds = table.ranks_and_bounds(rows, tol)
    full = ranks == table.d
    if full.any():
        rows = rows[full]
        return Ranked(table, rows[table.order(rows, bounds[full])], True)
    rest = np.flatnonzero(repeats)
    rows, ranks = np.r_[rows, rest], np.r_[ranks, table.ranks_and_bounds(rest, tol)[0]]
    rows = np.sort(rows[ranks == ranks.max()])
    return Ranked(table, rows[table.order(rows, np.zeros(len(rows)))][:1], False)


@dataclass
class GramCloud:
    """Point p is sum_j lambdas[p][j] z_j over ep's anchors, of Gram matrix G, in G's type."""

    ep: EnhancedProfile
    G: np.ndarray
    lambdas: list[tuple]
    depth: int = 0
    gamma_bound: int = 0
    epsilon: float | None = None

    @property
    def points(self) -> np.ndarray:
        """Float points in `anchor_embed`'s frame: x = (lambda L) sqrt(D), G = L D L^T factored
        in G's arithmetic over the anchors that lambda uses, so only lambda L and sqrt(D)
        are rounded (a negative float D is clamped to 0)."""
        lams = np.array(self.lambdas, dtype=self.G.dtype)
        used = np.flatnonzero((lams != 0).any(0))
        G, d = self.G[np.ix_(used, used)], len(self.G)
        L, D = np.eye(len(used), d, dtype=G.dtype), np.zeros(d, dtype=G.dtype)
        for k in range(len(used)):
            D[k] = G[k, k] - (L[k, :k] ** 2 * D[:k]).sum()
            L[k + 1:, k] = (G[k + 1:, k] - (L[k + 1:, :k] * L[k, :k] * D[:k]).sum(-1)) / D[k]
        return (lams[:, used] @ L).astype(float) * np.sqrt(np.maximum(D.astype(float), 0.0))


def reconstruct_lowdim(ep: EnhancedProfile, tol: float = DEFAULT_TOL) -> GramCloud:
    """Place every cloud point inside the proper subspace that the anchors span.

    A greedy basis B of the anchors (exact rank for exact profiles) spans
    it, so a slot outside B can be dropped: the profile with the barycenter
    in that slot gives <x, z_j> for j in B, and so x = sum_{j in B} lambda_j z_j.
    """
    G = ep.gram()
    basis: list[int] = []
    for j in range(len(G)):
        sub = G[np.ix_(basis + [j], basis + [j])]
        rank = _exact_rank(sub.tolist()) if G.dtype == object else _float_rank(sub, tol)
        basis += [j] if rank > len(basis) else []
    drop = next((j for j in range(len(G)) if j not in basis), None)
    if drop is None:
        raise ReconstructionError("the anchors span the whole space")
    dots = _dots(G, np.array(ep.profiles[drop], dtype=G.dtype), drop)
    lams = np.zeros_like(dots)
    lams[:, basis] = dots[:, basis] @ _inverse(G[np.ix_(basis, basis)])
    return GramCloud(ep, G, list(map(tuple, lams.tolist())))


class ForbiddenRegion:
    """The growing region certified free of unplaced points, in Gram coordinates.

    Depth 0 is the cone lambda >= 0 and the slabs lambda_j^2 < eps2 (G^-1)_jj;
    depth k+1 adds the images of depth k under each face reflection
    lambda -> lambda - 2 lambda_j / (G^-1)_jj * G^-1 e_j.  `membership` walks
    the reflection words depth-first, never back through the face a point
    came from, and tests only the levels below the depth at which that point
    last missed; it keeps no frontier, so memory stays flat at any depth.
    Points are numerators over one denominator per level: integers for an
    exact G and eps2, floats over 1 otherwise; tol is the float cone tolerance.
    """

    def __init__(self, G: np.ndarray, eps2, tol: float = 0.0):
        H = _inverse(G)
        w = [[2 * H[k][j] / H[j][j] for k in range(len(H))] for j in range(len(H))]
        self._exact, self.tol, self._known = G.dtype == object, tol, {}
        self._step = math.lcm(*(x.denominator for row in w for x in row)) if self._exact \
            else 1.0
        self._num = int if self._exact else float  # exact numerators are integral
        self._w = [[self._num(x * self._step) for x in row] for row in w]
        self._slabs = [(eps2 * H[j][j]).as_integer_ratio() if self._exact
                       else (float(eps2 * H[j][j]), 1.0) for j in range(len(H))]

    def _in_base(self, p: tuple, cuts: list) -> bool:
        if min(p) >= (-self.tol * max(1.0, max(map(abs, p))) if self.tol else 0):
            return True
        return any(c * c * sd < cut for c, (_, sd), cut in zip(p, self._slabs, cuts))

    def membership(self, lam: tuple, depth: int) -> bool:
        hit, miss = self._known.get(lam, (math.inf, -1))  # depths known to hit and to miss
        if hit <= depth or depth <= miss:
            return hit <= depth
        den = math.lcm(*(c.denominator for c in lam)) if self._exact else 1.0
        cuts = [[sn * (den * self._step ** k) ** 2 for sn, _ in self._slabs]
                for k in range(depth + 1)]
        stack = [(tuple(self._num(c * den) for c in lam), -1, 0)]
        found = False
        while stack and not found:
            p, last, k = stack.pop()
            found = k > miss and self._in_base(p, cuts[k])
            if k < depth:
                stack += [(tuple(self._step * a - p[j] * b for a, b in zip(p, w)), j, k + 1)
                          for j, w in enumerate(self._w) if j != last and p[j]]
        self._known[lam] = (depth, miss) if found else (hit, depth)
        return found


FAILURE_REASONS = ("depth_cap", "both_in_region", "unmatched", "fingerprint_mismatch", "other")


class CandidateRejected(ReconstructionError):
    """A candidate failed for one of the counted FAILURE_REASONS."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def reconstruct_fulldim(ep: EnhancedProfile, tol: float = DEFAULT_TOL,
                        max_depth: int = DEFAULT_MAX_DEPTH) -> GramCloud:
    """Forbidden-region elimination for full-dimensional anchor tuples.

    Runs in Gram coordinates and ep's scalar type: Fractions with zero
    tolerance, or floats with tol scaled by the longest anchor.  Phase 1
    places the points on a face; phase 2 takes the slab and depth bound from
    profile 0's other candidates (`depth_bound`), and each round places the
    entries with one mirror candidate in the region, then deepens it; both are
    `Entries.sweep` passes.  A placed point takes its entry (an equal one, if
    exact) from every profile, or rejects ep as "unmatched".
    """
    d = ep.a.order - 1
    G = ep.gram()
    tol = 0 if G.dtype == object else tol
    H = _inverse(G)
    limit = tol * max(1.0, math.sqrt(float(max(np.diagonal(G))))) * 1e5
    profiles = [Entries(p) for p in ep.profiles]
    placed: list[tuple] = []
    cands_of = []  # per profile, each distinct entry's one or two mirror candidates
    for i, entries in enumerate(ep.profiles):
        distinct = list(dict.fromkeys(entries))
        plus, minus, resident = mirror_lambdas(G, H, np.array(distinct, G.dtype), i, tol)
        if G.dtype != object and np.isnan(minus).any():
            raise InconsistentDataError("a profile entry is unrealizable")
        cands_of.append({e: [tuple(p)] if r else [tuple(p), tuple(m)] for e, p, m, r
                         in zip(distinct, plus.tolist(), minus.tolist(), resident)})

    def place(lam: tuple) -> None:
        dots = (G @ np.array(lam, dtype=G.dtype)).tolist()  # <x, z_k>
        norm2 = sum(a * b for a, b in zip(lam, dots))
        for j in range(d):
            target = tuple(norm2 - (k != j) * (2 * dots[k] - G[k][k]) for k in range(d))
            try:
                profiles[j].take(target, limit)
            except InconsistentDataError as exc:
                raise CandidateRejected("unmatched", str(exc)) from None
        placed.append(lam)

    def chooser(i: int, member):
        def choose(entry):
            cands = cands_of[i][entry]
            if len(cands) == 1:
                return cands[0]
            inside = [member(c) for c in cands]
            if all(inside):
                raise CandidateRejected(
                    "both_in_region", "both mirror candidates fall in the forbidden region")
            return cands[inside.index(False)] if any(inside) else None
        return choose

    # phase 1: points on a face have a unique candidate
    for i in range(d):
        profiles[i].sweep(chooser(i, lambda c: False), place)
    if not any(profiles):
        return GramCloud(ep, G, placed)

    # phase 2: epsilon and the depth bound from the doubled candidate set of profile 0
    rest = np.array([c for _, e in profiles[0].live() for c in cands_of[0][e]], dtype=G.dtype)
    eps2, gamma = depth_bound(rest, G, H, tol)
    if not math.isfinite(gamma):
        raise InconsistentDataError("all remaining candidates sit on anchor hyperplanes")
    region = ForbiddenRegion(G, eps2, tol)
    depth_cap = min(max_depth, int(gamma))

    depth = 0
    while True:
        for i in range(d):
            profiles[i].sweep(chooser(i, lambda c: region.membership(c, depth)), place)
        if not any(profiles):
            return GramCloud(ep, G, placed, depth, int(gamma), math.sqrt(float(eps2)))
        depth += 1
        if depth > depth_cap:
            raise CandidateRejected(
                "depth_cap", f"unresolved points at the depth bound (cap {depth_cap})")


def reconstruct_nd(store: ColorStore, tol: float = DEFAULT_TOL,
                   samples: int = DEFAULT_SELECT_SAMPLES, seed: int = 0,
                   max_depth: int = DEFAULT_MAX_DEPTH,
                   verify_snap: float = DEFAULT_VERIFY_SNAP) -> ReconstructionReport:
    """Full pipeline: extract enhanced profiles, try candidates, verify by fingerprint.

    Candidates go in `select_cone_tuple`'s order, each built when it is
    tried; one is accepted when its recoloring reproduces the input
    fingerprint, which certifies isometry.  Every candidate's squared
    distances (l_x - l_y)^T G (l_x - l_y), in G's arithmetic, are recolored
    in the store's mode: exactly against `fingerprint(store)`, or at
    verify_snap against the input's distances for a float store, which alone
    reads verify_snap and first bounds the drift m^T G m of the mean lambda.
    counters["failures"] counts the earlier rejects by FAILURE_REASONS.
    `samples` and `seed` are unread (perfbench passes them).
    """
    if store.ell < 2:
        raise ValueError("reconstruct_nd needs a tuple history with ell >= 2")
    d = store.ell + 1
    if store.n == 1:
        return ReconstructionReport(cloud=PointCloud(d, ((0.0,) * d,)), method="nd-trivial",
                                    counters={"candidates_tried": 0})

    candidates = select_cone_tuple(enhanced_profiles_from_wl3(store), tol=tol)
    interner = Interner(store.interner.mode, verify_snap)

    def recolored(sq):
        return fingerprint(run_wl_from_sq_values(sq, store.ell, 3, d, mode=interner.mode,
                                                 snap=verify_snap, interner=interner))

    exact = interner.mode == "exact"
    fin = fingerprint(store, 3) if exact else recolored(store.dist_floats[store.dist_array])

    def certificate(res: GramCloud):
        lams, G = np.array(res.lambdas, dtype=res.G.dtype), res.G
        if not exact:
            mean = lams.mean(axis=0)
            if (drift2 := mean @ G @ mean) > 1e-12 * max(1.0, ((lams @ G) * lams).sum(-1).max()):
                raise ReconstructionError(f"barycenter drift {math.sqrt(drift2):.3e}")
        diff = lams[:, None, :] - lams[None, :, :]
        return recolored(((diff @ G) * diff).sum(-1))

    failures: list[str] = []
    reasons = dict.fromkeys(FAILURE_REASONS, 0)
    for tried, ep in enumerate(candidates, start=1):
        counters = {"candidates_tried": tried, "total_candidates": len(candidates),
                    "failures": dict(reasons)}
        try:
            if not candidates.full:
                res, method = reconstruct_lowdim(ep, tol), "nd-lowdim"
            else:
                res, method = reconstruct_fulldim(ep, tol, max_depth), "nd-fulldim"
                counters.update(depth=res.depth, gamma_bound=res.gamma_bound,
                                epsilon=res.epsilon)
            if compare(fin, certificate(res)) == "equal":
                return ReconstructionReport(cloud=PointCloud.from_array(res.points),
                                            method=method, counters=counters)
        except (ReconstructionError, InconsistentDataError, ValueError) as exc:
            reasons[getattr(exc, "reason", "other")] += 1
            failures.append(f"candidate {tried}: {exc}")
            continue
        reasons["fingerprint_mismatch"] += 1
        failures.append(f"candidate {tried}: fingerprint mismatch")
    raise ReconstructionError(
        "all enhanced-profile candidates exhausted; "
        + ("; ".join(failures[:5]) if failures else "no candidates"))
