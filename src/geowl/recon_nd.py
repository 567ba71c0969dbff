"""Reconstruction in dimension d >= 3 from a 3-iteration (d-1)-tuple coloring.

The extraction chain mirrors the information content of the color history:
iteration 1 of the coloring determines, for every tuple, the squared
distances of its components to the barycenter; iteration 2 determines the
distance profile of the barycenter-extended tuple; iteration 3 assembles,
for every tuple and every cloud point, an enhanced profile: the full squared
distance matrix of (barycenter, x_1, ..., x_d) together with the d profiles
obtained by substituting the barycenter into each slot.

Reconstruction runs in the anchors' Gram coordinates: with the barycenter
at the origin, x = sum_j lambda_j z_j over the anchors z_j, whose Gram
matrix G comes straight from the enhanced profile (rational for exact
stores, which run everything in Fractions; float stores use tolerances).
The cone is lambda >= 0, the slab about face j is lambda_j^2 <
epsilon^2 (G^-1)_jj, and reflecting through face j is the rational map
lambda -> lambda - 2 lambda_j / (G^-1)_jj * G^-1 e_j.  Degenerate clouds are
placed inside the anchors' span; full-dimensional ones by forbidden-region
elimination under a potential bound on the depth, the anchor tuples tried
in increasing order of that bound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby

import numpy as np

from .config import (DEFAULT_MAX_DEPTH, DEFAULT_SELECT_SAMPLES, DEFAULT_TOL,
                     DEFAULT_VERIFY_SNAP)
from .errors import InconsistentDataError, NotRealizableError, ReconstructionError
from .geometry import (PointCloud, SquaredDistanceMatrix, _exact_rank, _float_rank,
                       anchor_embed, barycenter_sq_norms, gram_affine_dim, is_exact,
                       remove_nearest, sweep)
# Not called here: perfbench/tracer.py binds these names on this module, and
# its per-layer metrics read them (their call counts stay 0).
from .geometry import mirror_pair, solid_angle_mc, trilaterate  # noqa: F401
from .report import ReconstructionReport
from .wl import (KIND_MAT, KIND_NODE, ColorStore, Interner, compare, fingerprint,
                 run_wl, run_wl_from_sq_values)


def barycenter_dists_from_wl1(store: ColorStore) -> dict[int, tuple]:
    """Per iteration-1 tuple color, the squared barycenter distance of each slot.

    The per-slot distance multisets are read off the substitution records'
    initial colors; the cloud-wide multiset of distance multisets appears
    with all multiplicities inflated by n^(d-2) and is deflated before the
    barycenter identity is applied.
    """
    m = store.ell
    if m < 2 or store.iterations < 1:
        raise ValueError("need a tuple history (ell >= 2) with at least one iteration")
    n = store.n
    val = store.value_of
    payload = store.interner.payload
    counts = Counter(store.tables[1])
    slot_dists: dict[int, list[tuple]] = {}
    for c1 in counts:
        _, recs = payload(c1, KIND_NODE)
        # slot 0 distances live in the (1,0) entry of the slot-1 substitution
        slot_dists[c1] = [tuple(sorted(val(payload(r[1], KIND_MAT)[1][m]) for r in recs))] + [
            tuple(sorted(val(payload(r[0], KIND_MAT)[1][j]) for r in recs)) for j in range(1, m)]
    multiplier = n ** (m - 1)
    global_counts: Counter = Counter()
    for c1, cnt in counts.items():
        global_counts[slot_dists[c1][0]] += cnt
    total = 0
    for dist_multiset, cnt in global_counts.items():
        if cnt % multiplier != 0:
            raise InconsistentDataError(
                f"distance-multiset count {cnt} is not divisible by n^(d-2)={multiplier}")
        total = total + (cnt // multiplier) * sum(dist_multiset)
    return {c1: tuple(barycenter_sq_norms([sum(ds) for ds in slot_dists[c1]], total, n))
            for c1 in counts}


def profiles_from_wl2(store: ColorStore) -> dict[int, tuple]:
    """Per iteration-2 tuple color, the distance profile of (b, x_1, ..., x_{d-1}).

    Profile entries are (d(y,b)^2, d(y,x_1)^2, ..., d(y,x_{d-1})^2) over the
    cloud points y, as a sorted multiset.
    """
    m = store.ell
    if m < 2 or store.iterations < 2:
        raise ValueError("need a tuple history (ell >= 2) with at least two iterations")
    bary = barycenter_dists_from_wl1(store)
    val = store.value_of
    payload = store.interner.payload
    out = {}
    for c2 in set(store.tables[2]):
        _, recs = payload(c2, KIND_NODE)
        entries = []
        for rec in recs:
            c1_0 = payload(rec[0], KIND_NODE)[0]
            mat0 = payload(c1_0, KIND_MAT)[1]
            mat1 = payload(payload(rec[1], KIND_NODE)[0], KIND_MAT)[1]
            dy = [val(mat1[m])] + [val(mat0[j]) for j in range(1, m)]
            entries.append((bary[rec[0]][0], *dy))
        out[c2] = tuple(sorted(entries))
    return out


@dataclass(frozen=True)
class EnhancedProfile:
    """Squared-distance matrix of (b, x_1, ..., x_d) plus the d substituted profiles.

    profiles[i] is the distance profile of the tuple with the barycenter in
    slot i; every profile entry is a d-tuple of squared distances and every
    profile holds one entry per cloud point.
    """

    a: SquaredDistanceMatrix
    profiles: tuple[tuple, ...]
    # cached by __hash__ (or set by _prehashed): hashing rationals is slow
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.a.order - 1
        if len(self.profiles) != d:
            raise ValueError("need one substituted profile per anchor slot")

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.a, *map(hash, self.profiles))))
        return self._hash

    @classmethod
    def _prehashed(cls, a: SquaredDistanceMatrix, profiles: tuple,
                   profile_hashes: tuple[int, ...]) -> EnhancedProfile:
        """Extraction's constructor: profile_hashes[i] == hash(profiles[i]),
        computed once per distinct profile rather than once per tuple."""
        ep = cls(a, profiles)
        object.__setattr__(ep, "_hash", hash((a, *profile_hashes)))
        return ep

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


def enhanced_profiles_from_wl3(store: ColorStore) -> dict[EnhancedProfile, int]:
    """Multiset of enhanced profiles over all d-tuples, keyed with multiplicities."""
    m = store.ell
    if m < 2 or store.iterations < 3:
        raise ValueError("need a tuple history (ell >= 2) with at least three iterations")
    bary = barycenter_dists_from_wl1(store)
    prof = profiles_from_wl2(store)
    val = store.value_of
    payload = store.interner.payload
    remapped: dict = {}

    def substituted(c2: int, i: int) -> tuple:
        """Profile of tuple color c2 with slot i moved last, and its hash."""
        key = (c2, i)
        if key not in remapped:
            p = tuple(sorted((*e[1:1 + i], e[0], *e[2 + i:], e[1 + i]) for e in prof[c2]))
            remapped[key] = (p, hash(p))
        return remapped[key]

    result: Counter = Counter()
    for c3, count in Counter(store.tables[3]).items():
        c2x, recs3 = payload(c3, KIND_NODE)
        c1x = payload(c2x, KIND_NODE)[0]
        matx = payload(payload(c1x, KIND_NODE)[0], KIND_MAT)[1]
        bary_x = bary[c1x]
        profile_x = prof[c2x]
        last_profile = tuple(sorted((*e[1:], e[0]) for e in profile_x))
        last_hash = hash(last_profile)
        for rec in recs3:
            c1_0 = payload(rec[0], KIND_NODE)[0]
            c1_1 = payload(rec[1], KIND_NODE)[0]
            mat0 = payload(payload(c1_0, KIND_NODE)[0], KIND_MAT)[1]
            mat1 = payload(payload(c1_1, KIND_NODE)[0], KIND_MAT)[1]
            d_y_x = [val(mat1[m])] + [val(mat0[j]) for j in range(1, m)]
            d_y_b = bary[c1_0][0]
            # squared distances among (b, x_1, ..., x_m, y), row by row
            inner = [[val(matx[i * m + j]) if i != j else 0 for j in range(m)] for i in range(m)]
            A = [(0, *bary_x, d_y_b), *((bary_x[i], *inner[i], d_y_x[i]) for i in range(m)),
                 (d_y_b, *d_y_x, 0)]
            profiles, hashes = zip(*(substituted(rec[i], i) for i in range(m)))
            a = SquaredDistanceMatrix(order=m + 2, entries=tuple(A))
            ep = EnhancedProfile._prehashed(a, (*profiles, last_profile),
                                            (*hashes, last_hash))
            result[ep] += count
    return dict(result)


def _gram(a: np.ndarray) -> np.ndarray:
    """Gram matrices <z_j, z_k> of the anchors z_j = x_j - b from (stacked)
    squared-distance matrices of (b, x_1, ..., x_d); exact for object arrays."""
    half = Fraction(1, 2) if a.dtype == object else 0.5
    return (a[..., :1, 1:] + a[..., 1:, :1] - a[..., 1:, 1:]) * half


def _dots(G: np.ndarray, E: np.ndarray, i: int) -> np.ndarray:
    """<x, z_k> = (|x|^2 + G_kk - E[r, k]) / 2 for k != i (0 at k = i), where
    row r of E holds x's squared distances to the anchors with b in slot i."""
    half = Fraction(1, 2) if E.dtype == object else 0.5
    g = (E[..., i:i + 1] + np.diagonal(G, axis1=-2, axis2=-1)[..., None, :] - E) * half
    g[..., i] = 0
    return g


def _inverse(G: np.ndarray) -> np.ndarray:
    """G^-1 by Gauss-Jordan elimination over Fractions, or by LAPACK for floats."""
    if G.dtype != object:
        return np.linalg.inv(G)
    d = len(G)
    M = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(G)]
    for c in range(d):
        p = next((r for r in range(c, d) if M[r][c]), None)
        if p is None:
            raise ReconstructionError("anchors are not full-dimensional")
        M[p], M[c] = M[c], [v / M[p][c] for v in M[p]]
        M = [row if r == c else [a - row[c] * b for a, b in zip(row, M[c])]
             for r, row in enumerate(M)]
    return np.array([row[d:] for row in M], dtype=object)


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


def select_cone_tuple(eps, tol: float = DEFAULT_TOL) -> list[EnhancedProfile]:
    """Order enhanced profiles for reconstruction attempts.

    Degenerate clouds: one profile of maximal dimension.  Otherwise every
    d-dimensional profile (rank exact for exact profiles; a repeated point
    skips the test) by increasing `depth_bound` from profile 0's mirror
    candidates, then `sort_key`, from one float pass over the stacked Gram
    matrices.  A thin cone gets a large bound; an unbounded one ranks last.
    """
    eps = list(eps)
    if not eps:
        raise ValueError("no enhanced profiles given")
    d = eps[0].a.order - 1
    cands = [ep for ep in eps if not ep.repeats_a_point() and ep.dimension(tol) == d]
    if not cands:
        return [min(eps, key=lambda ep: (-ep.dimension(tol), ep.sort_key()))]
    A = np.array([ep.a.as_array() for ep in cands])
    G = _gram(A)
    H = np.linalg.inv(G)
    E = np.array([[[float(v) for v in e] for e in ep.profiles[0]] for ep in cands])
    plus, minus, _ = mirror_lambdas(G, H, E, 0, tol)
    bounds = depth_bound(np.concatenate([plus, minus], axis=-2), G, H, tol)[1]
    # sort_key starts with the float anchor matrix, which A holds; the rest of
    # it floats every profile entry, so only a tie on (bound, A) computes it
    ranked = sorted(zip(np.nan_to_num(bounds, nan=np.inf).tolist(), A.tolist(), cands),
                    key=lambda r: r[:2])
    order: list[EnhancedProfile] = []
    for _, group in groupby(ranked, key=lambda r: r[:2]):
        tied = [ep for *_, ep in group]
        order += sorted(tied, key=EnhancedProfile.sort_key) if len(tied) > 1 else tied
    return order


@dataclass
class GramCloud:
    """Point p is sum_j lambdas[p][j] z_j over the anchors of ep, in ep's scalar type."""

    ep: EnhancedProfile
    lambdas: list[tuple]
    depth: int = 0
    gamma_bound: int = 0
    epsilon: float | None = None

    @property
    def points(self) -> np.ndarray:  # the barycenter row of anchor_embed is the origin
        Z = anchor_embed(self.ep.a, len(self.ep.profiles), DEFAULT_TOL)[1:]
        return np.array(self.lambdas, dtype=float) @ Z


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
    return GramCloud(ep, list(map(tuple, lams.tolist())))


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
    entries with one mirror candidate in the region, then deepens it; both
    are `geometry.sweep` calls.  A placed point removes its entry (an equal
    one, if exact) from every profile, or rejects ep as "unmatched".
    """
    d = ep.a.order - 1
    G = ep.gram()
    tol = 0 if G.dtype == object else tol
    H = _inverse(G)
    limit = tol * max(1.0, math.sqrt(float(max(np.diagonal(G))))) * 1e5
    profiles = [list(p) for p in ep.profiles]
    placed: list[tuple] = []
    cands_of = []  # per profile, each distinct entry's one or two mirror candidates
    for i, entries in enumerate(profiles):
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
                remove_nearest(profiles[j], target, limit)
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
        sweep(profiles[i], chooser(i, lambda c: False), place)
    if not any(profiles):
        return GramCloud(ep, placed)

    # phase 2: epsilon and the depth bound from the doubled candidate set of profile 0
    rest = np.array([c for e in profiles[0] for c in cands_of[0][e]], dtype=G.dtype)
    eps2, gamma = depth_bound(rest, G, H, tol)
    if not math.isfinite(gamma):
        raise InconsistentDataError("all remaining candidates sit on anchor hyperplanes")
    region = ForbiddenRegion(G, eps2, tol)
    depth_cap = min(max_depth, int(gamma))

    depth = 0
    while True:
        for i in range(d):
            sweep(profiles[i], chooser(i, lambda c: region.membership(c, depth)), place)
        if not any(profiles):
            return GramCloud(ep, placed, depth, int(gamma), math.sqrt(float(eps2)))
        depth += 1
        if depth > depth_cap:
            raise CandidateRejected(
                "depth_cap", f"unresolved points at the depth bound (cap {depth_cap})")


def reconstruct_nd(store: ColorStore, tol: float = DEFAULT_TOL,
                   samples: int = DEFAULT_SELECT_SAMPLES, seed: int = 0,
                   max_depth: int = DEFAULT_MAX_DEPTH,
                   verify_snap: float = DEFAULT_VERIFY_SNAP) -> ReconstructionReport:
    """Full pipeline: extract enhanced profiles, try candidates, verify by fingerprint.

    Candidates go in `select_cone_tuple`'s order; one is accepted when its
    recoloring reproduces the input fingerprint, which certifies isometry.
    Exact stores color the Gram coordinates' squared distances
    (l_x - l_y)^T G (l_x - l_y) exactly against `fingerprint(store)`; float
    stores recolor float coordinates at verify_snap, as the input, and only
    they read verify_snap.  counters["failures"] counts the earlier rejects
    by FAILURE_REASONS.  `samples` and `seed` are unread (perfbench passes them).
    """
    if store.ell < 2:
        raise ValueError("reconstruct_nd needs a tuple history with ell >= 2")
    d = store.ell + 1
    if store.n == 1:
        return ReconstructionReport(cloud=PointCloud(d, ((0.0,) * d,)), method="nd-trivial",
                                    counters={"candidates_tried": 0})

    eps = enhanced_profiles_from_wl3(store)
    candidates = select_cone_tuple(eps.keys(), tol=tol)
    exact = store.interner.mode == "exact"
    verify_interner = Interner("float", verify_snap)
    fin = fingerprint(store, 3) if exact else fingerprint(run_wl_from_sq_values(
        [[float(v) for v in row] for row in store.sq_matrix_values()], store.ell, 3, d,
        mode="float", snap=verify_snap, interner=verify_interner))

    def recolored(res: GramCloud):
        if exact:
            L = np.array(res.lambdas, dtype=object)
            diff = L[:, None, :] - L[None, :, :]
            sq = ((diff @ res.ep.gram()) * diff).sum(-1).tolist()
            return fingerprint(run_wl_from_sq_values(sq, store.ell, 3, d, mode="exact"))
        pts = res.points
        drift = float(np.linalg.norm(pts.mean(axis=0)))
        if drift > 1e-6 * max(1.0, float(np.max(np.abs(pts)))):
            raise ReconstructionError(f"barycenter drift {drift:.3e}")
        return fingerprint(run_wl(PointCloud.from_array(pts), store.ell, 3, mode="float",
                                  snap=verify_snap, interner=verify_interner))

    failures: list[str] = []
    reasons = dict.fromkeys(FAILURE_REASONS, 0)
    for tried, ep in enumerate(candidates, start=1):
        counters = {"candidates_tried": tried, "total_candidates": len(candidates),
                    "failures": dict(reasons)}
        try:
            if ep.dimension(tol) < d:
                res, method = reconstruct_lowdim(ep, tol), "nd-lowdim"
            else:
                res, method = reconstruct_fulldim(ep, tol, max_depth), "nd-fulldim"
                counters.update(depth=res.depth, gamma_bound=res.gamma_bound,
                                epsilon=res.epsilon)
            if compare(fin, recolored(res)) == "equal":
                return ReconstructionReport(cloud=PointCloud.from_array(res.points),
                                            method=method, counters=counters)
        except (ReconstructionError, InconsistentDataError, NotRealizableError,
                ValueError) as exc:
            reasons[getattr(exc, "reason", "other")] += 1
            failures.append(f"candidate {tried}: {exc}")
            continue
        reasons["fingerprint_mismatch"] += 1
        failures.append(f"candidate {tried}: fingerprint mismatch")
    raise ReconstructionError(
        "all enhanced-profile candidates exhausted; "
        + ("; ".join(failures[:5]) if failures else "no candidates"))
