"""Reconstruction in dimension d >= 3 from a 3-iteration (d-1)-tuple coloring.

The extraction chain mirrors the information content of the color history:
iteration 1 of the coloring determines, for every tuple, the squared
distances of its components to the barycenter; iteration 2 determines the
distance profile of the barycenter-extended tuple; iteration 3 assembles,
for every tuple and every cloud point, an enhanced profile: the full squared
distance matrix of (barycenter, x_1, ..., x_d) together with the d profiles
obtained by substituting the barycenter into each slot.

The store must be exact: `report.reconstruct` colors a float cloud as the
dyadic rationals its floats are, and a float store is refused.  Extraction
reads the history through `wl._History`, which numbers the distinct squared
distances and barycenter norms in increasing order, as integers over one
denominator, and builds one `ProfileTable` per store: each enhanced profile
as arrays of those numbers, each distinct substituted profile once.
Ranking is one float pass over these arrays, `ProfileTable.ranks_and_bounds`,
which gives each row its rank and depth bound from one Gram build; the
`EnhancedProfile` of a candidate, in Fractions, is built only when
reconstruction tries it.  Gram matrices, their rank rule, exact elimination
and the render of Gram coordinates come from `geometry`, shared with
`oneshot`.

Reconstruction runs in the anchors' Gram coordinates: with the barycenter
at the origin, x = sum_j lambda_j z_j over the anchors z_j, whose Gram
matrix G comes straight from the enhanced profile.  Each tried candidate
runs on one `GramKernel`: G and the profile entries as integers over one
denominator, with det and adj of G by fraction-free elimination, and Gram
coordinates as integers over one denominator, from the mirror candidates
to the certificate.  The cone is lambda >= 0, the slab about face j is
lambda_j^2 < epsilon^2 (G^-1)_jj, and reflecting through face j is the
rational map lambda -> lambda - 2 lambda_j / (G^-1)_jj * G^-1 e_j.
Degenerate clouds are placed inside the anchors' span; full-dimensional
ones by forbidden-region elimination under a potential bound on the depth,
the anchor tuples tried in increasing order of that bound; each is
certified, and the accepted one rendered as float points, from G.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from itertools import chain
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import (DEFAULT_MAX_DEPTH, DEFAULT_SELECT_SAMPLES, DEFAULT_TOL,
                     DEFAULT_VERIFY_SNAP)
from .errors import InconsistentDataError, ReconstructionError
from .geometry import (Entries, PointCloud, SquaredDistanceMatrix, _eliminate, _gram2,
                       gram_affine_dim, gram_basis, gram_points, gram_ranks)
# Not called here: perfbench/tracer.py binds these names on this module, and
# its per-layer metrics read them (their call counts stay 0).
from .geometry import anchor_embed, mirror_pair, solid_angle_mc, trilaterate  # noqa: F401
from .report import ReconstructionReport
from .wl import (ColorStore, _as_float, _distinct_rows, _History, _index, _sorted_rows,
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

    def sort_key(self):
        return (_float_rows(self.a.entries), tuple(map(_float_rows, self.profiles)))


def _float_rows(rows) -> tuple:
    return tuple(tuple(float(x) for x in row) for row in rows)


class ProfileTable:
    """Enhanced profiles with their multiplicities, as arrays of value ids.

    distances[v] is the v-th smallest distinct squared distance, a Fraction,
    and floats[v] its float, correctly rounded.
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
        """Per row, its anchors' `geometry.gram_ranks` rank and profile 0's
        `depth_bound`, from one float Gram stack per block of 1024 rows.  Only
        rows of rank d are inverted, one by one if the block's inverse raises.
        Every row without a finite bound (all its candidates on a face, G
        singular in floats, or rank below d) gets +inf.
        """
        ranks, bounds = np.empty(len(rows), dtype=int), np.full(len(rows), np.inf)
        exact = np.vectorize(self.distances.__getitem__, otypes="O")
        for s in range(0, len(rows), 1024):
            block = rows[s:s + 1024]
            G, ranks[s:s + 1024] = gram_ranks(self.A[block], self.floats, tol, exact)
            full = np.flatnonzero(ranks[s:s + 1024] == self.d)
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
    Raises ValueError on a float store: reconstruction runs on exact ones only.
    """
    if store.interner.mode != "exact":
        raise ValueError("wlnd needs an exact store: it has no float mode, and reads "
                         "a float cloud as the exact values of its floats")
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


def _dots2(G: np.ndarray, E: np.ndarray, i: int) -> np.ndarray:
    """2<x, z_k> = |x|^2 + G_kk - E[r, k] for k != i (0 at k = i), where row r of E
    holds x's squared distances to the anchors with b in slot i; integers for
    integer G and E over one denominator."""
    g = E[..., i:i + 1] + np.diagonal(G, axis1=-2, axis2=-1)[..., None, :] - E
    g[..., i] = 0
    return g


def mirror_lambdas(G: np.ndarray, H: np.ndarray, E: np.ndarray, i: int, tol: float = 0.0):
    """Float Gram coordinates (plus, minus, resident) of the points realizing profile-i
    entries.

    `_dots2` and |x|^2 = E[r, i] fix lambda = G^-1 <x, z> but for lambda_i =
    +-sqrt(disc): x and its mirror across face i, equal for resident rows,
    |disc| <= 100 tol (G^-1)_ii max(E[r]).
    Leading axes stack frames; unrealizable rows are NaN.  `GramKernel.mirror` is exact.
    """
    g = _dots2(G, E, i) * 0.5
    Hg = g @ np.swapaxes(H, -1, -2)
    hii = H[..., i, i][..., None]
    disc = Hg[..., i] ** 2 - hii * ((g * Hg).sum(-1) - E[..., i])
    v = H[..., :, i] / hii
    u = Hg - Hg[..., i:i + 1] * v[..., None, :]
    resident = np.abs(disc) <= hii * tol * E.max(-1) * 100
    with np.errstate(invalid="ignore"):
        root = np.sqrt(np.where(resident, 0.0, disc))
    lift = root[..., None] * v[..., None, :]
    return u + lift, u - lift, resident


def _gamma(norm, gd, hd_max, eps):
    """`depth_bound`'s gamma_bound from max |x|, the G_jj, max_j (G^-1)_jj and epsilon.

    A frame that is not positive definite in floats (NaN or negative
    (G^-1)_jj) gives NaN, and a zero epsilon inf, without a warning: neither is
    finite, and the callers treat both as no bound.  A bound past the float
    range is inf, also without a warning."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c_const = 2 / np.sqrt(hd_max)  # twice the least z_j to face j
        gamma = np.ceil(norm * np.sqrt(gd).sum(-1) / (c_const * eps)) + 1
    return np.where(eps < np.inf, gamma, np.inf)


def _float_sqrt(x: Fraction) -> float:
    """sqrt(x) of a positive rational as a float: x is scaled by 4^s into the normal
    float range before its root is taken and the root by 2^-s after, exact powers of
    two, so the root is math.sqrt(float(x)) wherever x is a normal float and stays
    positive and finite where x itself under- or overflows a float."""
    num, den = x.as_integer_ratio()
    s = (den.bit_length() - num.bit_length()) // 2
    root = math.sqrt((num << 2 * s) / den if s >= 0 else num / (den << -2 * s))
    return math.ldexp(root, -s)


def depth_bound(lams: np.ndarray, G: np.ndarray, H: np.ndarray, tol: float = 0.0):
    """Squared slab width epsilon^2 and the potential bound gamma_bound on the depth.

    epsilon^2 is a quarter of the least squared face distance min_j
    lambda_j^2 / (G^-1)_jj of a candidate (row of lams) above (1000 tol)^2
    max_j G_jj.  A useful reflection raises sum_j <x, z_j> by c*epsilon,
    c = 2 min_j (G^-1)_jj^(-1/2), so the depth is below
    ceil(max |x| * sum_j |z_j| / (c*epsilon)) + 1, or inf if every candidate
    sits on a face.  Leading axes stack float frames; `GramKernel.depth_bound`
    is the exact form.
    """
    hd = np.diagonal(H, axis1=-2, axis2=-1)
    gd = np.diagonal(G, axis1=-2, axis2=-1)
    face2 = np.asarray((tol * 1000) ** 2 * gd.max(-1))
    rho2 = (lams * lams / hd[..., None, :]).min(-1)
    eps2 = np.where(rho2 > face2[..., None], rho2, np.inf).min(-1) / 4
    norm = np.sqrt(((lams @ G) * lams).sum(-1).max(-1))
    return eps2, _gamma(norm, gd, hd.max(-1), np.sqrt(eps2))


class GramKernel:
    """An exact anchor Gram matrix in integers: G / c, G an integer matrix.

    `geometry._eliminate` of [G | I] gives det = |det(G)| and adj = det G^-1,
    which is +-adj(G), so the inverse is c adj / det.  Gram coordinates
    are integer vectors over q = 2 det lcm_i adj_ii, which holds every mirror
    candidate.  Raises ReconstructionError if G is singular, and
    InconsistentDataError if a diagonal entry of adj is not positive, as it is
    for every Gram matrix.
    """

    def __init__(self, G: np.ndarray, c: int):
        m = len(G)
        pivots, _, rows = _eliminate([row + [int(i == j) for j in range(m)]
                                      for i, row in enumerate(G.tolist())])
        if pivots != list(range(m)):
            raise ReconstructionError("anchors are not full-dimensional")
        p = rows[0][0]  # [G | I] ends as [p I | X], and X / p is G^-1
        sign = 1 if p > 0 else -1
        self.G, self.c, self.det = G, c, sign * p
        self.adj = np.array([row[m:] for row in rows], dtype=object) * sign
        self.diag = np.diagonal(self.adj).tolist()
        if min(self.diag) <= 0:
            raise InconsistentDataError("the anchors' Gram matrix is not positive definite")
        self.lcm = math.lcm(*self.diag)
        self.q = 2 * self.det * self.lcm
        self._rows, self._gdiag = G.tolist(), np.diagonal(G).tolist()

    def mirror(self, E: list, i: int):
        """`mirror_lambdas` for profile-i entries E, integer tuples over c, as integer
        tuples over q; raises InconsistentDataError unless every entry is realized.

        With g = `_dots2` and N = g adj, G^-1 <x, z> = N / (2 det) and the
        discriminant is D / (4 det^2), D = N_i^2 - adj_ii (g.N - 4 det E_i): a
        rational square exactly when isqrt(D)^2 = D.  The candidates are
        (adj_ii N - (N_i -+ isqrt(D)) adj e_i) / (2 det adj_ii).
        """
        E = np.array(E, dtype=object)
        g = _dots2(self.G, E, i)
        N = g @ self.adj
        a = self.diag[i]
        D = (N[:, i] ** 2 - a * ((g * N).sum(-1) - 4 * self.det * E[:, i])).tolist()
        if min(D) < 0 or any(math.isqrt(x) ** 2 != x for x in D):
            raise InconsistentDataError("a profile entry has no rational realization")
        root = np.array([math.isqrt(x) for x in D], dtype=object)[:, None]
        col = self.adj[i] * (self.lcm // a)
        u, Ni = N * self.lcm, N[:, i:i + 1]
        return (u - (Ni - root) * col).tolist(), (u - (Ni + root) * col).tolist(), \
            [x == 0 for x in D]

    def _dots(self, lam: tuple) -> tuple[list, int]:
        """G lam and lam^T G lam, for <x, z_k> and |x|^2 over c q and c q^2."""
        s = [sum(g * x for g, x in zip(row, lam)) for row in self._rows]
        return s, sum(x * y for x, y in zip(lam, s))

    def targets(self, lam: tuple):
        """(|x|^2, [2<x, z_k> - G_kk]) as integers over c for the point lam / q, or
        (None, None) if they are not integers over c, so that no entry can equal them."""
        (s, nn), q = self._dots(lam), self.q
        if nn % (q * q) or any(2 * x % q for x in s):
            return None, None
        return nn // (q * q), [2 * x // q - g for x, g in zip(s, self._gdiag)]

    def depth_bound(self, lams: list):
        """`depth_bound` of integer Gram coordinates over q, epsilon^2 a Fraction (inf
        if every candidate sits on a face): lambda_j^2 / (G^-1)_jj is
        Lambda_j^2 (lcm / adj_jj) det / (q^2 c lcm).  gamma_bound takes epsilon
        from `_float_sqrt`, positive whenever epsilon^2 is."""
        w = [self.lcm // a for a in self.diag]
        rho = min(filter(None, (min(x * x * v for x, v in zip(lam, w)) for lam in lams)),
                  default=0)
        den = 4 * self.q * self.q * self.c * self.lcm
        eps2 = Fraction(rho * self.det, den) if rho else math.inf
        nn = max(self._dots(lam)[1] for lam in lams)
        # floats past the float range are inf, which _gamma reads as no bound
        gd = np.array([_as_float(Fraction(g, self.c)) for g in self._gdiag])
        hd_max = max(_as_float(Fraction(self.c * a, self.det)) for a in self.diag)
        norm = np.sqrt(_as_float(Fraction(nn, self.c * self.q * self.q)))
        return eps2, _gamma(norm, gd, hd_max, _float_sqrt(eps2) if rho else math.inf)

    def region(self, eps2) -> ForbiddenRegion:
        return ForbiddenRegion(self, eps2)


def _numerators(ep: EnhancedProfile) -> tuple[np.ndarray, int, list[list[tuple]]]:
    """An exact ep as integers over one denominator c, twice the lcm of its
    denominators: the anchors' Gram matrix times c and each profile's entries."""
    values = chain(chain.from_iterable(ep.a.entries),
                   chain.from_iterable(chain.from_iterable(ep.profiles)))
    c = 2 * math.lcm(*(v.denominator for v in values))

    def num(v):
        return v.numerator * (c // v.denominator)
    A = np.array([list(map(num, row)) for row in ep.a.entries], dtype=object)
    return _gram2(A) // 2, c, [[tuple(map(num, e)) for e in p] for p in ep.profiles]


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
    """Point p is sum_j lambdas[p][j] / q z_j over the anchors of Gram matrix G / c,
    both in integer numerators."""

    G: np.ndarray
    lambdas: list[tuple]
    c: int
    q: int
    depth: int = 0
    gamma_bound: int | float = 0  # an int, or inf when the bound is past the float range
    epsilon: float | None = None

    @property
    def points(self) -> np.ndarray:
        """Float points, rendered from G in Fractions by `geometry.gram_points`."""
        frac = np.vectorize(Fraction, otypes="O")
        return gram_points(frac(self.G, self.c), frac(np.array(self.lambdas, dtype=object),
                                                      self.q))

    def sq_distances(self) -> tuple[np.ndarray, int]:
        """The points' squared distances (l_x - l_y)^T G (l_x - l_y) as integers over
        c q^2, computed as |x|^2 + |y|^2 - 2<x, y>."""
        lams = np.array(self.lambdas, dtype=object)
        dots = lams @ self.G @ lams.T
        norms = np.diagonal(dots)
        return norms[:, None] + norms[None, :] - 2 * dots, self.c * self.q ** 2


def reconstruct_lowdim(ep: EnhancedProfile) -> GramCloud:
    """Place every cloud point inside the proper subspace that the anchors span.

    A greedy basis B of the anchors (`gram_basis`) spans it, so a slot
    outside B can be dropped: the profile with the barycenter in that slot
    gives <x, z_j> for j in B, and so x = sum_{j in B} lambda_j z_j, by the
    GramKernel of B's anchors.
    """
    G, c, entries = _numerators(ep)
    basis = gram_basis(G)
    drop = next((j for j in range(len(G)) if j not in basis), None)
    if drop is None:
        raise ReconstructionError("the anchors span the whole space")
    g = _dots2(G, np.array(entries[drop], dtype=object), drop)
    lams, sub = np.zeros_like(g), np.ix_(basis, basis)
    kernel = GramKernel(G[sub], c)  # lambda = g / (2c) c adj / det
    lams[:, basis] = g[:, basis] @ kernel.adj
    return GramCloud(G, list(map(tuple, lams.tolist())), c, 2 * kernel.det)


class ForbiddenRegion:
    """The growing region certified free of unplaced points, in Gram coordinates.

    Depth 0 is the cone lambda >= 0 and the slabs lambda_j^2 < eps2 (G^-1)_jj;
    depth k+1 adds the images of depth k under each face reflection
    lambda -> lambda - 2 lambda_j / (G^-1)_jj * G^-1 e_j.  `membership` walks
    the reflection words depth-first, never back through the face a point
    came from, and tests only the levels below the depth at which that point
    last missed; it keeps no frontier, so memory stays flat at any depth.
    Points are integer numerators over the kernel's q, eps2 a rational; a
    level-k point is a numerator over q step^k.
    """

    def __init__(self, kernel: GramKernel, eps2):
        # 2 (G^-1)_kj / (G^-1)_jj = 2 adj_kj / adj_jj
        a, w = kernel.diag, (2 * kernel.adj).T.tolist()
        self._step = math.lcm(*(x // math.gcd(x, *row) for x, row in zip(a, w)))
        self._w = [[y * self._step // x for y in row] for x, row in zip(a, w)]
        num, den = eps2.as_integer_ratio()
        self._slabs = [(num * kernel.c * x * kernel.q ** 2, den * kernel.det) for x in a]
        self._known, self._cuts = {}, []

    def _in_base(self, p: tuple, cuts: list) -> bool:
        if min(p) >= 0:
            return True
        return any(c * c * sd < cut for c, (_, sd), cut in zip(p, self._slabs, cuts))

    def membership(self, lam: tuple, depth: int) -> bool:
        hit, miss = self._known.get(lam, (math.inf, -1))  # depths known to hit and to miss
        if hit <= depth or depth <= miss:
            return hit <= depth
        while len(self._cuts) <= depth:  # the slab cuts of each level, scaled by step^2k
            f = self._step ** (2 * len(self._cuts))
            self._cuts.append([sn * f for sn, _ in self._slabs])
        stack = [(lam, -1, 0)]
        found = False
        while stack and not found:
            p, last, k = stack.pop()
            found = k > miss and self._in_base(p, self._cuts[k])
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


def reconstruct_fulldim(ep: EnhancedProfile, max_depth: int = DEFAULT_MAX_DEPTH) -> GramCloud:
    """Forbidden-region elimination for full-dimensional anchor tuples.

    Runs in Gram coordinates, on ep's GramKernel: integers over one
    denominator, matched exactly.  Phase 1 places the points on a face;
    phase 2 takes the slab and depth bound from profile 0's other candidates
    (`depth_bound`), and each round places the entries with one mirror
    candidate in the region, then deepens it; both are `Entries.sweep` passes.
    A placed point takes an equal entry from every profile, or rejects ep
    as "unmatched".
    """
    G, c, entries = _numerators(ep)
    frame = GramKernel(G, c)
    profiles = [Entries(p) for p in entries]
    placed: list[tuple] = []
    cands_of = []  # per profile, each distinct entry's one or two mirror candidates
    for i, es in enumerate(entries):
        distinct = list(dict.fromkeys(es))
        cands_of.append({e: [tuple(p)] if r else [tuple(p), tuple(m)]
                         for e, p, m, r in zip(distinct, *frame.mirror(distinct, i))})

    def place(lam: tuple) -> None:  # its entry in profile j: |x|^2 - t_k at k != j
        norm2, t = frame.targets(lam)
        try:
            if t is None:
                raise InconsistentDataError("a placed point is off the profiles' grid")
            for j, entries in enumerate(profiles):
                entries.take(tuple(norm2 - (k != j) * tk for k, tk in enumerate(t)), 0)
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

    def cloud(**counters) -> GramCloud:
        return GramCloud(frame.G, placed, frame.c, frame.q, **counters)

    # phase 1: points on a face have a unique candidate
    d = len(profiles)
    for i in range(d):
        profiles[i].sweep(chooser(i, lambda c: False), place)
    if not any(profiles):
        return cloud()

    # phase 2: epsilon and the depth bound from the doubled candidate set of profile 0
    eps2, gamma = frame.depth_bound([c for _, e in profiles[0].live() for c in cands_of[0][e]])
    if eps2 == math.inf:
        raise InconsistentDataError("all remaining candidates sit on anchor hyperplanes")
    region = frame.region(eps2)
    depth_cap = int(min(max_depth, gamma))  # gamma is inf past the float range

    depth = 0
    while True:
        for i in range(d):
            profiles[i].sweep(chooser(i, lambda c: region.membership(c, depth)), place)
        if not any(profiles):
            return cloud(depth=depth, gamma_bound=int(gamma) if gamma < math.inf else math.inf,
                         epsilon=_float_sqrt(eps2))
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
    fingerprint `fingerprint(store, 3)`, which certifies isometry.  Every
    candidate's squared distances (l_x - l_y)^T G (l_x - l_y), integers over
    one denominator, are recolored as exact keys, in an interner of their own.
    counters["failures"] counts the earlier rejects by FAILURE_REASONS.
    `samples`, `seed` and `verify_snap` are unread (perfbench passes them).
    """
    if store.ell < 2:
        raise ValueError("reconstruct_nd needs a tuple history with ell >= 2")
    d, table = store.ell + 1, enhanced_profiles_from_wl3(store)
    if store.n == 1:
        return ReconstructionReport(cloud=PointCloud(d, ((0.0,) * d,)), method="nd-trivial",
                                    counters={"candidates_tried": 0})

    candidates = select_cone_tuple(table, tol=tol)
    fin = fingerprint(store, 3)

    def certificate(res: GramCloud):
        sq, den = res.sq_distances()
        return fingerprint(run_wl_from_sq_values(sq, store.ell, 3, d, den=den))

    failures: list[str] = []
    reasons = dict.fromkeys(FAILURE_REASONS, 0)
    for tried, ep in enumerate(candidates, start=1):
        counters = {"candidates_tried": tried, "total_candidates": len(candidates),
                    "failures": dict(reasons)}
        try:
            if not candidates.full:
                res, method = reconstruct_lowdim(ep), "nd-lowdim"
            else:
                res, method = reconstruct_fulldim(ep, max_depth), "nd-fulldim"
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
