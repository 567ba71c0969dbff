"""Planar reconstruction from a 3-iteration single-point coloring history.

Pipeline: the first iteration's distance multisets give every point's squared
distance to the barycenter (by `wl._History`, as in `recon_nd`); the second
pairs those norms with distances from each point; the third picks a pivot
pair (u, v) spanning a minimal positive angle at the barycenter, whose cone
is then guaranteed free of cloud points.  Colors are read through
`ColorStore`'s readers; extraction runs on `wl._History`'s integer numerators
and builds `Fraction`s only for the pivot data it returns.  Reconstruction
places u on a fixed ray, v by circle intersection, resolves points on the two
pivot lines, and then eliminates mirror candidates round by round while the
known-empty angular region grows by the pivot angle on each side.  That
region is the arc [-k*alpha, (k+1)*alpha] after k rounds, so each entry's
first resolving round follows from its candidates' angles, and one walk in
that order places all.  Stores are exact (a float cloud is colored as the
dyadic rationals its floats are).  Each tolerance test reads value <= tol * s,
s the squared length the value comes from, so it decides alike at every
scale (on integers, exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_TOL
from .errors import InconsistentDataError, ReconstructionError
from .geometry import Entries, PointCloud, Scalar, _over_tol
from .report import ReconstructionReport
from .wl import ColorStore, _History, require_exact


def norms_from_chi1(store: ColorStore) -> dict[int, Scalar]:
    """Map each iteration-1 point color to its squared distance to the barycenter.

    A view of `wl._History`, which applies the barycenter identity to the
    colors' distance sums, as integers over one denominator.
    """
    if store.ell != 1 or store.iterations < 1:
        raise ValueError("need a single-point history with at least one iteration")
    h = _History(store, 1)
    return {c: h.value(norm) for c, (norm,) in h.norms.items()}


def _profile(store: ColorStore, h: _History, c2: int) -> tuple:
    """{(d(x,y)^2, |y|^2) : y in S} of iteration-2 color c2, sorted on h's numerators."""
    dids, c1s = store.nodes([c2])[1][0].T.tolist()
    pairs = sorted(zip(h.nums[dids].tolist(), [h.norms[c][0] for c in c1s]))
    return tuple((h.value(d2), h.value(n2)) for d2, n2 in pairs)


def profiles_from_chi2(store: ColorStore) -> dict[int, tuple]:
    """Map each iteration-2 point color to {(d(x,y)^2, |y|^2) : y in S}."""
    if store.ell != 1 or store.iterations < 2:
        raise ValueError("need a single-point history with at least two iterations")
    h = _History(store, 1)
    return {c2: _profile(store, h, c2) for c2 in set(store.tables[2])}


@dataclass(frozen=True)
class InitData2D:
    """Pivot data for planar reconstruction.

    d0_sq is the squared pivot distance d(u,v)^2; m_u and m_v are the
    multisets {(d(pivot,y)^2, |y|^2)} over the cloud.  A zero d0_sq marks the
    collinear fallback with m_v = m_u.
    """

    d0_sq: Scalar
    m_u: tuple
    m_v: tuple

    def __post_init__(self):
        if len(self.m_u) != len(self.m_v):
            raise ValueError("pivot multisets must have equal cardinality")


def _cos_greater(qa, na, qb, nb) -> bool:
    """Compare q_a/sqrt(N_a) > q_b/sqrt(N_b) without square roots (N > 0)."""
    if qa >= 0 and qb < 0:
        return True
    if qa < 0 and qb >= 0:
        return False
    lhs = qa * qa * nb
    rhs = qb * qb * na
    return lhs > rhs if qa >= 0 else lhs < rhs


def init2d(store: ColorStore, tol: float = DEFAULT_TOL) -> InitData2D:
    """Extract pivot data from a 3-iteration single-point history.

    The pivot u is the first point by color digest whose norm is above
    tol * the largest norm, `reconstruct2d`'s test; v minimizes the angle at
    the barycenter over 0 < angle < pi (compared exactly on cosines), ties
    broken by color digest.  A partner whose squared height over the u-line
    is within tol * its norm, `reconstruct2d`'s u-line test, is no candidate
    for v.  With no v the cloud is collinear with the barycenter and the
    fallback (0, M_u, M_u) applies.  It all runs on `wl._History`'s
    numerators: `Fraction`s only for what is returned.
    """
    if store.ell != 1 or store.iterations < 3:
        raise ValueError("need a single-point history with at least three iterations")
    if store.n < 2:
        raise ValueError("initialization needs at least two points")
    h = _History(store, 1)
    norms = {c: norm for c, (norm,) in h.norms.items()}
    over = _over_tol(tol)
    digests = store.interner.digests
    c2s = list(set(store.tables[2]))
    c3s = sorted(set(store.tables[3]), key=digests.__getitem__)
    chi1_of_chi2 = dict(zip(c2s, store.nodes(c2s)[0].tolist()))
    chi2_of_chi3 = dict(zip(c3s, store.nodes(c3s)[0].tolist()))

    # pick u: off the barycenter by reconstruct2d's test, canonical by digest
    top = max(norms.values())
    u_color = next((c3 for c3 in c3s
                    if over(norms[chi1_of_chi2[chi2_of_chi3[c3]]], 1, top)), None)
    if u_color is None:
        raise InconsistentDataError("no point off the barycenter")
    nu2 = norms[chi1_of_chi2[chi2_of_chi3[u_color]]]
    m_u = _profile(store, h, chi2_of_chi3[u_color])

    best = None  # (q, N, tiebreak, d2, c2_y)
    dids, c2ys = store.nodes([u_color])[1][0].T.tolist()
    for did, d2, c2_y in zip(dids, h.nums[dids].tolist(), c2ys):
        ny2 = norms[chi1_of_chi2[c2_y]]
        if ny2 == 0:
            continue  # angle defined as 0
        q = nu2 + ny2 - d2
        N = nu2 * ny2
        # the partner's squared height over the u-line is (4N - q^2) / (4|u|^2),
        # tested as reconstruct2d tests heights, with no product of two norms
        if not over(4 * N - q * q, 4 * nu2, ny2):
            continue  # angle is 0 or pi, up to tol
        tiebreak = (digests[c2_y], did)
        if (best is None or _cos_greater(q, N, best[0], best[1])
                or (not _cos_greater(best[0], best[1], q, N) and tiebreak < best[2])):
            best = (q, N, tiebreak, d2, c2_y)
    if best is None:
        return InitData2D(d0_sq=0, m_u=m_u, m_v=m_u)
    return InitData2D(d0_sq=h.value(best[3]), m_u=m_u, m_v=_profile(store, h, best[4]))


@dataclass
class PlanarReconstruction:
    cloud: PointCloud
    rounds: int
    round_bound: int
    alpha: float | None


# which mirror candidate to take, by the kinds (0 out, 1 boundary, 2 in) of the
# two: the one opposite a forbidden one; -1 while unresolved, -2 if both are in
_PICK = ((-1, 0, 0),
         (1, -1, 0),
         (1, 1, -2))


def _entry_round(d0: float, d1: float, alpha: float, ang_tol: float) -> tuple[float, int]:
    """The first round k >= 0 that resolves an entry, and its `_PICK` there.

    d0, d1: its candidates' angular distances from alpha/2.  Their float
    depth (2k+1)*alpha/2 - delta never falls as k grows, so the scan may
    start at any k whose round k - 1 leaves the nearer one out.  A NaN
    distance is never in nor on the boundary: two never resolve (round inf).
    """
    def kind(k: int, delta: float) -> int:
        depth = (2 * k + 1) * alpha / 2 - delta
        return 2 if depth > ang_tol else 1 if depth >= -ang_tol else 0

    finite = [d for d in (d0, d1) if not math.isnan(d)]
    if not finite:
        return math.inf, -1
    near = min(finite)
    k = max(0, math.floor((near - ang_tol) / alpha))
    while k > 0 and kind(k - 1, near) != 0:
        k -= 1
    while _PICK[kind(k, d0)][kind(k, d1)] == -1:
        k += 1
    return k, _PICK[kind(k, d0)][kind(k, d1)]


def _pivot_norm(entries: Entries, tol: float, pivot: str) -> tuple[float, float]:
    """The pivot's squared norm and norm, from its multiset's one zero-distance
    entry, d^2 <= tol * |y|^2; it must exceed tol * the largest norm."""
    zero = [e for _, e in entries.live() if abs(e[0]) <= tol * e[1]]
    if len(zero) != 1:
        raise InconsistentDataError("pivot multiset must contain exactly one zero-distance entry")
    if zero[0][1] <= tol * max(n2 for _, (_, n2) in entries.live()):
        raise InconsistentDataError(f"pivot {pivot} must not sit at the barycenter")
    return zero[0][1], math.sqrt(zero[0][1])


def reconstruct2d(init: InitData2D, tol: float = DEFAULT_TOL) -> PlanarReconstruction:
    """Rebuild a planar cloud, barycenter at the origin, from pivot data.

    Follows the candidate-elimination schedule.  After the pivots, the
    entries with one candidate place the points on the two pivot lines;
    round k then forbids the arc [-k*alpha, (k+1)*alpha], the pivot cone
    [0, alpha] widened by the pivot angle per side and round.  Terminates
    within ceil(1 + pi/alpha) rounds.

    Each entry's candidates, resolving round and pick come from
    `_entry_round` (round -1 for one candidate); one walk over the entries
    sorted by round, m_u before m_v and position places them.  No round
    places an entry before its own, so points, order, `rounds` and
    `round_bound` are those of sweeping every round.
    """
    m_u = Entries([(float(a), float(b)) for a, b in init.m_u])
    m_v = Entries([(float(a), float(b)) for a, b in init.m_v])
    d0sq = float(init.d0_sq)

    ru2, ru = _pivot_norm(m_u, tol, "u")

    if d0sq <= tol * ru2:
        # collinear: every point sits on the line through the barycenter and u
        pts = []
        for _, (d2, n2) in m_u.live():
            x = (ru2 + n2 - d2) / (2 * ru)
            if abs(x * x - n2) > tol * n2 * 1000:
                raise InconsistentDataError("collinear entry is off the pivot line")
            pts.append((x, 0.0))
        return PlanarReconstruction(cloud=_cloud2d(pts), rounds=0, round_bound=0, alpha=None)

    rv2, rv = _pivot_norm(m_v, tol, "v")

    u = (ru, 0.0)
    xv = (ru2 + rv2 - d0sq) / (2 * ru)
    yv2 = rv2 - xv * xv
    if yv2 <= tol * rv2:
        raise InconsistentDataError("pivots are collinear with the barycenter but d0 > 0")
    v = (xv, math.sqrt(yv2))
    alpha = math.atan2(v[1], v[0])

    placed: list[tuple[float, float]] = []

    def place(p: tuple[float, float]) -> None:
        n2 = p[0] * p[0] + p[1] * p[1]
        du2 = (p[0] - u[0]) ** 2 + (p[1] - u[1]) ** 2
        dv2 = (p[0] - v[0]) ** 2 + (p[1] - v[1]) ** 2
        m_u.take((du2, n2), tol * max(du2, n2) * 1000)
        m_v.take((dv2, n2), tol * max(dv2, n2) * 1000)
        placed.append(p)

    place(u)
    place(v)

    def candidates(r2, r, ex, ey):  # an entry (d2, n2)'s points, for the pivot r * (ex, ey)
        def cands(d2, n2):
            x = (r2 + n2 - d2) / (2 * r)
            h2 = n2 - x * x
            if h2 <= tol * n2:
                return [(x * ex + 0.0, x * ey + 0.0)]  # + 0.0 turns -0.0 into 0.0
            h = math.sqrt(h2)
            return [(x * ex - h * ey, x * ey + h * ex), (x * ex + h * ey, x * ey - h * ex)]
        return cands

    ang_tol = max(tol, 1e-12) * 10

    # Reflecting through the pivot lines maps theta to -theta and 2*alpha - theta,
    # so round k forbids the arc [-k*alpha, (k+1)*alpha]: a candidate at angular
    # distance delta from alpha/2 lies at depth (2k+1)*alpha/2 - delta in it.  A
    # union of spans on [0, 2*pi) splits at angle 0 once the arc wraps and reads
    # depth ~0 there, but no two-sided candidate is left there after round 0: a
    # point on the u-line is placed with the pivot lines, and a v-candidate at
    # angle 0 is on the edge of [0, alpha] with its mirror at 2*alpha outside it.
    def off_axis(c) -> float:
        return abs(math.remainder(math.atan2(c[1], c[0]) - alpha / 2, math.tau))

    round_bound = math.ceil(1.0 + math.pi / alpha)
    walk = []  # (round, side, position, entries, candidate; None if both are forbidden)
    for side, (entries, cands_of) in enumerate(((m_u, candidates(ru2, ru, 1.0, 0.0)),
                                                (m_v, candidates(rv2, rv, v[0] / rv, v[1] / rv)))):
        for i, e in entries.live():
            cands = cands_of(*e)
            if len(cands) == 1:
                k, pick = -1, 0
            else:
                k, pick = _entry_round(off_axis(cands[0]), off_axis(cands[1]), alpha, ang_tol)
            if k <= round_bound:
                walk.append((k, side, i, entries, None if pick == -2 else cands[pick]))
    rounds = 0
    for k, _, i, entries, cand in sorted(walk, key=lambda step: step[:3]):
        while not entries.taken(i):
            if cand is None:
                raise ReconstructionError("both mirror candidates are forbidden")
            place(cand)
            rounds = max(k, 0)
    if m_u or m_v:
        raise ReconstructionError(f"unresolved points after the round bound {round_bound}")
    return PlanarReconstruction(cloud=_cloud2d(placed), rounds=rounds,
                                round_bound=round_bound, alpha=alpha)


def _cloud2d(points) -> PointCloud:
    return PointCloud(dim=2, points=tuple((float(x), float(y)) for x, y in points))


def reconstruct_planar(store: ColorStore, tol: float = DEFAULT_TOL) -> ReconstructionReport:
    """End-to-end planar path: pivot extraction plus reconstruction.

    The counters are the elimination rounds, their bound and the pivot
    angle alpha (None for collinear clouds).  Single-point clouds
    short-circuit to the origin.  A float store raises ValueError.
    """
    require_exact(store.interner.mode)
    if store.n == 1:
        res = PlanarReconstruction(cloud=_cloud2d([(0.0, 0.0)]), rounds=0,
                                   round_bound=0, alpha=None)
    else:
        res = reconstruct2d(init2d(store, tol), tol=tol)
    counters = {"rounds": res.rounds, "round_bound": res.round_bound, "alpha": res.alpha}
    return ReconstructionReport(res.cloud, "wl2d", counters)
