"""Planar reconstruction from a 3-iteration single-point coloring history.

Pipeline: the first iteration's distance multisets give every point's squared
distance to the barycenter; the second pairs those norms with distances from
each point; the third lets us pick a pivot pair (u, v) spanning a minimal
positive angle at the barycenter, whose cone is then guaranteed free of cloud
points.  Reconstruction places u on a fixed ray, v by circle intersection,
resolves points on the two pivot lines, and then eliminates mirror candidates
round by round while the known-empty angular region grows by the pivot angle
on each side.  Most rounds place nothing; they cost one array test of the
cached candidate angles against the region, and only a round in which some
entry resolves runs the sweeps.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import InconsistentDataError, ReconstructionError
from .geometry import (PointCloud, Scalar, barycenter_sq_norms, is_exact, remove_nearest,
                       sweep)
from .report import ReconstructionReport
from .wl import KIND_NODE1, ColorStore

TWO_PI = 2.0 * math.pi
_SHIFTS = np.array([-TWO_PI, 0.0, TWO_PI])
KINDS = ("out", "boundary", "in")


def norms_from_chi1(store: ColorStore) -> dict[int, Scalar]:
    """Map each iteration-1 point color to its squared distance to the barycenter."""
    if store.ell != 1 or store.iterations < 1:
        raise ValueError("need a single-point history with at least one iteration")
    counts = Counter(store.tables[1])
    f_by_color = {}
    for cid in counts:
        _, recs = store.interner.payload(cid, KIND_NODE1)
        f_by_color[cid] = sum(store.value_of(did) for did, _ in recs)
    n = store.n
    total = sum(f_by_color[c] * m for c, m in counts.items())
    colors = list(counts)
    sq = barycenter_sq_norms([f_by_color[c] for c in colors], total, n)
    return dict(zip(colors, sq))


def _profile(store: ColorStore, norms: dict[int, Scalar], c2: int) -> tuple:
    """The sorted multiset {(d(x,y)^2, |y|^2) : y in S} of iteration-2 color c2."""
    _, recs = store.interner.payload(c2, KIND_NODE1)
    return tuple(sorted((store.value_of(did), norms[c1]) for did, c1 in recs))


def profiles_from_chi2(store: ColorStore) -> dict[int, tuple]:
    """Map each iteration-2 point color to {(d(x,y)^2, |y|^2) : y in S}."""
    if store.ell != 1 or store.iterations < 2:
        raise ValueError("need a single-point history with at least two iterations")
    norms = norms_from_chi1(store)
    return {c2: _profile(store, norms, c2) for c2 in set(store.tables[2])}


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


def init2d(store: ColorStore) -> InitData2D:
    """Extract pivot data from a 3-iteration single-point history.

    The pivot u is any point with positive norm; v minimizes the angle at
    the barycenter over 0 < angle < pi (compared on cosines, exactly in
    rational mode), with ties broken by color digest.  When no such v exists
    the cloud is collinear with the barycenter and the fallback (0, M_u, M_u)
    applies.
    """
    if store.ell != 1 or store.iterations < 3:
        raise ValueError("need a single-point history with at least three iterations")
    if store.n < 2:
        raise ValueError("initialization needs at least two points")
    norms = norms_from_chi1(store)
    digests = store.interner.digests

    def chi1_of_chi2(c2: int) -> int:
        return store.interner.payload(c2, KIND_NODE1)[0]

    def chi2_of_chi3(c3: int) -> int:
        return store.interner.payload(c3, KIND_NODE1)[0]

    # pick u: positive norm, canonical by digest
    candidates = sorted(set(store.tables[3]), key=lambda c: digests[c])
    u_color = None
    for c3 in candidates:
        if norms[chi1_of_chi2(chi2_of_chi3(c3))] > 0:
            u_color = c3
            break
    if u_color is None:
        raise InconsistentDataError("no point with positive barycenter distance")
    nu2 = norms[chi1_of_chi2(chi2_of_chi3(u_color))]
    m_u = _profile(store, norms, chi2_of_chi3(u_color))

    _, recs = store.interner.payload(u_color, KIND_NODE1)
    best = None  # (q, N, tiebreak, d2, c2_y)
    for did, c2_y in recs:
        d2 = store.value_of(did)
        ny2 = norms[chi1_of_chi2(c2_y)]
        if ny2 == 0:
            continue  # angle defined as 0
        q = nu2 + ny2 - d2
        N = nu2 * ny2
        if not q * q < 4 * N:
            continue  # angle is 0 or pi
        tiebreak = (digests[c2_y], did)
        if (best is None or _cos_greater(q, N, best[0], best[1])
                or (not _cos_greater(best[0], best[1], q, N) and tiebreak < best[2])):
            best = (q, N, tiebreak, d2, c2_y)
    if best is None:
        return InitData2D(d0_sq=0 if is_exact(nu2) else 0.0, m_u=m_u, m_v=m_u)
    return InitData2D(d0_sq=best[3], m_u=m_u, m_v=_profile(store, norms, best[4]))


class AngularIntervals:
    """Union of closed angular intervals on [0, 2*pi), merged and normalized."""

    def __init__(self, intervals=()):
        self._spans: list[tuple[float, float]] = []
        for lo, hi in intervals:
            self.add(lo, hi)

    def add(self, lo: float, hi: float) -> None:
        width = hi - lo
        if width < 0:
            raise ValueError("interval width must be non-negative")
        if width >= TWO_PI:
            self._spans = [(0.0, TWO_PI)]
            return
        lo %= TWO_PI
        hi = lo + width
        pieces = [(lo, min(hi, TWO_PI))]
        if hi > TWO_PI:
            pieces.append((0.0, hi - TWO_PI))
        spans = self._spans + pieces
        spans.sort()
        merged = [spans[0]]
        for s in spans[1:]:
            if s[0] <= merged[-1][1] + 1e-15:
                merged[-1] = (merged[-1][0], max(merged[-1][1], s[1]))
            else:
                merged.append(s)
        # wraparound join
        if len(merged) > 1 and merged[0][0] <= 0.0 + 1e-15 and merged[-1][1] >= TWO_PI - 1e-15:
            merged[0] = (0.0, merged[0][1])
            merged[-1] = (merged[-1][0], TWO_PI)
        self._spans = merged

    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self._spans)

    def covers_circle(self, tol: float = 1e-12) -> bool:
        return self.measure() >= TWO_PI - tol

    def depth(self, theta):
        """Signed containment depth: positive inside, negative is distance to the set.

        theta is an angle or an array of angles; the result has its shape.
        """
        if not self._spans:
            return np.full(np.shape(theta), -np.inf)
        t = np.mod(theta, TWO_PI)[..., None, None] + _SHIFTS  # (..., 1, 3)
        spans = np.array(self._spans)
        lo, hi = spans[:, :1], spans[:, 1:]  # (k, 1), against (..., k, 3)
        return np.minimum(t - lo, hi - t).max(axis=(-2, -1))

    def kinds(self, theta, tol: float):
        """Index into KINDS of each angle's kind: its depth against tol."""
        d = self.depth(theta)
        return np.where(d > tol, 2, np.where(d >= -tol, 1, 0))

    def classify(self, theta: float, tol: float) -> str:
        return KINDS[self.kinds(theta, tol)]

    def reflected(self, axis_angle: float) -> "AngularIntervals":
        """Image under the reflection theta -> 2*axis_angle - theta."""
        out = AngularIntervals()
        for lo, hi in self._spans:
            out.add((2 * axis_angle - hi) % TWO_PI, (2 * axis_angle - hi) % TWO_PI + (hi - lo))
        return out

    def union(self, other: "AngularIntervals") -> None:
        for lo, hi in other._spans:
            self.add(lo, hi)

    def spans(self) -> tuple[tuple[float, float], ...]:
        return tuple(self._spans)


@dataclass
class PlanarReconstruction:
    cloud: PointCloud
    rounds: int
    round_bound: int
    alpha: float | None


# which mirror candidate to take, by the KINDS indices of (first, second):
# the one opposite a forbidden one; -1 while unresolved, -2 if both are forbidden
_PICK = np.array([[-1, 0, 0],
                  [1, -1, 0],
                  [1, 1, -2]])


def reconstruct2d(init: InitData2D, tol: float = DEFAULT_TOL) -> PlanarReconstruction:
    """Rebuild a planar cloud, barycenter at the origin, from pivot data.

    Follows the candidate-elimination schedule.  After the pivots, one
    `geometry.sweep` per pivot multiset over an empty forbidden region places
    the points on the two pivot lines; each round then sweeps both multisets
    with the current region and reflects it through both pivot lines,
    widening it by the pivot angle per side.  Terminates within
    ceil(1 + pi/alpha) rounds.

    Each entry's mirror candidates and their angles are computed once.  The
    choose() of a sweep is a pure function of the entry while the region is
    fixed, so a round first classifies every remaining entry of a multiset
    in one array pass and skips that multiset's sweep when no entry
    resolves: the sweep would place nothing.  The skipped rounds still count
    and still grow the region, so points, placement order, `rounds` and
    `round_bound` are those of sweeping every round.
    """
    m_u = [(float(a), float(b)) for a, b in init.m_u]
    m_v = [(float(a), float(b)) for a, b in init.m_v]
    n = len(m_u)
    d0sq = float(init.d0_sq)

    zero_u = [e for e in m_u if abs(e[0]) <= tol]
    if len(zero_u) != 1:
        raise InconsistentDataError("pivot multiset must contain exactly one zero-distance entry")
    ru2 = zero_u[0][1]
    if ru2 <= tol:
        raise InconsistentDataError("pivot u must not sit at the barycenter")
    ru = math.sqrt(ru2)

    if d0sq <= tol:
        # collinear: every point sits on the line through the barycenter and u
        pts = []
        for d2, n2 in m_u:
            x = (ru2 + n2 - d2) / (2 * ru)
            if abs(x * x - n2) > tol * max(1.0, n2) * 1000:
                raise InconsistentDataError("collinear entry is off the pivot line")
            pts.append((x, 0.0))
        return PlanarReconstruction(cloud=_cloud2d(pts), rounds=0, round_bound=0, alpha=None)

    zero_v = [e for e in m_v if abs(e[0]) <= tol]
    if len(zero_v) != 1:
        raise InconsistentDataError("pivot multiset must contain exactly one zero-distance entry")
    rv2 = zero_v[0][1]
    if rv2 <= tol:
        raise InconsistentDataError("pivot v must not sit at the barycenter")
    rv = math.sqrt(rv2)

    u = (ru, 0.0)
    xv = (ru2 + rv2 - d0sq) / (2 * ru)
    yv2 = rv2 - xv * xv
    if yv2 <= tol * max(1.0, rv2):
        raise InconsistentDataError("pivots are collinear with the barycenter but d0 > 0")
    v = (xv, math.sqrt(yv2))
    alpha = math.atan2(v[1], v[0])

    placed: list[tuple[float, float]] = []

    def place(p: tuple[float, float]) -> None:
        n2 = p[0] * p[0] + p[1] * p[1]
        du2 = (p[0] - u[0]) ** 2 + (p[1] - u[1]) ** 2
        dv2 = (p[0] - v[0]) ** 2 + (p[1] - v[1]) ** 2
        remove_nearest(m_u, (du2, n2), tol * max(1.0, du2, n2) * 1000)
        remove_nearest(m_v, (dv2, n2), tol * max(1.0, dv2, n2) * 1000)
        placed.append(p)

    place(u)
    place(v)

    def u_candidates(d2, n2):
        x = (ru2 + n2 - d2) / (2 * ru)
        h2 = n2 - x * x
        if h2 <= tol * max(1.0, n2):
            return [(x, 0.0)]
        h = math.sqrt(h2)
        return [(x, h), (x, -h)]

    vx, vy = v[0] / rv, v[1] / rv

    def v_candidates(d2, n2):
        x = (rv2 + n2 - d2) / (2 * rv)
        h2 = n2 - x * x
        if h2 <= tol * max(1.0, n2):
            return [(x * vx, x * vy)]
        h = math.sqrt(h2)
        return [(x * vx - h * vy, x * vy + h * vx), (x * vx + h * vy, x * vy - h * vx)]

    ang_tol = max(tol, 1e-12) * 10

    def resolver(entries: list, cands_of):
        """for_round(region): choose() for a sweep of entries over region, or
        None when no entry resolves there."""
        cands = {e: cands_of(*e) for e in entries}
        angles = {e: (math.atan2(c[0][1], c[0][0]), math.atan2(c[-1][1], c[-1][0]))
                  for e, c in cands.items()}
        count, theta, single = -1, None, None  # arrays over the remaining entries

        def for_round(forbidden: AngularIntervals):
            nonlocal count, theta, single
            if not entries:
                return None
            if count != len(entries):  # entries are only ever removed
                count = len(entries)
                theta = np.array([angles[e] for e in entries])
                single = np.array([len(cands[e]) == 1 for e in entries])
            kinds = forbidden.kinds(theta, ang_tol)
            pick = np.where(single, 0, _PICK[kinds[:, 0], kinds[:, 1]])
            if not (pick != -1).any():
                return None
            verdict = dict(zip(entries, pick.tolist()))

            def choose(entry):
                i = verdict[entry]
                if i == -2:
                    raise ReconstructionError("both mirror candidates are forbidden")
                return cands[entry][i] if i >= 0 else None
            return choose

        return for_round

    u_round = resolver(m_u, u_candidates)
    v_round = resolver(m_v, v_candidates)

    def sweep_both(forbidden: AngularIntervals) -> None:
        # choose is pure while the region is fixed: a multiset none of whose
        # entries resolves at the start of the round places nothing in it
        for entries, for_round in ((m_u, u_round), (m_v, v_round)):
            choose = for_round(forbidden)
            if choose is not None:
                sweep(entries, choose, place)

    # points on the pivot lines have a unique candidate; nothing is forbidden yet
    sweep_both(AngularIntervals())

    forbidden = AngularIntervals([(0.0, alpha)])
    round_bound = math.ceil(1.0 + math.pi / alpha)
    rounds = 0

    while m_u or m_v:
        sweep_both(forbidden)
        if not m_u and not m_v:
            break
        grown = AngularIntervals(forbidden.spans())
        grown.union(forbidden.reflected(0.0))
        grown.union(forbidden.reflected(alpha))
        forbidden = grown
        rounds += 1
        if rounds > round_bound:
            raise ReconstructionError(
                f"unresolved points after the round bound {round_bound}")

    if len(placed) != n:
        raise InconsistentDataError("placement count does not match multiset size")
    return PlanarReconstruction(cloud=_cloud2d(placed), rounds=rounds,
                                round_bound=round_bound, alpha=alpha)


def _cloud2d(points) -> PointCloud:
    return PointCloud(dim=2, points=tuple((float(x), float(y)) for x, y in points))


def reconstruct_planar(store: ColorStore, tol: float = DEFAULT_TOL) -> ReconstructionReport:
    """End-to-end planar path: pivot extraction plus reconstruction.

    The counters are the elimination rounds, their bound and the pivot
    angle alpha (None for collinear clouds).  Single-point clouds
    short-circuit to the origin.
    """
    if store.n == 1:
        res = PlanarReconstruction(cloud=_cloud2d([(0.0, 0.0)]), rounds=0,
                                   round_bound=0, alpha=None)
    else:
        res = reconstruct2d(init2d(store), tol=tol)
    counters = {"rounds": res.rounds, "round_bound": res.round_bound, "alpha": res.alpha}
    return ReconstructionReport(res.cloud, "wl2d", counters)
