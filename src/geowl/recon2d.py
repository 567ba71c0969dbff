"""Planar reconstruction from a 3-iteration single-point coloring history.

Pipeline: the first iteration's distance multisets give every point's squared
distance to the barycenter; the second pairs those norms with distances from
each point; the third lets us pick a pivot pair (u, v) spanning a minimal
positive angle at the barycenter, whose cone is then guaranteed free of cloud
points.  Reconstruction places u on a fixed ray, v by circle intersection,
resolves points on the two pivot lines, and then eliminates mirror candidates
round by round while the known-empty angular region grows by the pivot angle
on each side.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .config import DEFAULT_TOL
from .errors import InconsistentDataError, ReconstructionError
from .geometry import (PointCloud, Scalar, barycenter_sq_norms, is_exact, remove_nearest,
                       sweep)
from .report import ReconstructionReport
from .wl import KIND_NODE1, ColorStore

TWO_PI = 2.0 * math.pi


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


def profiles_from_chi2(store: ColorStore) -> dict[int, tuple]:
    """Map each iteration-2 point color to {(d(x,y)^2, |y|^2) : y in S}."""
    if store.ell != 1 or store.iterations < 2:
        raise ValueError("need a single-point history with at least two iterations")
    norms = norms_from_chi1(store)
    out = {}
    for cid in set(store.tables[2]):
        _, recs = store.interner.payload(cid, KIND_NODE1)
        entries = sorted((store.value_of(did), norms[c1]) for did, c1 in recs)
        out[cid] = tuple(entries)
    return out


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
    profiles = profiles_from_chi2(store)
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
    m_u = profiles[chi2_of_chi3(u_color)]

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
    return InitData2D(d0_sq=best[3], m_u=m_u, m_v=profiles[best[4]])


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

    def depth(self, theta: float) -> float:
        """Signed containment depth: positive inside, negative is distance to the set."""
        theta %= TWO_PI
        best = -float("inf")
        for lo, hi in self._spans:
            for shift in (-TWO_PI, 0.0, TWO_PI):
                t = theta + shift
                best = max(best, min(t - lo, hi - t))
        return best

    def classify(self, theta: float, tol: float) -> str:
        d = self.depth(theta)
        if d > tol:
            return "in"
        if d >= -tol:
            return "boundary"
        return "out"

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


def reconstruct2d(init: InitData2D, tol: float = DEFAULT_TOL) -> PlanarReconstruction:
    """Rebuild a planar cloud, barycenter at the origin, from pivot data.

    Follows the candidate-elimination schedule.  After the pivots, one
    `geometry.sweep` per pivot multiset over an empty forbidden region places
    the points on the two pivot lines; each round then sweeps both multisets
    with the current region and reflects it through both pivot lines,
    widening it by the pivot angle per side.  Terminates within
    ceil(1 + pi/alpha) rounds.
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

    def chooser(cands_of, forbidden: AngularIntervals):
        def choose(entry):
            cands = cands_of(*entry)
            if len(cands) == 1:
                return cands[0]
            c1, c2 = cands
            k1 = forbidden.classify(math.atan2(c1[1], c1[0]), ang_tol)
            k2 = forbidden.classify(math.atan2(c2[1], c2[0]), ang_tol)
            if k1 == "in" and k2 == "in":
                raise ReconstructionError("both mirror candidates are forbidden")
            if k1 == "in" or (k1 == "boundary" and k2 == "out"):
                return c2
            if k2 == "in" or (k2 == "boundary" and k1 == "out"):
                return c1
            return None
        return choose

    # points on the pivot lines have a unique candidate; nothing is forbidden yet
    sweep(m_u, chooser(u_candidates, AngularIntervals()), place)
    sweep(m_v, chooser(v_candidates, AngularIntervals()), place)

    forbidden = AngularIntervals([(0.0, alpha)])
    round_bound = math.ceil(1.0 + math.pi / alpha)
    rounds = 0

    while m_u or m_v:
        sweep(m_u, chooser(u_candidates, forbidden), place)
        sweep(m_v, chooser(v_candidates, forbidden), place)
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
