"""Planar reconstruction from a 3-iteration single-point coloring history.

Pipeline: the first iteration's distance multisets give every point's squared
distance to the barycenter (by `wl._History`, as in `recon_nd`); the second
pairs those norms with distances from each point; the third picks a pivot
pair (u, v) spanning a minimal positive angle at the barycenter, whose cone
is then guaranteed free of cloud points.  Colors are read through
`ColorStore`'s readers.  Reconstruction places u on a fixed ray, v by circle
intersection, resolves points on the two pivot lines, and then eliminates
mirror candidates round by round while the known-empty angular region grows
by the pivot angle on each side.  That region is the arc
[-k*alpha, (k+1)*alpha] after k rounds, so a candidate's depth in it is a
closed form in its cached angle.  Most rounds place nothing; they cost one
array test of those depths, and only a round in which some entry resolves
runs the sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import InconsistentDataError, ReconstructionError
from .geometry import PointCloud, Scalar, is_exact, remove_nearest, sweep
from .report import ReconstructionReport
from .wl import ColorStore, _History


def norms_from_chi1(store: ColorStore) -> dict[int, Scalar]:
    """Map each iteration-1 point color to its squared distance to the barycenter.

    A view of `wl._History`, which applies the barycenter identity to the
    colors' distance sums: exact stores over one integer denominator, float
    stores in record order.
    """
    if store.ell != 1 or store.iterations < 1:
        raise ValueError("need a single-point history with at least one iteration")
    return {c: norm for c, (norm,) in _History(store, 1).norms.items()}


def _profile(store: ColorStore, norms: dict[int, Scalar], c2: int) -> tuple:
    """The sorted multiset {(d(x,y)^2, |y|^2) : y in S} of iteration-2 color c2."""
    recs = store.nodes([c2])[1][0].tolist()
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


def init2d(store: ColorStore, tol: float = DEFAULT_TOL) -> InitData2D:
    """Extract pivot data from a 3-iteration single-point history.

    The pivot u is the first point by color digest that is off the
    barycenter by `reconstruct2d`'s own test (norm above tol); v minimizes
    the angle at the barycenter over 0 < angle < pi (compared on cosines,
    exactly in rational mode), with ties broken by color digest.  A partner
    within tol of the u-line, by the test that makes it a u-line resident in
    `reconstruct2d`, is no candidate for v.  When no v exists the cloud is
    collinear with the barycenter and the fallback (0, M_u, M_u) applies.
    """
    if store.ell != 1 or store.iterations < 3:
        raise ValueError("need a single-point history with at least three iterations")
    if store.n < 2:
        raise ValueError("initialization needs at least two points")
    norms = norms_from_chi1(store)
    digests = store.interner.digests
    c2s = list(set(store.tables[2]))
    c3s = sorted(set(store.tables[3]), key=digests.__getitem__)
    chi1_of_chi2 = dict(zip(c2s, store.nodes(c2s)[0].tolist()))
    chi2_of_chi3 = dict(zip(c3s, store.nodes(c3s)[0].tolist()))

    # pick u: off the barycenter by reconstruct2d's test, canonical by digest
    u_color = None
    for c3 in c3s:
        if float(norms[chi1_of_chi2[chi2_of_chi3[c3]]]) > tol:
            u_color = c3
            break
    if u_color is None:
        raise InconsistentDataError("no point off the barycenter")
    nu2 = norms[chi1_of_chi2[chi2_of_chi3[u_color]]]
    m_u = _profile(store, norms, chi2_of_chi3[u_color])

    best = None  # (q, N, tiebreak, d2, c2_y)
    for did, c2_y in store.nodes([u_color])[1][0].tolist():
        d2 = store.value_of(did)
        ny2 = norms[chi1_of_chi2[c2_y]]
        if ny2 == 0:
            continue  # angle defined as 0
        q = nu2 + ny2 - d2
        N = nu2 * ny2
        # the partner's squared height over the u-line is (4N - q^2) / (4|u|^2)
        if 4 * N - q * q <= 4 * nu2 * tol * max(1, ny2):
            continue  # angle is 0 or pi, up to tol
        tiebreak = (digests[c2_y], did)
        if (best is None or _cos_greater(q, N, best[0], best[1])
                or (not _cos_greater(best[0], best[1], q, N) and tiebreak < best[2])):
            best = (q, N, tiebreak, d2, c2_y)
    if best is None:
        return InitData2D(d0_sq=0 if is_exact(nu2) else 0.0, m_u=m_u, m_v=m_u)
    return InitData2D(d0_sq=best[3], m_u=m_u, m_v=_profile(store, norms, best[4]))


@dataclass
class PlanarReconstruction:
    cloud: PointCloud
    rounds: int
    round_bound: int
    alpha: float | None


# which mirror candidate to take, by the kinds (0 out, 1 boundary, 2 in) of the
# two: the one opposite a forbidden one; -1 while unresolved, -2 if both are in
_PICK = np.array([[-1, 0, 0],
                  [1, -1, 0],
                  [1, 1, -2]])


def reconstruct2d(init: InitData2D, tol: float = DEFAULT_TOL) -> PlanarReconstruction:
    """Rebuild a planar cloud, barycenter at the origin, from pivot data.

    Follows the candidate-elimination schedule.  After the pivots, one
    `geometry.sweep` per pivot multiset with nothing forbidden places the
    points on the two pivot lines; round k then sweeps both multisets with
    the arc [-k*alpha, (k+1)*alpha] forbidden, the pivot cone [0, alpha]
    widened by the pivot angle per side and round.  Terminates within
    ceil(1 + pi/alpha) rounds.

    Each entry's mirror candidates and their angular distances from alpha/2
    are computed once.  The choose() of a sweep is a pure function of the
    entry while the region is fixed, so a round first classifies every
    remaining entry of a multiset in one array pass and skips that
    multiset's sweep when no entry resolves: the sweep would place nothing.
    The skipped rounds still count, so points, placement order, `rounds` and
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

    # Reflecting through the pivot lines maps theta to -theta and 2*alpha - theta,
    # so round k forbids the arc [-k*alpha, (k+1)*alpha]: a candidate at angular
    # distance delta from alpha/2 lies at depth (2k+1)*alpha/2 - delta in it.  A
    # union of spans on [0, 2*pi) splits at angle 0 once the arc wraps and reads
    # depth ~0 there, but no two-sided candidate is left there after round 0: a
    # point on the u-line is placed with the pivot lines, and a v-candidate at
    # angle 0 is on the edge of [0, alpha] with its mirror at 2*alpha outside it.
    def off_axis(c) -> float:
        return abs(math.remainder(math.atan2(c[1], c[0]) - alpha / 2, math.tau))

    def resolver(entries: list, cands_of):
        """for_round(half_width): choose() for a sweep of entries with the arc
        of that half-width about alpha/2 forbidden, or None when no entry
        resolves there."""
        cands = {e: cands_of(*e) for e in entries}
        deltas = {e: (off_axis(c[0]), off_axis(c[-1])) for e, c in cands.items()}
        count, delta, single = -1, None, None  # arrays over the remaining entries

        def for_round(half_width: float):
            nonlocal count, delta, single
            if not entries:
                return None
            if count != len(entries):  # entries are only ever removed
                count = len(entries)
                delta = np.array([deltas[e] for e in entries])
                single = np.array([len(cands[e]) == 1 for e in entries])
            depth = half_width - delta
            kinds = np.where(depth > ang_tol, 2, np.where(depth >= -ang_tol, 1, 0))
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

    def sweep_both(half_width: float) -> None:
        # choose is pure while the region is fixed: a multiset none of whose
        # entries resolves at the start of the round places nothing in it
        for entries, for_round in ((m_u, u_round), (m_v, v_round)):
            choose = for_round(half_width)
            if choose is not None:
                sweep(entries, choose, place)

    # points on the pivot lines have a unique candidate; nothing is forbidden yet
    sweep_both(-math.inf)

    round_bound = math.ceil(1.0 + math.pi / alpha)
    rounds = 0

    while m_u or m_v:
        sweep_both((2 * rounds + 1) * alpha / 2)
        if not m_u and not m_v:
            break
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
        res = reconstruct2d(init2d(store, tol), tol=tol)
    counters = {"rounds": res.rounds, "round_bound": res.round_bound, "alpha": res.alpha}
    return ReconstructionReport(res.cloud, "wl2d", counters)
