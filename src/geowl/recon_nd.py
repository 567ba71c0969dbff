"""Reconstruction in dimension d >= 3 from a 3-iteration (d-1)-tuple coloring.

The extraction chain mirrors the information content of the color history:
iteration 1 of the coloring determines, for every tuple, the squared
distances of its components to the barycenter; iteration 2 determines the
distance profile of the barycenter-extended tuple; iteration 3 assembles,
for every tuple and every cloud point, an enhanced profile: the full squared
distance matrix of (barycenter, x_1, ..., x_d) together with the d profiles
obtained by substituting the barycenter into each slot.

Reconstruction embeds the selected enhanced profile's anchors with the
barycenter at the origin and either trilaterates everything inside a proper
affine subspace (degenerate clouds) or runs forbidden-region elimination:
points on the anchor hyperplanes are placed first, a slab width epsilon is
derived from the doubled candidate set, and rounds resolve any entry whose
mirror candidate falls in the region grown by reflecting through the anchor
hyperplanes, with a potential-function bound on the depth.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import (DEFAULT_MAX_DEPTH, DEFAULT_SELECT_SAMPLES, DEFAULT_TOL,
                     DEFAULT_VERIFY_SNAP)
from .errors import InconsistentDataError, NotRealizableError, ReconstructionError
from .geometry import (ConeSpec, Hyperplane, PointCloud, SquaredDistanceMatrix,
                       _float_rank, anchor_embed, barycenter_sq_norms, gram_affine_dim,
                       mirror_pair, remove_nearest, solid_angle_mc, sq_dist, sweep,
                       trilaterate)
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
        per_slot = []
        # slot 0 distances live in the (1,0) entry of the slot-1 substitution
        per_slot.append(tuple(sorted(val(payload(r[1], KIND_MAT)[1][m]) for r in recs)))
        for j in range(1, m):
            per_slot.append(tuple(sorted(val(payload(r[0], KIND_MAT)[1][j]) for r in recs)))
        slot_dists[c1] = per_slot
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
    out = {}
    for c1 in counts:
        f_values = [sum(ds) for ds in slot_dists[c1]]
        out[c1] = tuple(barycenter_sq_norms(f_values, total, n))
    return out


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

    def __post_init__(self):
        d = self.a.order - 1
        if len(self.profiles) != d:
            raise ValueError("need one substituted profile per anchor slot")

    def dimension(self, tol: float = DEFAULT_TOL) -> int:
        return gram_affine_dim(self.a, tol)

    def sort_key(self):
        fa = tuple(tuple(float(x) for x in row) for row in self.a.entries)
        fp = tuple(tuple(tuple(float(x) for x in e) for e in p) for p in self.profiles)
        return (fa, fp)


def enhanced_profiles_from_wl3(store: ColorStore) -> dict[EnhancedProfile, int]:
    """Multiset of enhanced profiles over all d-tuples, keyed with multiplicities."""
    m = store.ell
    if m < 2 or store.iterations < 3:
        raise ValueError("need a tuple history (ell >= 2) with at least three iterations")
    bary = barycenter_dists_from_wl1(store)
    prof = profiles_from_wl2(store)
    val = store.value_of
    payload = store.interner.payload
    result: Counter = Counter()
    for c3, count in Counter(store.tables[3]).items():
        c2x, recs3 = payload(c3, KIND_NODE)
        c1x = payload(c2x, KIND_NODE)[0]
        matx = payload(payload(c1x, KIND_NODE)[0], KIND_MAT)[1]
        bary_x = bary[c1x]
        profile_x = prof[c2x]
        last_profile = tuple(sorted((*e[1:], e[0]) for e in profile_x))
        for rec in recs3:
            c1_0 = payload(rec[0], KIND_NODE)[0]
            c1_1 = payload(rec[1], KIND_NODE)[0]
            mat0 = payload(payload(c1_0, KIND_NODE)[0], KIND_MAT)[1]
            mat1 = payload(payload(c1_1, KIND_NODE)[0], KIND_MAT)[1]
            d_y_x = [val(mat1[m])] + [val(mat0[j]) for j in range(1, m)]
            d_y_b = bary[c1_0][0]
            size = m + 2
            A = [[0] * size for _ in range(size)]
            for j in range(m):
                A[0][1 + j] = A[1 + j][0] = bary_x[j]
            A[0][m + 1] = A[m + 1][0] = d_y_b
            for i in range(m):
                for j in range(m):
                    if i != j:
                        A[1 + i][1 + j] = val(matx[i * m + j])
            for j in range(m):
                A[1 + j][m + 1] = A[m + 1][1 + j] = d_y_x[j]
            profiles = []
            for i in range(m):
                src = prof[rec[i]]
                remapped = []
                for e in src:
                    out = [None] * (m + 1)
                    for j in range(m):
                        out[j] = e[0] if j == i else e[1 + j]
                    out[m] = e[1 + i]
                    remapped.append(tuple(out))
                profiles.append(tuple(sorted(remapped)))
            profiles.append(last_profile)
            ep = EnhancedProfile(
                a=SquaredDistanceMatrix(order=size, entries=tuple(map(tuple, A))),
                profiles=tuple(profiles))
            result[ep] += count
    return dict(result)


def _embed_anchors(ep: EnhancedProfile, tol: float) -> np.ndarray:
    d = ep.a.order - 1
    pts = anchor_embed(ep.a, d, tol)
    return pts[1:]  # barycenter row sits at the origin


def select_cone_tuple(eps, tol: float = DEFAULT_TOL, samples: int = DEFAULT_SELECT_SAMPLES,
                      seed: int = 0) -> list[EnhancedProfile]:
    """Order enhanced profiles for reconstruction attempts.

    Degenerate clouds: any profile of maximal dimension works, so one is
    returned.  Full-dimensional clouds: all d-dimensional profiles, sorted by
    a common-seed Monte Carlo estimate of the anchor cone's solid angle; the
    true minimizer satisfies the cone condition, and estimation error is
    absorbed by the caller's verify-and-fallback loop.  Cones whose generators
    fail the float rank check are skipped; if none remain, ReconstructionError.
    """
    eps = list(eps)
    if not eps:
        raise ValueError("no enhanced profiles given")
    d = eps[0].a.order - 1
    dims = {ep: ep.dimension(tol) for ep in eps}
    maxdim = max(dims.values())
    if maxdim < d:
        best = sorted((ep for ep in eps if dims[ep] == maxdim),
                      key=EnhancedProfile.sort_key)
        return [best[0]]
    cands = [ep for ep in eps if dims[ep] == d]
    scored = []
    for ep in cands:
        zs = _embed_anchors(ep, tol)
        try:
            cone = ConeSpec(generators=tuple(map(tuple, zs)))
        except ValueError:
            continue  # exactly full-dimensional, but too thin for the float rank check
        scored.append((solid_angle_mc(cone, samples, seed), ep.sort_key(), ep))
    if not scored:
        raise ReconstructionError("every full-dimensional anchor cone is numerically singular")
    scored.sort(key=lambda s: (s[0], s[1]))
    return [s[2] for s in scored]


def reconstruct_lowdim(ep: EnhancedProfile, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Trilaterate every cloud point inside a proper affine subspace.

    Applies when the anchors span less than the ambient dimension: some slot
    can be dropped without losing span, and the profile with the barycenter
    in that slot determines every point uniquely.
    """
    d = ep.a.order - 1
    zs = _embed_anchors(ep, tol)
    k = _float_rank(zs, tol)
    drop = None
    for i in range(d):
        others = np.delete(zs, i, axis=0)
        if _float_rank(others, tol) == k:
            drop = i
            break
    if drop is None:
        raise ReconstructionError("no droppable anchor slot in the degenerate case")
    anchors = zs.copy()
    anchors[drop] = 0.0
    points = [trilaterate(anchors, entry, tol) for entry in ep.profiles[drop]]
    return np.array(points)


class ForbiddenRegion:
    """The growing region certified free of unplaced points.

    Depth 0 is the anchor cone united with an epsilon-slab around the anchor
    hyperplanes; depth k+1 adds every single reflection of the depth-k region
    through the anchor hyperplanes.  Membership is evaluated recursively with
    memoization on (quantized point, depth): explicit geometry for the
    exponentially many reflected cones is not tractable.  The inner math is
    plain tuple arithmetic; the recursion visits millions of tiny vectors.
    """

    def __init__(self, cone: ConeSpec, epsilon: float,
                 hyperplanes: tuple[Hyperplane, ...], tol: float = DEFAULT_TOL):
        self.cone = cone
        self.epsilon = float(epsilon)
        self.hyperplanes = hyperplanes
        self.tol = tol
        self._zinv = tuple(tuple(float(v) for v in row)
                           for row in np.linalg.inv(cone.matrix()))
        self._planes = tuple((tuple(float(c) for c in h.normal), float(h.offset))
                             for h in hyperplanes)
        self._quant = 1.0 / max(tol, 1e-12)
        self._memo: dict = {}

    def rho(self, x) -> float:
        x = tuple(float(c) for c in x)
        return min(abs(sum(n[i] * x[i] for i in range(len(x))) - off)
                   for n, off in self._planes)

    def base_contains(self, x) -> bool:
        x = tuple(float(c) for c in x)
        lam = [sum(row[i] * x[i] for i in range(len(x))) for row in self._zinv]
        cut = -self.tol * max(1.0, max(abs(v) for v in lam))
        if min(lam) >= cut:
            return True
        return self.rho(x) < self.epsilon

    def membership(self, x, depth: int) -> bool:
        return self._member(tuple(float(c) for c in x), depth)

    def _member(self, x: tuple, depth: int) -> bool:
        q = self._quant
        key = (tuple(round(c * q) for c in x), depth)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.base_contains(x):
            self._memo[key] = True
            return True
        if depth == 0:
            self._memo[key] = False
            return False
        rng = range(len(x))
        result = False
        for n, off in self._planes:
            shift = 2.0 * (sum(n[i] * x[i] for i in rng) - off)
            if self._member(tuple(x[i] - shift * n[i] for i in rng), depth - 1):
                result = True
                break
        self._memo[key] = result
        return result


@dataclass
class FulldimResult:
    points: np.ndarray
    depth: int
    gamma_bound: int
    epsilon: float | None


def reconstruct_fulldim(ep: EnhancedProfile, tol: float = DEFAULT_TOL,
                        max_depth: int = DEFAULT_MAX_DEPTH) -> FulldimResult:
    """Forbidden-region elimination for full-dimensional anchor tuples.

    Phase 1 places every point lying on an anchor hyperplane (single mirror
    candidate).  Phase 2 derives the slab width from the doubled candidate
    set; each round then places the entries with exactly one mirror
    candidate in the current region and deepens the region.  Both phases
    are `geometry.sweep` calls over each profile.  The depth is bounded by
    the potential argument: each useful reflection raises sum_i <x, z_i> by
    at least c*epsilon with c twice the smallest anchor-to-hyperplane
    distance.
    """
    d = ep.a.order - 1
    zs = _embed_anchors(ep, tol)
    if _float_rank(zs, tol) != d:
        raise ReconstructionError("anchors are not full-dimensional")
    scale = max(1.0, float(np.max(np.abs(zs))))
    plane_tol = tol * scale * 1000

    anchor_sets = []
    hyperplanes = []
    for i in range(d):
        anchors = zs.copy()
        anchors[i] = 0.0
        anchor_sets.append(anchors)
        hyperplanes.append(Hyperplane.from_points(anchors, tol=tol, toward=zs[i]))
    profiles = [[tuple(float(v) for v in e) for e in p] for p in ep.profiles]
    placed: list[np.ndarray] = []

    cand_cache: list[dict] = [{} for _ in range(d)]

    def candidates_for(i: int, entry) -> list:
        cands = cand_cache[i].get(entry)
        if cands is None:
            cands = mirror_pair(anchor_sets[i], entry, tol)
            cand_cache[i][entry] = cands
        return cands

    def place(p: np.ndarray) -> None:
        for j in range(d):
            target = tuple(float(sq_dist(p, a)) for a in anchor_sets[j])
            remove_nearest(profiles[j], target, plane_tol * 100)
        placed.append(p)

    def chooser(i: int, member):
        def choose(entry):
            cands = candidates_for(i, entry)
            if len(cands) == 1:
                return cands[0]
            m_plus, m_minus = member(cands[0]), member(cands[1])
            if m_plus and m_minus:
                raise ReconstructionError("both mirror candidates fall in the forbidden region")
            if m_plus:
                return cands[1]
            if m_minus:
                return cands[0]
            return None
        return choose

    # phase 1: hyperplane residents have a unique candidate
    for i in range(d):
        sweep(profiles[i], chooser(i, lambda c: False), place)

    if not any(profiles):
        return FulldimResult(points=np.array(placed), depth=0, gamma_bound=0,
                             epsilon=None)

    # phase 2: epsilon from the doubled candidate set of the first profile
    region_normals = np.array([h.normal for h in hyperplanes])

    def rho(x) -> float:
        return float(np.min(np.abs(region_normals @ x)))

    all_cands = []
    for entry in profiles[0]:
        all_cands.extend(candidates_for(0, entry))
    clearances = [rho(c) for c in all_cands if rho(c) > plane_tol]
    if not clearances:
        raise InconsistentDataError("all remaining candidates sit on anchor hyperplanes")
    epsilon = min(clearances) / 2.0

    cone = ConeSpec(generators=tuple(map(tuple, zs)))
    region = ForbiddenRegion(cone, epsilon, tuple(hyperplanes), tol=tol)

    cand_norm = max(float(np.linalg.norm(c)) for c in all_cands)
    sum_z = float(sum(np.linalg.norm(z) for z in zs))
    c_const = 2.0 * min(abs(float(np.dot(zs[i], hyperplanes[i].normal)))
                        for i in range(d))
    gamma_bound = math.ceil(cand_norm * sum_z / (c_const * epsilon)) + 1
    depth_cap = min(max_depth, gamma_bound)

    depth = 0
    while any(profiles):
        for i in range(d):
            sweep(profiles[i], chooser(i, lambda c: region.membership(c, depth)), place)
        if not any(profiles):
            break
        depth += 1
        if depth > depth_cap:
            raise ReconstructionError(
                f"unresolved points at the depth bound (cap {depth_cap})")
    return FulldimResult(points=np.array(placed), depth=depth,
                         gamma_bound=gamma_bound, epsilon=epsilon)


def reconstruct_nd(store: ColorStore, tol: float = DEFAULT_TOL,
                   samples: int = DEFAULT_SELECT_SAMPLES, seed: int = 0,
                   max_depth: int = DEFAULT_MAX_DEPTH,
                   verify_snap: float = DEFAULT_VERIFY_SNAP) -> ReconstructionReport:
    """Full pipeline: extract enhanced profiles, try candidates, verify by fingerprint.

    Candidates are attempted in estimated-angle order; a candidate is
    accepted when rerunning the coloring on the reconstruction (in snapped
    float mode, against the input distances snapped the same way) reproduces
    the input fingerprint, which certifies isometry.  Only a cloud that
    passes this certificate is returned; when none does, ReconstructionError.
    """
    if store.ell < 2:
        raise ValueError("reconstruct_nd needs a tuple history with ell >= 2")
    d = store.ell + 1
    n = store.n
    if n == 1:
        cloud = PointCloud(dim=d, points=(tuple([0.0] * d),))
        return ReconstructionReport(cloud=cloud, method="nd-trivial",
                                    counters={"candidates_tried": 0})

    eps = enhanced_profiles_from_wl3(store)
    candidates = select_cone_tuple(eps.keys(), tol=tol, samples=samples, seed=seed)

    verify_interner = Interner("float", verify_snap)
    in_values = [[float(v) for v in row] for row in store.sq_matrix_values()]
    fin = fingerprint(run_wl_from_sq_values(
        in_values, store.ell, 3, d, mode="float", snap=verify_snap,
        interner=verify_interner))

    failures: list[str] = []
    for tried, ep in enumerate(candidates, start=1):
        counters = {"candidates_tried": tried, "total_candidates": len(candidates)}
        try:
            if ep.dimension(tol) < d:
                pts = reconstruct_lowdim(ep, tol)
                method = "nd-lowdim"
            else:
                res = reconstruct_fulldim(ep, tol, max_depth=max_depth)
                pts = res.points
                method = "nd-fulldim"
                counters.update(depth=res.depth, gamma_bound=res.gamma_bound,
                                epsilon=res.epsilon)
            drift = float(np.linalg.norm(pts.mean(axis=0)))
            if drift > 1e-6 * max(1.0, float(np.max(np.abs(pts)))):
                raise ReconstructionError(f"barycenter drift {drift:.3e}")
            cloud = PointCloud.from_array(pts)
        except (ReconstructionError, InconsistentDataError, NotRealizableError,
                ValueError) as exc:
            failures.append(f"candidate {tried}: {exc}")
            continue
        fr = fingerprint(run_wl(cloud, store.ell, 3, mode="float",
                                snap=verify_snap, interner=verify_interner))
        if compare(fin, fr) == "equal":
            return ReconstructionReport(cloud=cloud, method=method, counters=counters)
        failures.append(f"candidate {tried}: fingerprint mismatch")
    raise ReconstructionError(
        "all enhanced-profile candidates exhausted; "
        + ("; ".join(failures[:5]) if failures else "no candidates"))
