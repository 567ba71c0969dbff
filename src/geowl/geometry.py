"""Euclidean primitives over exact-rational or float coordinates.

All distances are kept *squared* throughout the library: squaring is a
monotone bijection on non-negative reals, so multiset equality, sorting and
refinement behave exactly as with true distances, while rational inputs stay
rational.  Square roots appear only inside the float-mode solvers
(embedding, trilateration, mirror pairs, reflections).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOL
from .errors import InconsistentDataError, NotRealizableError

Scalar = Fraction | int | float
Point = tuple[Scalar, ...]


def is_exact(value) -> bool:
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


def sq_dist(p: Sequence[Scalar], q: Sequence[Scalar]) -> Scalar:
    """Squared Euclidean distance; exact when both points are rational."""
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return sum((a - b) * (a - b) for a, b in zip(p, q))


@dataclass(frozen=True)
class PointCloud:
    """A finite set of pairwise-distinct points in R^dim.

    Coordinates are either all `Fraction` (exact mode) or plain floats.
    Duplicate points are rejected at construction: the cloud is a set.
    """

    dim: int
    points: tuple[Point, ...]
    label: str | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not self.points:
            raise ValueError("a point cloud must contain at least one point")
        pts = tuple(tuple(c for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        for p in pts:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points are not allowed")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def exact(self) -> bool:
        return all(is_exact(c) for p in self.points for c in p)

    def as_array(self) -> np.ndarray:
        return np.array([[float(c) for c in p] for p in self.points], dtype=float)

    @staticmethod
    def from_array(arr: np.ndarray, label: str | None = None) -> "PointCloud":
        pts = tuple(tuple(float(c) for c in row) for row in np.asarray(arr, dtype=float))
        return PointCloud(dim=len(pts[0]), points=pts, label=label)


@dataclass(frozen=True)
class SquaredDistanceMatrix:
    """Symmetric zero-diagonal matrix of squared distances of a point tuple."""

    order: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.order:
            raise ValueError("entry row count does not match order")
        for i, row in enumerate(self.entries):
            if len(row) != self.order:
                raise ValueError("entries must form a square matrix")
            if row[i] != 0:
                raise ValueError("diagonal must be zero")
        for i in range(self.order):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("entries must be symmetric")
                if float(self.entries[i][j]) < 0:
                    raise ValueError("squared distances must be non-negative")

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries], dtype=float)


def squared_distance_matrix(points: Sequence[Sequence[Scalar]]) -> SquaredDistanceMatrix:
    k = len(points)
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            row.append(0 if i == j else sq_dist(points[i], points[j]))
        rows.append(tuple(row))
    return SquaredDistanceMatrix(order=k, entries=tuple(rows))


def barycenter(cloud: PointCloud) -> Point:
    """Arithmetic mean of the cloud's points; exact for rational coordinates."""
    n = cloud.n
    acc = list(cloud.points[0])
    for p in cloud.points[1:]:
        for i, c in enumerate(p):
            acc[i] = acc[i] + c
    if all(is_exact(c) for c in acc):
        return tuple(Fraction(c, n) for c in acc)
    return tuple(c / n for c in acc)


def barycenter_sq_norms(f_values: Sequence[Scalar], total: Scalar, n: int,
                        tol: float = DEFAULT_TOL) -> list[Scalar]:
    """Squared distances to the barycenter from per-point sums of squared distances.

    Given f(x) = sum_y ||x-y||^2 for each x and the grand total sum_y f(y),
    returns (f(x) - total/(2n)) / n per point.  Exact in rational mode.
    A result below -tol signals inconsistent input.
    """
    out = []
    for f in f_values:
        if is_exact(f) and is_exact(total):
            v = Fraction(f - Fraction(total, 2 * n), n)
        else:
            v = (f - total / (2 * n)) / n
        if float(v) < -tol * max(1.0, abs(float(total))):
            raise InconsistentDataError(
                f"negative squared barycenter distance {float(v)} from f-values")
        if not is_exact(v) and v < 0:
            v = 0.0
        out.append(v)
    return out


def remove_nearest(entries: list, target: Sequence[float], limit: float) -> None:
    """Remove the entry closest to target in the max norm.

    Raises InconsistentDataError when no entry lies within limit; limit 0
    asks for an exactly equal entry.
    """
    if limit == 0:
        if tuple(target) in entries:
            entries.remove(tuple(target))
            return
        raise InconsistentDataError(f"no multiset entry equals {target}")
    best_i, best_err = -1, float("inf")
    for i, e in enumerate(entries):
        err = max(abs(a - b) for a, b in zip(e, target))
        if err < best_err:
            best_i, best_err = i, err
    if best_i < 0 or best_err > limit:
        raise InconsistentDataError(
            f"no multiset entry matches {target} (best error {best_err:.3e})")
    entries.pop(best_i)


def sweep(entries: list, choose: Callable, place: Callable) -> None:
    """Place entries one at a time until no entry has a position.

    choose(entry) returns a position, or None while the entry is unresolved;
    the first position found goes to place, which removes entries from the
    list, so the scan then restarts from the front.  choose must be a pure
    function of the entry for the whole call (the caller's forbidden region
    is fixed meanwhile): an entry unresolved once stays unresolved, so a
    caller that finds no entry resolving may skip the call, which would
    place nothing.
    """
    while True:
        for entry in entries:
            p = choose(entry)
            if p is not None:
                place(p)
                break
        else:
            return


def _eliminate(rows: list[list]) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination over the rationals, without division.

    Rows are scaled to integers; a pivot row clears its column from every
    other row by an integer combination, divided by the gcd of its entries.
    Returns the rows, the i-th a multiple of the i-th row of the reduced row
    echelon form, and the pivot columns: the first column basis.
    """
    m = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[p], m[r] = m[r], m[p]
        top = m[r]
        for i, row in enumerate(m):
            if i != r and row[c]:
                row = [top[c] * a - row[c] * b for a, b in zip(row, top)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


def _exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals."""
    return len(_eliminate(rows)[1])


def _float_rank(mat: np.ndarray, tol: float, sv: np.ndarray | None = None):
    """Numerical rank of a matrix, or of each of a stack: the singular values
    (`sv` if already known) above tol * max(1, the largest) * the longer side."""
    if sv is None:
        sv = np.linalg.svd(mat, compute_uv=False)
    above = sv > tol * np.maximum(1.0, sv[..., :1]) * max(mat.shape[-2:])
    return int(np.count_nonzero(above)) if mat.ndim == 2 else above.sum(-1)


def affine_dim(points: Sequence[Sequence[Scalar]], tol: float = DEFAULT_TOL) -> int:
    """Dimension of the affine span; exact when all coordinates are rational."""
    if not points:
        raise ValueError("affine_dim of an empty point list")
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    if not diffs:
        return 0
    if all(is_exact(c) for row in diffs for c in row):
        return _exact_rank(diffs)
    return _float_rank(np.array([[float(c) for c in row] for row in diffs]), tol)


def _gram(a: np.ndarray) -> np.ndarray:
    """Gram matrices <z_j, z_k> of z_j = x_j - x_0 from (stacked) squared-distance
    matrices of (x_0, x_1, ..., x_k); exact for object arrays."""
    half = Fraction(1, 2) if a.dtype == object else 0.5
    return (a[..., :1, 1:] + a[..., 1:, :1] - a[..., 1:, 1:]) * half


def gram_affine_dim(A: SquaredDistanceMatrix, tol: float = DEFAULT_TOL) -> int:
    """Affine dimension of any point tuple realizing A, from A alone.

    Uses the Gram matrix G_ij = (A_0i + A_0j - A_ij)/2 of differences to the
    first point; exact when A is rational.  The matrices here are 1x1 to 3x3,
    one per scanned `oneshot` color, where building them entry by entry is
    cheaper than `_gram` on numpy object arrays.
    """
    k = A.order
    if k == 1:
        return 0
    e = A.entries
    rows = []
    exact = all(is_exact(x) for row in e for x in row)
    for i in range(1, k):
        row = []
        for j in range(1, k):
            v = e[0][i] + e[0][j] - e[i][j]
            row.append(Fraction(v, 2) if exact else v / 2.0)
        rows.append(row)
    if exact:
        return _exact_rank(rows)
    return _float_rank(np.array(rows, dtype=float), tol)


def anchor_embed(A: SquaredDistanceMatrix, dim: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a realizable squared-distance matrix into R^dim.

    The first point goes to the origin and successive points are oriented
    into the first available coordinate axes by pivoted orthogonalization,
    so the output is a deterministic representative of the congruence class.
    Raises NotRealizableError when the matrix needs more than `dim`
    dimensions or is not a Euclidean distance matrix.
    """
    k = A.order
    M = A.as_array()
    scale = max(1.0, float(M.max(initial=0.0)))
    gtol = tol * scale * k
    # Gram matrix of differences to point 0, whose own row is 0.
    G = np.zeros((k, k))
    G[1:, 1:] = _gram(M)
    coords = np.zeros((k, dim))
    pivots: list[int] = []
    for i in range(1, k):
        x = np.zeros(len(pivots))
        for m, p in enumerate(pivots):
            x[m] = (G[i, p] - coords[i, :m] @ coords[p, :m]) / coords[p, m]
            coords[i, m] = x[m]
        resid = G[i, i] - float(coords[i, : len(pivots)] @ coords[i, : len(pivots)])
        if resid > gtol:
            if len(pivots) == dim:
                raise NotRealizableError(
                    f"distance matrix requires more than {dim} dimensions")
            coords[i, len(pivots)] = math.sqrt(resid)
            pivots.append(i)
        elif resid < -gtol:
            raise NotRealizableError(
                f"negative residual {resid} while embedding distance matrix")
    # Cross terms between non-pivot rows are not enforced by the elimination,
    # so validate the full round trip.
    diff = coords @ coords.T
    sq = np.diag(diff)[:, None] + np.diag(diff)[None, :] - 2 * diff
    if float(np.max(np.abs(sq - M))) > max(gtol, 1e-7 * scale):
        raise NotRealizableError("distance matrix is not realizable in Euclidean space")
    return coords


def _span_basis(anchors: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the anchors' affine span directions (via SVD)."""
    base = anchors[0]
    V = anchors[1:] - base
    if V.shape[0] == 0:
        return base, np.zeros((anchors.shape[1], 0))
    u, s, vt = np.linalg.svd(V, full_matrices=True)
    return base, vt[:_float_rank(V, tol, s)].T


def trilaterate(anchors: Sequence[Sequence[Scalar]], sq_dists: Sequence[Scalar],
                tol: float = DEFAULT_TOL) -> np.ndarray:
    """The unique point of the anchors' affine span at the given squared distances.

    Solves the linear system <x - a_0, a_i - a_0> = (r_0^2 + |a_i - a_0|^2 - r_i^2)/2
    restricted to the span.  Raises InconsistentDataError when no point of the
    span realizes the distances within tolerance.
    """
    if len(anchors) != len(sq_dists):
        raise ValueError("need one squared distance per anchor")
    P = np.array([[float(c) for c in a] for a in anchors], dtype=float)
    r2 = np.array([float(v) for v in sq_dists], dtype=float)
    base, B = _span_basis(P, tol)
    scale = max(1.0, float(np.max(r2, initial=0.0)), float(np.max(np.abs(P))))
    t = _in_plane(P, base, B, r2[None, :])[0]
    x = base if B.shape[1] == 0 else base + B @ t
    err = np.abs(np.sum((x - P) ** 2, axis=1) - r2)
    if float(np.max(err)) > tol * scale * 100:
        raise InconsistentDataError(
            f"trilateration residual {float(np.max(err)):.3e} exceeds tolerance")
    return x


def _in_plane(P: np.ndarray, base: np.ndarray, B: np.ndarray, R2: np.ndarray):
    """Span coordinates of the foot point for each row of squared distances R2.

    Row i of the result solves <x - a_0, a_j - a_0> = (r_0^2 + |a_j - a_0|^2 - r_j^2)/2
    in the basis B, by one least-squares solve with a right-hand side per row.
    """
    if B.shape[1] == 0:
        return np.zeros((R2.shape[0], 0))
    V = P[1:] - base
    rhs = (R2[:, :1] + np.sum(V * V, axis=1) - R2[:, 1:]) / 2.0
    t, *_ = np.linalg.lstsq(V @ B, rhs.T, rcond=None)
    return t.T


def _hyperplane_basis(P: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """`_span_basis` of anchors that must span a hyperplane."""
    base, B = _span_basis(P, tol)
    if B.shape[1] != P.shape[1] - 1:
        raise ValueError("anchors must have affine dimension exactly d-1")
    return base, B


def _unit_normal(B: np.ndarray) -> np.ndarray:
    """Unit normal of the hyperplane whose directions are the d-1 columns of B."""
    return np.linalg.svd(B.T, full_matrices=True)[2][-1]


def _plane_heights(P: np.ndarray, R2: np.ndarray, tol: float):
    """Span coordinates and squared heights over a hyperplane of anchors.

    P holds d float anchors spanning a hyperplane, R2 one row of squared
    distances to them per point.  Returns the span base and basis, each row's
    span coordinates T and squared out-of-plane height h2, whether the row
    is a span resident (h2 at most the limit tol * scale * 100), and the
    per-row scale.  All rows share one span basis and one least-squares
    solve, and each row rounds as a one-row call does.  Raises
    InconsistentDataError when some h2 lies below minus the limit.
    """
    base, B = _hyperplane_basis(P, tol)
    scale = R2.max(axis=1, initial=max(1.0, float(np.abs(P).max())))
    limit = tol * scale * 100
    # contiguous rows and per-row matmuls round like the one-row t @ t and B @ t;
    # strided rows, a row sum or one T @ B.T differ in the last bits for d >= 3
    T = np.ascontiguousarray(_in_plane(P, base, B, R2))
    h2 = R2[:, 0] - (T[:, None, :] @ T[:, :, None])[:, 0, 0]
    if (h2 < -limit).any():
        raise InconsistentDataError(
            f"negative out-of-plane component {float(h2[h2 < -limit][0]):.3e}: "
            "distances are unrealizable")
    return base, B, T, h2, h2 <= limit, scale


def _mirror_rows(anchors: Sequence[Sequence[Scalar]],
                 sq_tuples: Sequence[Sequence[Scalar]], tol: float):
    """Batched `mirror_pair`.

    Returns, per distance tuple, the foot point on the anchors' span, the
    points lifted off the span by the out-of-plane height along the normal
    and against it, and whether the tuple is a span resident (height 0).
    Raises InconsistentDataError when any tuple is unrealizable.
    """
    P = np.array([[float(c) for c in a] for a in anchors], dtype=float)
    R2 = np.array(sq_tuples, dtype=float)
    base, B, T, h2, resident, scale = _plane_heights(P, R2, tol)
    feet = base + (B[None] @ T[:, :, None])[:, :, 0]
    if resident.all():
        up = down = feet
    else:
        lift = np.sqrt(np.where(resident, 0.0, h2))[:, None] * _unit_normal(B)
        up, down = feet + lift, feet - lift
    worst = np.abs(((up[:, None, :] - P) ** 2).sum(axis=2) - R2).max(axis=1)
    if (worst > tol * scale * 1000).any():
        raise InconsistentDataError(
            f"mirror-pair residual {float(worst.max()):.3e} exceeds tolerance")
    return feet, up, down, resident


def mirror_pair(anchors: Sequence[Sequence[Scalar]], sq_dists: Sequence[Scalar],
                tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """The at-most-two points realizing squared distances to a (d-1)-dimensional
    anchor set.

    A tuple whose solution lies on the anchors' span (the out-of-plane
    component is below tolerance, and is snapped to zero) gets one point,
    any other tuple the two mirror images across the span.
    """
    feet, up, down, resident = _mirror_rows(anchors, [sq_dists], tol)
    return [feet[0]] if resident[0] else [up[0], down[0]]


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane <normal, x> = offset."""

    normal: tuple[float, ...]
    offset: float

    def __post_init__(self):
        nrm = math.sqrt(sum(c * c for c in self.normal))
        if not math.isclose(nrm, 1.0, abs_tol=1e-6):
            raise ValueError("normal must have unit norm")

    @staticmethod
    def from_points(points: Sequence[Sequence[float]], tol: float = DEFAULT_TOL,
                    toward: Sequence[float] | None = None) -> "Hyperplane":
        """Hyperplane through points whose affine span has dimension d-1.

        When `toward` is given, the normal is oriented so that point lies on
        the positive side.
        """
        P = np.array([[float(c) for c in p] for p in points], dtype=float)
        base, B = _span_basis(P, tol)
        d = P.shape[1]
        if B.shape[1] != d - 1:
            raise ValueError("points do not span a hyperplane")
        normal = _unit_normal(B)
        if toward is not None:
            side = float(normal @ (np.asarray(toward, dtype=float) - base))
            if side < 0:
                normal = -normal
        elif normal[np.argmax(np.abs(normal))] < 0:
            normal = -normal
        offset = float(normal @ base)
        return Hyperplane(normal=tuple(float(c) for c in normal), offset=offset)

    def signed_distance(self, p: Sequence[float]) -> float:
        return float(np.dot(self.normal, np.asarray(p, dtype=float)) - self.offset)


def reflect(p: Sequence[float], h: Hyperplane) -> np.ndarray:
    """Mirror image of p across h."""
    x = np.asarray(p, dtype=float)
    n = np.asarray(h.normal, dtype=float)
    return x - 2.0 * (float(x @ n) - h.offset) * n


@dataclass(frozen=True)
class ConeSpec:
    """Simple cone at the origin spanned by d linearly independent generators."""

    generators: tuple[tuple[float, ...], ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        Z = self.matrix()
        d = Z.shape[0]
        if Z.shape != (d, d):
            raise ValueError("need exactly d generators of dimension d")
        if _float_rank(Z, self.tol) != d:
            raise ValueError("cone generators are not linearly independent")

    def matrix(self) -> np.ndarray:
        """Generator matrix with generators as columns."""
        return np.array([[float(c) for c in g] for g in self.generators], dtype=float).T

    @property
    def dim(self) -> int:
        return len(self.generators[0])


def cone_coefficients(cone: ConeSpec, x: Sequence[float],
                      tol: float = DEFAULT_TOL) -> tuple[np.ndarray, str]:
    """Coefficients of x over the cone generators plus an interior/boundary/outside verdict."""
    Z = cone.matrix()
    lam = np.linalg.solve(Z, np.asarray(x, dtype=float))
    scale = max(1.0, float(np.max(np.abs(lam))))
    if bool(np.all(lam > tol * scale)):
        cls = "interior"
    elif bool(np.all(lam >= -tol * scale)):
        cls = "boundary"
    else:
        cls = "outside"
    return lam, cls


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def solid_angle_mc(cone: ConeSpec, samples: int, seed: int) -> float:
    """Monte Carlo estimate of (1/d) * Vol{x in cone : |x| <= 1}.

    Samples uniformly from the unit ball; only the (uniform) direction of a
    sample decides cone membership, so the radial coordinate cancels and is
    not drawn.  Deterministic for a fixed seed.
    """
    d = cone.dim
    Zinv = np.linalg.inv(cone.matrix())
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 1 << 18)
        g = rng.standard_normal((chunk, d))
        lam = g @ Zinv.T
        hits += int(np.count_nonzero(np.all(lam >= 0.0, axis=1)))
        remaining -= chunk
    return hits / samples * unit_ball_volume(d) / d
