"""Euclidean primitives over exact-rational or float coordinates.

All distances are kept *squared* throughout the library: squaring is a
monotone bijection on non-negative reals, so multiset equality, sorting and
refinement behave exactly as with true distances, while rational inputs stay
rational.  Square roots appear only inside the float-mode solvers
(embedding, trilateration, mirror pairs, reflections).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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


def _over_tol(tol: float, exact: bool) -> Callable[[Scalar, Scalar, Scalar], bool]:
    """The tolerance rule's test value / den > tol * max(f, scale), den > 0: exactly on
    integers (f = 0), with tol = a / b; as that float expression on floats (f = 1)."""
    if not exact:
        return lambda value, den, scale: value / den > tol * max(1, scale)
    a, b = Fraction(tol).as_integer_ratio()
    return lambda value, den, scale: value * b > a * den * max(0, scale)


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


def exact_sq_numerators(points: Sequence[Sequence[Scalar]]) -> tuple[np.ndarray, int]:
    """Squared distances of rational points as an n x n integer matrix S over D^2,
    D the common denominator.  Each S is at most d (2 max |x|)^2 over the scaled
    coordinates x: the sums run in int64 when that bound fits, else over
    Python ints."""
    den = math.lcm(*(c.denominator for p in points for c in p))
    cols = [[c.numerator * (den // c.denominator) for c in col] for col in zip(*points)]
    big = max(abs(x) for col in cols for x in col)
    dtype = np.int64 if len(cols) * (2 * big) ** 2 < 2 ** 63 else object
    sq = sum((a[:, None] - a[None, :]) ** 2 for a in (np.array(c, dtype=dtype) for c in cols))
    return sq, den * den


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


class Entries:
    """A profile's unplaced entries in list order, a taken one marked dead."""

    def __init__(self, entries: Sequence[tuple]):
        self._items: list[tuple | None] = list(entries)  # None once taken
        # sorted on the first coordinate, ties in list order; a NaN there matches no target
        self._pos = sorted((i for i, e in enumerate(self._items) if e[0] == e[0]),
                           key=lambda i: self._items[i][0])
        self._keys = [self._items[i][0] for i in self._pos]

    def __len__(self) -> int:
        return len(self._items) - self._items.count(None)

    def live(self) -> list[tuple[int, tuple]]:
        return [(i, e) for i, e in enumerate(self._items) if e is not None]

    def taken(self, i: int) -> bool:
        return self._items[i] is None

    def take(self, target: Sequence[Scalar], limit: float) -> None:
        """Remove the live entry nearest target in the max norm (the first on ties); raise
        InconsistentDataError if none lies within limit.  Limit 0 asks for an equal entry."""
        t0, key = target[0], tuple(target)
        if limit:  # wide enough that no entry within limit drops out by rounding at the edge
            w = 2 * limit + abs(t0) * 2.0 ** -50
            lo, hi = t0 - w, t0 + w
        else:  # no arithmetic on t0: a float 0.0 would turn an exact bound into a float
            lo = hi = t0
        best_err, best_i, best_j = math.inf, -1, -1
        for j in range(bisect_left(self._keys, lo), bisect_right(self._keys, hi)):
            i = self._pos[j]
            if limit:  # max counts a NaN error in the first coordinate only
                err = max(abs(a - b) for a, b in zip(self._items[i], key))
            else:  # an equal entry, found with no (Fraction) subtraction
                err = 0 if self._items[i] == key else math.inf
            if (err, i) < (best_err, best_i):
                best_err, best_i, best_j = err, i, j
        if best_j < 0 or best_err > limit:
            if limit == 0:
                raise InconsistentDataError(f"no multiset entry equals {target}")
            errs = (max(abs(a - b) for a, b in zip(e, key)) for _, e in self.live())
            best = min((err for err in errs if err < math.inf), default=math.inf)
            raise InconsistentDataError(
                f"no multiset entry matches {target} (best error {best:.3e})")
        del self._pos[best_j], self._keys[best_j]
        self._items[best_i] = None

    def sweep(self, choose: Callable, place: Callable) -> None:
        """One pass in list order: while an entry is live and choose(entry) gives a position,
        place it (place takes entries, not always the chosen one).  choose must be pure while
        the pass runs (the caller's forbidden region is fixed), so the pass places what a
        scan restarting from the front after every placement would, in the same order."""
        for i in range(len(self._items)):
            while (e := self._items[i]) is not None and (p := choose(e)) is not None:
                place(p)


def _eliminate(rows: list[list]) -> tuple[list[int], int, list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of a rational matrix,
    each row first scaled to integers by the lcm of its denominators.

    Column by column, the first row at or below row k with a nonzero entry
    becomes row k, whose entry is the pivot p_k (a column with none is
    skipped), and every other row r goes to (p_k r - r_c row_k) / p_(k-1),
    p_0 = 1.  Each division is exact, as every entry is a minor of the
    scaled matrix.  Returns the pivot columns (the first column basis), the
    sign of the row permutation and the rows.  For [M | I], M square and
    nonsingular, the rows end as [p I | X] with p = sign det(M) and
    X = sign adj(M).
    """
    m = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(len(m[0]) if m else 0):
        k = len(pivots)
        p = next((i for i in range(k, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != k:
            m[p], m[k], sign = m[k], m[p], -sign
        top, piv = m[k], m[k][c]
        for i, row in enumerate(m):
            if i != k:
                f = row[c]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = piv
        if len(pivots) == len(m):
            break
    return pivots, sign, m


def _exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals."""
    return len(_eliminate(rows)[0])


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


def _gram2(a: np.ndarray) -> np.ndarray:
    """Twice the Gram matrices <z_j, z_k> of z_j = x_j - x_0 from (stacked)
    squared-distance matrices of (x_0, x_1, ..., x_k): integers for integer entries."""
    return a[..., :1, 1:] + a[..., 1:, :1] - a[..., 1:, 1:]


def _gram(a: np.ndarray) -> np.ndarray:
    """The Gram matrices of `_gram2`; exact for object arrays."""
    return _gram2(a) * (Fraction(1, 2) if a.dtype == object else 0.5)


def gram_affine_dim(A: SquaredDistanceMatrix, tol: float = DEFAULT_TOL) -> int:
    """Affine dimension of any point tuple realizing A, from A alone: the rank of
    the Gram matrix `_gram(A)` of differences to the first point; exact when A is
    rational."""
    exact = all(is_exact(x) for row in A.entries for x in row)
    G = _gram(np.array(A.entries, dtype=object if exact else float))
    return _exact_rank(G.tolist()) if exact else _float_rank(G, tol)


def gram_ranks(ids: np.ndarray, floats: np.ndarray, tol: float = DEFAULT_TOL,
               exact: Callable | None = None):
    """The float Gram stack of the squared-distance matrices floats[ids] and each
    one's rank, its tuple's affine dimension: `_float_rank`, or with `exact`
    (ids -> Fractions) exact, where a float determinant of G / max|G_ij| above
    1e-8 is nonzero, as rounding perturbs it by orders of magnitude less."""
    G = _gram(floats[ids])
    if exact is None:
        return G, _float_rank(G, tol)
    top = np.abs(G).max(axis=(-2, -1), initial=0.0)
    det = np.linalg.det(G / np.where(top > 0, top, 1.0)[..., None, None])
    rank = np.full(len(G), G.shape[-1])
    for k in np.flatnonzero(~(np.abs(det) > 1e-8)).tolist():
        rank[k] = _exact_rank(_gram(exact(ids[k])).tolist())
    return G, rank


def gram_basis(G: np.ndarray, tol: float = DEFAULT_TOL) -> list[int]:
    """The greedy basis of anchors z_j of Gram matrix G: each j that raises the rank
    of the ones kept; for an object array, G's pivot columns, which are that basis."""
    if G.dtype == object:
        return _eliminate(G.tolist())[0]
    basis: list[int] = []
    for j in range(len(G)):
        basis += [j] if _float_rank(G[np.ix_(basis + [j], basis + [j])], tol) > len(basis) else []
    return basis


def ldl(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = L D L^T, without pivoting, for a symmetric matrix or a stack of them
    (leading axes), in G's arithmetic: L unit lower triangular and D its diagonal."""
    m = G.shape[-1]
    L, D = np.zeros_like(G) + np.eye(m, dtype=G.dtype), np.zeros(G.shape[:-1], dtype=G.dtype)
    for k in range(m):
        D[..., k] = G[..., k, k] - (L[..., k, :k] ** 2 * D[..., :k]).sum(-1)
        L[..., k + 1:, k] = (G[..., k + 1:, k] - (L[..., k + 1:, :k] * L[..., k, None, :k]
                                                  * D[..., None, :k]).sum(-1)) / D[..., k, None]
    return L, D


def gram_points(G: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Float points x = sum_j lambda_j z_j (a row of lams each) over anchors of Gram
    matrix G, in `anchor_embed`'s frame: x = (lambda L) sqrt(D), G = L D L^T by
    `ldl` in G's arithmetic over the anchors used, so only lambda L and sqrt(D)
    are rounded (a negative float D is clamped to 0).  Exact D_j and column j of
    lambda L are first scaled by 4^-k_j and 2^k_j, D_j / 4^k_j near 1: both factors
    then round in the float range, and a product of normal floats keeps its bits."""
    used, m = np.flatnonzero((lams != 0).any(0)), len(G)
    L, D = np.eye(len(used), m, dtype=G.dtype), np.zeros(m, dtype=G.dtype)
    L[:, :len(used)], D[:len(used)] = ldl(G[np.ix_(used, used)])
    y = lams[:, used] @ L
    if G.dtype == object:
        k = [(p.bit_length() - q.bit_length()) // 2 if p > 0 else 0
             for p, q in (x.as_integer_ratio() for x in D)]
        y, D = y * [Fraction(2) ** j for j in k], D / [Fraction(4) ** j for j in k]
    return y.astype(float) * np.sqrt(np.maximum(D.astype(float), 0.0))


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
        for m, p in enumerate(pivots):
            coords[i, m] = (G[i, p] - coords[i, :m] @ coords[p, :m]) / coords[p, m]
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


def _span_solve(anchors: Sequence[Sequence[Scalar]], sq_dists: Sequence[Scalar], tol: float):
    """The float anchors P and squared distances r2, an orthonormal basis B of the
    anchors' span directions, the span coordinates t of the foot point x, x itself,
    and the scale max(1, max r2, max |P|) of the tolerances.

    t solves <x - a_0, a_j - a_0> = (r_0 + |a_j - a_0|^2 - r_j)/2 in least squares.
    """
    if len(anchors) != len(sq_dists):
        raise ValueError("need one squared distance per anchor")
    P = np.array([[float(c) for c in a] for a in anchors], dtype=float)
    r2 = np.array([float(v) for v in sq_dists], dtype=float)
    base, B = _span_basis(P, tol)
    V = P[1:] - base
    t = np.linalg.lstsq(V @ B, (r2[0] + np.sum(V * V, axis=1) - r2[1:]) / 2.0,
                        rcond=None)[0] if B.shape[1] else np.zeros(0)
    scale = max(1.0, float(np.max(r2, initial=0.0)), float(np.max(np.abs(P))))
    return P, r2, B, t, base + B @ t, scale


def trilaterate(anchors: Sequence[Sequence[Scalar]], sq_dists: Sequence[Scalar],
                tol: float = DEFAULT_TOL) -> np.ndarray:
    """The unique point of the anchors' affine span at the given squared distances.

    Raises InconsistentDataError when no point of the span realizes the
    distances within tolerance.
    """
    P, r2, _, _, x, scale = _span_solve(anchors, sq_dists, tol)
    err = float(np.max(np.abs(np.sum((x - P) ** 2, axis=1) - r2)))
    if err > tol * scale * 100:
        raise InconsistentDataError(f"trilateration residual {err:.3e} exceeds tolerance")
    return x


def _unit_normal(B: np.ndarray) -> np.ndarray:
    """Unit normal of the hyperplane whose directions are the d-1 columns of B."""
    return np.linalg.svd(B.T, full_matrices=True)[2][-1]


def mirror_pair(anchors: Sequence[Sequence[Scalar]], sq_dists: Sequence[Scalar],
                tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """The at-most-two points realizing squared distances to a (d-1)-dimensional
    anchor set.

    A tuple whose solution lies on the anchors' span (the squared out-of-plane
    component h^2 = r_0 - |t|^2 is at most tol * scale * 100, and is snapped to
    zero) gets one point, any other tuple the two mirror images across the
    span.  Raises InconsistentDataError when no point realizes the distances.
    """
    P, r2, B, t, foot, scale = _span_solve(anchors, sq_dists, tol)
    if B.shape[1] != P.shape[1] - 1:
        raise ValueError("anchors must have affine dimension exactly d-1")
    h2, limit = r2[0] - float(t @ t), tol * scale * 100
    if h2 < -limit:
        raise InconsistentDataError(
            f"negative out-of-plane component {h2:.3e}: distances are unrealizable")
    if h2 <= limit:
        out = [foot]
    else:
        lift = math.sqrt(h2) * _unit_normal(B)
        out = [foot + lift, foot - lift]
    worst = float(np.max(np.abs(np.sum((out[0] - P) ** 2, axis=1) - r2)))
    if worst > tol * scale * 1000:
        raise InconsistentDataError(f"mirror-pair residual {worst:.3e} exceeds tolerance")
    return out


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
