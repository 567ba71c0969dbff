"""Iterative coloring of point-cloud tuple spaces and cloud-level fingerprints.

The update rule colors every tuple in S^ell.  At iteration 0 a tuple is
colored by the matrix of squared distances between its components (for
ell = 1 this is a single shared color).  Each refinement pairs the previous
color with the canonical multiset, over all cloud points y, of the colors of
the tuples obtained by substituting y into each position (for ell = 1 the
records are (squared distance, color) pairs instead).

Colors are canonical trees interned to dense integer ids; every interned
color carries a 128-bit content digest computed over a canonical byte
encoding in which children are referenced by their digests.  Equality inside
one interner is decided structurally; digests give a stable cross-run order
and serialization.  Distance payloads are exact rationals in exact mode and
are snapped to a quantization grid before interning in float mode (the
grid is this library's equality surrogate for inexact inputs).

Every source of distances becomes a list of integer keys, and
`Interner.intern_keys` interns each distinct key once, in row-major order of
first occurrence: integers S over D^2 for a rational cloud in exact mode (D
its common denominator; int64 when every S fits), numerators over the lcm of
the `Fraction` denominators for a value matrix or float distances in exact
mode, and grid tokens trunc(v / snap + 0.5) in float mode.  Every value is
checked before the first is interned.  Float distances are summed in the
order of `geometry.sq_dist`, so each keeps all its bits.  At ell >= 2 the
tuple matrices are one gather from the n x n ids, interned as the records of
a refinement are.

A refinement is array work at every ell.  The colors present in the
previous table are ranked by digest and each record list is put in
canonical order by sorting rank tuples: at ell = 1, one packed
(distance value rank, color rank) key per record and one row sort over the
n x n matrix of keys; at ell >= 2, the (n^ell, n, ell) array of record
ranks, built by broadcasting the rank table once per position, and one
lexicographic array sort.  A tuple is interned under the bytes of its
records' ids, so only a new class computes a digest.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_MAX_TUPLES, DEFAULT_TOL
from .errors import CapExceededError, InconsistentDataError, ParameterMismatchError
from .geometry import PointCloud, Scalar, barycenter_sq_norms, exact_sq_numerators

KIND_ZERO = 0   # the shared ell=1 leaf color
KIND_MAT = 1    # ell x ell squared-distance matrix, row-major distance ids
KIND_NODE1 = 2  # (prev color, sorted ((distance id, color id), ...))
KIND_NODE = 3   # (prev color, sorted (ell-tuple of color ids, ...))


def _frame(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def _as_float(key) -> float:
    """The correctly rounded float of a distance key; inf past the float range."""
    try:
        return float(key)
    except OverflowError:
        return math.inf


class _PackedNode(NamedTuple):
    """A payload whose records are still the bytes of their int64 ids, `width` per
    record; its head is a refined color's previous color, or a distance matrix's ell."""

    head: int
    width: int
    rows: bytes


class Interner:
    """Bijection between canonical color structures and dense integer ids.

    Stores run with a fixed arithmetic mode; two clouds colored through the
    same interner get directly comparable ids (and identical ids exactly for
    structurally equal colors).
    """

    def __init__(self, mode: str = "exact", snap: float = DEFAULT_TOL):
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {mode!r}")
        if not 0 < snap < math.inf:  # also rejects NaN
            raise ValueError(f"snap must be positive and finite, got {snap!r}")
        self.mode = mode
        self.snap = float(snap)
        self._index: dict = {}
        self.kinds: list[int] = []
        self._payloads: list = []      # cid -> () for the zero color, else a _PackedNode
        self.digests: list[bytes] = []
        self._dist_index: dict = {}
        self.dist_keys: list = []      # did -> Fraction (exact) or int grid token (float)
        self._dist_frames: list[bytes] = []  # did -> framed canonical bytes of its key
        self._dist_floats: list[float] = []  # did -> float of its key, filled when ranked
        self._dist_rank_cache: tuple = (-1, None)

    # -- distances ---------------------------------------------------------

    def intern_distance(self, value: Scalar) -> int:
        return int(self.intern_values([[value]])[0, 0])

    def intern_values(self, values) -> np.ndarray:
        """Distance ids of a matrix of squared distances, as an int64 array.

        Float keys are grid tokens trunc(v / snap + 0.5), int(v / snap + 0.5)
        for every finite v; exact ones are numerators over the lcm of the
        values' `Fraction` denominators.  Every value is checked before any is
        interned, so a rejected matrix leaves the interner as it was.
        """
        if self.mode == "float":
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    scaled = np.asarray(values, dtype=np.float64) / self.snap + 0.5
                except OverflowError:  # a Fraction or int past the float range
                    scaled = np.array(math.inf)
            if not np.isfinite(scaled).all():
                raise ValueError(f"a squared distance overflows the float grid of "
                                 f"step {self.snap!r}")
            nums, den = np.trunc(scaled).ravel().tolist(), 1
        else:
            try:
                fracs = [v if isinstance(v, Fraction) else Fraction(v)
                         for v in chain.from_iterable(values)]
            except (OverflowError, ValueError):  # Fraction(inf) or Fraction(nan)
                raise ValueError("a squared distance is not a finite number") from None
            den = math.lcm(*(f.denominator for f in fracs))
            nums = [f.numerator * (den // f.denominator) for f in fracs]
        return self.intern_keys(nums, den).reshape(len(values), -1)

    def intern_keys(self, nums: list, den: int = 1) -> np.ndarray:
        """Distance ids, as an int64 array, of integral keys nums[i] over den: the
        `Fraction` num / den in exact mode, the grid token int(num) in float mode
        (den = 1).  Each distinct key is interned once, in order of first
        occurrence, which gives the ids of interning the keys one at a time."""
        exact = self.mode == "exact"
        ids = dict.fromkeys(nums)
        for num in ids:
            key = Fraction(num, den) if exact else int(num)
            did = self._dist_index.get(key)
            if did is None:
                did = self._dist_index[key] = len(self.dist_keys)
                self.dist_keys.append(key)
                self._dist_frames.append(_frame(
                    str(key).encode("ascii") if exact else b"q%d" % key))
            ids[num] = did
        return np.fromiter(map(ids.__getitem__, nums), dtype=np.int64, count=len(nums))

    def dist_value(self, did: int) -> Scalar:
        key = self.dist_keys[did]
        if self.mode == "exact":
            return key
        return key * self.snap

    def distance_ranking(self) -> tuple[np.ndarray, np.ndarray]:
        """Distance ids ranked by value: (rank of each id, id at each rank), int64 arrays.

        Keys are sorted as (float, key) pairs.  The float of a key is
        correctly rounded, so it never reverses two keys, and only keys whose
        floats tie are compared exactly.  The arrays are kept until a new
        distance is interned.
        """
        count = len(self.dist_keys)
        if self._dist_rank_cache[0] != count:
            floats = self._dist_floats
            floats.extend(map(_as_float, self.dist_keys[len(floats):]))
            keys = list(zip(floats, self.dist_keys))
            order = np.array(sorted(range(count), key=keys.__getitem__), dtype=np.int64)
            ranks = np.empty(count, dtype=np.int64)
            ranks[order] = np.arange(count)
            self._dist_rank_cache = (count, (ranks, order))
        return self._dist_rank_cache[1]

    # -- colors ------------------------------------------------------------

    def _add(self, key, kind: int, payload: tuple, enc: bytes) -> int:
        cid = len(self.kinds)
        self._index[key] = cid
        self.kinds.append(kind)
        self._payloads.append(payload)
        self.digests.append(hashlib.blake2b(enc, digest_size=16).digest())
        return cid

    def intern_zero(self) -> int:
        key = (KIND_ZERO,)
        cid = self._index.get(key)
        if cid is None:
            cid = self._add(key, KIND_ZERO, (), b"Z")
        return cid

    def intern_nodes(self, kind: int, tag: bytes, heads: list[int], rows: np.ndarray,
                     encode: Callable[[int, bytes], bytes]) -> list[int]:
        """Intern (heads[t], rows[t]) for every tuple t; return the new table.

        `rows` is a (len(heads), r, width) int64 array of record ids, each
        tuple's records already in canonical order; heads[t] is the tuple's
        previous color, or ell for a distance matrix.  A tuple is looked up
        by the bytes of its row; a new class gets its digest over tag and
        encode(t, row bytes), the canonical bytes of its head and records.
        """
        width = rows.shape[-1]
        step = rows.shape[1] * width * 8
        data = rows.tobytes()
        index = self._index
        table = []
        for t, h in enumerate(heads):
            key = (kind, h, data[t * step:(t + 1) * step])
            cid = index.get(key)
            if cid is None:
                cid = self._add(key, kind, _PackedNode(h, width, key[2]), tag + encode(t, key[2]))
            table.append(cid)
        return table

    def _checked(self, cid: int, kind: int):
        """The stored payload of a color that must be of the given KIND_*."""
        if self.kinds[cid] != kind:
            raise ValueError(f"color {cid} has kind {self.kinds[cid]}, expected {kind}")
        return self._payloads[cid]

    def payload(self, cid: int, kind: int) -> tuple:
        """The payload of a color that must be of the given KIND_*: records as id
        tuples, and a distance matrix as (ell, its row-major ids)."""
        payload = self._checked(cid, kind)
        if not isinstance(payload, _PackedNode):
            return payload
        ids = memoryview(payload.rows).cast("q").tolist()
        if kind == KIND_MAT:
            return payload.head, tuple(ids)
        return payload.head, tuple(zip(*[iter(ids)] * payload.width))


class ColorStore:
    """Color tables of one cloud's tuple space, one table per iteration."""

    def __init__(self, interner: Interner, ell: int, dim: int, dist_array: np.ndarray,
                 label: str | None = None):
        self.interner = interner
        self.ell = ell
        self.n = len(dist_array)
        self.dim = dim
        self.dist_array = dist_array  # (n, n) int64 distance ids
        self.label = label
        self.tables: list[list[int]] = []

    @property
    def iterations(self) -> int:
        return len(self.tables) - 1

    def value_of(self, did: int) -> Scalar:
        return self.interner.dist_value(did)

    @cached_property
    def dist_floats(self) -> np.ndarray:
        """float(value_of(did)) for every distance id up to the cloud's largest."""
        return np.array([float(self.value_of(did)) for did in range(self.dist_array.max() + 1)])

    def class_counts(self) -> list[int]:
        return [len(set(t)) for t in self.tables]

    # -- readers of the color history; the pipelines decode payloads only here --

    def nodes(self, colors: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Previous colors and the (k, n, w) records of k refined colors, as int64 arrays
        read straight from the packed bytes: w = 2 at ell = 1, (distance id,
        color id) pairs, else w = ell, the colors of the tuple with the point in
        each slot.  A color of another kind raises ValueError."""
        kind, width = (KIND_NODE1, 2) if self.ell == 1 else (KIND_NODE, self.ell)
        heads, ids = self._packed(colors, kind)
        return np.array(heads, dtype=np.int64), ids.reshape(len(heads), self.n, width)

    def _packed(self, colors, kind: int) -> tuple[list[int], np.ndarray]:
        """Payload heads and the flat int64 record ids of colors of the given kind."""
        check = self.interner._checked
        packed = [check(c, kind) for c in colors]
        ids = np.frombuffer(b"".join([p.rows for p in packed]), dtype=np.int64)
        return [p.head for p in packed], ids

    def pair_distances(self) -> Counter:
        """Distance id -> number of ordered point pairs at that distance, in order
        of first occurrence: at ell >= 2 the (0, 1) entries of the initial
        colors of the n^2 tuples (x, y, 0, ..., 0), one per ordered pair; at
        ell = 1, whose initial colors are trivial, the records of the first
        refinement."""
        if self.ell == 1:
            if self.iterations < 1:
                raise ValueError("the line case needs one refinement")
            return Counter(self.nodes(self.tables[1])[1][..., 0].ravel().tolist())
        # tuples are in product order, so every n^(ell-2)-th one ends in zeros
        colors = self.tables[0][::self.n ** (self.ell - 2)]
        return Counter(self._packed(colors, KIND_MAT)[1][1::self.ell ** 2].tolist())

    def tuple_distances(self, colors: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Distance ids of k iteration-1 colors: (k, ell, ell) tuple matrices and
        (k, n, ell) records in canonical order, record y holding d(y, x_j) for
        each slot j.  At ell = 1 that is the record's own distance; at ell >= 2,
        d(y, x_0) is the (1, 0) entry of the record's tuple with y in slot 1 and
        d(y, x_j) the (0, j) entry of the one with y in slot 0."""
        prev, recs = self.nodes(colors)
        k, n, m = len(prev), self.n, self.ell
        if m == 1:
            return np.full((k, 1, 1), self.dist_array[0, 0]), recs[..., :1]
        used, at = np.unique(np.concatenate([prev, recs[..., :2].ravel()]), return_inverse=True)
        if any(self.interner.kinds[c] != KIND_MAT for c in used.tolist()):
            raise ValueError("not the colors of a first refinement")
        mats = self._packed(used.tolist(), KIND_MAT)[1].reshape(len(used), m * m)
        pairs = at[k:].reshape(k, n, 2)
        # row-major entry m is (1, 0), entries 1..m-1 are (0, 1)..(0, m-1)
        dists = np.concatenate([mats[pairs[..., 1], m:m + 1], mats[pairs[..., 0], 1:m]], -1)
        return mats[at[:k]].reshape(k, m, m), dists


def _index(colors, wanted: np.ndarray) -> np.ndarray:
    """Positions in `colors` (distinct ints) of every entry of `wanted`."""
    pos = {c: i for i, c in enumerate(colors)}
    return np.array([pos[c] for c in wanted.ravel().tolist()]).reshape(wanted.shape)


def _sorted_rows(e: np.ndarray) -> np.ndarray:
    """(k, n, w) integer array with each of its k blocks' rows sorted lexicographically."""
    k, n, w = e.shape
    flat = e.reshape(k * n, w)
    return flat[np.lexsort((*flat.T[::-1], np.repeat(np.arange(k), n)))].reshape(e.shape)


def _distinct_rows(a: np.ndarray) -> tuple[list[int], np.ndarray]:
    """First position of each distinct row of a 2-D array, in order of appearance,
    and for every row the number of its distinct row in that order."""
    w = a.shape[1] * a.itemsize
    b = np.ascontiguousarray(a).tobytes()
    rows = [b[i:i + w] for i in range(0, len(b), w)]
    first: dict[bytes, int] = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    number = dict(zip(first, range(len(first))))
    return list(first.values()), np.array([number[row] for row in rows])


class _History:
    """Iterations 1 and 2 of a coloring as arrays of value ids.

    The one place where the barycenter identity is applied to whole
    colorings (`oneshot._rows` applies it to a block of tuple colors' sums):
    norms maps each iteration-1 color to each slot's squared barycenter
    distance.  Value ids number the distinct squared distances and norms in
    increasing order, worked out as numerators over S = 2 n^2 Q for an exact
    store, Q the lcm of its distance denominators, which makes every norm
    (f - T/(2n))/n an integer over S too.  A float store keeps its floats and
    lets a norm fall below 0 by its grid step snap, which bounds the error
    snapping can put in a norm, on top of the default bound 1e-9 max(1, |T|),
    T the ordered-pair sum; at ell = 1 a
    point's records come in increasing distance order, so its sum in value
    order is its sum in record order.  Per iteration-1 color c1[k]: mat[k],
    the ids of its tuple's distance matrix, and bary[k], of its norms.  From
    two iterations on (ell >= 2), distances[v] is the value of id v, and per
    iteration-2 color c2[k]: prev2[k], the position of its iteration-1 color,
    and entries[k], its profile, rows sorted.
    """

    def __init__(self, store: ColorStore, iterations: int):
        m, n = store.ell, store.n
        if m < 2 and iterations > 1:
            raise ValueError("profiles need a tuple history (ell >= 2)")
        if store.iterations < iterations:
            raise ValueError(f"need a history of at least {iterations} iteration(s)")
        exact = store.interner.mode == "exact"
        dids = sorted(set(store.dist_array.ravel().tolist()))
        vals = list(map(store.value_of, dids))
        S = 2 * n * n * math.lcm(*(v.denominator for v in vals)) if exact else 1
        nums = [v.numerator * (S // v.denominator) for v in vals] if exact else vals
        dist = sorted(set(nums))  # ids into dist until the barycenter norms join them
        dist_id = {v: i for i, v in enumerate(dist)}
        lut = np.zeros(dids[-1] + 1, dtype=np.int64)  # distance id -> id into dist
        lut[dids] = [dist_id[v] for v in nums]

        counts = Counter(store.tables[1])
        self.c1 = list(counts)
        mats, recs = store.tuple_distances(self.c1)
        # slot j's distances to the points, sorted: one row per (color, slot)
        slots = np.sort(np.swapaxes(lut[recs], 1, 2), -1).reshape(-1, n)
        first, inv = _distinct_rows(slots)
        inv = inv.reshape(len(self.c1), m)
        f = [sum(map(dist.__getitem__, row)) for row in slots[first].tolist()]
        # the cloud-wide multiset of distance multisets is inflated by n^(ell-1)
        multiplier = n ** (m - 1)
        global_counts: Counter = Counter()
        for u, cnt in zip(inv[:, 0].tolist(), counts.values()):
            global_counts[u] += cnt
        total = 0
        for u, cnt in global_counts.items():
            if cnt % multiplier != 0:
                raise InconsistentDataError(
                    f"distance-multiset count {cnt} is not divisible by n^(ell-1)={multiplier}")
            total = total + (cnt // multiplier) * f[u]
        # snapping moves a float norm by at most 0.75 snap: the bound is snap
        # on top of the default DEFAULT_TOL * max(1, |T|)
        extra = 0.0 if exact else store.interner.snap / max(1.0, abs(total))
        norms = barycenter_sq_norms(f, total, n, DEFAULT_TOL + extra)
        norms = [int(v) for v in norms] if exact else norms

        scalars = [Fraction(v, S) for v in norms] if exact else norms
        self.norms = {c: tuple(map(scalars.__getitem__, row))
                      for c, row in zip(self.c1, inv.tolist())}
        values = sorted(set(dist) | set(norms))
        pos = {v: i for i, v in enumerate(values)}
        self.mat = np.array([pos[v] for v in dist])[lut[mats]]
        self.bary = np.array([pos[v] for v in norms])[inv]
        if iterations >= 2:
            self.distances = [Fraction(v, S) for v in values] if exact else values
            self.c2 = list(dict.fromkeys(store.tables[2]))
            prev1, recs = store.nodes(self.c2)
            self.prev2 = _index(self.c1, prev1)
            self.entries = _sorted_rows(self.entry(_index(self.c1, recs)))

    def entry(self, r: np.ndarray) -> np.ndarray:
        """(d(y,b), d(y,x_1), ..., d(y,x_m)) from the iteration-1 positions r[..., :]
        of a record's substituted tuples (y in slot j of r[..., j])."""
        m = r.shape[-1]
        return np.stack([self.bary[r[..., 0], 0], self.mat[r[..., 1], 1, 0]]
                        + [self.mat[r[..., 0], 0, j] for j in range(1, m)], -1)


def _mode_for(cloud: PointCloud, mode: str | None) -> str:
    if mode is not None:
        return mode
    return "exact" if cloud.exact else "float"


def _checked_interner(interner: Interner | None, mode: str, snap: float, n: int,
                      ell: int, max_tuples: int) -> Interner:
    """The run's interner, after the checks that must precede any interning."""
    if interner is None:
        interner = Interner(mode, snap)
    elif interner.mode != mode or (mode == "float" and interner.snap != float(snap)):
        raise ValueError("interner mode/snap does not match the requested run")
    if n ** ell > max_tuples:
        raise CapExceededError(
            f"tuple space size {n}^{ell} exceeds the cap of {max_tuples}")
    return interner


def _store(interner: Interner, ell: int, dim: int, ids: np.ndarray,
           label: str | None) -> ColorStore:
    """Iteration-0 store over an n x n int64 array of distance ids."""
    n = len(ids)
    store = ColorStore(interner, ell, dim, ids, label=label)
    if ell == 1:
        store.tables.append([interner.intern_zero()] * n)
    else:
        # mats[t] is the distance matrix of tuple t, tuples in product order
        tuples = np.indices((n,) * ell).reshape(ell, -1).T
        mats = ids[tuples[:, :, None], tuples[:, None, :]]
        frames = interner._dist_frames

        def encode(t: int, row: bytes) -> bytes:
            return b"".join(map(frames.__getitem__, memoryview(row).cast("q").tolist()))
        store.tables.append(interner.intern_nodes(KIND_MAT, b"M" + ell.to_bytes(2, "big"),
                                                  [ell] * n ** ell, mats, encode))
    return store


def store_from_sq_values(values, ell: int, dim: int, *, mode: str = "exact",
                         snap: float = DEFAULT_TOL, interner: Interner | None = None,
                         max_tuples: int = DEFAULT_MAX_TUPLES, label: str | None = None,
                         den: int | None = None) -> ColorStore:
    """Iteration-0 store built directly from an n x n squared-distance matrix, or,
    given den, from integer keys over den: numerators in exact mode, grid tokens
    (den 1) in float mode."""
    interner = _checked_interner(interner, mode, snap, len(values), ell, max_tuples)
    if den is None:
        ids = interner.intern_values(values)
    elif mode != "exact" and den != 1:
        raise ValueError("float grid tokens are integer keys over den 1")
    else:
        ids = interner.intern_keys(np.asarray(values).ravel().tolist(), den)
    return _store(interner, ell, dim, ids.reshape(len(values), -1), label)


def _float_sq_matrix(cloud: PointCloud):
    """All squared distances in floating point, summed in coordinate order.

    The order is that of `geometry.sq_dist`, so every value is bit-identical
    to the pairwise computation.  An overflow gives inf, which
    `Interner.intern_values` rejects.
    """
    with np.errstate(over="ignore"):
        return sum(np.square(col[:, None] - col[None, :]) for col in cloud.as_array().T)


def initial_coloring(cloud: PointCloud, ell: int, *, mode: str | None = None,
                     snap: float = DEFAULT_TOL, interner: Interner | None = None,
                     max_tuples: int = DEFAULT_MAX_TUPLES) -> ColorStore:
    """Color every tuple in S^ell by its intra-tuple squared-distance matrix."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    mode = _mode_for(cloud, mode)
    interner = _checked_interner(interner, mode, snap, cloud.n, ell, max_tuples)
    if mode == "exact" and cloud.exact:
        sq, den2 = exact_sq_numerators(cloud.points)
        ids = interner.intern_keys(sq.ravel().tolist(), den2).reshape(cloud.n, cloud.n)
    else:
        ids = interner.intern_values(_float_sq_matrix(cloud))
    return _store(interner, ell, cloud.dim, ids, cloud.label)


def _present_ranking(prev: list[int], digests: list[bytes]) -> tuple[list[int], list[int]]:
    """(rank of each entry of prev, color at each rank) over the colors in prev, by digest."""
    order = sorted(set(prev), key=digests.__getitem__)
    rank = dict(zip(order, range(len(order))))
    return list(map(rank.__getitem__, prev)), order


def refine(store: ColorStore) -> ColorStore:
    """Append one refinement step to the store's color history.

    Records are ordered by the digest ranks of their colors among the colors
    present in the previous table (at ell = 1, by the value rank of the
    distance first).  Ranks are bijections, so sorting rank tuples sorts the
    records, and every tuple's records are sorted by one array sort.  At
    ell = 1 a record's two ranks are packed into one int64 key, which the
    assert below shows cannot overflow, and `np.sort` orders each point's
    row of n keys.  At ell >= 2 the record ranks of all tuples form one
    (n^ell, n, ell) array, sorted along each tuple's records by one
    `np.lexsort`; those ranks are never packed, so no rank count overflows.
    Sorted ranks are mapped back to ids, and each tuple is interned under
    the bytes of its row of ids.
    """
    inter = store.interner
    n, ell = store.n, store.ell
    prev = store.tables[-1]
    rprev, order = _present_ranking(prev, inter.digests)
    colors = np.array(order, dtype=np.int64)
    digests = inter.digests
    if ell == 1:
        # one int64 key per record, (distance rank, color rank) in mixed radix
        m = len(order)
        dranks, dorder = inter.distance_ranking()
        assert len(dorder) * m <= 2 ** 63, "packed record keys overflow int64"
        keys = dranks[store.dist_array] * m + np.array(rprev, dtype=np.int64)
        keys.sort(axis=1)
        q, r = np.divmod(keys, m)
        rows = np.empty((n, n, 2), dtype=np.int64)
        rows[..., 0] = dorder[q]
        rows[..., 1] = colors[r]
        frames = inter._dist_frames

        def encode(t: int, row: bytes) -> bytes:
            ids = memoryview(row).cast("q").tolist()
            return digests[prev[t]] + b"".join(chain.from_iterable(
                zip(map(frames.__getitem__, ids[::2]), map(digests.__getitem__, ids[1::2]))))
        table = inter.intern_nodes(KIND_NODE1, b"1", prev, rows, encode)
    else:
        ranks = np.array(rprev, dtype=np.int64).reshape((n,) * ell)
        records = np.empty((n,) * ell + (n, ell), dtype=np.int64)
        for i in range(ell):
            # records[t, y, i] is the rank of t with position i set to y
            records[..., i] = np.expand_dims(np.moveaxis(ranks, i, -1), i)
        records = records.reshape(n ** ell, n, ell)
        perm = np.lexsort([records[..., i] for i in reversed(range(ell))], axis=-1)
        perm += n * np.arange(n ** ell)[:, None]  # each tuple's order, as flat record rows
        records = records.reshape(-1, ell)[perm]
        rank_digests = np.frombuffer(b"".join(map(digests.__getitem__, order)), dtype="V16")
        table = inter.intern_nodes(
            KIND_NODE, b"N" + ell.to_bytes(2, "big"), prev, colors[records],
            lambda t, row: digests[prev[t]] + rank_digests[records[t]].tobytes())
    store.tables.append(table)
    return store


def run_wl(cloud: PointCloud, ell: int, iters: int, *, mode: str | None = None,
           snap: float = DEFAULT_TOL, interner: Interner | None = None,
           max_tuples: int = DEFAULT_MAX_TUPLES) -> ColorStore:
    """Initial coloring plus `iters` refinements, retaining full structure."""
    if iters < 0:
        raise ValueError("iters must be non-negative")
    store = initial_coloring(cloud, ell, mode=mode, snap=snap, interner=interner,
                             max_tuples=max_tuples)
    for _ in range(iters):
        refine(store)
    return store


def run_wl_from_sq_values(values, ell: int, iters: int, dim: int, *,
                          mode: str = "exact", snap: float = DEFAULT_TOL,
                          interner: Interner | None = None,
                          max_tuples: int = DEFAULT_MAX_TUPLES,
                          den: int | None = None) -> ColorStore:
    store = store_from_sq_values(values, ell, dim, mode=mode, snap=snap,
                                 interner=interner, max_tuples=max_tuples, den=den)
    for _ in range(iters):
        refine(store)
    return store


@dataclass(frozen=True)
class Fingerprint:
    """Canonical multiset of tuple colors at a fixed iteration.

    Entries pair the 128-bit color digest (hex) with its multiplicity and are
    sorted by digest, which makes the serialization stable across runs and
    platforms.  Total multiplicity is n^ell.
    """

    ell: int
    iters: int
    mode: str
    snap: float | None
    total: int
    entries: tuple[tuple[str, int], ...]

    def to_bytes(self) -> bytes:
        head = b"GWFP" + bytes([1])
        head += bytes([0 if self.mode == "exact" else 1])
        head += b"\x00" * 8 if self.snap is None else struct.pack(">d", self.snap)
        head += self.ell.to_bytes(4, "big") + self.iters.to_bytes(4, "big")
        head += self.total.to_bytes(8, "big")
        body = [len(self.entries).to_bytes(4, "big")]
        for hexdigest, mult in self.entries:
            body.append(bytes.fromhex(hexdigest))
            body.append(mult.to_bytes(8, "big"))
        return head + b"".join(body)

    def digest(self) -> str:
        return hashlib.blake2b(self.to_bytes(), digest_size=16).hexdigest()

    def to_json(self) -> dict:
        return {
            "format": "geowl-fingerprint@1",
            "ell": self.ell,
            "iters": self.iters,
            "mode": self.mode,
            "snap": self.snap,
            "total": self.total,
            "entries": [[h, m] for h, m in self.entries],
            "digest": self.digest(),
        }


def fingerprint(store: ColorStore, iteration: int | None = None) -> Fingerprint:
    """The cloud-level invariant: multiset of tuple-color digests at an iteration."""
    if iteration is None:
        iteration = store.iterations
    if not 0 <= iteration <= store.iterations:
        raise ValueError(f"iteration {iteration} not present in history")
    table = store.tables[iteration]
    counts = Counter(table)
    digests = store.interner.digests
    entries = tuple(sorted((digests[cid].hex(), m) for cid, m in counts.items()))
    snap = None if store.interner.mode == "exact" else store.interner.snap
    return Fingerprint(ell=store.ell, iters=iteration, mode=store.interner.mode,
                       snap=snap, total=len(table), entries=entries)


def compare(a: Fingerprint, b: Fingerprint) -> str:
    """Multiset equality of two fingerprints with matching parameters."""
    if (a.ell, a.iters, a.mode, a.snap) != (b.ell, b.iters, b.mode, b.snap):
        raise ParameterMismatchError(
            f"fingerprint parameters differ: ({a.ell},{a.iters},{a.mode},{a.snap})"
            f" vs ({b.ell},{b.iters},{b.mode},{b.snap})")
    return "equal" if a.entries == b.entries else "different"


def first_distinguishing_iteration(a: ColorStore, b: ColorStore) -> int | None:
    """Smallest iteration at which the two histories' fingerprints differ."""
    last = min(a.iterations, b.iterations)
    for t in range(last + 1):
        if compare(fingerprint(a, t), fingerprint(b, t)) == "different":
            return t
    return None
