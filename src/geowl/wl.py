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

Exact distances of a rational cloud are computed as integers: coordinates
are scaled by the common denominator D, each unordered pair's squared
distance is an int S, and each distinct S is interned once as the rational
S / D^2.  All other runs take one float distance matrix, summed in the same
coordinate order as `geometry.sq_dist`, so every value keeps all its bits.
In float mode that matrix is snapped to the grid in one array pass, and
every value is checked before the first is interned.  The canonical bytes
of each distance are framed once, when it is interned.

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
from itertools import chain, product
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_MAX_TUPLES, DEFAULT_TOL
from .errors import CapExceededError, ParameterMismatchError
from .geometry import PointCloud, Scalar

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
    """A KIND_NODE1 or KIND_NODE payload whose records are still the bytes of
    their int64 ids, `width` ids per record."""

    prev: int
    width: int
    rows: bytes

    def unpack(self) -> tuple:
        ids = memoryview(self.rows).cast("q").tolist()
        return self.prev, tuple(zip(*[iter(ids)] * self.width))


class Interner:
    """Bijection between canonical color structures and dense integer ids.

    Stores run with a fixed arithmetic mode; two clouds colored through the
    same interner get directly comparable ids (and identical ids exactly for
    structurally equal colors).
    """

    def __init__(self, mode: str = "exact", snap: float = DEFAULT_TOL):
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.snap = float(snap)
        self._index: dict = {}
        self.kinds: list[int] = []
        self._payloads: list = []      # cid -> payload tuple, or a _PackedNode until read
        self.digests: list[bytes] = []
        self._dist_index: dict = {}
        self.dist_keys: list = []      # did -> Fraction (exact) or int grid token (float)
        self._dist_frames: list[bytes] = []  # did -> framed canonical bytes of its key
        self._dist_floats: list[float] = []  # did -> float of its key, filled when ranked
        self._dist_rank_cache: tuple = (-1, None)

    # -- distances ---------------------------------------------------------

    def intern_distance(self, value: Scalar) -> int:
        if self.mode == "exact":
            return self._intern_key(value if isinstance(value, Fraction) else Fraction(value))
        return int(self.snap_matrix([[value]])[0, 0])

    def snap_matrix(self, values) -> np.ndarray:
        """Distance ids of a float-mode matrix of squared distances, as an int64 array.

        Every value is snapped to the grid in one pass: its key is
        trunc(v / snap + 0.5), which is int(v / snap + 0.5) for every finite
        v.  All values are checked before any is interned, so a rejected
        matrix leaves the interner as it was.  New keys are interned in the
        order in which they first occur in the matrix, row by row, which is
        the order of interning the values one at a time.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                scaled = np.asarray(values, dtype=np.float64) / self.snap + 0.5
            except OverflowError:  # a Fraction or int past the float range
                scaled = np.array(math.inf)
        if not np.isfinite(scaled).all():
            raise ValueError(f"a squared distance overflows the float grid of "
                             f"step {self.snap!r}")
        keys, first, inverse = np.unique(np.trunc(scaled).ravel(), return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        dids = np.empty(len(keys), dtype=np.int64)
        dids[order] = [self._intern_key(int(key)) for key in keys[order].tolist()]
        return dids[inverse].reshape(scaled.shape)

    def _intern_key(self, key) -> int:
        did = self._dist_index.get(key)
        if did is None:
            did = len(self.dist_keys)
            self._dist_index[key] = did
            self.dist_keys.append(key)
            self._dist_frames.append(_frame(
                str(key).encode("ascii") if self.mode == "exact" else b"q%d" % key))
        return did

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

    def intern_matrix(self, ell: int, dids: tuple[int, ...]) -> int:
        key = (KIND_MAT, ell, dids)
        cid = self._index.get(key)
        if cid is None:
            enc = b"M" + ell.to_bytes(2, "big") + b"".join(
                map(self._dist_frames.__getitem__, dids))
            cid = self._add(key, KIND_MAT, (ell, dids), enc)
        return cid

    def intern_nodes(self, kind: int, head: bytes, prev: list[int], rows: np.ndarray,
                     encode: Callable[[int, bytes], bytes]) -> list[int]:
        """Intern (prev[t], rows[t]) for every tuple t; return the new table.

        `rows` is a (len(prev), n, width) int64 array of record ids, each
        tuple's records already in canonical order.  A tuple is looked up by
        the bytes of its row; a new class gets its digest over head, the
        digest of prev[t] and encode(t, row bytes), the canonical bytes of
        its records.
        """
        width = rows.shape[-1]
        step = rows.shape[1] * width * 8
        data = rows.tobytes()
        digests = self.digests
        index = self._index
        table = []
        for t, p in enumerate(prev):
            key = (kind, p, data[t * step:(t + 1) * step])
            cid = index.get(key)
            if cid is None:
                cid = self._add(key, kind, _PackedNode(p, width, key[2]),
                                head + digests[p] + encode(t, key[2]))
            table.append(cid)
        return table

    def payload(self, cid: int, kind: int) -> tuple:
        """The payload of a color that must be of the given KIND_*."""
        if self.kinds[cid] != kind:
            raise ValueError(f"color {cid} has kind {self.kinds[cid]}, expected {kind}")
        payload = self._payloads[cid]
        if isinstance(payload, _PackedNode):
            payload = self._payloads[cid] = payload.unpack()
        return payload


class ColorStore:
    """Color tables of one cloud's tuple space, one table per iteration."""

    def __init__(self, interner: Interner, ell: int, n: int, dim: int,
                 dist_ids: tuple[tuple[int, ...], ...], label: str | None = None):
        self.interner = interner
        self.ell = ell
        self.n = n
        self.dim = dim
        self.dist_ids = dist_ids
        self.dist_array = np.array(dist_ids, dtype=np.int64).reshape(n, n)
        self.label = label
        self.tables: list[list[int]] = []

    @property
    def iterations(self) -> int:
        return len(self.tables) - 1

    def value_of(self, did: int) -> Scalar:
        return self.interner.dist_value(did)

    def sq_matrix_values(self):
        """The cloud's n x n squared-distance values (exact or snapped floats)."""
        return [[self.interner.dist_value(d) for d in row] for row in self.dist_ids]

    def class_counts(self) -> list[int]:
        return [len(set(t)) for t in self.tables]


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


def _store(interner: Interner, ell: int, dim: int, dist_ids: list[list[int]],
           label: str | None) -> ColorStore:
    """Iteration-0 store over an n x n matrix of distance ids."""
    n = len(dist_ids)
    store = ColorStore(interner, ell, n, dim, tuple(map(tuple, dist_ids)), label=label)
    if ell == 1:
        store.tables.append([interner.intern_zero()] * n)
    else:
        dist = store.dist_ids
        store.tables.append([
            interner.intern_matrix(ell, tuple(dist[i][j] for i in digs for j in digs))
            for digs in product(range(n), repeat=ell)])
    return store


def store_from_sq_values(values, ell: int, dim: int, *, mode: str = "exact",
                         snap: float = DEFAULT_TOL, interner: Interner | None = None,
                         max_tuples: int = DEFAULT_MAX_TUPLES,
                         label: str | None = None) -> ColorStore:
    """Iteration-0 store built directly from an n x n squared-distance matrix."""
    interner = _checked_interner(interner, mode, snap, len(values), ell, max_tuples)
    if mode == "float":
        dist_ids = interner.snap_matrix(values).tolist()
    else:
        dist_ids = [[interner.intern_distance(v) for v in row] for row in values]
    return _store(interner, ell, dim, dist_ids, label)


def _exact_distance_ids(points, interner: Interner) -> list[list[int]]:
    """Distance ids of rational points, each pair's square computed once as an int.

    Coordinates are scaled by the common denominator D, so the squared
    distance of a pair is the integer S over D^2; each distinct S is turned
    into a `Fraction` and interned once.  Pairs are visited in row-major order
    over the upper triangle, which is where every value first occurs in the
    full row-major matrix, so distance ids come out in the same order.
    """
    n = len(points)
    den = math.lcm(*(c.denominator for p in points for c in p))
    cols = [[c.numerator * (den // c.denominator) for c in col] for col in zip(*points)]
    den2 = den * den
    seen: dict[int, int] = {}
    ids = [[0] * n for _ in range(n)]
    for i in range(n):
        sums = [0] * (n - i)
        for col in cols:
            a = col[i]
            sums = [s + (a - b) * (a - b) for s, b in zip(sums, col[i:])]
        row = ids[i]
        for j, s in enumerate(sums, i):
            did = seen.get(s)
            if did is None:
                did = seen[s] = interner._intern_key(Fraction(s, den2))
            row[j] = ids[j][i] = did
    return ids


def _float_sq_matrix(cloud: PointCloud):
    """All squared distances in floating point, summed in coordinate order.

    The order is that of `geometry.sq_dist`, so every value is bit-identical
    to the pairwise computation.  An overflow gives inf, which
    `Interner.snap_matrix` rejects.
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
    if mode == "float":
        dist_ids = interner.snap_matrix(_float_sq_matrix(cloud)).tolist()
    elif cloud.exact:
        dist_ids = _exact_distance_ids(cloud.points, interner)
    else:
        intern = interner.intern_distance
        dist_ids = [[intern(v) for v in row] for row in _float_sq_matrix(cloud).tolist()]
    return _store(interner, ell, cloud.dim, dist_ids, cloud.label)


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
            return b"".join(chain.from_iterable(zip(map(frames.__getitem__, ids[::2]),
                                                    map(digests.__getitem__, ids[1::2]))))
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
        table = inter.intern_nodes(KIND_NODE, b"N" + ell.to_bytes(2, "big"), prev,
                                   colors[records],
                                   lambda t, row: rank_digests[records[t]].tobytes())
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
                          max_tuples: int = DEFAULT_MAX_TUPLES) -> ColorStore:
    store = store_from_sq_values(values, ell, dim, mode=mode, snap=snap,
                                 interner=interner, max_tuples=max_tuples)
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
