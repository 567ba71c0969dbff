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
Each record list is put in canonical order by sorting the records' digest
ranks (and the distance's value rank at ell = 1); the canonical bytes of
each distance are framed once, when it is interned.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

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


def _ranking(keys: list) -> tuple[list[int], list[int]]:
    """(rank of each id, id at each rank) for ids ordered by their keys."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0] * len(keys)
    for r, i in enumerate(order):
        ranks[i] = r
    return ranks, order


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
        self.payloads: list[tuple] = []
        self.digests: list[bytes] = []
        self._dist_index: dict = {}
        self.dist_keys: list = []      # did -> Fraction (exact) or int grid token (float)
        self._dist_frames: list[bytes] = []  # did -> framed canonical bytes of its key
        self._rank_cache: tuple[int, tuple] = (0, ([], []))
        self._dist_rank_cache: tuple[int, tuple] = (0, ([], []))

    # -- distances ---------------------------------------------------------

    def intern_distance(self, value: Scalar) -> int:
        if self.mode == "exact":
            key = value if isinstance(value, Fraction) else Fraction(value)
        else:
            try:
                scaled = float(value) / self.snap
            except OverflowError:
                scaled = math.inf
            if not math.isfinite(scaled):
                raise ValueError(f"a squared distance overflows the float grid of "
                                 f"step {self.snap!r}")
            key = int(scaled + 0.5)  # round half up; values >= 0
        return self._intern_key(key)

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

    def distance_ranking(self) -> tuple[list[int], list[int]]:
        """Distance ids ranked by value: (rank of each id, id at each rank)."""
        count = len(self.dist_keys)
        if self._dist_rank_cache[0] != count:
            self._dist_rank_cache = (count, _ranking(self.dist_keys))
        return self._dist_rank_cache[1]

    # -- colors ------------------------------------------------------------

    def _add(self, key, kind: int, payload: tuple, enc: bytes) -> int:
        cid = len(self.kinds)
        self._index[key] = cid
        self.kinds.append(kind)
        self.payloads.append(payload)
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

    def intern_node1(self, prev: int, records: tuple[tuple[int, int], ...]) -> int:
        key = (KIND_NODE1, prev, records)
        cid = self._index.get(key)
        if cid is None:
            dids, children = zip(*records)
            enc = b"1" + self.digests[prev] + b"".join(chain.from_iterable(zip(
                map(self._dist_frames.__getitem__, dids),
                map(self.digests.__getitem__, children))))
            cid = self._add(key, KIND_NODE1, (prev, records), enc)
        return cid

    def intern_node(self, ell: int, prev: int,
                    records: tuple[tuple[int, ...], ...]) -> int:
        key = (KIND_NODE, prev, records)
        cid = self._index.get(key)
        if cid is None:
            enc = b"N" + ell.to_bytes(2, "big") + self.digests[prev] + b"".join(
                map(self.digests.__getitem__, chain.from_iterable(records)))
            cid = self._add(key, KIND_NODE, (prev, records), enc)
        return cid

    def color_ranking(self) -> tuple[list[int], list[int]]:
        """Color ids ranked by digest: (rank of each id, id at each rank)."""
        count = len(self.kinds)
        if self._rank_cache[0] != count:
            self._rank_cache = (count, _ranking(self.digests))
        return self._rank_cache[1]

    def payload(self, cid: int, kind: int) -> tuple:
        """The payload of a color that must be of the given KIND_*."""
        if self.kinds[cid] != kind:
            raise ValueError(f"color {cid} has kind {self.kinds[cid]}, expected {kind}")
        return self.payloads[cid]


class ColorStore:
    """Color tables of one cloud's tuple space, one table per iteration."""

    def __init__(self, interner: Interner, ell: int, n: int, dim: int,
                 dist_ids: tuple[tuple[int, ...], ...], label: str | None = None):
        self.interner = interner
        self.ell = ell
        self.n = n
        self.dim = dim
        self.dist_ids = dist_ids
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
    `Interner.intern_distance` rejects.
    """
    with np.errstate(over="ignore"):
        return sum(np.square(col[:, None] - col[None, :])
                   for col in cloud.as_array().T).tolist()


def initial_coloring(cloud: PointCloud, ell: int, *, mode: str | None = None,
                     snap: float = DEFAULT_TOL, interner: Interner | None = None,
                     max_tuples: int = DEFAULT_MAX_TUPLES) -> ColorStore:
    """Color every tuple in S^ell by its intra-tuple squared-distance matrix."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    mode = _mode_for(cloud, mode)
    interner = _checked_interner(interner, mode, snap, cloud.n, ell, max_tuples)
    if mode == "exact" and cloud.exact:
        dist_ids = _exact_distance_ids(cloud.points, interner)
    else:
        intern = interner.intern_distance
        dist_ids = [[intern(v) for v in row] for row in _float_sq_matrix(cloud)]
    return _store(interner, ell, cloud.dim, dist_ids, cloud.label)


def refine(store: ColorStore) -> ColorStore:
    """Append one refinement step to the store's color history.

    Records are ordered by the digest ranks of their colors (at ell=1, by
    the value rank of the distance first).  Ranks are a bijection of ids, so
    each record list is sorted as plain rank tuples and mapped back to ids.
    """
    inter = store.interner
    n, ell = store.n, store.ell
    prev = store.tables[-1]
    ranks, order = inter.color_ranking()
    rprev = list(map(ranks.__getitem__, prev))
    color_of = order.__getitem__
    if ell == 1:
        dranks, dorder = inter.distance_ranking()
        drank_of, dist_of = dranks.__getitem__, dorder.__getitem__
        table = []
        for x, row in enumerate(store.dist_ids):
            dcol, ccol = zip(*sorted(zip(map(drank_of, row), rprev)))
            table.append(inter.intern_node1(
                prev[x], tuple(zip(map(dist_of, dcol), map(color_of, ccol)))))
    else:
        strides = [n ** (ell - 1 - i) for i in range(ell)]
        table = []
        for t, digs in enumerate(product(range(n), repeat=ell)):
            # the records' rank columns: position i of tuple t swept over all points
            rcols = [rprev[t - dig * s:t + (n - dig) * s:s] for dig, s in zip(digs, strides)]
            cols = zip(*sorted(zip(*rcols)))
            table.append(inter.intern_node(
                ell, prev[t], tuple(zip(*[map(color_of, col) for col in cols]))))
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
