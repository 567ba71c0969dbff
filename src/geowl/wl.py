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
mode, and grid tokens trunc(v / snap + 0.5) in float mode.  An exact key is
looked up as the reduced integer pair (S / g, D^2 / g), g = gcd(S, D^2), so
equal values over different denominators share one id, and only a new key
builds its `Fraction`, its frame and its float.  Every value is
checked before the first is interned.  Float distances are summed in the
order of `geometry.sq_dist`, so each keeps all its bits.  At ell >= 2 the
tuple matrices of B stores are one gather from a (B, n, n) stack of ids,
interned as the records of a refinement are.

A refinement is array work at every ell, over one or more stores that share
an interner (the two clouds of a comparison are refined in lockstep, a
leading batch axis B on every array).  The colors present in the previous
tables are ranked by digest and each record list is put in canonical order
by sorting rank tuples packed into int64 keys: at ell = 1, one (distance
value rank, color rank) key per record and one row sort over the B x n x n
array of keys; at ell >= 2, a record's ell color ranks in radix m (m colors
present), split into as few int64 words as hold them exactly, built by
broadcasting the rank table once per position.  One word per record (at
ell <= 3 whenever at most 2^21 colors are present) is one row sort over the
(B n^ell, n) array of words, more are one `np.lexsort`; the sorted words
are unpacked into the (B n^ell, n, ell) record ranks.  A tuple's key, also its payload,
is the bytes of its int64 row [kind and width, head, record ids] (the kind
tells a matrix from a node at n = ell); one call looks up all the stores'
keys and inserts the new classes in one batch, and only a new class is
hashed.  At ell = 1 a new class's digest input is joined from one list laid
out like its key, filled from strided views of the key.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat, starmap
from operator import floordiv, mul, truediv

import numpy as np

from .config import DEFAULT_MAX_TUPLES, DEFAULT_TOL
from .errors import CapExceededError, InconsistentDataError, ParameterMismatchError
from .geometry import PointCloud, Scalar, _over_tol, exact_sq_numerators

KIND_ZERO = 0   # the shared ell=1 leaf color
KIND_MAT = 1    # ell x ell squared-distance matrix, row-major distance ids
KIND_NODE1 = 2  # (prev color, sorted ((distance id, color id), ...))
KIND_NODE = 3   # (prev color, sorted (ell-tuple of color ids, ...))

BLOCK = 256  # new ell >= 2 classes whose digest inputs are held at once: bounds memory


def _as_float(key) -> float:
    """The correctly rounded float of a distance key; +-inf past the float range."""
    try:
        return float(key)
    except OverflowError:
        return math.inf if key > 0 else -math.inf


def _key_rows(kind: int, heads: list[int], size: int, width: int) -> np.ndarray:
    """int64 key rows [kind | width << 8, head, `size` record ids left to fill] of tuples."""
    rows = np.empty((len(heads), 2 + size), dtype=np.int64)
    rows[:, 0] = kind | width << 8
    rows[:, 1] = heads
    return rows


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
        self._payloads: list[bytes] = []  # cid -> its key bytes
        self.digests: list[bytes] = []
        self._dist_index: dict = {}    # reduced pair (p, q) (exact) or grid token -> did
        self.dist_keys: list = []      # did -> Fraction p / q (exact) or int grid token (float)
        self._dist_frames: list[bytes] = []  # did -> framed canonical bytes of its key
        self._dist_floats: list[float] = []  # did -> float of its key, filled when interned
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
        rational num / den in exact mode, the grid token int(num) in float mode
        (den = 1).  Each distinct key is interned once, in order of first
        occurrence, which gives the ids of interning the keys one at a time.

        An exact key is the reduced pair (num / g, den / g), g = gcd(num, den), so
        equal rationals over different denominators share an id; a frame is
        b"%d" or b"%d/%d" of the pair, the bytes of str(Fraction).  Only a new key
        gets its `Fraction`, frame and float."""
        distinct = list(dict.fromkeys(nums))
        if self.mode == "exact":
            if den < 1:
                raise ValueError(f"den must be a positive integer, got {den!r}")
            gs = list(map(math.gcd, distinct, repeat(den)))
            keys = list(zip(map(floordiv, distinct, gs), map(floordiv, repeat(den), gs)))
        else:
            keys = list(map(int, distinct))
        found = list(map(self._dist_index.get, keys))
        if None in found:
            new = [key for key, did in zip(keys, found) if did is None]
            start = len(self.dist_keys)
            if self.mode == "exact":
                pairs, values = new, list(starmap(Fraction, new))
                encs = [b"%d" % p if q == 1 else b"%d/%d" % (p, q) for p, q in new]
            else:
                pairs, values = zip(new, repeat(1)), new
                encs = [b"q%d" % key for key in new]
            try:  # int true division is correctly rounded, as float(Fraction) is
                floats = list(starmap(truediv, pairs))
            except OverflowError:
                floats = list(map(_as_float, values))
            self._dist_index.update(zip(new, range(start, start + len(new))))
            self.dist_keys.extend(values)
            self._dist_frames.extend([len(enc).to_bytes(4, "big") + enc for enc in encs])
            self._dist_floats.extend(floats)
            found = list(map(self._dist_index.__getitem__, keys))
        ids = dict(zip(distinct, found))
        return np.fromiter(map(ids.__getitem__, nums), dtype=np.int64, count=len(nums))

    def distance_ranking(self) -> tuple[np.ndarray, np.ndarray]:
        """Distance ids ranked by value: (rank of each id, id at each rank), int64 arrays.

        Keys are sorted as (float, key) pairs.  The float of a key is
        correctly rounded, so it never reverses two keys, and only keys whose
        floats tie are compared exactly.  The arrays are kept until a new
        distance is interned.
        """
        count = len(self.dist_keys)
        if self._dist_rank_cache[0] != count:
            keys = list(zip(self._dist_floats, self.dist_keys))
            order = np.array(sorted(range(count), key=keys.__getitem__), dtype=np.int64)
            ranks = np.empty(count, dtype=np.int64)
            ranks[order] = np.arange(count)
            self._dist_rank_cache = (count, (ranks, order))
        return self._dist_rank_cache[1]

    # -- colors ------------------------------------------------------------

    def intern_zero(self) -> int:
        key = bytes(8)  # the int64 word of KIND_ZERO and width 0; no head, no records
        cid = self._index.get(key)
        if cid is None:
            cid = self._index[key] = len(self.kinds)
            self.kinds.append(KIND_ZERO)
            self._payloads.append(key)
            self.digests.append(hashlib.blake2b(b"Z", digest_size=16).digest())
        return cid

    def intern_nodes(self, kind: int, rows: np.ndarray,
                     encode: Callable[[list[int], list[bytes]], Iterable]) -> list[int]:
        """Intern each row of a `_key_rows` array, records in canonical order; return the
        new table.  A key, the bytes of a row sliced from one `tobytes()`, is the payload.
        New keys go in as one batch, in order of first occurrence as one at a time would;
        encode(ts, keys) yields their digest inputs, ts their first rows, each hashed once."""
        data, step = rows.tobytes(), rows.shape[1] * 8
        keys = [data[i:i + step] for i in range(0, len(data), step)]
        found = list(map(self._index.get, keys))
        if None not in found:
            return found
        new: dict[bytes, int] = {}
        for t in [t for t, cid in enumerate(found) if cid is None]:
            new.setdefault(keys[t], t)
        digests = [hashlib.blake2b(enc, digest_size=16).digest()
                   for enc in encode(list(new.values()), list(new))]
        self._index.update(zip(new, range(len(self.kinds), len(self.kinds) + len(new))))
        self.kinds.extend([kind] * len(new))
        self._payloads.extend(new)
        self.digests.extend(digests)
        return list(map(self._index.__getitem__, keys))

    def _checked(self, cid: int, kind: int) -> bytes:
        """The key bytes of a color that must be of the given KIND_*."""
        if self.kinds[cid] != kind:
            raise ValueError(f"color {cid} has kind {self.kinds[cid]}, expected {kind}")
        return self._payloads[cid]

    def payload(self, cid: int, kind: int) -> tuple:
        """The payload of a color that must be of the given KIND_*: records as id
        tuples, and a distance matrix as (ell, its row-major ids)."""
        word, *ids = memoryview(self._checked(cid, kind)).cast("q").tolist()
        if kind == KIND_ZERO:
            return ()
        if kind == KIND_MAT:
            return ids[0], tuple(ids[1:])
        return ids[0], tuple(zip(*[iter(ids[1:])] * (word >> 8)))


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
        key = self.interner.dist_keys[did]
        return key if self.interner.mode == "exact" else key * self.interner.snap

    @cached_property
    def dist_floats(self) -> np.ndarray:
        """float(value_of(did)) for every distance id up to the cloud's largest."""
        return np.array([float(self.value_of(did)) for did in range(self.dist_array.max() + 1)])

    def class_counts(self) -> list[int]:
        return [len(set(t)) for t in self.tables]

    # -- readers of the color history; the pipelines decode payloads only here --

    def nodes(self, colors: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Previous colors and the (k, n, w) records of k refined colors, as int64 arrays
        read straight from the key bytes: w = 2 at ell = 1, (distance id,
        color id) pairs, else w = ell, the colors of the tuple with the point in
        each slot.  A color of another kind raises ValueError."""
        kind, width = (KIND_NODE1, 2) if self.ell == 1 else (KIND_NODE, self.ell)
        keys = self._packed(colors, kind, self.n * width)
        return keys[:, 1], keys[:, 2:].reshape(-1, self.n, width)

    def _packed(self, colors, kind: int, size: int) -> np.ndarray:
        """The (k, 2 + size) int64 key rows of k colors of the given kind."""
        keys = b"".join(map(self.interner._checked, colors, repeat(kind)))
        return np.frombuffer(keys, dtype=np.int64).reshape(-1, 2 + size)

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
        return Counter(self._packed(colors, KIND_MAT, self.ell ** 2)[:, 3].tolist())

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
        ids = np.concatenate([prev, recs[..., :2].ravel()])
        lo = ids.min() if k else 0
        seen = np.bincount(ids - lo) > 0  # over the ids' span, no sort: read each color once
        used = (np.flatnonzero(seen) + lo).tolist()
        if any(self.interner.kinds[c] != KIND_MAT for c in used):
            raise ValueError("not the colors of a first refinement")
        mats = self._packed(used, KIND_MAT, m * m)[:, 2:]
        at = (np.cumsum(seen) - 1)[ids - lo]  # rank of each id among the used
        pairs = at[k:].reshape(k, n, 2)
        # row-major entry m is (1, 0), entries 1..m-1 are (0, 1)..(0, m-1)
        dists = np.concatenate([mats[pairs[..., 1], m:m + 1], mats[pairs[..., 0], 1:m]], -1)
        return mats[at[:k]].reshape(k, m, m), dists


def require_exact(store: ColorStore) -> None:
    """ValueError on a float store: every reconstruction runs in exact arithmetic."""
    if store.interner.mode != "exact":
        raise ValueError("reconstruction needs an exact store; a float cloud is read exactly")


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
    """Iterations 1 and 2 of a coloring: numerators over one denominator, and value ids.

    The one place where the barycenter identity is applied to whole
    colorings (`oneshot._rows` applies it to a block of tuple colors' sums).
    It runs on integers over S = 2 n^2 Q, Q the lcm of the store's distance
    denominators: nums[did] is distance id did's numerator, a slot's
    distance sum f one row sum (int64 when n times the largest numerator
    fits, else Python ints), and a norm (f - T/(2n))/n, T the ordered-pair
    sum, the exact quotient (2n f - T) / (2n^2).  `value` makes a numerator
    a `Fraction`.  A float store raises ValueError (`require_exact`).  norms
    maps each iteration-1 color to its slots' norm numerators.  At ell = 1 a
    point color is its distance multiset, so its record row is its one slot
    row, distinct from every other color's: no row sort, no `_distinct_rows`.
    From two iterations on (ell >= 2), value ids number the distinct
    distances and norms in increasing order, distances[v] the value of id v; per
    iteration-1 color c1[k], mat[k] and bary[k] are the ids of its tuple's
    distance matrix and norms; per iteration-2 color c2[k], prev2[k] is the
    position of its iteration-1 color and entries[k] its profile, rows sorted.
    """

    def __init__(self, store: ColorStore, iterations: int):
        m, n = store.ell, store.n
        if m < 2 and iterations > 1:
            raise ValueError("profiles need a tuple history (ell >= 2)")
        if store.iterations < iterations:
            raise ValueError(f"need a history of at least {iterations} iteration(s)")
        require_exact(store)
        dids = np.flatnonzero(np.bincount(store.dist_array.ravel())).tolist()
        keys = map(store.interner.dist_keys.__getitem__, dids)
        tops, bottoms = zip(*map(Fraction.as_integer_ratio, keys))
        self.S = 2 * n * n * math.lcm(*bottoms)
        nums = list(map(mul, tops, map(floordiv, repeat(self.S), bottoms)))
        self.nums = np.zeros(dids[-1] + 1,
                             dtype=np.int64 if n * max(map(abs, nums)) < 2 ** 63 else object)
        self.nums[dids] = nums

        counts = Counter(store.tables[1])
        self.c1 = list(counts)
        mats, recs = store.tuple_distances(self.c1)
        if m == 1:  # a point color's record row is its one slot row, already distinct
            slots, first, inv = recs[..., 0], slice(None), np.arange(len(self.c1))[:, None]
        else:  # slot j's distance ids to the points, sorted: one row per (color, slot)
            slots = np.sort(np.swapaxes(recs, 1, 2), -1).reshape(-1, n)
            first, inv = _distinct_rows(slots)
            inv = inv.reshape(len(self.c1), m)
        f = self.nums[slots[first]].sum(-1).tolist()  # in int64, else in Python ints
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
        # every numerator is a multiple of 2n^2, so (2n f - T) / (2n^2) is exact
        assert all(x % (2 * n * n) == 0 for x in (*f, total))
        norms = [(2 * n * x - total) // (2 * n * n) for x in f]
        over = _over_tol(DEFAULT_TOL)
        if any(over(-v, 1, abs(total)) for v in norms):
            raise InconsistentDataError(
                f"negative squared barycenter distance {self.value(min(norms))} from f-values")
        self.norms = {c: tuple(map(norms.__getitem__, row))
                      for c, row in zip(self.c1, inv.tolist())}
        if iterations >= 2:
            values = sorted(set(nums) | set(norms))
            pos = dict(zip(values, range(len(values))))
            ids = np.zeros(len(self.nums), dtype=np.int64)  # distance id -> value id
            ids[dids] = list(map(pos.__getitem__, nums))
            self.mat = ids[mats]
            self.bary = np.array(list(map(pos.__getitem__, norms)))[inv]
            self.distances = list(map(self.value, values))
            self.c2 = list(dict.fromkeys(store.tables[2]))
            prev1, recs = store.nodes(self.c2)
            self.prev2 = _index(self.c1, prev1)
            self.entries = _sorted_rows(self.entry(_index(self.c1, recs)))

    def value(self, num: int) -> Fraction:
        """The squared distance or norm with numerator num over S."""
        return Fraction(num, self.S)

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


def _checked_interner(n: int, ell: int, interner: Interner | None = None, mode: str = "exact",
                      snap: float = DEFAULT_TOL, max_tuples: int = DEFAULT_MAX_TUPLES) -> Interner:
    """The run's interner, after the checks that must precede any interning."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if interner is None:
        interner = Interner(mode, snap)
    elif interner.mode != mode or (mode == "float" and interner.snap != float(snap)):
        raise ValueError("interner mode/snap does not match the requested run")
    if n ** ell > max_tuples:
        raise CapExceededError(
            f"tuple space size {n}^{ell} exceeds the cap of {max_tuples}")
    return interner


def _stores(interner: Interner, ell: int, dim: int, ids: np.ndarray,
            labels: list[str | None]) -> list[ColorStore]:
    """Iteration-0 stores over a (B, n, n) int64 array of distance ids: all B n^ell tuple
    matrices are one gather and one `intern_nodes` call, which gives the ids of
    building the stores one after the other."""
    (B, n), size = ids.shape[:2], ids.shape[1] ** ell  # size: tuples per store
    stores = [ColorStore(interner, ell, dim, a, label) for a, label in zip(ids, labels)]
    if ell == 1:
        table = [interner.intern_zero()] * (B * size)
    else:
        # mats[b n^ell + t] holds the distance matrix of tuple t of store b, in product order
        tuples = np.indices((n,) * ell).reshape(ell, -1).T
        mats = _key_rows(KIND_MAT, [ell] * (B * size), ell * ell, ell)
        mats[:, 2:] = ids[:, tuples[:, :, None], tuples[:, None, :]].reshape(B * size, ell * ell)
        frames, tag = interner._dist_frames, b"M" + ell.to_bytes(2, "big")

        def encode(ts: list[int], keys: list[bytes]) -> Iterable[bytes]:
            return (tag + b"".join(map(frames.__getitem__, memoryview(k).cast("q")[2:]))
                    for k in keys)
        table = interner.intern_nodes(KIND_MAT, mats, encode)
    for b, store in enumerate(stores):
        store.tables.append(table[b * size:(b + 1) * size])
    return stores


def store_from_sq_values(values, ell: int, dim: int, *, mode: str = "exact",
                         snap: float = DEFAULT_TOL, interner: Interner | None = None,
                         max_tuples: int = DEFAULT_MAX_TUPLES, label: str | None = None,
                         den: int | None = None) -> ColorStore:
    """Iteration-0 store built directly from an n x n squared-distance matrix, or,
    given den, from integer keys over den: numerators in exact mode, grid tokens
    (den 1) in float mode."""
    interner = _checked_interner(len(values), ell, interner, mode, snap, max_tuples)
    if den is None:
        ids = interner.intern_values(values)
    elif mode != "exact" and den != 1:
        raise ValueError("float grid tokens are integer keys over den 1")
    else:
        ids = interner.intern_keys(np.asarray(values).ravel().tolist(), den)
    return _stores(interner, ell, dim, ids.reshape(1, len(values), -1), [label])[0]


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
    mode = _mode_for(cloud, mode)
    interner = _checked_interner(cloud.n, ell, interner, mode, snap, max_tuples)
    if mode == "exact" and cloud.exact:
        sq, den2 = exact_sq_numerators(cloud.points)
        ids = interner.intern_keys(sq.ravel().tolist(), den2).reshape(cloud.n, cloud.n)
    else:
        ids = interner.intern_values(_float_sq_matrix(cloud))
    return _stores(interner, ell, cloud.dim, ids[None], [cloud.label])[0]


def _present_ranking(prev: list[int], digests: list[bytes]) -> tuple[list[int], list[int]]:
    """(rank of each entry of prev, color at each rank) over the colors in prev, by digest."""
    order = sorted(set(prev), key=digests.__getitem__)
    rank = dict(zip(order, range(len(order))))
    return list(map(rank.__getitem__, prev)), order


def _ranks_per_word(m: int, ell: int) -> int:
    """The most ranks below m, at most ell, that one int64 word holds in radix m:
    the largest k <= ell with m^k <= 2^63, decided on Python integers."""
    k = 1
    while k < ell and m ** (k + 1) <= 2 ** 63:
        k += 1
    return k


def _sorted_records(rprev: np.ndarray, m: int) -> np.ndarray:
    """The (B n^ell, n, ell) record ranks of every tuple of a (B, n, ..., n) table of
    ranks below m, each tuple's records in lexicographic order: record y of tuple t
    holds the ranks of t with y in each position.

    A record's ranks are packed in radix m into int64 words of `_ranks_per_word`
    ranks each, built from the table once per position.  One word per record is
    sorted in place, more are ordered by one `np.lexsort`; then each word is
    unpacked."""
    ell, n = rprev.ndim - 1, rprev.shape[1]
    k = _ranks_per_word(m, ell)
    spans = [range(lo, min(lo + k, ell)) for lo in range(0, ell, k)]
    words = []
    for span in spans:
        word = np.zeros(rprev.shape + (n,), dtype=np.int64)
        for i in span:
            # word[b, t, y] takes the rank in store b of t with position i set to y
            axes = [0, *(1 + j for j in range(ell) if j != i), 1 + i]
            word *= m
            word += rprev.transpose(axes)[(slice(None),) * (1 + i) + (None,)]
        words.append(word.reshape(-1, n))
    if len(words) == 1:
        words[0].sort(axis=-1)
    else:
        perm = np.lexsort(words[::-1], axis=-1)
        words = [np.take_along_axis(word, perm, -1) for word in words]
    records = np.empty(words[0].shape + (ell,), dtype=np.int64)
    for span, word in zip(spans, words):
        for i in reversed(span[1:]):
            quotient = word // m  # faster than np.divmod: a scalar divisor is precomputed
            records[..., i] = word - quotient * m
            word = quotient
        records[..., span[0]] = word
    return records


def refine(store: ColorStore, *others: ColorStore) -> ColorStore:
    """Append one refinement step to the color history of `store` and of every
    store in `others`, in one array pass; return `store`.

    The stores share one interner and have equal n and ell, else ValueError.
    They are a leading batch axis B on every array below; their tuples are
    interned in one call, first store first, so new classes get the ids that
    refining the stores one after the other would give them.  Records are
    ordered by the digest ranks of their colors among the colors present in
    the stores' previous tables (at ell = 1, by the value rank of the distance
    first).  Ranks are bijections, so sorting rank tuples sorts the records,
    and every tuple's records are sorted by one array sort.  At ell = 1 a
    record's two ranks are packed into one int64 key, which the assert below
    shows cannot overflow, and `np.sort` orders each point's row of n keys
    in the (B, n, n) key array.  At ell >= 2 a record's ell ranks are packed
    in radix m, m the count of present colors, into int64 words of k ranks
    each, k the largest with m^k <= 2^63, so no word overflows
    (`_sorted_records`): one word per record is sorted in place, more are
    ordered by one `np.lexsort` over the words.  Sorted ranks are mapped back
    to ids, and each tuple is interned under the bytes of its row of ids.  At
    ell >= 2 the digest inputs of new classes are gathered BLOCK at a time as
    rows of one uint8 array.
    """
    stores = (store, *others)
    inter, n, ell = store.interner, store.n, store.ell
    if any(s.interner is not inter or s.n != n or s.ell != ell for s in others):
        raise ValueError("stores refined together need one interner and equal n and ell")
    prev = list(chain.from_iterable(s.tables[-1] for s in stores))
    rprev, order = _present_ranking(prev, inter.digests)
    rprev = np.array(rprev, dtype=np.int64).reshape((len(stores),) + (n,) * ell)
    colors = np.array(order, dtype=np.int64)
    digests, frames = inter.digests, inter._dist_frames
    if ell == 1:
        # one int64 key per record, (distance rank, color rank) in mixed radix
        m = len(order)
        dranks, dorder = inter.distance_ranking()
        assert len(dorder) * m <= 2 ** 63, "packed record keys overflow int64"
        keys = dranks[np.array([s.dist_array for s in stores])] * m + rprev[:, None]
        keys.sort(axis=-1)
        q, r = np.divmod(keys.reshape(-1, n), m)
        rows = _key_rows(KIND_NODE1, prev, 2 * n, 2)
        rows[:, 2::2], rows[:, 3::2] = dorder[q], colors[r]

        parts = [b"1"] * (2 + 2 * n)  # laid out as a key: [1, head, (frame, digest)...]

        def encode(ts: list[int], keys: list[bytes]) -> Iterable[bytes]:
            for key in keys:  # [word, head, (distance id, color id)...]
                ids = memoryview(key).cast("q")
                parts[1] = digests[ids[1]]
                parts[2::2] = map(frames.__getitem__, ids[2::2])
                parts[3::2] = map(digests.__getitem__, ids[3::2])
                yield b"".join(parts)
        table = inter.intern_nodes(KIND_NODE1, rows, encode)
    else:
        records = _sorted_records(rprev, len(order)).reshape(rprev.size, n * ell)
        rank_digests = np.frombuffer(b"".join(map(digests.__getitem__, order)), dtype="V16")
        tag, step = np.frombuffer(b"N" + ell.to_bytes(2, "big"), np.uint8), 3 + 16 * (1 + n * ell)

        def encode(ts: list[int], keys: list[bytes]) -> Iterable[memoryview]:
            for s in range(0, len(ts), BLOCK):  # tag, previous digest, record digests
                block = np.array(ts[s:s + BLOCK])
                enc = np.empty((len(block), step), dtype=np.uint8)
                enc[:, :3] = tag
                digs = enc[:, 3:].view("V16")
                digs[:, 0] = rank_digests[rprev.flat[block]]
                digs[:, 1:] = rank_digests[records[block]]
                flat = memoryview(enc).cast("B")
                yield from (flat[i:i + step] for i in range(0, len(flat), step))
        rows = _key_rows(KIND_NODE, prev, n * ell, ell)
        rows[:, 2:] = colors[records]
        table = inter.intern_nodes(KIND_NODE, rows, encode)
    size = n ** ell
    for b, s in enumerate(stores):
        s.tables.append(table[b * size:(b + 1) * size])
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
