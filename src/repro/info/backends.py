"""Pluggable entropy backends: exact columnar counts or bounded-memory sketches.

The :class:`~repro.info.engine.EntropyEngine` memoizes ``H(Y)`` per
attribute subset; *how* each entropy is produced is delegated to an
:class:`EntropyBackend`:

* :class:`ExactEntropyBackend` — the plug-in entropy from the relation's
  exact columnar multiplicity counts (the PR 1 hot path; bit-identical
  to the pre-backend engine);
* :class:`SketchEntropyBackend` — a **one-pass, bounded-memory
  estimator**: the subset's packed keys are streamed in chunks through an
  :class:`EntropySketch` (exact counts up to a capacity, with overflow
  spilling into a CountMin sketch plus a KMV distinct-sample), and the
  entropy estimate carries a Miller–Madow bias correction.

Backends also answer the spurious-loss question (``ρ``), so the whole
``H``/``J``/``ρ`` triple of a mined schema can be produced without the
exact group-by machinery: the sketch backend estimates each support
split's join size with a streaming per-separator distinct counter
(exact under capacity, degrading to the distinct-count uniformity
estimate ``|Π_L|·|Π_R|/|Π_S|``) and combines splits with the paper's
Proposition 5.1 product form.

Sketch states are mergeable (:meth:`EntropySketch.merge`): per-chunk
partial states can be built independently and folded together, and the
result is identical to one sequential pass — pinned by
``tests/test_backends.py``.

While every queried subset stays within the sketch capacity the sketch
counts are *exact*, so on small relations the backend's ``H`` equals the
plug-in entropy plus its Miller–Madow term and its ``ρ`` equals the
exact product-bound value — the property the tolerance tests rely on.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import DistributionError
from repro.relations.io import DEFAULT_CHUNK_ROWS as DEFAULT_SKETCH_CHUNK_ROWS
from repro.relations.relation import Relation

#: Default exact-count capacity before a sketch spills to CountMin.
DEFAULT_SKETCH_CAPACITY = 1 << 17

_U64 = np.uint64
#: splitmix64 constants (Steele et al.) for the vectorized key hash.
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)
_GOLDEN = _U64(0x9E3779B97F4A7C15)


def sum_c_log_c(values: np.ndarray) -> float:
    """``Σ v·log v`` over a positive float64 vector.

    Every entropy, J-measure and KL sum of this package reduces to this
    sum over projection counts.  It is taken elementwise with numpy's
    pairwise summation, never as a BLAS dot of ``v`` with ``log v``: the
    OpenBLAS that numpy ships splits dots past ~10k elements across
    threads that keep spinning after the call, and the split changes the
    summation order, so the result's last bits would depend on the
    host's core count.  ``values`` is not modified.
    """
    terms = np.log(values)
    terms *= values
    return float(terms.sum())


def _hash_u64(keys: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 key array."""
    x = keys.astype(_U64, copy=True)
    x += _GOLDEN
    x ^= x >> _U64(30)
    x *= _MIX_1
    x ^= x >> _U64(27)
    x *= _MIX_2
    x ^= x >> _U64(31)
    return x


def iter_packed_key_chunks(
    relation: Relation,
    positions: Sequence[int],
    chunk_rows: int,
) -> Iterator[np.ndarray]:
    """Stream one subset's row keys in chunks, without a full-length pack.

    When the subset's exact mixed-radix product fits in int64 the keys
    are the same exact packs :meth:`ColumnStore.packed_key` would
    produce (collision-free); otherwise each column is folded in with a
    splitmix64 mix in the uint64 ring — a deterministic hash key whose
    collisions are what make the sketch backend *approximate* on
    astronomically wide keyspaces.  Chunking is positional, so zipping
    several subsets' iterators walks the same rows in lockstep.
    """
    store = relation.columns()
    n = len(store)
    if not positions:
        for start in range(0, max(n, 1), chunk_rows):
            yield np.zeros(min(chunk_rows, max(n - start, 0)), dtype=np.int64)
        return
    radix = 1
    exact = True
    for position in positions:
        radix *= max(store.cards[position], 1)
        if radix >= 1 << 62:
            exact = False
            break
    for start in range(0, n, chunk_rows):
        stop = min(start + chunk_rows, n)
        if exact:
            # Widen before packing: int32 code columns would overflow.
            key = store.codes[positions[0]][start:stop].astype(np.int64)
            for position in positions[1:]:
                card = store.cards[position]
                if card <= 1:
                    continue
                key *= card
                key += store.codes[position][start:stop]
            yield key
        else:
            key = np.zeros(stop - start, dtype=_U64)
            for position in positions:
                key = _hash_u64(
                    key ^ store.codes[position][start:stop].astype(_U64)
                )
            yield key.view(np.int64)


class CountMinSketch:
    """A classic CountMin frequency sketch over int64 keys.

    ``depth`` independent hash rows of ``width`` counters; point
    estimates take the row-wise minimum (always an over-estimate).
    Merging adds tables element-wise (requires identical seeds, which
    all sketches built from one :class:`SketchParams` share).
    """

    __slots__ = ("depth", "width", "table", "_salts")

    def __init__(self, depth: int, width: int, seed: int) -> None:
        self.depth = depth
        self.width = width
        self.table = np.zeros((depth, width), dtype=np.int64)
        rng = np.random.default_rng(seed)
        self._salts = rng.integers(1, 1 << 62, size=depth, dtype=np.int64).astype(
            _U64
        )

    def _indices(self, keys: np.ndarray, row: int) -> np.ndarray:
        hashed = _hash_u64(keys.astype(_U64) ^ self._salts[row])
        return (hashed % _U64(self.width)).astype(np.int64)

    def update(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts[i]`` occurrences of ``keys[i]``."""
        for row in range(self.depth):
            np.add.at(self.table[row], self._indices(keys, row), counts)

    def point_estimate(self, keys: np.ndarray) -> np.ndarray:
        """Estimated multiplicity of each key (row-wise minimum)."""
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        estimates = np.empty((self.depth, keys.size), dtype=np.int64)
        for row in range(self.depth):
            estimates[row] = self.table[row][self._indices(keys, row)]
        return estimates.min(axis=0)

    def merge(self, other: "CountMinSketch") -> None:
        """Fold another sketch built with the same seeds into this one."""
        if (self.depth, self.width) != (other.depth, other.width):
            raise DistributionError(
                "cannot merge CountMin sketches of different shapes"
            )
        self.table += other.table


class KMVSample:
    """K-minimum-values distinct sketch that also keeps the sampled keys.

    The ``k`` smallest 64-bit hash values among all inserted keys give a
    distinct-count estimate (exact while fewer than ``k`` distinct keys
    were seen), and the keys achieving them form a uniform sample of the
    *distinct* key population — which the sketch backend combines with
    CountMin point estimates to extrapolate the tail's entropy mass.
    """

    __slots__ = ("k", "_hashes", "_keys")

    def __init__(self, k: int) -> None:
        self.k = k
        self._hashes = np.empty(0, dtype=_U64)
        self._keys = np.empty(0, dtype=np.int64)

    def update(self, keys: np.ndarray) -> None:
        """Insert distinct candidate keys (duplicates collapse by hash)."""
        if keys.size == 0:
            return
        hashes = _hash_u64(keys.astype(_U64))
        merged_h = np.concatenate([self._hashes, hashes])
        merged_k = np.concatenate([self._keys, keys.astype(np.int64)])
        order = np.argsort(merged_h, kind="stable")
        merged_h = merged_h[order]
        merged_k = merged_k[order]
        distinct = np.ones(merged_h.size, dtype=bool)
        distinct[1:] = merged_h[1:] != merged_h[:-1]
        merged_h = merged_h[distinct][: self.k]
        merged_k = merged_k[distinct][: self.k]
        self._hashes = merged_h
        self._keys = merged_k

    def merge(self, other: "KMVSample") -> None:
        self.update(other._keys)

    def sample_keys(self) -> np.ndarray:
        """The retained uniform sample of distinct keys."""
        return self._keys

    def distinct_estimate(self) -> float:
        """Estimated number of distinct inserted keys."""
        size = self._hashes.size
        if size < self.k:
            return float(size)
        kth = float(self._hashes[-1]) / float(1 << 64)
        if kth <= 0.0:
            return float(size)
        return (self.k - 1) / kth


class SketchParams:
    """Shared configuration (and hash seeds) for one family of sketches."""

    __slots__ = ("capacity", "cm_depth", "cm_width", "kmv_size", "seed")

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_SKETCH_CAPACITY,
        cm_depth: int = 4,
        cm_width: int = 1 << 13,
        kmv_size: int = 256,
        seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise DistributionError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.cm_depth = cm_depth
        self.cm_width = cm_width
        self.kmv_size = kmv_size
        self.seed = seed


class EntropySketch:
    """Bounded-memory streaming multiplicity counter for one key stream.

    Counts are exact (a key → count dict) while the number of distinct
    keys stays within ``params.capacity``; past that, *new* keys spill
    into a CountMin sketch + KMV distinct-sample while already-tracked
    keys keep exact counts.  :meth:`entropy_nats` returns the plug-in
    entropy of the (partly estimated) count profile plus the
    Miller–Madow ``(K̂ − 1)/(2N)`` bias correction.

    Two sketches built from the same :class:`SketchParams` can be
    :meth:`merge`-d; a merge of per-chunk states equals one sequential
    pass over the concatenated stream.
    """

    __slots__ = ("_counts", "_cm", "_kmv", "_params", "_tail_mass", "_total")

    def __init__(self, params: SketchParams) -> None:
        self._params = params
        self._counts: dict[int, int] = {}
        self._cm: CountMinSketch | None = None
        self._kmv: KMVSample | None = None
        self._tail_mass = 0
        self._total = 0

    # -- ingestion ------------------------------------------------------
    def update(self, keys: np.ndarray) -> None:
        """Fold one chunk of row keys into the sketch."""
        if keys.size == 0:
            return
        uniques, counts = np.unique(keys, return_counts=True)
        self._add_key_counts(uniques, counts)

    def _add_key_counts(self, uniques: np.ndarray, counts: np.ndarray) -> None:
        self._total += int(counts.sum())
        table = self._counts
        capacity = self._params.capacity
        overflow_keys: list[int] = []
        overflow_counts: list[int] = []
        for key, count in zip(uniques.tolist(), counts.tolist()):
            existing = table.get(key)
            if existing is not None:
                table[key] = existing + count
            elif len(table) < capacity:
                table[key] = count
            else:
                overflow_keys.append(key)
                overflow_counts.append(count)
        if overflow_keys:
            self._spill(
                np.asarray(overflow_keys, dtype=np.int64),
                np.asarray(overflow_counts, dtype=np.int64),
            )

    def _spill(self, keys: np.ndarray, counts: np.ndarray) -> None:
        if self._cm is None:
            self._cm = CountMinSketch(
                self._params.cm_depth, self._params.cm_width, self._params.seed
            )
            self._kmv = KMVSample(self._params.kmv_size)
        self._cm.update(keys, counts)
        self._kmv.update(keys)
        self._tail_mass += int(counts.sum())

    def merge(self, other: "EntropySketch") -> None:
        """Fold another sketch (same params) into this one."""
        if other._params is not self._params and (
            other._params.seed != self._params.seed
            or other._params.capacity != self._params.capacity
            or other._params.cm_depth != self._params.cm_depth
            or other._params.cm_width != self._params.cm_width
            or other._params.kmv_size != self._params.kmv_size
        ):
            raise DistributionError(
                "cannot merge sketches built from incompatible params"
            )
        if other._counts:
            items = list(other._counts.items())
            keys = np.asarray([k for k, _ in items], dtype=np.int64)
            counts = np.asarray([c for _, c in items], dtype=np.int64)
            self._add_key_counts(keys, counts)
        if other._cm is not None:
            if self._cm is None:
                self._cm = CountMinSketch(
                    self._params.cm_depth,
                    self._params.cm_width,
                    self._params.seed,
                )
                self._kmv = KMVSample(self._params.kmv_size)
            self._cm.merge(other._cm)
            self._kmv.merge(other._kmv)
            self._tail_mass += other._tail_mass
            self._total += other._tail_mass
            # other's exact counts were re-added above; its tail total was
            # folded here.  (other._total includes both.)

    # -- estimates ------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """Whether no key ever spilled (counts are exact multiplicities)."""
        return self._tail_mass == 0

    def total(self) -> int:
        """Total stream mass folded in so far."""
        return self._total

    def distinct_estimate(self) -> float:
        """Estimated number of distinct keys (exact while unspilled)."""
        tail = self._kmv.distinct_estimate() if self._kmv is not None else 0.0
        return len(self._counts) + tail

    def entropy_nats(self, n: int) -> float:
        """Miller–Madow-corrected entropy estimate of the stream (nats).

        ``n`` is the stream length (``Σ counts``); passing it explicitly
        lets callers evaluate partial merges.  Exact regime: exactly the
        plug-in entropy plus ``(K − 1)/(2N)``.
        """
        if n <= 0:
            raise DistributionError("entropy of an empty stream is undefined")
        s = 0.0
        if self._counts:
            counts = np.fromiter(
                self._counts.values(), dtype=np.float64, count=len(self._counts)
            )
            s += sum_c_log_c(counts)
        k_hat = float(len(self._counts))
        if self._tail_mass and self._kmv is not None and self._cm is not None:
            tail_distinct = max(self._kmv.distinct_estimate(), 1.0)
            sample = self._kmv.sample_keys()
            estimates = self._cm.point_estimate(sample).astype(np.float64)
            estimates = np.maximum(estimates, 1.0)
            s += tail_distinct * float(
                np.mean(estimates * np.log(estimates))
            )
            k_hat += tail_distinct
        value = math.log(n) - s / n
        value = min(max(value, 0.0), math.log(n))
        return value + (k_hat - 1.0) / (2.0 * n)


class EntropyBackend:
    """How an :class:`~repro.info.engine.EntropyEngine` produces ``H`` and ``ρ``.

    Subclasses implement :meth:`entropy_nats` (one canonical attribute
    subset → entropy in nats) and :meth:`spurious_loss` (``ρ(R, S)`` of
    a join tree).  The engine supplies memoization on top, so backends
    stay stateless per query.
    """

    #: Registry name (CLI value; see :func:`available_backends`).
    name = "abstract"

    def entropy_nats(self, relation: Relation, key: tuple[str, ...]) -> float:
        """``H(key)`` in nats; ``key`` is canonical and non-empty."""
        raise NotImplementedError

    def spurious_loss(self, relation: Relation, jointree) -> float:
        """``ρ(R, S)`` for the schema defined by ``jointree``."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-ready description (CLI reports embed it)."""
        return {"backend": self.name}


class ExactEntropyBackend(EntropyBackend):
    """Exact plug-in entropies from the columnar multiplicity counts.

    Bit-identical to the pre-backend engine: one
    ``projection_count_values`` group-by per subset, and the exact
    message-passing join counter (via the relation's
    :class:`~repro.core.evalcontext.EvalContext`) for ``ρ``.
    """

    name = "exact"

    def entropy_nats(self, relation: Relation, key: tuple[str, ...]) -> float:
        n = len(relation)
        counts = relation.projection_count_values(key)
        c = counts.astype(np.float64, copy=False)
        return max(math.log(n) - sum_c_log_c(c) / n, 0.0)

    def spurious_loss(self, relation: Relation, jointree) -> float:
        from repro.core.loss import spurious_loss

        return spurious_loss(relation, jointree)


class _SplitJoinEstimator:
    """Streaming ``|R[left] ⋈ R[right]|`` estimate for one support split.

    Exact mode tracks, per separator group, the number of distinct
    left-side and right-side keys (``|φ| = Σ_s d_L(s)·d_R(s)``) using
    global seen-key sets.  When the tracked key population exceeds the
    capacity it degrades to three KMV distinct counters and the
    uniformity estimate ``D_L · D_R / D_S`` — the classic cardinality
    model, exact when group sizes are balanced.
    """

    __slots__ = ("_dl", "_dr", "_exact", "_kmv", "_params", "_seen")

    def __init__(self, params: SketchParams) -> None:
        self._params = params
        self._dl: dict[int, int] = {}
        self._dr: dict[int, int] = {}
        self._seen: tuple[set, set] = (set(), set())
        self._exact = True
        self._kmv: tuple[KMVSample, KMVSample, KMVSample] | None = None

    def _degrade(self) -> None:
        self._exact = False
        self._kmv = (
            KMVSample(self._params.kmv_size),
            KMVSample(self._params.kmv_size),
            KMVSample(self._params.kmv_size),
        )
        # Seed the distinct counters with everything already seen.
        left_seen, right_seen = self._seen
        self._kmv[0].update(np.fromiter(left_seen, dtype=np.int64, count=len(left_seen)))
        self._kmv[1].update(np.fromiter(right_seen, dtype=np.int64, count=len(right_seen)))
        seps = self._dl.keys() | self._dr.keys()
        self._kmv[2].update(np.fromiter(seps, dtype=np.int64, count=len(seps)))
        self._dl = {}
        self._dr = {}
        self._seen = (set(), set())

    def update(
        self,
        sep_keys: np.ndarray,
        left_keys: np.ndarray,
        right_keys: np.ndarray,
    ) -> None:
        """Fold one lockstep chunk of (separator, left, right) row keys."""
        if not self._exact:
            assert self._kmv is not None
            self._kmv[0].update(np.unique(left_keys))
            self._kmv[1].update(np.unique(right_keys))
            self._kmv[2].update(np.unique(sep_keys))
            return
        for side, keys, groups in (
            (0, left_keys, self._dl),
            (1, right_keys, self._dr),
        ):
            uniques, first = np.unique(keys, return_index=True)
            seps = sep_keys[first]
            seen = self._seen[side]
            for key, sep in zip(uniques.tolist(), seps.tolist()):
                if key not in seen:
                    seen.add(key)
                    groups[sep] = groups.get(sep, 0) + 1
        if (
            len(self._seen[0]) + len(self._seen[1])
            > self._params.capacity
        ):
            self._degrade()

    def estimate(self) -> float:
        """The (estimated) split join size."""
        if self._exact:
            dr = self._dr
            return float(
                sum(count * dr.get(sep, 0) for sep, count in self._dl.items())
            )
        assert self._kmv is not None
        d_left = self._kmv[0].distinct_estimate()
        d_right = self._kmv[1].distinct_estimate()
        d_sep = max(self._kmv[2].distinct_estimate(), 1.0)
        return max(d_left * d_right / d_sep, d_left, d_right)


class SketchEntropyBackend(EntropyBackend):
    """Approximate ``H``/``J``/``ρ`` from one bounded-memory pass per query.

    Parameters
    ----------
    chunk_rows:
        Rows per streamed pass chunk (ties to the CLI's ``--chunk-rows``).
    capacity:
        Exact-count budget per sketch before spilling to CountMin.
    cm_depth, cm_width:
        CountMin table shape for spilled (tail) keys.
    kmv_size:
        Size of the KMV distinct-sample used for tail extrapolation.
    seed:
        Hash seed shared by every sketch the backend builds (merges
        require it).

    While all queried subsets stay under ``capacity`` the estimates are
    deterministic and exactly ``plug-in + Miller–Madow``; beyond it they
    are genuine sketch estimates with bounded memory.
    """

    name = "sketch"

    def __init__(
        self,
        *,
        chunk_rows: int | None = None,
        capacity: int = DEFAULT_SKETCH_CAPACITY,
        cm_depth: int = 4,
        cm_width: int = 1 << 13,
        kmv_size: int = 256,
        seed: int = 0,
    ) -> None:
        self.chunk_rows = (
            chunk_rows if chunk_rows is not None else DEFAULT_SKETCH_CHUNK_ROWS
        )
        if self.chunk_rows < 1:
            raise DistributionError(
                f"chunk_rows must be >= 1, got {self.chunk_rows}"
            )
        self.params = SketchParams(
            capacity=capacity,
            cm_depth=cm_depth,
            cm_width=cm_width,
            kmv_size=kmv_size,
            seed=seed,
        )

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "chunk_rows": self.chunk_rows,
            "capacity": self.params.capacity,
            "cm_depth": self.params.cm_depth,
            "cm_width": self.params.cm_width,
            "kmv_size": self.params.kmv_size,
            "seed": self.params.seed,
        }

    # -- entropy --------------------------------------------------------
    def subset_sketch(
        self, relation: Relation, attributes: Iterable[str]
    ) -> EntropySketch:
        """One pass over the subset's keys, folded into a fresh sketch."""
        key = relation.schema.canonical_order(attributes)
        positions = relation.schema.indices(key)
        sketch = EntropySketch(self.params)
        for keys in iter_packed_key_chunks(relation, positions, self.chunk_rows):
            sketch.update(keys)
        return sketch

    def entropy_nats(self, relation: Relation, key: tuple[str, ...]) -> float:
        return self.subset_sketch(relation, key).entropy_nats(len(relation))

    # -- spurious loss --------------------------------------------------
    def split_join_size_estimate(
        self,
        relation: Relation,
        left: Iterable[str],
        right: Iterable[str],
    ) -> float:
        """Streaming estimate of ``|R[left] ⋈ R[right]|``."""
        schema = relation.schema
        left_key = schema.canonical_order(left)
        right_key = schema.canonical_order(right)
        sep_key = schema.canonical_order(set(left_key) & set(right_key))
        estimator = _SplitJoinEstimator(self.params)
        chunks = zip(
            iter_packed_key_chunks(
                relation, schema.indices(sep_key), self.chunk_rows
            ),
            iter_packed_key_chunks(
                relation, schema.indices(left_key), self.chunk_rows
            ),
            iter_packed_key_chunks(
                relation, schema.indices(right_key), self.chunk_rows
            ),
        )
        for sep_chunk, left_chunk, right_chunk in chunks:
            estimator.update(sep_chunk, left_chunk, right_chunk)
        return estimator.estimate()

    def spurious_loss(self, relation: Relation, jointree) -> float:
        """``ρ̂(R, S)``: per-split streaming estimates, product-combined.

        Each rooted-split join size is estimated in one bounded-memory
        pass; the splits are combined with the Proposition 5.1 product
        form ``1 + ρ̂ = ∏ᵢ (1 + ρ̂ᵢ)`` (an upper-bound-flavoured
        estimate; exact for two-bag schemas in the exact regime).
        """
        if relation.is_empty():
            raise DistributionError("ρ(R, S) is undefined for an empty relation")
        n = len(relation)
        factor = 1.0
        for split in jointree.rooted_splits(None):
            estimate = self.split_join_size_estimate(
                relation, split.prefix, split.suffix
            )
            factor *= max(estimate, float(n)) / n
        return max(factor - 1.0, 0.0)


def available_backends() -> tuple[str, ...]:
    """Registered backend names (CLI ``--backend`` choices)."""
    return (ExactEntropyBackend.name, SketchEntropyBackend.name)


def make_backend(
    spec: "str | EntropyBackend | None" = None,
    *,
    chunk_rows: int | None = None,
) -> EntropyBackend:
    """Resolve a backend from a name, an instance, or ``None`` (exact).

    ``chunk_rows`` configures the sketch backend's streaming pass size
    and is ignored by the exact backend (and by ready instances).
    """
    if isinstance(spec, EntropyBackend):
        return spec
    if spec is None or spec == ExactEntropyBackend.name:
        return ExactEntropyBackend()
    if spec == SketchEntropyBackend.name:
        return SketchEntropyBackend(chunk_rows=chunk_rows)
    raise DistributionError(
        f"unknown entropy backend {spec!r}; known: "
        + ", ".join(available_backends())
    )
