"""Columnar backing store: integer-coded attribute columns for a relation.

A :class:`ColumnStore` factorizes each attribute of a relation exactly once
into a dense *code* array: ``int32``, or ``int64`` for a column of ``2^31``
or more distinct values (:func:`code_dtype`).  Every multiplicity query over
an attribute subset — the workhorse behind ``H(Y)``, CMI, and the J-measure —
then reduces to a mixed-radix pack of the subset's code columns followed by
one :func:`numpy.bincount` or one sort: no Python-level row iteration or
tuple hashing.  The packed key stays ``int32`` while the subset's running
radix is below ``2^31`` and widens to ``int64`` past it; narrow keys halve
the memory traffic of the pack and make the sort cheaper.

Column coding picks the cheapest safe representation:

* **identity** — columns that are already small non-negative integers (the
  library's synthetic convention ``D(X) = [d]``) are used as codes
  directly; no factorization work at all;
* **unique**   — homogeneous numeric or string columns go through
  :func:`numpy.unique` with ``return_inverse``;
* **dict**     — heterogeneous or numpy-unsafe columns (mixed types, NaNs,
  arbitrary hashables) fall back to a first-occurrence dict loop whose
  equality semantics match Python's hash-based containers bit-for-bit
  (``1 == True == 1.0`` collapse, exactly as inside the relation's
  ``frozenset`` of rows).

Grouping picks its kernel by the subset's *radix* (the product of its
column cardinalities) against :func:`_dense_limit`:

* **counts, radix ≤ limit** — :func:`numpy.bincount` over the packed key;
* **counts, radix > limit** — :func:`numpy.sort` of the packed key and the
  run lengths between value changes; no permutation is built;
* **cells and groups** (representatives, any radix) — one default
  (unstable) :func:`numpy.argsort`; each group's first occurrence is the
  minimum of its run of row indices, and :meth:`ColumnStore.groups` also
  scatters group ids back through the permutation.

No path runs a stable sort, and every path yields its groups in sorted
packed-key order, so all of them agree bit-for-bit.  The only per-subset
cache is the :class:`CellRecord` — each group's first-occurrence row and
count, ``O(groups)`` and not ``O(N)`` — which projection and the join-size
message passing read; counts and per-row group ids are computed on each
call (the entropy engine memoizes what it derives from counts).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

#: Mixed-radix packing stays below this to keep int64 arithmetic exact;
#: when the running radix product would cross it, the partial key is
#: re-compressed with :func:`numpy.unique` (bounding the radix by ``N``).
_MAX_PACK = 1 << 62

#: Keys and code columns whose radix (cardinality) is below this are int32.
_INT32_RADIX = 1 << 31


def code_dtype(card: int) -> np.dtype:
    """The in-memory dtype of a code column whose codes lie in ``[0, card)``."""
    return np.dtype(np.int32 if card < _INT32_RADIX else np.int64)


def as_codes(codes, card: int) -> np.ndarray:
    """``codes`` as a :func:`code_dtype` array (no copy when it already is)."""
    return np.asarray(codes).astype(code_dtype(card), copy=False)


def _dense_limit(n: int) -> int:
    """Largest code range we treat as "dense enough" for direct bincount."""
    return max(4 * n, 1024)


def _run_starts(sorted_key: np.ndarray) -> np.ndarray:
    """Offsets where a run of equal values begins in a sorted key."""
    change = np.empty(sorted_key.shape[0], dtype=bool)
    change[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=change[1:])
    return np.flatnonzero(change)


def _argsort_runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, starts)``: an unstable argsort of ``key`` and its run starts.

    ``np.minimum.reduceat(perm, starts)`` is each distinct key's exact
    first occurrence, whatever order the sort left equal keys in.
    """
    perm = np.argsort(key)
    return perm, _run_starts(key[perm])


class GroupIndex(NamedTuple):
    """Grouping of the relation's rows by one attribute-position subset.

    Attributes
    ----------
    gids:
        ``int64[N]`` — dense group id of each row (ids follow the sorted
        order of the packed keys).
    first_index:
        ``int64[G]`` — for each group, the index (into the store's row
        list) of its first occurrence; used to decode representative rows.
    counts:
        ``int64[G]`` — multiplicity of each group.
    """

    gids: np.ndarray
    first_index: np.ndarray
    counts: np.ndarray


class CellRecord(NamedTuple):
    """The present cells of one attribute-position subset (cached, read-only).

    Both arrays follow sorted packed-key order and are ``int32`` when the
    store has fewer than ``2^31`` rows (``int64`` otherwise).

    Attributes
    ----------
    first_index:
        ``[G]`` — each cell's first-occurrence row: its representative.
    counts:
        ``[G]`` — each cell's multiplicity.
    """

    first_index: np.ndarray
    counts: np.ndarray


def _encode_column(
    values: Sequence, n_rows: int | None = None
) -> tuple[np.ndarray, int, object]:
    """Encode one column; return ``(codes, card, decoder)``.

    ``card`` is an exclusive upper bound on the codes (the mixed-radix
    digit base).  ``decoder`` describes how to map values back:

    * ``None``   — identity coding (value *is* the code);
    * ``list``   — ``decoder[code] = value`` (``numpy.unique`` path);
    * ``dict``   — a ready ``value → code`` encoder (dict fallback).

    ``n_rows`` is the row count that sets the identity-coding limit
    (:func:`_dense_limit`); it defaults to ``len(values)`` and differs
    only when ``values`` are a column's distinct values
    (:meth:`repro.relations.builder.ColumnStoreBuilder.finish`).
    """
    n = len(values)
    limit = _dense_limit(n if n_rows is None else n_rows)
    candidate = None
    try:
        arr = np.asarray(values)
        if arr.ndim == 1 and arr.shape[0] == n:
            candidate = arr
    except Exception:
        candidate = None
    if candidate is not None:
        kind = candidate.dtype.kind
        if kind in "iub":
            if n == 0:
                return as_codes(candidate, 0), 0, None
            lo = int(candidate.min())
            hi = int(candidate.max())
            if lo >= 0 and hi < limit:
                # identity coding: no unique
                return as_codes(candidate, hi + 1), hi + 1, None
            uniques, inverse = np.unique(
                candidate.astype(np.int64, copy=False), return_inverse=True
            )
            return as_codes(inverse, len(uniques)), len(uniques), uniques.tolist()
        if (kind == "f" and not np.isnan(candidate).any()) or (
            kind in "US" and all(type(v) is str for v in values)
        ):
            uniques, inverse = np.unique(candidate, return_inverse=True)
            return as_codes(inverse, len(uniques)), len(uniques), uniques.tolist()

    codes = np.empty(n, dtype=code_dtype(n))  # at most n distinct values
    encoder: dict = {}
    for i, value in enumerate(values):
        code = encoder.get(value)
        if code is None:
            code = len(encoder)
            encoder[value] = code
        codes[i] = code
    return codes, len(encoder), encoder


class ColumnStore:
    """Integer-coded columns plus a per-subset :class:`CellRecord` cache.

    Seeded from coded columns by the CSV builder and the snapshot loader
    (rows then decode only on demand), or factorized lazily (and exactly
    once) from the rows of a relation built in code by
    :meth:`repro.relations.relation.Relation.columns`; immutable
    thereafter, like the relation itself, so cached cells never need
    invalidation.
    """

    __slots__ = (
        "cards",
        "codes",
        "n_rows",
        "_cells",
        "_decoders",
        "_encoders",
        "_row_list",
    )

    def __init__(self, row_list: tuple, arity: int) -> None:
        self._row_list = row_list
        self.n_rows = len(row_list)
        columns = list(zip(*row_list)) if row_list else [()] * arity
        codes = []
        cards = []
        decoders = []
        for column in columns:
            col_codes, card, decoder = _encode_column(column)
            codes.append(col_codes)
            cards.append(card)
            decoders.append(decoder)
        self.codes: tuple[np.ndarray, ...] = tuple(codes)
        self.cards: tuple[int, ...] = tuple(cards)
        self._decoders = decoders
        self._encoders: list[dict | None] = [
            d if isinstance(d, dict) else None for d in decoders
        ]
        self._cells: dict[tuple[int, ...], CellRecord] = {}

    @classmethod
    def from_identity_codes(
        cls, row_list: tuple, columns: Sequence[np.ndarray], cards: Sequence[int]
    ) -> "ColumnStore":
        """Seed a store whose columns are already dense non-negative codes.

        Used by :meth:`repro.relations.relation.Relation.from_codes` to
        skip per-column factorization entirely: the arrays are adopted as
        identity-coded columns (``value == code``).
        """
        store = cls.__new__(cls)
        store._row_list = row_list
        store.n_rows = len(row_list)
        store.cards = tuple(int(c) for c in cards)
        store.codes = tuple(map(as_codes, columns, store.cards))
        store._decoders = [None] * len(store.codes)
        store._encoders = [None] * len(store.codes)
        store._cells = {}
        return store

    @classmethod
    def from_coded_columns(
        cls,
        row_list: tuple | None,
        columns: Sequence[np.ndarray],
        cards: Sequence[int],
        decoders: Sequence[list],
    ) -> "ColumnStore":
        """Seed a store from externally dictionary-coded columns.

        Used by :class:`repro.relations.builder.ColumnStoreBuilder` and
        the snapshot loader: the arrays are adopted as dict-coded columns
        whose ``decoders[j]`` lists map each column's codes back to
        values (``decoders[j][code] = value``), so neither factorization
        nor value re-encoding runs again.  ``row_list=None`` defers the
        row-tuple decode until :attr:`row_list` is first read — code-level
        queries (grouping, entropies) never pay for it.
        """
        store = cls.__new__(cls)
        store._row_list = row_list
        store.n_rows = (
            len(row_list)
            if row_list is not None
            else (int(columns[0].shape[0]) if columns else 0)
        )
        store.cards = tuple(int(c) for c in cards)
        store.codes = tuple(map(as_codes, columns, store.cards))
        store._decoders = list(decoders)
        store._encoders = [None] * len(store.codes)
        store._cells = {}
        return store

    @property
    def row_list(self) -> tuple:
        """The decoded row tuples (decoded lazily, once, from the codes)."""
        row_list = self._row_list
        if row_list is None:
            decoded = [
                self._decode(j, codes) for j, codes in enumerate(self.codes)
            ]
            row_list = tuple(zip(*decoded)) if self.n_rows else ()
            self._row_list = row_list
        return row_list

    def _decode(self, position: int, codes: np.ndarray) -> list:
        """The values of ``codes`` in one column (one vectorized gather)."""
        decoder = self._decoders[position]
        codes = np.asarray(codes)
        if decoder is None:  # identity coding: value == code
            return codes.tolist()
        dec_arr = np.fromiter(decoder, dtype=object, count=len(decoder))
        return dec_arr[codes].tolist()

    def decode_rows(
        self, indices: np.ndarray, positions: Sequence[int]
    ) -> list[tuple]:
        """The rows at ``indices``, restricted to ``positions``.

        Reads the decoded :attr:`row_list` when it exists; otherwise
        decodes only the requested cells from the codes, so a projection
        of a store seeded from coded columns never decodes every row.
        """
        row_list = self._row_list
        if row_list is None:
            return list(
                zip(*(self._decode(p, self.codes[p][indices]) for p in positions))
            )
        rows = map(row_list.__getitem__, indices.tolist())
        if len(positions) == 1:
            single = positions[0]
            return [(row[single],) for row in rows]
        return [tuple(row[p] for p in positions) for row in rows]

    def present_values(self, position: int) -> list:
        """The distinct values of one column, read from its decoder.

        Only meaningful for stores seeded from coded columns
        (:meth:`from_coded_columns`), whose decoders hold the original
        values; a store factorized from rows may canonicalize them
        (``True`` → ``1``, an int in a float column → float).
        """
        codes = self.codes[position]
        present = np.bincount(codes, minlength=self.cards[position])
        return self._decode(position, np.flatnonzero(present))

    def __len__(self) -> int:
        return self.n_rows

    def encoder(self, position: int) -> dict:
        """``value → code`` mapping for one column (built lazily)."""
        encoder = self._encoders[position]
        if encoder is None:
            decoder = self._decoders[position]
            if decoder is None:  # identity coding: present values are codes
                present = np.unique(self.codes[position]).tolist()
                encoder = {value: value for value in present}
            else:
                encoder = {value: code for code, value in enumerate(decoder)}
            self._encoders[position] = encoder
        return encoder

    def packed_key(
        self, positions: Sequence[int], rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Mixed-radix pack of the code columns at ``positions``.

        Two rows get equal keys iff they agree on all the positions.  The
        key is ``int32`` while the running radix is below ``2^31`` and
        ``int64`` past it.  The radix is kept below ``2^62`` by
        re-compressing the partial key with :func:`numpy.unique` whenever
        the next column would overflow, so the packing is exact for any
        ``N`` and cardinalities.  ``rows`` packs only those rows, in that
        order; a re-compression then numbers the keys among them alone,
        so keys to be compared must come from one call.
        """
        codes = self.codes

        def column(position: int) -> np.ndarray:
            return codes[position] if rows is None else codes[position][rows]

        key = column(positions[0])
        radix = max(self.cards[positions[0]], 1)
        for position in positions[1:]:
            card = self.cards[position]
            if card <= 1:
                continue  # constant column: contributes nothing
            if radix * card >= _MAX_PACK:
                uniques, key = np.unique(key, return_inverse=True)
                radix = max(len(uniques), 1)
            radix *= card
            if radix >= _INT32_RADIX and key.dtype != np.int64:
                key = key.astype(np.int64)
            key = key * card + column(position)
        return key

    def dense_radix(self, positions: Sequence[int]) -> int | None:
        """The subset's radix when it is at most :func:`_dense_limit`, else None.

        Keys of a dense subset from :meth:`packed_key` index a
        :func:`numpy.bincount` of that length directly.
        """
        radix = 1
        limit = _dense_limit(self.n_rows)
        for position in positions:
            radix *= max(self.cards[position], 1)
            if radix > limit:
                return None
        return radix

    def counts(self, positions: Sequence[int]) -> np.ndarray:
        """Group multiplicities only (the entropy hot path).

        A subset whose radix is at most :func:`_dense_limit` is a straight
        :func:`numpy.bincount` over the packed key; a wider one sorts the
        key and takes the run lengths.  Either way the ``int64`` counts
        follow sorted packed-key order, like :meth:`cells` and
        :meth:`groups`.
        """
        key = self.packed_key(positions)
        n = self.n_rows
        if n and self.dense_radix(positions) is not None:
            counts = np.bincount(key)
            return np.compress(counts > 0, counts)
        return np.diff(_run_starts(np.sort(key)), append=n)

    def cells(self, positions: Sequence[int]) -> CellRecord:
        """Each group's first-occurrence row and count (cached per subset).

        One unstable argsort of the packed key, built once per subset; the
        record is ``O(groups)``, so the cache stays small next to the code
        columns.
        """
        cache_key = tuple(positions)
        cached = self._cells.get(cache_key)
        if cached is not None:
            return cached
        perm, starts = _argsort_runs(self.packed_key(cache_key))
        n = self.n_rows
        dtype = code_dtype(n)
        first_index = np.minimum.reduceat(perm, starts).astype(dtype)
        counts = np.diff(starts, append=n).astype(dtype)
        first_index.flags.writeable = False  # shared cached arrays
        counts.flags.writeable = False
        cached = self._cells[cache_key] = CellRecord(first_index, counts)
        return cached

    def groups(self, positions: Sequence[int]) -> GroupIndex:
        """Group rows by the attribute subset at ``positions``.

        One unstable argsort of the packed key, with per-row group ids;
        not cached, since ``gids`` is ``O(N)``.  Callers that need only
        representatives and counts read :meth:`cells`.
        """
        perm, starts = _argsort_runs(self.packed_key(positions))
        n = self.n_rows
        counts = np.diff(starts, append=n)
        gids = np.empty(n, dtype=np.int64)
        gids[perm] = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
        return GroupIndex(
            gids=gids,
            first_index=np.minimum.reduceat(perm, starts),
            counts=counts,
        )

    def clear_cache(self) -> None:
        """Drop cached cells (codes and encoders are kept)."""
        self._cells.clear()
