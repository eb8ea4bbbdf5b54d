"""Relation instances: immutable sets of tuples over a schema.

A :class:`Relation` models the paper's relation instance ``R ∈ Rel(Ω)``: a
finite *set* of tuples (no duplicates).  Projections return relations
(sets), but multiplicity information — how many tuples of ``R`` project to
each value — is exposed via :meth:`Relation.projection_counts`, which is the
workhorse for all empirical-entropy computations.

Internally a relation holds a **columnar store**
(:class:`repro.relations.columns.ColumnStore`): each attribute as a dense
``int32`` code array (``int64`` past ``2^31`` values), after which every
multiplicity query over any attribute subset (``projection_counts``,
:meth:`Relation.projection_count_values`, :meth:`Relation.projection_size`,
:meth:`Relation.project`, :meth:`Relation.select_eq`) is a vectorized
mixed-radix pack + one ``bincount`` or sort — no per-row Python iteration.

The store comes from one of two places, and is cached for the relation's
lifetime either way (relations are immutable, so it never needs
invalidation):

* a relation built in code from row tuples factorizes its rows into
  columns on first columnar use;
* a relation loaded from a CSV (:meth:`Relation.from_csv_stream`) or a
  snapshot (:meth:`Relation.load_snapshot`) *starts* as coded columns,
  and its row tuples are decoded from them only on first tuple-level
  access (:meth:`rows`, set operations, iteration).  Projections and
  selections decode only the rows they return, active domains read the
  decoders, and the entropy work behind mining never decodes a row.
"""

from __future__ import annotations

import hashlib
import operator
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SchemaError, SnapshotError, UnknownAttributeError
from repro.relations.columns import ColumnStore, _argsort_runs, _dense_limit
from repro.relations.schema import RelationSchema, Row, Value


#: One row's content digest: ``blake2b(repr(row), digest_size=16)``.
#: numpy orders fixed-width ``S16`` items as unsigned bytes, which is
#: Python's ``bytes`` order, so a sorted array lists the digests exactly
#: as ``sorted()`` of the ``bytes`` objects would.
DIGEST_DTYPE = np.dtype("S16")
#: Rows an undecoded relation decodes at a time while digesting them.
_DIGEST_CHUNK_ROWS = 1 << 16


def _digest_rows(rows: Iterable[Row]) -> np.ndarray:
    """The per-row digests of ``rows``, unsorted, as a read-only array."""
    blake2b = hashlib.blake2b
    return np.frombuffer(
        b"".join(
            blake2b(repr(row).encode("utf-8"), digest_size=16).digest()
            for row in rows
        ),
        dtype=DIGEST_DTYPE,
    )


def fingerprint_from_digests(names: Sequence[str], digests: np.ndarray) -> str:
    """The content fingerprint of rows over ``names`` with sorted ``digests``.

    One blake2b over the schema digest, the row count and the
    concatenated sorted row digests (see :meth:`Relation.fingerprint`).
    """
    combined = hashlib.blake2b(digest_size=16)
    combined.update(
        hashlib.blake2b(
            "\x1f".join(names).encode("utf-8"), digest_size=16
        ).digest()
    )
    combined.update(len(digests).to_bytes(8, "big"))
    combined.update(digests)
    return combined.hexdigest()


def _distinct_row_indices(arr, cards) -> "np.ndarray | None":
    """Ascending first-occurrence indices of the distinct rows of a code array.

    Uses the column store's unstable-argsort kernel (no stable sort).
    Returns ``None`` when the mixed-radix key would overflow int64 (the
    caller then falls back to hash-based dedup).
    """
    radix = 1
    for card in cards:
        radix *= max(card, 1)
        if radix >= 1 << 62:
            return None
    key = arr[:, 0]
    for j in range(1, arr.shape[1]):
        key = key * max(cards[j], 1) + arr[:, j]
    perm, starts = _argsort_runs(key)
    idx = np.minimum.reduceat(perm, starts)
    idx.sort()
    return idx


class Relation:
    """An immutable relation instance over a :class:`RelationSchema`.

    Duplicate input rows are collapsed (a relation is a set); use
    :func:`len` for ``N = |R|``.

    Parameters
    ----------
    schema:
        The relation's schema.
    rows:
        Iterable of tuples, each validated against the schema.
    validate:
        If ``False``, skip per-row domain validation (rows are still
        tuple-ified and deduplicated).  Use for trusted internal callers on
        hot paths such as samplers.

    Examples
    --------
    >>> schema = RelationSchema.from_names(["A", "B"])
    >>> r = Relation(schema, [(1, "x"), (2, "y"), (1, "x")])
    >>> len(r)
    2
    >>> sorted(r.project(["A"]).rows())
    [(1,), (2,)]
    """

    __slots__ = (
        "_digests",
        "_engine",
        "_eval",
        "_fingerprint",
        "_row_cache",
        "_schema",
        "_store",
        "__weakref__",
    )

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Sequence[Value]],
        *,
        validate: bool = True,
    ) -> None:
        self._schema = schema
        if validate:
            self._rows: frozenset[Row] = frozenset(
                schema.validate_row(row) for row in rows
            )
        else:
            self._rows = frozenset(tuple(row) for row in rows)
        # Lazily-built caches (the relation itself is immutable): the
        # columnar store, the memoizing entropy engine bound to it, and
        # the evaluation context memoizing join sizes on top of both
        # (which refer back here only weakly: no reference cycle).
        self._store: ColumnStore | None = None
        self._engine = None
        self._eval = None
        self._fingerprint: str | None = None
        self._digests: "np.ndarray | Callable[[], np.ndarray | None] | None" = None

    @property
    def _rows(self) -> frozenset:
        """The row set, decoded lazily for CSV- and snapshot-loaded relations.

        A relation loaded from a CSV or a columnar snapshot carries only
        its coded store (``_row_cache is None``); the Python row tuples
        are decoded on first tuple-level access, so store-level queries
        (entropies, groupings) never pay for them.
        """
        rows = self._row_cache
        if rows is None:
            row_list = self._store.row_list
            rows = frozenset(row_list)
            if len(rows) != len(row_list):
                raise SnapshotError(
                    f"decoded rows are not pairwise distinct ({len(rows)} "
                    f"of {len(row_list)}); the snapshot is corrupt"
                )
            self._row_cache = rows
        return rows

    @_rows.setter
    def _rows(self, rows: "frozenset | None") -> None:
        self._row_cache = rows

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_store(
        cls,
        schema: RelationSchema,
        store: ColumnStore | None,
        *,
        rows: frozenset | None = None,
        fingerprint: str | None = None,
        digests: "np.ndarray | Callable[[], np.ndarray | None] | None" = None,
    ) -> "Relation":
        """A relation over ``schema`` with a ready store and/or row set.

        ``rows=None`` leaves the row tuples undecoded until tuple-level
        access (``store`` is then required); ``store=None`` factorizes
        ``rows`` lazily.  The caller guarantees the store's rows are
        pairwise distinct and, when given, equal to ``rows``, and that
        ``fingerprint`` and ``digests``, when given, are this content's.
        ``digests`` is the sorted row-digest array, or a loader called on
        first use that returns it (``None``: digest the rows instead).
        """
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._rows = rows
        relation._store = store
        relation._engine = None
        relation._eval = None
        relation._fingerprint = fingerprint
        relation._digests = digests
        return relation

    @classmethod
    def from_named_rows(
        cls, schema: RelationSchema, rows: Iterable[dict[str, Value]]
    ) -> "Relation":
        """Build a relation from dict rows keyed by attribute name."""
        names = schema.names
        return cls(schema, (tuple(row[n] for n in names) for row in rows))

    @classmethod
    def from_codes(
        cls,
        schema: RelationSchema,
        codes,
        *,
        distinct: bool = False,
    ) -> "Relation":
        """Vectorized construction from a non-negative integer array.

        ``codes`` is an ``(N, arity)`` array-like of small non-negative
        integers (the library's synthetic convention ``D(X) = [d]``).
        Rows are materialized via one ``tolist`` pass and the columnar
        store is seeded directly from the array columns — no per-value
        Python conversion and no re-factorization.  Pass
        ``distinct=True`` when the rows are known to be pairwise distinct
        (e.g. sampled without replacement) to skip the vectorized dedup.

        Domain validation is skipped (as with ``validate=False``); callers
        are trusted to supply in-domain codes.
        """
        arr = np.asarray(codes, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != schema.arity:
            raise SchemaError(
                f"from_codes needs an (N, {schema.arity}) array, got shape "
                f"{getattr(arr, 'shape', None)}"
            )
        if arr.size and int(arr.min()) < 0:
            raise SchemaError("from_codes needs non-negative integer codes")
        n = arr.shape[0]
        cards = (
            [int(arr[:, j].max()) + 1 for j in range(arr.shape[1])]
            if n
            else [0] * arr.shape[1]
        )
        if not distinct and n > 1:
            keep = _distinct_row_indices(arr, cards)
            if keep is not None:
                if len(keep) != n:
                    arr = arr[keep]
                    n = arr.shape[0]
            else:  # radix overflow: let frozenset dedup below
                distinct_rows = frozenset(map(tuple, arr.tolist()))
                return cls(schema, distinct_rows, validate=False)
        row_list = tuple(map(tuple, arr.tolist()))
        rows = frozenset(row_list)
        if len(rows) != n:  # caller lied about distinctness: rebuild safely
            return cls(schema, rows, validate=False)
        store = None  # lazily re-factorized on demand
        if n and max(cards) < _dense_limit(n):
            store = ColumnStore.from_identity_codes(
                row_list,
                [np.ascontiguousarray(arr[:, j]) for j in range(arr.shape[1])],
                cards,
            )
        return cls._from_store(schema, store, rows=rows)

    @classmethod
    def from_csv(
        cls,
        path,
        *,
        typed: bool = True,
        delimiter: str = ",",
    ) -> "Relation":
        """Load a relation from a CSV file (header row = schema).

        Alias of :meth:`from_csv_stream` with the default chunk size (and
        so of :func:`repro.relations.io.read_csv`).
        """
        return cls.from_csv_stream(path, typed=typed, delimiter=delimiter)

    @classmethod
    def from_csv_stream(
        cls,
        path,
        *,
        chunk_rows: int | None = None,
        typed: bool = True,
        delimiter: str = ",",
    ) -> "Relation":
        """Load a CSV file into a relation with bounded ingestion memory.

        The one CSV ingest route (:func:`repro.relations.io.read_csv` is
        this with the default chunk size).  Reads the file in chunks of
        at most ``chunk_rows`` data rows and feeds each chunk's raw tokens
        to a :class:`~repro.relations.builder.ColumnStoreBuilder`, which
        codes each column through a token dict and coerces each distinct
        token once.  Peak memory during ingestion is one chunk of tokens
        plus state proportional to the *distinct* content — never the
        whole file's Python tuples.  The result is the same relation,
        with the same codes, for **every** chunk size; its columnar store
        is seeded from the codes and its row tuples are decoded only on
        first tuple-level access.
        """
        from repro.relations.builder import ColumnStoreBuilder
        from repro.relations.io import DEFAULT_CHUNK_ROWS, _token_chunks

        builder: ColumnStoreBuilder | None = None
        schema: RelationSchema | None = None
        for header, rows in _token_chunks(
            path,
            chunk_rows=DEFAULT_CHUNK_ROWS if chunk_rows is None else chunk_rows,
            delimiter=delimiter,
        ):
            if builder is None:
                # Validate the schema before ingesting data, so a bad
                # header fails fast instead of after gigabytes of rows.
                schema = RelationSchema.from_names(header)
                builder = ColumnStoreBuilder(schema.arity)
            builder.add_tokens(rows, typed=typed)
        assert builder is not None and schema is not None  # >= 1 chunk always
        return builder.finish(schema)

    @classmethod
    def load_snapshot(
        cls,
        path,
        *,
        mmap: bool = True,
        expected_fingerprint: str | None = None,
        verify_content: bool = False,
        domains: bool = False,
    ) -> "Relation":
        """Load a relation from an on-disk columnar snapshot — zero parsing.

        The snapshot's code arrays are memory-mapped (or read with
        ``mmap=False``), cast to ``int32`` (an O(N) copy per column: no
        load stays zero-copy), and adopted via the
        :meth:`ColumnStore.from_coded_columns` zero-factorization path,
        so the result is immediately query-ready and bit-identical to
        the saved relation.  See :func:`repro.relations.persist.load_snapshot`
        for the verification knobs; raises
        :class:`~repro.errors.SnapshotError` on anything untrustworthy.
        """
        from repro.relations.persist import load_snapshot

        return load_snapshot(
            path,
            mmap=mmap,
            expected_fingerprint=expected_fingerprint,
            verify_content=verify_content,
            domains=domains,
        )

    def save_snapshot(self, path, *, source: str | None = None) -> "Path":
        """Persist this relation as a verified columnar snapshot directory.

        Written with fsync-before-atomic-rename discipline and verified
        to round-trip bit-identically (same fingerprint) before being
        published; raises :class:`~repro.errors.SnapshotError` — writing
        nothing — for relations whose values cannot be represented
        faithfully.  See :mod:`repro.relations.persist`.
        """
        from repro.relations.persist import save_snapshot

        return save_snapshot(self, path, source=source)

    @classmethod
    def empty(cls, schema: RelationSchema) -> "Relation":
        """The empty relation over ``schema``."""
        return cls(schema, [])

    @classmethod
    def full(cls, schema: RelationSchema) -> "Relation":
        """The full product relation ``D(X₁) × … × D(X_n)``.

        Every attribute must have a declared domain.  Intended for small
        schemas (tests and examples); the size is the product of domain
        sizes.
        """
        import itertools

        domains = []
        for attr in schema.attributes:
            if attr.domain is None:
                raise SchemaError(
                    f"attribute {attr.name!r} has no declared domain; "
                    "Relation.full needs finite domains"
                )
            domains.append(sorted(attr.domain, key=repr))
        return cls(schema, itertools.product(*domains), validate=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> RelationSchema:
        """The relation's schema."""
        return self._schema

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return self._schema.names

    def rows(self) -> frozenset[Row]:
        """The underlying set of tuples."""
        return self._rows

    def __len__(self) -> int:
        if self._row_cache is None:
            return self._store.n_rows  # lazy snapshot load: no decode
        return len(self._row_cache)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema.names == other._schema.names and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._schema.names, self._rows))

    def __repr__(self) -> str:
        return f"Relation({list(self._schema.names)}, N={len(self)})"

    def is_empty(self) -> bool:
        """Whether the relation has no tuples."""
        return len(self) == 0

    # ------------------------------------------------------------------
    # Columnar backend
    # ------------------------------------------------------------------
    def columns(self) -> ColumnStore:
        """The relation's columnar store (seeded at load, or built once).

        Each attribute is a dense ``int32`` code array; multiplicity
        queries over attribute subsets are answered by mixed-radix packing
        + one ``bincount`` or sort, and each subset's cells (representative
        rows and counts) are cached.
        Advanced API — most callers want :meth:`projection_counts`,
        :meth:`projection_count_values`, or
        :class:`repro.info.engine.EntropyEngine`.
        """
        store = self._store
        if store is None:
            store = ColumnStore(tuple(self._rows), self._schema.arity)
            self._store = store
        return store

    # ------------------------------------------------------------------
    # Relational algebra
    # ------------------------------------------------------------------
    def _getter(self, names: Sequence[str]) -> Callable[[Row], Row]:
        """Return a function extracting ``names`` positions from a row."""
        idx = self._schema.indices(names)
        if len(idx) == 1:
            single = idx[0]
            return lambda row: (row[single],)
        getter = operator.itemgetter(*idx)
        return lambda row: getter(row)

    def project(self, names: Iterable[str]) -> "Relation":
        """Projection ``R[Y]`` onto the attribute *set* ``names``.

        The output schema orders attributes canonically (by their position
        in this relation's schema), so projections onto equal sets are
        equal relations.  Computed columnar: one group-by over the code
        columns, then only the ``G`` distinct representatives are
        materialized as tuples (instead of re-hashing all ``N`` rows), so
        an undecoded relation stays undecoded.
        """
        ordered = self._schema.canonical_order(names)
        if ordered == self._schema.names:
            return self
        if not ordered:
            raise UnknownAttributeError("projection onto the empty attribute set")
        if self._store is None and len(self._rows) < 64:
            # Tiny one-shot relation: a plain scan beats building columns.
            getter = self._getter(ordered)
            return Relation(
                self._schema.project(ordered),
                {getter(row) for row in self._rows},
                validate=False,
            )
        positions = self._schema.indices(ordered)
        store = self.columns()
        out_rows = store.decode_rows(store.cells(positions).first_index, positions)
        return Relation(self._schema.project(ordered), out_rows, validate=False)

    def projection_counts(self, names: Iterable[str]) -> Counter[Row]:
        """Multiplicities of projected values: ``value -> |R(Y=value)|``.

        This is the empirical-distribution workhorse: the marginal
        probability of ``y`` is ``counts[y] / N`` (Section 2.2 of the
        paper).  Computed from the columnar store: grouping is one
        vectorized sort over packed code columns; only the distinct
        groups' representatives are decoded back into value tuples.
        """
        ordered = self._schema.canonical_order(names)
        if not ordered:
            raise UnknownAttributeError("projection onto the empty attribute set")
        positions = self._schema.indices(ordered)
        store = self.columns()
        cells = store.cells(positions)
        keys = store.decode_rows(cells.first_index, positions)
        return Counter(dict(zip(keys, cells.counts.tolist())))

    def projection_counts_naive(self, names: Iterable[str]) -> Counter[Row]:
        """Reference implementation of :meth:`projection_counts`.

        Row-at-a-time Counter loop, kept as the independently-checkable
        legacy path; property tests assert the columnar path matches it
        bit-for-bit.
        """
        ordered = self._schema.canonical_order(names)
        if not ordered:
            raise UnknownAttributeError("projection onto the empty attribute set")
        getter = self._getter(ordered)
        return Counter(getter(row) for row in self._rows)

    def projection_count_values(self, names: Iterable[str]) -> np.ndarray:
        """Multiplicities of the projection onto ``names`` — counts only.

        Returns the ``int64`` count vector (one entry per distinct
        projected value, in packed-key order) without decoding the value
        tuples.  This is the entropy hot path: ``H(Y)`` needs only the
        multiplicities, never the values.
        """
        ordered = self._schema.canonical_order(names)
        if not ordered:
            raise UnknownAttributeError("projection onto the empty attribute set")
        return self.columns().counts(self._schema.indices(ordered))

    def projection_size(self, names: Iterable[str]) -> int:
        """``|Π_names(R)|`` — number of distinct projected values.

        Equivalent to ``len(self.project(names))`` without materializing
        the projection.
        """
        return len(self.projection_count_values(names))

    def select(
        self,
        predicate: Callable[[dict[str, Value]], bool],
        *,
        attrs: Iterable[str] | None = None,
    ) -> "Relation":
        """Selection by an arbitrary predicate over named values.

        Parameters
        ----------
        predicate:
            Called with a ``{name: value}`` dict per row; rows where it
            returns truthy are kept.
        attrs:
            Fast path: when given, the per-row dict contains only these
            attributes (the ones the predicate actually reads), which
            skips materializing the full-width dict for wide schemas.
            For single-attribute equality use the vectorized
            :meth:`select_eq` instead.
        """
        if attrs is None:
            names = self._schema.names
            kept = [
                row for row in self._rows if predicate(dict(zip(names, row)))
            ]
        else:
            ordered = self._schema.canonical_order(attrs)
            if not ordered:
                raise UnknownAttributeError("selection over an empty attribute set")
            positions = self._schema.indices(ordered)
            pairs = tuple(zip(ordered, positions))
            kept = [
                row
                for row in self._rows
                if predicate({name: row[p] for name, p in pairs})
            ]
        return Relation(self._schema, kept, validate=False)

    def select_eq(self, name: str, value: Value) -> "Relation":
        """Selection ``σ_{name=value}(R)`` (the paper's ``R_ℓ = σ_{C=ℓ}R``).

        Vectorized via the code columns: the value is looked up in the
        attribute's encoder and the matching rows come from one boolean
        mask over the codes.  Tiny relations without a built
        store use a plain scan (building columns would cost more).
        """
        pos = self._schema.index(name)
        if self._store is None and len(self._rows) < 64:
            return Relation(
                self._schema,
                [row for row in self._rows if row[pos] == value],
                validate=False,
            )
        store = self.columns()
        try:
            code = store.encoder(pos).get(value)
        except TypeError:  # unhashable probe (e.g. a set): scan with ==
            return Relation(
                self._schema,
                [row for row in self._rows if row[pos] == value],
                validate=False,
            )
        if code is None:
            return Relation(self._schema, (), validate=False)
        kept = store.decode_rows(
            np.flatnonzero(store.codes[pos] == code), range(self._schema.arity)
        )
        return Relation(self._schema, kept, validate=False)

    def reorder(self, names: Sequence[str]) -> "Relation":
        """Permute columns into exactly the given order.

        ``names`` must be a permutation of the schema's attribute names.
        Unlike :meth:`project`, the requested order is honored verbatim —
        used to align relations with different schema layouts over the
        same attribute set.
        """
        ordered = tuple(names)
        if set(ordered) != set(self._schema.names) or len(ordered) != self._schema.arity:
            raise SchemaError(
                f"reorder needs a permutation of {list(self._schema.names)}, "
                f"got {list(ordered)}"
            )
        if ordered == self._schema.names:
            return self
        idx = self._schema.indices(ordered)
        return Relation(
            self._schema.project(ordered),
            ((tuple(row[i] for i in idx)) for row in self._rows),
            validate=False,
        )

    def rename(self, mapping: dict[str, str]) -> "Relation":
        """Rename attributes according to ``mapping`` (old → new)."""
        from repro.relations.schema import Attribute

        new_attrs = []
        for attr in self._schema.attributes:
            new_name = mapping.get(attr.name, attr.name)
            new_attrs.append(Attribute(new_name, attr.domain))
        return Relation(RelationSchema(new_attrs), self._rows, validate=False)

    def union(self, other: "Relation") -> "Relation":
        """Set union; schemas must have identical attribute names/order."""
        self._require_compatible(other)
        return Relation(self._schema, self._rows | other._rows, validate=False)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference ``R \\ S``; schemas must match."""
        self._require_compatible(other)
        return Relation(self._schema, self._rows - other._rows, validate=False)

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection; schemas must match."""
        self._require_compatible(other)
        return Relation(self._schema, self._rows & other._rows, validate=False)

    def _require_compatible(self, other: "Relation") -> None:
        if self._schema.names != other._schema.names:
            raise SchemaError(
                "set operation needs identical schemas: "
                f"{list(self._schema.names)} vs {list(other._schema.names)}"
            )

    def extended_with(self, rows: Iterable[Row]) -> "Relation":
        """A new relation holding this relation's rows plus ``rows``.

        The delta-ingest path: unlike :meth:`union` (which unions row
        *sets* and re-factorizes columns lazily), this seeds a
        :class:`~repro.relations.builder.ColumnStoreBuilder` with the
        resident columnar store and dictionary-codes only the appended
        rows, so the result's store extends the existing coding
        in place of a from-scratch rebuild.  The result equals — rows,
        columnar content, and :meth:`fingerprint` — a from-scratch ingest
        of the concatenated rows, for any split of the data into appends
        (pinned by the property tests in ``tests/test_service_append.py``).

        An undecoded relation (a CSV, snapshot or earlier append) also
        hands its sorted row digests on: only the appended rows that are
        new are digested, and their digests are merged in, so the
        result's fingerprint costs O(|Δ|) hashing.  A relation built
        from Python rows may hold repr-distinct values behind one code
        (``1`` and ``True``), which the builder decodes as one, so its
        result digests its rows afresh on first use.

        The result's schema keeps this relation's attribute *names* but
        drops declared domains (appended values may extend them); apply
        :func:`repro.relations.io.infer_integer_domains` to re-derive
        them.  ``self`` is untouched — relations stay immutable; live
        engines and caches keyed on ``self`` remain valid for ``self``.
        """
        from repro.relations.builder import ColumnStoreBuilder

        builder = ColumnStoreBuilder.from_relation(self)
        n_old = builder.rows_distinct
        builder.add_rows(rows)
        result = builder.finish(RelationSchema.from_names(self._schema.names))
        if self._row_cache is None and result._row_cache is None:
            old = self._row_digests()
            new = np.sort(_digest_rows(builder.decoded_rows(n_old)))
            result._digests = np.insert(old, np.searchsorted(old, new), new)
        return result

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def _row_digests(self) -> np.ndarray:
        """The sorted ``S16`` array of per-row digests (cached).

        Each row's digest is ``blake2b(repr(row), digest_size=16)``.  An
        undecoded relation decodes its rows a chunk at a time to digest
        them and keeps none of the tuples.
        """
        digests = self._digests
        if callable(digests):  # a snapshot's digest file, read on first use
            digests = self._digests = digests()
        if digests is None:
            chunks = [self._row_cache]
            if chunks[0] is None:
                store = self._store
                positions = range(self._schema.arity)
                chunks = (
                    store.decode_rows(
                        np.arange(lo, min(lo + _DIGEST_CHUNK_ROWS, store.n_rows)),
                        positions,
                    )
                    for lo in range(0, store.n_rows, _DIGEST_CHUNK_ROWS)
                )
            # The leading empty array types the concatenation when N = 0.
            digests = np.sort(
                np.concatenate([_digest_rows(()), *map(_digest_rows, chunks)])
            )
            self._digests = digests
        return digests

    def fingerprint(self) -> str:
        """A stable content fingerprint of this relation instance.

        The fingerprint is a 32-hex-digit hash over the schema's attribute
        names (in order) and the *set* of rows.  Two relations have equal
        fingerprints iff they have the same attribute names in the same
        order and the same rows — regardless of

        * **ingestion path**: a CSV load for every chunk size, a snapshot
          reload, an append, and a relation built in code from the same
          rows agree;
        * **row iteration order**: per-row digests are *sorted* before
          the final hash, so the hash-seed-dependent ``frozenset`` order
          (and ``PYTHONHASHSEED``) never leaks in — and unlike an
          additive digest combiner, a collision still requires breaking
          the underlying hash;
        * **process**: the value is reproducible across interpreter runs,
          so it can key an on-disk result cache that stays warm over
          service restarts.

        Declared attribute domains are *not* hashed (they are derived
        metadata; ``infer_integer_domains`` does not change the content).
        The hash is one blake2b over the schema digest, the row count and
        the relation's cached sorted array of per-row digests (16 bytes a
        row), all computed once.  That array is what makes appends cheap:
        :meth:`extended_with` merges the digests of the new rows into it,
        and a snapshot stores it, so neither re-hashes the old rows.

        Examples
        --------
        >>> schema = RelationSchema.from_names(["A", "B"])
        >>> a = Relation(schema, [(1, "x"), (2, "y")])
        >>> b = Relation(schema, [(2, "y"), (1, "x")])
        >>> a.fingerprint() == b.fingerprint()
        True
        """
        fp = self._fingerprint
        if fp is None:
            fp = fingerprint_from_digests(self._schema.names, self._row_digests())
            self._fingerprint = fp
        return fp

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def active_domain(self, name: str) -> frozenset[Value]:
        """Values of ``name`` actually present in the relation.

        The *original* stored values: an undecoded relation reads them
        from its store's decoders (which hold exactly the values its rows
        decode to); otherwise the rows are scanned, because a store
        factorized from rows may canonicalize numerically-equal values
        (``True`` → ``1``), which would change labels.
        """
        pos = self._schema.index(name)
        if self._row_cache is None:
            return frozenset(self._store.present_values(pos))
        return frozenset(row[pos] for row in self._rows)

    def active_domain_size(self, name: str) -> int:
        """``|Π_name(R)|`` — the paper's ``d_A``-style quantity."""
        return self.projection_size((name,))

    def group_sizes(self, names: Iterable[str]) -> dict[Row, int]:
        """Alias of :meth:`projection_counts` returning a plain dict."""
        return dict(self.projection_counts(names))

    def sorted_rows(self) -> list[Row]:
        """Rows in a deterministic order (for display and tests)."""
        return sorted(self._rows, key=repr)
