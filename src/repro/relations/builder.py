"""Columnar ingestion: build a relation chunk-by-chunk from codes.

:class:`ColumnStoreBuilder` is the one route by which CSV data becomes a
relation (:func:`repro.relations.io.read_csv` and
:meth:`~repro.relations.relation.Relation.from_csv_stream` drain it) and
the route appends take (:meth:`~repro.relations.relation.Relation.extended_with`).
Each chunk is dictionary-coded column by column:

* :meth:`ColumnStoreBuilder.add_tokens` takes raw CSV token rows.  Each
  column codes its tokens through a ``token → code`` dict that persists
  across chunks; only a *new distinct* token is coerced and looked up in
  the column's ``value → code`` encoder, so ``"1"``, ``"01"`` and
  ``"1.0"`` share one code and keep the first value seen;
* :meth:`ColumnStoreBuilder.add_rows` takes rows of values.

Both lookups are :class:`_Lookup` dicts, which code a missing key on first
sight, so a chunk's column is coded in one pass over its cells.

The value encoders use Python's hash-based equality, exactly like a
relation's row ``frozenset`` (``1 == True == 1.0`` collapse).

Deduplication is vectorized: each chunk's code rows are deduplicated
together with the distinct rows retained so far by one unstable argsort of
their mixed-radix keys (:func:`~repro.relations.relation._distinct_row_indices`);
only when that key would overflow int64 does a hash set of code tuples
take over.  The builder therefore holds one chunk of raw tokens plus state
proportional to the *distinct* content — one ``int64`` array of distinct
code rows and one dictionary entry per distinct token and value — never
the file's Python tuples.

:meth:`ColumnStoreBuilder.finish` decodes nothing.  It recodes each
column's distinct values the way the column store codes a column of values
(:func:`~repro.relations.columns._encode_column`: identity for small
non-negative ints, sorted for homogeneous numeric or string columns,
first-seen otherwise), one ``int32`` gather per column, so the count
arrays behind every entropy are those of factorizing the decoded rows, for
any chunk size.  The relation's store is seeded from those codes, and its row
tuples are decoded only when something reads them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

import numpy as np

from repro.errors import SchemaError
from repro.relations.columns import (
    ColumnStore,
    _encode_column,
    as_codes,
    code_dtype,
)
from repro.relations.io import _coerce
from repro.relations.relation import _distinct_row_indices
from repro.relations.schema import RelationSchema, Row


def _canonical_column(
    codes: np.ndarray, values: list, n_rows: int
) -> tuple[np.ndarray, int, list]:
    """Recode one column; return ``(codes, card, decoder)``.

    ``codes`` index ``values``, the column's values in first-seen order.
    The result codes the present values as :func:`_encode_column` codes
    them and ``decoder[code]`` is the original value; a code no value
    takes (identity coding admits gaps) decodes to the code itself.
    """
    present = np.zeros(len(values), dtype=bool)
    present[codes] = True
    if not present.all():  # values an appended-to store no longer holds
        kept = np.flatnonzero(present)
        compact = np.zeros(len(values), dtype=code_dtype(len(kept)))
        compact[kept] = np.arange(len(kept))
        codes = compact[codes]
        values = [values[c] for c in kept.tolist()]
    target, card, _ = _encode_column(values, n_rows)
    if card < len(values):
        # numpy merged values Python keeps apart (2**53 + 1 vs 2.0**53):
        # keep them apart in first-seen order.
        card = len(values)
        target = as_codes(np.arange(card), card)
    decoder = list(range(card))
    for value, code in zip(values, target.tolist()):
        decoder[code] = value
    return target[codes], card, decoder


class _Lookup(dict):
    """A ``key → code`` dict that codes a key it lacks on first lookup.

    ``miss(key)`` gives a missing key's code, which the lookup keeps, so
    coding a column is one pass of ``lookup[cell]`` over its cells.
    """

    __slots__ = ("miss",)

    def __init__(self, miss, items=()) -> None:
        super().__init__(items)
        self.miss = miss

    def __missing__(self, key):
        code = self[key] = self.miss(key)
        return code


def _value_lookup(decoder: list, items=()) -> _Lookup:
    """A column's ``value → code`` encoder: a new value takes the next code."""

    def append(value) -> int:
        decoder.append(value)
        return len(decoder) - 1

    return _Lookup(append, items)


class ColumnStoreBuilder:
    """Dictionary-code rows chunk-by-chunk into a columnar relation.

    Examples
    --------
    >>> from repro.relations.schema import RelationSchema
    >>> builder = ColumnStoreBuilder(2)
    >>> builder.add_tokens([["1", "x"], ["2", "y"]])
    >>> builder.add_rows([(1.0, "x"), (3, "z")])
    >>> r = builder.finish(RelationSchema.from_names(["A", "B"]))
    >>> len(r)  # duplicates collapse, like Relation(...)
    3
    >>> sorted(r.rows())
    [(1, 'x'), (2, 'y'), (3, 'z')]
    """

    def __init__(self, arity: int) -> None:
        if arity < 1:
            raise SchemaError(f"arity must be >= 1, got {arity}")
        self._arity = arity
        self._decoders: list[list] = [[] for _ in range(arity)]
        self._encoders = [_value_lookup(d) for d in self._decoders]
        self._tokens = [_Lookup(None) for _ in range(arity)]
        self._distinct = np.empty((0, arity), dtype=np.int64)
        self._seen: set[tuple[int, ...]] | None = None
        self._n = 0
        self._finished = False

    @classmethod
    def from_relation(cls, relation) -> "ColumnStoreBuilder":
        """Seed a builder with an existing relation's coded content.

        The delta-ingest primitive: the relation's columnar store is
        adopted *as codes* — its rows become the builder's distinct rows
        and its dictionaries become the builder's encoders — so appending
        rows extends the dictionary coding instead of re-factorizing the
        resident data; ``finish()`` then recodes canonically, so the
        result equals a from-scratch ingest of the concatenated rows.

        Encoders are rebuilt from dense per-column ``code → value``
        decoders (:func:`repro.relations.persist._derive_decoders`) and
        hold only the values some row takes.  Identity-coded columns
        admit code gaps, and a gap at code ``c`` decodes to ``int(c)``;
        left out of the encoder, it cannot capture an appended value
        equal to it (``1.0`` for a gap at ``1``), which instead takes a
        new code and keeps its own spelling, as in a from-scratch ingest.
        ``finish()`` drops the gap codes again.
        """
        from repro.relations.persist import _derive_decoders

        store = relation.columns()
        arity = len(store.cards)
        builder = cls(arity)
        builder._decoders = [list(d) for d in _derive_decoders(relation)]
        builder._encoders = [
            _value_lookup(
                decoder,
                {
                    decoder[code]: code
                    for code in np.flatnonzero(
                        np.bincount(store.codes[j], minlength=len(decoder))
                    ).tolist()
                },
            )
            for j, decoder in enumerate(builder._decoders)
        ]
        if store.n_rows:
            builder._distinct = np.stack(
                [
                    np.asarray(store.codes[j], dtype=np.int64)
                    for j in range(arity)
                ],
                axis=1,
            )
        builder._n = store.n_rows
        return builder

    @property
    def rows_ingested(self) -> int:
        """Number of rows added so far (before deduplication)."""
        return self._n

    @property
    def rows_distinct(self) -> int:
        """Number of distinct rows retained so far."""
        return len(self._distinct)

    def cardinalities(self) -> tuple[int, ...]:
        """Distinct values seen per column so far."""
        return tuple(len(d) for d in self._decoders)

    def decoded_rows(self, start: int) -> list[tuple]:
        """The retained distinct rows from position ``start`` on, decoded.

        Retained rows keep their arrival order, so after
        :meth:`from_relation` the rows past the relation's length are
        exactly the appended rows it did not already hold.  Each value is
        the one :meth:`finish`'s relation decodes that cell to.
        """
        fresh = self._distinct[start:]
        return list(
            zip(
                *(
                    [decoder[code] for code in fresh[:, j].tolist()]
                    for j, decoder in enumerate(self._decoders)
                )
            )
        )

    def add_tokens(
        self, rows: Iterable[Sequence[str]], typed: bool = True
    ) -> None:
        """Ingest one chunk of raw CSV token rows.

        Each column codes its tokens through a ``token → code`` dict kept
        across chunks; with ``typed``, each new distinct token is coerced
        once (ints and floats where they parse cleanly), and without it
        the token is the value.  Only integer codes of the chunk's
        globally new distinct rows are retained.
        """
        for tokens, encoder in zip(self._tokens, self._encoders):
            tokens.miss = (
                (lambda token, encoder=encoder: encoder[_coerce(token)])
                if typed
                else encoder.__getitem__
            )
        self._add(rows, self._tokens)

    def add_rows(self, rows: Iterable[Sequence]) -> None:
        """Ingest one chunk of row tuples of values.

        Only integer codes of the chunk's globally new distinct rows (and
        any newly seen dictionary values) are retained; the chunk's
        Python objects can be garbage-collected by the caller immediately
        after this returns.
        """
        self._add(rows, self._encoders)

    def _add(self, rows, lookups: list[_Lookup]) -> None:
        """Code one chunk column by column through the ``lookups[j]`` dicts.

        A cell new to its column's lookup is coded by the lookup's
        ``miss``, so each column is one pass over its cells.
        """
        if self._finished:
            raise SchemaError("builder already finished")
        rows = rows if isinstance(rows, list) else list(rows)
        bad = set(map(len, rows)) - {self._arity}
        if bad:
            raise SchemaError(
                f"row has {min(bad)} fields, builder expects {self._arity}"
            )
        if not rows:
            return
        # itemgetter, not zip(*rows): zip holds one tracked iterator per
        # row, which drives full garbage collections.
        self._add_codes(
            [
                np.fromiter(
                    map(lookup.__getitem__, map(itemgetter(j), rows)),
                    np.int64,
                    len(rows),
                )
                for j, lookup in enumerate(lookups)
            ]
        )

    def _add_codes(self, columns: list[np.ndarray]) -> None:
        """Retain the globally new distinct rows of one coded chunk."""
        chunk = np.stack(columns, axis=1)
        self._n += chunk.shape[0]
        if self._seen is None:
            # Retained rows come first and are distinct, so the ascending
            # first occurrences keep them all, then the chunk's new rows.
            combined = np.concatenate([self._distinct, chunk])
            keep = _distinct_row_indices(combined, self.cardinalities())
            if keep is not None:
                self._distinct = (
                    combined if len(keep) == len(combined) else combined[keep]
                )
                return
            # The mixed-radix key would overflow int64: hash from here on.
            self._seen = set(map(tuple, self._distinct.tolist()))
        seen = self._seen
        fresh = []
        for row in map(tuple, chunk.tolist()):
            if row not in seen:
                seen.add(row)
                fresh.append(row)
        if fresh:
            self._distinct = np.concatenate(
                [self._distinct, np.asarray(fresh, dtype=np.int64)]
            )

    def finish(self, schema: RelationSchema):
        """Assemble the relation from the distinct code rows; decode nothing.

        No dedup pass runs here — rows were deduplicated as they arrived.
        Each column is recoded canonically (see the module docstring) and
        the relation's columnar store is seeded from the result, so
        downstream entropy/grouping queries skip per-column factorization
        and the row tuples are decoded only on tuple-level access.
        """
        from repro.relations.relation import Relation

        if self._finished:
            raise SchemaError("builder already finished")
        self._finished = True
        if schema.arity != self._arity:
            raise SchemaError(
                f"schema has {schema.arity} attributes, builder was sized "
                f"for {self._arity}"
            )
        arr = self._distinct
        n_rows = len(arr)
        if not n_rows:
            return Relation(schema, [], validate=False)
        columns, cards, decoders = [], [], []
        for j in range(self._arity):
            codes, card, decoder = _canonical_column(
                arr[:, j], self._decoders[j], n_rows
            )
            columns.append(codes)
            cards.append(card)
            decoders.append(decoder)
        store = ColumnStore.from_coded_columns(None, columns, cards, decoders)
        return Relation._from_store(schema, store)


def relation_from_chunks(
    schema_names: Sequence[str], chunks: Iterable[Sequence[Row]]
):
    """Convenience: feed row chunks through a builder and finish.

    ``schema_names`` become the relation schema
    (:meth:`RelationSchema.from_names`); each element of ``chunks`` is an
    iterable of row tuples.
    """
    schema = RelationSchema.from_names(schema_names)
    builder = ColumnStoreBuilder(schema.arity)
    for chunk in chunks:
        builder.add_rows(chunk)
    return builder.finish(schema)
