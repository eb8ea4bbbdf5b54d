"""CSV import/export for relation instances — one columnar ingest route.

Plain-text interchange so users can analyze their own tables:

* :func:`read_csv` — load a relation from a CSV file (header row = schema);
  it is :meth:`repro.relations.relation.Relation.from_csv_stream`, which
  feeds the file's raw tokens chunk by chunk into a
  :class:`~repro.relations.builder.ColumnStoreBuilder`: each column codes
  its tokens through a dict, each distinct token is coerced once, and no
  row tuple is built until something reads the rows;
* :func:`iter_csv_chunks` — the same file as chunks of coerced row tuples
  (append bodies and other callers that want values, not codes);
* :func:`sniff_header` — read just the header row;
* :func:`write_csv` — save a relation (deterministic row order);
* :func:`infer_integer_domains` — tighten a loaded relation's schema to the
  active domains, which the paper's bounds need (``d_A``, ``d_B``, …).

Every reader drains one parsing core (:func:`_parse_stream`), so they
**cannot diverge** on dialect, NUL-byte rejection, blank/trailing-line
skipping, ragged-row detection, or error translation — a property pinned
by ``tests/test_streaming.py``.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from itertools import islice
from pathlib import Path
from typing import NamedTuple

from repro.errors import SchemaError
from repro.relations.relation import Relation
from repro.relations.schema import Attribute, RelationSchema, Row

#: Default number of data rows per streamed chunk.  Large enough that
#: per-chunk numpy/dict overheads amortize, small enough that one chunk
#: of raw tokens stays a few MB.
DEFAULT_CHUNK_ROWS = 65536

#: The one NaN every NaN-spelled token (``nan``, ``NaN``, ``-nan``, …)
#: coerces to.  NaN is unequal to itself, so a fresh float per cell would
#: make each NaN cell a distinct value and each row holding one a distinct
#: row; a shared object is one value under the identity-first equality of
#: Python's containers, whichever route (tokens or value rows) codes it.
_NAN = float("nan")


class CsvChunk(NamedTuple):
    """One streamed batch of CSV data rows.

    Attributes
    ----------
    header:
        The file's header row (identical tuple on every chunk).
    start_row:
        0-based index of the chunk's first data row within the file
        (blank lines excluded).
    rows:
        The chunk's parsed row tuples, each value coerced by
        :func:`_coerce` when ``typed``.
    """

    header: tuple[str, ...]
    start_row: int
    rows: list[Row]


def _coerce(text: str):
    """Convert ``text`` to int or float when it cleanly parses as one."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    return _NAN if value != value else value


def _nul_guard(handle, path: Path) -> Iterator[str]:
    """Reject NUL bytes *before* the ``csv`` module sees each line.

    NUL bytes mean binary data, and the stdlib ``csv`` module's handling
    of them varies by Python version (< 3.11 raises its own
    ``Error: line contains NUL``; newer versions silently pass NULs
    through into field values).  Screening the raw lines makes every
    reader reject identically — same message, same line number — on
    every supported interpreter.
    """
    for line_num, line in enumerate(handle, start=1):
        if "\x00" in line:
            raise SchemaError(
                f"{path}: line {line_num} contains a NUL byte; "
                "is the file binary or truncated?"
            )
        yield line


def _parse_stream(path: str | Path, *, delimiter: str) -> Iterator[tuple]:
    """The shared CSV parsing core: yields the header, then raw token rows.

    Single source of truth for dialect, NUL-byte, blank-line, and
    ragged-row handling, plus the translation of ``OSError`` /
    ``UnicodeDecodeError`` / ``csv.Error`` into :class:`SchemaError`.
    Rows are tuples of strings (the garbage collector stops tracking a
    tuple of strings, so a chunk of them held in memory costs it
    nothing); coercion is the consumer's job (per distinct token in the
    builder, per cell in :func:`iter_csv_chunks`).
    """
    path = Path(path)
    try:
        with path.open(newline="") as handle:
            reader = csv.reader(_nul_guard(handle, path), delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(
                    f"{path} is empty; a header row is required"
                ) from None
            width = len(header)
            yield tuple(header)
            for raw in reader:
                if not raw:  # blank line (including a trailing newline)
                    continue
                if len(raw) != width:
                    raise SchemaError(
                        f"{path}: row {reader.line_num} has {len(raw)} fields, "
                        f"header has {width}"
                    )
                yield tuple(raw)
    except OSError as exc:
        reason = exc.strerror or exc
        raise SchemaError(f"cannot read {path}: {reason}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path} is not a readable CSV text file ({exc.reason}); "
            "is it binary?"
        ) from exc
    except csv.Error as exc:
        raise SchemaError(f"{path} is not parseable as CSV: {exc}") from exc


def _token_chunks(
    path: str | Path, *, chunk_rows: int, delimiter: str
) -> Iterator[tuple[tuple[str, ...], list[tuple[str, ...]]]]:
    """``(header, token rows)`` chunks of at most ``chunk_rows`` rows.

    At least one chunk is always yielded — a header-only file produces
    one empty chunk — so consumers learn the schema even when there is
    no data.  Errors (unreadable file, NUL bytes, ragged rows, …)
    surface lazily, as the offending part of the file is reached.
    """
    if chunk_rows < 1:
        raise SchemaError(f"chunk_rows must be >= 1, got {chunk_rows}")
    stream = _parse_stream(path, delimiter=delimiter)
    header = next(stream)
    rows = list(islice(stream, chunk_rows))
    yield header, rows
    while len(rows) == chunk_rows:
        rows = list(islice(stream, chunk_rows))
        if rows:
            yield header, rows


def sniff_header(path: str | Path, *, delimiter: str = ",") -> tuple[str, ...]:
    """Read and return just the header row (shared parsing rules apply)."""
    stream = _parse_stream(path, delimiter=delimiter)
    try:
        return next(stream)
    finally:
        stream.close()


def read_csv(
    path: str | Path,
    *,
    typed: bool = True,
    delimiter: str = ",",
) -> Relation:
    """Load a relation from a CSV file with a header row.

    The columnar route of
    :meth:`~repro.relations.relation.Relation.from_csv_stream` with the
    default chunk size: tokens are dictionary-coded per column, each
    distinct token is coerced once, and the rows stay undecoded until
    something reads them.

    Parameters
    ----------
    path:
        File to read.
    typed:
        If true, values that parse as integers/floats are converted; this
        keeps domains compact for numeric tables.  Strings otherwise.
        Numerically equal values of one column (``1``, ``01``, ``1.0``)
        are one value, kept as the first spelling in the file.
    delimiter:
        CSV delimiter.
    """
    return Relation.from_csv_stream(path, typed=typed, delimiter=delimiter)


def iter_csv_chunks(
    path: str | Path,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    typed: bool = True,
    delimiter: str = ",",
) -> Iterator[CsvChunk]:
    """Stream a CSV file as :class:`CsvChunk` batches of at most ``chunk_rows``.

    Rows are parsed and validated by the shared core and each cell is
    coerced by :func:`_coerce`.  At least one chunk is always yielded — a
    header-only file produces a single empty chunk — so consumers learn
    the schema even when there is no data.  Errors (unreadable file, NUL
    bytes, ragged rows, …) surface lazily, as the offending part of the
    file is reached.
    """
    start = 0
    for header, rows in _token_chunks(
        path, chunk_rows=chunk_rows, delimiter=delimiter
    ):
        values = [tuple(map(_coerce, row)) for row in rows] if typed else rows
        yield CsvChunk(header, start, values)
        start += len(values)


def write_csv(relation: Relation, path: str | Path, *, delimiter: str = ",") -> None:
    """Save ``relation`` to a CSV file with a header row.

    Rows are written in a deterministic (repr-sorted) order so output is
    reproducible.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(relation.schema.names)
        writer.writerows(relation.sorted_rows())


def infer_integer_domains(relation: Relation) -> Relation:
    """Return ``relation`` with each attribute's domain set to its active domain.

    After loading external data the schema has unconstrained attributes;
    the paper's random-model bounds need explicit domain sizes.  This uses
    the *active* domain ``Π_X(R)`` as the declared domain — the tightest
    choice, matching the paper's ``d_A = |Π_A(R)|`` convention.  The
    result shares the relation's rows, columnar store, fingerprint and
    row digests (declared domains change none of them), so undecoded
    rows stay undecoded.
    """
    attrs = [
        Attribute(name, relation.active_domain(name))
        for name in relation.schema.names
    ]
    return Relation._from_store(
        RelationSchema(attrs),
        relation._store,
        rows=relation._row_cache,
        fingerprint=relation._fingerprint,
        digests=relation._digests,
    )
