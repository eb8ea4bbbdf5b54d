"""Persistent columnar snapshots: zero-parse on-disk relations.

A **snapshot** is a directory holding one relation in exactly the form
the in-memory :class:`~repro.relations.columns.ColumnStore` wants it:

* ``col-NNN.npy`` — one contiguous code array per attribute, in the
  narrowest unsigned dtype that holds its codes (:func:`code_dtype_for`),
  written with :func:`numpy.save` so it reloads with
  ``numpy.load(..., mmap_mode="r")`` — no parsing, no factorization,
  no per-value coercion.  The load still makes one O(N) pass per
  column: the in-memory codes are signed ``int32``
  (:func:`~repro.relations.columns.as_codes`), so every unsigned
  on-disk array (and every int64 array of a version-1 snapshot) is cast
  into a fresh in-memory copy;
* ``meta.json`` — format marker + version, the schema's attribute
  names, row count, per-column cardinalities, per-column **decoder**
  lists (``decoder[code] = value``, values tagged by type so ints,
  floats, strings, bools, and ``None`` round-trip exactly — including
  ``nan``/``inf`` via ``repr``), the content
  :meth:`~repro.relations.relation.Relation.fingerprint`, and optional
  provenance (source CSV path + size + mtime);
* ``digests.npy`` (optional) — the relation's sorted per-row digests,
  16 bytes a row, from which the fingerprint is one hash.  A load
  adopts them only when they are well formed, strictly sorted and hash
  to the recorded fingerprint, so an appended-to reload digests only
  the appended rows.

Loading rebuilds the relation through
:meth:`ColumnStore.from_coded_columns` — the same zero-factorization
path the streaming builder uses — so a reloaded dataset is immediately
query-ready and **bit-identical** to the one that was saved: same
fingerprint, same rows, same cardinalities, same decoders.

Fidelity is enforced at *save* time, in O(Σ cards): every decoder value
must read back from the metadata JSON with the same ``repr``, which is
what each row's digest hashes.  A relation built in code from Python
rows additionally has its on-disk form decoded back and re-fingerprinted
(O(N)), since its rows may hold repr-distinct values behind one code
(the ``1 == True == 1.0`` hash collapse).  A relation that fails either
check raises :class:`~repro.errors.SnapshotError` *instead of writing*,
so a snapshot on disk is always trustworthy and loads do not pay an O(N)
re-hash.  Loads verify structure (format, version, dtype, shapes, code
ranges, duplicate-free decode) plus the recorded fingerprint string
against the caller's expectation; ``verify_content=True`` additionally
re-hashes the decoded rows (used by tests and one-off audits).

Durability follows the ResultCache spill discipline: every file is
flushed + fsynced inside a temporary sibling directory which is then
atomically renamed into place — a hard kill can never leave a torn
snapshot under the published name.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import threading
import time
from pathlib import Path

import numpy as np

from repro.errors import SnapshotError
from repro.relations.columns import ColumnStore, as_codes
from repro.relations.io import _NAN
from repro.relations.schema import Attribute, RelationSchema

FORMAT_NAME = "repro-columnar-snapshot"
#: Current write version.  Version 1 stored every code column as int64;
#: version 2 narrows each column to the smallest unsigned dtype that can
#: hold ``card - 1`` (uint8/16/32, falling back to int64 past 2**32).
#: Loads accept both and hand the engine the store's in-memory dtype:
#: int32 code arrays (int64 past 2**31), see
#: :func:`repro.relations.columns.code_dtype`.
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)
META_FILE = "meta.json"
#: Optional: the relation's sorted row digests (see
#: :meth:`~repro.relations.relation.Relation.fingerprint`).  Snapshots
#: without it load as before; the digests are then recomputed on demand.
DIGESTS_FILE = "digests.npy"
MEMO_FILE = "memo.json"
MEMO_FORMAT_NAME = "repro-entropy-memo"
#: The memo sidecar format is versioned independently of the snapshot
#: format (its shape did not change when snapshots learned narrow
#: dtypes), so v1 sidecars written beside v1 snapshots stay readable.
MEMO_FORMAT_VERSION = 1


def code_dtype_for(card: int) -> np.dtype:
    """Narrowest dtype holding codes in ``[0, card)`` (version-2 layout).

    An empty column (``card == 0``) stores no codes; uint8 is used so
    the on-disk array still has a well-defined element type.
    """
    if card <= 1 << 8:
        return np.dtype(np.uint8)
    if card <= 1 << 16:
        return np.dtype(np.uint16)
    if card <= 1 << 32:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


# ----------------------------------------------------------------------
# Shared crash-safe write helper (also used by the service's cache and
# registry spills).
# ----------------------------------------------------------------------
def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` with fsync-before-atomic-rename.

    The temp file lives beside the target, is flushed and fsynced
    before the rename, so readers either see the complete new content
    or whatever was there before — never a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        path.name + f".tmp{os.getpid()}-{threading.get_ident()}"
    )
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms refusing O_RDONLY on directories
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Decoder value (de)serialization — tagged so types survive JSON
# ----------------------------------------------------------------------
def _tag_value(value) -> list:
    """``value`` → JSON-safe tagged pair; raises on unsupported types."""
    if value is None:
        return ["n"]
    if isinstance(value, bool):  # before int: bool is an int subclass
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        # repr is the shortest exact round-trip and covers nan/inf,
        # which strict JSON cannot carry as numbers.
        return ["f", repr(value)]
    if isinstance(value, str):
        return ["s", value]
    raise SnapshotError(
        f"cannot snapshot a value of type {type(value).__name__!r} "
        f"({value!r}); snapshots support int, float, str, bool, None"
    )


def _untag_value(tagged):
    if (
        not isinstance(tagged, list)
        or not tagged
        or tagged[0] not in ("n", "b", "i", "f", "s")
    ):
        raise SnapshotError(f"malformed decoder value {tagged!r}")
    kind = tagged[0]
    if kind == "n":
        return None
    if len(tagged) != 2:
        raise SnapshotError(f"malformed decoder value {tagged!r}")
    payload = tagged[1]
    if kind == "b":
        if not isinstance(payload, bool):
            raise SnapshotError(f"malformed bool decoder value {tagged!r}")
        return payload
    if kind == "i":
        if isinstance(payload, bool) or not isinstance(payload, int):
            raise SnapshotError(f"malformed int decoder value {tagged!r}")
        return payload
    if kind == "f":
        try:
            value = float(payload)
        except (TypeError, ValueError) as exc:
            raise SnapshotError(
                f"malformed float decoder value {tagged!r}"
            ) from exc
        # The CSV reader's one NaN, so values appended after a reload
        # find the NaN code instead of taking a new one.
        return _NAN if value != value else value
    if not isinstance(payload, str):
        raise SnapshotError(f"malformed str decoder value {tagged!r}")
    return payload


def _object_array(values, count: int) -> np.ndarray:
    """1-D object array from ``values`` (safe for any element types)."""
    return np.fromiter(values, dtype=object, count=count)


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def _derive_decoders(relation) -> list[list]:
    """Per-column ``code → original value`` lists from the live relation.

    Values come from the relation's actual row tuples (not the store's
    internal decoders) so identity- and unique-coded columns recover
    the *original* Python objects (an int column ingested as float64 by
    numpy would otherwise decode ``2`` as ``2.0``).  Codes never hit by
    any row (identity coding admits gaps) decode to the code itself.  A
    relation whose rows are undecoded was seeded from coded columns (a
    CSV or snapshot load), whose decoders already are exactly that.
    """
    store = relation.columns()
    if relation._row_cache is None:
        return [list(decoder) for decoder in store._decoders]
    row_list = store.row_list
    n = len(row_list)
    decoders: list[list] = []
    for j, card in enumerate(store.cards):
        dec = np.empty(card, dtype=object)
        if n:
            values = _object_array((row[j] for row in row_list), n)
            codes = store.codes[j]
            mask = np.zeros(card, dtype=bool)
            dec[codes] = values
            mask[codes] = True
            for code in np.flatnonzero(~mask).tolist():
                dec[code] = int(code)  # identity gap: value == code
        decoders.append(dec.tolist())
    return decoders


def _check_decoders_round_trip(decoders: list[list], stored: list[list]) -> None:
    """Require every decoder value to read back as itself, and apart.

    ``stored`` is the tagged decoders as parsed back from the metadata
    JSON.  Row digests hash ``repr(row)``, so equal value ``repr``s mean
    the reloaded rows hash exactly as the saved ones.  Two codes of one
    column whose values save as the same tag (two distinct NaN objects)
    would decode to one value, merging rows that a reload then rejects
    as duplicates.  O(Σ cards).
    """
    for j, (decoder, tags) in enumerate(zip(decoders, stored)):
        for value, tag in zip(decoder, tags):
            try:
                same = repr(_untag_value(tag)) == repr(value)
            except SnapshotError:
                same = False
            if not same:
                raise SnapshotError(
                    f"value {value!r} of type {type(value).__name__!r} does "
                    "not round-trip through the snapshot's decoders; keep "
                    "the CSV source for this dataset"
                )
        if len({tuple(tag) for tag in tags}) < len(tags):
            raise SnapshotError(
                f"column {j} holds distinct values that save as one "
                "decoder value (such as two NaN objects), so a reload would "
                "merge their rows; keep the CSV source for this dataset"
            )


def save_snapshot(
    relation,
    path: str | Path,
    *,
    source: str | None = None,
    extra: dict | None = None,
) -> Path:
    """Persist ``relation`` as a verified columnar snapshot at ``path``.

    ``path`` becomes a directory (replaced atomically if it already
    exists).  ``source`` records provenance (the CSV the relation was
    ingested from) with its current size/mtime so warm restarts can
    cheaply detect an unchanged file; ``extra`` is carried verbatim in
    the metadata (must be JSON-serializable).  The relation's sorted row
    digests are written beside the columns (``digests.npy``), so a
    reloaded version appends without re-hashing its rows.

    Raises :class:`~repro.errors.SnapshotError` when the relation's
    values cannot round-trip bit-identically (nothing is written) and
    on I/O failure (wrapping the underlying ``OSError``).
    """
    path = Path(path)
    store = relation.columns()
    decoders = _derive_decoders(relation)
    digests = relation._row_digests()
    fingerprint = relation.fingerprint()

    tagged = [[_tag_value(v) for v in dec] for dec in decoders]
    column_files = [f"col-{j:03d}.npy" for j in range(len(store.cards))]
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "attributes": list(relation.schema.names),
        "n_rows": len(relation),
        "cards": [int(c) for c in store.cards],
        "columns": column_files,
        "decoders": tagged,
        "created_at": time.time(),
    }
    if source is not None:
        provenance: dict = {"path": str(source)}
        try:
            stat = os.stat(source)
            provenance["size"] = stat.st_size
            provenance["mtime_ns"] = stat.st_mtime_ns
        except OSError:
            pass  # provenance is advisory; the fingerprint is the truth
        meta["source"] = provenance
    if extra:
        meta["extra"] = extra
    # Compact: ``indent`` would force json's pure-Python encoder (about
    # 7x slower on a few hundred decoder values).
    meta_text = json.dumps(meta, sort_keys=True) + "\n"

    # Fidelity gate, before anything is published.  The values a reload
    # decodes are the decoders as read back from this very text.
    _check_decoders_round_trip(decoders, json.loads(meta_text)["decoders"])
    if relation._row_cache is not None:
        # Rows built in code may hold repr-distinct values behind one
        # code (1 vs True vs 1.0), and ``_derive_decoders`` keeps one of
        # them: decode the on-disk form back and compare fingerprints.
        # An undecoded relation's decoders are its values, so the check
        # above already covers it.
        rebuilt = _assemble(
            relation.schema.names,
            [np.asarray(col) for col in store.codes],
            list(store.cards),
            decoders,
            len(relation),
            expected_fingerprint=None,
            domains=False,
        )
        if rebuilt.fingerprint() != fingerprint:
            raise SnapshotError(
                f"relation does not round-trip through columnar decoding "
                f"(fingerprint {fingerprint} != {rebuilt.fingerprint()}); "
                "numerically-colliding values (e.g. 1 vs True vs 1.0) share "
                "a code — keep the CSV source for this dataset"
            )

    tmp = path.with_name(
        path.name + f".tmp{os.getpid()}-{threading.get_ident()}"
    )
    try:
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
    except OSError as exc:
        raise SnapshotError(
            f"cannot create snapshot at {path}: {exc}"
        ) from exc
    try:
        for j, name in enumerate(column_files):
            # Narrow losslessly: codes live in [0, card) by construction
            # (the range is re-verified against the same card on load).
            narrow = code_dtype_for(int(store.cards[j]))
            with open(tmp / name, "wb") as handle:
                np.save(
                    handle,
                    np.ascontiguousarray(
                        store.codes[j].astype(narrow, copy=False)
                    ),
                )
                handle.flush()
                os.fsync(handle.fileno())
        with open(tmp / DIGESTS_FILE, "wb") as handle:
            np.save(handle, digests)
            handle.flush()
            os.fsync(handle.fileno())
        with open(tmp / META_FILE, "w", encoding="utf-8") as handle:
            handle.write(meta_text)
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_dir(tmp)
        if path.exists():
            shutil.rmtree(path)
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException as exc:
        shutil.rmtree(tmp, ignore_errors=True)
        if isinstance(exc, OSError):
            raise SnapshotError(
                f"cannot write snapshot at {path}: {exc}"
            ) from exc
        raise
    return path


# ----------------------------------------------------------------------
# Fingerprint chains (delta ingest)
# ----------------------------------------------------------------------
#: ``meta["extra"]`` key carrying a dataset's version chain.
CHAIN_KEY = "chain"


def validate_chain(chain) -> dict:
    """Structurally validate a fingerprint chain; return it normalized.

    A chain records a live dataset's append history:
    ``{"base": <fp>, "chunks": [<fp>, ...], "version": 1 + len(chunks)}``
    — the base ingest's content fingerprint plus one fingerprint per
    appended delta, in order.  The *current* content fingerprint is not
    part of the chain (it keys the snapshot/registry entry itself); the
    chain is the provenance trail proving how that content was reached.
    Raises :class:`~repro.errors.SnapshotError` on anything malformed.
    """

    def _is_fp(value) -> bool:
        return isinstance(value, str) and len(value) == 32

    if (
        not isinstance(chain, dict)
        or not _is_fp(chain.get("base"))
        or not isinstance(chain.get("chunks"), list)
        or not all(_is_fp(fp) for fp in chain["chunks"])
        or chain.get("version") != 1 + len(chain["chunks"])
    ):
        raise SnapshotError(f"malformed fingerprint chain: {chain!r}")
    return {
        "base": chain["base"],
        "chunks": [str(fp) for fp in chain["chunks"]],
        "version": int(chain["version"]),
    }


def chain_from_meta(meta: dict) -> dict | None:
    """The snapshot's fingerprint chain, or ``None`` for version-1 data.

    Reads ``meta["extra"]["chain"]`` (see :data:`CHAIN_KEY`) as written
    by the registry's append path; a malformed chain raises
    :class:`~repro.errors.SnapshotError` rather than silently dropping
    provenance.
    """
    extra = meta.get("extra")
    if not isinstance(extra, dict) or CHAIN_KEY not in extra:
        return None
    return validate_chain(extra[CHAIN_KEY])


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def read_snapshot_meta(path: str | Path) -> dict:
    """Parse and structurally validate a snapshot's ``meta.json``.

    Raises :class:`~repro.errors.SnapshotError` on anything malformed —
    missing file, bad JSON, wrong format marker, unsupported version,
    or inconsistent schema/cardinality/decoder structure.
    """
    path = Path(path)
    meta_path = path / META_FILE
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    except ValueError as exc:
        raise SnapshotError(
            f"snapshot {path} has corrupt metadata: {exc}"
        ) from exc
    if not isinstance(meta, dict) or meta.get("format") != FORMAT_NAME:
        raise SnapshotError(
            f"{path} is not a {FORMAT_NAME} snapshot "
            f"(format={meta.get('format') if isinstance(meta, dict) else meta!r})"
        )
    if meta.get("version") not in SUPPORTED_VERSIONS:
        raise SnapshotError(
            f"snapshot {path} has format version {meta.get('version')!r}; "
            f"this build reads versions {SUPPORTED_VERSIONS}"
        )
    attributes = meta.get("attributes")
    if (
        not isinstance(attributes, list)
        or not attributes
        or not all(isinstance(a, str) for a in attributes)
    ):
        raise SnapshotError(f"snapshot {path} has a malformed attribute list")
    arity = len(attributes)
    n_rows = meta.get("n_rows")
    if isinstance(n_rows, bool) or not isinstance(n_rows, int) or n_rows < 0:
        raise SnapshotError(f"snapshot {path} has a malformed row count")
    fingerprint = meta.get("fingerprint")
    if not isinstance(fingerprint, str) or len(fingerprint) != 32:
        raise SnapshotError(f"snapshot {path} has a malformed fingerprint")
    cards = meta.get("cards")
    if (
        not isinstance(cards, list)
        or len(cards) != arity
        or not all(
            not isinstance(c, bool) and isinstance(c, int) and c >= 0
            for c in cards
        )
    ):
        raise SnapshotError(f"snapshot {path} has malformed cardinalities")
    columns = meta.get("columns")
    if (
        not isinstance(columns, list)
        or len(columns) != arity
        or not all(
            isinstance(name, str) and Path(name).name == name
            for name in columns
        )
    ):
        raise SnapshotError(f"snapshot {path} has a malformed column list")
    decoders = meta.get("decoders")
    if (
        not isinstance(decoders, list)
        or len(decoders) != arity
        or not all(
            isinstance(dec, list) and len(dec) == card
            for dec, card in zip(decoders, cards)
        )
    ):
        raise SnapshotError(
            f"snapshot {path} has decoders inconsistent with its "
            "cardinalities"
        )
    return meta


def _assemble(
    names,
    columns: list[np.ndarray],
    cards: list[int],
    decoders: list[list],
    n_rows: int,
    *,
    expected_fingerprint: str | None,
    domains: bool,
    lazy: bool = False,
    digests=None,
):
    """Build a Relation from coded columns + decoders (shared save/load).

    ``digests`` (the sorted row-digest array, or a loader returning it)
    is handed to the relation as is.

    ``lazy=True`` skips decoding the Python row tuples entirely — the
    relation carries only its coded store, and
    :attr:`~repro.relations.columns.ColumnStore.row_list` decodes on
    first tuple-level access.  Store-level consumers (entropy engines,
    groupings) therefore reload with zero per-row work.
    """
    from repro.relations.relation import Relation

    decoded = []
    attrs = []
    for name, codes, card, decoder in zip(names, columns, cards, decoders):
        dec_arr = _object_array(decoder, card)
        if not lazy:
            decoded.append(dec_arr[codes].tolist() if n_rows else [])
        if domains:
            # An Attribute may not declare an *empty* domain, so an
            # empty relation keeps open-domain attributes.
            if n_rows:
                present = np.unique(codes)
                attrs.append(
                    Attribute(name, frozenset(dec_arr[present].tolist()))
                )
            else:
                attrs.append(Attribute(name, None))
    if lazy:
        row_list = None
        rows = None
    else:
        row_list = tuple(zip(*decoded)) if n_rows else ()
        rows = frozenset(row_list)
        if len(rows) != n_rows:
            raise SnapshotError(
                f"decoded rows are not pairwise distinct ({len(rows)} of "
                f"{n_rows}); the snapshot is corrupt"
            )
    schema = (
        RelationSchema(attrs) if domains else RelationSchema.from_names(names)
    )
    return Relation._from_store(
        schema,
        ColumnStore.from_coded_columns(row_list, columns, cards, decoders),
        rows=rows,
        fingerprint=expected_fingerprint,
        digests=digests,
    )


def _load_digests(
    path: Path, names: list[str], n_rows: int, fingerprint: str
) -> np.ndarray | None:
    """A snapshot's sorted row digests, or ``None`` when not trustworthy.

    The file is adopted only when it holds ``n_rows`` 16-byte digests in
    strictly ascending order whose hash reproduces the recorded
    ``fingerprint``; anything else (absent, unreadable, corrupt) is
    ignored, and the relation digests its rows instead.
    """
    from repro.relations.relation import DIGEST_DTYPE, fingerprint_from_digests

    try:
        digests = np.load(path / DIGESTS_FILE, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if (
        digests.dtype != DIGEST_DTYPE
        or digests.shape != (n_rows,)
        or not bool(np.all(digests[1:] > digests[:-1]))
        or fingerprint_from_digests(names, digests) != fingerprint
    ):
        return None
    return digests


def load_snapshot(
    path: str | Path,
    *,
    mmap: bool = True,
    expected_fingerprint: str | None = None,
    verify_content: bool = False,
    domains: bool = False,
):
    """Load a relation from a snapshot directory — zero parsing.

    Structural verification always runs: format marker + version, array
    dtype/shape, code-range-vs-cardinality, decoder consistency.  The
    Python row tuples are decoded **lazily** on first tuple-level access
    (a non-duplicate-free decode is rejected there), so store-level
    consumers — the entropy engine behind every mine/analyze — reload
    with zero per-row work.  ``expected_fingerprint`` additionally pins
    the recorded content fingerprint (the registry knows what it
    admitted); ``verify_content=True`` re-hashes the decoded rows
    against the recorded fingerprint (O(N); tests and audits only —
    save already guaranteed it).  ``mmap`` maps the code arrays
    read-only instead of reading them into memory first; either way
    each column is range-checked and cast to its ``int32`` in-memory
    form, one O(N) pass and one O(N) copy per column.  ``domains=True
    declares each attribute's active domain on the schema (equivalent
    to :func:`~repro.relations.io.infer_integer_domains`, computed
    vectorized from the decoders).

    Raises :class:`~repro.errors.SnapshotError` on any mismatch.
    """
    path = Path(path)
    meta = read_snapshot_meta(path)
    fingerprint = meta["fingerprint"]
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise SnapshotError(
            f"snapshot {path} holds fingerprint {fingerprint}, expected "
            f"{expected_fingerprint}"
        )
    n_rows = meta["n_rows"]
    cards = meta["cards"]
    version = meta["version"]
    columns: list[np.ndarray] = []
    for name, card in zip(meta["columns"], cards):
        try:
            arr = np.load(
                path / name,
                mmap_mode="r" if mmap else None,
                allow_pickle=False,
            )
        except (OSError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot column {path / name} is unreadable: {exc}"
            ) from exc
        expected_dtype = (
            np.dtype(np.int64) if version == 1 else code_dtype_for(card)
        )
        if (
            arr.dtype != expected_dtype
            or arr.ndim != 1
            or arr.shape[0] != n_rows
        ):
            raise SnapshotError(
                f"snapshot column {path / name} has dtype {arr.dtype} and "
                f"shape {arr.shape}; expected {expected_dtype} of shape "
                f"({n_rows},)"
            )
        if n_rows and (int(arr.min()) < 0 or int(arr.max()) >= card):
            raise SnapshotError(
                f"snapshot column {path / name} has codes outside "
                f"[0, {card}); the snapshot is corrupt"
            )
        # The in-memory contract is int32 codes (int64 past 2**31), signed
        # because ColumnStore.packed_key does mixed-radix arithmetic that
        # would wrap in narrow unsigned arrays.  Loads convert with one
        # vectorized cast per column: zero-parse, but an O(N) copy.
        columns.append(as_codes(arr, card))
    decoders = [
        [_untag_value(tagged) for tagged in dec] for dec in meta["decoders"]
    ]
    relation = _assemble(
        meta["attributes"],
        columns,
        cards,
        decoders,
        n_rows,
        expected_fingerprint=fingerprint,
        domains=domains,
        lazy=True,
        # Read on first use (an append or a save), not on every load.
        digests=functools.partial(
            _load_digests, path, meta["attributes"], n_rows, fingerprint
        ),
    )
    if verify_content:
        relation._fingerprint = None
        relation._digests = None
        if relation.fingerprint() != fingerprint:
            raise SnapshotError(
                f"snapshot {path} content hashes to "
                f"{relation.fingerprint()}, metadata records {fingerprint}"
            )
    return relation


def quarantine_snapshot(path: str | Path) -> Path | None:
    """Move a poisoned snapshot directory aside into ``quarantine/``.

    Returns the new location, or ``None`` when the move failed (best
    effort — the caller treats the snapshot as missing either way).
    """
    path = Path(path)
    try:
        target_dir = path.parent / "quarantine"
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = target_dir / f"{path.name}.{suffix}"
        path.replace(target)
        return target
    except OSError:
        return None


# ----------------------------------------------------------------------
# Entropy-memo sidecar
# ----------------------------------------------------------------------
def save_engine_memo(snapshot_path: str | Path, engine) -> bool:
    """Spill an engine's entropy memo beside a snapshot (atomic write).

    Returns ``False`` (writing nothing) when the memo is empty or the
    directory holds no snapshot.  The memo is advisory warm-start state:
    its loss is a performance event, never a correctness one.
    """
    if not (Path(snapshot_path) / META_FILE).exists():
        return False
    entries = engine.cache_snapshot()
    if not entries:
        return False
    document = {
        "format": MEMO_FORMAT_NAME,
        "version": MEMO_FORMAT_VERSION,
        "entries": [
            [list(key), float(value)] for key, value in entries.items()
        ],
    }
    atomic_write_text(
        Path(snapshot_path) / MEMO_FILE,
        json.dumps(document, sort_keys=True) + "\n",
    )
    return True


def load_engine_memo(snapshot_path: str | Path) -> dict[tuple[str, ...], float]:
    """Read a snapshot's entropy-memo sidecar; ``{}`` when absent.

    Raises :class:`~repro.errors.SnapshotError` when the file exists
    but is corrupt (callers typically discard it and move on).
    """
    memo_path = Path(snapshot_path) / MEMO_FILE
    if not memo_path.exists():
        return {}
    try:
        document = json.loads(memo_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"memo {memo_path} is unreadable: {exc}") from exc
    if (
        not isinstance(document, dict)
        or document.get("format") != MEMO_FORMAT_NAME
        or document.get("version") != MEMO_FORMAT_VERSION
        or not isinstance(document.get("entries"), list)
    ):
        raise SnapshotError(f"memo {memo_path} is malformed")
    out: dict[tuple[str, ...], float] = {}
    for item in document["entries"]:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], list)
            or not all(isinstance(name, str) for name in item[0])
            or isinstance(item[1], bool)
            or not isinstance(item[1], (int, float))
        ):
            raise SnapshotError(f"memo {memo_path} has a malformed entry")
        out[tuple(item[0])] = float(item[1])
    return out


# ----------------------------------------------------------------------
# Hydration: the one route from references to a live relation
# ----------------------------------------------------------------------
def hydrate_relation(
    *,
    expected_fingerprint: str,
    snapshot_path: str | Path | None = None,
    source: str | None = None,
    check=None,
    on_reject=None,
):
    """Materialize a dataset from its references: snapshot, then CSV.

    The one hydrate routine of the service, in both modes: the dataset
    registry reloads an evicted dataset through it, and each cluster
    worker rebuilds a dispatched dataset through it from the references
    the front end ships (snapshot directory, CSV source path) instead of
    a pickled relation.  The order is fixed:

    1. the columnar snapshot (one int32 cast per mapped column, no
       parsing or decoding), with the
       entropy-memo sidecar merged into the relation's engine so a
       reloaded or rehomed dataset starts warm;
    2. the CSV source, re-ingested exactly like registration and
       rejected unless it re-fingerprints to ``expected_fingerprint``
       (a mutated source must never silently impersonate the dataset).

    ``check(route)``, when given, runs just before a route is tried
    (``"snapshot"`` or ``"csv"``); whatever it raises counts as that
    route failing (the registry arms its fault sites here).  A snapshot
    that exists but fails to load is passed to ``on_reject(path)`` —
    the caller decides whether to quarantine it — and hydration falls
    through to the CSV source.

    Returns ``(relation, origin)`` with ``origin`` in ``{"snapshot",
    "csv"}``.  Raises :class:`~repro.errors.SnapshotError` when no
    route produces the expected content; its message says why (no
    source, re-ingest failed, source changed on disk).
    """
    from repro.errors import ReproError
    from repro.info.engine import EntropyEngine
    from repro.relations.io import infer_integer_domains
    from repro.relations.relation import Relation

    if snapshot_path is not None and (Path(snapshot_path) / META_FILE).exists():
        try:
            if check is not None:
                check("snapshot")
            relation = load_snapshot(
                snapshot_path,
                expected_fingerprint=expected_fingerprint,
                domains=True,
            )
        except (ReproError, OSError):
            if on_reject is not None:
                on_reject(Path(snapshot_path))
        else:
            try:
                memo = load_engine_memo(snapshot_path)
            except SnapshotError:
                memo = {}
            if memo:
                EntropyEngine.for_relation(relation).merge_cache(memo)
            return relation, "snapshot"
    if source is None:
        raise SnapshotError(
            f"dataset {expected_fingerprint} has no loadable snapshot and no "
            "source to re-ingest from (an inline upload without a spill dir)"
        )
    try:
        if check is not None:
            check("csv")
        relation = infer_integer_domains(Relation.from_csv_stream(source))
    except Exception as exc:  # an unreadable source, however it fails
        raise SnapshotError(
            f"re-ingesting dataset {expected_fingerprint} from {source} "
            f"failed: {exc}"
        ) from exc
    if relation.fingerprint() != expected_fingerprint:
        raise SnapshotError(
            f"source {source} changed on disk: re-ingested fingerprint "
            f"{relation.fingerprint()} != registered {expected_fingerprint}"
        )
    return relation, "csv"
