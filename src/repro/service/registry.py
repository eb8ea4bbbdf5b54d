"""Dataset registry: fingerprint-keyed resident relations with LRU eviction.

The registry is the service's working set.  ``register_path`` /
``register_text`` ingest a CSV (the one columnar route,
:meth:`Relation.from_csv_stream`), apply :func:`~repro.relations.io.infer_integer_domains`
(exactly like the CLI, so service reports match CLI reports bit for
bit), fingerprint the content (:meth:`Relation.fingerprint`), and keep
the relation — and therefore its cached exact
:class:`~repro.info.engine.EntropyEngine` and
:class:`~repro.core.evalcontext.EvalContext` — resident.

Residency is bounded by a byte budget: when the estimated resident size
exceeds it, least-recently-used datasets are **evicted** down to the
budget.  Eviction drops the relation object (codes, memos, row tuples)
but keeps the entry's metadata and source, so a later request for the
same fingerprint transparently **re-ingests** from the recorded source
path; inline uploads are persisted to the spill directory (when
configured) for the same reason.  Re-ingestion re-verifies the
fingerprint, so a source file mutated behind the registry's back is
detected instead of silently served.

Registering identical content twice (same fingerprint) is idempotent:
one resident copy, one entry, whichever source arrived first.

Crash safety: a re-ingest that fails — source vanished, unreadable, or
mutated behind the registry's back — **demotes the entry to a degraded
metadata-only state** (``degraded: true`` plus the reason in its view)
and raises a typed :class:`~repro.errors.DatasetDegradedError` to the
caller, instead of crashing the serving thread or retrying blindly.
A later successful re-ingest or re-registration heals the entry.

Persistent snapshots (see :mod:`repro.relations.persist`): with a spill
directory configured, every admitted dataset is also written as an
on-disk **columnar snapshot** beside the spill CSV.  Eviction reloads
and warm restarts then prefer the snapshot — a zero-parse load of the
code arrays, ~10-100x faster than re-parsing CSV — and
fall back to the CSV source only when the snapshot is missing or fails
verification (a corrupt snapshot is quarantined, counted, and never
served).  A fresh registry scans the spill directory for snapshots and
**restores** their entries metadata-only, so a restarted service knows
its datasets before any request arrives and loads them lazily without
touching the original CSVs.  The resident exact entropy memo is spilled
alongside on eviction and merged back on snapshot reload, so a reloaded
dataset comes back with its memo warm, not just its codes.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import (
    DatasetDegradedError,
    ReproError,
    ServiceError,
    SnapshotError,
    UnknownDatasetError,
)
from repro.info.engine import EntropyEngine
from repro.relations.io import infer_integer_domains
from repro.relations.persist import (
    CHAIN_KEY,
    META_FILE,
    atomic_write_text,
    chain_from_meta,
    hydrate_relation,
    quarantine_snapshot,
    read_snapshot_meta,
    save_engine_memo,
    save_snapshot,
    validate_chain,
)
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema
from repro.service.faults import DISABLED, FaultPlan
from repro.service.telemetry import MetricsRegistry


def resident_bytes(relation: Relation) -> int:
    """Estimated resident footprint of a relation, in bytes.

    Counts the columnar code arrays exactly (``nbytes``) plus a flat
    per-cell charge for the Python row tuples and per-column decoders.
    The per-cell charge is an upper estimate: an undecoded relation (as
    registered, reloaded or appended) holds no row tuples, only codes,
    decoders and 16 bytes of row digest per row.  An estimate, not an
    accounting — it only needs to be deterministic and monotone in the
    data size for LRU eviction to behave.
    """
    store = relation.columns()
    n = len(relation)
    arity = relation.schema.arity
    code_bytes = sum(col.nbytes for col in store.codes)
    # ~56 bytes/cell: tuple slot + the (often shared) value object.
    return int(code_bytes + 56 * n * arity + 64 * sum(store.cards))


def append_version(
    relation: Relation, rows: list, chain: dict
) -> tuple[Relation, dict]:
    """Extend ``relation`` by ``rows``: the next dataset version plus its info.

    The one append routine of the service, in both modes: the registry
    calls it in process and each cluster worker calls it for the
    ``__append__`` operation.  The relation is **extended, not rebuilt**
    (:meth:`Relation.extended_with` dictionary-codes only the delta), so
    the result's fingerprint equals a from-scratch ingest of the
    concatenated source.  ``chain`` is the current version's fingerprint
    chain; a changed version gains the delta's own content fingerprint.

    Relations are row **sets**: a delta that deduplicates away entirely
    is a no-op (``info["changed"]`` is ``False``, same fingerprint, same
    chain), so every memo and cached result stays valid.  The info dict
    always has the same keys — the append response's core.  Raises
    :class:`~repro.errors.SchemaError` for rows of the wrong arity.
    """
    start = time.perf_counter()
    rows = [tuple(row) for row in rows]
    chain = validate_chain(chain)
    appended = (
        infer_integer_domains(relation.extended_with(rows)) if rows else relation
    )
    changed = appended.fingerprint() != relation.fingerprint()
    if changed:
        chunk = Relation(
            RelationSchema.from_names(relation.schema.names), rows, validate=False
        )
        chain = validate_chain(
            {
                "base": chain["base"],
                "chunks": [*chain["chunks"], chunk.fingerprint()],
                "version": chain["version"] + 1,
            }
        )
    return appended, {
        "fingerprint": appended.fingerprint(),
        "previous_fingerprint": relation.fingerprint(),
        "changed": changed,
        "version": chain["version"],
        "chain": chain,
        "rows_submitted": len(rows),
        "rows_added": len(appended) - len(relation),
        "n_rows": len(appended),
        "wall_time_s": time.perf_counter() - start,
    }


def spill_csv(relation: Relation, spill_dir: Path) -> str | None:
    """Write ``relation`` as ``dataset-<fingerprint>.csv`` unless it exists.

    The CSV-fallback source of an appended version (the original source
    no longer matches the content).  Rows are written in deterministic
    order; the re-ingest re-verifies the fingerprint, so a value that
    cannot round-trip through CSV text degrades the entry loudly instead
    of serving wrong data.  A file that exists already holds this very
    content and is left alone.  Returns the path, or ``None`` when it
    cannot be written (best effort: the snapshot is preferred anyway).
    The rows are decoded from the store into a local list, so the
    resident relation keeps neither a row ``frozenset`` nor a cached
    row list on its store.
    """
    import csv
    from io import StringIO

    import numpy as np

    kept = spill_dir / f"dataset-{relation.fingerprint()}.csv"
    if not kept.exists():
        store = relation.columns()
        rows = store.decode_rows(np.arange(store.n_rows), range(len(store.cards)))
        buffer = StringIO()
        writer = csv.writer(buffer)
        writer.writerow(relation.schema.names)
        writer.writerows(sorted(rows, key=repr))
        try:
            atomic_write_text(kept, buffer.getvalue())
        except OSError:
            return None
    return str(kept)


def write_snapshot(
    relation: Relation,
    snapshot_dir: Path,
    *,
    source: str | None,
    chain: dict,
) -> bool:
    """Save ``relation``'s snapshot unless one exists; return whether it wrote.

    Snapshots are keyed by content fingerprint, so an existing one is
    never rewritten: it belongs to the dataset that first produced the
    content, with that dataset's chain.  Raises
    :class:`~repro.errors.SnapshotError` when the relation cannot be
    snapshotted (the ``1 == True == 1.0`` collapse) or the write fails.
    """
    if (snapshot_dir / META_FILE).exists():
        return False
    extra = {CHAIN_KEY: chain} if chain["version"] > 1 else None
    save_snapshot(relation, snapshot_dir, source=source, extra=extra)
    return True


#: Fault sites armed before each hydration route is tried.
_ROUTE_FAULT_SITES = {
    "snapshot": "registry.snapshot_load",
    "csv": "registry.reingest",
}


@dataclass
class DatasetEntry:
    """One registered dataset: metadata always, relation while resident."""

    fingerprint: str
    source: str | None  # CSV path to re-ingest from (None: inline, no spill)
    attributes: tuple[str, ...]
    n_rows: int
    n_cols: int
    resident_bytes: int
    registered_at: float
    relation: Relation | None = None
    hits: int = 0
    reloads: int = 0
    #: Delta-ingest version chain: ``version`` counts ingests (1 = the
    #: base registration), ``base_fingerprint`` is the version-1 content
    #: fingerprint, and ``chunk_fingerprints`` holds one content
    #: fingerprint per appended delta, in order.  ``fingerprint`` above
    #: is always the *current* content.
    version: int = 1
    base_fingerprint: str | None = None
    chunk_fingerprints: list[str] = field(default_factory=list)
    appends: int = 0
    #: How the most recent reload was satisfied: ``"snapshot"`` |
    #: ``"csv"`` | ``None`` (never reloaded).
    reload_source: str | None = None
    #: Whether a columnar snapshot is known to exist on disk.
    snapshot: bool = False
    degraded: bool = False
    degraded_reason: str | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def resident(self) -> bool:
        return self.relation is not None

    def chain(self) -> dict:
        """The entry's fingerprint chain (see :func:`~repro.relations.persist.validate_chain`)."""
        return {
            "base": self.base_fingerprint or self.fingerprint,
            "chunks": list(self.chunk_fingerprints),
            "version": self.version,
        }

    def describe(self) -> dict:
        """JSON view served by ``GET /datasets/{fingerprint}``."""
        engine_info = None
        relation = self.relation
        if relation is not None and relation._engine is not None:
            engine_info = relation._engine.cache_info()
        return {
            "fingerprint": self.fingerprint,
            "attributes": list(self.attributes),
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "resident": self.resident,
            "resident_bytes": self.resident_bytes if self.resident else 0,
            "hits": self.hits,
            "reloads": self.reloads,
            "reload_source": self.reload_source,
            "snapshot": self.snapshot,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "source": self.source,
            "version": self.version,
            "chain": self.chain(),
            "appends": self.appends,
            "engine": engine_info,
        }


class DatasetRegistry:
    """Fingerprint-keyed store of ingested relations with LRU eviction."""

    def __init__(
        self,
        *,
        memory_budget_bytes: int | None = None,
        spill_dir: str | Path | None = None,
        faults: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise ServiceError(
                f"memory budget must be positive or None, got "
                f"{memory_budget_bytes}"
            )
        self._budget = memory_budget_bytes
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._faults = faults if faults is not None else DISABLED
        self._entries: OrderedDict[str, DatasetEntry] = OrderedDict()
        #: Superseded fingerprint → its successor (one hop per append).
        #: Lets clients holding a pre-append fingerprint keep addressing
        #: the dataset; chains resolve transitively in :meth:`resolve`.
        self._aliases: dict[str, str] = {}
        #: Serializes appends: each one must read the current version,
        #: extend it, and re-key the entry as one atomic step.
        self._append_lock = threading.Lock()
        self._lock = threading.RLock()
        self.last_degrade_at: float | None = None  # time.monotonic()
        # Counters live on the (shared) metrics registry so /stats and
        # /v1/metrics read the same instruments; standalone registries
        # get a private one.
        metrics = metrics or MetricsRegistry()
        counter = metrics.counter
        self._c_evictions = counter(
            "registry_evictions_total", "Resident datasets evicted (LRU budget)"
        )
        self._c_appends = counter(
            "registry_appends_total", "Delta-ingest appends applied"
        )
        self._c_append_noops = counter(
            "registry_append_noops_total", "Appends fully deduplicated to no-ops"
        )
        self._c_append_rows_added = counter(
            "registry_append_rows_added_total", "Distinct rows added by appends"
        )
        self._c_snapshot_writes = counter(
            "registry_snapshot_writes_total", "Columnar snapshots written"
        )
        self._c_snapshot_write_failures = counter(
            "registry_snapshot_write_failures_total", "Snapshot writes that failed"
        )
        self._c_snapshot_reloads = counter(
            "registry_snapshot_reloads_total", "Evicted datasets reloaded zero-parse"
        )
        self._c_csv_reloads = counter(
            "registry_csv_reloads_total", "Evicted datasets re-ingested from CSV"
        )
        self._c_snapshot_quarantined = counter(
            "registry_snapshot_quarantined_total", "Malformed snapshots quarantined"
        )
        self._c_restored_from_snapshot = counter(
            "registry_restored_from_snapshot_total",
            "Datasets adopted from snapshots at startup",
        )
        self._c_memo_spills = counter(
            "registry_memo_spills_total", "Entropy memos spilled beside snapshots"
        )
        self._c_memo_entries_restored = counter(
            "registry_memo_entries_restored_total",
            "Entropy-memo entries restored from sidecars",
        )
        self._h_snapshot_load = metrics.histogram(
            "registry_snapshot_load_seconds",
            "Wall time hydrating a dataset from its columnar snapshot",
        )
        #: The last assembled stats() document, served stale while the
        #: registry lock is held so monitoring never waits on serving.
        self._stats_cache: dict | None = None
        if self._spill_dir is not None:
            self._restore_from_snapshots()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _ingest(self, path: str) -> Relation:
        return infer_integer_domains(Relation.from_csv_stream(path))

    # ------------------------------------------------------------------
    # Snapshot plumbing
    # ------------------------------------------------------------------
    def _snapshot_path(self, fingerprint: str) -> Path:
        assert self._spill_dir is not None
        return self._spill_dir / f"snapshot-{fingerprint}"

    def _has_snapshot(self, fingerprint: str) -> bool:
        return (
            self._spill_dir is not None
            and (self._snapshot_path(fingerprint) / META_FILE).exists()
        )

    def _quarantine(self, snapshot_dir: Path) -> None:
        """Move a malformed snapshot aside and count it."""
        quarantine_snapshot(snapshot_dir)
        with self._lock:
            self._c_snapshot_quarantined.inc()

    def _restore_from_snapshots(self) -> None:
        """Adopt on-disk snapshots as metadata-only entries (warm restart).

        Runs once at construction: every structurally valid snapshot in
        the spill directory becomes a registered-but-not-resident entry
        whose relation loads lazily (snapshot-first) on first use.
        Malformed snapshots — and ones whose directory name disagrees
        with their recorded fingerprint — are quarantined.
        """
        assert self._spill_dir is not None
        if not self._spill_dir.exists():
            return
        for meta_path in sorted(self._spill_dir.glob("snapshot-*/" + META_FILE)):
            snapshot_dir = meta_path.parent
            try:
                meta = read_snapshot_meta(snapshot_dir)
            except SnapshotError:
                self._quarantine(snapshot_dir)
                continue
            fingerprint = meta["fingerprint"]
            if (
                snapshot_dir.name != f"snapshot-{fingerprint}"
                or fingerprint in self._entries
            ):
                self._quarantine(snapshot_dir)
                continue
            source = (meta.get("source") or {}).get("path")
            entry = DatasetEntry(
                fingerprint=fingerprint,
                source=source if isinstance(source, str) else None,
                attributes=tuple(meta["attributes"]),
                n_rows=meta["n_rows"],
                n_cols=len(meta["attributes"]),
                resident_bytes=0,
                registered_at=time.time(),
            )
            try:
                chain = chain_from_meta(meta)
            except SnapshotError:
                chain = None  # provenance is advisory; content verified
            if chain is not None:
                entry.version = chain["version"]
                entry.base_fingerprint = chain["base"]
                entry.chunk_fingerprints = list(chain["chunks"])
            entry.snapshot = True
            self._entries[fingerprint] = entry
            self._c_restored_from_snapshot.inc()

    def _maybe_write_snapshot(self, entry: DatasetEntry, relation: Relation) -> None:
        """Write the entry's snapshot if it does not exist yet (best effort).

        A relation whose values cannot round-trip bit-identically (the
        ``1 == True == 1.0`` collapse) raises inside ``save_snapshot``
        and is simply not snapshotted — its CSV source remains the
        reload path, exactly as before this feature existed.
        """
        if self._spill_dir is None:
            return
        try:
            written = write_snapshot(
                relation,
                self._snapshot_path(entry.fingerprint),
                source=entry.source,
                chain=entry.chain(),
            )
        except (SnapshotError, OSError):
            with self._lock:
                self._c_snapshot_write_failures.inc()
            return
        entry.snapshot = True
        if written:
            with self._lock:
                self._c_snapshot_writes.inc()

    def _spill_engine_memo(self, entry: DatasetEntry) -> None:
        """Spill a resident engine's memo beside the snapshot (best effort)."""
        if self._spill_dir is None:
            return
        relation = entry.relation
        if relation is None or relation._engine is None:
            return
        try:
            if save_engine_memo(
                self._snapshot_path(entry.fingerprint), relation._engine
            ):
                self._c_memo_spills.inc()
        except OSError:
            pass

    def _snapshot_shortcut(self, path_str: str) -> DatasetEntry | None:
        """Serve ``register_path`` from a snapshot when the file is unchanged.

        The snapshot's recorded provenance (source path + size +
        mtime_ns) must match the file's current stat exactly; anything
        else — no candidate entry, stale provenance, failed load —
        falls through to a full ingest, which re-verifies content the
        usual way.
        """
        if self._spill_dir is None:
            return None
        with self._lock:
            candidates = [
                e for e in self._entries.values() if e.source == path_str
            ]
        for entry in candidates:
            try:
                meta = read_snapshot_meta(self._snapshot_path(entry.fingerprint))
            except SnapshotError:
                continue
            provenance = meta.get("source") or {}
            if provenance.get("path") != path_str:
                continue
            try:
                stat = os.stat(path_str)
            except OSError:
                return None  # unreadable: let the ingest path raise typed
            if (
                provenance.get("size") != stat.st_size
                or provenance.get("mtime_ns") != stat.st_mtime_ns
            ):
                continue
            try:
                self.relation(entry.fingerprint)
            except ReproError:
                continue
            return entry
        return None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_path(self, path: str | Path) -> tuple[DatasetEntry, bool]:
        """Ingest a server-local CSV; returns ``(entry, created)``.

        ``created`` is ``False`` when content with the same fingerprint
        is already registered (the existing entry is returned and
        refreshed in LRU order).  When a snapshot's recorded provenance
        matches the file's current size and mtime exactly, the parse is
        skipped entirely and the relation comes from the snapshot (the
        warm-restart fast path); any doubt falls back to a full ingest.
        """
        path_str = str(path)
        entry = self._snapshot_shortcut(path_str)
        if entry is not None:
            return entry, False
        relation = self._ingest(path_str)
        entry, created = self._admit(relation, source=path_str)
        self._maybe_write_snapshot(entry, relation)
        return entry, created

    def register_text(
        self, csv_text: str, *, name: str = "inline"
    ) -> tuple[DatasetEntry, bool]:
        """Ingest CSV content uploaded inline (``POST /datasets`` body).

        With a spill directory configured the text is persisted there
        (named by fingerprint), so the dataset survives eviction exactly
        like a path-registered one.  Without one, eviction is final: a
        later request for the fingerprint fails with a clear error.
        """
        import re
        import tempfile

        # The name is client-controlled and becomes a filename prefix:
        # allow nothing that could navigate (no separators, no dots).
        name = re.sub(r"[^A-Za-z0-9_-]", "_", name)[:40] or "inline"
        with tempfile.NamedTemporaryFile(
            "w", suffix=".csv", prefix=f"{name}-", delete=False
        ) as handle:
            handle.write(csv_text)
            tmp_path = Path(handle.name)
        try:
            relation = self._ingest(str(tmp_path))
            source: str | None = None
            if self._spill_dir is not None:
                self._spill_dir.mkdir(parents=True, exist_ok=True)
                kept = self._spill_dir / f"dataset-{relation.fingerprint()}.csv"
                if not kept.exists():
                    # Crash-safe like every other spill: temp + fsync +
                    # atomic rename, so a hard kill cannot leave a torn
                    # CSV that would later re-ingest to the wrong
                    # fingerprint and degrade the entry confusingly.
                    atomic_write_text(kept, csv_text)
                source = str(kept)
            entry, created = self._admit(relation, source=source)
            self._maybe_write_snapshot(entry, relation)
            return entry, created
        finally:
            tmp_path.unlink(missing_ok=True)

    def _admit(
        self, relation: Relation, *, source: str | None
    ) -> tuple[DatasetEntry, bool]:
        fingerprint = relation.fingerprint()
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                if entry.source is None and source is not None:
                    # An inline upload without a spill dir had no way to
                    # survive eviction; re-registering the same content
                    # by path gives it one.
                    entry.source = source
                if entry.relation is None:
                    entry.relation = relation
                    entry.resident_bytes = resident_bytes(relation)
                    self._evict_over_budget()
                # Fresh verified content heals a degraded entry.
                entry.degraded = False
                entry.degraded_reason = None
                return entry, False
            entry = DatasetEntry(
                fingerprint=fingerprint,
                source=source,
                attributes=relation.schema.names,
                n_rows=len(relation),
                n_cols=relation.schema.arity,
                resident_bytes=resident_bytes(relation),
                registered_at=time.time(),
                relation=relation,
            )
            self._entries[fingerprint] = entry
            self._evict_over_budget()
            return entry, True

    # ------------------------------------------------------------------
    # Delta ingest (live datasets)
    # ------------------------------------------------------------------
    @property
    def spill_dir(self) -> Path | None:
        """The registry's spill directory (``None`` when not configured)."""
        return self._spill_dir

    def append_rows(
        self, fingerprint: str, rows: list, *, remote=None
    ) -> tuple[DatasetEntry, dict]:
        """Append ``rows`` to a registered dataset; returns ``(entry, info)``.

        One path for both service modes.  In process, the current version
        is materialized and extended by :func:`append_version`, and its
        CSV spill and snapshot are written here.  In cluster mode
        ``remote`` — :meth:`~repro.service.cluster.ClusterSupervisor.append`
        — runs the same routine in the shard owner's process, which
        writes those files into the shared spill directory and returns
        only the info; the new version then hydrates from its snapshot on
        first front-end use.  Either way the entry is re-keyed by
        :meth:`_adopt`, and appends are serialized, so each one extends
        the version the previous one produced.

        Exact entropy memos are invalidated *selectively*: any delta that
        survives deduplication changes the row count — and with it every
        marginal distribution — so the sound selective rule is
        all-or-nothing, and a no-op append keeps everything.

        Raises :class:`~repro.errors.UnknownDatasetError` for unknown
        fingerprints, :class:`~repro.errors.DatasetDegradedError` when
        the current version cannot be materialized, and
        :class:`~repro.errors.SchemaError` for rows of the wrong arity.
        """
        with self._append_lock:
            entry = self._touch(fingerprint)
            appended = None
            if remote is not None:
                info = remote(entry.fingerprint, rows, chain=entry.chain())
            else:
                relation = self.relation(entry.fingerprint)
                appended, info = append_version(relation, rows, entry.chain())
                if info["changed"] and self._spill_dir is not None:
                    spill_csv(appended, self._spill_dir)
            entry = self._adopt(entry, info, appended)
            if appended is not None and info["changed"]:
                self._maybe_write_snapshot(entry, appended)
            return entry, info

    def _adopt(
        self, entry: DatasetEntry, info: dict, appended: Relation | None
    ) -> DatasetEntry:
        """Re-key ``entry`` to the version ``info`` describes.

        The superseded fingerprint becomes an alias (:meth:`resolve`), its
        spill files are retired (its snapshot must not resurrect it as a
        separate dataset on the next restart) and its relation is
        dropped.  ``appended`` is the new relation when this process
        built it, ``None`` when a worker did.  Content that coincides with
        another registered dataset folds into that entry, which keeps its
        source, version and chain; ``info`` then reports that entry's
        version and chain.
        """
        if not info["changed"]:
            with self._lock:
                self._c_append_noops.inc()
            return entry
        old_fp, new_fp = entry.fingerprint, info["fingerprint"]
        with self._lock:
            del self._entries[old_fp]
            self._aliases[old_fp] = new_fp
            existing = self._entries.get(new_fp)
            if existing is None:
                chain = info["chain"]
                entry.fingerprint = new_fp
                entry.version = chain["version"]
                entry.base_fingerprint = chain["base"]
                entry.chunk_fingerprints = list(chain["chunks"])
                entry.appends += 1
                entry.n_rows = info["n_rows"]
                entry.relation = None
                entry.resident_bytes = 0
                entry.source = self._spilled_csv(new_fp)
                entry.snapshot = self._has_snapshot(new_fp)
                self._entries[new_fp] = entry
            else:
                entry = existing
                self._entries.move_to_end(new_fp)
            if entry.relation is None and appended is not None:
                entry.relation = appended
                entry.resident_bytes = resident_bytes(appended)
            entry.degraded = False
            entry.degraded_reason = None
            self._c_appends.inc()
            self._c_append_rows_added.inc(info["rows_added"])
            self._evict_over_budget()
        self._retire_version_files(old_fp)
        info["version"] = entry.version
        info["chain"] = entry.chain()
        return entry

    def _spilled_csv(self, fingerprint: str) -> str | None:
        """The spill CSV of ``fingerprint`` if one exists (an appended
        version's CSV-fallback source)."""
        if self._spill_dir is None:
            return None
        kept = self._spill_dir / f"dataset-{fingerprint}.csv"
        return str(kept) if kept.exists() else None

    def _retire_version_files(self, fingerprint: str) -> None:
        """Remove a superseded version's spill files (best effort)."""
        if self._spill_dir is None:
            return
        import shutil

        snapshot_dir = self._spill_dir / f"snapshot-{fingerprint}"
        if snapshot_dir.exists():
            shutil.rmtree(snapshot_dir, ignore_errors=True)
        try:
            (self._spill_dir / f"dataset-{fingerprint}.csv").unlink(
                missing_ok=True
            )
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> DatasetEntry:
        """The entry for ``fingerprint`` (metadata even if evicted).

        Counts one hit — this is the request-level lookup (job
        submission, ``GET /datasets/{fp}``).  Internal plumbing uses
        :meth:`_touch` so one request never double-counts.
        """
        entry = self._touch(fingerprint)
        entry.hits += 1
        return entry

    def resolve(self, fingerprint: str) -> str:
        """The *current* fingerprint for ``fingerprint``, following appends.

        A client that registered (or last appended to) a dataset may
        still hold a fingerprint that later appends superseded; aliases
        map each superseded version to its successor so such requests
        land on the live entry.  Unknown fingerprints are returned
        unchanged — the caller's lookup raises the usual typed error.
        Aliases live in memory only: after a restart, superseded
        fingerprints are gone and clients use the fingerprint returned
        by their last append.
        """
        with self._lock:
            seen = {fingerprint}
            current = fingerprint
            while current not in self._entries:
                successor = self._aliases.get(current)
                if successor is None or successor in seen:
                    return fingerprint
                seen.add(successor)
                current = successor
            return current

    def _touch(self, fingerprint: str) -> DatasetEntry:
        """Look up + refresh LRU order without counting a hit.

        Superseded fingerprints resolve to their current version, so
        every lookup path (jobs, HTTP GET, hydration specs) transparently
        follows the append chain.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = self._entries.get(self.resolve(fingerprint))
            if entry is None:
                raise UnknownDatasetError(
                    f"no dataset registered with fingerprint {fingerprint!r}"
                )
            self._entries.move_to_end(entry.fingerprint)
            return entry

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> list[DatasetEntry]:
        """All entries, least- to most-recently used."""
        with self._lock:
            return list(self._entries.values())

    def fingerprints(self) -> list[str]:
        """All registered fingerprints, least- to most-recently used."""
        with self._lock:
            return list(self._entries.keys())

    # ------------------------------------------------------------------
    # Cluster support (front-end/worker split)
    # ------------------------------------------------------------------
    def hydration_spec(self, fingerprint: str) -> dict:
        """Hydration *references* for a worker process — never the data.

        The cluster dispatcher ships this dict to the shard's owning
        worker, which rebuilds the relation locally via
        :func:`repro.relations.persist.hydrate_relation`: columnar
        snapshot first (zero-parse), CSV source as the fallback.
        Raises :class:`~repro.errors.UnknownDatasetError` for unknown
        fingerprints.  Counts an LRU touch but no hit — the request
        already paid its hit at submission.
        """
        entry = self._touch(fingerprint)
        return {
            "fingerprint": entry.fingerprint,
            "snapshot_dir": (
                str(self._snapshot_path(entry.fingerprint))
                if self._has_snapshot(entry.fingerprint)
                else None
            ),
            "source": entry.source,
        }

    def note_remote_outcome(
        self, fingerprint: str, *, ok: bool, reason: str | None = None
    ) -> None:
        """Reflect a worker-side hydrate outcome on the entry's state.

        In cluster mode the front end never materializes the relation
        itself, so degradation (source vanished/mutated, snapshot
        corrupt — discovered *in the worker*) is reported back here to
        keep ``GET /datasets`` and ``/healthz`` truthful.  A later
        worker success heals the flag, mirroring the in-process path.
        Unknown fingerprints are ignored (the dataset may have been
        dropped while the job was in flight).
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return
            if ok:
                entry.degraded = False
                entry.degraded_reason = None
            else:
                entry.degraded = True
                entry.degraded_reason = (
                    reason or "worker-side hydration failed"
                )
                self.last_degrade_at = time.monotonic()

    def relation(self, fingerprint: str) -> Relation:
        """The dataset's relation, hydrating it if evicted.

        Hydration goes through :func:`~repro.relations.persist.hydrate_relation`,
        the route cluster workers take too: the columnar snapshot with
        its memo sidecar, else the CSV source checked against the
        fingerprint.  The registry adds its own bookkeeping: a rejected
        snapshot is quarantined, a CSV reload heals the snapshot, and a
        failed hydration (source vanished, unreadable, or mutated)
        demotes the entry to a degraded metadata-only state and raises
        :class:`~repro.errors.DatasetDegradedError`; later calls keep
        retrying, so a restored source heals the entry.
        """
        entry = self._touch(fingerprint)
        with entry._lock:  # one reload per evicted dataset, not per caller
            if entry.relation is not None:
                return entry.relation
            # A superseded (appended-over) fingerprint resolved to the
            # live entry: reload, verify, and re-key under the live one.
            fingerprint = entry.fingerprint
            started = time.perf_counter()
            try:
                relation, origin = hydrate_relation(
                    expected_fingerprint=fingerprint,
                    snapshot_path=(
                        self._snapshot_path(fingerprint)
                        if self._spill_dir is not None
                        else None
                    ),
                    source=entry.source,
                    check=lambda route: self._faults.check(
                        _ROUTE_FAULT_SITES[route]
                    ),
                    on_reject=self._quarantine,
                )
            except SnapshotError as exc:
                self._degrade(entry, str(exc))
                raise DatasetDegradedError(
                    f"dataset {fingerprint!r} is degraded: {exc}; restore "
                    "its source or re-register it"
                ) from exc
            with self._lock:
                if origin == "snapshot":
                    self._h_snapshot_load.observe(time.perf_counter() - started)
                    self._c_snapshot_reloads.inc()
                    if relation._engine is not None:  # the merged memo sidecar
                        self._c_memo_entries_restored.inc(
                            relation._engine.cache_size()
                        )
                else:
                    self._c_csv_reloads.inc()
                entry.relation = relation
                entry.resident_bytes = resident_bytes(relation)
                entry.reloads += 1
                entry.reload_source = origin
                entry.snapshot = self._has_snapshot(fingerprint)
                entry.degraded = False  # a good source heals the entry
                entry.degraded_reason = None
                self._entries.move_to_end(fingerprint)
                self._evict_over_budget()
            if origin == "csv":
                # Heal a missing or just-quarantined snapshot from the
                # freshly verified relation.
                self._maybe_write_snapshot(entry, relation)
            return relation

    def _degrade(self, entry: DatasetEntry, reason: str) -> None:
        """Demote an entry to metadata-only (caller holds ``entry._lock``)."""
        with self._lock:
            entry.degraded = True
            entry.degraded_reason = reason
            self.last_degrade_at = time.monotonic()

    def engine(self, fingerprint: str) -> EntropyEngine:
        """The dataset's resident exact entropy engine (shared memo)."""
        return EntropyEngine.for_relation(self.relation(fingerprint))

    # ------------------------------------------------------------------
    # Eviction + stats
    # ------------------------------------------------------------------
    def total_resident_bytes(self) -> int:
        with self._lock:
            return sum(
                e.resident_bytes for e in self._entries.values() if e.resident
            )

    def degraded_count(self) -> int:
        """How many entries are currently metadata-only and unreloadable."""
        with self._lock:
            return sum(e.degraded for e in self._entries.values())

    def _evict_over_budget(self) -> None:
        """Drop LRU relations until within budget (caller holds the lock).

        The most recently touched dataset is never evicted, even when it
        alone exceeds the budget — serving the request at hand beats
        thrashing.
        """
        if self._budget is None:
            return
        resident = [e for e in self._entries.values() if e.resident]
        total = sum(e.resident_bytes for e in resident)
        # OrderedDict order is LRU → MRU; spare the last resident entry.
        for entry in resident[:-1]:
            if total <= self._budget:
                break
            # The relation is about to drop with its memoized engine;
            # spill the memo beside the snapshot so a later reload
            # comes back warm.
            self._spill_engine_memo(entry)
            entry.relation = None
            total -= entry.resident_bytes
            self._c_evictions.inc()

    def stats(self) -> dict:
        """JSON-ready registry summary (part of ``GET /stats``).

        Assembling the document walks every resident entry and its
        engine's ``cache_info()`` under the registry lock.  When someone
        else holds that lock (a mine touching the registry, an append
        re-keying an entry) the previous document is served stale
        **without blocking** rather than queueing a monitoring scrape
        behind the serving path.  Callers must treat the returned dict
        as read-only.
        """
        cached = self._stats_cache
        # The first ever call must produce something, so it may block.
        if not self._lock.acquire(blocking=cached is None):
            return cached
        try:
            resident = [e for e in self._entries.values() if e.resident]
            view = {
                "datasets": len(self._entries),
                "resident": len(resident),
                "resident_bytes": sum(e.resident_bytes for e in resident),
                "memory_budget_bytes": self._budget,
                "evictions": int(self._c_evictions.value()),
                "degraded": sum(e.degraded for e in self._entries.values()),
                "appends": int(self._c_appends.value()),
                "append_noops": int(self._c_append_noops.value()),
                "append_rows_added": int(self._c_append_rows_added.value()),
                "aliases": len(self._aliases),
                "snapshots_enabled": self._spill_dir is not None,
                "snapshot_writes": int(self._c_snapshot_writes.value()),
                "snapshot_write_failures": int(
                    self._c_snapshot_write_failures.value()
                ),
                "snapshot_reloads": int(self._c_snapshot_reloads.value()),
                "csv_reloads": int(self._c_csv_reloads.value()),
                "snapshot_quarantined": int(
                    self._c_snapshot_quarantined.value()
                ),
                "restored_from_snapshot": int(
                    self._c_restored_from_snapshot.value()
                ),
                "memo_spills": int(self._c_memo_spills.value()),
                "memo_entries_restored": int(
                    self._c_memo_entries_restored.value()
                ),
                "engines": {
                    e.fingerprint: e.relation._engine.cache_info()
                    for e in resident
                    if e.relation._engine is not None
                },
            }
        finally:
            self._lock.release()
        self._stats_cache = view
        return view
