"""Result cache: ``(fingerprint, operation, canonical params)`` → report.

Every completed job's JSON report is cached under a digest of its
dataset fingerprint, operation name, and **canonicalized** parameters
(defaults filled in, irrelevant knobs dropped, keys sorted), so any two
requests that would compute the same thing share one entry regardless
of how sparsely the client spelled its parameters.

Two layers:

* an in-memory LRU (``max_entries``), serving hits in O(1);
* an optional on-disk **spill** (``spill_dir``): every stored report is
  also written as one JSON file named by its key digest, and a memory
  miss falls through to disk before being declared a miss.  A restarted
  service pointed at the same spill directory therefore starts warm.
  The job queue writes a computed report's spill file only after the
  job is marked done (:meth:`ResultCache.admit`, then
  :meth:`ResultCache.spill`), so the client is not kept waiting on the
  write; a crash in between costs one later miss, never a wrong answer.

Only reports that pass the shared CLI schema
(:func:`repro.factorize.report.validate_report`) are admitted — on put
*and* again when re-loaded from disk — so a cache can never serve a
malformed report.  Partial results (deadline-expired mining) are the
caller's responsibility to withhold; see :mod:`repro.service.jobs`.

Crash safety: spill writes fsync the temp file before the atomic
rename (a hard kill cannot leave an empty-but-renamed entry), and a
corrupt/truncated/schema-invalid spill file found at read time is
**quarantined** — renamed aside into ``quarantine/`` and counted in
``stats()`` — instead of raising or being retried forever.  A poisoned
disk tier therefore degrades to a cache miss plus a recorded incident,
never an error on the serving path.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path

from repro.errors import ReproError, ServiceError
from repro.factorize.report import validate_report
from repro.service.faults import DISABLED, FaultPlan
from repro.service.telemetry import MetricsRegistry


def canonical_key(fingerprint: str, operation: str, params: dict) -> str:
    """Digest identifying one unit of cacheable work.

    ``params`` must already be canonical (see
    :func:`repro.service.operations.canonicalize_params`); this function
    only serializes deterministically and hashes.
    """
    payload = json.dumps(
        {"fingerprint": fingerprint, "operation": operation, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


class ResultCache:
    """LRU report cache with optional on-disk spill."""

    def __init__(
        self,
        *,
        max_entries: int = 1024,
        spill_dir: str | Path | None = None,
        faults: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_entries < 1:
            raise ServiceError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._faults = faults if faults is not None else DISABLED
        self._entries: OrderedDict[str, dict] = OrderedDict()
        # Sidecar per-entry metadata ({fingerprint, operation, params},
        # as supplied by the job layer) plus a fingerprint → keys index,
        # so delta ingest can enumerate a dataset's cached results for
        # revalidation without scanning every entry.
        self._meta: dict[str, dict] = {}
        self._by_fingerprint: dict[str, set[str]] = {}
        self._lock = threading.Lock()
        # Counters live on the (shared) metrics registry — ``/stats``
        # and ``/v1/metrics`` read the same instruments, so the two
        # documents can never disagree.  Standalone (unit-test) caches
        # get a private registry.
        metrics = metrics or MetricsRegistry()
        self._c_hits = metrics.counter(
            "cache_hits_total", "Result-cache hits (memory or spill)"
        )
        self._c_misses = metrics.counter(
            "cache_misses_total", "Result-cache misses"
        )
        self._c_spill_loads = metrics.counter(
            "cache_spill_loads_total", "Entries rehydrated from the disk spill"
        )
        self._c_spill_writes = metrics.counter(
            "cache_spill_writes_total", "Entries spilled to disk"
        )
        self._c_quarantined = metrics.counter(
            "cache_quarantined_total", "Poisoned spill files quarantined"
        )
        self._c_invalidated = metrics.counter(
            "cache_invalidated_total", "Entries explicitly invalidated"
        )
        self.last_quarantine_at: float | None = None  # time.monotonic()

    # Counter attributes stay readable (health checks, tests) while the
    # values live on the metrics registry.
    @property
    def hits(self) -> int:
        return int(self._c_hits.value())

    @property
    def misses(self) -> int:
        return int(self._c_misses.value())

    @property
    def spill_loads(self) -> int:
        return int(self._c_spill_loads.value())

    @property
    def spill_writes(self) -> int:
        return int(self._c_spill_writes.value())

    @property
    def quarantined(self) -> int:
        return int(self._c_quarantined.value())

    @property
    def invalidated(self) -> int:
        return int(self._c_invalidated.value())

    # ------------------------------------------------------------------
    def _spill_path(self, key: str) -> Path | None:
        if self._spill_dir is None:
            return None
        return self._spill_dir / f"result-{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached report for ``key``, or ``None`` (counts a miss).

        Hits return a **deep copy** so callers can annotate their
        response (``cached: true`` etc.) without corrupting the cache.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._c_hits.inc()
                return json.loads(json.dumps(cached))
        spilled = self._load_spilled(key)
        with self._lock:
            if spilled is not None:
                payload, meta = spilled
                self._c_hits.inc()
                self._c_spill_loads.inc()
                self._admit(key, payload, meta)
                return json.loads(json.dumps(payload))
            self._c_misses.inc()
        return None

    def peek(self, key: str) -> dict | None:
        """A deep copy of ``key``'s report from the memory tier, or ``None``.

        Counts neither a hit nor a miss and reads no spill file: the job
        queue's second look, under its own lock, for a result a worker
        put after the submission's counted :meth:`get` missed.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                return None
            self._entries.move_to_end(key)
            return json.loads(json.dumps(cached))

    def _load_spilled(self, key: str) -> tuple[dict, dict] | None:
        path = self._spill_path(key)
        if path is None or not path.exists():
            return None
        try:
            text = path.read_text()
            if self._faults.fire("cache.spill_read_corrupt"):
                # Chaos: the read sees a torn file (first half only).
                text = text[: len(text) // 2]
            document = json.loads(text)
            payload = document["payload"]
            validate_report(payload)
            meta = document.get("meta")
            return payload, meta if isinstance(meta, dict) else {}
        except (OSError, ValueError, KeyError, TypeError, ReproError):
            # A torn, stale, or schema-invalid spill file is a miss,
            # never an error — and it is quarantined so it cannot be
            # re-parsed on every later lookup (or mistaken for healthy
            # state by an operator inspecting the spill directory).
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        """Rename a poisoned spill file aside into ``quarantine/``."""
        try:
            target_dir = path.parent / "quarantine"
            target_dir.mkdir(parents=True, exist_ok=True)
            path.replace(target_dir / path.name)
        except OSError:
            pass  # best effort: a miss either way
        with self._lock:
            self._c_quarantined.inc()
            self.last_quarantine_at = time.monotonic()

    def put(self, key: str, payload: dict, *, meta: dict | None = None) -> None:
        """Admit a report (validated against the shared schema) under ``key``
        and write its spill file before returning."""
        self.spill(self.admit(key, payload, meta=meta))

    def admit(
        self, key: str, payload: dict, *, meta: dict | None = None
    ) -> dict | None:
        """The memory half of :meth:`put`: validate and admit ``payload``.

        Returns the spill document to hand to :meth:`spill` later, or
        ``None`` without a spill directory.  The job queue admits before
        it marks a job done and spills only after the answer is out.
        """
        validate_report(payload)
        frozen = json.loads(json.dumps(payload))  # detach from the producer
        with self._lock:
            self._admit(key, frozen, meta)
        if self._spill_dir is None:
            return None
        return {"key": key, "meta": meta or {}, "payload": frozen}

    def spill(self, document: dict | None) -> None:
        """Write an :meth:`admit` document to disk (``None`` is a no-op).

        Best effort: an ``OSError`` leaves the entry in memory only.
        """
        if document is None:
            return
        path = self._spill_path(document["key"])
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                # Compact, so json's C encoder writes it; indented spills
                # from older builds still load.
                handle.write(
                    json.dumps(document, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
                handle.flush()
                # Durability before visibility: without the fsync, a
                # hard kill after the rename could surface an
                # empty-but-renamed entry from the page cache.
                os.fsync(handle.fileno())
            tmp.replace(path)  # atomic: readers never see a torn file
            if self._faults.fire("cache.spill_write_torn"):
                # Chaos: simulate a crash that tore the entry on
                # disk (e.g. pre-fsync-discipline corruption) — the
                # read path must quarantine it, never serve it.
                with open(path, "r+", encoding="utf-8") as handle:
                    handle.truncate(max(path.stat().st_size // 2, 1))
            self._c_spill_writes.inc()
        except OSError:
            pass  # spill is best-effort; the memory tier already has it

    def _admit(self, key: str, payload: dict, meta: dict | None = None) -> None:
        """Insert/refresh under the LRU cap (caller holds the lock)."""
        self._entries[key] = payload
        self._entries.move_to_end(key)
        if meta:
            self._index(key, meta)
        while len(self._entries) > self._max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._unindex(evicted)

    def _index(self, key: str, meta: dict) -> None:
        """Record ``key``'s metadata + fingerprint index (lock held)."""
        self._meta[key] = dict(meta)
        fingerprint = meta.get("fingerprint")
        if isinstance(fingerprint, str):
            self._by_fingerprint.setdefault(fingerprint, set()).add(key)

    def _unindex(self, key: str) -> None:
        """Drop ``key`` from the metadata sidecar + index (lock held)."""
        meta = self._meta.pop(key, None)
        if meta is None:
            return
        fingerprint = meta.get("fingerprint")
        keys = self._by_fingerprint.get(fingerprint)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_fingerprint[fingerprint]

    def entries_for(self, fingerprint: str) -> list[tuple[str, dict, dict]]:
        """All indexed ``(key, meta, payload)`` entries for one dataset.

        Covers entries stored (or spill-rehydrated) by *this* process —
        spilled entries from a previous run that were never touched are
        not enumerated; they age out as stale keys nobody asks for.
        Payloads and meta are deep copies.
        """
        with self._lock:
            keys = sorted(self._by_fingerprint.get(fingerprint, ()))
            out = []
            for key in keys:
                payload = self._entries.get(key)
                if payload is None:
                    continue
                out.append(
                    (
                        key,
                        dict(self._meta.get(key, {})),
                        json.loads(json.dumps(payload)),
                    )
                )
            return out

    def remove(self, key: str) -> None:
        """Invalidate one entry: memory, index, and spill file."""
        with self._lock:
            existed = self._entries.pop(key, None) is not None
            self._unindex(key)
            if existed:
                self._c_invalidated.inc()
        path = self._spill_path(key)
        if path is not None:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # best effort; a stale spill entry is only a cache hit
                # for the superseded fingerprint, which nothing asks for

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """JSON-ready cache summary (part of ``GET /stats``)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "spill_dir": (
                    str(self._spill_dir) if self._spill_dir is not None else None
                ),
                "spill_loads": self.spill_loads,
                "spill_writes": self.spill_writes,
                "quarantined": self.quarantined,
                "invalidated": self.invalidated,
            }
