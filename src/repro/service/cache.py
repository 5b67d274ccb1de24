"""Content-addressed result store for synthesized designs and fronts.

A :class:`ResultCache` maps request fingerprints
(:mod:`repro.service.fingerprint`) to serialized results — single
:class:`~repro.synthesis.design.Design` documents or whole
:class:`~repro.synthesis.front.ParetoFront` documents, in exactly the
schema :func:`repro.synthesis.io.save_design` /
:meth:`~repro.synthesis.front.ParetoFront.to_json` write — so a cached
answer re-serializes byte-identically to the solve that produced it, and
the job service serves a hit's payload as stored
(:meth:`ResultCache.get_payload`).

Each entry is the encoded JSON envelope ``{"kind", "fingerprint",
"payload"}``, held in an in-memory LRU bounded by a *byte* budget and,
when the cache has a ``directory``, also on disk as
``<dir>/<key[:2]>/<key>.json`` (git-object-style fan-out).  Disk entries
survive restarts: a disk hit is re-admitted into memory, and an entry
larger than the whole budget lives on disk only.  Disk writes go through
a per-writer temp file plus an atomic rename; a failed write (a full
disk) leaves no file behind, is counted in ``store_errors``, and the
entry is still served from memory.  Every typed reader goes through
:meth:`ResultCache.get_payload`, which refuses an envelope whose kind or
fingerprint does not match (:class:`CacheEntryError`).

Counters are kept on the cache and, when a tracer is attached, mirrored
as ``cache_*`` trace events (:mod:`repro.obs.events`); a store or hit is
emitted before the evictions it caused.  One lock guards the LRU and the
counters; JSON (de)serialization and disk I/O happen outside it.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.obs.sinks import Tracer, make_tracer

#: Default in-memory budget: 64 MiB of encoded JSON.
DEFAULT_BYTE_BUDGET = 64 * 1024 * 1024


class CacheEntryError(ReproError):
    """A stored entry's envelope does not match the key it was read under."""


class ResultCache:
    """Content-addressed store of serialized synthesis results.

    Args:
        byte_budget: In-memory budget in bytes of encoded JSON.  The
            least-recently-used entries are evicted once the total
            exceeds it; an entry larger than the whole budget is never
            held in memory.
        directory: Optional on-disk store behind the memory LRU.
        trace: Optional :class:`~repro.obs.sinks.TraceSink` receiving
            ``cache_hit`` / ``cache_miss`` / ``cache_store`` /
            ``cache_evict`` events.
    """

    def __init__(
        self,
        byte_budget: int = DEFAULT_BYTE_BUDGET,
        directory: Optional[Union[str, Path]] = None,
        trace=None,
    ) -> None:
        if byte_budget < 0:
            raise ValueError("byte_budget must be nonnegative")
        self.byte_budget = byte_budget
        self.directory = Path(directory) if directory is not None else None
        self._tracer: Optional[Tracer] = make_tracer(trace)
        self._lock = threading.Lock()
        #: key -> encoded JSON document (most-recently-used last).
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0
        # Counters (read via stats()).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_errors = 0
        self.evictions = 0

    # -- raw document interface ---------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored document for ``key``, or ``None`` on a miss.

        A memory hit refreshes the entry's LRU position; a disk hit
        re-admits the entry into memory.
        """
        evicted: List[Tuple[str, int]] = []
        with self._lock:
            encoded = self._entries.get(key)
            if encoded is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if encoded is None:
            encoded = self._read(key)
            with self._lock:
                if encoded is None:
                    self.misses += 1
                else:
                    self.hits += 1
                    evicted = self._admit(key, encoded)
        if encoded is None:
            self._emit("cache_miss", key=key, kind="unknown")
            return None
        self._emit("cache_hit", key=key, kind=self._kind_of(encoded))
        self._emit_evictions(evicted)
        return json.loads(encoded)

    def get_payload(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, as stored, or ``None`` on a miss.

        The envelope :meth:`put` wrote must name ``kind`` and carry
        ``key`` as its fingerprint, so the payload can be served without
        rebuilding it against the request.

        Raises:
            CacheEntryError: The entry's envelope does not match; it is
                never served.
        """
        document = self.get(key)
        if document is None:
            return None
        if document.get("kind") != kind or document.get("fingerprint") != key:
            raise CacheEntryError(
                f"cache entry {key} holds kind {document.get('kind')!r} "
                f"under fingerprint {document.get('fingerprint')!r}, "
                f"expected kind {kind!r}"
            )
        return document["payload"]

    def put(self, key: str, kind: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` (a JSON-compatible dict) under ``key``.

        ``kind`` tags the payload schema (``"design"`` or ``"front"``)
        so readers can dispatch without guessing.  Storing an existing
        key overwrites it (same content address ⇒ same content, so this
        is only reached on version-skew rewrites).  The entry goes into
        memory first, then to disk; a disk write that fails with an
        ``OSError`` is counted in ``store_errors`` instead of raising,
        and the entry stays in memory.
        """
        document = {"kind": kind, "fingerprint": key, "payload": payload}
        encoded = json.dumps(document).encode("utf-8")
        with self._lock:
            evicted = self._admit(key, encoded)
        written = self._write(key, encoded)
        with self._lock:
            if written:
                self.stores += 1
            else:
                self.store_errors += 1
        if written:
            self._emit("cache_store", key=key, kind=kind, bytes=len(encoded))
        self._emit_evictions(evicted)

    def __contains__(self, key: str) -> bool:
        """True when memory or disk holds ``key`` (no LRU touch)."""
        with self._lock:
            if key in self._entries:
                return True
        return self.directory is not None and self._path(key).exists()

    def __len__(self) -> int:
        """Number of entries resident in memory."""
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot (what ``GET /v1/stats`` serves).

        ``backend`` describes the storage layout: the memory LRU alone,
        or ``tiered`` over ``[memory, disk]`` when a directory is set.
        """
        directory = str(self.directory) if self.directory is not None else None
        with self._lock:
            memory = {
                "backend": "memory",
                "entries": len(self._entries),
                "bytes": self._bytes,
                "byte_budget": self.byte_budget,
                "evictions": self.evictions,
            }
            stats = {"hits": self.hits, "misses": self.misses,
                     "stores": self.stores, "store_errors": self.store_errors}
        for name in ("evictions", "entries", "bytes", "byte_budget"):
            stats[name] = memory[name]
        stats["directory"] = directory
        stats["backend"] = memory if directory is None else {
            "backend": "tiered",
            "tiers": [memory, {"backend": "disk", "directory": directory}],
        }
        return stats

    def clear(self) -> None:
        """Empty memory (counters and disk entries are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # -- typed helpers -------------------------------------------------------
    def get_design(self, key: str, graph, library):
        """A cached :class:`Design` for ``key`` (solved over ``graph``
        and ``library``, which designs do not embed), or ``None``.

        Raises:
            CacheEntryError: The entry's envelope does not match.
        """
        from repro.synthesis.io import design_from_dict

        payload = self.get_payload(key, "design")
        return None if payload is None else design_from_dict(graph, library, payload)

    def put_design(self, key: str, design) -> None:
        """Store a :class:`Design` under ``key``."""
        from repro.synthesis.io import design_to_document

        self.put(key, "design", design_to_document(design))

    def get_front(self, key: str, graph, library):
        """A cached :class:`ParetoFront` for ``key``, or ``None``.

        Raises:
            CacheEntryError: The entry's envelope does not match.
        """
        from repro.synthesis.front import ParetoFront

        payload = self.get_payload(key, "front")
        return None if payload is None else ParetoFront.from_dict(payload, graph, library)

    def put_front(self, key: str, front) -> None:
        """Store a :class:`ParetoFront` under ``key``."""
        self.put(key, "front", front.to_dict())

    # -- internals -----------------------------------------------------------
    def _admit(self, key: str, encoded: bytes) -> List[Tuple[str, int]]:
        """Put ``encoded`` in memory; the evicted ``(key, bytes)``.

        Caller holds the lock.
        """
        if key in self._entries:
            self._bytes -= len(self._entries.pop(key))
        if len(encoded) > self.byte_budget:
            return []  # oversized: kept on disk only
        self._entries[key] = encoded
        self._bytes += len(encoded)
        evicted = []
        while self._bytes > self.byte_budget:
            evicted_key, evicted_encoded = self._entries.popitem(last=False)
            self._bytes -= len(evicted_encoded)
            self.evictions += 1
            evicted.append((evicted_key, len(evicted_encoded)))
        return evicted

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def _read(self, key: str) -> Optional[bytes]:
        """The entry's file, or ``None`` without a directory or file."""
        if self.directory is None:
            return None
        try:
            return self._path(key).read_bytes()
        except OSError:
            return None

    def _write(self, key: str, encoded: bytes) -> bool:
        """Atomically write the entry's file; False when the disk refused.

        A failed write removes its temp file, so neither a torn temp
        file nor a partial entry is left behind.
        """
        if self.directory is None:
            return True
        path = self._path(key)
        # The temp name is per-writer: two threads (or processes) storing
        # the same key must not share a temp file — one's rename would
        # pull it out from under the other.
        tmp = path.parent / f".{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(encoded)
            tmp.replace(path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            return False
        return True

    def _emit_evictions(self, evicted: List[Tuple[str, int]]) -> None:
        for key, size in evicted:
            self._emit("cache_evict", key=key, bytes=size)

    @staticmethod
    def _kind_of(encoded: bytes) -> str:
        # The kind tag sits first in the stored document; a full parse
        # just for a trace label would be wasteful on big fronts.
        head = encoded[:40].decode("utf-8", errors="replace")
        for kind in ("design", "front"):
            if f'"kind": "{kind}"' in head or f'"kind":"{kind}"' in head:
                return kind
        return "unknown"

    def _emit(self, event_type: str, **data) -> None:
        if self._tracer is not None:
            self._tracer.emit(event_type, **data)
