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

Storage is pluggable behind the :class:`CacheBackend` protocol
(``get``/``put``/``contains``/``clear``/``stats``/``close`` over encoded
JSON bytes).  Three implementations ship:

* :class:`MemoryCacheBackend` — an in-memory LRU bounded by a *byte*
  budget (entries are stored as their encoded JSON, so the budget
  measures real payload weight, not object count);
* :class:`ShardedDiskBackend` — an on-disk JSON directory,
  content-addressed as ``<dir>/<key[:2]>/<key>.json`` (git-object-style
  fan-out so one directory never holds millions of files).  Disk entries
  survive process restarts;
* :class:`TieredCacheBackend` — composes backends fastest-first: a get
  walks the tiers in order and re-admits a deep hit into every earlier
  tier, a put writes through to all of them.  This is the seam a shared
  *remote* tier (a fleet of replicas deduplicating globally) plugs into:
  implement the four methods over the remote store and list it last.

``ResultCache(byte_budget=..., directory=...)`` keeps its historical
behaviour — a memory tier, optionally tiered over a disk directory — by
building exactly that composition; pass ``backend=`` to substitute any
other :class:`CacheBackend`.

Hit/miss/store/evict counters are kept on the cache and, when a tracer
is attached, mirrored as ``cache_*`` trace events
(:mod:`repro.obs.events`) so a service's cache behaviour lands in the
same JSONL stream as its solves.

Thread safety: each backend guards its own structures; JSON
(de)serialization happens outside any lock, and disk writes stay safe
without one because they go through a unique temp file plus an atomic
rename.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, Union

from repro.errors import ReproError
from repro.obs.sinks import Tracer, make_tracer

#: Default in-memory budget: 64 MiB of encoded JSON.
DEFAULT_BYTE_BUDGET = 64 * 1024 * 1024


class CacheEntryError(ReproError):
    """A stored entry's envelope does not match the key it was read under."""


class CacheBackend(Protocol):
    """Storage protocol behind :class:`ResultCache`.

    Implementations store *encoded documents* (the JSON bytes the cache
    writes); the cache owns serialization, fingerprints, counters, and
    trace events, so a backend only needs four storage verbs plus
    ``contains``/``clear`` bookkeeping.

    The service looks each request up as it is submitted, so under the
    ASGI app ``get`` runs on the event-loop thread, and ``get`` and
    ``contains`` must answer quickly.  The memory and sharded-disk tiers
    do; a slow remote tier would stall every request on the loop while
    it answers.
    """

    def get(self, key: str) -> Optional[bytes]:
        """The encoded document for ``key``, or ``None`` on a miss."""
        ...

    def put(self, key: str, encoded: bytes) -> None:
        """Store ``encoded`` under ``key`` (overwriting any old value)."""
        ...

    def contains(self, key: str) -> bool:
        """Membership check with no LRU side effects."""
        ...

    def clear(self) -> None:
        """Drop volatile entries (persistent tiers may keep theirs)."""
        ...

    def stats(self) -> Dict[str, Any]:
        """Backend-specific counters (at least ``{"backend": <name>}``)."""
        ...

    def close(self) -> None:
        """Release resources (connections, file handles); idempotent."""
        ...


class MemoryCacheBackend:
    """In-memory LRU of encoded documents bounded by a byte budget.

    Args:
        byte_budget: Budget in bytes of encoded JSON.  The
            least-recently-used entries are evicted once the total
            exceeds it.  A single entry larger than the whole budget is
            never admitted (deeper tiers still see it through the
            tiered composition's write-through).
        on_evict: Optional callback ``(key, size_bytes)`` per eviction
            (the cache uses it to emit ``cache_evict`` trace events).
    """

    def __init__(
        self,
        byte_budget: int = DEFAULT_BYTE_BUDGET,
        on_evict: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if byte_budget < 0:
            raise ValueError("byte_budget must be nonnegative")
        self.byte_budget = byte_budget
        self._on_evict = on_evict
        self._lock = threading.Lock()
        #: key -> encoded JSON document (most-recently-used last).
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[bytes]:
        """Memory lookup; a hit refreshes the entry's LRU position."""
        with self._lock:
            encoded = self._entries.get(key)
            if encoded is not None:
                self._entries.move_to_end(key)
            return encoded

    def put(self, key: str, encoded: bytes) -> None:
        """Admit ``encoded`` and evict LRU entries over budget."""
        evicted: List[Tuple[str, int]] = []
        with self._lock:
            if key in self._entries:
                self._bytes -= len(self._entries.pop(key))
            if len(encoded) > self.byte_budget:
                return  # oversized: this tier never holds it
            self._entries[key] = encoded
            self._bytes += len(encoded)
            while self._bytes > self.byte_budget and self._entries:
                evicted_key, evicted_encoded = self._entries.popitem(last=False)
                self._bytes -= len(evicted_encoded)
                self.evictions += 1
                evicted.append((evicted_key, len(evicted_encoded)))
        if self._on_evict is not None:
            for evicted_key, size in evicted:
                self._on_evict(evicted_key, size)

    def contains(self, key: str) -> bool:
        """Membership without touching the LRU order."""
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry (the eviction counter is kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> Dict[str, Any]:
        """Entry/byte occupancy and the eviction counter."""
        with self._lock:
            return {
                "backend": "memory",
                "entries": len(self._entries),
                "bytes": self._bytes,
                "byte_budget": self.byte_budget,
                "evictions": self.evictions,
            }

    def close(self) -> None:
        """Release the held documents."""
        self.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ShardedDiskBackend:
    """Content-addressed on-disk tier: ``<dir>/<key[:2]>/<key>.json``.

    Entries survive process restarts.  Writes go through a per-writer
    temp file plus an atomic rename, so concurrent readers (including
    other processes sharing the directory) never see a torn file.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[bytes]:
        """Read the entry's file; ``None`` when absent or unreadable."""
        try:
            return self._path(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, encoded: bytes) -> None:
        """Atomically write the entry (write-then-rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The temp name is per-writer: two threads (or processes) storing
        # the same key must not share a temp file — one's rename would
        # pull it out from under the other.
        tmp = path.parent / f".{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        tmp.write_bytes(encoded)
        tmp.replace(path)

    def contains(self, key: str) -> bool:
        """True when the entry's file exists."""
        return self._path(key).exists()

    def clear(self) -> None:
        """No-op: the disk tier is persistent by design."""

    def stats(self) -> Dict[str, Any]:
        """The backing directory."""
        return {"backend": "disk", "directory": str(self.directory)}

    def close(self) -> None:
        """Nothing held open between calls."""


class TieredCacheBackend:
    """Compose backends fastest-first with read-through re-admission.

    ``get`` walks the tiers in order; a hit at tier *i* is re-admitted
    into every earlier (faster) tier before returning.  ``put`` writes
    through to all tiers.  ``clear`` clears each tier (persistent tiers
    no-op by contract), and ``close`` closes them all.
    """

    def __init__(self, *tiers: CacheBackend) -> None:
        if not tiers:
            raise ValueError("TieredCacheBackend needs at least one tier")
        self.tiers: Tuple[CacheBackend, ...] = tuple(tiers)

    def get(self, key: str) -> Optional[bytes]:
        """Walk the tiers; re-admit deep hits into the faster tiers."""
        for index, tier in enumerate(self.tiers):
            encoded = tier.get(key)
            if encoded is not None:
                for faster in self.tiers[:index]:
                    faster.put(key, encoded)
                return encoded
        return None

    def put(self, key: str, encoded: bytes) -> None:
        """Write through to every tier."""
        for tier in self.tiers:
            tier.put(key, encoded)

    def contains(self, key: str) -> bool:
        """True when any tier holds the key."""
        return any(tier.contains(key) for tier in self.tiers)

    def clear(self) -> None:
        """Clear each tier (persistent tiers keep their entries)."""
        for tier in self.tiers:
            tier.clear()

    def stats(self) -> Dict[str, Any]:
        """Per-tier stats, in composition order."""
        return {
            "backend": "tiered",
            "tiers": [tier.stats() for tier in self.tiers],
        }

    def close(self) -> None:
        """Close every tier."""
        for tier in self.tiers:
            tier.close()


def _find_tier(stats: Dict[str, Any], name: str) -> Optional[Dict[str, Any]]:
    """The first tier document named ``name`` in a (possibly tiered) stats."""
    if stats.get("backend") == name:
        return stats
    for tier in stats.get("tiers", ()):  # one level: tiers don't nest tiers
        if tier.get("backend") == name:
            return tier
    return None


class ResultCache:
    """Content-addressed store of serialized synthesis results.

    Args:
        byte_budget: In-memory budget in bytes of encoded JSON (ignored
            when ``backend`` is supplied).
        directory: Optional on-disk tier, composed behind the memory
            tier (ignored when ``backend`` is supplied).
        trace: Optional :class:`~repro.obs.sinks.TraceSink` receiving
            ``cache_hit`` / ``cache_miss`` / ``cache_store`` /
            ``cache_evict`` events.
        backend: Explicit :class:`CacheBackend` replacing the default
            memory(+disk) composition — e.g. a
            :class:`TieredCacheBackend` ending in a shared remote store.
    """

    def __init__(
        self,
        byte_budget: int = DEFAULT_BYTE_BUDGET,
        directory: Optional[Union[str, Path]] = None,
        trace=None,
        backend: Optional[CacheBackend] = None,
    ) -> None:
        self._tracer: Optional[Tracer] = make_tracer(trace)
        if backend is None:
            memory = MemoryCacheBackend(byte_budget, on_evict=self._on_evict)
            if directory is not None:
                backend = TieredCacheBackend(memory, ShardedDiskBackend(directory))
            else:
                backend = memory
        self.backend = backend
        self._lock = threading.Lock()  # guards the counters only
        # Evictions triggered by this thread's get/put, buffered so their
        # events are emitted *after* the store/hit that caused them.
        self._pending_evictions = threading.local()
        # Counters (read via stats()).
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- historical attribute surface ---------------------------------------
    @property
    def byte_budget(self) -> int:
        """Memory-tier byte budget (0 when no memory tier is composed)."""
        memory = _find_tier(self.backend.stats(), "memory")
        return int(memory["byte_budget"]) if memory is not None else 0

    @property
    def directory(self) -> Optional[Path]:
        """Disk-tier directory (``None`` without a disk tier)."""
        disk = _find_tier(self.backend.stats(), "disk")
        return Path(disk["directory"]) if disk is not None else None

    @property
    def evictions(self) -> int:
        """Memory-tier evictions (0 without a memory tier)."""
        memory = _find_tier(self.backend.stats(), "memory")
        return int(memory["evictions"]) if memory is not None else 0

    # -- raw document interface ---------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored document for ``key``, or ``None`` on a miss.

        A memory-tier hit refreshes the entry's LRU position; a deeper
        (disk/remote) hit re-admits the entry into the faster tiers.
        """
        encoded = self.backend.get(key)
        if encoded is not None:
            with self._lock:
                self.hits += 1
            self._emit("cache_hit", key=key, kind=self._kind_of(encoded))
            self._flush_evictions()
            return json.loads(encoded)
        with self._lock:
            self.misses += 1
        self._emit("cache_miss", key=key, kind="unknown")
        return None

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
        is only reached on version-skew rewrites).
        """
        document = {"kind": kind, "fingerprint": key, "payload": payload}
        encoded = json.dumps(document).encode("utf-8")
        self.backend.put(key, encoded)
        with self._lock:
            self.stores += 1
        self._emit("cache_store", key=key, kind=kind, bytes=len(encoded))
        self._flush_evictions()

    def __contains__(self, key: str) -> bool:
        """True when any tier holds ``key`` (no LRU touch)."""
        return self.backend.contains(key)

    def __len__(self) -> int:
        """Number of entries resident in the memory tier (0 without one)."""
        memory = _find_tier(self.backend.stats(), "memory")
        return int(memory["entries"]) if memory is not None else 0

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot (what ``GET /stats`` serves).

        The historical flat keys (``entries``/``bytes``/``byte_budget``
        from the memory tier, ``directory`` from the disk tier,
        ``evictions`` summed over tiers) are preserved; ``backend``
        carries the per-tier detail.
        """
        backend_stats = self.backend.stats()
        memory = _find_tier(backend_stats, "memory") or {}
        disk = _find_tier(backend_stats, "disk") or {}
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": memory.get("evictions", 0),
                "entries": memory.get("entries", 0),
                "bytes": memory.get("bytes", 0),
                "byte_budget": memory.get("byte_budget", 0),
                "directory": disk.get("directory"),
                "backend": backend_stats,
            }

    def clear(self) -> None:
        """Drop the volatile tiers (counters and persistent tiers kept)."""
        self.backend.clear()

    def close(self) -> None:
        """Close the backend (remote tiers release their connections)."""
        self.backend.close()

    # -- typed helpers -------------------------------------------------------
    def get_design(self, key: str, graph, library):
        """A cached :class:`Design` for ``key``, or ``None``.

        Args:
            key: Request fingerprint.
            graph: The task graph the design was synthesized for (designs
                do not embed their problem).
            library: The technology library.
        """
        from repro.synthesis.io import design_from_dict

        document = self.get(key)
        if document is None or document.get("kind") != "design":
            return None
        return design_from_dict(graph, library, document["payload"])

    def put_design(self, key: str, design) -> None:
        """Store a :class:`Design` under ``key``."""
        from repro.synthesis.io import design_to_document

        self.put(key, "design", design_to_document(design))

    def get_front(self, key: str, graph, library):
        """A cached :class:`ParetoFront` for ``key``, or ``None``."""
        from repro.synthesis.front import ParetoFront

        document = self.get(key)
        if document is None or document.get("kind") != "front":
            return None
        return ParetoFront.from_dict(document["payload"], graph, library)

    def put_front(self, key: str, front) -> None:
        """Store a :class:`ParetoFront` under ``key``."""
        self.put(key, "front", front.to_dict())

    # -- internals -----------------------------------------------------------
    def _on_evict(self, key: str, size: int) -> None:
        pending = getattr(self._pending_evictions, "items", None)
        if pending is None:
            pending = self._pending_evictions.items = []
        pending.append((key, size))

    def _flush_evictions(self) -> None:
        pending = getattr(self._pending_evictions, "items", None)
        if pending:
            self._pending_evictions.items = []
            for key, size in pending:
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
