"""A bounded, thread-safe memo of warmed hierarchy state.

The cache-replay and timed-execution entry points snapshot a hierarchy after
its warm-up and restore the snapshot on the next call that would replay
the same warm stream. Those calls run on :class:`~repro.gemm.pool.
WorkerPool` threads when a serve batch fans out, so the memo guards
every lookup and update with one lock, and evicts the least-recently
used entry when full (a wholesale clear would drop the hot snapshots a
sweep keeps coming back to).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, List, Optional


class WarmMemo:
    """A map of at most ``limit`` entries with least-recently-used eviction.

    Args:
        limit: Maximum number of entries held.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        """The entry for ``key`` (now the most recently used), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> int:
        """Store ``value`` as the most recently used entry; returns how
        many least-recently-used entries were evicted to make room."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                evicted += 1
            return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> List[Hashable]:
        """The keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
