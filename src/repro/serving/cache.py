"""Version-aware LRU cache of sampled ``(target, round)`` pairs.

Entries are keyed by ``(target, round)`` and tagged with the store
version at sampling time.  Each entry holds that pair's sampled
enclosing subgraph row only (its own copies of the slot ids, feature
rows and slot edges — never a slice pinning a whole sampled batch);
views and their Γ1/Γ2 augmentation are built from entries at batch
time, keyed by the pair's seed, so hits and misses of one chunk share
a single vectorized build.

Lookups pass the target's current ``region_version``: an entry older
than the last mutation affecting the target's neighbourhood is
discarded on access (lazy invalidation), so the cache never serves a
subgraph the sampler would no longer produce.

Because the serving layer derives every draw deterministically from
``(seed, round, target)``, a *valid* cached pair is bitwise identical
to what re-sampling would return — cache hits change latency, never
scores.

Store compaction (folding the delta overlay into the compacted base
index) changes the topology's *representation*, not its content, and
does not bump ``store.version`` — so a compaction invalidates nothing
here: every warm entry keeps serving across compaction boundaries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from ..graph.sampling import SampledSubgraph


@dataclass
class CacheEntry:
    """One ``(target, round)`` pair's sampled subgraph row."""

    sub: SampledSubgraph
    version: int                          # store.version at sampling time


class SubgraphCache:
    """Bounded LRU mapping ``(target, round) -> CacheEntry``."""

    def __init__(self, maxsize: int = 4096):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key: Tuple[int, int],
            region_version: int) -> Optional[CacheEntry]:
        """Return a still-valid entry for ``key`` or ``None``.

        ``region_version`` is the store's current region version for the
        entry's target; entries sampled before that version are stale.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.version < region_version:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Tuple[int, int], entry: CacheEntry) -> CacheEntry:
        """Insert (or refresh) an entry; evicts LRU entries past capacity."""
        if self.maxsize == 0:
            return entry
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }
