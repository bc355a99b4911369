"""Size-tiered compaction: pick similarly-sized runs, k-way merge them.

The policy mirrors Cassandra's size-tiered strategy: runs are bucketed
by ``log2(size)`` band, and any stretch of at least ``min_runs``
age-adjacent runs in one band is a merge candidate (smallest band
first, so the write amplification stays bottom-heavy).  Only adjacent
runs may merge: the merged run takes the oldest input's place, so a
skipped run in between would end up *newer* than data written after it
— its stale versions would shadow the merged ones, and a tombstone
dropped by the merge would resurrect the key it still holds.  The merge
itself is a streaming k-way union where the *newest* run wins on key
collisions; tombstones are dropped only when the merge includes the
oldest run in the store — otherwise an older, unmerged run could still
resurrect the key.

Merging runs only ever touches immutable inputs, so the engine runs it
without holding any lock and swaps the manifest afterwards.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.docstore.lsm.sstable import SSTable

__all__ = ["merge_runs", "pick_compaction"]


def pick_compaction(
    runs: Sequence[SSTable], min_runs: int = 4
) -> Optional[List[int]]:
    """Indices (oldest-first positions) of runs to merge, or ``None``.

    ``runs`` is ordered oldest → newest, the order the engine keeps its
    manifest in.  Bands are ``int(log2(size))``; the first stretch of
    ``min_runs`` or more consecutive runs in one band — smallest band
    first, oldest stretch first within it — is returned.
    """
    if len(runs) < min_runs:
        return None
    stretches: List[Tuple[int, List[int]]] = []
    for position, run in enumerate(runs):
        band = int(math.log2(max(run.size_bytes, 1)))
        if stretches and stretches[-1][0] == band:
            stretches[-1][1].append(position)
        else:
            stretches.append((band, [position]))
    eligible = [s for s in stretches if len(s[1]) >= min_runs]
    return min(eligible)[1] if eligible else None


def merge_runs(
    runs: Sequence[SSTable], drop_tombstones: bool
) -> Iterator[Tuple[bytes, Optional[bytes]]]:
    """Stream the k-way union of runs, newest version per key.

    ``runs`` is oldest → newest.  With ``drop_tombstones`` the merged
    output omits deletion markers entirely — only valid when the merge
    covers the oldest run, i.e. no older run can still hold a shadowed
    version of the key.
    """
    # Heap entries: (key, -age, iterator-id); higher age = newer run,
    # so the newest version of a key pops first and later duplicates
    # are skipped.
    iterators = [iter(run.iter_entries()) for run in runs]
    heap: List[Tuple[bytes, int, int]] = []
    current: List[Optional[Tuple[bytes, Optional[bytes]]]] = []
    for age, iterator in enumerate(iterators):
        entry = next(iterator, None)
        current.append(entry)
        if entry is not None:
            heapq.heappush(heap, (entry[0], -age, age))
    last_key: Optional[bytes] = None
    while heap:
        key, _, age = heapq.heappop(heap)
        entry = current[age]
        assert entry is not None
        advanced = next(iterators[age], None)
        current[age] = advanced
        if advanced is not None:
            heapq.heappush(heap, (advanced[0], -age, age))
        if key == last_key:
            continue  # an older (shadowed) version of the same key
        last_key = key
        value = entry[1]
        if value is None and drop_tombstones:
            continue
        yield key, value
