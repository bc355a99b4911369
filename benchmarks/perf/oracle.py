"""Correctness oracle: brute force over the generated documents.

Every sampled query (each 20th of a stream) is checked twice: its
result ids against a linear bbox-and-window scan of the document list
the data set was generated as, and its counter frame against
``ShardedCluster.find`` on the same rendered query.  The list is sorted
by date once and the scan starts at the window's first document and
stops at its last: 383 scans of all 50 000 documents took 5 s of every
``hil_point`` run.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

from repro.core.approaches import COLLECTION

from benchmarks.perf.drive import QueryRecord
from benchmarks.perf.setup import Bench


class PointTable:
    """(date, lon, lat, record_id) per document, in date order."""

    def __init__(self, documents: Iterable[dict]) -> None:
        self.rows: List[Tuple[object, float, float, int]] = sorted(
            (
                (d["date"], d["longitude"], d["latitude"], d["record_id"])
                for d in documents
            ),
            key=itemgetter(0),
        )
        self.dates = [row[0] for row in self.rows]


def brute_force(table: PointTable, query) -> List[int]:
    """Sorted record ids inside the query's box and window."""
    box = query.bbox
    lo_lon, hi_lon, lo_lat, hi_lat = box.min_lon, box.max_lon, box.min_lat, box.max_lat
    first = bisect.bisect_left(table.dates, query.time_from)
    last = bisect.bisect_right(table.dates, query.time_to)
    return sorted(
        rid
        for _date, lon, lat, rid in table.rows[first:last]
        if lo_lon <= lon <= hi_lon and lo_lat <= lat <= hi_lat
    )


def count_mismatches(
    bench: Bench,
    table: PointTable,
    queries: Sequence,
    records: Iterable[QueryRecord],
    first_index: int = 0,
    check_counters: bool = True,
) -> Tuple[int, int]:
    """(checked, mismatched) over the sampled records of one pass.

    ``check_counters`` is off for the reader that runs beside the
    writer: documents inserted since the query ran sit inside its
    Hilbert ranges and move keysExamined, though never the result.
    """
    checked = mismatched = 0
    for record in records:
        if record.sample_ids is None:
            continue
        query = queries[record.index - first_index]
        checked += 1
        ok = record.sample_ids == brute_force(table, query)
        if ok and check_counters:
            rendered, _ = bench.approach.render_query(query)
            frame = bench.cluster.find(COLLECTION, rendered).stats.as_dict()
            ok = frame == record.sample_frame
        if not ok:
            mismatched += 1
    return checked, mismatched
