"""Event filtering (Section 3.2): temporal and spatial compression.

*Temporal compression at a single location*: records with identical Job ID,
Location and event identity reported within a threshold of each other are
coalesced into one entry (chain-based tupling, following Hansen & Siewiorek's
time-coalescence model: a record joins the current tuple when its gap to the
previous record of the tuple is within the threshold; the earliest record of
each tuple is kept).

*Spatial compression across locations*: records with identical event
identity and Job ID but *different* locations, close to each other within
the threshold, are reduced to the earliest report.

Event identity is the ``entry_data`` field — the free-text description in a
raw log, or the catalog code after categorization; both work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.raslog.events import Facility
from repro.raslog.store import EventColumns, EventLog


@dataclass
class FilterStats:
    """Input/output record accounting for one compression pass."""

    threshold: float
    n_input: int = 0
    n_output: int = 0
    by_facility: dict[Facility, tuple[int, int]] = field(default_factory=dict)

    @property
    def compression_rate(self) -> float:
        """Fraction of records removed (the paper reports ≥ 98 % at 300 s)."""
        if self.n_input == 0:
            return 0.0
        return 1.0 - self.n_output / self.n_input

    @staticmethod
    def from_logs(
        threshold: float, before: EventLog, after: EventLog
    ) -> "FilterStats":
        before_counts = before.counts_by_facility()
        after_counts = after.counts_by_facility()
        return FilterStats(
            threshold=threshold,
            n_input=len(before),
            n_output=len(after),
            by_facility={
                fac: (before_counts.get(fac, 0), after_counts.get(fac, 0))
                for fac in set(before_counts) | set(after_counts)
            },
        )


def _group_ids(columns: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Fold ``(ids, cardinality)`` columns into one group id per row.

    Rows are in the same group iff they are equal in every column.  The
    ids are folded in mixed radix; the running id is re-densified
    (``np.unique``, a C-speed sort) only when the next fold could
    overflow int64.
    """
    gid, radix = columns[0]
    gid = gid.astype(np.int64, copy=False)
    for ids, cardinality in columns[1:]:
        if radix * cardinality >= 1 << 62:
            uniques, gid = np.unique(gid, return_inverse=True)
            radix = max(len(uniques), 1)
        gid = gid * np.int64(cardinality) + ids
        radix *= cardinality
    return gid


def _identity(columns: EventColumns, with_location: bool) -> list[tuple[np.ndarray, int]]:
    """Id columns of an event's identity: Job ID, entry data[, Location]."""
    jobs, job_ids = np.unique(columns.job_ids, return_inverse=True)
    identity = [(job_ids, max(len(jobs), 1)), columns.entry_ids()]
    if with_location:
        identity.append((columns.location_ids, max(len(columns.locations), 1)))
    return identity


def _coalesce(
    log: EventLog,
    threshold: float,
    with_location: bool,
) -> EventLog:
    """Keep the earliest record of every chain-tuple of a key group.

    Records sharing a key (Job ID + event identity, plus Location when
    ``with_location``) form tuples: consecutive records (in time) whose
    gap is ≤ ``threshold`` belong to the same tuple.  Fully vectorized:
    one stable argsort groups rows by key while preserving time order
    inside each group, then a tuple starts wherever the group id changes
    or the gap to the previous record exceeds the threshold.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    if threshold == 0 or len(log) == 0:
        return log

    gid = _group_ids(_identity(log.columns, with_location))
    # Stable sort by group id: EventLog is time-sorted, so within each
    # group the original (time) order is preserved.
    order = np.argsort(gid, kind="stable")
    ts = log.timestamps[order]
    gid_sorted = gid[order]

    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    np.not_equal(gid_sorted[1:], gid_sorted[:-1], out=starts[1:])
    starts[1:] |= np.diff(ts) > threshold

    keep = np.zeros(len(order), dtype=bool)
    keep[order[starts]] = True
    return log.take(keep)


def temporal_compress(
    log: EventLog, threshold: float
) -> tuple[EventLog, FilterStats]:
    """Coalesce repeated reports from the same location/job/event."""
    out = _coalesce(log, threshold, with_location=True)
    return out, FilterStats.from_logs(threshold, log, out)


def spatial_compress(
    log: EventLog, threshold: float
) -> tuple[EventLog, FilterStats]:
    """Coalesce reports of the same event/job from different locations."""
    out = _coalesce(log, threshold, with_location=False)
    return out, FilterStats.from_logs(threshold, log, out)


def compress(
    log: EventLog, threshold: float
) -> tuple[EventLog, FilterStats]:
    """Full filter: temporal compression, then spatial compression.

    The returned stats are end-to-end (raw input vs final output).
    """
    after_temporal, _ = temporal_compress(log, threshold)
    out, _ = spatial_compress(after_temporal, threshold)
    return out, FilterStats.from_logs(threshold, log, out)


def deduplicate_exact(log: EventLog) -> EventLog:
    """Remove byte-identical records with the same timestamp.

    The logging granularity is sub-millisecond but recorded times are
    second-resolution, so raw logs contain exact-duplicate rows even before
    window-based compression (Section 3).
    """
    if len(log) == 0:
        return log
    ts_uniques, ts_ids = np.unique(log.timestamps, return_inverse=True)
    times = (ts_ids, max(len(ts_uniques), 1))
    gid = _group_ids([times, *_identity(log.columns, with_location=True)])
    # First occurrence (lowest original index) of each signature wins,
    # exactly like the first-seen-wins set scan this replaces.
    _, first = np.unique(gid, return_index=True)
    keep = np.zeros(len(log), dtype=bool)
    keep[first] = True
    return log.take(keep)
