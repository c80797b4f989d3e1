"""In-memory RAS event store.

``EventLog`` replaces the paper's centralized DB2 repository: an immutable,
time-sorted sequence of RAS records held as interned columns
(:class:`EventColumns`) — a NumPy timestamp index, record and job ids,
and ids into small tables of the distinct locations and record kinds.
Window queries (the predictor's sliding window, the learners'
rule-generation windows, weekly evaluation slices) are ``searchsorted`` +
view operations; compressions and aggregations read the id columns.

:class:`~repro.raslog.events.RASEvent` rows are built on first row access,
once per log and shared with every view sliced from it, so a raw log that
is parsed, categorized and filtered only ever builds rows for the records
that survive.  Logs built from rows (the generator, session history) keep
their rows and intern their columns only when a filter or an aggregation
asks for them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import compress
from typing import overload

import numpy as np

from repro.raslog.catalog import EventCatalog
from repro.raslog.events import Facility, RASEvent, Severity
from repro.utils.timeutil import WEEK_SECONDS

#: The header fields a record shares with every other record of its kind:
#: ``(event_type, facility, severity, entry_data)``.
Kind = tuple[str, Facility, Severity, str]


@dataclass(frozen=True, slots=True)
class EventColumns:
    """An event log as aligned read-only columns, one entry per record.

    ``location_ids`` index ``locations`` and ``kind_ids`` index ``kinds``;
    a table may hold entries no row refers to.
    """

    times: np.ndarray
    record_ids: np.ndarray
    job_ids: np.ndarray
    location_ids: np.ndarray
    kind_ids: np.ndarray
    locations: tuple[str, ...]
    kinds: tuple[Kind, ...]

    def __post_init__(self) -> None:
        for column in (
            self.times, self.record_ids, self.job_ids, self.location_ids, self.kind_ids
        ):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_rows(cls, rows: Sequence[RASEvent], times: np.ndarray) -> "EventColumns":
        """Intern the columns of ``rows`` (whose times are ``times``)."""
        n = len(rows)
        locations: dict[str, int] = {}
        kinds: dict[Kind, int] = {}
        location_ids = np.fromiter(
            (locations.setdefault(e.location, len(locations)) for e in rows),
            dtype=np.intp,
            count=n,
        )
        kind_ids = np.fromiter(
            (
                kinds.setdefault(
                    (e.event_type, e.facility, e.severity, e.entry_data), len(kinds)
                )
                for e in rows
            ),
            dtype=np.intp,
            count=n,
        )
        return cls(
            times=times,
            record_ids=np.fromiter((e.record_id for e in rows), np.int64, n),
            job_ids=np.fromiter((e.job_id for e in rows), np.int64, n),
            location_ids=location_ids,
            kind_ids=kind_ids,
            locations=tuple(locations),
            kinds=tuple(kinds),
        )

    def take(self, index: np.ndarray | slice) -> "EventColumns":
        """The rows selected by a boolean mask, an index array or a slice."""
        return replace(
            self,
            times=self.times[index],
            record_ids=self.record_ids[index],
            job_ids=self.job_ids[index],
            location_ids=self.location_ids[index],
            kind_ids=self.kind_ids[index],
        )

    def kind_counts(self) -> list[int]:
        """Number of rows of each kind, indexed like ``kinds``."""
        return np.bincount(self.kind_ids, minlength=len(self.kinds)).tolist()

    def entry_ids(self) -> tuple[np.ndarray, int]:
        """Per-row ids of the ``entry_data`` field, and how many ids exist."""
        table: dict[str, int] = {}
        per_kind = np.array(
            [table.setdefault(kind[3], len(table)) for kind in self.kinds],
            dtype=np.intp,
        )
        return per_kind[self.kind_ids], max(len(table), 1)

    def rows(self) -> tuple[RASEvent, ...]:
        """One :class:`RASEvent` per record."""
        locations = self.locations
        return tuple(
            RASEvent(record_id, kind[0], t, job_id, locations[loc], kind[3], kind[1], kind[2])
            for record_id, t, job_id, loc, kind in zip(
                self.record_ids.tolist(),
                self.times.tolist(),
                self.job_ids.tolist(),
                self.location_ids.tolist(),
                map(self.kinds.__getitem__, self.kind_ids.tolist()),
            )
        )


class _Store:
    """Times, rows and columns of one log, shared with its views.

    At least one of ``rows`` and ``columns`` is set; the other is built
    from it on first use.
    """

    __slots__ = ("times", "rows", "columns")

    def __init__(
        self,
        times: np.ndarray,
        rows: tuple[RASEvent, ...] | None,
        columns: EventColumns | None,
    ) -> None:
        self.times = times
        self.rows = rows
        self.columns = columns

    def get_rows(self) -> tuple[RASEvent, ...]:
        if self.rows is None:
            self.rows = self.columns.rows()
        return self.rows

    def get_columns(self) -> EventColumns:
        if self.columns is None:
            self.columns = EventColumns.from_rows(self.rows, self.times)
        return self.columns


class EventLog:
    """Immutable, time-ordered collection of RAS events.

    ``origin`` anchors week/day arithmetic: week *w* covers
    ``[origin + w*WEEK, origin + (w+1)*WEEK)``.  Slicing returns views that
    share the underlying storage (times, columns and any built rows).
    """

    __slots__ = ("_store", "_lo", "_hi", "_times", "_rows", "_origin")

    def __init__(
        self,
        events: Iterable[RASEvent] = (),
        *,
        origin: float = 0.0,
        _presorted: bool = False,
    ) -> None:
        evts = tuple(events)
        if not _presorted:
            evts = tuple(sorted(evts, key=lambda e: e.timestamp))
        times = np.fromiter(
            (e.timestamp for e in evts), dtype=np.float64, count=len(evts)
        )
        times.setflags(write=False)
        self._set(_Store(times, evts, None), 0, len(evts), float(origin))

    @classmethod
    def from_columns(cls, columns: EventColumns, *, origin: float = 0.0) -> "EventLog":
        """A log over ``columns``; rows are built on first row access.

        Unsorted columns are stably sorted by time, as the row
        constructor does.
        """
        times = columns.times
        if len(times) > 1 and bool((times[1:] < times[:-1]).any()):
            columns = columns.take(np.argsort(times, kind="stable"))
        log = cls.__new__(cls)
        log._set(_Store(columns.times, None, columns), 0, len(columns), float(origin))
        return log

    def _set(self, store: _Store, lo: int, hi: int, origin: float) -> None:
        self._store = store
        self._lo = lo
        self._hi = hi
        self._times = store.times[lo:hi]
        self._rows = None
        self._origin = origin

    def _view(self, lo: int, hi: int, origin: float | None = None) -> "EventLog":
        """Records ``lo .. hi-1`` of this log, sharing its storage."""
        log = EventLog.__new__(EventLog)
        log._set(
            self._store,
            self._lo + lo,
            self._lo + hi,
            self._origin if origin is None else origin,
        )
        return log

    # -- basic container protocol -------------------------------------

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self) -> Iterator[RASEvent]:
        return iter(self.events)

    @overload
    def __getitem__(self, index: int) -> RASEvent: ...

    @overload
    def __getitem__(self, index: slice) -> "EventLog": ...

    def __getitem__(self, index: int | slice) -> "RASEvent | EventLog":
        if isinstance(index, slice):
            if index.step not in (None, 1):
                raise ValueError("EventLog slices must be contiguous (step 1)")
            start, stop, _ = index.indices(len(self))
            return self._view(start, max(start, stop))
        return self.events[index]

    def __repr__(self) -> str:
        if len(self) == 0:
            return f"EventLog(n=0, origin={self._origin})"
        return (
            f"EventLog(n={len(self)}, origin={self._origin}, "
            f"span=[{self._times[0]:.0f}, {self._times[-1]:.0f}])"
        )

    # -- metadata ------------------------------------------------------

    @property
    def events(self) -> tuple[RASEvent, ...]:
        """The records as rows (built on first access)."""
        if self._rows is None:
            self._rows = self._store.get_rows()[self._lo : self._hi]
        return self._rows

    @property
    def columns(self) -> EventColumns:
        """The records as interned columns (interned on first access)."""
        columns = self._store.get_columns()
        if self._lo == 0 and self._hi == len(columns):
            return columns
        return columns.take(slice(self._lo, self._hi))

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only float64 array of event times (sorted ascending)."""
        return self._times

    @property
    def origin(self) -> float:
        return self._origin

    @property
    def span(self) -> tuple[float, float]:
        """(first, last) event time; ``(origin, origin)`` when empty."""
        if len(self) == 0:
            return (self._origin, self._origin)
        return (float(self._times[0]), float(self._times[-1]))

    @property
    def n_weeks(self) -> int:
        """Number of (possibly partial) weeks spanned from the origin."""
        if len(self) == 0:
            return 0
        return int((self._times[-1] - self._origin) // WEEK_SECONDS) + 1

    def with_origin(self, origin: float) -> "EventLog":
        return self._view(0, len(self), float(origin))

    # -- time-window queries --------------------------------------------

    def between(self, start: float, end: float) -> "EventLog":
        """Events with ``start <= t < end`` as a zero-copy view."""
        if end < start:
            raise ValueError(f"empty interval: start={start} > end={end}")
        lo = int(np.searchsorted(self._times, start, side="left"))
        hi = int(np.searchsorted(self._times, end, side="left"))
        return self._view(lo, hi)

    def window_before(self, t: float, width: float) -> "EventLog":
        """Events inside ``[t - width, t)`` — a rule-generation window."""
        if width < 0:
            raise ValueError(f"negative window width {width}")
        return self.between(t - width, t)

    def week(self, week: int) -> "EventLog":
        """Events of the given zero-based week (relative to the origin)."""
        start = self._origin + week * WEEK_SECONDS
        return self.between(start, start + WEEK_SECONDS)

    def slice_weeks(self, first: int, last: int) -> "EventLog":
        """Events of weeks ``first .. last-1`` (half-open, like ``range``)."""
        if last < first:
            raise ValueError(f"empty week range [{first}, {last})")
        start = self._origin + first * WEEK_SECONDS
        end = self._origin + last * WEEK_SECONDS
        return self.between(start, end)

    # -- filtering -------------------------------------------------------

    def take(self, keep: np.ndarray) -> "EventLog":
        """The records where boolean mask ``keep`` is set, in order.

        Columns are gathered; rows already built are carried over.  When
        every record is kept the log itself is returned.
        """
        if keep.all():
            return self
        columns = self.columns.take(keep)
        rows = self._rows
        if rows is None and self._store.rows is not None:
            rows = self.events
        if rows is not None:
            rows = tuple(compress(rows, keep.tolist()))
        log = EventLog.__new__(EventLog)
        log._set(_Store(columns.times, rows, columns), 0, len(columns), self._origin)
        return log

    def filter(self, predicate: Callable[[RASEvent], bool]) -> "EventLog":
        kept = tuple(e for e in self.events if predicate(e))
        return EventLog(kept, origin=self._origin, _presorted=True)

    def select_codes(self, codes: Iterable[str]) -> "EventLog":
        """Events whose ``entry_data`` is one of the given codes."""
        wanted = frozenset(codes)
        return self.filter(lambda e: e.entry_data in wanted)

    def fatal(self, catalog: EventCatalog) -> "EventLog":
        """Events whose categorized code is catalog-fatal.

        Requires a categorized log (``entry_data`` holds catalog codes);
        events with unknown codes are treated as non-fatal.
        """
        return self.filter(
            lambda e: e.entry_data in catalog and catalog.is_fatal_code(e.entry_data)
        )

    def nonfatal(self, catalog: EventCatalog) -> "EventLog":
        return self.filter(
            lambda e: not (
                e.entry_data in catalog and catalog.is_fatal_code(e.entry_data)
            )
        )

    # -- aggregation ------------------------------------------------------

    def counts_by_facility(self) -> dict[Facility, int]:
        columns = self.columns
        counts: dict[Facility, int] = {}
        for kind, n in zip(columns.kinds, columns.kind_counts()):
            if n:
                counts[kind[1]] = counts.get(kind[1], 0) + n
        return counts

    def counts_by_code(self) -> dict[str, int]:
        columns = self.columns
        counts: dict[str, int] = {}
        for kind, n in zip(columns.kinds, columns.kind_counts()):
            if n:
                counts[kind[3]] = counts.get(kind[3], 0) + n
        return counts

    def daily_counts(self) -> np.ndarray:
        """Events per day from the origin (Figure 4 series)."""
        if len(self) == 0:
            return np.zeros(0, dtype=np.int64)
        days = ((self._times - self._origin) // 86400.0).astype(np.int64)
        if days.min() < 0:
            raise ValueError("log contains events before its origin")
        return np.bincount(days)

    def interarrivals(self) -> np.ndarray:
        """Gaps between consecutive events (Figure 5 inputs)."""
        if len(self) < 2:
            return np.zeros(0, dtype=np.float64)
        return np.diff(self._times)

    # -- combination -----------------------------------------------------

    @staticmethod
    def concat(logs: Sequence["EventLog"], origin: float | None = None) -> "EventLog":
        """Merge several logs into one time-sorted log."""
        if not logs:
            return EventLog(origin=origin or 0.0)
        events: list[RASEvent] = []
        for log in logs:
            events.extend(log.events)
        base = logs[0].origin if origin is None else origin
        return EventLog(events, origin=base)
