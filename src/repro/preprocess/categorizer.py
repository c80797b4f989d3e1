"""Event categorization (Section 3.1).

Maps raw RAS records onto the hierarchical catalog: the Facility attribute
selects the high-level category, and the Severity + Entry Data attributes
select the low-level event type.  After categorization an event's
``entry_data`` holds the catalog *code*, which is the identity the learners
and the predictor operate on.

Fake-fatal handling: the paper removes events whose logged severity is
FATAL/FAILURE but which administrators classified as benign.  Those types
carry ``fatal=False`` in the catalog, so simply classifying through the
catalog performs the removal; the report counts how many records were
demoted this way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from repro.raslog.catalog import EventCatalog, EventType, default_catalog
from repro.raslog.events import Facility, RASEvent
from repro.raslog.store import EventColumns, EventLog, Kind

_WS = re.compile(r"\s+")


def normalize_description(text: str) -> str:
    """Canonical form used for description lookup: case- and
    whitespace-insensitive, with trailing numeric details stripped
    (e.g. ``"ddr error ... at 0x0bc0"`` → the generic type text)."""
    text = _WS.sub(" ", text.strip().lower())
    # Strip bracketed or hex/numeric tails that encode per-instance detail.
    text = re.sub(r"\s*\[[^\]]*\]$", "", text)
    text = re.sub(r"\s*(0x[0-9a-f]+|\d+)$", "", text)
    return text.strip()


@dataclass
class CategorizationReport:
    """Tallies from one categorization pass."""

    matched: int = 0
    unmatched: int = 0
    #: records logged FATAL/FAILURE but classified benign (fake fatals)
    demoted_fatals: int = 0
    unmatched_by_facility: dict[Facility, int] = field(default_factory=dict)

    def record_unmatched(self, facility: Facility, n: int = 1) -> None:
        self.unmatched += n
        self.unmatched_by_facility[facility] = (
            self.unmatched_by_facility.get(facility, 0) + n
        )

    @property
    def total(self) -> int:
        return self.matched + self.unmatched

    @property
    def match_rate(self) -> float:
        return self.matched / self.total if self.total else 1.0


class Categorizer:
    """Hierarchical event classifier backed by an :class:`EventCatalog`.

    ``unknown`` controls what happens to records whose description matches
    no catalog type: ``"skip"`` drops them (the paper's cleaning behaviour),
    ``"error"`` raises, ``"keep"`` passes them through uncategorized.
    """

    def __init__(
        self,
        catalog: EventCatalog | None = None,
        unknown: str = "skip",
    ) -> None:
        if unknown not in ("skip", "error", "keep"):
            raise ValueError(f"unknown policy must be skip/error/keep, got {unknown!r}")
        self.catalog = catalog or default_catalog()
        self.unknown = unknown
        self._by_key: dict[tuple[Facility, str], EventType] = {}
        for t in self.catalog:
            self._by_key[(t.facility, normalize_description(t.description))] = t
        # Codes are also accepted as-is so already-categorized logs pass
        # through unchanged (idempotence).
        self._codes = {t.code for t in self.catalog}

    def classify(self, event: RASEvent) -> EventType | None:
        """Find the low-level type of a record, or None when unmatched."""
        return self._lookup(event.facility, event.entry_data)

    def _lookup(self, facility: Facility, entry_data: str) -> EventType | None:
        if entry_data in self._codes:
            return self.catalog.get(entry_data)
        return self._by_key.get((facility, normalize_description(entry_data)))

    def is_fatal(self, event: RASEvent) -> bool:
        """Catalog-level fatality of a record (False when unmatched)."""
        etype = self.classify(event)
        return etype.fatal if etype is not None else False

    def categorize(
        self, log: EventLog, report: CategorizationReport | None = None
    ) -> EventLog:
        """Rewrite ``entry_data`` to catalog codes; apply the unknown policy.

        Each distinct record kind is classified once; the records keep
        their columns and get a rewritten kind column.
        """
        columns = log.columns
        types = [self._lookup(kind[1], kind[3]) for kind in columns.kinds]
        matched = np.array([t is not None for t in types], dtype=bool)
        row_matched = matched[columns.kind_ids]
        all_matched = bool(row_matched.all())
        if self.unknown == "error" and not all_matched:
            first = int(np.argmin(row_matched))
            if report is not None:
                _tally(report, columns.take(slice(0, first)), types)
            _, facility, _, entry_data = columns.kinds[columns.kind_ids[first]]
            raise ValueError(
                f"uncategorizable event: facility={facility.value} "
                f"entry_data={entry_data!r}"
            )
        if report is not None:
            _tally(report, columns, types)
        # Unmatched kinds stay as they are (only "keep" has rows of them).
        table: dict[Kind, int] = {}
        remap = np.array(
            [
                table.setdefault(
                    kind if etype is None else (*kind[:3], etype.code), len(table)
                )
                for kind, etype in zip(columns.kinds, types)
            ],
            dtype=np.intp,
        )
        out = replace(columns, kind_ids=remap[columns.kind_ids], kinds=tuple(table))
        if self.unknown == "skip" and not all_matched:
            out = out.take(row_matched)
        return EventLog.from_columns(out, origin=log.origin)

    def fatal_codes(self) -> frozenset[str]:
        """Codes in the (cleaned) failure list — fake fatals excluded."""
        return frozenset(t.code for t in self.catalog.fatal_types())


def _tally(
    report: CategorizationReport,
    columns: EventColumns,
    types: list[EventType | None],
) -> None:
    """Add the records of ``columns`` to ``report``, one pass per kind."""
    for (_, facility, severity, _), etype, n in zip(
        columns.kinds, types, columns.kind_counts()
    ):
        if not n:
            continue
        if etype is None:
            report.record_unmatched(facility, n)
            continue
        report.matched += n
        if severity.is_fatal_class and not etype.fatal:
            report.demoted_fatals += n
