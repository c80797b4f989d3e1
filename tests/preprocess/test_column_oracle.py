"""Column-path log preparation against a row-by-row reference.

The column path is ``load_log`` → ``Categorizer.categorize`` →
``deduplicate_exact`` → ``compress``.  The reference kept here parses
line by line with ``iter_lines``/``parse_line``, categorizes one row at a
time with ``Categorizer.classify`` + ``RASEvent.with_entry_data``, and
filters with the first-seen-wins dedup and per-group chain coalesce of
:mod:`repro.perf.suites`.  Both must agree on the clean rows, the origin,
the parse report and the categorization report (or on the error raised),
on a generated raw ANL trace spliced with the defects real dumps carry.
"""

from __future__ import annotations

import io

import pytest

from repro.perf.suites import _coalesce_reference, _deduplicate_reference
from repro.preprocess.categorizer import CategorizationReport, Categorizer
from repro.preprocess.filtering import compress, deduplicate_exact
from repro.raslog.generator import GeneratorConfig, generate_log
from repro.raslog.parser import ParseError, ParseReport, format_line, iter_lines, load_log
from repro.raslog.profiles import ANL_PROFILE
from repro.raslog.store import EventLog

THRESHOLD = 300.0


def _with(line: str, field: int, value: str) -> str:
    """``line`` with one header field replaced."""
    parts = line.split(" ")
    parts[field] = value
    return " ".join(parts)


@pytest.fixture(scope="module")
def spliced_trace() -> str:
    syn = generate_log(
        ANL_PROFILE, GeneratorConfig(scale=0.03, weeks=12, seed=17, duplicates=True)
    )
    lines = [format_line(e) + "\n" for e in syn.raw]
    header = " ".join(lines[40].split()[:9])
    splices = {
        5: "\n",
        9: "   \n",
        40: header + "\n",  # nine fields, empty message
        77: "garbage\n",
        78: "\x00\x7f\x00 binary splice\n",
        120: "- notanepoch 2005.06.03 R00 x y z w v\n",
        150: _with(lines[150], 7, "QUANTUM"),
        151: _with(lines[151], 8, "MEH"),
        200: _with(lines[200], 1, "-5"),
        260: header + " mystery event nobody catalogued 42\n",
        # Case, spacing and a bracketed tail must normalize away.
        300: lines[300][:-1].upper().replace(" ", "  ") + " [bank 3]\n",
        # A benign type logged FATAL: a fake fatal to demote.
        301: _with(lines[301], 8, "FATAL"),
        # Out of time order, so both loaders must sort (stably).
        400: lines[3],
        401: lines[3],
    }
    out = []
    for i, line in enumerate(lines):
        out.append(line[:-1] + "\r\n" if i % 97 == 13 else line)
        if i in splices:
            out.append(splices[i])
    # Enough malformed lines to hit ParseReport's cap on kept errors.
    out.extend(f"truncated line {k}\n" for k in range(25))
    return "".join(out)


def _reference(text, categorizer, parse_report, cat_report, strict):
    rows = list(iter_lines(io.StringIO(text), strict=strict, report=parse_report))
    raw = EventLog(rows, origin=min((e.timestamp for e in rows), default=0.0))
    out = []
    for event in raw:
        etype = categorizer.classify(event)
        if etype is None:
            if categorizer.unknown == "error":
                raise ValueError(
                    f"uncategorizable event: facility={event.facility.value} "
                    f"entry_data={event.entry_data!r}"
                )
            cat_report.record_unmatched(event.facility)
            if categorizer.unknown == "keep":
                out.append(event)
            continue
        cat_report.matched += 1
        if event.severity.is_fatal_class and not etype.fatal:
            cat_report.demoted_fatals += 1
        out.append(event.with_entry_data(etype.code))
    categorized = EventLog(out, origin=raw.origin, _presorted=True)
    temporal = _coalesce_reference(
        _deduplicate_reference(categorized),
        THRESHOLD,
        key_fn=lambda e: (e.location, e.job_id, e.entry_data),
    )
    return _coalesce_reference(
        temporal, THRESHOLD, key_fn=lambda e: (e.job_id, e.entry_data)
    )


def _columns(text, categorizer, parse_report, cat_report, strict):
    raw = load_log(io.StringIO(text), strict=strict, report=parse_report)
    categorized = categorizer.categorize(raw, cat_report)
    clean, _ = compress(deduplicate_exact(categorized), THRESHOLD)
    return clean


def _run(prepare, text, unknown="skip", strict=False):
    """Everything a preparation run reports: the clean log or the error
    raised, the parse report and the categorization report."""
    parse_report, cat_report = ParseReport(), CategorizationReport()
    try:
        clean = prepare(text, Categorizer(unknown=unknown), parse_report, cat_report, strict)
    except ValueError as err:  # ParseError included
        outcome = (type(err), str(err))
    else:
        outcome = (
            clean.origin,
            clean.events,
            [type(e.timestamp) for e in clean],
            list(clean.timestamps),
        )
    errors = [(err.line_no, err.reason) for err in parse_report.errors]
    return outcome, (parse_report.parsed, parse_report.skipped, errors), cat_report


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("unknown", ["skip", "keep", "error"])
def test_spliced_trace_matches_reference(spliced_trace, unknown, strict):
    got = _run(_columns, spliced_trace, unknown, strict)
    assert got == _run(_reference, spliced_trace, unknown, strict)
    outcome, (parsed, skipped, errors), cat_report = got
    if strict:
        assert outcome[0] is ParseError
    elif unknown == "error":
        # Stopped at the nine-field line, with the records before it tallied.
        assert outcome[0] is ValueError and outcome[1].endswith("entry_data=''")
        assert cat_report.matched > 0 and cat_report.unmatched == 0
    else:
        assert len(outcome[1]) > 0
        assert skipped == 31 and len(errors) == 20
        reasons = {reason.split(" '")[0] for _, reason in errors}
        assert reasons == {
            "expected at least 9 fields", "bad epoch field", "unknown facility",
            "unknown severity", "negative epoch",
        }
        assert cat_report.unmatched == 2 and cat_report.demoted_fatals == 1


@pytest.mark.parametrize("unknown", ["skip", "keep"])
def test_strict_on_well_formed_lines(spliced_trace, unknown):
    well_formed = "".join(
        line for line in io.StringIO(spliced_trace) if _parses(line)
    )
    got = _run(_columns, well_formed, unknown, strict=True)
    assert got == _run(_reference, well_formed, unknown, strict=True)
    assert got[1][1] == 0


def test_row_built_log_matches_reference(spliced_trace):
    """Categorize and filter agree on a log built from rows, too."""
    raw = EventLog(iter_lines(io.StringIO(spliced_trace)))
    raw = raw.with_origin(float(raw.timestamps[0]))
    report = CategorizationReport()
    categorized = Categorizer(unknown="keep").categorize(raw, report)
    clean, _ = compress(deduplicate_exact(categorized), THRESHOLD)
    outcome, _, ref_report = _run(_reference, spliced_trace, "keep")
    assert (clean.origin, clean.events) == outcome[:2]
    assert report == ref_report


def test_file_source_matches_stream(spliced_trace, tmp_path):
    path = tmp_path / "raw.log"
    path.write_text(spliced_trace, encoding="utf-8")
    report = ParseReport()
    from_file = load_log(path, report=report)
    with open(path, encoding="utf-8") as fh:
        rows = EventLog(iter_lines(fh))
    assert from_file.events == rows.events
    assert report.parsed == len(rows)


def _parses(line: str) -> bool:
    try:
        list(iter_lines([line], strict=True))
    except ParseError:
        return False
    return True
