"""Time-series data model, CSV ingestion, and topic-prevalence aggregation."""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .periods import ANNUAL, MONTHLY, Period, PeriodError

SUM_TO_ONE_TOL = 1e-6


class SeriesError(ValueError):
    """Raised for malformed series input (bad rows, gaps, duplicates)."""


def _readonly(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise SeriesError("values must be one-dimensional")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Equally spaced observations starting at `start`.

    The regular-grid invariant (strictly increasing, gap-free periods) is
    enforced structurally: only the first period and the value vector are
    stored. Missing values are rejected, never imputed.
    """

    start: Period
    values: np.ndarray = field()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if len(self.values) < 1:
            raise SeriesError("series must contain at least one observation")
        if not np.all(np.isfinite(self.values)):
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise SeriesError(f"non-finite value at position {bad + 1}")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def freq(self) -> str:
        return self.start.freq

    @property
    def periods(self) -> tuple[Period, ...]:
        return tuple(self.start + i for i in range(len(self)))

    @property
    def end(self) -> Period:
        return self.start + (len(self) - 1)

    def index_of(self, period: Period) -> int:
        """0-based position of `period`; raises if outside the series."""
        i = period - self.start
        if not 0 <= i < len(self):
            raise SeriesError(
                f"period {period} outside series range {self.start}..{self.end}"
            )
        return i

    def slice(self, start: Period, end: Period) -> "TimeSeries":
        """Contiguous sub-series, both endpoints included."""
        if end < start:
            raise SeriesError(f"empty window: {start} > {end}")
        i, j = self.index_of(start), self.index_of(end)
        return TimeSeries(start, self.values[i : j + 1], self.label)

    def diff(self) -> "TimeSeries":
        """First differences; one observation shorter, periods shifted forward."""
        if len(self) < 2:
            raise SeriesError("differencing needs at least two observations")
        return TimeSeries(self.start + 1, np.diff(self.values), self.label)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.start == other.start
            and self.label == other.label
            and len(self) == len(other)
            and bool(np.all(self.values == other.values))
        )

    def __hash__(self):
        return hash((self.start, self.label, self.values.tobytes()))


@dataclass(frozen=True)
class DocTopicRecord:
    """One document's probability for one topic in one period."""

    doc_id: str
    period: Period
    topic_id: str
    probability: float

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise SeriesError(
                f"probability {self.probability} outside [0, 1] "
                f"(doc {self.doc_id}, topic {self.topic_id})"
            )


def _parse_period(text: str, date_format: str | None) -> Period:
    if date_format is None:
        return Period.parse(text)
    from datetime import datetime

    dt = datetime.strptime(text.strip(), date_format)
    if "%m" in date_format or "%b" in date_format or "%B" in date_format:
        return Period(dt.year, dt.month)
    return Period(dt.year)


def _resolve_column(spec, header: list[str] | None, what: str) -> int:
    if isinstance(spec, int):
        return spec
    if header is None:
        raise SeriesError(
            f"{what} column {spec!r} given by name but the file has no header"
        )
    try:
        return header.index(spec)
    except ValueError:
        raise SeriesError(f"{what} column {spec!r} not found in header {header}")


def _read_rows(path: Path) -> list[list[str]]:
    """The CSV rows of `path` that hold at least one non-blank cell."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    except OSError as exc:
        raise SeriesError(f"cannot read {path}: {exc.strerror}") from exc


def load_csv(
    path,
    date_column=0,
    value_column=1,
    date_format: str | None = None,
    label: str | None = None,
) -> TimeSeries:
    """Read a (period, value) CSV into a TimeSeries.

    A header row is auto-detected: if the first row's date cell does not
    parse as a period, it is treated as a header. Rows are sorted by parsed
    period; duplicates and grid gaps are reported with their row number.
    """
    path = Path(path)
    rows = _read_rows(path)
    if not rows:
        raise SeriesError(f"{path}: file contains no data rows")

    header = None
    first_date_cell = rows[0][date_column if isinstance(date_column, int) else 0]
    try:
        _parse_period(first_date_cell, date_format)
    except (PeriodError, ValueError):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise SeriesError(f"{path}: no data rows after header")

    di = _resolve_column(date_column, header, "date")
    vi = _resolve_column(value_column, header, "value")

    parsed = []
    offset = 2 if header is not None else 1
    for rownum, row in enumerate(rows, start=offset):
        if max(di, vi) >= len(row):
            raise SeriesError(f"{path}:{rownum}: row has only {len(row)} columns")
        try:
            period = _parse_period(row[di], date_format)
        except (PeriodError, ValueError) as exc:
            raise SeriesError(f"{path}:{rownum}: bad date {row[di]!r}") from exc
        try:
            value = float(row[vi])
        except ValueError as exc:
            raise SeriesError(f"{path}:{rownum}: bad value {row[vi]!r}") from exc
        parsed.append((period, value, rownum))

    parsed.sort(key=lambda t: (t[0].freq, t[0].ordinal()))
    for (p, _, r), (q, _, s) in zip(parsed, parsed[1:]):
        if p.freq != q.freq:
            raise SeriesError(f"{path}:{s}: mixed monthly and annual periods")
        step = q - p
        if step == 0:
            raise SeriesError(f"{path}:{s}: duplicate period {q}")
        if step > 1:
            raise SeriesError(
                f"{path}:{s}: gap before {q} (previous period {p})"
            )

    values = [v for _, v, _ in parsed]
    return TimeSeries(parsed[0][0], values, label if label is not None else path.stem)


def write_csv(series: TimeSeries, path) -> None:
    """Write a TimeSeries as a two-column CSV (round-trips through load_csv)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "value"])
        for period, value in zip(series.periods, series.values):
            writer.writerow([str(period), repr(float(value))])


def load_doc_topic_csv(path) -> list[DocTopicRecord]:
    """Read DocTopicRecord rows from a doc_id,period,topic_id,probability CSV."""
    path = Path(path)
    rows = _read_rows(path)
    if rows and rows[0][:1] and rows[0][0].strip().lower() == "doc_id":
        rows = rows[1:]
    records = []
    for rownum, row in enumerate(rows, start=1):
        if len(row) < 4:
            raise SeriesError(f"{path}:{rownum}: expected 4 columns, got {len(row)}")
        try:
            period = Period.parse(row[1])
        except PeriodError as exc:
            raise SeriesError(f"{path}:{rownum}: bad period {row[1]!r}") from exc
        try:
            prob = float(row[3])
        except ValueError as exc:
            raise SeriesError(f"{path}:{rownum}: bad probability {row[3]!r}") from exc
        records.append(DocTopicRecord(row[0].strip(), period, row[2].strip(), prob))
    return records


def aggregate_prevalence(
    records: list[DocTopicRecord],
    topic: str,
    frequency: str = MONTHLY,
) -> TimeSeries:
    """Per-period mean probability of one topic across documents.

    Every document's probabilities must sum to one (tolerance 1e-6); a
    period inside the covered range with no documents is an error rather
    than a silent gap.
    """
    if frequency not in (MONTHLY, ANNUAL):
        raise SeriesError(f"unknown frequency {frequency!r}")
    if not records:
        raise SeriesError("no records to aggregate")

    doc_period: dict[str, Period] = {}
    for rec in records:
        period = rec.period if frequency == MONTHLY else Period(rec.period.year)
        if rec.period.freq == ANNUAL and frequency == MONTHLY:
            raise SeriesError(
                f"doc {rec.doc_id!r} has an annual period but monthly output requested"
            )
        prev = doc_period.setdefault(rec.doc_id, period)
        if prev != period:
            raise SeriesError(f"doc {rec.doc_id!r} appears in multiple periods")

    by_doc: dict[str, float] = defaultdict(float)
    for rec in records:
        by_doc[rec.doc_id] += rec.probability
    for doc_id, total in by_doc.items():
        if abs(total - 1.0) > SUM_TO_ONE_TOL:
            raise SeriesError(
                f"probabilities for doc {doc_id!r} sum to {total:.8f}, not 1"
            )

    topic_prob: dict[str, float] = defaultdict(float)
    for rec in records:
        if rec.topic_id == topic:
            topic_prob[rec.doc_id] += rec.probability

    per_period: dict[Period, list[float]] = defaultdict(list)
    for doc_id, period in doc_period.items():
        per_period[period].append(topic_prob[doc_id])

    first = min(per_period, key=Period.ordinal)
    last = max(per_period, key=Period.ordinal)
    values = []
    period = first
    while True:
        if period not in per_period:
            raise SeriesError(f"no documents in period {period} inside covered range")
        probs = per_period[period]
        values.append(sum(probs) / len(probs))
        if period == last:
            break
        period = period + 1
    return TimeSeries(first, values, label=f"topic {topic}")
