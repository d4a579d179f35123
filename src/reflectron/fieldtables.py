"""Reconciliation of predictions against external number-field tables.

Tables arrive as CSV exports from public field databases.  The r2
column is the authority on signature; the sign of the disc column is
ignored, because exports disagree about whether to sign discriminants.
Checks run in one of two modes: exact (pass/fail, for the cubic case
and the ell = 5 aggregate, where the identity pins the count) or
lower-bound (informational, for ell >= 7, where the identity counts
only fields satisfying a side condition no discriminant table records).
A run indexes its table once, the entries sorted by magnitude, so a
prediction is matched by a binary search per target: O(entries log
entries) per table and O(log entries) per target, where a scan of the
entries per prediction cost O(entries).
"""

from __future__ import annotations

import csv
import io
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from operator import attrgetter
from typing import NamedTuple

from .reflection import Corollary5Report, PredictionRecord, _check_signature

_HEADER = "label,degree,r2,disc,galois"

_magnitude = attrgetter("disc_magnitude")


# the fields of FieldTableEntry, which checks them in __new__, as a NamedTuple
# cannot define its own
class _Row(NamedTuple):
    label: str
    degree: int
    r2: int
    disc_magnitude: int
    galois_label: str


class FieldTableEntry(_Row):
    """One table row: a labelled field with its discriminant datum, the
    magnitude the int |disc|, compared as is with FieldDiscriminant.magnitude.
    A row obeys the signature rules of the discriminant it records."""

    __slots__ = ()

    def __new__(
        cls, label: str, degree: int, r2: int, disc_magnitude: int, galois_label: str
    ) -> FieldTableEntry:
        _check_signature(r2, disc_magnitude, degree)
        return super().__new__(cls, label, degree, r2, disc_magnitude, galois_label)

    @classmethod
    def _make(cls, fields: Iterable) -> FieldTableEntry:
        # so that _replace checks its result too
        return cls(*fields)


def parse_field_table(stream) -> list[FieldTableEntry]:
    """Parse a field-table CSV into entries, one per data row.

    The header line must be exactly `label,degree,r2,disc,galois`.
    Rows that are malformed or violate the entry invariants raise
    ValueError naming the 1-based line.  Accepts a file-like object or
    the table as a single string.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    first = stream.readline()
    if not first:
        raise ValueError("empty input: missing header")
    if first.rstrip("\r\n") != _HEADER:
        raise ValueError(f"header must be exactly {_HEADER!r}")
    entries = []
    reader = csv.reader(stream)
    for row in reader:
        line = reader.line_num + 1
        if not row:
            continue
        if len(row) != 5:
            raise ValueError(f"line {line}: expected 5 fields, got {len(row)}")
        label, degree_text, r2_text, disc_text, galois = row
        try:
            degree, r2, disc = int(degree_text), int(r2_text), int(disc_text)
        except ValueError:
            raise ValueError(f"line {line}: degree, r2, disc must be integers") from None
        try:
            # a table names a few Galois groups, so its rows share one
            # string per name
            entry = FieldTableEntry(label, degree, r2, abs(disc), sys.intern(galois))
        except ValueError as err:
            raise ValueError(f"line {line}: {err}") from None
        entries.append(entry)
    return entries


class TableComparison(NamedTuple):
    """Outcome of reconciling one prediction with a table.

    In exact mode the verdict is pass or fail; on failure, missing
    lists the signed target discriminants that could host absent fields
    (the identity fixes only the total, so no single target can be
    blamed) and surplus lists the labels of every matching entry when
    the table holds more fields than predicted.  Lower-bound mode never
    fails; its verdict is always "informational".
    """

    mode: str
    ell: int
    D: int
    expected: int
    observed: int
    missing: tuple[int, ...]
    surplus: tuple[str, ...]
    verdict: str
    note: str


def compare_with_table(
    pred: PredictionRecord | Corollary5Report,
    entries: list[FieldTableEntry],
    *,
    assume_complete_below: int | None = None,
) -> TableComparison:
    """Reconcile one prediction with parsed table entries.

    Exact mode applies to cubic predictions and to the ell = 5
    aggregate reports.  Records for ell >= 7 (and plain ell = 5
    records, whose counts are restricted by the side condition) compare
    as lower bounds only.  assume_complete_below declares how far the
    table is complete: targets beyond it demote the check to
    lower-bound mode, since absence there proves nothing.
    """
    bound = assume_complete_below
    return next(compare_each_with_table([pred], entries, assume_complete_below=bound))


def compare_each_with_table(
    preds: Iterable[PredictionRecord | Corollary5Report],
    entries: list[FieldTableEntry],
    *,
    assume_complete_below: int | None = None,
) -> Iterator[TableComparison]:
    """compare_with_table(pred, entries) for each pred of preds, in
    their order, with the entries indexed once for all of them: sorted
    by magnitude, which holds one list of the entries and no object per
    entry."""
    table = sorted(entries, key=_magnitude)
    degrees = {e.degree for e in entries}
    for pred in preds:
        if isinstance(pred, Corollary5Report):
            ell, D, exact = 5, pred.d, True
        elif isinstance(pred, PredictionRecord):
            ell, D, exact = pred.ell, pred.D, pred.ell == 3
        else:
            raise TypeError(f"cannot compare {type(pred).__name__} with a table")
        targets = pred.targets
        expected = pred.lhs_value
        if degrees and targets[0].degree not in degrees:
            raise ValueError(f"table has no degree-{targets[0].degree} entries")
        # degree-3 Frobenius closure is the full symmetric group, which is
        # how public tables label it; beyond that the F-notation is standard
        galois = "S3" if ell == 3 else f"F{ell}"
        matched = set()
        for fd in targets:
            start = bisect_left(table, fd.magnitude, key=_magnitude)
            for e in table[start : bisect_right(table, fd.magnitude, lo=start, key=_magnitude)]:
                if (e.galois_label, e.degree, e.r2) == (galois, fd.degree, fd.r2):
                    matched.add(e.label)
        observed = len(matched)
        missing, surplus, note = (), (), ""
        if exact and assume_complete_below is not None:
            beyond = sum(fd.magnitude > assume_complete_below for fd in targets)
            if beyond:
                exact = False
                note = f"{beyond} of {len(targets)} targets exceed the completeness bound"
        if not exact:
            verdict = "informational"
            # ell = 13 is never exact, so the bound above has set no note
            if ell == 13 and expected > 0 and observed == 0:
                note = "zero observed at ell = 13 with positive prediction; recorded, not failed"
        elif observed == expected:
            verdict = "pass"
        elif observed < expected:
            verdict, missing = "fail", tuple(fd.signed_value() for fd in targets)
        else:
            verdict, surplus = "fail", tuple(sorted(matched))
        mode = "exact" if exact else "lower-bound"
        yield TableComparison(mode, ell, D, expected, observed, missing, surplus, verdict, note)
