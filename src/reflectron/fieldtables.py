"""Reconciliation of predictions against external number-field tables.

Tables arrive as CSV exports from public field databases.  The r2
column is the authority on signature; the sign of the disc column is
ignored, because exports disagree about whether to sign discriminants.
Checks run in one of two modes: exact (pass/fail, for the cubic case
and the ell = 5 aggregate, where the identity pins the count) or
lower-bound (informational, for ell >= 7, where the identity counts
only fields satisfying a side condition no discriminant table records).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .reflection import Corollary5Report, FieldDiscriminant, PredictionRecord

_HEADER = "label,degree,r2,disc,galois"


@dataclass(frozen=True)
class FieldTableEntry:
    """One table row: a labelled field with its discriminant datum, the
    magnitude the int |disc|, compared as is with FieldDiscriminant.magnitude."""

    label: str
    degree: int
    r2: int
    disc_magnitude: int
    galois_label: str

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if self.r2 < 0 or 2 * self.r2 > self.degree:
            raise ValueError(f"r2 = {self.r2} is impossible in degree {self.degree}")
        if self.disc_magnitude < 1:
            raise ValueError("disc magnitude must be positive")


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
            entry = FieldTableEntry(label, degree, r2, abs(disc), galois)
        except ValueError as err:
            raise ValueError(f"line {line}: {err}") from None
        entries.append(entry)
    return entries


def _matching_labels(
    entries: list[FieldTableEntry], fd: FieldDiscriminant, galois_label: str
) -> set[str]:
    return {
        e.label
        for e in entries
        if e.disc_magnitude == fd.magnitude
        and e.degree == fd.degree
        and e.r2 == fd.r2
        and e.galois_label == galois_label
    }


@dataclass(frozen=True)
class TableComparison:
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


def _galois_label_for(ell: int) -> str:
    # degree-3 Frobenius closure is the full symmetric group, which is
    # how public tables label it; beyond that the F-notation is standard
    return "S3" if ell == 3 else f"F{ell}"


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
    if isinstance(pred, Corollary5Report):
        ell, D = 5, pred.d
        exact = True
    elif isinstance(pred, PredictionRecord):
        ell, D = pred.ell, pred.D
        exact = ell == 3
    else:
        raise TypeError(f"cannot compare {type(pred).__name__} with a table")
    targets = pred.targets
    expected = pred.lhs_value
    if entries and all(e.degree != targets[0].degree for e in entries):
        raise ValueError(f"table has no degree-{targets[0].degree} entries")
    galois = _galois_label_for(ell)
    matched: set[str] = set()
    for fd in targets:
        matched |= _matching_labels(entries, fd, galois)
    observed = len(matched)
    note = ""
    if exact and assume_complete_below is not None:
        beyond = [fd for fd in targets if fd.magnitude > assume_complete_below]
        if beyond:
            exact = False
            note = f"{len(beyond)} of {len(targets)} targets exceed the completeness bound"
    if not exact:
        if ell == 13 and expected > 0 and observed == 0:
            mark = "zero observed at ell = 13 with positive prediction; recorded, not failed"
            note = f"{note}; {mark}" if note else mark
        return TableComparison(
            "lower-bound", ell, D, expected, observed, (), (), "informational", note
        )
    if observed == expected:
        return TableComparison("exact", ell, D, expected, observed, (), (), "pass", note)
    if observed < expected:
        missing = tuple(fd.signed_value() for fd in targets)
        return TableComparison(
            "exact", ell, D, expected, observed, missing, (), "fail", note
        )
    return TableComparison(
        "exact", ell, D, expected, observed, (), tuple(sorted(matched)), "fail", note
    )
