import pytest

from reflectron.cubicforms import CubicForm, CubicTabulation
from reflectron.fieldtables import FieldTableEntry, TableComparison
from reflectron.quadforms import ClassGroupStructure
from reflectron.reflection import (
    Corollary5Report,
    FieldDiscriminant,
    OnVerification,
    PredictionRecord,
)

_TARGETS = (FieldDiscriminant(2, 5**3 * 47**2, 5), FieldDiscriminant(2, 5**5 * 47**2, 5))

# each record class with the fields of one value, and a field to change
# with its new value
_RECORDS = [
    (CubicForm, (1, 0, -1, 1), ("d", -1)),
    (CubicTabulation, (3, bytes(4), bytes(4), 1), ("pos", b"\0\0\0\1")),
    (ClassGroupStructure, (-23, (3,), False), ("elementary_divisors", (9,))),
    (FieldDiscriminant, (1, 23, 3), ("magnitude", 31)),
    (PredictionRecord, (5, -47, 2, 1, 1, _TARGETS, False), ("lhs_value", 2)),
    (OnVerification, (-23, (0, 1), 1, True), ("holds", False)),
    (Corollary5Report, (-47, 1, (*_TARGETS, FieldDiscriminant(2, 5**7 * 47**2, 5))), ("d", -31)),
    (FieldTableEntry, ("5.1.2209.1", 5, 2, 2209, "F5"), ("galois_label", "D5")),
    (TableComparison, ("exact", 5, -47, 1, 1, (), (), "pass", ""), ("verdict", "fail")),
]


@pytest.mark.parametrize(
    "cls, fields, change", _RECORDS, ids=[cls.__name__ for cls, _, _ in _RECORDS]
)
def test_records_are_immutable_values(cls, fields, change):
    record = cls(*fields)
    name, value = change
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    # no instance dict, so no new attribute either
    with pytest.raises(AttributeError):
        record.extra = value
    twin = cls(*fields)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    # a named tuple: equal to the plain tuple of its fields
    assert record == fields and record._asdict() == dict(zip(cls._fields, fields))
    changed = record._replace(**{name: value})
    assert type(changed) is cls and getattr(changed, name) == value
    assert changed != record and record == twin
    assert changed._replace(**{name: getattr(record, name)}) == record


@pytest.mark.parametrize(
    "record, change, message",
    [
        (FieldDiscriminant(1, 23, 3), {"r2": 2}, "r2 = 2 is impossible in degree 3"),
        (FieldDiscriminant(1, 23, 3), {"magnitude": 0}, "magnitude must be positive"),
        (FieldTableEntry("a", 3, 1, 23, "S3"), {"degree": 0}, "degree must be positive"),
        (CubicTabulation(3, bytes(4), bytes(4)), {"xmax": 30}, "31 entries"),
        (CubicTabulation(3, bytes(4), bytes(4)), {"modulus": 9}, "modulus must be 1 or 27"),
    ],
)
def test_replace_checks_as_the_constructor_does(record, change, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)

