import io
import json
import random
from pathlib import Path

import pytest

from reflectron.arith import fundamental_discriminants
from reflectron.cli import main
from reflectron.cubicforms import enumerate_cubic_fields
from reflectron.fieldtables import (
    FieldTableEntry,
    TableComparison,
    compare_each_with_table,
    compare_with_table,
    parse_field_table,
)
from reflectron.reflection import (
    Corollary5Report,
    FieldDiscriminant,
    corollary5_predict,
    predict,
    predictions,
)

FIXTURE = Path(__file__).parent / "data" / "f5_synthetic.csv"

SMALL_TABLE = """\
label,degree,r2,disc,galois
5.2.15125.1,5,2,15125,F5
3.3.69.1,3,0,69,S3
3.1.23.1,3,1,-23,S3
"""


def entry(label, degree, r2, disc, galois):
    return FieldTableEntry(label, degree, r2, disc, galois)


def fd(r2, magnitude, degree):
    return FieldDiscriminant(r2, magnitude, degree)


def test_parse_golden():
    entries = parse_field_table(SMALL_TABLE)
    assert entries == [
        entry("5.2.15125.1", 5, 2, 5**3 * 11**2, "F5"),
        entry("3.3.69.1", 3, 0, 69, "S3"),
        entry("3.1.23.1", 3, 1, 23, "S3"),
    ]


def test_parse_accepts_file_like():
    assert parse_field_table(io.StringIO(SMALL_TABLE)) == parse_field_table(SMALL_TABLE)


def test_parse_ignores_disc_sign_and_blank_lines():
    text = "label,degree,r2,disc,galois\n\na,3,1,-23,S3\n\nb,3,1,23,S3\n"
    a, b = parse_field_table(text)
    assert a.disc_magnitude == b.disc_magnitude


def test_parse_keeps_duplicate_rows():
    text = "label,degree,r2,disc,galois\na,3,0,69,S3\na,3,0,69,S3\n"
    assert len(parse_field_table(text)) == 2


def test_parse_empty_table():
    assert parse_field_table("label,degree,r2,disc,galois\n") == []


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing header"),
        ("label,degree,r2,disc\nx,3,0,69\n", "header"),
        ("Label,Degree,R2,Disc,Galois\n", "header"),
        ("label, degree, r2, disc, galois\n", "header"),
        ("label,degree,r2,disc,galois\nx,3,0,69\n", "line 2"),
        ("label,degree,r2,disc,galois\nx,3,zero,69,S3\n", "line 2"),
        ("label,degree,r2,disc,galois\nx,3,0,0,S3\n", "line 2"),
        ("label,degree,r2,disc,galois\na,3,0,69,S3\nx,5,9,15125,F5\n", "line 3"),
        ("label,degree,r2,disc,galois\nx,0,0,69,S3\n", "line 2"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_field_table(text)


def test_entry_validation():
    with pytest.raises(ValueError):
        entry("x", 5, 3, 15125, "F5")
    with pytest.raises(ValueError):
        FieldTableEntry("x", 3, 0, -69, "S3")


def test_compare_cubic_exact_pass():
    table = parse_field_table("label,degree,r2,disc,galois\na,3,0,69,S3\n")
    report = compare_with_table(predict(3, -23), table)
    assert (report.mode, report.verdict) == ("exact", "pass")
    assert (report.expected, report.observed) == (1, 1)
    assert report.missing == () and report.surplus == ()


def test_compare_cubic_wrong_signature_fails():
    # a complex cubic cannot witness a target that is totally real
    table = parse_field_table("label,degree,r2,disc,galois\na,3,1,69,S3\n")
    report = compare_with_table(predict(3, -23), table)
    assert report.verdict == "fail"
    assert (report.expected, report.observed) == (1, 0)
    assert report.missing == (69, 621)


def test_compare_skips_wrong_galois_label_and_wrong_degree():
    # only a at 621 matches; b sits at a target magnitude with a cyclic
    # Galois label, and c has the right datum but degree 6, among cubics
    text = (
        "label,degree,r2,disc,galois\n"
        "b,3,0,69,C3\n"
        "c,6,0,69,S3\n"
        "a,3,0,621,S3\n"
    )
    report = compare_with_table(predict(3, -23), parse_field_table(text))
    assert (report.expected, report.observed, report.verdict) == (1, 1, "pass")
    assert report.surplus == ()


def test_compare_surplus_lists_labels():
    text = "label,degree,r2,disc,galois\nb,3,0,621,S3\na,3,0,69,S3\n"
    report = compare_with_table(predict(3, -23), parse_field_table(text))
    assert report.verdict == "fail"
    assert report.observed == 2
    assert report.surplus == ("a", "b")


def test_compare_corollary5():
    report = compare_with_table(corollary5_predict(-11), [])
    assert (report.mode, report.verdict) == ("exact", "pass")
    assert (report.expected, report.observed) == (0, 0)
    table = parse_field_table("label,degree,r2,disc,galois\na,5,0,276125,F5\n")
    report = compare_with_table(corollary5_predict(-47), table)
    assert (report.expected, report.observed, report.verdict) == (1, 1, "pass")
    report = compare_with_table(corollary5_predict(-47), [])
    assert report.verdict == "fail"
    assert report.missing == (276125, 6903125, 172578125)


def test_compare_completeness_bound_demotes():
    table = parse_field_table("label,degree,r2,disc,galois\na,5,0,276125,F5\n")
    report = compare_with_table(
        corollary5_predict(-47), table, assume_complete_below=10**6
    )
    assert (report.mode, report.verdict) == ("lower-bound", "informational")
    assert "2 of 3 targets" in report.note
    report = compare_with_table(
        corollary5_predict(-47), table, assume_complete_below=10**9
    )
    assert (report.mode, report.verdict) == ("exact", "pass")


def test_compare_lower_bound_never_fails():
    for pred in (predict(5, -11), predict(7, -4), predict(11, -8)):
        report = compare_with_table(pred, [])
        assert (report.mode, report.verdict) == ("lower-bound", "informational")
        assert report.missing == () and report.surplus == ()


def test_compare_ell13_zero_observed_note():
    report = compare_with_table(predict(13, -191), [])
    assert report.expected == 1 and report.observed == 0
    assert report.verdict == "informational"
    assert "ell = 13" in report.note


def test_compare_degree_mismatch_raises():
    table = parse_field_table("label,degree,r2,disc,galois\na,2,0,5,C2\n")
    with pytest.raises(ValueError, match="degree-3"):
        compare_with_table(predict(3, -23), table)


def test_compare_rejects_other_types():
    with pytest.raises(TypeError):
        compare_with_table(fd(0, 69, 3), [])


def test_compare_invariant_under_reordering():
    entries = parse_field_table(FIXTURE.read_text())
    baseline = compare_with_table(corollary5_predict(-47), entries)
    shuffled = entries[:]
    random.Random(7).shuffle(shuffled)
    assert compare_with_table(corollary5_predict(-47), shuffled) == baseline
    assert compare_with_table(corollary5_predict(-47), entries + entries) == baseline


def test_fixture_reconciles_every_discriminant():
    entries = parse_field_table(FIXTURE.read_text())
    checked = 0
    for d in fundamental_discriminants(100):
        if d % 5 == 0:
            continue
        report = compare_with_table(entries=entries, pred=corollary5_predict(d))
        assert report.verdict == "pass", (d, report)
        checked += 1
    assert checked == 50
    assert compare_with_table(corollary5_predict(-47), entries).observed == 1
    assert compare_with_table(corollary5_predict(-11), entries).observed == 0


def test_fixture_round_trips_through_serialization():
    entries = parse_field_table(FIXTURE.read_text())
    lines = ["label,degree,r2,disc,galois"]
    for e in entries:
        lines.append(
            f"{e.label},{e.degree},{e.r2},{e.disc_magnitude},{e.galois_label}"
        )
    assert parse_field_table("\n".join(lines) + "\n") == entries


def _compare_by_brute_force(pred, entries, assume_complete_below):
    # the rules as the docstrings state them, one full scan per target
    if isinstance(pred, Corollary5Report):
        ell, D, exact = 5, pred.d, True
    else:
        ell, D, exact = pred.ell, pred.D, pred.ell == 3
    degree = pred.targets[0].degree
    if entries and all(e.degree != degree for e in entries):
        raise ValueError(f"table has no degree-{degree} entries")
    galois = "S3" if ell == 3 else f"F{ell}"
    labels = set()
    for t in pred.targets:
        for e in entries:
            if (
                e.degree == t.degree
                and e.r2 == t.r2
                and e.disc_magnitude == t.magnitude
                and e.galois_label == galois
            ):
                labels.add(e.label)
    expected, observed = pred.lhs_value, len(labels)
    note = ""
    if exact and assume_complete_below is not None:
        beyond = [t for t in pred.targets if t.magnitude > assume_complete_below]
        if beyond:
            exact = False
            note = f"{len(beyond)} of {len(pred.targets)} targets exceed the completeness bound"
    if not exact:
        if ell == 13 and expected > 0 and observed == 0:
            note = "zero observed at ell = 13 with positive prediction; recorded, not failed"
        args = ("lower-bound", (), (), "informational")
    elif observed == expected:
        args = ("exact", (), (), "pass")
    elif observed < expected:
        args = ("exact", tuple(t.signed_value() for t in pred.targets), (), "fail")
    else:
        args = ("exact", (), tuple(sorted(labels)), "fail")
    mode, missing, surplus, verdict = args
    return TableComparison(
        mode, ell, D, expected, observed, missing, surplus, verdict, note
    )


def _near_misses(rng, t, galois, label):
    # one entry off the target in each key field, all else equal
    others = [r2 for r2 in range(t.degree // 2 + 1) if r2 != t.r2]
    wrong_labels = [g for g in ("C3", "S3", "D5", "F5", "F7", "S5") if g != galois]
    return [
        entry(label(), t.degree + 1, t.r2, t.magnitude, galois),
        entry(label(), t.degree, rng.choice(others), t.magnitude, galois),
        entry(label(), t.degree, t.r2, t.magnitude + rng.choice((-1, 1)), galois),
        entry(label(), t.degree, t.r2, t.magnitude, rng.choice(wrong_labels)),
    ]


def test_compare_matches_a_per_target_brute_force_scan():
    rng = random.Random(20261019)
    preds = [predict(3, D) for D in (-23, -31, -4, 229, 321)]
    preds += [predict(5, -11), predict(7, -4), predict(13, -191)]
    preds += [corollary5_predict(d) for d in (-47, -11, 13, -3, 41)]
    seen = set()
    for trial in range(400):
        pred = rng.choice(preds)
        galois = "S3" if pred.targets[0].degree == 3 else f"F{pred.targets[0].degree}"
        # a small label pool, so labels repeat within and across targets
        pool = rng.randrange(2, 10)

        def label():
            return f"L{rng.randrange(pool)}"

        entries = [entry("filler", pred.targets[0].degree, 0, 1, galois)]
        for t in pred.targets:
            for _ in range(rng.randrange(4)):
                entries.append(entry(label(), t.degree, t.r2, t.magnitude, galois))
            entries += _near_misses(rng, t, galois, label)
        entries += rng.choice(([], entries[: rng.randrange(len(entries))]))
        rng.shuffle(entries)
        magnitudes = sorted(t.magnitude for t in pred.targets)
        bound = rng.choice([None, None, magnitudes[0] - 1, magnitudes[0], magnitudes[-1]])
        got = compare_with_table(pred, entries, assume_complete_below=bound)
        assert got == _compare_by_brute_force(pred, entries, bound), (trial, pred)
        seen.add((got.verdict, bool(got.missing), bool(got.surplus), bool(got.note)))
    # every outcome is reached: pass, both kinds of fail, and
    # informational with and without a note
    assert {
        ("pass", False, False, False),
        ("fail", True, False, False),
        ("fail", False, True, False),
        ("informational", False, False, False),
        ("informational", False, False, True),
    } <= seen


def _until_error(comparisons):
    # the comparisons in order, then the message of a ValueError that
    # ends them
    out = []
    try:
        for comparison in comparisons:
            out.append(comparison)
    except ValueError as err:
        out.append(str(err))
    return out


def test_each_comparison_matches_a_linear_scan_per_prediction():
    # one index of one table for a run of predictions, against a full
    # scan per prediction: shuffled rows, labels repeated within and
    # across targets and predictions, near misses in degree, r2,
    # magnitude and Galois label, an empty table, and tables with no
    # entry of some predicted degree
    rng = random.Random(21)
    preds = [predict(3, D) for D in (-23, -31, -4, 229, 321)]
    preds += [predict(5, -11), predict(7, -4), predict(13, -191)]
    preds += [corollary5_predict(d) for d in (-47, -11, 13, -3, 41)]
    outcomes = set()
    for trial in range(300):
        pool = rng.randrange(2, 12)

        def label():
            return f"L{rng.randrange(pool)}"

        run = rng.sample(preds, rng.randrange(1, len(preds) + 1))
        entries = []
        for pred in rng.sample(preds, rng.randrange(len(preds) + 1)):
            galois = "S3" if pred.targets[0].degree == 3 else f"F{pred.targets[0].degree}"
            for t in pred.targets:
                for _ in range(rng.randrange(3)):
                    entries.append(entry(label(), t.degree, t.r2, t.magnitude, galois))
                entries += _near_misses(rng, t, galois, label)
        rng.shuffle(entries)
        bound = rng.choice([None, 10**4, 10**9])
        got = _until_error(compare_each_with_table(run, entries, assume_complete_below=bound))
        scan = (_compare_by_brute_force(pred, entries, bound) for pred in run)
        assert got == _until_error(scan), trial
        outcomes.add("empty" if not entries else type(got[-1]).__name__)
    assert outcomes == {"empty", "TableComparison", "str"}


def _cubic_field_table(dmax):
    # one row per cubic field with |disc| <= 27 dmax, as the enumerator
    # finds them: every target of predictions(3, D) for |D| <= dmax
    rows = ["label,degree,r2,disc,galois"]
    for disc, count in enumerate_cubic_fields(27 * dmax).items():
        r2 = 0 if disc > 0 else 1
        label = f"3.{3 - 2 * r2}.{abs(disc)}"
        rows += [f"{label}.{i},3,{r2},{abs(disc)},S3" for i in range(1, count + 1)]
    return rows


def test_ell_3_predictions_reconcile_with_the_cubic_enumeration():
    # the cubic case of the identity, closed in one process: class groups
    # predict, the cubic enumerator supplies the table, and every row of
    # the reconciliation is exact and passes
    dmax = 200
    entries = parse_field_table("\n".join(_cubic_field_table(dmax)) + "\n")
    scope = (D for D in fundamental_discriminants(dmax) if D != -3)
    rows = list(compare_each_with_table(predictions(3, scope), entries))
    assert len(rows) == sum(1 for D in fundamental_discriminants(dmax)) - 1
    assert {(row.mode, row.verdict) for row in rows} == {("exact", "pass")}
    assert sum(row.expected for row in rows) > 10


def test_ell_3_table_with_a_field_dropped_or_added_fails(capsys, tmp_path):
    dmax = 200
    lines = _cubic_field_table(dmax)
    scope = (D for D in fundamental_discriminants(dmax) if D != -3)
    pred = next(p for p in predictions(3, scope) if p.dl_count)
    targets = [fd.signed_value() for fd in pred.targets]
    hosted = next(
        line
        for line in lines[1:]
        if any(line.endswith(f",{fd.r2},{fd.magnitude},S3") for fd in pred.targets)
    )
    table = tmp_path / "cubic.csv"
    argv = ["check-table", "--table", str(table), "--ell", "3", "--dmax", str(dmax)]

    table.write_text("\n".join(line for line in lines if line != hosted) + "\n")
    assert main(argv) == 2
    rows = json.loads(capsys.readouterr().out)
    assert [(row["D"], row["verdict"]) for row in rows if row["verdict"] != "pass"] == [
        (pred.D, "fail")
    ]
    failed = next(row for row in rows if row["D"] == pred.D)
    assert failed["observed"] == failed["expected"] - 1
    assert failed["missing"] == targets

    fd = pred.targets[1]
    table.write_text("\n".join(lines + [f"extra,3,{fd.r2},{fd.magnitude},S3"]) + "\n")
    assert main(argv) == 2
    rows = json.loads(capsys.readouterr().out)
    failed = [row for row in rows if row["verdict"] != "pass"]
    assert [row["D"] for row in failed] == [pred.D]
    assert failed[0]["observed"] == failed[0]["expected"] + 1
    assert "extra" in failed[0]["surplus"] and failed[0]["missing"] == []
