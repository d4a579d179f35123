"""Acceptance gate: one test per published criterion, each reporting a
single pass/fail line on the terminal.  Thresholds and ranges are fixed
here and must not be loosened; a red criterion is a real finding."""

import time

import pytest

from reflectron.arith import fundamental_discriminants
from reflectron.cubicforms import count_N3, enumerate_cubic_fields
from reflectron.fieldtables import compare_with_table, parse_field_table
from reflectron.quadforms import class_group, ell_rank
from reflectron.reflection import (
    admissible_conductor_exponents,
    classify_mirror,
    corollary5_predict,
    fl_disc_from_conductor,
    mirror_disc,
    target_discs,
    verify_on3,
)
from test_cli import FIXTURE

ELLS = (3, 5, 7, 11, 13)


@pytest.fixture(scope="module")
def tab54():
    start = time.monotonic()
    tab = enumerate_cubic_fields(54000, workers=4)
    return tab, time.monotonic() - start


def report(capsys, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, name


def scope(bound, *exclude):
    for D in fundamental_discriminants(bound):
        if D not in exclude:
            yield D


def test_criterion_1_identity_holds_to_2000(capsys, tab54):
    tab, build_seconds = tab54
    start = time.monotonic()
    checked = list(scope(2000, -3))
    failures = [D for D in checked if not verify_on3(D, tab).holds]
    elapsed = build_seconds + time.monotonic() - start
    ok = not failures and elapsed < 300
    detail = f"{elapsed:.1f}s, {len(checked)} discriminants"
    report(capsys, "identity-exact-to-2000", ok, detail)


def test_criterion_2_counts_match_class_groups(capsys, tab54):
    tab, _ = tab54
    checked = list(scope(2000))
    bad = [
        D for D in checked if count_N3(tab, D) != (3 ** ell_rank(D, 3) - 1) // 2
    ]
    detail = f"{len(checked)} discriminants"
    report(capsys, "counts-match-class-groups", not bad, detail)


def test_criterion_3_golden_values(capsys, tab54):
    tab, _ = tab54
    complex_cubics = sum(tab.neg[1:101])
    real_cubics = sum(tab.pos[1:101])
    checks = [
        class_group(-23).order == 3,
        class_group(-47).order == 5,
        class_group(229).order == 3 and class_group(229).narrow,
        count_N3(tab, -23) == 1,
        count_N3(tab, -108) == 1,
        complex_cubics == 7,
        real_cubics == 2,
    ]
    report(capsys, "golden-values", all(checks), f"{sum(checks)}/7 checks")


def test_criterion_4_conductor_outputs_match_targets(capsys):
    start = time.monotonic()
    checked = 0
    ok = True
    for ell in ELLS:
        for D in scope(1000, ell, -ell):
            produced = {
                fl_disc_from_conductor(ell, D, k)
                for k in admissible_conductor_exponents(ell, D)
            }
            produced.discard(None)
            ok = ok and produced == set(target_discs(ell, D))
            if ell == 3:
                dstar = -3 * D if D % 3 else -D // 3
                lo, hi = target_discs(3, D)
                ok = ok and (lo.signed_value(), hi.signed_value()) == (dstar, -27 * D)
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    report(
        capsys,
        "conductor-outputs-match-targets",
        ok,
        f"{elapsed:.1f}s, {checked} pairs",
    )


def test_criterion_5_mirror_round_trip(capsys):
    checked = 0
    ok = True
    for ell in ELLS:
        for D in scope(1000, ell, -ell):
            if D % ell == 0 and ell % 4 == 1:
                continue  # mirror shared with the quotient discriminant
            ok = ok and classify_mirror(mirror_disc(ell, D), ell) == D
            checked += 1
    report(capsys, "mirror-round-trip", ok, f"{checked} pairs")


def test_criterion_6_table_reconciliation(capsys):
    entries = parse_field_table(FIXTURE.read_text())
    reports = {
        d: compare_with_table(corollary5_predict(d), entries)
        for d in scope(100)
        if d % 5
    }
    ok = (
        len(reports) == 50
        and all(r.verdict == "pass" for r in reports.values())
        and (reports[-47].expected, reports[-47].observed) == (1, 1)
        and (reports[-11].expected, reports[-11].observed) == (0, 0)
    )
    report(capsys, "table-reconciliation", ok, "50 discriminants")
