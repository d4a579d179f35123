import sys

import pytest

from reflectron.arith import fundamental_discriminants, is_fundamental_discriminant, is_prime
from reflectron.cubicforms import enumerate_cubic_fields
from reflectron.quadforms import ell_rank
from reflectron.reflection import (
    FieldDiscriminant,
    admissible_conductor_exponents,
    classify_mirror,
    corollary5_predict,
    count_Dl,
    fl_disc_from_conductor,
    mirror_disc,
    predict,
    predictions,
    target_discs,
    verify_on3,
)

ELLS = (3, 5, 7, 11, 13)


def fd(r2, magnitude, degree):
    return FieldDiscriminant(r2, magnitude, degree)


def _valid_discs(ell, bound):
    for D in fundamental_discriminants(bound):
        if D not in (ell, -ell):
            yield D


def test_field_discriminant_validation():
    with pytest.raises(ValueError):
        FieldDiscriminant(2, 23, 3)  # 2 r2 exceeds the degree
    with pytest.raises(ValueError):
        FieldDiscriminant(-1, 23, 3)
    with pytest.raises(ValueError):
        FieldDiscriminant(0, -23, 3)  # magnitude carries no sign
    with pytest.raises(ValueError):
        FieldDiscriminant(0, 0, 3)
    assert fd(1, 23, 3).signed_value() == -23
    assert fd(2, 1125, 4).signed_value() == 1125


def test_mirror_disc_golden():
    assert mirror_disc(3, -4) == fd(0, 12, 2)
    assert mirror_disc(5, -3) == fd(0, 1125, 4)
    assert mirror_disc(3, 21) == fd(1, 7, 2)
    # a discriminant divisible by ell when ell = 1 mod 4 shares its
    # mirror with the quotient discriminant
    assert mirror_disc(5, -15) == mirror_disc(5, -3)
    assert mirror_disc(7, -4) == fd(0, 7**5 * 4**3, 6)


def test_mirror_disc_excluded():
    for ell, D in ((3, 1), (3, -3), (5, 5), (7, -7), (3, 45)):
        with pytest.raises(ValueError):
            mirror_disc(ell, D)


def test_classify_mirror_golden():
    assert classify_mirror(fd(0, 12, 2), 3) == -4
    assert classify_mirror(fd(0, 1125, 4), 5) == -3
    assert classify_mirror(fd(1, 7, 2), 3) == 21
    with pytest.raises(ValueError):
        classify_mirror(fd(0, 7, 2), 3)  # no case shape fits 7
    with pytest.raises(ValueError):
        classify_mirror(fd(0, 12, 2), 5)  # wrong degree
    with pytest.raises(ValueError):
        classify_mirror(fd(1, 1125, 4), 5)  # signature matches no case


def test_classify_mirror_round_trip():
    # |D| near 10^5 puts the magnitudes past 2^53 at ell = 7 and near
    # 10^30 away from 13 at ell = 13, out of reach of a float root
    large = [
        *filter(is_fundamental_discriminant, range(-(10**5) - 30, -(10**5) + 31)),
        *filter(is_fundamental_discriminant, range(10**5 - 30, 10**5 + 31)),
    ]
    cases = [(ell, D) for ell in ELLS for D in _valid_discs(ell, 300)]
    cases += [(ell, D) for ell in (7, 13) for D in large]
    for ell, D in cases:
        if D % ell == 0 and ell % 4 == 1:
            continue  # the fiber collapses onto the quotient here
        assert classify_mirror(mirror_disc(ell, D), ell) == D, (ell, D)
    # away from ell, one more than an exact power: no discriminant maps here
    with pytest.raises(ValueError):
        classify_mirror(fd(0, 7**5 * (99_997**3 + 1), 6), 7)
    with pytest.raises(ValueError):
        classify_mirror(fd(0, 13**11 * (99_997**6 + 1), 12), 13)


def test_classify_mirror_fiber_prefers_coprime():
    for ell in (5, 13):
        for D in _valid_discs(ell, 400):
            if D % ell:
                continue
            back = classify_mirror(mirror_disc(ell, D), ell)
            assert back * ell == D, (ell, D, back)


def test_count_dl_golden():
    assert count_Dl(3, -23) == 1
    assert count_Dl(3, -4) == 0
    assert count_Dl(5, -47) == 1
    assert count_Dl(3, -3299) == 4  # rank two: (9 - 1)/2 index-3 subgroups
    with pytest.raises(ValueError):
        count_Dl(4, -23)
    with pytest.raises(ValueError):
        count_Dl(3, 1)


def test_count_dl_matches_rank():
    for ell in (3, 5):
        for D in fundamental_discriminants(200):
            r = ell_rank(D, ell)
            assert count_Dl(ell, D) == (ell**r - 1) // (ell - 1)


def test_admissible_conductor_exponents():
    assert admissible_conductor_exponents(5, -11) == {0, 2}
    assert admissible_conductor_exponents(5, -15) == {0, 4}
    assert admissible_conductor_exponents(7, -35) == {0, 2, 6}
    assert admissible_conductor_exponents(3, -24) == {0, 2, 4}
    assert admissible_conductor_exponents(13, -39) == {0, 8}
    with pytest.raises(ValueError):
        admissible_conductor_exponents(5, 5)


def test_fl_disc_from_conductor():
    assert fl_disc_from_conductor(3, -23, 0) == fd(0, 69, 3)
    assert fl_disc_from_conductor(3, -23, 2) == fd(0, 621, 3)
    assert fl_disc_from_conductor(7, -35, 2) is None
    assert fl_disc_from_conductor(7, -35, 0) == fd(0, 7**4 * 5**3, 7)
    assert fl_disc_from_conductor(7, -35, 6) == fd(0, 7**10 * 5**3, 7)
    with pytest.raises(ValueError):
        fl_disc_from_conductor(3, -23, 1)
    with pytest.raises(ValueError):
        fl_disc_from_conductor(3, -23, 4)


def test_target_discs_golden():
    assert target_discs(3, -23) == (fd(0, 69, 3), fd(0, 621, 3))
    assert target_discs(3, 21) == (fd(1, 7, 3), fd(1, 567, 3))
    assert target_discs(5, -11) == (fd(0, 5**3 * 121, 5), fd(0, 5**5 * 121, 5))
    with pytest.raises(ValueError):
        target_discs(3, -3)


def test_targets_match_conductor_outputs():
    for ell in ELLS:
        for D in _valid_discs(ell, 300):
            produced = {
                fl_disc_from_conductor(ell, D, k)
                for k in admissible_conductor_exponents(ell, D)
            }
            produced.discard(None)
            assert produced == set(target_discs(ell, D)), (ell, D)


def _valuation(n, p):
    v = 0
    while n % p == 0:
        v, n = v + 1, n // p
    return v


def test_target_valuation_gap_is_max_exponent():
    for ell in ELLS:
        for D in _valid_discs(ell, 300):
            lo, hi = target_discs(ell, D)
            gap = _valuation(hi.magnitude, ell) - _valuation(lo.magnitude, ell)
            assert gap == max(admissible_conductor_exponents(ell, D)), (ell, D)
            if D % ell:
                assert gap == 2


def test_targets_translate_at_ell_3():
    for D in _valid_discs(3, 400):
        dstar = -3 * D if D % 3 else -D // 3
        lo, hi = target_discs(3, D)
        assert lo.signed_value() == dstar, D
        assert hi.signed_value() == -27 * D, D


def test_predict_golden():
    p = predict(3, -23)
    assert (p.ell, p.D, p.g, p.dl_count, p.lhs_value) == (3, -23, 2, 1, 1)
    assert not p.star_required
    assert tuple(t.signed_value() for t in p.targets) == (69, 621)
    assert predict(3, 229).lhs_value == 4
    five = predict(5, -47)
    assert five.lhs_value == 1 and not five.star_required
    seven = predict(7, -3)
    assert seven.star_required and seven.g == 3


@pytest.mark.parametrize("ell", [4, 9, 2, 1, -3])
def test_predictions_check_ell_before_reading_the_scope(ell):
    # an empty scope starts no class-group walk, so ell is checked first
    with pytest.raises(ValueError, match="is not an odd prime"):
        list(predictions(ell, []))
    assert list(predictions(3, [])) == []


def test_predictions_check_each_D_once(monkeypatch):
    # the class-group walk tests each D, and smallest_primitive_root and
    # ell_ranks test ell, so no target is built behind a check of its own
    import reflectron.arith as arith
    import reflectron.reflection as reflection

    primes, fundamentals = [], []
    real_prime, real_fundamental = arith.is_prime, reflection.is_fundamental_discriminant
    monkeypatch.setattr(arith, "is_prime", lambda n: primes.append(n) or real_prime(n))
    monkeypatch.setattr(
        reflection,
        "is_fundamental_discriminant",
        lambda d: fundamentals.append(d) or real_fundamental(d),
    )
    counts = []
    for dmax in (50, 2000):
        scope = list(_valid_discs(7, dmax))
        primes.clear()
        arith.smallest_primitive_root.cache_clear()
        assert len(list(predictions(7, scope))) == len(scope)
        counts.append(len(primes))
    # ell twice, by smallest_primitive_root and ell_ranks, whatever the scope
    assert counts[0] == counts[1] and primes.count(7) == 2
    assert fundamentals == []
    with pytest.raises(ValueError, match="-5 is not a fundamental discriminant"):
        list(predictions(5, [-5]))
    with pytest.raises(ValueError, match="D = 5 is excluded for ell = 5"):
        list(predictions(5, [5]))


def test_verify_on3_golden():
    tab = enumerate_cubic_fields(27 * 23, workers=2)
    report = verify_on3(-23, tab)
    assert report.lhs_terms == (0, 1) and report.rhs == 1 and report.holds
    report = verify_on3(-4, tab)
    assert report.lhs_terms == (0, 0) and report.rhs == 0 and report.holds
    report = verify_on3(5, tab)
    assert report.lhs_terms == (0, 1) and report.rhs == 1 and report.holds
    assert verify_on3(-23, tab).D == -23


def test_verify_on3_validation():
    tab = enumerate_cubic_fields(500)
    for D in (1, -3, 40):
        with pytest.raises(ValueError):
            verify_on3(D, tab)
    with pytest.raises(ValueError):
        verify_on3(-20, tab)  # -27 D = 540 is past the window
    # a separate tabulation for -27 D must cover it
    high = enumerate_cubic_fields(500, modulus=27)
    assert verify_on3(-8, tab, high) == verify_on3(-8, tab)
    with pytest.raises(ValueError):
        verify_on3(-20, tab, high)  # -27 D = 540 is past high's window
    with pytest.raises(ValueError):
        # tab must cover D* = 24, which 27 does not divide
        verify_on3(-8, enumerate_cubic_fields(500, modulus=27), high)


def test_verify_on3_agrees_with_class_groups():
    tab = enumerate_cubic_fields(27 * 30, workers=2)
    for D in fundamental_discriminants(30):
        if D == -3:
            continue
        report = verify_on3(D, tab)
        assert report.holds, D
        n3 = count_Dl(3, D)
        assert report.rhs == (n3 if D < 0 else 3 * n3 + 1), D


def test_corollary5_golden():
    report = corollary5_predict(-11)
    assert report.lhs_value == 0
    assert tuple(t.signed_value() for t in report.targets) == (
        5**3 * 121,
        5**5 * 121,
        5**7 * 121,
    )
    assert all(t.r2 == 0 for t in report.targets)
    assert corollary5_predict(29).lhs_value == 2
    assert corollary5_predict(29).targets[0].r2 == 2
    assert corollary5_predict(-3).lhs_value == 0
    assert corollary5_predict(-47).lhs_value == 1


def test_corollary5_validation():
    for bad in (1, -15, 45, 9):
        with pytest.raises(ValueError):
            corollary5_predict(bad)


def test_corollary5_targets_are_pair_union():
    for d in (-47, -3, 29, -11, 33):
        union = {t.signed_value() for t in target_discs(5, d)}
        union |= {t.signed_value() for t in target_discs(5, 5 * d)}
        report = corollary5_predict(d)
        assert union == {t.signed_value() for t in report.targets}, d
        assert report.lhs_value == (
            count_Dl(5, d) + count_Dl(5, 5 * d)
            if d < 0
            else 5 * (count_Dl(5, d) + count_Dl(5, 5 * d)) + 2
        )


def test_a_magnitude_past_the_printable_digits_is_refused():
    # a report cannot print an int of more than sys.get_int_max_str_digits()
    # digits, so exactly those magnitudes raise, naming ell and D; past
    # the boundary (ell near 1283 at D = -4) and far past it, where the
    # power is never taken, alike
    limit = sys.get_int_max_str_digits()
    printable = set()
    for ell in [p for p in range(1201, 1402, 2) if is_prime(p)] + [3001]:
        for D in (-4, 5, -3):
            magnitude = ell ** (ell - 2) * abs(D) ** ((ell - 1) // 2)
            printable.add(magnitude < 10**limit)
            if magnitude < 10**limit:
                assert mirror_disc(ell, D).magnitude == magnitude
                continue
            with pytest.raises(ValueError, match=f"ell = {ell} and D = {D} "):
                mirror_disc(ell, D)
    assert printable == {False, True}
    with pytest.raises(ValueError, match="ell = 9999999967 and D = -4 "):
        mirror_disc(9999999967, -4)


def test_factored_magnitudes_are_exact():
    record = predict(13, -4)
    lo, hi = record.targets
    assert lo.magnitude == 13**11 * 2**12
    assert hi.magnitude == 13**13 * 2**12
