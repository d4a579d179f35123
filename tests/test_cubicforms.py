import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import pytest
import sympy
from sympy.abc import x
from sympy.polys.numberfields.basis import round_two

from reflectron import arith, cubicforms
from reflectron.cli import main
from reflectron.cubicforms import (
    CubicForm,
    CubicTabulation,
    count_N3,
    cubic_disc,
    enumerate_cubic_fields,
    is_irreducible,
    is_maximal,
)


def test_cubic_disc_golden():
    assert cubic_disc(CubicForm(1, 0, 3, -1)) == -135
    assert cubic_disc(CubicForm(1, -1, -2, 1)) == 49
    assert cubic_disc(CubicForm(1, 0, 0, 2)) == -108
    assert cubic_disc(CubicForm(1, 1, 2, 3)) == -175
    assert cubic_disc(CubicForm(2, -1, 4, 2)) == -1208


def _transform(f, p, q, r, s):
    # coefficients of f(p x + q u, r x + s u), expanded by hand
    a, b, c, d = f.a, f.b, f.c, f.d
    return CubicForm(
        a * p**3 + b * p * p * r + c * p * r * r + d * r**3,
        3 * a * p * p * q
        + b * (p * p * s + 2 * p * q * r)
        + c * (2 * p * r * s + q * r * r)
        + 3 * d * r * r * s,
        3 * a * p * q * q
        + b * (2 * p * q * s + q * q * r)
        + c * (p * s * s + 2 * q * r * s)
        + 3 * d * r * s * s,
        a * q**3 + b * q * q * s + c * q * s * s + d * s**3,
    )


def test_disc_is_gl2_invariant():
    forms = [CubicForm(1, 0, 3, -1), CubicForm(2, -1, 4, 2), CubicForm(3, 1, -4, 1)]
    matrices = [(1, 1, 0, 1), (0, 1, -1, 0), (2, 1, 1, 1), (1, 0, 3, -1)]
    for f in forms:
        for p, q, r, s in matrices:
            assert abs(p * s - q * r) == 1
            g = _transform(f, p, q, r, s)
            assert cubic_disc(g) == cubic_disc(f), (f, (p, q, r, s))
            assert is_irreducible(g) == is_irreducible(f)


def test_hessian_syzygy_symbolically():
    # the quartic expression in the Hessian coefficients that forces
    # the enumeration bounds must vanish identically
    a, b, c, d = sympy.symbols("a b c d")
    disc = (
        18 * a * b * c * d
        + b**2 * c**2
        - 4 * a * c**3
        - 4 * b**3 * d
        - 27 * a**2 * d**2
    )
    p = b * b - 3 * a * c
    q = b * c - 9 * a * d
    r = c * c - 3 * b * d
    assert sympy.expand(4 * p * r - q * q - 3 * disc) == 0
    g1 = 2 * b * p - 3 * a * q
    assert sympy.expand(4 * p**3 - g1**2 - 27 * disc * a * a) == 0
    # the quadratic in d that both walks and both range cuts read
    B, C = cubicforms._disc_coefficients(a, b, c)
    assert sympy.expand(C + (B - 27 * a**2 * d) * d - disc) == 0


def test_is_irreducible():
    assert is_irreducible(CubicForm(1, 0, 3, -1))
    assert is_irreducible(CubicForm(1, 0, 0, 2))
    assert is_irreducible(CubicForm(2, -1, 4, 2))
    assert not is_irreducible(CubicForm(1, 0, -1, 0))  # x^3 - x
    assert not is_irreducible(CubicForm(6, 11, 6, 1))  # (x+1)(2x+1)(3x+1)
    assert not is_irreducible(CubicForm(6, -11, 6, -1))  # positive roots
    assert not is_irreducible(CubicForm(0, 1, 0, -1))  # degenerate leading term
    assert not is_irreducible(CubicForm(1, -3, 3, -1))  # (x-1)^3


def test_irreducibility_matches_sympy():
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    if a == 0:
                        continue
                    poly = sympy.Poly(a * x**3 + b * x**2 + c * x + d, x)
                    expected = len(poly.factor_list()[1]) == 1 and poly.factor_list()[1][0][1] == 1
                    got = is_irreducible(CubicForm(a, b, c, d))
                    assert got == expected, (a, b, c, d)


def test_sieve_tables_match_direct_evaluation():
    # the tables are built on the first call that slices them
    cubicforms._rows(1, 0, 0)
    tables = dict(cubicforms._TABLES)
    assert [m for m, _ in cubicforms._TABLES] == [4, 9, 2, 3, 5, 7, 11]
    for p in cubicforms._SIEVE_PRIMES:
        table = tables[p]
        assert len(table) == p**4
        for i, (a, b, c, d) in enumerate(itertools.product(range(p), repeat=4)):
            # (1 : 0) is a root when a = 0, (x : 1) when f(x, 1) = 0
            root = a == 0 or any((a * x**3 + b * x * x + c * x + d) % p == 0 for x in range(p))
            assert table[i] == root, (p, a, b, c, d)


@pytest.mark.parametrize("p", [2, 3])
def test_nonmaximality_tables_match_nonmax_at(p):
    # every entry of the mod-p^2 table, 256 for p = 2 and 6,561 for p = 3
    cubicforms._rows(1, 0, 0)
    m = p * p
    table = dict(cubicforms._TABLES)[m]
    assert len(table) == m**4
    for i, (a, b, c, d) in enumerate(itertools.product(range(m), repeat=4)):
        assert table[i] == cubicforms._nonmax_at(a, b, c, d, p), (p, a, b, c, d)
    # and both verdicts occur
    assert 0 < sum(table) < m**4


def test_rows_are_the_tables_sliced_at_a_b_c():
    # row i of _rows(a, b, c) read at d is the table entry of (a, b, c, d)
    # mod m, for negative and large coefficients as well
    rng = random.Random(16)
    triples = [(a, b, c) for a in (1, 2, 9) for b in (-13, 0, 4) for c in (-30, 1, 36)]
    triples += [tuple(rng.randint(-10**6, 10**6) for _ in range(3)) for _ in range(50)]
    for a, b, c in triples:
        rows = cubicforms._rows(a, b, c)
        assert rows[0] == math.gcd(a, b, c)
        assert len(rows) == 1 + len(cubicforms._TABLES)
        for row, (m, table) in zip(rows[1:], cubicforms._TABLES):
            assert len(row) == m
            for d in range(-2 * m, 2 * m):
                index = ((a % m * m + b % m) * m + c % m) * m + d % m
                assert row[d % m] == table[index], (a, b, c, d, m)


def test_products_with_a_linear_factor_are_reducible():
    # (q x - p y)(g x^2 + h x y + e y^2), coefficients up to 10^3 and
    # multiples of every sieve prime, so roots mod p include (1 : 0)
    # and forms whose coefficients vanish mod p
    linear = (-1000, -77, -6, 0, 1, 5, 11, 210)
    quadratic = (-330, -1, 0, 7, 1000)
    for q, p in itertools.product(linear, repeat=2):
        if q == p == 0:
            continue
        for g, h, e in itertools.product(quadratic, repeat=3):
            if g == h == e == 0:
                continue
            f = CubicForm(q * g, q * h - p * g, q * e - p * h, -p * e)
            assert not is_irreducible(f), (q, p, g, h, e)


def test_irreducibility_matches_sympy_on_large_coefficients():
    rng = random.Random(20140605)
    forms = []
    for _ in range(300):
        a = rng.choice([-1, 1]) * rng.randint(1, 1000)
        forms.append(CubicForm(a, *(rng.randint(-1000, 1000) for _ in range(3))))
    for _ in range(100):
        # products whose coefficients stay within 10^3
        q, g = rng.randint(1, 22), rng.choice([-1, 1]) * rng.randint(1, 22)
        p, h, e = (rng.randint(-22, 22) for _ in range(3))
        forms.append(CubicForm(q * g, q * h - p * g, q * e - p * h, -p * e))
    verdicts = set()
    for f in forms:
        factors = sympy.Poly(f.a * x**3 + f.b * x**2 + f.c * x + f.d, x).factor_list()[1]
        expected = len(factors) == 1 and factors[0][1] == 1
        assert max(map(abs, (f.a, f.b, f.c, f.d))) <= 1000
        assert is_irreducible(f) == expected, f
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_sieve_tables_are_built_on_first_use():
    # neither the root tables nor the mod-4 and mod-9 non-maximality
    # tables are built by importing the command line, so setup stays put
    code = (
        "import reflectron.cli, reflectron.cubicforms as c\n"
        "assert c._TABLES == [], 'built at import'\n"
        "c.enumerate_cubic_fields(100)\n"
        "assert [m for m, _ in c._TABLES] == [4, 9, 2, 3, 5, 7, 11]\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_nonmaximality_implies_p_squared_divides_disc():
    # the per-form test reads the tables mod 4 and 9 with no p^2 | disc
    # test first, and walks only the p >= 5 with p^2 | disc; both rest
    # on this, checked over a box that includes a = 0 (the root at
    # infinity) and every residue mod 4, 9, 25 and 49
    box = range(-7, 8)
    hits = Counter()
    for a, b, c, d in itertools.product(range(0, 8), box, box, box):
        disc = cubic_disc(CubicForm(a, b, c, d))
        for p in (2, 3, 5, 7):
            if cubicforms._nonmax_at(a, b, c, d, p):
                assert disc % (p * p) == 0, (a, b, c, d, p)
                hits[p] += 1
    assert all(hits[p] > 100 for p in (2, 3, 5, 7)), hits


def _parent_has_rational_root(a, b, c, d):
    # the divisor search for a root p/q, p | d and q | a, with no sieve
    if d == 0:
        return True
    dd = [k for k in range(1, abs(d) + 1) if d % k == 0]
    for q in [k for k in range(1, abs(a) + 1) if a % k == 0]:
        for p in dd:
            if math.gcd(p, q) != 1:
                continue
            if a * p**3 + b * p * p * q + c * p * q * q + d * q**3 == 0:
                return True
            if -a * p**3 + b * p * p * q - c * p * q * q + d * q**3 == 0:
                return True
    return False


def _parent_nonmax_at(a, b, c, d, p):
    pp = p * p
    for r in range(p):
        fr = ((a * r + b) * r + c) * r + d
        if fr % p == 0 and ((3 * a * r + 2 * b) * r + c) % p == 0 and fr % pp == 0:
            return True
    return a % p == 0 and b % p == 0 and a % pp == 0


def _parent_verdict(a, b, c, d):
    # the route the walks took before the tests were reordered: the root
    # test, then primitivity and non-maximality at every p with p^2 | disc
    # read off factorize
    if _parent_has_rational_root(a, b, c, d):
        return False
    if math.gcd(a, b, c, d) != 1:
        return False
    disc = cubic_disc(CubicForm(a, b, c, d))
    square_primes = [p for p, e in arith.factorize(abs(disc)) if e >= 2]
    return not any(_parent_nonmax_at(a, b, c, d, p) for p in square_primes)


def _seeded_forms():
    # (kind, form) with 1 <= a and 0 < |disc| <= 10^6
    rng = random.Random(20161019)

    def coeff(bound):
        return rng.randint(-bound, bound)

    for _ in range(1500):
        yield "random", (rng.randint(1, 12), coeff(30), coeff(30), coeff(30))
    for _ in range(300):
        k = rng.choice((2, 3, 5, 6))
        a, b, c, d = rng.randint(1, 4), coeff(8), coeff(8), coeff(8)
        yield "non-primitive", (k * a, k * b, k * c, k * d)
    for p in (2, 3, 5, 7):
        for _ in range(150):
            # a double root at r = 0 mod p that may or may not lift
            a, b = rng.randint(1, 12), coeff(20)
            yield "double root mod p", (a, b, p * coeff(6), p * coeff(6))
    for _ in range(300):
        q, g = rng.randint(1, 6), rng.randint(1, 6)
        p, h, e = coeff(6), coeff(6), coeff(6)
        yield "reducible", (q * g, q * h - p * g, q * e - p * h, -p * e)
    for _ in range(300):
        yield "b = c = 0 mod 3", (rng.randint(1, 12), 3 * coeff(8), 3 * coeff(8), coeff(40))


def test_field_verdict_matches_the_parent_route():
    # the walks' per-form verdict, over the shared sieve as the walks read
    # it (and at modulus 27 with |disc| // 27), equals the root test then
    # the maximality test over factorize
    spf = arith.smallest_prime_factors(10**6)
    verdicts: dict = {}
    for kind, (a, b, c, d) in _seeded_forms():
        disc = cubic_disc(CubicForm(a, b, c, d))
        if not 0 < abs(disc) <= 10**6:
            continue
        rows = cubicforms._rows(a, b, c)
        expected = _parent_verdict(a, b, c, d)
        assert cubicforms._is_field(a, b, c, d, rows, disc, 1, spf) == expected, (a, b, c, d)
        if disc % 27 == 0:
            got = cubicforms._is_field(a, b, c, d, rows, disc, 27, spf)
            assert got == expected, (a, b, c, d)
        verdicts.setdefault(kind, Counter())[expected] += 1
        for p in (2, 3, 5, 7):
            if disc % (p * p) == 0:
                verdicts.setdefault(f"p^2 | disc, p = {p}", Counter())[expected] += 1
    # every kind is met, and each kind that can give a field gives both
    # verdicts
    assert len(verdicts) == 9, sorted(verdicts)
    for kind, seen in verdicts.items():
        if kind in ("non-primitive", "reducible"):
            assert list(seen) == [False], (kind, seen)
        else:
            assert seen[True] > 0 and seen[False] > 0, (kind, seen)


def test_maximal_reducible_forms_have_fundamental_discriminants():
    # a primitive maximal form with a linear factor has the ring Z x O_K
    # or Z^3, so its disc is a fundamental discriminant or 1: the reason
    # the walks' per-form test runs the divisor search on those alone.
    # The forms are x (r x^2 + s x y + t y^2) moved by two random shears,
    # and maximality is read off factorize, not the per-form test
    rng = random.Random(1019)
    maximal = 0
    for _ in range(1500):
        r, s, t = rng.randint(-30, 30), rng.randint(-30, 30), rng.choice((-3, -1, 1, 2))
        f = _transform(CubicForm(r, s, t, 0), 1, rng.randint(-5, 5), 0, 1)
        f = _transform(f, 1, 0, rng.randint(-5, 5), 1)
        a, b, c, d = f.a, f.b, f.c, f.d
        disc = cubic_disc(f)
        if disc == 0 or math.gcd(a, b, c, d) != 1:
            continue
        square_primes = [p for p, e in arith.factorize(disc) if e >= 2]
        if any(_parent_nonmax_at(a, b, c, d, p) for p in square_primes):
            continue
        maximal += 1
        assert arith.is_fundamental_discriminant(disc), (a, b, c, d, disc)
    assert maximal > 400


def test_is_maximal_against_round_two():
    # the discriminant of the maximal order equals the form discriminant
    # exactly when the ring cut out by the form is already maximal
    for t in range(-4, 5):
        for u in range(-4, 5):
            for v in range(-4, 5):
                form = CubicForm(1, t, u, v)
                if not is_irreducible(form):
                    continue
                poly = sympy.Poly(x**3 + t * x**2 + u * x + v, x, domain="ZZ")
                _, oracle_disc = round_two(poly)
                assert is_maximal(form) == (oracle_disc == cubic_disc(form)), form


def test_is_maximal_golden():
    assert is_maximal(CubicForm(1, 0, 0, 2))  # disc -108 field
    assert not is_maximal(CubicForm(1, 0, 0, 4))  # same field at index 2
    assert is_maximal(CubicForm(2, -1, 4, 2))  # disc -1208, not monic
    assert not is_maximal(CubicForm(2, 0, 0, 4))  # content 2
    assert is_maximal(CubicForm(1, -1, -2, 1))  # disc 49
    with pytest.raises(ValueError):
        is_maximal(CubicForm(1, 0, -1, 0))


def test_enumeration_small_window():
    tab = enumerate_cubic_fields(100)
    complexes = [(d, n) for d, n in tab.items() if d < 0]
    reals = [(d, n) for d, n in tab.items() if d > 0]
    assert complexes == [(-23, 1), (-31, 1), (-44, 1), (-59, 1), (-76, 1), (-83, 1), (-87, 1)]
    assert reals == [(49, 1), (81, 1)]
    # one byte per |disc| and sign
    assert len(tab.neg) == len(tab.pos) == 101
    assert [i for i, n in enumerate(tab.neg) if n] == [23, 31, 44, 59, 76, 83, 87]
    assert [i for i, n in enumerate(tab.pos) if n] == [49, 81]


def test_enumeration_golden_counts():
    tab = enumerate_cubic_fields(2000)
    assert count_N3(tab, -23) == 1
    assert count_N3(tab, -108) == 1
    assert count_N3(tab, -1208) == 1  # needs a correct sign split in the root test
    assert count_N3(tab, 1957) == 1
    assert count_N3(tab, -972) == 2  # non-fundamental discriminants may repeat
    assert count_N3(tab, -1228) == 3


def test_enumeration_sign_and_window():
    # each side's walk finds exactly the fields of its sign, one leading
    # coefficient at a time
    full = enumerate_cubic_fields(2000)
    pos: Counter = Counter()
    neg: Counter = Counter()
    for a in range(1, cubicforms._real_amax(2000) + 1):
        found = cubicforms._real_walk(2000, a, 1)
        assert found.typecode == "q"
        pos.update(found)
    for a in range(1, cubicforms._complex_amax(2000) + 1):
        found = cubicforms._complex_walk(2000, a, 1)
        assert found.typecode == "q"
        neg.update(found)
    assert pos == Counter({d: n for d, n in full.items() if d > 0})
    assert neg == Counter({d: n for d, n in full.items() if d < 0})


def test_canonicity_premises_of_the_real_walk():
    # the real walk visits only b < 0, or b = 0 and d <= 0, and asks
    # _canonical_real only on the boundary |Q| = P or P = R of the
    # Hessian; both rest on these two facts, checked over a box
    box = range(-8, 9)
    mirrored = interior = 0
    for a in range(1, 9):
        for b, c, d in itertools.product(box, box, box):
            if not cubicforms._hessian_reduced(a, b, c, d):
                continue
            if b > 0 or (b == 0 and d > 0):
                # the mirror (a, -b, c, -d) is reduced and smaller
                assert not cubicforms._canonical_real(a, b, c, d), (a, b, c, d)
                mirrored += 1
                continue
            P = b * b - 3 * a * c
            Q = b * c - 9 * a * d
            R = c * c - 3 * b * d
            if abs(Q) < P < R:
                assert cubicforms._canonical_real(a, b, c, d), (a, b, c, d)
                interior += 1
    assert (mirrored, interior) == (635, 555)


def test_enumeration_worker_independence():
    assert enumerate_cubic_fields(2500, workers=3) == enumerate_cubic_fields(2500, workers=1)


def _reduced_against_real_root(a, b, c, d):
    # the sign rule and the three reduction tests of the negative walk
    if b > 0 or (b == 0 and d >= 0):
        return False
    return (
        (a + b) ** 2 + c * (a + b) > a * d
        and (a - b) ** 2 + c * (a - b) > -a * d
        and a * (c - a) > d * (b - d)
    )


def test_d_ranges_match_brute_force():
    pieces_seen = set()
    span = range(-100, 101)
    for a in range(1, 5):
        for b in range(-4, 5):
            for c in range(-6, 7):
                discs = [
                    (d, cubic_disc(CubicForm(a, b, c, d)))
                    for d in span
                    if _reduced_against_real_root(a, b, c, d)
                ]
                for xmax in (0, 1, 50, 1000, 20000):
                    brute = [d for d, disc in discs if -xmax <= disc < 0]
                    ranges = cubicforms._d_ranges(a, b, c, xmax)
                    pieces_seen.add(len(ranges))
                    ends = [end for lo_hi in ranges for end in lo_hi]
                    # disjoint, ascending, each nonempty, inside the span
                    assert all(u < v for u, v in zip(ends[1::2], ends[2::2]))
                    assert all(lo <= hi for lo, hi in ranges)
                    assert all(span[0] < end < span[-1] for end in ends)
                    found = [d for lo, hi in ranges for d in range(lo, hi + 1)]
                    assert found == brute, (a, b, c, xmax)
    assert pieces_seen == {0, 1, 2}


def _hessian_reduced_on_the_walked_side(a, b, c, d):
    # the real walk's defining tests: |Q| <= P <= R with P > 0, and b < 0
    # or b = 0 and d <= 0
    P = b * b - 3 * a * c
    Q = b * c - 9 * a * d
    R = c * c - 3 * b * d
    return 0 < P and abs(Q) <= P <= R and (b < 0 or (b == 0 and d <= 0))


def test_real_d_ranges_match_brute_force():
    pieces_seen = set()
    span = range(-100, 101)
    for a in range(1, 5):
        for b in range(-8, 1):
            for c in range(-14, 7):
                if b * b - 3 * a * c <= 0:
                    continue
                discs = [
                    (d, cubic_disc(CubicForm(a, b, c, d)))
                    for d in span
                    if _hessian_reduced_on_the_walked_side(a, b, c, d)
                ]
                # a reduced Hessian makes the discriminant positive
                assert all(disc >= 1 for _, disc in discs)
                # each discriminant met is a bound too, so disc = xmax is tried
                bounds = {1, 50, 300, 1000, 20000, *(disc for _, disc in discs)}
                for xmax in sorted(bounds):
                    brute = [d for d, disc in discs if disc <= xmax]
                    ranges = cubicforms._real_d_ranges(a, b, c, xmax)
                    pieces_seen.add(len(ranges))
                    ends = [end for lo_hi in ranges for end in lo_hi]
                    # disjoint, ascending, each nonempty, inside the span
                    assert all(u < v for u, v in zip(ends[1::2], ends[2::2]))
                    assert all(lo <= hi for lo, hi in ranges)
                    assert all(span[0] < end < span[-1] for end in ends)
                    found = [d for lo, hi in ranges for d in range(lo, hi + 1)]
                    assert found == brute, (a, b, c, xmax)
    assert pieces_seen == {0, 1, 2}


def test_complex_walk_skips_only_triples_without_a_d(monkeypatch):
    # the (b, c) that the window u (u + b) bound alone would walk, less
    # those the walk visits, all get no d: the disc bound on g(t) cuts
    # only empty triples, here 2,310 of the 4,161
    xmax = 30000
    visited = set()
    d_ranges = cubicforms._d_ranges

    def recording(a, b, c, x):
        visited.add((a, b, c))
        return d_ranges(a, b, c, x)

    monkeypatch.setattr(cubicforms, "_d_ranges", recording)
    walk: Counter = Counter()
    for a in range(1, cubicforms._complex_amax(xmax) + 1):
        walk.update(cubicforms._complex_walk(xmax, a, 1))
    monkeypatch.undo()
    umax = math.isqrt(math.isqrt(4 * xmax // 3)) + 1
    window = []
    for a in range(1, cubicforms._complex_amax(xmax) + 1):
        for b in range(-a - umax, 1):
            u = min(a - b, umax)
            c = (a * a - max(a * (a + b), u * (u + b))) // a + 1
            m = -b * b if -b < 2 * a else 4 * a * (a + b)
            while (4 * a * c + m - a * a) ** 3 <= 16 * a * a * xmax:
                window.append((a, b, c))
                c += 1
    assert visited <= set(window)
    skipped = [t for t in window if t not in visited]
    assert (len(window), len(skipped)) == (4161, 2310)
    assert all(d_ranges(a, b, c, xmax) == [] for a, b, c in skipped)
    full = enumerate_cubic_fields(xmax)
    assert walk == Counter({d: n for d, n in full.items() if d < 0})


@pytest.mark.parametrize("modulus", [1, 27])
def test_complex_walk_matches_a_window_free_reference(modulus):
    # every form in a box, checked only against the defining tests of the
    # negative side, with no bound on b, c or d beyond the box itself
    xmax = 2000
    bmax, cmax, dmax = 14, 16, 26
    ref: Counter = Counter()
    largest = [0, 0, 0]
    for a in range(1, cubicforms._complex_amax(xmax) + 1):
        for b, c in itertools.product(range(-bmax, bmax + 1), range(-cmax, cmax + 1)):
            if modulus == 27 and (b % 3 or c % 3):
                continue
            for d in range(-dmax, dmax + 1):
                if not _reduced_against_real_root(a, b, c, d):
                    continue
                f = CubicForm(a, b, c, d)
                disc = cubic_disc(f)
                if not -xmax <= disc < 0:
                    continue
                largest = [max(m, abs(v)) for m, v in zip(largest, (b, c, d))]
                if is_irreducible(f) and is_maximal(f):
                    ref[disc] += 1
    # each face of the box is at least twice the largest value reached
    assert all(2 * m <= face for m, face in zip(largest, (bmax, cmax, dmax))), largest
    walk: Counter = Counter()
    for a in range(1, cubicforms._complex_amax(xmax) + 1):
        walk.update(cubicforms._complex_walk(xmax, a, modulus))
    assert walk == ref
    assert sum(ref.values()) > 0


def test_enumeration_regression_at_30000():
    # recorded before the sieve and the exact d window were added
    tab = enumerate_cubic_fields(30000)
    items = list(tab.items())
    assert sum(n for d, n in items if d > 0) == sum(tab.pos) == 1299
    assert sum(n for d, n in items if d < 0) == sum(tab.neg) == 4885
    assert len(items) == 5768
    digest = hashlib.sha256(repr(sorted(items)).encode()).hexdigest()
    assert digest == "e16489830e31a5ec0eabccb231d5a6704daabb69a0d39835b6beedcd3b7521de"
    assert enumerate_cubic_fields(30000, workers=2) == tab


def test_modulus_27_regression_at_81000():
    # recorded before the per-form tests were reordered
    tab = enumerate_cubic_fields(81000, modulus=27)
    items = list(tab.items())
    assert sum(n for d, n in items if d > 0) == sum(tab.pos) == 341
    assert sum(n for d, n in items if d < 0) == sum(tab.neg) == 1130
    assert len(items) == 1153
    digest = hashlib.sha256(repr(sorted(items)).encode()).hexdigest()
    assert digest == "e0aaaeeb4dab70a3dd78fdda2a1b359fd5dd3d582ddca198e62f94b089c1daf6"


def test_totally_ramified_forms_have_b_and_c_divisible_by_3():
    # the modulus-27 walk rests on this: an irreducible maximal form with
    # 27 | disc has b = c = 0 (mod 3), and every such form has 27 | disc.
    # The maximal order's discriminant comes from sympy's round_two on
    # the monic y^3 + b y^2 + ac y + a^2 d, y = a x, an oracle that shares
    # nothing with is_maximal
    box = range(-5, 6)
    checked = 0
    for a in range(1, 7):
        for b, c, d in itertools.product(box, box, box):
            disc = cubic_disc(CubicForm(a, b, c, d))
            if b % 3 == 0 and c % 3 == 0:
                assert disc % 27 == 0, (a, b, c, d)
                continue
            if disc % 27 or not is_irreducible(CubicForm(a, b, c, d)):
                continue
            poly = sympy.Poly(x**3 + b * x**2 + a * c * x + a * a * d, x, domain="ZZ")
            _, oracle_disc = round_two(poly)
            assert oracle_disc != disc, (a, b, c, d)
            checked += 1
    assert checked == 52


@pytest.mark.parametrize("sign", [-1, 1])
def test_modulus_27_walk_finds_exactly_the_fields_with_27_dividing_disc(sign):
    def side(tab):
        return [(d, n) for d, n in tab.items() if (d > 0) == (sign > 0)]

    full = enumerate_cubic_fields(30000)
    expected = [(d, n) for d, n in side(full) if d % 27 == 0]
    assert expected  # 323 negative and 121 positive discriminants
    tab = enumerate_cubic_fields(30000, modulus=27)
    assert tab.modulus == 27
    assert side(tab) == expected
    assert side(enumerate_cubic_fields(30000, modulus=27, workers=2)) == expected
    # entry i of a modulus-27 array is entry 27 i of the full one
    assert len(tab.neg) == 30000 // 27 + 1
    if sign > 0:
        assert tab.pos == full.pos[::27]
    else:
        assert tab.neg == full.neg[::27]


class _InProcess:
    """Stands in for cubicforms._forked: records the worker count and the
    jobs, and runs them in this process, so no child is ever forked.  With
    reverse, the results are counted last job first, as they might
    arrive when the jobs finish out of order."""

    def __init__(self, reverse=False):
        self.reverse = reverse
        self.sizes = []
        self.jobs = []

    def __call__(self, xmax, modulus, jobs, nworkers):
        self.sizes.append(nworkers)
        self.jobs.extend(jobs)
        parts = [cubicforms._run_job(job) for job in jobs]
        return cubicforms._tabulated(xmax, modulus, reversed(parts) if self.reverse else parts)


def test_enumeration_caps_shards_at_leading_coefficients(monkeypatch):
    forked = _InProcess()
    monkeypatch.setattr(cubicforms, "_forked", forked)
    serial = enumerate_cubic_fields(2000)
    assert enumerate_cubic_fields(2000, workers=64) == serial
    # at X = 2000 the negative side walks a <= 7, the positive side only
    # a <= 4, and one shard walks both sides
    assert forked.sizes == [7]
    # the 19 leading coefficients of the negative side at X = 160000
    assert cubicforms._complex_amax(160000) == 19


@pytest.mark.parametrize("modulus", [1, 27])
def test_enumeration_jobs_cover_each_leading_coefficient_once(monkeypatch, modulus):
    forked = _InProcess(reverse=True)
    monkeypatch.setattr(cubicforms, "_forked", forked)
    serial = enumerate_cubic_fields(30000, modulus=modulus)
    assert enumerate_cubic_fields(30000, workers=2, modulus=modulus) == serial
    assert forked.sizes == [2]
    # one job per sign and leading coefficient, in ascending a
    real = [(cubicforms._real_walk, 30000, a, modulus) for a in range(1, 8)]
    cplx = [(cubicforms._complex_walk, 30000, a, modulus) for a in range(1, 14)]
    assert (cubicforms._real_amax(30000), cubicforms._complex_amax(30000)) == (7, 13)
    assert sorted(forked.jobs, key=lambda job: job[2]) == forked.jobs
    assert Counter(forked.jobs) == Counter(real + cplx)


def _assert_no_child_left():
    # every child forked by this process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_worker_raises_and_leaves_no_child(monkeypatch, capfd):
    walk = cubicforms._complex_walk

    def failing(xmax, a, modulus):
        if a == 3:
            raise RuntimeError("walk failed at a = 3")
        return walk(xmax, a, modulus)

    monkeypatch.setattr(cubicforms, "_complex_walk", failing)
    # at X = 2000 the 7 leading coefficients of the negative side cap the
    # children at 7, so 2 start
    with pytest.raises(ChildProcessError, match="exited with 1"):
        enumerate_cubic_fields(2000, workers=2)
    _assert_no_child_left()
    # the child printed its traceback before it left
    assert "RuntimeError: walk failed at a = 3" in capfd.readouterr().err
    assert main(["cubic-tab", "--xmax", "2000", "--workers", "2"]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert "error: tabulation worker" in captured.err
    _assert_no_child_left()


def test_a_failing_worker_stops_the_others_at_once(monkeypatch, capfd):
    # the negative side's a = 1 job fails while every other job sleeps:
    # the run raises as soon as the failure arrives, without waiting for
    # the other child to work through the queue
    def walk(xmax, a, modulus):
        time.sleep(20)
        return array("q")

    def failing(xmax, a, modulus):
        if a == 1:
            raise RuntimeError("walk failed at a = 1")
        return walk(xmax, a, modulus)

    monkeypatch.setattr(cubicforms, "_real_walk", walk)
    monkeypatch.setattr(cubicforms, "_complex_walk", failing)
    start = time.monotonic()
    with pytest.raises(ChildProcessError, match="exited with 1$"):
        enumerate_cubic_fields(2000, workers=2)
    assert time.monotonic() - start < 10
    _assert_no_child_left()
    assert "RuntimeError: walk failed at a = 1" in capfd.readouterr().err


def test_a_parent_that_raises_while_counting_leaves_no_child(monkeypatch):
    # the first job's 256 fields of one discriminant overflow its count
    # while the other children still walk; they are killed, not awaited
    def walk(xmax, a, modulus):
        if a == 1:
            return array("q", [-23] * 256)
        time.sleep(20)
        return array("q")

    monkeypatch.setattr(cubicforms, "_real_walk", walk)
    monkeypatch.setattr(cubicforms, "_complex_walk", walk)
    start = time.monotonic()
    with pytest.raises(ValueError, match="more than 255 fields of discriminant -23$"):
        enumerate_cubic_fields(2000, workers=2)
    assert time.monotonic() - start < 10
    _assert_no_child_left()


def test_modulus_27_walk_sieves_to_a_27th_of_xmax(monkeypatch):
    # every discriminant the walk meets is 27 m, so the table reaches m
    monkeypatch.setattr(arith, "_spf", array("I"))
    tab = enumerate_cubic_fields(81000, modulus=27)
    assert len(arith._spf) <= 81000 // 27 + 1
    full = enumerate_cubic_fields(81000)
    assert list(tab.items()) == [(d, n) for d, n in full.items() if d % 27 == 0]
    assert (tab.neg, tab.pos) == (full.neg[::27], full.pos[::27])


def test_complex_amax_matches_the_float_bound():
    # the integer bound replaced int((16 X / 27) ** 0.25) + 2
    for xmax in range(10**6 + 1):
        assert cubicforms._complex_amax(xmax) == int((16 * xmax / 27) ** 0.25) + 2, xmax


def test_enumeration_validation():
    with pytest.raises(ValueError):
        enumerate_cubic_fields(-1)
    with pytest.raises(ValueError):
        enumerate_cubic_fields(100, workers=0)
    with pytest.raises(ValueError):
        enumerate_cubic_fields(100, modulus=9)
    # xmax = 0 is legal and empty
    assert enumerate_cubic_fields(0) == CubicTabulation(0, b"\0", b"\0")
    assert list(enumerate_cubic_fields(0).items()) == []


def test_past_the_sieve_ceiling_nothing_is_allocated(monkeypatch):
    # |disc| // modulus indexes both the sieve and the count arrays, so a
    # bound past the sieve's ceiling is refused before either is built
    def refuse(*args):
        raise AssertionError("a table was allocated")

    monkeypatch.setattr(cubicforms, "bytearray", refuse, raising=False)
    monkeypatch.setattr(arith, "array", refuse)
    with pytest.raises(ValueError, match="sieve limit 4294967296 exceeds 4294967295"):
        enumerate_cubic_fields(2**32)
    with pytest.raises(ValueError, match="sieve limit 4294967296 exceeds 4294967295"):
        enumerate_cubic_fields(27 * 2**32, modulus=27)
    # one less passes the check and reaches the first allocation
    with pytest.raises(AssertionError, match="allocated"):
        enumerate_cubic_fields(27 * 2**32 - 1, modulus=27)


def test_a_count_past_255_raises_and_never_wraps():
    tab = cubicforms._tabulated(100, 1, [array("q", [-23] * 200), array("q", [-23] * 55)])
    assert count_N3(tab, -23) == 255
    for disc in (-23, 49):
        with pytest.raises(ValueError, match=f"discriminant {disc}$"):
            cubicforms._tabulated(100, 1, [array("q", [disc] * 256)])
    tab27 = cubicforms._tabulated(200, 27, [array("q", [-108, 81, -108])])
    assert (count_N3(tab27, -108), count_N3(tab27, 81), count_N3(tab27, 108)) == (2, 1, 0)


def test_serial_enumeration_memory_is_two_bytes_per_unit_of_xmax():
    # the sieve and the root tables are built before tracing; what is left
    # is the two count arrays, their bytes copies and one job's array of
    # discriminants, not an object per discriminant: about 0.40 MB, where
    # a dict of counts peaked at 1.40 MB
    arith.smallest_prime_factors(100_000)
    is_irreducible(CubicForm(1, 0, 0, 2))
    tracemalloc.start()
    try:
        tab = enumerate_cubic_fields(100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tab.neg) == len(tab.pos) == 100_001
    assert peak < 600_000


def test_count_n3_errors():
    tab = enumerate_cubic_fields(500)
    assert count_N3(tab, -23) == 1
    assert count_N3(tab, -24) == 0  # covered, no field there
    with pytest.raises(ValueError):
        count_N3(tab, 0)
    with pytest.raises(ValueError):
        count_N3(tab, -501)  # beyond xmax
    tab27 = enumerate_cubic_fields(500, modulus=27)
    assert count_N3(tab27, -108) == 1
    assert count_N3(tab27, -27) == 0  # covered, no field there
    with pytest.raises(ValueError):
        count_N3(tab27, -23)  # a field exists, but 27 does not divide -23


def test_tabulation_to_csv(capsys):
    # the cubic-tab report is the one CSV writer of a tabulation
    tab = enumerate_cubic_fields(100)
    assert main(["cubic-tab", "--xmax", "100"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "disc,count"
    assert lines[1] == "-23,1"
    assert lines[-1] == "-87,1"
    assert text.endswith("\n")
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert rows == list(tab.items())
    # rows are ordered by (|disc|, disc)
    discs = [disc for disc, _ in rows]
    assert discs == sorted(discs, key=lambda t: (abs(t), t))


def _counts(size, *entries):
    # size zero bytes, except out[i] = n for each entry (i, n)
    out = bytearray(size)
    for i, n in entries:
        out[i] = n
    return bytes(out)


def test_tabulation_validation():
    empty = bytes(101)
    with pytest.raises(ValueError):
        CubicTabulation(100, empty, bytes(102))  # an entry beyond xmax
    with pytest.raises(ValueError):
        CubicTabulation(100, bytes(100), empty)  # xmax not covered
    with pytest.raises(ValueError):
        CubicTabulation(100, _counts(101, (0, 1)), empty)  # a field of disc 0
    with pytest.raises(ValueError):
        CubicTabulation(-1, b"", b"")
    with pytest.raises(ValueError):
        CubicTabulation(100, empty, empty, modulus=27)  # 4 entries at modulus 27
    with pytest.raises(ValueError):
        CubicTabulation(100, empty, empty, modulus=9)
    with pytest.raises(TypeError):
        CubicTabulation(100, bytearray(101), empty)  # the counts are immutable
    tab27 = CubicTabulation(200, _counts(8, (4, 1)), bytes(8), modulus=27)
    assert list(tab27.items()) == [(-108, 1)]
    assert count_N3(tab27, -108) == 1 and count_N3(tab27, 108) == 0
    # the counts take part in equality, each under its own sign
    one = CubicTabulation(100, _counts(101, (23, 1)), empty)
    assert one != CubicTabulation(100, empty, empty)
    assert one != CubicTabulation(100, empty, _counts(101, (23, 1)))
    assert one == CubicTabulation(100, _counts(101, (23, 1)), empty)
    assert hash(one) == hash(CubicTabulation(100, _counts(101, (23, 1)), empty))
    # the mapping view is built from the arrays and cannot be written
    assert one.counts == {-23: 1}
    with pytest.raises(TypeError):
        one.counts[-23] = 2
    # the arrays stay out of the repr
    assert repr(one) == "CubicTabulation(xmax=100, modulus=1)"
