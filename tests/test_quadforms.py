import random
from math import gcd, isqrt

import pytest

import reflectron.quadforms as quadforms
from reflectron.arith import (
    fundamental_discriminants,
    is_fundamental_discriminant,
    smallest_primitive_root,
)
from reflectron.quadforms import (
    ClassGroupStructure,
    _compose_raw,
    _cycle,
    _is_reduced_indef,
    _reduce_def,
    _reduce_indef,
    _walk,
    class_group,
    class_groups,
    ell_rank,
    ell_ranks,
)
from reflectron.reflection import predictions


def _reduced_forms(d):
    # every reduced form of discriminant d, found without quadforms:
    # Gauss-reduced for d < 0 (-a < b <= a <= c, b >= 0 when a == c), and
    # for d > 0 the (a, b, c) with 0 < b < sqrt(d) and
    # |sqrt(d) - 2|a|| < b
    out = []
    if d < 0:
        a = 1
        while 3 * a * a <= -d:
            for b in range(-a + 1, a + 1):
                num = b * b - d
                if num % (4 * a) == 0:
                    c = num // (4 * a)
                    if c >= a and not (a == c and b < 0):
                        out.append((a, b, c))
            a += 1
        return out
    for b in range(1, isqrt(d) + 1):
        if (d - b * b) % 4:
            continue
        ac = (b * b - d) // 4
        for a in range(1, -ac + 1):
            if ac % a == 0 and (2 * a - b) ** 2 < d < (2 * a + b) ** 2:
                out += [(a, b, ac // a), (-a, b, -ac // a)]
    return out


def _searched_forms(d):
    # the per-discriminant search the window walk replaced: for d < 0
    # every b in (-a, a] at each a, for d > 0 trial division of each
    # (d - b^2) / 4
    out = []
    if d < 0:
        for a in range(1, isqrt(-d // 3) + 1):
            for b in range(-a + 1 + (a + 1 + d) % 2, a + 1, 2):
                num = b * b - d
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c < a or (a == c and b < 0):
                    continue
                out.append((a, b, c))
        return out
    for b in range(2 - d % 2, isqrt(d) + 1, 2):
        n = (d - b * b) // 4
        for e in range(1, isqrt(n) + 1):
            if n % e:
                continue
            for aa in {e, n // e}:
                if (2 * aa - b) ** 2 < d < (2 * aa + b) ** 2:
                    out.append((aa, b, -(n // aa)))
                    out.append((-aa, b, n // aa))
    return out


def _report_order(lo, hi):
    # the fundamental d with lo <= |d| <= hi, d != 1, in (|d|, d) order
    found = filter(is_fundamental_discriminant, range(-hi, hi + 1))
    return sorted((d for d in found if lo <= abs(d) and d != 1), key=lambda d: (abs(d), d))


def test_window_walk_matches_the_per_discriminant_search():
    # the walk's buckets over windows of every width, with edges that
    # fall anywhere: all reduced forms for d < 0, and for d > 0 those
    # with a > 0, which meet every cycle
    dmax = 3000
    scope = _report_order(2, dmax)
    expected = {d: sorted(f for f in _searched_forms(d) if d < 0 or f[0] > 0) for d in scope}
    rng = random.Random(17)
    cuts = {
        "one window": [2, dmax + 1],
        "windows of one": list(range(2, dmax + 2)),
        "random edges": sorted({2, dmax + 1, *rng.sample(range(3, dmax + 1), 60)}),
    }
    for name, edges in cuts.items():
        for lo, top in zip(edges, edges[1:]):
            hi = top - 1
            for negative, walk in ((True, quadforms._definite_forms), (False, quadforms._indefinite_forms)):
                discs = [d for d in scope if lo <= abs(d) <= hi and (d < 0) == negative]
                mask = bytearray(hi - lo + 1)
                for d in discs:
                    mask[abs(d) - lo] = 1
                buckets = walk(lo, hi, mask)
                for i, m in enumerate(mask):
                    assert (buckets[i] is None) == (not m), (name, lo, hi, i)
                for d in discs:
                    assert sorted(buckets[abs(d) - lo]) == expected[d], (name, lo, hi, d)


def test_class_groups_match_windows_of_one():
    # class_groups walks windows of many discriminants; class_group walks
    # a window of one
    dmax = 3000
    got = list(class_groups(fundamental_discriminants(dmax)))
    assert [g.discriminant for g in got] == _report_order(2, dmax)
    assert got == [class_group(d) for d in _report_order(2, dmax)]
    assert list(class_groups(fundamental_discriminants(1))) == []
    assert list(class_groups([])) == []
    eight = class_groups(fundamental_discriminants(8))
    assert [g.discriminant for g in eight] == [-3, -4, 5, -7, -8, 8]
    # any stream in (|d|, d) order, as ell_ranks takes it
    sparse = [d for d in _report_order(1000, dmax) if d % 7 == 3]
    assert list(class_groups(iter(sparse))) == [class_group(d) for d in sparse]


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_streamed_ranks_match_windows_of_one(ell):
    # ell_ranks walks windows of many discriminants, ell_rank a window of
    # one.  A window opens at the first |d| it reads and is cut by count
    # and by width, so streams that start anywhere and thin out put its
    # edges anywhere, between -m and m too
    dense = _report_order(2, 2000)
    coprime = [d for d in _report_order(2, 300) if d % 5]
    rng = random.Random(ell)
    streams = {
        "dense": dense,
        "d of corollary5": coprime,
        "5d of corollary5": [5 * d for d in coprime],
        "random subset": [d for d in dense if rng.random() < 0.1],
        "from 1000": [d for d in dense if abs(d) >= 1000],
        "far apart": [-3, 5, -7, 1853, -1855, 1857],
        "empty": [],
    }
    per_d = {d: ell_rank(d, ell) for d in dense + [5 * d for d in coprime]}
    for name, discs in streams.items():
        assert list(ell_ranks(discs, ell)) == [per_d[d] for d in discs], name
    for start in range(120):
        discs = dense[start : start + 60]
        assert list(ell_ranks(iter(discs), ell)) == [per_d[d] for d in discs], start


@pytest.mark.parametrize(
    "discs",
    [[-3, 1], [-4, -3], [5, 5], [8, -8], [-3, -4, 45], [-3, 0], [1], [-12], [0]],
)
def test_streamed_ranks_reject_a_bad_sequence(discs):
    # fundamental discriminants other than 1, strictly increasing in
    # (|d|, d) order; anything else raises before its group is built.
    # 0 alone is named as not fundamental, not as out of order
    match = "0 is not a fundamental discriminant" if discs == [0] else None
    with pytest.raises(ValueError, match=match):
        list(ell_ranks(discs, 3))
    with pytest.raises(ValueError, match=match):
        list(class_groups(discs))


def test_scholz_reflection_bounds_the_3_ranks():
    # Scholz (1932): with D* = -3D when 3 does not divide D and -D/3
    # when it does, the 3-ranks of the real and the imaginary field of
    # the pair {D, D*} obey r(real) <= r(imag) <= r(real) + 1.  Read off
    # class_groups alone, with no cubic form
    ranks = {
        g.discriminant: sum(n % 3 == 0 for n in g.elementary_divisors)
        for g in class_groups(fundamental_discriminants(3000))
    }
    pairs = {}
    for D in ranks:
        if abs(D) <= 1000 and D != -3:
            Dstar = -3 * D if D % 3 else -D // 3
            real, imag = max(D, Dstar), min(D, Dstar)
            pairs[real, imag] = ranks[imag] - ranks[real]
    assert len(pairs) == 454
    # both bounds are reached
    assert set(pairs.values()) == {0, 1}


def test_reduce_definite():
    assert _reduce_def(2, -1, 3) == (2, -1, 3)
    a, b, c = _reduce_def(6, 11, 6)
    assert b * b - 4 * a * c == -23
    assert (-a < b <= a <= c) and (b >= 0 or (a != c and b != a))
    # boundary normalizations pick the nonnegative b representative
    assert _reduce_def(3, -3, 5) == (3, 3, 5)
    assert _reduce_def(2, -1, 2) == (2, 1, 2)


def test_reduce_indefinite_lands_in_cycle():
    d = 13 * 13 + 4 * 9  # (1, 13, -9)
    a, b, c = _reduce_indef(1, 13, -9, d)
    assert b * b - 4 * a * c == d == 205
    assert _is_reduced_indef(a, b, c, d)
    assert 0 < b and b * b < d
    assert (2 * abs(a) - b) ** 2 < d < (2 * abs(a) + b) ** 2


def test_compose_group_axioms():
    g = (2, 1, 3)  # order 3 class of discriminant -23
    e = (1, 1, 6)
    assert _reduced_product(e, g, -23) == _reduce_def(*g)
    assert _reduced_product(g, (2, -1, 3), -23) == e
    gg = _reduced_product(g, g, -23)
    assert gg == (2, -1, 3)
    assert _reduced_product(gg, g, -23) == e
    # commutativity and associativity on a bigger group
    a, b, c = (3, 1, 4), (2, 1, 6), (2, -1, 6)  # discriminant -47
    ab = _reduced_product(a, b, -47)
    assert ab == _reduced_product(b, a, -47)
    assert _reduced_product(ab, c, -47) == _reduced_product(a, _reduced_product(b, c, -47), -47)


def test_is_equivalent():
    # definite classes are equal exactly when their reductions are
    assert _reduce_def(1, 1, 6) == _reduce_def(1, -1, 6)
    assert _reduce_def(1, 1, 6) != _reduce_def(2, 1, 3)
    # indefinite equivalence must find unreduced translates via the cycle
    d = 220
    f = (1, 14, -6)  # already reduced
    translate = (f[0], f[1] + 2 * f[0], f[0] + f[1] + f[2])
    assert not _is_reduced_indef(*translate, d)
    assert _reduce_indef(*f, d) == f
    assert _reduce_indef(*translate, d) in _cycle(*f, d)
    assert f in _cycle(*_reduce_indef(*translate, d), d)


def test_class_group_golden():
    assert class_group(-23).elementary_divisors == (3,)
    assert class_group(-47).elementary_divisors == (5,)
    assert class_group(-4).elementary_divisors == ()
    assert class_group(-4).order == 1
    assert class_group(229).elementary_divisors == (3,)
    assert class_group(12).elementary_divisors == (2,)
    assert class_group(-1208).elementary_divisors == (12,)
    assert class_group(-3299).elementary_divisors == (3, 9)
    # -3896 = -8 * 487 has two prime discriminant divisors, so genus
    # theory forces 2-rank one even though the 3-rank is two
    assert class_group(-3896).elementary_divisors == (3, 12)


def test_class_group_narrow_flag():
    assert class_group(229).narrow
    assert not class_group(-23).narrow
    assert class_group(229) == ClassGroupStructure(229, (3,), True)


def test_class_group_rejects_bad_discriminants():
    for d in (1, 0, 7, -6, 45):
        with pytest.raises(ValueError):
            class_group(d)


def test_order_matches_reduced_form_count():
    for d in filter(is_fundamental_discriminant, range(-400, -2)):
        assert class_group(d).order == len(_reduced_forms(d)), d


def test_elementary_divisor_chain():
    for d in (-3299, -3896, -1208, -455, 229, 1596):
        divisors = class_group(d).elementary_divisors
        for small, big in zip(divisors, divisors[1:]):
            assert big % small == 0, d


def test_ell_rank():
    assert ell_rank(-23, 3) == 1
    assert ell_rank(-4, 3) == 0
    assert ell_rank(-3299, 3) == 2
    assert ell_rank(229, 3) == 1
    assert ell_rank(-47, 5) == 1
    assert ell_rank(-47, 3) == 0
    assert ell_rank(-1208, 3) == 1  # C12 has one subgroup of index 3


def test_ell_rank_validation():
    for ell in (2, 4, 9):
        with pytest.raises(ValueError, match="is not an odd prime"):
            ell_rank(-23, ell)
    # the other entry points that take ell refuse it with the same message
    with pytest.raises(ValueError, match="9 is not an odd prime"):
        smallest_primitive_root(9)
    with pytest.raises(ValueError, match="9 is not an odd prime"):
        list(predictions(9, []))
    with pytest.raises(ValueError):
        ell_rank(45, 3)


def test_ell_rank_matches_structure():
    for d in fundamental_discriminants(500):
        divisors = class_group(d).elementary_divisors
        for ell in (3, 5, 7):
            assert ell_rank(d, ell) == sum(1 for n in divisors if n % ell == 0), (d, ell)


def _omega(n):
    # number of distinct prime factors, by trial division
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


@pytest.mark.parametrize("d", [-1208, 229, 1596, 2021])
def test_group_law_on_representatives(d):
    grp = next(_walk([d]))
    reps, e = grp.reps, grp.identity
    assert len(reps) > 1
    for f in reps:
        assert grp.mul(e, f) == f == grp.mul(f, e)
        # (a, -b, c) lies in the inverse class
        assert grp.mul(f, (f[0], -f[1], f[2])) == e
        for g in reps:
            fg = grp.mul(f, g)
            assert fg in reps and fg == grp.mul(g, f)
            for h in reps:
                assert grp.mul(fg, h) == grp.mul(f, grp.mul(g, h)), (f, g, h)


def test_power_of_class_number_is_identity():
    # Lagrange, for both signs (every d > 0 representative here is the
    # first form the walk found in its cycle, which has a > 0)
    for d in fundamental_discriminants(1000):
        grp = next(_walk([d]))
        h = len(grp.reps)
        for f in grp.reps:
            assert grp.power(f, h) == grp.identity, (d, f)
            assert grp.power(f, h + 1) == f, (d, f)
            assert grp.power(f, 0) == grp.identity, (d, f)


def test_two_rank_matches_genus_theory():
    # genus theory, which needs no composition: the 2-rank of the (narrow)
    # class group of a fundamental discriminant D is omega(|D|) - 1.  The
    # structure reads that rank where it fixes the 2-part, so the power
    # table, which counts the rank by composition, is checked against it
    # at every D with 2 | h
    tabled = 0
    for d in fundamental_discriminants(2000):
        divisors = class_group(d).elementary_divisors
        assert sum(1 for n in divisors if n % 2 == 0) == _omega(abs(d)) - 1, d
        grp = next(_walk([d]))
        e = _log_exact(len(grp.reps) & -len(grp.reps), 2)
        if e:
            parts = quadforms._torsion_parts(grp, 2, e)
            assert len(parts) == _omega(abs(d)) - 1 and sum(parts) == e, d
            tabled += 1
    assert tabled > 900


@pytest.mark.parametrize("d", [-3299, -3896, 229, 1596])
def test_composition_does_not_factor(monkeypatch, d):
    calls = []
    real = quadforms.factorize
    monkeypatch.setattr(quadforms, "factorize", lambda n: calls.append(n) or real(n))
    ell_rank(d, 3)
    ell_rank(d, 5)
    assert calls == []
    class_group(d)
    # only the class number itself is factored
    assert len(calls) <= 1


def _reduced_product(f, g, d):
    # a reduced form of the class of f * g
    h = _compose_raw(f, g, d)
    return _reduce_def(*h) if d < 0 else _reduce_indef(*h, d)


def _equivalent(f, g, d):
    # proper equivalence: one reduction for d < 0, one reduction cycle
    # for d > 0
    if d < 0:
        return _reduce_def(*f) == _reduce_def(*g)
    return _reduce_indef(*g, d) in _cycle(*_reduce_indef(*f, d), d)


def _classes(d):
    # one reduced form per proper equivalence class
    out = []
    for f in _reduced_forms(d):
        if not any(_equivalent(f, g, d) for g in out):
            out.append(f)
    return out


def _order(f, principal, d):
    # repeated composition until the principal class comes back
    x, k = f, 1
    while not _equivalent(x, principal, d):
        x, k = _reduced_product(x, f, d), k + 1
    return k


def _log_exact(n, q):
    r = 0
    while q**r < n:
        r += 1
    assert q**r == n, (n, q)
    return r


def _divisors_from_orders(orders):
    # with c(n) = #{x : ord(x) | n}, the number of elementary divisors
    # divisible by the prime power q^k is log_q c(q^k) / c(q^(k-1))
    h = len(orders)

    def c(n):
        return sum(1 for o in orders if n % o == 0)

    largest_first = [1] * h
    for q in range(2, h + 1):
        if h % q or any(q % p == 0 for p in range(2, q)):
            continue
        k = 1
        while h % q**k == 0:
            for i in range(_log_exact(c(q**k) // c(q ** (k - 1)), q)):
                largest_first[i] *= q
            k += 1
    return tuple(sorted(n for n in largest_first if n > 1))


def test_class_group_matches_orders_found_by_composition():
    # an oracle that never builds a power table or a _Group: class
    # orders come from repeated composition and reduction, classes from
    # reductions and reduction cycles
    needs_k2 = asymmetric_positive = 0
    for d in fundamental_discriminants(1000):
        b = d % 2
        principal = (1, b, (b * b - d) // 4)
        orders = [_order(f, principal, d) for f in _classes(d)]
        divisors = _divisors_from_orders(orders)
        assert class_group(d).elementary_divisors == divisors, d
        for ell in (3, 5, 7):
            count = sum(1 for o in orders if ell % o == 0)
            assert ell_rank(d, ell) == _log_exact(count, ell), (d, ell)
        h = len(orders)
        needs_k2 += h % 8 == 0 or h % 9 == 0
        asymmetric_positive += d > 0 and max(orders) > 2
    # the range reaches q^2-torsion, so the power table is applied more
    # than once, and D > 0 classes of order above 2, so the table powers
    # indefinite classes that are not their own inverse
    assert needs_k2 and asymmetric_positive


def test_torsion_count_that_is_not_a_power_raises(monkeypatch):
    # h = 9 with group (Z/3)^2, so 3^2 | h and both entry points count
    # 3-torsion; a broken power map (the identity sent to a class of
    # order 3, the other classes to the identity) gives a count of 8
    other = next(_walk([-4027])).reps[1]
    monkeypatch.setattr(
        quadforms._Group,
        "power",
        lambda self, f, k: other if f == self.identity else self.identity,
    )
    with pytest.raises(ArithmeticError, match="3-torsion count 8 is not a power of 3"):
        class_group(-4027)
    with pytest.raises(ArithmeticError, match="3-torsion count 8 is not a power of 3"):
        ell_rank(-4027, 3)


def test_power_tables_only_where_the_class_number_leaves_the_structure_open(
    monkeypatch,
):
    # a q-part of order q is Z/q and ell-rank is 0 or 1 when ell^2 does
    # not divide h, so a power table is built only for primes q with
    # q^2 | h, and for q = 2 only where genus theory leaves it open
    calls = []
    real = quadforms._torsion_parts
    monkeypatch.setattr(
        quadforms, "_torsion_parts", lambda grp, q, e: calls.append(q) or real(grp, q, e)
    )

    def tables(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    # h = 3, 5, 3
    for d, divisors in ((-23, (3,)), (-47, (5,)), (229, (3,))):
        assert tables(class_group, d) == 0, d
        assert class_group(d).elementary_divisors == divisors
    # h = 5, 1, 3
    for d, ell, rank in ((-47, 5, 1), (-4, 3, 0), (229, 3, 1)):
        assert tables(ell_rank, d, ell) == 0, (d, ell)
        assert ell_rank(d, ell) == rank
    # h = 27, 27: one prime with q^2 | h
    assert tables(class_group, -3299) == 1
    assert tables(ell_rank, -3299, 3) == 1
    # genus theory fixes the number of parts of the 2-part, omega(d) - 1,
    # and with it the partition: h = 16 with 2-rank 3 (1596 = 4*3*7*19)
    # needs no table, h = 36 with 2-rank 1 (-3896 = -8 * 487) only the
    # one for q = 3
    assert tables(class_group, 1596) == 0
    assert class_group(1596).elementary_divisors == (2, 2, 4)
    assert tables(class_group, -3896) == 1
    # h = 16 with 2-rank 2 (-2980 = -4 * 5 * 149): Z/2 x Z/8 or Z/4 x Z/4
    assert tables(class_group, -2980) == 1
    assert class_group(-2980).elementary_divisors == (2, 8)


def test_form_counts_at_non_fundamental_discriminants():
    # an oracle for the walk past fundamental discriminants, with no
    # class group built there: for d < -4 fundamental the primitive
    # forms of discriminant d f^2 number h(d) f prod_{p | f} (1 - (d/p)/p)
    # (Cox, Thm 7.24), and p = 3 alone divides f = 3, 9
    scope = [d for d in _report_order(5, 3000) if d < 0]
    pairs = 0
    for grp in quadforms._walk(scope):
        d, h = grp.d, len(grp.reps)
        chi = (0, 1, -1)[d % 3]  # (d/3)
        for f in (3, 9):
            N = -d * f * f
            forms = quadforms._definite_forms(N, N, b"\x01")[0]
            primitive = sum(1 for a, b, c in forms if gcd(a, b, c) == 1)
            assert primitive == h * f // 3 * (3 - chi), (d, f)
            pairs += 1
    assert pairs == 1818
