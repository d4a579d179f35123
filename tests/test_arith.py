import random
from array import array

import pytest
import sympy
from hypothesis import given, strategies as st

from reflectron import arith, quadforms
from reflectron.arith import (
    distinct_prime_factors,
    factorize,
    fundamental_discriminants,
    is_fundamental_discriminant,
    is_prime,
    smallest_prime_factors,
    smallest_primitive_root,
    squarefree,
)
from reflectron.cubicforms import enumerate_cubic_fields
from reflectron.quadforms import _walk
from reflectron.reflection import corollary5_predict, count_Dl, verify_on3


def test_smallest_prime_factors():
    spf = smallest_prime_factors(5000)
    assert len(spf) > 5000
    for n in range(2, 5001):
        assert spf[n] == factorize(n)[0][0]
    # a larger request regrows the shared table
    assert len(smallest_prime_factors(10**5)) > 10**5


class _Refused(Exception):
    pass


def test_smallest_prime_factors_ceiling(monkeypatch):
    # an array('I') entry holds at most 2^32 - 1, so a larger limit must
    # raise before any table is built
    def refuse(typecode, values):
        raise _Refused(len(values))

    monkeypatch.setattr(arith, "array", refuse)
    with pytest.raises(ValueError, match="exceeds"):
        smallest_prime_factors(2**32)
    # doubling a table past half the ceiling stops at the ceiling; the
    # stand-in table only reports a length, and nothing is allocated
    monkeypatch.setattr(arith, "_spf", range(3 * 2**30))
    with pytest.raises(_Refused) as refused:
        smallest_prime_factors(3 * 2**30)
    assert refused.value.args[0] == 2**32  # entries 0 .. 2^32 - 1


def test_is_prime_small():
    # the primes below 200 by a sieve of Eratosthenes, independent of arith
    composite = set()
    for p in range(2, 15):
        composite.update(range(p * p, 200, p))
    known = set(range(2, 200)) - composite
    for n in range(-5, 200):
        assert is_prime(n) == (n in known)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(2**61 + 1)
    for k in (89, 107, 127):
        assert is_prime(2**k - 1)


# psi_12, the least strong pseudoprime to the twelve prime bases 2 to 37
_PSI_12 = 3_317_044_064_679_887_385_961_981
_PSI_12_FACTORS = [(1_287_836_182_261, 1), (2_575_672_364_521, 1)]


def test_is_prime_past_the_proven_bound():
    # the twelve bases pass psi_12, and the strong Lucas test refuses it
    assert _product(_PSI_12_FACTORS) == _PSI_12
    assert not is_prime(_PSI_12)
    assert not is_prime(_PSI_12**2)  # a square has no Selfridge D
    assert factorize(_PSI_12) == _PSI_12_FACTORS
    # p * psi_12 = 1 (mod 4) is divided by p^2, so it is not fundamental
    p = _PSI_12_FACTORS[0][0]
    assert p * _PSI_12 % 4 == 1
    assert not squarefree(p * _PSI_12)
    assert not is_fundamental_discriminant(p * _PSI_12)
    for refused in (smallest_primitive_root, lambda ell: count_Dl(ell, -4)):
        with pytest.raises(ValueError, match="is not an odd prime"):
            refused(_PSI_12)


def test_is_prime_agrees_with_sympy_past_the_proven_bound():
    rng = random.Random(32)
    odd = [rng.randrange(10**24, 10**40) | 1 for _ in range(200)]
    # and primes, which reach the strong Lucas test
    primes = [sympy.nextprime(rng.randrange(_PSI_12, 10**40)) for _ in range(20)]
    for n in odd + primes:
        assert is_prime(n) == sympy.isprime(n), n


def _product(factors):
    out = 1
    for p, e in factors:
        out *= p**e
    return out


def test_factorize_golden():
    assert factorize(1) == [] and factorize(-1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(-15125) == [(5, 3), (11, 2)]
    big = 10**9 + 7
    assert factorize(big * big * 2) == [(2, 1), (big, 2)]


def test_factoring_past_an_empty_table_does_not_grow_it(fresh_sieve):
    # 41^2 and 41 * 43 overshoot to n with c = 1, so the cycle split's
    # backtrack loop runs
    for n in (41**2, 41 * 43):
        assert factorize(n) == _trial_factors(n), n
    for p, q in ((999_983, 1_000_003), (10**9 + 7, 10**9 + 9)):
        assert factorize(p * q) == [(p, 1), (q, 1)]
        assert factorize(-(p * p) * q) == [(p, 2), (q, 1)]
    n = 999_983 * 1_000_003
    assert squarefree(n) and not squarefree(5 * n * n)
    assert is_fundamental_discriminant(-4 * n)
    assert distinct_prime_factors(n) == 2
    assert len(arith._spf) == 0


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0))
def test_factorize_roundtrip(n):
    # the pairs of |n|, by strictly increasing prime, no exponent 0
    factors = factorize(n)
    assert _product(factors) == abs(n)
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes))
    for p, e in factors:
        assert is_prime(p) and e >= 1


def test_squarefree():
    assert squarefree(1) and squarefree(-15) and squarefree(2310)
    assert not squarefree(4) and not squarefree(-18) and not squarefree(0)


def _trial_factors(n):
    # prime factorization of n >= 1 by trial division, independent of arith
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _squarefree_by_trial(n):
    return all(e == 1 for _, e in _trial_factors(abs(n)))


def _fundamental_by_definition(d):
    if d == 1:
        return True
    if d % 4 == 1:
        return _squarefree_by_trial(d)
    if d % 4 == 0 and (d // 4) % 4 in (2, 3):
        return _squarefree_by_trial(d // 4)
    return False


@given(st.integers(min_value=-3000, max_value=3000).filter(lambda n: n != 0))
def test_fundamental_discriminant_matches_definition(d):
    assert is_fundamental_discriminant(d) == _fundamental_by_definition(d)


def test_fundamental_discriminants(monkeypatch):
    assert list(fundamental_discriminants(20)) == [
        -3, -4, 5, -7, -8, 8, -11, 12, 13, -15, 17, -19, -20
    ]
    assert list(fundamental_discriminants(1)) == []
    assert list(fundamental_discriminants(2)) == []
    assert list(fundamental_discriminants(3)) == [-3]
    # each d is tested as it is read, not the range up front
    tested = []
    real = arith.is_fundamental_discriminant
    monkeypatch.setattr(
        arith, "is_fundamental_discriminant", lambda d: tested.append(d) or real(d)
    )
    stream = fundamental_discriminants(10**4)
    assert tested == []
    assert next(stream) == -3 and tested == [-2, 2, -3]
    assert next(stream) == -4 and tested == [-2, 2, -3, 3, -4]


@pytest.fixture
def fresh_sieve(monkeypatch):
    monkeypatch.setattr(arith, "_spf", array("I"))


def test_factorize_reads_the_sieve_table(fresh_sieve):
    expected = {n: _trial_factors(n) for n in range(1, 20001)}
    # from an empty table: every n is factored past it, and the table
    # stays empty
    for n, factors in expected.items():
        assert factorize(n) == factorize(-n) == factors, n
    assert len(arith._spf) == 0
    # once the table covers the range, every n is read off it
    smallest_prime_factors(20000)
    for n, factors in expected.items():
        assert factorize(n) == factors, n
    # either side of the table's end
    end = len(arith._spf)
    for n in (end - 1, end, end + 1):
        assert factorize(n) == _trial_factors(n), n


def test_fundamental_discriminants_sizes_the_sieve(fresh_sieve, monkeypatch):
    # by definition, in (|d|, d) order
    found = [d for d in range(-5000, 5001) if abs(d) > 1 and _fundamental_by_definition(d)]
    expected = sorted(found, key=lambda d: (abs(d), d))
    assert len(arith._spf) == 0
    # sized when the stream is made, before any d is tested
    stream = fundamental_discriminants(5000)
    assert len(arith._spf) > 5000
    calls = _count_factorize(monkeypatch, arith)
    assert list(stream) == expected
    assert calls == []
    smallest_prime_factors(40000)
    assert list(fundamental_discriminants(5000)) == expected


def test_fundamental_discriminants_past_the_sieve_ceiling(monkeypatch):
    # 2^32 is refused when the stream is made: no table is built and no
    # d is tested
    def refuse(*args):
        raise AssertionError("a sieve table was allocated or a d tested")

    monkeypatch.setattr(arith, "array", refuse)
    monkeypatch.setattr(arith, "is_fundamental_discriminant", refuse)
    with pytest.raises(ValueError, match="sieve limit 4294967296 exceeds 4294967295"):
        fundamental_discriminants(2**32)


def _count_factorize(monkeypatch, *modules):
    # factorize calls, each checked to lie past the sieve table
    calls = []
    real = arith.factorize

    def counted(n):
        assert abs(n) >= len(arith._spf), n
        calls.append(n)
        return real(n)

    for module in modules:
        monkeypatch.setattr(module, "factorize", counted)
    return calls


def test_squarefree_walks_the_sieve_table(fresh_sieve, monkeypatch):
    expected = {n: _squarefree_by_trial(n) for n in range(1, 20001)}
    calls = _count_factorize(monkeypatch, arith)
    # from an empty table: every n is factorized, and the table stays
    # empty
    for n, flag in expected.items():
        assert squarefree(n) == squarefree(-n) == flag, n
    assert len(calls) == 2 * len(expected) and len(arith._spf) == 0
    # once the table covers the range, no n is factorized
    smallest_prime_factors(20000)
    calls.clear()
    for n, flag in expected.items():
        assert squarefree(n) == squarefree(-n) == flag, n
    assert calls == []
    # either side of the table's end
    end = len(arith._spf)
    for n in (end - 1, end, end + 1):
        assert squarefree(n) == _squarefree_by_trial(n), n
    assert calls == [end, end + 1]


def test_distinct_prime_factors_matches_factorize(fresh_sieve, monkeypatch):
    smallest_prime_factors(5000)
    end = len(arith._spf)
    past = [end, end + 1, 2**40 * 3**3, 999_983 * 1_000_003]
    calls = _count_factorize(monkeypatch, arith)
    # n = 1 and every other n on the table, then past it, of either sign
    for n in [*range(1, end), *past]:
        for m in (n, -n):
            assert distinct_prime_factors(m) == len(factorize(m)), m
    # only the n past the table are factorized, as |n|, once per sign
    assert calls == [n for n in past for _ in range(2)]


def test_scoped_checks_do_not_factor_once_the_sieve_covers_them(
    fresh_sieve, monkeypatch
):
    dmax = 300
    tab = enumerate_cubic_fields(27 * 100)
    scope = list(fundamental_discriminants(dmax))
    # corollary5_predict(d) also reads the class group of 5 d
    smallest_prime_factors(5 * dmax)
    calls = _count_factorize(monkeypatch, arith, quadforms)
    for d in scope:
        next(_walk([d]))
        if abs(d) <= 100 and d != -3:
            verify_on3(d, tab)
        if d % 5:
            corollary5_predict(d)
    assert calls == []


def test_smallest_primitive_root():
    assert smallest_primitive_root(3) == 2
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(11) == 2
    assert smallest_primitive_root(13) == 2
    assert smallest_primitive_root(41) == 6
    for ell in (1, 2, 9, 15):
        with pytest.raises(ValueError):
            smallest_primitive_root(ell)


def test_primitive_root_generates():
    for ell in (3, 5, 7, 11, 13, 23):
        g = smallest_primitive_root(ell)
        assert len({pow(g, k, ell) for k in range(ell - 1)}) == ell - 1
