"""Exact integer arithmetic used by every other module.

Everything here is deterministic.  Factorizations are exact (no floating
point, and no unproven prime below 3.3 * 10^24): a shared
smallest-prime-factor table handles the integers it covers, and past it
the primes 2 to 37 are divided out and a Brent-cycle split with fixed
parameters splits what is left, so repeated runs always agree.  The
table grows only when a caller sizes it, never as a side effect of
factoring.  factorize returns the sorted (p, e) pairs of |n|.
Squarefreeness, and with it every fundamental discriminant test, walks
the same table with no factorization for the integers it covers.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from functools import cache
from math import gcd, isqrt

# entry n of the sieve starts out holding n, and an array('I') entry
# holds at most 2^32 - 1
_SIEVE_CEILING = 2**32 - 1

# _spf[n] is the smallest prime factor of n for 2 <= n < len(_spf),
# grown only by smallest_prime_factors, to a limit a caller asks for
_spf = array("I")

# is_prime's trial divisors and Miller-Rabin bases, and the primes
# factorize divides out past the table
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_12: the least strong pseudoprime to all twelve bases above
# (Sorenson and Webster 2015), so they decide every n below it; a prime
# factor at or past it is a Baillie-PSW probable prime, and no composite
# is known to pass that test
_PSI_12 = 3_317_044_064_679_887_385_961_981


def smallest_prime_factors(limit: int) -> array:
    """Shared sieve table t with t[n] the smallest prime factor of n for
    every 2 <= n <= limit; the table may extend past limit.  A limit
    above 2^32 - 1 raises ValueError before anything is allocated."""
    global _spf
    if limit > _SIEVE_CEILING:
        raise ValueError(f"sieve limit {limit} exceeds {_SIEVE_CEILING}")
    if limit >= len(_spf):
        n = min(max(limit, 2 * len(_spf), 1 << 10), _SIEVE_CEILING)
        _spf = array("I", range(n + 1))
        # descending, so each entry ends up holding its smallest factor
        for p in range(isqrt(n), 1, -1):
            _spf[p * p :: p] = array("I", [p]) * ((n - p * p) // p + 1)
    return _spf


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2 to 37, proven exact
    below psi_12; at or past it a strong Lucas test too (Baillie-PSW)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_12 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    # the Jacobi symbol (a / n) for odd n > 0
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # strong Lucas probable-prime test of odd n > 37 with Selfridge's
    # parameters: D the first of 5, -7, 9, -11, ... with (D / n) = -1,
    # P = 1 and Q = (1 - D) / 4.  A square has no such D, and is composite
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:
        return False  # |D| < n shares a factor with n
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n, from k = 1 up to k = d by its binary digits
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U, V = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _check_odd_prime(ell: int) -> None:
    if ell % 2 == 0 or not is_prime(ell):
        raise ValueError(f"{ell} is not an odd prime")


def _brent_split(n: int) -> int:
    """A nontrivial factor of composite odd n.  Fixed start values keep
    the whole routine deterministic; the increment loop guarantees
    termination because some polynomial x^2 + c always finds a factor.
    """
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"cycle split failed for {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Exact prime factorization of a nonzero integer: the (p, e) pairs
    of |n| = product(p^e), sorted by prime, each e >= 1.

    An |n| below the length of the shared sieve table is read off it,
    one smallest prime factor at a time; a larger one has the primes 2
    to 37 divided out, and what is left is split by is_prime and a
    Brent-cycle split, without growing the table.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    exps: dict[int, int] = {}
    if n < len(_spf):
        spf = _spf
        while n > 1:
            p = spf[n]
            exps[p] = exps.get(p, 0) + 1
            n //= p
    else:
        for p in _SMALL_PRIMES:
            while n % p == 0:
                exps[p] = exps.get(p, 0) + 1
                n //= p
        # what is left is 1 or a product of primes > 37
        stack = [n] if n > 1 else []
        while stack:
            m = stack.pop()
            if is_prime(m):
                exps[m] = exps.get(m, 0) + 1
                continue
            g = _brent_split(m)
            stack.extend((g, m // g))
    return sorted(exps.items())


def squarefree(n: int) -> bool:
    """True when no prime square divides the nonzero integer n.

    An |n| below the length of the shared sieve table is walked one
    smallest prime factor at a time, which come in ascending order, so
    the first prime seen twice in a row settles it; a larger one is
    factorized.
    """
    if n == 0:
        return False
    n = abs(n)
    if n >= len(_spf):
        return all(e == 1 for _, e in factorize(n))
    spf = _spf
    last = 1
    while n > 1:
        p = spf[n]
        if p == last:
            return False
        last = p
        n //= p
    return True


def distinct_prime_factors(n: int) -> int:
    """The number of distinct primes dividing the nonzero integer n,
    walked off the shared sieve table as squarefree walks it when the
    table covers |n|, and counted from factorize past it."""
    n = abs(n)
    if n >= len(_spf):
        return len(factorize(n))
    spf = _spf
    count, last = 0, 1
    while n > 1:
        p = spf[n]
        count += p != last
        last = p
        n //= p
    return count


def is_fundamental_discriminant(d: int) -> bool:
    """True for discriminants of quadratic fields, plus 1 by convention.

    d = 1 mod 4 squarefree, or d = 4m with m squarefree and m = 2, 3 mod 4.
    """
    if d == 0:
        return False
    if d == 1:
        return True
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def fundamental_discriminants(dmax: int) -> Iterator[int]:
    """Every fundamental discriminant d with 1 < |d| <= dmax, in (|d|, d)
    order, each tested as it is read.

    The shared sieve table is sized to dmax when this is called, so every
    squarefree test walks it and none factorizes.  That costs 4 bytes per
    unit of dmax (up to twice that when it regrows a smaller table); past
    the 2^32 - 1 ceiling of smallest_prime_factors it raises ValueError
    before anything is tested or allocated.
    """
    smallest_prime_factors(dmax)
    return (d for m in range(2, dmax + 1) for d in (-m, m) if is_fundamental_discriminant(d))


@cache
def smallest_primitive_root(ell: int) -> int:
    """Least positive primitive root modulo an odd prime ell, found once
    per ell: a run of predictions at one ell factors ell - 1 only once."""
    _check_odd_prime(ell)
    phi = ell - 1
    prime_divisors = [p for p, _ in factorize(phi)]
    for g in range(2, ell):
        if all(pow(g, phi // q, ell) != 1 for q in prime_divisors):
            return g
    raise ArithmeticError(f"no primitive root below {ell}")  # unreachable
