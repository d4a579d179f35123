"""Integral binary cubic forms and cubic field tabulation.

Classes of irreducible maximal forms under the unimodular action are in
bijection with cubic fields, form discriminant equal to field
discriminant.  Tabulation enumerates one canonical representative per
class with 0 < |disc| <= xmax, as one job per sign and leading
coefficient a.  Positive-discriminant classes are picked out by a
reduced Hessian together with a lexicographic orbit minimum.  The
mirror (x, y) -> (x, -y) keeps the Hessian reduced and is never the
minimum when b > 0, or b = 0 and d > 0, so only b <= 0 is walked; off
the Hessian boundary |Q| = P or P = R the mirror is the only other
reduced orbit member with a > 0, so the orbit search runs only there.
Negative-discriminant classes are picked out by reduction against the
real root, where each class carries exactly two reduced representatives
swapped by the same mirror and the sign of b (then of d) breaks the
tie.  Every bound and every counting decision is an exact integer
test, with no floating point.  Both walks read disc off one quadratic
in d, and run d only over the closed integer ranges where the
reduction tests and the bound on disc hold, each end one isqrt.  On
the negative side b and c are bounded by integer forms of the root
bounds, and c starts at the least value that |disc| > 3 a^2 f'(t)^2,
at the real root t, leaves possible.

Each form the walks meet is then tested cheapest first, and the tests
are terms of one AND, so their order cannot change a verdict:
primitivity (one gcd), non-maximality at 2 and 3 (one lookup each in
tables mod 4 and 9), non-maximality at each p >= 5 with p^2 | disc
(read off the shared sieve), a root mod 2, 3, 5, 7 and 11 (one lookup
each), and only then the divisor search for a rational root, which
runs only when disc is a fundamental discriminant: a reducible form
that is primitive and maximal has the ring Z x O_K or Z^3, so its disc
is d_K or 1, and a form past the root tests whose disc is neither is
irreducible.  The tables are indexed by (a, b, c, d) mod m and built
on first use; each (a, b, c) that gets a d slices every table once into
a row indexed by d mod m.  Non-maximality at p implies p^2 | disc, so the tables mod 4
and 9 need no divisibility test first.

A maximal cubic field has 27 | disc exactly when 3 is totally ramified,
that is when its forms reduce mod 3 to a unit times a cube,
f = lam (alpha x + beta y)^3 = lam (alpha x^3 + beta y^3), so that
b = c = 0 (mod 3); conversely every form with b = c = 0 (mod 3) has
27 | disc.  Tabulating with modulus 27 therefore walks only b and c in
3Z, about one ninth of the box, and finds exactly the fields with
27 | disc.  Since every discriminant it meets is 27 m, its sieve table
reaches only xmax // 27; every other test is unchanged.

Each job returns the discriminant of every field it finds as an
array('q'), and the tabulation counts them into one byte per
|disc| // modulus and sign, so its size is set by xmax and the modulus
alone, not by the number of fields.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping
from itertools import compress, product
from math import gcd, isqrt
from operator import or_
from types import MappingProxyType
from typing import NamedTuple, NoReturn

from .arith import (
    _SIEVE_CEILING,
    factorize,
    is_fundamental_discriminant,
    smallest_prime_factors,
)

_SIGNS = (-1, 0, 1)
# modulus -> step of the b and c walks
_MODULI = {1: 1, 27: 3}

# all GL2(Z) matrices with entries in {-1, 0, 1}; two reduced-Hessian
# representatives of one class always differ by one of these.  They are
# grouped by first column (p, r), which alone fixes the new leading
# coefficient f(p, r), as (p, r, ((q, s), ...))
_UNIMODULAR_BY_COLUMN = tuple(
    (p, r, tuple((q, s) for q in _SIGNS for s in _SIGNS if abs(p * s - q * r) == 1))
    for p in _SIGNS
    for r in _SIGNS
    if p or r
)

# the tables of the per-form tests as (m, table), built on first use,
# each indexed by (a, b, c, d) mod m: first the non-maximality tables
# mod 4 and 9, 1 where the ring of the form is not maximal at 2 or 3,
# then the root tables of the irreducibility sieve mod 2, 3, 5, 7, 11, 0
# where the form has no projective root mod p
_SIEVE_PRIMES = (2, 3, 5, 7, 11)
_TABLES: list[tuple[int, bytes]] = []


class CubicForm(NamedTuple):
    a: int
    b: int
    c: int
    d: int


# the fields of CubicTabulation, which checks them in __new__, as a NamedTuple
# cannot define its own
class _Counts(NamedTuple):
    xmax: int
    neg: bytes
    pos: bytes
    modulus: int = 1


class CubicTabulation(_Counts):
    """Counts of cubic fields by discriminant over 0 < |disc| <= xmax,
    both signs, restricted to discriminants divisible by modulus (1 or
    27).

    The counts are two byte strings indexed by |disc| // modulus, one
    per sign: neg[i] fields have discriminant -modulus * i and pos[i]
    have modulus * i, for 0 <= i <= xmax // modulus, and entry 0 of
    each is 0.  That is 2 bytes per unit of xmax / modulus however many
    fields there are, and no count exceeds 255."""

    __slots__ = ()

    def __new__(cls, xmax: int, neg: bytes, pos: bytes, modulus: int = 1) -> CubicTabulation:
        if xmax < 0:
            raise ValueError("xmax must be non-negative")
        if modulus not in _MODULI:
            raise ValueError("modulus must be 1 or 27")
        size = xmax // modulus + 1
        for counts in (neg, pos):
            if not isinstance(counts, bytes):
                raise TypeError("the counts must be bytes")
            if len(counts) != size:
                raise ValueError(f"the counts need xmax // modulus + 1 = {size} entries")
            if counts[0]:
                raise ValueError("0 is not a field discriminant")
        return super().__new__(cls, xmax, neg, pos, modulus)

    @classmethod
    def _make(cls, fields: Iterable) -> CubicTabulation:
        # so that _replace checks its result too
        return cls(*fields)

    def __repr__(self) -> str:
        # the byte strings stay out
        return f"CubicTabulation(xmax={self.xmax!r}, modulus={self.modulus!r})"

    def items(self) -> Iterator[tuple[int, int]]:
        """(disc, count) for every discriminant with a field, in
        (|disc|, disc) order, read off both byte strings in one pass."""
        neg, pos, m = self.neg, self.pos, self.modulus
        for i in compress(range(len(neg)), map(or_, neg, pos)):
            if neg[i]:
                yield -m * i, neg[i]
            if pos[i]:
                yield m * i, pos[i]

    @property
    def counts(self) -> Mapping[int, int]:
        """The nonzero counts as a read-only mapping from disc, built
        afresh from the byte strings on each access; no dict is kept."""
        return MappingProxyType(dict(self.items()))


def cubic_disc(f: CubicForm) -> int:
    a, b, c, d = f.a, f.b, f.c, f.d
    return (
        18 * a * b * c * d
        + b * b * c * c
        - 4 * a * c**3
        - 4 * b**3 * d
        - 27 * a * a * d * d
    )


def _disc_coefficients(a: int, b: int, c: int) -> tuple[int, int]:
    # (B, C) with disc(a, b, c, d) = -27 a^2 d^2 + B d + C
    return (18 * a * c - 4 * b * b) * b, (b * b - 4 * a * c) * c * c


# ---------------------------------------------------------------------------
# irreducibility and maximality


def _divisors(n: int) -> list[int]:
    out = []
    for k in range(1, isqrt(n) + 1):
        if n % k == 0:
            out.append(k)
            if k * k != n:
                out.append(n // k)
    return out


def _root_table(p: int) -> bytes:
    # every residue form with a = 0 has the root (1 : 0); otherwise mark
    # d = -(a x^3 + b x^2 + c x) for each root x
    table = bytearray(p**4)
    table[: p**3] = b"\x01" * p**3
    for a in range(1, p):
        for b in range(p):
            for c in range(p):
                base = ((a * p + b) * p + c) * p
                for x in range(p):
                    table[base + -(((a * x + b) * x + c) * x) % p] = 1
    return bytes(table)


def _nonmax_at(a: int, b: int, c: int, d: int, p: int) -> bool:
    # the ring of the form fails to be maximal at p exactly when f has a
    # repeated root r mod p whose value lifts to 0 mod p^2; the lift test
    # is independent of the representative because f'(r) = 0 mod p
    pp = p * p
    for r in range(p):
        fr = ((a * r + b) * r + c) * r + d
        if fr % p:
            continue
        if ((3 * a * r + 2 * b) * r + c) % p:
            continue
        if fr % pp == 0:
            return True
    # same test at the point at infinity, coefficients reversed
    return a % p == 0 and b % p == 0 and a % pp == 0


def _nonmax_table(p: int) -> bytes:
    # _nonmax_at over (a, b, c, d) mod p^2, which is all it reads: every
    # d when a = 0 (mod p^2) and b = 0 (mod p), and otherwise
    # d = -(a r^3 + b r^2 + c r) (mod p^2) for each r mod p with
    # f'(r) = 0 (mod p)
    m = p * p
    table = bytearray(m**4)
    for a, b, c in product(range(m), repeat=3):
        base = ((a * m + b) * m + c) * m
        if a == 0 and b % p == 0:
            table[base : base + m] = b"\x01" * m
            continue
        for r in range(p):
            if ((3 * a * r + 2 * b) * r + c) % p == 0:
                table[base + -(((a * r + b) * r + c) * r) % m] = 1
    return bytes(table)


def _rows(a: int, b: int, c: int) -> tuple:
    # the content gcd(a, b, c), then each of _TABLES sliced at (a, b, c)
    # mod m into a row of m bytes indexed by d mod m
    if not _TABLES:
        # filled in one step, so no caller ever sees part of the list
        _TABLES[:] = [(p * p, _nonmax_table(p)) for p in (2, 3)] + [
            (p, _root_table(p)) for p in _SIEVE_PRIMES
        ]
    rows = [gcd(gcd(a, b), c)]
    for m, table in _TABLES:
        base = ((a % m * m + b % m) * m + c % m) * m
        rows.append(table[base : base + m])
    return tuple(rows)


def _has_rational_root(a: int, b: int, c: int, d: int) -> bool:
    # roots of a x^3 + b x^2 + c x + d are p/q with p | d, q | a, and
    # (0 : 1) is one when d = 0
    if d == 0:
        return True
    dd = _divisors(abs(d))
    for q in _divisors(abs(a)):
        qq = q * q
        for p in dd:
            if gcd(p, q) != 1:
                continue
            if ((a * p + b * q) * p + c * qq) * p + d * qq * q == 0:
                return True
            if ((a * p - b * q) * p + c * qq) * p - d * qq * q == 0:
                return True
    return False


def _is_field(
    a: int, b: int, c: int, d: int, rows: tuple, disc: int, modulus: int, spf
) -> bool:
    # True when the form is primitive, maximal and irreducible.  rows is
    # _rows(a, b, c); disc is the form's discriminant, which modulus
    # (1 or 27) divides; spf is a smallest-prime-factor sieve table that
    # covers |disc| // modulus.  The tests run cheapest first, and each
    # is one term of an AND, so the order cannot change the verdict.
    # Non-maximality at p implies p^2 | disc (move the double root to 0:
    # then p | c and p^2 | d, or p^2 | a and p | b at infinity, and every
    # term of disc has a factor p^2), so the tables mod 4 and 9 need no
    # divisibility test first
    g, m4, m9, r2, r3, r5, r7, r11 = rows
    if g != 1 and gcd(g, d) != 1:
        return False
    if m4[d & 3] or m9[d % 9]:
        return False
    n = abs(disc) // modulus
    n //= n & -n
    while n % 3 == 0:
        n //= 3
    while n > 1:
        p = spf[n]
        n //= p
        if n % p == 0:
            if _nonmax_at(a, b, c, d, p):
                return False
            while n % p == 0:
                n //= p
    # a linear factor q x - p y gives a projective root (q : p) mod every
    # prime, so one prime without a root settles the question
    if not (r2[d & 1] and r3[d % 3] and r5[d % 5] and r7[d % 7] and r11[d % 11]):
        return True
    # a reducible primitive maximal form has the ring Z x O_K or Z^3,
    # so its disc is a fundamental discriminant or 1; 27 | disc is neither
    if modulus != 1 or not is_fundamental_discriminant(disc):
        return True
    return not _has_rational_root(a, b, c, d)


def is_irreducible(f: CubicForm) -> bool:
    """True when f has no linear factor over the rationals (for a binary
    cubic this is full irreducibility)."""
    return f.a != 0 and not _has_rational_root(f.a, f.b, f.c, f.d)


def is_maximal(f: CubicForm) -> bool:
    """True when the cubic ring attached to f is the maximal order of
    its field; only irreducible forms are accepted."""
    if not is_irreducible(f):
        raise ValueError("maximality is only defined for irreducible forms")
    a, b, c, d = f.a, f.b, f.c, f.d
    if gcd(gcd(a, b), gcd(c, d)) != 1:
        return False
    return not any(_nonmax_at(a, b, c, d, p) for p, e in factorize(cubic_disc(f)) if e > 1)


# ---------------------------------------------------------------------------
# enumeration, positive discriminant


def _hessian_reduced(a: int, b: int, c: int, d: int) -> bool:
    P = b * b - 3 * a * c
    if P <= 0:
        return False
    Q = b * c - 9 * a * d
    if abs(Q) > P:
        return False
    return c * c - 3 * b * d >= P


def _canonical_real(a: int, b: int, c: int, d: int) -> bool:
    # the canonical class representative is the lexicographically least
    # orbit member with positive leading coefficient and reduced Hessian
    me = (a, b, c, d)
    for p, r, cols in _UNIMODULAR_BY_COLUMN:
        a2 = ((a * p + b * r) * p + c * r * r) * p + d * r * r * r
        if a2 <= 0 or a2 > a:
            continue
        # b2 = q f_x(p, r) + s f_y(p, r), c2 = p f_x(q, s) + r f_y(q, s)
        fx = (3 * a * p + 2 * b * r) * p + c * r * r
        fy = (b * p + 2 * c * r) * p + 3 * d * r * r
        for q, s in cols:
            b2 = q * fx + s * fy
            c2 = p * ((3 * a * q + 2 * b * s) * q + c * s * s) + r * (
                (b * q + 2 * c * s) * q + 3 * d * s * s
            )
            d2 = ((a * q + b * s) * q + c * s * s) * q + d * s * s * s
            if (a2, b2, c2, d2) >= me:
                continue
            if _hessian_reduced(a2, b2, c2, d2):
                return False
    return True


def _real_amax(xmax: int) -> int:
    return isqrt(4 * isqrt(xmax) // 27) + 2


def _band(rad: int, B: int, k: int) -> tuple[int, int]:
    # the closed range of the integers d with (k d - B)^2 <= rad, which
    # are those with |k d - B| <= isqrt(rad); empty (lo > hi) if rad < 0
    if rad < 0:
        return 1, 0
    s = isqrt(rad)
    return -((s - B) // k), (B + s) // k


def _disc_at_least(a: int, B: int, C: int, t: int) -> tuple[int, int]:
    # d with disc >= t, as 108 a^2 (disc - t) = B^2 + 108 a^2 (C - t) - (54 a^2 d - B)^2
    return _band(B * B + 108 * a * a * (C - t), B, 54 * a * a)


def _without(pieces: list[tuple[int, int]], lo: int, hi: int) -> list[tuple[int, int]]:
    # the closed ranges in pieces less the closed range [lo, hi]
    if lo > hi:
        return pieces
    out = []
    for u, v in pieces:
        if u < lo:
            out.append((u, min(v, lo - 1)))
        if hi < v:
            out.append((max(u, hi + 1), v))
    return out


def _real_d_ranges(a: int, b: int, c: int, xmax: int) -> list[tuple[int, int]]:
    # the disjoint closed d ranges, ascending, on which (a, b, c, d) has
    # a reduced Hessian |Q| <= P <= R, has b < 0 or b = 0 and d <= 0, and
    # has disc <= xmax, for b <= 0 and P = b^2 - 3 a c > 0
    P = b * b - 3 * a * c
    # |Q| = |bc - 9ad| <= P
    lo = -((P - b * c) // (9 * a))
    hi = (b * c + P) // (9 * a)
    # R = c^2 - 3bd >= P
    if b < 0:
        lo = max(lo, -((c * c - P) // (-3 * b)))
    elif c * c < P:
        return []
    else:
        hi = min(hi, 0)
    if lo > hi:
        return []
    return _without([(lo, hi)], *_disc_at_least(a, *_disc_coefficients(a, b, c), xmax + 1))


def _real_walk(xmax: int, a: int, modulus: int) -> array:
    # the discriminant of each canonical form with leading coefficient a
    # and 0 < disc <= xmax
    found = array("q")
    step = _MODULI[modulus]
    rx = isqrt(xmax)
    spf = smallest_prime_factors(xmax // modulus)
    ta = 3 * a
    ka = 27 * a * a
    bmax = 3 * a // 2 + isqrt(rx) + 2
    # the mirror (b, d) -> (-b, -d) keeps P, R and |Q|, and of the two
    # the one with b > 0, or b = 0 and d > 0, is never the least
    for b in range(-bmax + bmax % step, 1, step):
        bb = b * b
        # 1 <= P = b^2 - 3ac <= sqrt(xmax) pins the c window
        clo = -((rx - bb) // ta)
        chi = (bb - 1) // ta
        for c in range(clo + -clo % step, chi + 1, step):
            ranges = _real_d_ranges(a, b, c, xmax)
            if not ranges:
                continue
            rows = _rows(a, b, c)
            B, C = _disc_coefficients(a, b, c)
            P = bb - ta * c
            for lo, hi in ranges:
                for d in range(lo, hi + 1):
                    # 3 disc = 4 P R - Q^2 >= 3 P^2 >= 3, so disc >= 1
                    disc = C + (B - ka * d) * d
                    if not _is_field(a, b, c, d, rows, disc, modulus, spf):
                        continue
                    # off the boundary |Q| = P or P = R the mirror is the only
                    # other orbit member with a > 0 and a reduced Hessian
                    Q = b * c - 9 * a * d
                    if (abs(Q) == P or P == c * c - 3 * b * d) and not _canonical_real(a, b, c, d):
                        continue
                    found.append(disc)
    return found


# ---------------------------------------------------------------------------
# enumeration, negative discriminant


def _d_ranges(a: int, b: int, c: int, xmax: int) -> list[tuple[int, int]]:
    # the disjoint closed d ranges, ascending, on which (a, b, c, d) is
    # reduced against its real root, has b < 0 or b = 0 and d < 0, and
    # has -xmax <= disc < 0
    if b > 0:
        return []
    B, C = _disc_coefficients(a, b, c)
    lo, hi = _disc_at_least(a, B, C, -xmax)
    # the linear reduction tests a d < (a + b)^2 + c (a + b) and
    # a d > -((a - b)^2 + c (a - b))
    lo = max(lo, -((a - b) * (a - b + c)) // a + 1)
    hi = min(hi, ((a + b) * (a + b + c) - 1) // a)
    if b == 0:
        hi = min(hi, -1)
    if lo > hi:
        return []
    # less disc >= 0, then less d^2 - b d + a (c - a) <= 0, that is
    # (2 d - b)^2 <= b^2 - 4 a (c - a)
    pieces = _without([(lo, hi)], *_disc_at_least(a, B, C, 0))
    return _without(pieces, *_band(b * b - 4 * a * (c - a), b, 2))


def _complex_amax(xmax: int) -> int:
    return isqrt(isqrt(16 * xmax // 27)) + 2


def _complex_walk(xmax: int, a: int, modulus: int) -> array:
    # the discriminant of each form with leading coefficient a and
    # -xmax <= disc < 0 that is reduced against the real root t, has
    # b < 0 or b = 0 and d < 0, and is irreducible and maximal.  With
    # u = a t the root satisfies |u + b| < a, |u| <= (4 xmax / 3)^(1/4)
    # < umax, and a < q(t) = c + u (u + b) / a, so |b| < a + umax.  Now
    # f(x, 1) = (x - t) g(x) with g(x) = a x^2 + (u + b) x + q(t) positive
    # definite, so xmax >= |disc| = (4 a q(t) - (u + b)^2) g(t)^2, which is
    # more than 3 a^2 g(t)^2, where a g(t) = a c + 3 u^2 + 2 b u > 0.  So
    # a c + 3 u^2 + 2 b u < y, as y = isqrt(xmax // 3) + 1 > sqrt(xmax / 3),
    # and with a c > a^2 - u (u + b) that needs 2 u^2 + b u + a^2 < y, that
    # is (4 u + b)^2 < b^2 + 8 (y - a^2).  So u lies in that band, taken
    # with its ends widened to quarter-integers, and in -a - b < u <=
    # min(a - b, umax), and c starts at the least value with
    # a c > a^2 - u (u + b) for some u in this window, where the
    # convex u (u + b) is greatest at an end.  Also 4 a q(t) <=
    # (16 a^2 xmax)^(1/3) + a^2, and the least value of u (u + b) on
    # |u + b| < a is m / 4, so c stops at the first value with
    # (4 a c + m - a^2)^3 > 16 a^2 xmax
    found = array("q")
    step = _MODULI[modulus]
    spf = smallest_prime_factors(xmax // modulus)
    umax = isqrt(isqrt(4 * xmax // 3)) + 1
    y = isqrt(xmax // 3) + 1
    cmax = 16 * a * a * xmax
    ka = 27 * a * a
    bmax = a + umax
    for b in range(-bmax + bmax % step, 1, step):
        rad = b * b + 8 * (y - a * a)
        if rad < 0:
            continue
        s = isqrt(rad)
        # the ends of the u window, times 4
        lo = max(-4 * (a + b), -b - s - 1)
        hi = min(4 * min(a - b, umax), -b + s + 1)
        if lo > hi:
            continue
        c = (16 * a * a - max(lo * (lo + 4 * b), hi * (hi + 4 * b))) // (16 * a) + 1
        c += -c % step
        m = -b * b if -b < 2 * a else 4 * a * (a + b)
        while (4 * a * c + m - a * a) ** 3 <= cmax:
            ranges = _d_ranges(a, b, c, xmax)
            rows = _rows(a, b, c) if ranges else None
            B, C = _disc_coefficients(a, b, c)
            for lo, hi in ranges:
                for d in range(lo, hi + 1):
                    disc = C + (B - ka * d) * d
                    if _is_field(a, b, c, d, rows, disc, modulus, spf):
                        found.append(disc)
            c += step
    return found


# ---------------------------------------------------------------------------
# public tabulation API


def _run_job(job) -> array:
    walk, *args = job
    return walk(*args)


def _tabulated(xmax: int, modulus: int, parts) -> CubicTabulation:
    # parts are sequences of discriminants, one entry per field, counted
    # as the iterator yields them, not collected first; a count past 255
    # raises, as bytearray item arithmetic does, and never wraps
    neg = bytearray(xmax // modulus + 1)
    pos = bytearray(len(neg))
    for part in parts:
        for disc in part:
            try:
                if disc > 0:
                    pos[disc // modulus] += 1
                else:
                    neg[-disc // modulus] += 1
            except ValueError:
                raise ValueError(f"more than 255 fields of discriminant {disc}") from None
    return CubicTabulation(xmax, bytes(neg), bytes(pos), modulus)


def _forked(xmax: int, modulus: int, jobs: list, nworkers: int) -> CubicTabulation:
    # runs the jobs in nworkers forked children and counts, in this
    # process, the discriminants they find as they arrive.  Every job
    # index is written to the queue pipe before the first fork, as 2-byte
    # records: at most 2 * 514 jobs at the sieve ceiling, 2,056 bytes,
    # which any pipe holds, so the one write never blocks.  A child that
    # fails says so on the results pipe, and is waited for and raises
    # ChildProcessError at once; one killed by a signal raises once every
    # result is read and each child is waited for.  On any way out but a
    # return the children still running are killed, and every child is
    # reaped
    queue, fill = os.pipe()
    os.write(fill, array("H", range(len(jobs))).tobytes())
    os.close(fill)
    read, write = os.pipe()
    pids = []
    with open(read, "rb") as results:
        try:
            try:
                for _ in range(nworkers):
                    pid = os.fork()
                    if pid == 0:
                        os.close(read)
                        _work(jobs, queue, write)
                    pids.append(pid)
            finally:
                # the results end at EOF only once no write end is open here
                os.close(queue)
                os.close(write)
            tab = _tabulated(xmax, modulus, _messages(results, pids))
            while pids:
                _reap(pids, pids[-1])
            return tab
        finally:
            if pids:
                # loaded only on this way out
                from signal import SIGKILL

                for pid in pids:
                    os.kill(pid, SIGKILL)
                for pid in pids:
                    os.waitpid(pid, 0)


def _work(jobs: list, queue: int, results: int) -> NoReturn:
    # a forked child: runs the job of each 2-byte index it reads from the
    # queue until the queue is empty, and writes each job's discriminants
    # to results as messages of a 2-byte count and at most `size` values,
    # each at most PIPE_BUF bytes, so the messages of two children never
    # interleave.  It leaves only through os._exit, so it never returns
    # into the code that forked it: 1 after printing the traceback of
    # whatever it raised and writing a message of count 0 and its 4-byte
    # pid
    code = 0
    try:
        size = (os.fpathconf(results, "PC_PIPE_BUF") - 2) // 8
        while index := os.read(queue, 2):
            found = _run_job(jobs[array("H", index)[0]])
            for i in range(0, len(found), size):
                part = found[i : i + size]
                os.write(results, array("H", [len(part)]).tobytes() + part.tobytes())
    except BaseException:
        code = 1
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
        os.write(results, array("H", [0]).tobytes() + array("i", [os.getpid()]).tobytes())
    finally:
        os._exit(code)


def _messages(results, pids: list) -> Iterator[array]:
    # the discriminants of each message on the results pipe, to EOF; a
    # message of count 0 names a child that failed, which is reaped
    while count := results.read(2):
        if not (size := array("H", count)[0]):
            _reap(pids, array("i", results.read(4))[0])
        found = array("q")
        found.frombytes(results.read(8 * size))
        yield found


def _reap(pids: list, pid: int) -> None:
    # waits for the child pid and drops it from pids; raises
    # ChildProcessError if it failed
    status = os.waitpid(pid, 0)[1]
    pids.remove(pid)
    if status:
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"tabulation worker {pid} exited with {code}")


def enumerate_cubic_fields(
    xmax: int, *, workers: int = 1, modulus: int = 1
) -> CubicTabulation:
    """Tabulate cubic field counts by discriminant over 0 < |disc| <= xmax,
    both signs, as one byte per |disc| // modulus and sign.

    With modulus 27 only the fields with 27 | disc are tabulated, by
    walking the forms with b = c = 0 (mod 3); the result covers, and
    count_N3 accepts, only discriminants divisible by 27.  With the
    default modulus 1 it covers every discriminant up to xmax.

    The work is one job per sign and leading coefficient a, in
    ascending a, so the largest jobs come first.  Each job returns the
    discriminant of every field it finds as an array of 8-byte ints.
    With more than one worker, capped at the number of leading
    coefficients walked, this process forks that many children, which
    take the jobs one at a time from one pipe and send their
    discriminants back on another, and it only counts them as they
    arrive, so it never builds the sieve.  A child that fails raises
    ChildProcessError at once, and no child outlives the call, whatever
    it raises.  Forking is unsafe in a process that runs threads; a
    single worker, or a platform without os.fork, runs the same jobs in
    this process.  The result is independent of the worker count and
    of the order the jobs finish in, since canonicity is decided per
    form.

    The two count arrays take xmax // modulus + 1 bytes each, and the
    walks sieve to xmax // modulus.  Past the sieve's 2^32 - 1 ceiling
    it raises ValueError before allocating either.
    """
    if xmax < 0:
        raise ValueError("xmax must be non-negative")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if modulus not in _MODULI:
        raise ValueError("modulus must be 1 or 27")
    if xmax // modulus > _SIEVE_CEILING:
        raise ValueError(f"sieve limit {xmax // modulus} exceeds {_SIEVE_CEILING}")
    ramax = _real_amax(xmax)
    # the negative side always walks at least as many a as the positive
    camax = _complex_amax(xmax)
    jobs = [
        (walk, xmax, a, modulus)
        for a in range(1, camax + 1)
        for walk in ((_real_walk, _complex_walk) if a <= ramax else (_complex_walk,))
    ]
    nworkers = min(workers, camax)
    if nworkers == 1 or not hasattr(os, "fork"):
        return _tabulated(xmax, modulus, map(_run_job, jobs))
    return _forked(xmax, modulus, jobs, nworkers)


def count_N3(tab: CubicTabulation, disc: int) -> int:
    """Number of cubic fields of the given discriminant, read from a
    tabulation that must cover it: 0 < |disc| <= tab.xmax and, at
    modulus 27, 27 | disc."""
    if disc == 0:
        raise ValueError("0 is not a field discriminant")
    if abs(disc) > tab.xmax:
        raise ValueError(f"{disc} is beyond the tabulated |disc| <= {tab.xmax}")
    if disc % tab.modulus:
        raise ValueError(f"{disc} is not a multiple of the tabulation's modulus")
    return (tab.pos if disc > 0 else tab.neg)[abs(disc) // tab.modulus]
