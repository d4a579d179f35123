"""Binary quadratic forms and class groups of quadratic fields.

Forms (a, b, c) of discriminant D = b^2 - 4ac are composed with the
classical Dirichlet method, which needs only extended gcds (no
factoring), and reduced with Gauss reduction (definite case) or the
cycle-walk reduction (indefinite case).  For D > 0 a class group walks
every reduction cycle once and keeps a table from each reduced form to
the first form of its cycle the walk found, so the class of a product
is one reduction and one lookup.  There the form class group under
composition is the narrow class group; its odd part agrees with the odd
part of the ordinary class group, which is all the reflection machinery
upstream ever consumes.

A class group starts from the reduced forms of its discriminant, and
one walk finds them for a whole window of discriminants at once: over
the reduced triples (a, b, c) with |disc| in the window, where at fixed
(a, b) the discriminants step by 4a as c grows, bucketed by
discriminant through a mask of the wanted ones.  A walk costs O(hi)
however wide its window is, so every route in takes its discriminants
in (|d|, d) order and cuts them into windows by count: about
2 sqrt(lo) discriminants each.  class_groups and ell_ranks stream any
such sequence, such as the whole range arith.fundamental_discriminants
yields (O(dmax^(3/2)) in all), and class_group and ell_rank are the case
of one discriminant, O(|d|); each holds the forms of one window at a
time.

Group structure comes from the class number h where h decides it: a
prime q with q || h gives the q-part Z/q, since a group of order q is
cyclic, so the ell-rank is 0 when ell does not divide h and 1 when
ell || h.  For q = 2 genus theory gives the number of parts, omega(d) - 1
with omega(d) the number of primes dividing d, read off the shared
sieve, and that decides the 2-part when it is 1 or at least v_2(h) - 1.
Otherwise a prime q with q^2 | h needs q^k-torsion counted.  For
each such q one table x -> x^q over the representatives is built, and
x^(q^k) is that table applied k times.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, compress
from math import isqrt
from typing import NamedTuple

from .arith import _check_odd_prime, distinct_prime_factors, factorize, is_fundamental_discriminant


class ClassGroupStructure(NamedTuple):
    discriminant: int
    elementary_divisors: tuple[int, ...]
    narrow: bool

    @property
    def order(self) -> int:
        h = 1
        for d in self.elementary_divisors:
            h *= d
        return h


# ---------------------------------------------------------------------------
# reduction


def _reduce_def(a: int, b: int, c: int) -> tuple[int, int, int]:
    # Gauss reduction of a positive definite form; lands in the unique
    # representative with -a < b <= a <= c and b >= 0 on the boundaries.
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            t = (a - b) // (2 * a)
            c = a * t * t + b * t + c
            b = b + 2 * a * t
            continue
        break
    if a == c and b < 0:
        b = -b
    return a, b, c


def _is_reduced_indef(a: int, b: int, c: int, d: int) -> bool:
    # reduced iff |sqrt(d) - 2|a|| < b < sqrt(d); d is never a square here
    if b <= 0 or b * b > d:
        return False
    t = 2 * abs(a)
    return (t - b) * (t - b) < d < (t + b) * (t + b)


def _rho(a: int, b: int, c: int, d: int, rd: int) -> tuple[int, int, int]:
    # one reduction step (a, b, c) -> (c, b', c') with b' = -b mod 2|c|,
    # b' taken in (rd - 2|c|, rd] once |c| is below sqrt(d)
    ac = abs(c)
    if ac > rd:
        br = (-b) % (2 * ac)
        if br > ac:
            br -= 2 * ac
    else:
        br = rd - ((rd + b) % (2 * ac))
    return c, br, (br * br - d) // (4 * c)


def _reduce_indef(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    rd = isqrt(d)
    for _ in range(10000):
        if _is_reduced_indef(a, b, c, d):
            return a, b, c
        a, b, c = _rho(a, b, c, d, rd)
    raise ArithmeticError(f"reduction did not terminate for ({a}, {b}, {c})")


def _cycle(a: int, b: int, c: int, d: int) -> list[tuple[int, int, int]]:
    # full rho-cycle through a reduced indefinite form
    rd = isqrt(d)
    start = (a, b, c)
    out = [start]
    cur = _rho(a, b, c, d, rd)
    while cur != start:
        out.append(cur)
        cur = _rho(*cur, d, rd)
    return out


# ---------------------------------------------------------------------------
# composition


def _ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    # (g, s, t) with s*x + t*y = g; g > 0 for x, y not both negative
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _compose_raw(
    f1: tuple[int, int, int], f2: tuple[int, int, int], d: int
) -> tuple[int, int, int]:
    # Dirichlet composition through the united pair (Cohen, Alg. 5.4.7):
    # with beta = (b1 + b2)/2 and g = gcd(a1, a2, beta) = u*a1 + v*a2 + w*beta,
    # b3 is b1 mod 2*a1/g, b2 mod 2*a2/g and a square root of d mod
    # 4*a1*a2/g^2, whatever the signs of a1 and a2 (and of g: negating
    # u, v, w and g together leaves b3 unchanged)
    a1, b1, _ = f1
    a2, b2, _ = f2
    beta = (b1 + b2) // 2
    g1, s, t = _ext_gcd(a1, a2)
    g, x, w = _ext_gcd(g1, beta)
    u, v = x * s, x * t
    a3 = a1 * a2 // (g * g)
    b3 = (u * a1 * b2 + v * a2 * b1 + w * (b1 * b2 + d) // 2) // g % (2 * abs(a3))
    return a3, b3, (b3 * b3 - d) // (4 * a3)


# ---------------------------------------------------------------------------
# class groups


def _principal(d: int) -> tuple[int, int, int]:
    b = d % 2
    return 1, b, (b * b - d) // 4


def _definite_forms(lo: int, hi: int, mask: bytes) -> list:
    # the reduced forms -a < b <= a <= c (b >= 0 when a = c) of each
    # discriminant -N with lo <= N <= hi and mask[N - lo] set, at index
    # N - lo.  N = 4ac - b^2 >= 3a^2 bounds a; (a, -b, c) is reduced with
    # (a, b, c) unless b = 0, b = a or a = c, so only b >= 0 is walked;
    # N = b mod 2, so one N fixes the parity of b; and at fixed (a, b)
    # the N step by 4a as c grows, a stride of the mask that compress
    # reads in C
    buckets = [[] if m else None for m in mask]
    width = hi - lo
    first, step = (0, 1) if width else (lo % 2, 2)
    for a in range(1, isqrt(hi // 3) + 1):
        a4 = 4 * a
        for b in range(first, a + 1, step):
            bb = b * b
            # some multiple 4ac of 4a lies in [lo + b^2, hi + b^2]
            if (hi + bb) % a4 > width:
                continue
            c0 = max(a, (lo + bb + a4 - 1) // a4)
            c1 = (hi + bb) // a4
            i = a4 * c0 - bb - lo
            for c in compress(range(c0, c1 + 1), mask[i : a4 * c1 - bb - lo + 1 : a4]):
                bucket = buckets[a4 * c - bb - lo]
                bucket.append((a, b, c))
                if 0 < b < a < c:
                    bucket.append((a, -b, c))
    return buckets


def _indefinite_forms(lo: int, hi: int, mask: bytes) -> list:
    # the reduced forms with a > 0 of each discriminant D with
    # lo <= D <= hi and mask[D - lo] set, at index D - lo; ac < 0, so the
    # sign of a alternates along a reduction cycle, and they meet every
    # cycle.  With a, n > 0 and D = b^2 + 4an they are (a, b, -n) and
    # (n, b, -a) when |sqrt(D) - 2a| < b, that is |a - n| < b, which is
    # symmetric in a and n (b < sqrt(D) holds always), so only a <= n is
    # walked.  D = b mod 2, so one D fixes the parity of b; a runs from
    # the least value with 4a (a + b - 1) >= lo - b^2 to the greatest
    # with 4a^2 <= hi - b^2, and at fixed (a, b) the D step by 4a as n
    # grows
    buckets = [[] if m else None for m in mask]
    width = hi - lo
    first, step = (1, 1) if width else (2 - lo % 2, 2)
    for b in range(first, isqrt(hi - 1) + 1, step):
        bb = b * b
        low, high = lo - bb, hi - bb
        s = isqrt(max(low + (b - 1) ** 2 - 1, 0)) + 1
        for a in range(max(1, (s - b + 2) // 2), isqrt(high // 4) + 1):
            a4 = 4 * a
            # some multiple 4an of 4a lies in [lo - b^2, hi - b^2]
            if high % a4 > width:
                continue
            n0 = max(a, (low + a4 - 1) // a4)
            n1 = min(a + b - 1, high // a4)
            i = a4 * n0 - low
            for n in compress(range(n0, n1 + 1), mask[i : a4 * n1 - low + 1 : a4]):
                bucket = buckets[a4 * n - low]
                bucket.append((a, b, -n))
                if n != a:
                    bucket.append((n, b, -a))
    return buckets


class _Group:
    """Class representatives under composition, each the first reduced
    form of d the walk found in its class: for d < 0 every reduced form;
    for d > 0 the first found of each reduction cycle, with a table from
    every reduced form of the cycle to it."""

    def __init__(self, d: int, forms: list[tuple[int, int, int]]):
        self.d = d
        if d < 0:
            self.reps = forms
        else:
            self.cls: dict[tuple[int, int, int], tuple[int, int, int]] = {}
            self.reps = []
            for f in forms:
                if f not in self.cls:
                    self.cls.update(dict.fromkeys(_cycle(*f, d), f))
                    self.reps.append(f)
        self.identity = self.canon(_principal(d))

    def canon(self, f: tuple[int, int, int]) -> tuple[int, int, int]:
        if self.d < 0:
            return _reduce_def(*f)
        return self.cls[_reduce_indef(*f, self.d)]

    def mul(
        self, f: tuple[int, int, int], g: tuple[int, int, int]
    ) -> tuple[int, int, int]:
        return self.canon(_compose_raw(f, g, self.d))

    def power(self, f: tuple[int, int, int], k: int) -> tuple[int, int, int]:
        # right-to-left binary powering that starts at the lowest set bit
        # of k and stops before squaring past the highest one
        out = None
        while True:
            if k & 1:
                out = f if out is None else self.mul(out, f)
            k >>= 1
            if not k:
                return self.identity if out is None else out
            f = self.mul(f, f)


def _walk(discs: Iterable[int]) -> Iterator[_Group]:
    # the groups of discs, in their order, from one walk of the reduced
    # forms per sign present in each window.  A window opening at
    # |d| = lo takes the next 2 isqrt(lo) discriminants with |d| <= 2 lo,
    # so its mask spans at most lo + 1 values of |d|.  Each d is checked
    # when it is read, and each group's forms are dropped once it is built
    window: list[int] = []
    last = (0, 0)
    for d in chain(discs, [None]):
        if window and (d is None or len(window) >= 2 * isqrt(lo) or abs(d) > 2 * lo):
            hi = abs(window[-1])
            buckets = {}
            for negative, walk in ((True, _definite_forms), (False, _indefinite_forms)):
                mask = bytearray(hi - lo + 1)
                for w in window:
                    if (w < 0) == negative:
                        mask[abs(w) - lo] = 1
                if any(mask):
                    buckets[negative] = walk(lo, hi, mask)
            for w in window:
                bucket = buckets[w < 0]
                forms, bucket[abs(w) - lo] = bucket[abs(w) - lo], None
                yield _Group(w, forms)
            window = []
        if d is None:
            return
        if d == 1 or not is_fundamental_discriminant(d):
            raise ValueError(f"{d} is not a fundamental discriminant distinct from 1")
        if (abs(d), d) <= last:
            raise ValueError(f"{d} does not follow {last[1]} in (|d|, d) order")
        last = (abs(d), d)
        if not window:
            lo = abs(d)
        window.append(d)


def _log_int(n: int, q: int) -> int:
    out = 0
    while n > 1:
        n //= q
        out += 1
    return out


def _q_parts(grp: _Group, q: int) -> list[int]:
    """The partition of the q-part of the class group, ascending:
    [] when q does not divide h, [1] when q || h (a group of prime order
    is cyclic), the partition genus theory forces for q = 2, and
    otherwise the one _torsion_parts counts."""
    rest, e = len(grp.reps), 0
    while rest % q == 0:
        rest //= q
        e += 1
    if e < 2:
        return [1] * e
    if q == 2:
        # genus theory: the 2-part of the narrow class group of a
        # fundamental d has omega(d) - 1 parts, omega counting the primes
        # dividing d, and e splits into r parts in one way only when r is
        # 1 or at least e - 1
        r = distinct_prime_factors(grp.d) - 1
        if r == 1 or r >= e - 1:
            return [1] * (r - 1) + [e - r + 1]
    return _torsion_parts(grp, q, e)


def _torsion_parts(grp: _Group, q: int, e: int) -> list[int]:
    # the partition of a q-part of order q^e, e >= 2, read off
    # q^k-torsion counts from one table x -> x^q, applied k times:
    # m_k = log_q #{x : x^(q^k) = id} and m_k - m_(k-1) counts the
    # parts >= k
    table = {f: grp.power(f, q) for f in grp.reps}
    # after k steps: x^(q^k) for every x whose power is not yet the identity
    live = grp.reps
    ms = [0]
    for _ in range(e):
        live = [y for y in map(table.__getitem__, live) if y != grp.identity]
        cnt = len(grp.reps) - len(live)
        m = _log_int(cnt, q)
        if q**m != cnt:
            raise ArithmeticError(f"{q}-torsion count {cnt} is not a power of {q}")
        ms.append(m)
        if m == e:
            break
    ranks = [ms[k] - ms[k - 1] for k in range(1, len(ms))]
    return sorted(sum(1 for r in ranks if r >= i) for i in range(1, ranks[0] + 1))


def _structure(grp: _Group) -> ClassGroupStructure:
    # each prime q | h writes the partition of its q-part (see _q_parts),
    # ascending, into the last len(parts) divisors: no composition when
    # q || h or genus theory settles q = 2, and one power table otherwise,
    # so no power is computed twice
    h = len(grp.reps)
    primes = [q for q, _ in factorize(h)] if h > 1 else []
    parts_per_prime = {q: _q_parts(grp, q) for q in primes}
    divisors = [1] * max(map(len, parts_per_prime.values()), default=0)
    for q, parts in parts_per_prime.items():
        for i, e in enumerate(parts, len(divisors) - len(parts)):
            divisors[i] *= q**e
    return ClassGroupStructure(grp.d, tuple(divisors), narrow=grp.d > 0)


def class_group(d: int) -> ClassGroupStructure:
    """Group structure for fundamental discriminant d, as a chain of
    elementary divisors d1 | d2 | ... (narrow class group when d > 0).

    The reduced forms come from the walk class_groups makes, over a
    window of the one discriminant |d|, which costs O(|d|)."""
    return next(class_groups([d]))


def class_groups(discs: Iterable[int]) -> Iterator[ClassGroupStructure]:
    """class_group(d) for each d of discs, in their order, from the walk
    ell_ranks makes; discs are read as ell_ranks reads them.

    class_groups(arith.fundamental_discriminants(dmax)) yields every
    class group with 1 < |d| <= dmax, in O(dmax^(3/2))."""
    return map(_structure, _walk(discs))


def ell_rank(d: int, ell: int) -> int:
    """ell-rank of the class group of fundamental discriminant d (narrow
    for d > 0, which has the same odd part as the ordinary group).

    It is the number of parts of the ell-part: 0 when ell does not
    divide h, 1 when ell || h, and otherwise counted from the power
    table x -> x^ell.  It is ell_ranks over d alone, a walk of O(|d|)."""
    return next(ell_ranks([d], ell))


def ell_ranks(discs: Iterable[int], ell: int) -> Iterator[int]:
    """ell_rank(d, ell) for each d of discs, in their order.

    discs are fundamental discriminants other than 1 in strictly
    increasing (|d|, d) order, read once; one that is not raises
    ValueError before its group is built.  One walk per sign finds the
    reduced forms of a window of O(sqrt(|d|)) of them at a time, in
    O(|d|) whatever its width, and holds their forms alone."""
    _check_odd_prime(ell)
    for grp in _walk(discs):
        yield len(_q_parts(grp, ell))
