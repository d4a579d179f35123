"""The reflection identities themselves.

For an odd prime ell and a fundamental discriminant D, the number of
degree-ell fields whose Galois closure is dihedral with quadratic
resolvent Q(sqrt(D)) is tied to the number of degree-ell fields with
Frobenius closure group at exactly two discriminants determined by D.
This module computes every ingredient of that statement: the mirror
(degree ell - 1) discriminant, the dihedral-side count read off the
class group, the admissible conductor exponents, and the two target
discriminants.  At ell = 3 both sides are plain cubic-field counts and
the identity is checked outright against a cubic-form tabulation; at
ell = 5 an aggregate over the resolvent pair (d, 5d) removes the
primitive-root side condition and is again exactly checkable.

Discriminants of candidate fields are handled as FieldDiscriminant
values: signature plus integer magnitude, since a signed integer alone
would conflate signatures in even degree.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from itertools import tee
from typing import TYPE_CHECKING, NamedTuple

from .arith import _check_odd_prime, is_fundamental_discriminant, smallest_primitive_root

if TYPE_CHECKING:
    from .cubicforms import CubicTabulation


# the fields of FieldDiscriminant, which checks them in __new__, as a NamedTuple
# cannot define its own
class _Signature(NamedTuple):
    r2: int
    magnitude: int
    degree: int


class FieldDiscriminant(_Signature):
    """A number-field discriminant as signature plus unsigned magnitude.

    r2 counts pairs of complex embeddings and fixes the sign of the
    discriminant as (-1)^r2; keeping it explicit distinguishes data
    that share a signed value (a totally real quartic and one with two
    complex pairs both have positive discriminant).
    """

    __slots__ = ()

    def __new__(cls, r2: int, magnitude: int, degree: int) -> FieldDiscriminant:
        _check_signature(r2, magnitude, degree)
        return super().__new__(cls, r2, magnitude, degree)

    @classmethod
    def _make(cls, fields: Iterable[int]) -> FieldDiscriminant:
        # so that _replace checks its result too
        return cls(*fields)

    def signed_value(self) -> int:
        return (-1) ** self.r2 * self.magnitude


def _check_signature(r2: int, magnitude: int, degree: int) -> None:
    # the rules of a discriminant datum, a FieldDiscriminant's or a
    # table row's
    if degree < 1:
        raise ValueError("degree must be positive")
    if r2 < 0 or 2 * r2 > degree:
        raise ValueError(f"r2 = {r2} is impossible in degree {degree}")
    if magnitude < 1:
        raise ValueError("magnitude must be positive")


def _check_quadratic(D: int) -> None:
    if D == 1 or not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not the discriminant of a quadratic field")


def _check_disc(ell: int, D: int) -> None:
    # the identities and the mirror construction exclude the trivial
    # discriminant and the quadratic field of conductor ell itself
    _check_quadratic(D)
    if abs(D) == ell:
        raise ValueError(f"D = {D} is excluded for ell = {ell}")


def _reflected_disc(ell: int, D: int, k: int, degree: int) -> FieldDiscriminant:
    # magnitude ell^v * |D|_ell'^((ell-1)/2): the prime-to-ell part of D
    # raised to (ell-1)/2, and ell-adic valuation v = ell - 2 + k, one
    # less in the tame case ell | D with ell = 3 mod 4; totally real
    # exactly when D < 0
    half = (ell - 1) // 2
    v = ell - 3 + k if D % ell == 0 and ell % 4 == 3 else ell - 2 + k
    # a fundamental D holds at most one factor of the odd prime ell
    away = abs(D) // ell if D % ell == 0 else abs(D)
    # a report prints no int >= 10^limit; 2^bits <= magnitude and log10(2) > 0.30102
    limit = sys.get_int_max_str_digits()
    bits = v * (ell.bit_length() - 1) + half * (away.bit_length() - 1)
    magnitude = 0 if limit and 30102 * bits >= 100000 * limit else ell**v * away**half
    if limit and (not magnitude or magnitude.bit_length() > 3 * limit and magnitude >= 10**limit):
        raise ValueError(f"ell = {ell} and D = {D} give a discriminant of more than {limit} digits")
    return FieldDiscriminant(0 if D < 0 else half, magnitude, degree)


def mirror_disc(ell: int, D: int) -> FieldDiscriminant:
    """Discriminant of the degree ell - 1 mirror field of Q(sqrt(D)).

    Away from ell the magnitude is the (ell-1)/2 power of the
    prime-to-ell part of D; the ell-adic valuation is ell - 2 except in
    the one tame case (ell | D with ell = 3 mod 4) where it drops to
    ell - 3.  The mirror field is totally real exactly when D < 0.
    """
    _check_odd_prime(ell)
    _check_disc(ell, D)
    return _reflected_disc(ell, D, 0, ell - 1)


def _exact_root(n: int, k: int) -> int | None:
    # k-th root of a positive integer, None when not exact.  Integer
    # Newton's method from 2^ceil(bits/k) > n^(1/k): the iterates fall
    # strictly until they reach floor(n^(1/k)), where they stop falling
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


def classify_mirror(F_disc: FieldDiscriminant, ell: int) -> int:
    """The fundamental discriminant whose mirror discriminant this is.

    Inverts mirror_disc: the prime-to-ell part of the magnitude must be
    the (ell-1)/2 power of some root, and D is root or ell * root,
    negative when the mirror field is totally real (r2 = 0).  A candidate
    is accepted only when mirror_disc maps it back to F_disc, which also
    settles the degree, the signature and the ell-adic valuation.  When
    ell = 1 mod 4 the discriminants D and ell*D share a mirror
    discriminant; the representative coprime to ell is returned.  Raises
    ValueError when no fundamental discriminant maps here.
    """
    _check_odd_prime(ell)
    away = F_disc.magnitude
    while away % ell == 0:
        away //= ell
    root = _exact_root(away, (ell - 1) // 2)
    sign = -1 if F_disc.r2 == 0 else 1
    if root is not None:
        for D in (sign * root, sign * ell * root):
            if is_fundamental_discriminant(D) and D not in (1, ell, -ell):
                if mirror_disc(ell, D) == F_disc:
                    return D
    raise ValueError(f"no fundamental discriminant has mirror discriminant {F_disc}")


def count_Dl(ell: int, D: int) -> int:
    """Number of dihedral degree-ell fields with resolvent Q(sqrt(D)).

    Each such field corresponds to an index-ell subgroup of the class
    group of Q(sqrt(D)), so the count is (ell^r - 1)/(ell - 1) with r
    the ell-rank.
    """
    from .quadforms import ell_rank

    _check_odd_prime(ell)
    _check_quadratic(D)
    return _subgroups(ell, ell_rank(D, ell))


def _subgroups(ell: int, rank: int) -> int:
    # the index-ell subgroups of a group of ell-rank rank
    return (ell**rank - 1) // (ell - 1)


def admissible_conductor_exponents(ell: int, D: int) -> set[int]:
    """Possible ell-adic conductor exponents for the cyclic degree-ell
    extensions of the mirror field that the correspondence produces."""
    _check_odd_prime(ell)
    _check_disc(ell, D)
    return _conductor_exponents(ell, D)


def _conductor_exponents(ell: int, D: int) -> set[int]:
    # admissible_conductor_exponents for an ell and a D already checked
    if D % ell:
        return {0, 2}
    if ell % 4 == 1:
        return {0, (ell + 3) // 2}
    return {0, 2, (ell + 5) // 2}


def fl_disc_from_conductor(ell: int, D: int, k: int) -> FieldDiscriminant | None:
    """Frobenius-side discriminant produced by conductor exponent k.

    The ell-adic valuation is (ell - 2) + k, dropping to (ell - 3) + k
    in the tame ell | D, ell = 3 mod 4 case; away from ell the magnitude
    agrees with |D|^((ell-1)/2).  In the tame case k = 2 is admissible
    for the conductor but produces no field (the valuation ell - 1 is
    not attained), so it returns None rather than a discriminant.
    """
    if k not in admissible_conductor_exponents(ell, D):
        raise ValueError(f"conductor exponent {k} is not admissible for ({ell}, {D})")
    if k == 2 and D % ell == 0 and ell % 4 == 3:
        return None
    return _reflected_disc(ell, D, k, ell)


def target_discs(ell: int, D: int) -> tuple[FieldDiscriminant, FieldDiscriminant]:
    """The two Frobenius-side discriminants appearing on the right of
    the identity, ordered by increasing ell-adic valuation: those of
    conductor exponent 0 and of the largest admissible exponent.  Built
    straight from the valuation formula, not from fl_disc_from_conductor,
    whose outputs they equal."""
    _check_odd_prime(ell)
    _check_disc(ell, D)
    return _targets(ell, D)


def _targets(ell: int, D: int) -> tuple[FieldDiscriminant, FieldDiscriminant]:
    # target_discs for an ell and a D already checked
    top = max(_conductor_exponents(ell, D))
    return _reflected_disc(ell, D, 0, ell), _reflected_disc(ell, D, top, ell)


class PredictionRecord(NamedTuple):
    """One instance of the identity, evaluated as far as class groups go.

    dl_count is the dihedral-side field count; lhs_value folds in the
    extra unit contribution for D > 0.  The Frobenius-side counts at
    the two targets are what external field tables must supply.  For
    ell >= 7 those counts must be restricted to fields on which a
    distinguished conjugation acts through the primitive root g
    (star_required); at ell = 3 the restriction is vacuous and at
    ell = 5 the aggregate of corollary5_predict avoids it.
    """

    ell: int
    D: int
    g: int
    dl_count: int
    lhs_value: int
    targets: tuple[FieldDiscriminant, FieldDiscriminant]
    star_required: bool


def predict(ell: int, D: int) -> PredictionRecord:
    """Evaluate the left side of the identity at (ell, D) and name the
    two discriminants whose field counts the right side sums."""
    return next(predictions(ell, [D]))


def predictions(ell: int, Ds: Iterable[int]) -> Iterator[PredictionRecord]:
    """predict(ell, D) for each D of Ds, in their order.

    Ds are read once, and must be fundamental discriminants in strictly
    increasing (|D|, D) order: their ell-ranks come from one
    quadforms.ell_ranks walk, which raises ValueError at one that is
    not.  An ell that is not an odd prime raises ValueError even when
    Ds is empty."""
    from .quadforms import ell_ranks

    g = smallest_primitive_root(ell)  # checks ell
    Ds, scope = tee(Ds)
    # the walk checks each D; only the exclusion of _check_disc is left
    for D, rank in zip(Ds, ell_ranks(scope, ell)):
        if abs(D) == ell:
            raise ValueError(f"D = {D} is excluded for ell = {ell}")
        dl_count = _subgroups(ell, rank)
        lhs = dl_count if D < 0 else ell * dl_count + 1
        yield PredictionRecord(ell, D, g, dl_count, lhs, _targets(ell, D), ell >= 7)


class OnVerification(NamedTuple):
    """Both sides of the ell = 3 identity read off cubic tabulations."""

    D: int
    lhs_terms: tuple[int, int]
    rhs: int
    holds: bool


def verify_on3(
    D: int, tab: CubicTabulation, tab27: CubicTabulation | None = None
) -> OnVerification:
    """Check the cubic case of the identity for one discriminant, with
    every count taken from cubic-form tabulations and nothing else.

    The left side is N3(D*) + N3(-27 D) where D* = -3 D when 3 does not
    divide D and -D/3 otherwise; the right side is N3(D) for D < 0 and
    3 N3(D) + 1 for D > 0.  N3(-27 D) is read from tab27 when it is
    given and from tab otherwise; every other count is read from tab.
    So tab, at modulus 1, needs xmax >= |D*| (which is at least |D| and
    at most 3 |D|), or xmax >= 27 |D| when tab27 is not given; tab27, at
    either modulus, needs xmax >= 27 |D|.  A count its tabulation does
    not cover makes count_N3 raise.
    """
    from .cubicforms import count_N3

    _check_disc(3, D)
    dstar = -3 * D if D % 3 else -D // 3
    first = count_N3(tab, dstar)
    second = count_N3(tab if tab27 is None else tab27, -27 * D)
    rhs = count_N3(tab, D) if D < 0 else 3 * count_N3(tab, D) + 1
    return OnVerification(D, (first, second), rhs, first + second == rhs)


class Corollary5Report(NamedTuple):
    """The star-free ell = 5 aggregate over the resolvent pair (d, 5d)."""

    d: int
    lhs_value: int
    targets: tuple[FieldDiscriminant, FieldDiscriminant, FieldDiscriminant]


def corollary5_predict(d: int) -> Corollary5Report:
    """Aggregate the ell = 5 identity over both resolvents d and 5d.

    For d coprime to 5 the two target pairs overlap in 5^3 d^2 and the
    union is the three discriminants 5^3 d^2, 5^5 d^2, 5^7 d^2; summing
    the dihedral counts of d and 5d makes the total field count at
    those targets exact with no side condition.  The left side is the
    plain sum for d < 0 and five times it plus two for d > 0.
    """
    return next(corollary5_predictions([d]))


def _times_5(ds: Iterable[int]) -> Iterator[int]:
    # 5d for each d, checked here so that a d divisible by 5 is named as
    # such, not as a 5d that is not fundamental
    for d in ds:
        if d % 5 == 0:
            raise ValueError(f"d = {d} is not coprime to 5")
        yield 5 * d


def corollary5_predictions(ds: Iterable[int]) -> Iterator[Corollary5Report]:
    """corollary5_predict(d) for each d of ds, in their order.

    ds are read once, and must be fundamental discriminants coprime to
    5 in strictly increasing (|d|, d) order, as predictions asks.  The
    5d are then in that order too, so the ranks at d and at 5d come from
    two quadforms.ell_ranks walks read side by side."""
    from .quadforms import ell_ranks

    ds, at_d, at_5d = tee(ds, 3)
    for d, rank, rank5 in zip(ds, ell_ranks(at_d, 5), ell_ranks(_times_5(at_5d), 5)):
        total = _subgroups(5, rank) + _subgroups(5, rank5)
        lhs = total if d < 0 else 5 * total + 2
        # magnitudes 5^3 d^2, 5^5 d^2, 5^7 d^2
        targets = tuple(_reflected_disc(5, d, k, 5) for k in (0, 2, 4))
        yield Corollary5Report(d, lhs, targets)
