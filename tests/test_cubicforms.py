import pytest
import sympy
from sympy.abc import x
from sympy.polys.numberfields.basis import round_two

from reflectron import cubicforms
from reflectron.cli import main
from reflectron.cubicforms import (
    CubicForm,
    CubicTabulation,
    count_N3,
    cubic_disc,
    enumerate_cubic_fields,
    is_irreducible,
    is_maximal,
    merge_tabulations,
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
    tab = enumerate_cubic_fields(100, 0)
    complexes = {d: n for d, n in tab.counts.items() if d < 0}
    reals = {d: n for d, n in tab.counts.items() if d > 0}
    assert complexes == {-23: 1, -31: 1, -44: 1, -59: 1, -76: 1, -83: 1, -87: 1}
    assert reals == {49: 1, 81: 1}


def test_enumeration_golden_counts():
    tab = enumerate_cubic_fields(2000, 0)
    assert count_N3(tab, -23) == 1
    assert count_N3(tab, -108) == 1
    assert count_N3(tab, -1208) == 1  # needs a correct sign split in the root test
    assert count_N3(tab, 1957) == 1
    assert count_N3(tab, -972) == 2  # non-fundamental discriminants may repeat
    assert count_N3(tab, -1228) == 3


def test_enumeration_sign_and_window():
    full = enumerate_cubic_fields(2000, 0)
    neg = enumerate_cubic_fields(2000, -1)
    pos = enumerate_cubic_fields(2000, 1)
    assert all(d < 0 for d in neg.counts)
    assert all(d > 0 for d in pos.counts)
    assert {**neg.counts, **pos.counts} == full.counts
    inner = enumerate_cubic_fields(2000, 0, xmin=800)
    assert inner.counts == {d: n for d, n in full.counts.items() if abs(d) > 800}


def test_enumeration_worker_independence():
    assert enumerate_cubic_fields(2500, 0, workers=3).counts == (
        enumerate_cubic_fields(2500, 0, workers=1).counts
    )


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps
    in this process, so no worker is ever started."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_enumeration_caps_shards_at_leading_coefficients(monkeypatch):
    monkeypatch.setattr(cubicforms, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    for sign in (0, 1):
        serial = enumerate_cubic_fields(2000, sign).counts
        assert enumerate_cubic_fields(2000, sign, workers=64).counts == serial
    # at X = 2000 the negative side walks a <= 7, the positive side a <= 4
    assert _InProcessPool.sizes == [7, 4]
    # the 19 leading coefficients of the negative side at X = 160000
    assert cubicforms._complex_amax(160000) == 19


def test_enumeration_validation():
    with pytest.raises(ValueError):
        enumerate_cubic_fields(-1, 0)
    with pytest.raises(ValueError):
        enumerate_cubic_fields(100, 2)
    with pytest.raises(ValueError):
        enumerate_cubic_fields(100, 0, xmin=200)
    with pytest.raises(ValueError):
        enumerate_cubic_fields(100, 0, workers=0)
    # a degenerate window is legal and empty
    assert enumerate_cubic_fields(0, 0).counts == {}


def test_merge_tabulations():
    lo = enumerate_cubic_fields(900, 0)
    hi = enumerate_cubic_fields(1800, 0, xmin=900)
    whole = merge_tabulations(lo, hi)
    direct = enumerate_cubic_fields(1800, 0)
    assert whole.counts == direct.counts and whole.xmax == 1800 and whole.xmin == 0
    assert merge_tabulations(hi, lo).counts == whole.counts
    neg = enumerate_cubic_fields(900, -1)
    pos = enumerate_cubic_fields(900, 1)
    assert merge_tabulations(neg, pos).counts == lo.counts
    with pytest.raises(ValueError):
        merge_tabulations(lo, enumerate_cubic_fields(1800, 0, xmin=1000))


def test_count_n3_errors():
    tab = enumerate_cubic_fields(500, -1)
    assert count_N3(tab, -23) == 1
    assert count_N3(tab, -24) == 0  # covered, no field there
    with pytest.raises(ValueError):
        count_N3(tab, 0)
    with pytest.raises(ValueError):
        count_N3(tab, 49)  # wrong sign
    with pytest.raises(ValueError):
        count_N3(tab, -501)  # beyond the window


def test_tabulation_to_csv(capsys):
    # the cubic-tab report is the one CSV writer of a tabulation
    tab = enumerate_cubic_fields(100, 0)
    assert main(["cubic-tab", "--xmax", "100"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "disc,count"
    assert lines[1] == "-23,1"
    assert lines[-1] == "-87,1"
    assert text.endswith("\n")
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert dict(rows) == tab.counts
    # rows are ordered by (|disc|, disc)
    discs = [disc for disc, _ in rows]
    assert discs == sorted(discs, key=lambda t: (abs(t), t))


def test_tabulation_validation():
    with pytest.raises(ValueError):
        CubicTabulation(0, 100, -1, {49: 1})  # wrong sign for the key
    with pytest.raises(ValueError):
        CubicTabulation(0, 100, 0, {-108: 1})  # outside the window
    with pytest.raises(ValueError):
        CubicTabulation(-1, 100, 0, {})
