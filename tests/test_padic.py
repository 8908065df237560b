"""Unit-level arithmetic in Q_p: representation, propagation, sqrt, log, Teichmueller.

Frozen expected values in this file were produced by independent integer
computations (exhaustive residue searches and Fraction partial sums), not by
the code under test.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicann.errors import (
    DivisionByIndistinguishableZero,
    NotASquare,
    OddPrimeRequired,
    ZeroArgument,
)
from padicann.intpoly import is_qp_square
from padicann.padic import (
    PAdic,
    is_square,
    log0,
    sqrt,
    vp,
)


def Q(num, den=1):
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# construction and representation
# ---------------------------------------------------------------------------


def test_half_mod_3_5():
    x = PAdic.from_rational(Q(1, 2), 3, 5)
    # oracle: (3^5 + 1) // 2 = 122
    assert x.valuation == 0
    assert x.unit_residue() == 122
    assert x.prec == 5


def test_serialize_two_thirds():
    x = PAdic.from_rational(Q(2, 3), 5, 3)
    assert x.to_json() == {"val": "0", "unit": "84", "prec": "3"}
    y = PAdic.from_json(x.to_json(), 5)
    assert y == x


def test_ten_at_p5():
    x = PAdic.from_int(10, 5, 4)
    assert x.valuation == 1
    assert x.unit_residue() % 5 == 2


def test_negative_valuation():
    x = PAdic.from_rational(Q(1, 9), 3, 4)
    assert x.valuation == -2
    assert x.unit_residue() == 1


def test_zero_kinds():
    z = PAdic.zero(7)
    assert z.is_zero() and z.is_exact_zero()
    oz = PAdic.inexact_zero(7, 6)
    assert oz.is_zero() and not oz.is_exact_zero()
    assert oz.prec == 6


def test_rational_below_precision_collapses():
    # 81 at absolute precision 3 carries no known digit
    x = PAdic.from_rational(81, 3, 3)
    assert x.is_zero() and x.prec == 3


@pytest.mark.parametrize("obj, val, unit, prec", [
    # a unit divisible by p moves its p-power into the valuation
    ({"val": "0", "unit": "9", "prec": "5"}, 2, 1, 5),
    ({"val": "-1", "unit": "18", "prec": "4"}, 1, 2, 4),
    # a unit at or above p^(prec - val) is reduced, a negative one too
    ({"val": "1", "unit": str(3**4 + 2), "prec": "5"}, 1, 2, 5),
    ({"val": "0", "unit": "-1", "prec": "3"}, 0, 26, 3),
])
def test_from_json_normalises_the_unit(obj, val, unit, prec):
    x = PAdic.from_json(obj, 3)
    assert (x.valuation, x.unit_residue(), x.prec) == (val, unit, prec)


@pytest.mark.parametrize("obj", [
    {"val": "1", "unit": str(3**4), "prec": "5"},  # unit = 0 mod p^(prec - val)
    {"val": "0", "unit": str(2 * 3**5), "prec": "5"},
    {"val": "5", "unit": "2", "prec": "5"},  # prec <= val: no known digit
    {"val": "7", "unit": "2", "prec": "5"},
])
def test_from_json_without_known_digits_is_inexact_zero(obj):
    x = PAdic.from_json(obj, 3)
    assert x.is_zero() and not x.is_exact_zero()
    assert x.prec == 5


def test_missing_prec_is_refused():
    # only the exact zero is known to infinite precision
    with pytest.raises(ValueError, match="needs its absolute precision"):
        PAdic(3, 2, 5, None)
    assert PAdic(3, None, 0, None).is_exact_zero()


# ---------------------------------------------------------------------------
# ring operations and precision propagation
# ---------------------------------------------------------------------------


def test_exact_cancellation():
    a = PAdic.from_rational(Q(7, 2), 5, 8)
    s = a + (-a)
    assert s.is_zero()


def test_add_matches_rational():
    a = PAdic.from_rational(Q(1, 2), 3, 7)
    b = PAdic.from_rational(Q(1, 3), 3, 7)
    assert (a + b).agrees(Q(5, 6))


def test_division_by_p_lowers_precision():
    a = PAdic.from_int(1, 3, 10)
    q = a / 9  # exact divisor p^2: absolute precision drops by exactly 2
    assert q.valuation == -2
    assert q.prec == 8
    # with a divisor that itself carries only 8 relative digits, the result
    # is pessimistically capped by those
    b = PAdic.from_int(9, 3, 10)
    assert (a / b).prec == 6


def test_division_by_zero_rejected():
    a = PAdic.from_int(1, 3, 5)
    with pytest.raises(DivisionByIndistinguishableZero):
        a / PAdic.zero(3)
    with pytest.raises(DivisionByIndistinguishableZero):
        a / PAdic.inexact_zero(3, 5)


def test_mul_precision_is_pessimistic():
    a = PAdic(3, 0, 1 + 3, 2)          # 4 + O(3^2)
    b = PAdic(3, 0, 2, 5)              # 2 + O(3^5)
    c = a * b
    assert c.valuation == 0
    assert c.prec == 2


rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)


@given(x=rationals, y=rationals)
@settings(max_examples=150, deadline=None)
def test_ring_ops_agree_with_exact_rationals(x, y):
    p = 3
    a = PAdic.from_rational(x, p, 20)
    b = PAdic.from_rational(y, p, 20)
    assert (a + b).agrees(x + y)
    assert (a * b).agrees(x * y)
    assert (a - b).agrees(x - y)
    if y != 0:
        assert (a / b).agrees(x / y)


@given(x=rationals, y=rationals)
@settings(max_examples=150, deadline=None)
def test_valuation_inequalities(x, y):
    p = 5
    a = PAdic.from_rational(x, p, 18)
    b = PAdic.from_rational(y, p, 18)
    s = a + b
    m = a * b
    assert s.valuation >= min(a.valuation, b.valuation)
    if not (a.is_zero() or b.is_zero()):
        assert m.valuation == a.valuation + b.valuation


@given(x=rationals.filter(bool), y=rationals.filter(bool),
       p=st.sampled_from((2, 3, 5, 7, 10007)),
       rx=st.integers(min_value=1, max_value=8),
       ry=st.integers(min_value=1, max_value=8))
@settings(max_examples=300, deadline=None)
def test_sum_is_normalised_like_the_embedded_rational(x, y, p, rx, ry):
    # the sum's (val, unit, prec) is the canonical form of x + y mod p^n
    nx, ny = vp(x, p) + rx, vp(y, p) + ry
    s = PAdic.from_rational(x, p, nx) + PAdic.from_rational(y, p, ny)
    n = min(nx, ny)
    want = PAdic.from_rational(x + y, p, n) if x + y else PAdic.inexact_zero(p, n)
    assert (s.valuation, s.prec) == (want.valuation, want.prec)
    if not s.is_zero():
        assert s.unit_residue() == want.unit_residue()


@st.composite
def _elements(draw, p):
    """A unit times a power of p, an exact zero or an inexact zero O(p^val)."""
    kind = draw(st.sampled_from(("digits", "digits", "exact", "inexact")))
    val = draw(st.integers(-10, 10))
    if kind == "exact":
        return PAdic.zero(p)
    if kind == "inexact":
        return PAdic.inexact_zero(p, val)
    return PAdic(p, val, draw(st.integers(1, 10**8)), val + draw(st.integers(1, 12)))


@given(data=st.data(), p=st.sampled_from((2, 3, 5, 10007)))
@settings(max_examples=400, deadline=None)
def test_difference_is_the_sum_with_the_negation(data, p):
    # structurally: the same val, unit and prec
    x = data.draw(_elements(p))
    y = data.draw(st.one_of(_elements(p), st.integers(-10**6, 10**6), rationals))
    assert x - y == x + (-y)
    assert x - x == x + (-x)
    if not isinstance(y, PAdic):
        assert y - x == (-x) + y


@given(data=st.data(), p=st.sampled_from((2, 3, 5, 10007)), N=st.integers(-10, 10))
@settings(max_examples=400, deadline=None)
def test_an_inexact_zero_follows_the_general_rules(data, p, N):
    # the expected values are the rules that inexact zeros once had their
    # own branches for; they now come out of the general formulas
    x = PAdic.inexact_zero(p, N)
    y = data.draw(_elements(p))
    n = min(N, y.prec)

    def known_to(z, n):
        return PAdic.inexact_zero(p, n) if z.is_zero() else \
            PAdic(p, z.valuation, z.unit_residue(), n)

    assert x + y == y + x == known_to(y, n)
    assert x - y == known_to(-y, n)
    assert y - x == known_to(y, n)
    assert x * y == y * x == (
        PAdic.zero(p) if y.is_exact_zero() else PAdic.inexact_zero(p, N + y.valuation))
    if not y.is_zero():
        assert x / y == PAdic.inexact_zero(p, N - y.valuation)
    for k in (1, 2, 3):
        assert x**k == PAdic.inexact_zero(p, k * N)
    assert -x == x and x.rel_prec == 0 and x.valuation == x.prec == N


def test_a_term_past_the_sum_precision_is_never_expanded():
    # 3^(10^8) is never formed: the term is 0 mod 3^20
    start = time.perf_counter()
    a, far = PAdic(3, 0, 1, 20), PAdic(3, 10**8, 1, 10**8 + 5)
    assert a + far == a - far == far + a == a
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# sqrt
# ---------------------------------------------------------------------------


def test_sqrt_7_mod_27():
    # oracle: exhaustive search finds x^2 = 7 mod 27 at x in {13, 14};
    # the tie-break picks residue 1 mod 3, i.e. 13.
    x = PAdic.from_int(7, 3, 3)
    r = sqrt(x)
    assert r.unit_residue() == 13
    assert (r * r).agrees(7)


def test_sqrt_tiebreak_least_residue():
    for p in (3, 5, 7, 11):
        for a in (1, 4, 2, 9):
            x = PAdic.from_int(a, p, 12)
            try:
                r = sqrt(x)
            except NotASquare:
                continue
            assert 1 <= r.unit_residue() % p <= (p - 1) // 2


def test_sqrt_even_valuation_scales():
    x = PAdic.from_int(9 * 7, 3, 6)
    r = sqrt(x)
    assert r.valuation == 1
    assert (r * r).agrees(63)


def test_sqrt_rejections():
    with pytest.raises(NotASquare):
        sqrt(PAdic.from_int(3, 3, 6))       # odd valuation
    with pytest.raises(NotASquare):
        sqrt(PAdic.from_int(5, 3, 6))       # 5 = 2 mod 3 is a non-residue
    with pytest.raises(OddPrimeRequired):
        sqrt(PAdic.from_int(17, 2, 6))


def test_is_square_mod8_at_p2():
    assert is_square(PAdic.from_int(17, 2, 6))
    assert not is_square(PAdic.from_int(3, 2, 6))
    assert not is_square(PAdic.from_int(2, 2, 6))


ODD_PRIMES = [n for n in range(3, 10008, 2)
              if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]


def _square_by_euler(x, p):
    """Reference: x in Q_p^2 iff v(x) is even and the unit is a QR mod p."""
    v = vp(x, p)
    if v % 2 != 0:
        return False
    u = x / Fraction(p) ** v
    r = u.numerator * pow(u.denominator, -1, p) % p
    return pow(r, (p - 1) // 2, p) == 1


@given(p=st.sampled_from(ODD_PRIMES),
       num=st.integers(min_value=-(10**9), max_value=10**9).filter(bool),
       den=st.integers(min_value=1, max_value=10**9),
       v=st.integers(min_value=-5, max_value=5))
@settings(max_examples=400, deadline=None)
def test_is_square_of_one_digit_matches_euler(p, num, den, v):
    assume(num % p and den % p)
    x = Fraction(num, den) * Fraction(p) ** v
    assert vp(x, p) == v
    assert is_square(PAdic.from_rational(x, p, vp(x, p) + 1)) == _square_by_euler(x, p)
    # the integer test that the decomposition's regions use
    n = num * p ** abs(v)
    assert is_qp_square(n, p) == is_square(PAdic.from_rational(n, p, vp(n, p) + 1))


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=120, deadline=None)
def test_sqrt_squares_roundtrip(n):
    p = 7
    x = PAdic.from_int(n, p, 15)
    if x.is_zero():
        return
    sq = x * x
    r = sqrt(sq)
    assert (r * r).agrees(sq.lift())


# ---------------------------------------------------------------------------
# Teichmueller decomposition
# ---------------------------------------------------------------------------


def _root_of_unity(residue, p, rel):
    """The (p-1)-st root of unity = residue mod p, as residue^(p^(rel-1)) mod p^rel."""
    return PAdic(p, 0, pow(residue, p ** (rel - 1), p**rel), rel)


def test_teichmuller_trivial():
    m, zr, u = teichmuller_decompose(PAdic.from_int(3, 3, 8))
    assert (m, zr) == (1, 1)
    assert u.agrees(1)


def test_teichmuller_50_at_p5():
    m, zr, u = teichmuller_decompose(PAdic.from_int(50, 5, 5))
    assert m == 2
    assert zr == 2
    # oracle: iterating r -> r^5 mod 125 from 2 stabilizes at 57 = 2^(5^2)
    zeta = _root_of_unity(2, 5, 3)
    assert zeta.unit_residue() == 57
    assert (u.unit_residue() - 1) % 5 == 0
    assert (zeta * u * 25).agrees(50)


def test_teichmuller_zero_rejected():
    with pytest.raises(ZeroArgument):
        teichmuller_decompose(PAdic.zero(5))


@given(st.integers(min_value=1, max_value=10**5))
@settings(max_examples=100, deadline=None)
def test_teichmuller_root_of_unity(n):
    p = 5
    x = PAdic.from_int(n, p, 10)
    if x.is_zero():
        return
    m, zr, u = teichmuller_decompose(x)
    zeta = _root_of_unity(zr, p, 10)
    assert (zeta ** (p - 1)).agrees(1)
    # recomposition returns the input value
    recomposed = zeta * u * PAdic.from_rational(Q(p) ** m, p, 10 + max(0, m) + 1)
    assert recomposed.agrees(x.lift())


# ---------------------------------------------------------------------------
# Log0
# ---------------------------------------------------------------------------


def _log_oracle(u, p, modexp):
    """Partial Fraction sums of log(u), reduced mod p^modexp (independent path)."""
    z = Fraction(u) - 1
    total = Fraction(0)
    for n in range(1, 40):
        total += (-1) ** (n + 1) * z**n / Fraction(n)
    num, den = total.numerator, total.denominator
    mod = p**modexp
    while den % p == 0:  # tail terms may be p-integral only after truncation
        raise AssertionError("oracle denominator not a p-unit")
    return num * pow(den, -1, mod) % mod


def test_log0_of_4_at_p3():
    x = PAdic.from_int(4, 3, 10)
    got = log0(x)
    expected = _log_oracle(4, 3, 4)
    assert got.valuation == 1
    lifted = got.lift() * Fraction(1)
    assert (lifted - expected) % 81 == 0


def test_log0_kills_p_and_roots_of_unity():
    p = 3
    assert log0(PAdic.from_int(p, p, 12)).is_zero()
    assert log0(PAdic.from_int(-1, p, 12)).is_zero()
    zeta = _root_of_unity(3, 7, 10)
    assert log0(zeta).is_zero()


def test_log0_zero_rejected():
    with pytest.raises(ZeroArgument):
        log0(PAdic.zero(3))


@given(
    a=st.integers(min_value=1, max_value=5000),
    b=st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=80, deadline=None)
def test_log0_is_a_homomorphism(a, b):
    p = 3
    x = PAdic.from_rational(Q(a), p, 16)
    y = PAdic.from_rational(Q(b), p, 16)
    lx, ly, lxy = log0(x), log0(y), log0(x * y)
    assert (lx + ly - lxy).is_zero()


def test_log0_scaling_by_p_is_invisible():
    p = 3
    x = PAdic.from_int(10, p, 14)
    assert (log0(x * PAdic.from_int(p, p, 14)) - log0(x)).is_zero()


def teichmuller_decompose(x: PAdic):
    """Split x = p^m * zeta * u with zeta a Teichmueller root of unity, u = 1 mod p.

    Returns ``(m, zeta_residue, u)`` where ``zeta_residue`` is an integer mod p
    (for p = 2 it is the sign representative mod 4, i.e. 1 or 3, and u = 1 mod 4).
    ``_log0_reference`` sums the log series at this u.
    """
    if x.is_zero():
        raise ZeroArgument("zero has no Teichmueller decomposition")
    p = x.p
    m = int(x.valuation)
    rel = int(x.rel_prec)
    mod = p ** rel
    u0 = x.unit_residue()
    if p == 2:
        if rel == 1:
            return m, 1, PAdic(2, 0, 1, 1)
        if u0 % 4 == 1:
            return m, 1, PAdic(2, 0, u0, rel)
        return m, 3, PAdic(2, 0, -u0, rel)
    zeta = _teichmuller_unit(u0, p, rel)
    u = u0 * pow(zeta, -1, mod) % mod
    return m, zeta % p, PAdic(p, 0, u, rel)


def _teichmuller_unit(u: int, p: int, rel: int) -> int:
    """The root of unity mod p^rel congruent to u mod p: iterate u -> u^p."""
    mod = p**rel
    zeta = u % mod
    for _ in range(rel + 1):
        nxt = pow(zeta, p, mod)
        if nxt == zeta:
            break
        zeta = nxt
    return zeta


def _log0_reference(x):
    """Log0 as the series sum over PAdic arithmetic, term by term."""
    p = x.p
    _, _, u = teichmuller_decompose(x)
    z = u - PAdic.from_int(1, p, int(u.prec))
    if z.is_zero():
        return PAdic.inexact_zero(p, int(z.prec))
    total = PAdic.zero(p)
    zn = z
    n = 1
    c = int(z.valuation)
    while True:
        term = zn / PAdic.from_rational(n, p, int(zn.prec) + 4)
        total = total + (term if n % 2 == 1 else -term)
        n += 1
        zn = zn * z
        if n * c - (math.floor(math.log(n, p)) + 1) > total.prec:
            break
    return total


@given(
    p=st.sampled_from((2, 3, 5, 7, 11, 10007)),
    val=st.integers(-5, 5),
    unit=st.integers(1, 10**40),
    rel=st.integers(1, 30),
)
@settings(max_examples=300, deadline=None)
def test_log0_matches_padic_series(p, val, unit, rel):
    if unit % p == 0:
        unit += 1
    x = PAdic(p, val, unit, val + rel)
    assert log0(x) == _log0_reference(x)  # same val, unit and prec


@given(
    p=st.sampled_from((2, 3, 10007)),
    c=st.integers(1, 5),
    w=st.integers(0, 10**30),
    rel=st.integers(1, 90),
    val=st.integers(-3, 3),
)
# the series needs terms up to n = 8, 9 and 27: past a power of p, where
# v_p(n) and so the scale of the summed coefficients grows
@example(p=2, c=1, w=1, rel=12, val=0)
@example(p=3, c=1, w=1, rel=6, val=0)
@example(p=3, c=1, w=1, rel=23, val=1)
@settings(max_examples=300, deadline=None)
def test_log0_matches_padic_series_across_powers_of_p(p, c, w, rel, val):
    # a 1-unit 1 + p^c w: the number of series terms, about rel / c, crosses
    # powers of p as rel grows
    if p == 2:
        c += 1
    if p == 10007:
        rel = min(rel, 30)
    x = PAdic(p, val, 1 + p**c * w, val + rel)
    assert log0(x) == _log0_reference(x)


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_vp():
    assert vp(12, 2) == 2
    assert vp(Q(9, 4), 3) == 2
    assert vp(Q(4, 9), 3) == -2
    assert vp(0, 5) == float("inf")


def test_pow():
    x = PAdic.from_rational(Q(3, 2), 5, 8)
    assert (x**3).agrees(Q(27, 8))
    assert (x**-2).agrees(Q(4, 9))
    assert (x**0).agrees(1)


def test_zeroth_power_is_one_at_the_relative_precision():
    # 2 * 3^-25 + O(3^-5) has 20 known digits, so x ** 0 is 1 + O(3^20),
    # not the O(3^-5) that its absolute precision would give
    x = PAdic(3, -25, 2, -5)
    assert x**0 == PAdic(3, 0, 1, 20) == x * x**-1
    y = PAdic.from_int(18, 3, 10)
    assert y**0 == PAdic(3, 0, 1, 8) == y * y**-1
    # a zero has no relative precision: 1 takes that of a constant met by the exact zero
    assert PAdic.zero(3) ** 0 == PAdic.inexact_zero(3, 4) ** 0 == PAdic(3, 0, 1, 20)


def _power_by_multiplication(x, k):
    """x ** k as repeated products of x or of 1 / x; k = 0 gives x * (1 / x)."""
    if k == 0:
        return x * (1 / x)
    base = x if k > 0 else 1 / x
    out = base
    for _ in range(abs(k) - 1):
        out = out * base
    return out


@given(p=st.sampled_from((2, 3, 5, 7, 10007)), k=st.integers(-6, 6),
       val=st.integers(-30, 30), unit=st.integers(1, 10**12),
       rel=st.integers(1, 30), zero=st.sampled_from((None, "exact", "inexact")))
@example(p=3, k=0, val=-25, unit=2, rel=20, zero=None)
@example(p=3, k=3, val=-4, unit=0, rel=1, zero="inexact")
@settings(max_examples=400, deadline=None)
def test_power_is_repeated_multiplication(p, k, val, unit, rel, zero):
    if zero is None:
        assume(unit % p)
        x = PAdic(p, val, unit, val + rel)
    else:
        x = PAdic.zero(p) if zero == "exact" else PAdic.inexact_zero(p, val)
    if x.is_zero() and k < 0:
        with pytest.raises(DivisionByIndistinguishableZero):
            x**k
    elif x.is_zero() and k == 0:
        assert x**k == PAdic(p, 0, 1, 20)
    else:
        assert x**k == _power_by_multiplication(x, k)


@given(st.sampled_from((3, 5, 7)), st.integers(5, 60), st.integers(-3, 3),
       st.integers(1, 10**6), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_negative_power_is_the_reciprocal_of_the_power(p, prec, val, unit, k):
    # the precision of x ** -k comes from x alone, not from a default
    assume(unit % p)
    x = PAdic(p, val, unit, prec)
    assert x**-k == 1 / x**k


@given(st.sampled_from((3, 5, 7)), st.fractions(max_denominator=50),
       st.integers(-5, 30))
@example(3, Fraction(5), 10)
@settings(max_examples=200, deadline=None)
def test_equal_elements_hash_equal(p, q, prec):
    assume(q == 0 or prec > vp(q, p))
    x, y = PAdic.from_rational(q, p, prec), PAdic.from_rational(q, p, prec)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    # an element never equals a rational; agrees compares the value
    assert x != q and q not in {x}
    assert x.agrees(q)
