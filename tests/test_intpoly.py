import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicann.curves import HyperellipticCurve
from padicann.intpoly import (
    as_rational,
    clear_denominators,
    is_prime,
    poly_derivative,
    poly_eval,
    poly_gcd_degree,
    squarefree_coefficients,
    vp,
)
from padicann.padic import vp as padic_vp

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)


def naive_vp(n: int, p: int, cap) -> int:
    """Largest k <= cap with p^k | n, by trying every k."""
    k = 0
    while k < cap and n % p ** (k + 1) == 0:
        k += 1
    return k


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------


def test_vp_of_zero_is_the_cap():
    assert vp(0, 3) == math.inf
    assert vp(0, 3, 7) == 7
    assert vp(Fraction(0), 5, 4) == 4


def test_vp_truncates_at_the_cap():
    assert vp(3**10, 3, 4) == 4
    assert vp(3**10 * 2, 3, 10) == 10
    assert vp(3**10 * 2, 3, 11) == 10


def test_vp_negative_ints():
    assert vp(-54, 3) == 3
    assert vp(-7, 7, 5) == 1
    assert vp(-1, 5) == 0


def test_vp_fractions():
    assert vp(Fraction(9, 4), 3) == 2
    assert vp(Fraction(4, 9), 3) == -2
    assert vp(Fraction(-5, 27), 3, 10) == -3
    assert vp(Fraction(10, 7), 5) == 1
    assert vp(Fraction(6, 1), 2) == 1


@pytest.mark.parametrize("p", [1, 0, -3])
def test_vp_refuses_p_below_two(p):
    with pytest.raises(ValueError, match="at least 2"):
        vp(12, p)


def test_is_prime_matches_trial_division():
    limit = 2 * 10**5
    naive = [n for n in range(-5, limit)
             if n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert [n for n in range(-5, limit) if is_prime(n)] == naive
    assert is_prime(10007) and not is_prime(10007 * 10009)


@pytest.mark.parametrize("n, prime", [
    (3215031751, False),                  # strong pseudoprime to the bases 2, 3, 5, 7
    (3825123056546413051, False),         # ... to the bases 2 through 23
    (318665857834031151167461, False),    # ... to the bases 2 through 37
    (1000000007 * 1000000009, False),
    (10**14 + 31, True),
    (10**18 + 3, True),
    (2**61 - 1, True),
])
def test_is_prime_beyond_trial_division(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_n_beyond_its_exact_range():
    assert not is_prime(3317044064679887385961981 - 2)
    with pytest.raises(ValueError, match="too large"):
        is_prime(3317044064679887385961981)


def test_padic_reexports_vp():
    assert padic_vp is vp


@given(st.integers(min_value=-(10**12), max_value=10**12).filter(bool),
       st.sampled_from((2, 3, 5, 7, 10007)),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=200, deadline=None)
def test_vp_matches_naive_reference(n, p, cap):
    assert vp(n, p, cap) == naive_vp(n, p, cap)
    assert vp(n, p) == naive_vp(n, p, math.inf)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


@given(st.lists(fractions, min_size=1, max_size=8).filter(any))
@settings(max_examples=150, deadline=None)
def test_clear_denominators_content_one_same_sign(coeffs):
    ints = clear_denominators(coeffs)
    assert all(isinstance(c, int) for c in ints)
    assert math.gcd(*ints) == 1
    # proportional by a positive factor: same ratios and the same signs
    i = next(k for k, c in enumerate(coeffs) if c != 0)
    scale = Fraction(ints[i]) / coeffs[i]
    assert scale > 0
    assert ints == [scale * c for c in coeffs]


def test_clear_denominators_examples():
    assert clear_denominators([Fraction(1, 2), Fraction(-1, 3), 0, 1]) == [3, -2, 0, 6]
    assert clear_denominators([-4, 6, -2]) == [-2, 3, -1]
    assert clear_denominators([0, 0]) == [0, 0]


def test_poly_gcd_degree_finds_repeated_factor():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2 and its derivative share x - 1
    f = [Fraction(c) for c in (2, -3, 0, 1)]
    assert poly_gcd_degree(f, poly_derivative(f)) == 1
    # (x^2 + 1)^2 (x - 3): the repeated factor is quadratic
    g = [Fraction(c) for c in (-3, 1, -6, 2, -3, 1)]
    assert poly_gcd_degree(g, poly_derivative(g)) == 2
    sqfree = [Fraction(c) for c in (1, 0, 0, 0, 0, 0, 0, 1)]
    assert poly_gcd_degree(sqfree, poly_derivative(sqfree)) == 0


def _fraction_gcd_degree(a, b):
    """Reference: Euclid on Fraction coefficients, one leading term at a time."""
    def strip(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = strip([Fraction(c) for c in a]), strip([Fraction(c) for c in b])
    while b:
        while len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            a = strip([c - q * b[i - shift] if i >= shift else c
                       for i, c in enumerate(a[:-1])])
        a, b = b, a
    return len(a) - 1


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


polys = st.lists(fractions, max_size=9)


@st.composite
def gcd_cases(draw):
    """(a, b): rational polynomials, often sharing a factor; or f and f'
    for f with a planted squared factor."""
    kind = draw(st.sampled_from(("random", "common", "squared")))
    if kind == "random":
        return draw(polys), draw(polys)
    h = draw(st.lists(fractions, min_size=2, max_size=4).filter(lambda c: c[-1]))
    if kind == "common":
        return _poly_mul(draw(polys.filter(any)), h), _poly_mul(draw(polys.filter(any)), h)
    f = _poly_mul(_poly_mul(h, h), draw(polys.filter(any)))
    return f, poly_derivative(f)


@given(gcd_cases(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_poly_gcd_degree_matches_fraction_euclid(case, negate):
    a, b = case
    if negate:  # a negative leading coefficient
        a = [-c for c in a]
    expected = _fraction_gcd_degree(a, b)
    assert poly_gcd_degree(a, b) == expected
    assert poly_gcd_degree(b, a) == expected
    # ints, where the coefficients are integers, give the same degree
    assert poly_gcd_degree(clear_denominators(a), b) == expected


@pytest.mark.parametrize("a, b, degree", [
    ([], [], -1),
    ([0, 0], [0], -1),
    ([], [Fraction(-3, 2), 0, 1], 2),
    ([5], [], 0),
    ([5], [0, 0, 7], 0),
    ([-2], [3], 0),
    ([Fraction(1, 2), 1], [-1, -2], 1),  # proportional
    ([-1, 0, -1], [0, -2], 0),           # -(x^2 + 1) and its derivative
])
def test_poly_gcd_degree_zero_and_constant_inputs(a, b, degree):
    assert poly_gcd_degree(a, b) == degree == _fraction_gcd_degree(a, b)


def test_poly_derivative():
    assert poly_derivative([5, 3, 0, 2]) == [3, 0, 6]
    assert poly_derivative([7]) == []


@given(st.lists(fractions, min_size=4, max_size=8), fractions)
@settings(max_examples=100, deadline=None)
def test_poly_eval_matches_curve_evaluate(coeffs, x):
    try:
        curve = HyperellipticCurve(coeffs, 5)
    except ValueError:
        return  # degree below 3 or not squarefree
    assert poly_eval(curve.f, x) == sum(c * x**i for i, c in enumerate(coeffs))


def test_squarefree_coefficients_parses_and_strips():
    assert squarefree_coefficients(["1/2", 0, "3", 1, 0, 0], 3) == [
        Fraction(1, 2), 0, 3, 1,
    ]
    with pytest.raises(ValueError):
        squarefree_coefficients([2, -3, 0, 1], 3)  # (x - 1)^2 (x + 2)
    with pytest.raises(ValueError):
        squarefree_coefficients([1, 1, 0], 3)


@pytest.mark.parametrize("v, expected", [
    (3, Fraction(3)), ("-3", Fraction(-3)), ("7/2", Fraction(7, 2)),
    (0.25, Fraction(1, 4)), ("0.25", Fraction(1, 4)),
])
def test_as_rational_reads_ints_fractions_and_decimals(v, expected):
    assert as_rational(v, "c") == expected


# a float reads through its shortest decimal form, even where that form has
# an exponent: JSON's 0.00001 is the float that prints as 1e-05
@pytest.mark.parametrize("v, expected", [
    (0.00001, Fraction(1, 100000)), (10000000000000000.0, Fraction(10**16)),
    (1e20, Fraction(10**20)), (-2.5e-07, Fraction(-1, 4000000)),
])
def test_as_rational_reads_floats_that_print_with_an_exponent(v, expected):
    assert as_rational(v, "c") == expected


# exponent notation is refused in strings only, and nan, the infinities and
# strings that are no fraction get the same message as any other value that
# is not a rational
@pytest.mark.parametrize("v", [True, False, "1e10000000", "2E3", float("nan"), None,
                               [1], float("inf"), float("-inf"),
                               "abc", "1/0", "", "2**3"])
def test_as_rational_refuses_booleans_and_exponents(v):
    with pytest.raises(ValueError, match="c must be a rational"):
        as_rational(v, "c")
