"""Integer and rational polynomials (ascending coefficient lists).

The one place that parses curve coefficients and integer and rational
inputs, clears denominators and computes p-adic valuations and the square
class of an integer, for the curves, the oracles and ``padic``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

INF = math.inf


def vp(x, p: int, cap=INF):
    """p-adic valuation of an int or Fraction, truncated at ``cap``.

    ``vp(0, p)`` is ``cap``, so infinity by default.  At most one of a
    Fraction's numerator and denominator is divisible by p.  Raises
    ValueError for p < 2, where no valuation exists.
    """
    if p < 2:
        raise ValueError(f"p = {p} must be at least 2")
    if not isinstance(x, int):
        den = x.denominator
        if den % p == 0:
            return -vp(den, p)
        x = x.numerator
    if x == 0:
        return cap
    v = 0
    while x % p == 0 and v < cap:
        x //= p
        v += 1
    return v


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, 2015); the bases up to 37 are not, since
# 318665857834031151167461 is a strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


@functools.cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, cached: ``PAdic`` checks its p on every result.

    Raises ValueError for n at or above ``_MR_EXACT_BELOW``, where the fixed
    bases no longer prove primality.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"n = {n} is too large for the primality test")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def as_int(v, name: str) -> int:
    """``v`` read as an integer: an int or an integer string.

    Raises ValueError for anything else, so a JSON 3.7, "3.7" or true is
    refused instead of being truncated or read as 1.
    """
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        try:
            return int(v)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {v!r}")


def as_rational(v, name: str) -> Fraction:
    """``v`` read as a rational: an int or Fraction, or a string or float
    such as "-3", "7/2" or 0.25.

    A float is read through its shortest decimal form, so 0.01 is 1/100
    and 0.00001 (which prints as 1e-05) is 1/100000.  Raises ValueError for
    true/false, nan and the infinities, exponent notation in a string,
    where the ten characters "1e10000000" would build a ten-million-digit
    integer, and a string that is no fraction, such as "abc" or "1/0".
    """
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return v if type(v) is Fraction else Fraction(v)
    if isinstance(v, float) and math.isfinite(v) \
            or isinstance(v, str) and "e" not in v.lower():
        try:
            return Fraction(str(v))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{name} must be a rational such as -3, 7/2 or 0.25, got {v!r}")


def poly_eval(coeffs: Sequence, x):
    """f(x) by Horner's rule; exact for int and Fraction inputs."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs: Sequence) -> list:
    return [i * c for i, c in enumerate(coeffs)][1:]


# The lcm and gcd below are folded one coefficient at a time.  Unpacking
# a generator into ``math.lcm(*...)`` leaves its argument tuples on
# CPython 3.11's tuple free lists, which only a full garbage collection
# empties: over twenty rounds of the point search's 200-curve family
# they added 1.5 MB to the peak RSS.


def common_denominator(coeffs: Sequence[Fraction]) -> int:
    """The least common denominator of int or Fraction coefficients."""
    den = 1
    for c in coeffs:
        den = math.lcm(den, c.denominator)
    return den


def square_scaled(coeffs: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """``(den, den^2 f)`` for the common denominator den of f's coefficients.

    The scaled coefficients are integers, and y^2 = f(x) and (den y)^2 =
    (den^2 f)(x) have the same points.  Content is *not* divided out: that
    would change the square class.
    """
    den = common_denominator(coeffs)
    return den, [c.numerator * (den // c.denominator) * den for c in coeffs]


def is_qp_square(n: int, p: int) -> bool:
    """Whether a nonzero integer is a square in Q_p, p odd: its valuation is
    even and its unit part a square mod p (Euler's criterion)."""
    if n == 0:
        raise ValueError("zero has no square class")
    v = vp(n, p)
    return v % 2 == 0 and pow(n // p**v % p, (p - 1) // 2, p) == 1


def clear_denominators(coeffs: Sequence[Fraction]) -> List[int]:
    """Integer coefficients of content 1, a positive multiple of ``coeffs``.

    The coefficients are ints or Fractions.
    """
    den = common_denominator(coeffs)
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _primitive(ints: List[int]) -> List[int]:
    """``ints`` divided by their content, the gcd of the coefficients."""
    content = 0
    for c in ints:
        content = math.gcd(content, c)
        if content == 1:
            return ints
    return [c // content for c in ints] if content > 1 else ints


def _strip(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _pseudo_remainder(a: List[int], b: List[int]) -> List[int]:
    """A nonzero integer multiple of (a mod b), trailing zeros stripped.

    Each step cancels the leading term of a with a shifted multiple of b,
    after scaling a by lc(b) / gcd(lc(a), lc(b)), so a stays integral;
    the remainder over Q is fixed only up to such a factor, which is all
    a gcd degree needs.
    """
    lb = b[-1]
    a = list(a)
    while len(a) >= len(b):
        la = a.pop()
        g = math.gcd(la, lb)
        sa, sb = lb // g, la // g
        shift = len(a) - len(b) + 1
        a = [c * sa for c in a[:shift]] + [
            c * sa - sb * d for c, d in zip(a[shift:], b)]
        _strip(a)
    return a


def poly_gcd_degree(a: Sequence[Fraction], b: Sequence[Fraction]) -> int:
    """Degree of gcd(a, b) over Q for int or Fraction coefficients, -1 when
    both are zero.

    A primitive pseudo-remainder sequence (von zur Gathen and Gerhard,
    *Modern Computer Algebra*, ch. 6): denominators are cleared once, and
    each remainder is divided by its content, so the arithmetic stays on
    integers of bounded size.
    """
    a, b = _strip(clear_denominators(a)), _strip(clear_denominators(b))
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return len(a) - 1


def squarefree_coefficients(f, min_degree: int) -> List[Fraction]:
    """``f`` read to Fractions by ``as_rational``, trailing zeros stripped.

    Raises ValueError when the degree is below ``min_degree`` or f has a
    repeated factor.
    """
    coeffs = _strip([as_rational(c, "f") for c in f])
    if len(coeffs) - 1 < min_degree:
        raise ValueError(f"f must have degree >= {min_degree}")
    ints = clear_denominators(coeffs)
    if poly_gcd_degree(ints, poly_derivative(ints)) > 0:
        raise ValueError("f must be squarefree")
    return coeffs
