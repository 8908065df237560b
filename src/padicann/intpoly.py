"""Integer and rational polynomials (ascending coefficient lists).

The one place that parses curve coefficients, clears denominators and
computes p-adic valuations, for the curves, the oracles and ``padic``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import List, Sequence

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


@functools.cache
def is_prime(n: int) -> bool:
    """Trial division, cached: ``PAdic`` checks its p on every result."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def poly_eval(coeffs: Sequence, x):
    """f(x) by Horner's rule; exact for int and Fraction inputs."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs: Sequence) -> list:
    return [i * c for i, c in enumerate(coeffs)][1:]


def clear_denominators(coeffs: Sequence[Fraction]) -> List[int]:
    """Integer coefficients of content 1, a positive multiple of ``coeffs``."""
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in fracs))
    ints = [c.numerator * (den // c.denominator) for c in fracs]
    content = math.gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


def _strip(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_gcd_degree(a: Sequence[Fraction], b: Sequence[Fraction]) -> int:
    """Degree of gcd(a, b) over Q (Euclid on Fraction coefficients)."""
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        lead = a[-1] / b[-1]
        shift = len(a) - len(b)
        a = _strip([c - lead * b[i - shift] if i >= shift else c
                    for i, c in enumerate(a[:-1])])
        a, b = b, a
    return len(a) - 1


def squarefree_coefficients(f, min_degree: int) -> List[Fraction]:
    """``f`` parsed to Fractions, trailing zeros stripped.

    Raises ValueError when the degree is below ``min_degree`` or f has a
    repeated factor.
    """
    coeffs = _strip([Fraction(c) for c in f])
    if len(coeffs) - 1 < min_degree:
        raise ValueError(f"f must have degree >= {min_degree}")
    if poly_gcd_degree(coeffs, poly_derivative(coeffs)) > 0:
        raise ValueError("f must be squarefree")
    return coeffs
