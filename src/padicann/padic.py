"""Exact arithmetic in Q_p with explicit absolute precision.

An element is stored as ``p^val * unit + O(p^prec)`` where ``unit`` is an
integer unit residue modulo ``p^(prec - val)``.  ``prec`` is the *absolute*
precision exponent: the element is known modulo ``p^prec``.  Precision only
ever shrinks under arithmetic (pessimistic propagation); in particular a
division by ``p^k`` lowers absolute precision by ``k``.  A result's precision
comes from its operands; ``DEFAULT_PRECISION`` serves only where none has
one: as an input default, and for a constant met by the exact zero.

Two flavours of zero exist:

* the exact zero (``val`` is infinite, infinite precision), produced by
  constructors and by exact cancellation bookkeeping such as ``x + (-x)``
  on identical representations;
* an inexact zero ``O(p^N)``: all known digits cancelled, so the element is
  indistinguishable from zero modulo ``p^N``.  It is stored like any other
  element, as ``p^N * 0 + O(p^N)``: valuation N, unit 0, relative precision
  0, so the general rules for sums, products, quotients and powers apply to
  it unchanged.  A sum known modulo ``p^n`` drops a term whose valuation is
  at or past n without forming its power of p, so such a zero costs nothing
  there.

Example::

    >>> half = PAdic.from_rational(Fraction(1, 2), 3, 5)
    >>> half.unit_residue()
    122
    >>> (half + half).unit_residue()
    1
    >>> (half + half).agrees(1), half + half == 1
    (True, False)
    >>> x = PAdic.from_int(3, 3, 40)
    >>> (x ** -1).prec == (1 / x).prec == 38
    True
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import (
    DivisionByIndistinguishableZero,
    NotASquare,
    OddPrimeRequired,
    PrecisionInsufficient,
    UnsupportedRegime,
    ZeroArgument,
)
from .intpoly import INF, as_int, as_rational, is_prime, vp  # INF, vp: re-exported

DEFAULT_PRECISION = 20

# a unit is a residue mod p^(prec - val); inputs that would make one larger
# than this many bits are refused, so no reduction runs for minutes
MAX_RESIDUE_BITS = 1 << 21


class PAdic:
    """An element of Q_p known to finite absolute precision."""

    __slots__ = ("p", "_val", "_unit", "_prec")

    def __init__(self, p: int, val, unit: int, prec):
        """Build ``p^val * unit + O(p^prec)``; prefer the classmethods.

        ``prec=None`` builds the exact zero, stored with ``val = prec = None``.
        A unit that vanishes mod ``p^(prec - val)`` gives the inexact zero
        ``O(p^prec)``, stored as valuation ``prec`` and unit 0; a ``val`` at
        or past ``prec`` leaves no digit, so it gives that zero too.
        """
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        if prec is None:
            if val is not None and unit != 0:
                raise ValueError("a nonzero PAdic needs its absolute precision")
            self._val = self._prec = None
            self._unit = 0
            return
        prec = int(prec)
        val = int(val)
        unit = unit % p ** (prec - val) if val < prec else 0
        if unit == 0:
            val = prec
        # move the factors of p into val: the quotient is below
        # p^(prec - val) already, so it needs no second reduction
        while unit and unit % p == 0:
            unit //= p
            val += 1
        self._val = val
        self._unit = unit
        self._prec = prec

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PAdic":
        """The exact zero of Q_p."""
        return cls(p, None, 0, None)

    @classmethod
    def inexact_zero(cls, p: int, prec: int) -> "PAdic":
        """O(p^prec): indistinguishable from zero modulo p^prec."""
        return cls(p, prec, 0, prec)

    @classmethod
    def from_int(cls, n: int, p: int, prec: int = DEFAULT_PRECISION) -> "PAdic":
        return cls.from_rational(n, p, prec)

    @classmethod
    def from_rational(cls, q, p: int, prec: int = DEFAULT_PRECISION,
                      val=None) -> "PAdic":
        """Embed a rational exactly, truncated at absolute precision ``prec``.

        A q of another type than int or Fraction (a bool too) is read by
        ``as_rational``; ``val`` is v_p(q) when the caller has it already.
        """
        if type(q) is not int and type(q) is not Fraction:
            q = as_rational(q, "q")
        if q == 0:
            return cls.zero(p)
        if val is None:
            val = vp(q, p)
        rel = prec - val
        if rel < 1:
            return cls.inexact_zero(p, prec)
        mod = p ** rel
        num = q.numerator // p ** max(0, val)
        den = q.denominator // p ** max(0, -val)
        unit = num * pow(den, -1, mod) % mod
        return cls(p, val, unit, prec)

    # --- predicates and accessors ----------------------------------------

    def is_zero(self) -> bool:
        """True for the exact zero and for inexact zeros O(p^N)."""
        return self._unit == 0

    def is_exact_zero(self) -> bool:
        return self._prec is None

    @property
    def valuation(self):
        """v_p of the element.

        Infinite for the exact zero.  For an inexact zero O(p^N) the true
        valuation is only known to be >= N; the lower bound N is returned.
        """
        return INF if self._val is None else self._val

    @property
    def prec(self):
        """Absolute precision exponent (infinite for the exact zero)."""
        return INF if self._prec is None else self._prec

    @property
    def rel_prec(self):
        """Known digits past the valuation: 0 for O(p^N), infinite for 0."""
        return INF if self._prec is None else self._prec - self._val

    def unit_residue(self) -> int:
        """The stored unit, an integer in [1, p^(prec-val)) coprime to p."""
        if self._unit == 0:
            raise ZeroArgument("a zero has no unit part")
        return self._unit

    def lift(self) -> Fraction:
        """The canonical rational representative p^val * unit."""
        if self._unit == 0:
            return Fraction(0)
        return Fraction(self.p) ** self._val * self._unit

    # --- arithmetic -------------------------------------------------------

    def _check_same_p(self, other: "PAdic"):
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def _coerce(self, other):
        """Embed an int/Fraction operand c, the one place that chooses the
        precision of a constant: to max(prec, v(c) + max(1, prec - val)), so
        O(p^N) * c is O(p^(N + v(c))), or to ``DEFAULT_PRECISION`` against
        the exact zero, which has no precision."""
        if isinstance(other, PAdic):
            return other
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if self._prec is None:
            return PAdic.from_rational(other, self.p)
        v = vp(other, self.p)
        target = max(self._prec, v + max(1, self._prec - self._val))
        return PAdic.from_rational(other, self.p, target, v)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._add(self, -1)

    def _add(self, other, sign: int):
        """``self + sign * other`` for sign = +-1: a difference is formed in
        the integer sum, without building ``-other``."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_same_p(other)
        a, b = self, other
        if a.is_exact_zero():
            return b if sign > 0 else -b
        if b.is_exact_zero():
            return a
        p = self.p
        n = min(a._prec, b._prec)
        base = min(a._val, b._val)
        # a term at or past p^n is 0 mod p^n, so its power of p is never
        # formed; __init__ reduces the sum mod p^(n - base) and strips p
        s = a._unit * p ** (a._val - base) if a._val < n else 0
        if b._val < n:
            s += sign * b._unit * p ** (b._val - base)
        return PAdic(p, base, s, n)

    def __neg__(self):
        if self._prec is None:
            return self
        return PAdic(self.p, self._val, -self._unit, self._prec)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_same_p(other)
        a, b = self, other
        if a.is_exact_zero() or b.is_exact_zero():
            return PAdic.zero(self.p)
        rel = min(a._prec - a._val, b._prec - b._val)
        val = a._val + b._val
        unit = a._unit * b._unit % (self.p ** rel)
        return PAdic(self.p, val, unit, val + rel)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_same_p(other)
        if other.is_zero():
            raise DivisionByIndistinguishableZero(
                f"divisor is zero to precision O({self.p}^{other.prec})"
            )
        if self.is_exact_zero():
            return self
        rel = min(self._prec - self._val, other._prec - other._val)
        val = self._val - other._val
        mod = self.p ** rel
        unit = self._unit * pow(other._unit, -1, mod) % mod
        return PAdic(self.p, val, unit, val + rel)

    def __rtruediv__(self, other):
        num = self._coerce(other)
        if num is NotImplemented:
            return NotImplemented
        return num / self

    def __pow__(self, k: int):
        """``x ** k``, with ``x ** -k == 1 / x ** k``.

        A product keeps the least relative precision of its factors, so the
        power of ``p^v u + O(p^(v + r))`` is ``p^(kv) u^k + O(p^(kv + r))``;
        ``x ** 0`` is 1 at the relative precision of x, like ``x * x ** -1``.
        A zero has no relative precision, so ``0 ** 0`` is 1 at the
        precision of a constant met by the exact zero; for k >= 1 the rule
        above makes ``O(p^N) ** k`` into ``O(p^(kN))``.

            >>> x = PAdic(3, -25, 2, -5)        # 2 * 3^-25 + O(3^-5)
            >>> x ** 0 == x * x ** -1 == PAdic(3, 0, 1, 20)
            True
        """
        if not isinstance(k, int):
            return NotImplemented
        if self._unit == 0 and k < 1:
            if k < 0:
                raise DivisionByIndistinguishableZero(
                    f"divisor is zero to precision O({self.p}^{self.prec})")
            return PAdic(self.p, 0, 1, DEFAULT_PRECISION)
        if self._prec is None:
            return self
        rel = self._prec - self._val
        return PAdic(self.p, k * self._val, pow(self._unit, k, self.p ** rel),
                     k * self._val + rel)

    # --- comparison helpers ----------------------------------------------

    def agrees(self, other) -> bool:
        """True when self - other is zero at the propagated precision."""
        other = self._coerce(other)
        return (self - other).is_zero()

    def __eq__(self, other):
        """Structural: same digits and precision.  ``agrees`` compares values."""
        if not isinstance(other, PAdic):
            return NotImplemented
        return (
            self.p == other.p
            and self._val == other._val
            and self._unit == other._unit
            and self._prec == other._prec
        )

    def __hash__(self):
        return hash((self.p, self._val, self._unit, self._prec))

    def __repr__(self):
        if self.is_exact_zero():
            return f"PAdic(0; p={self.p})"
        if self._unit == 0:
            return f"PAdic(O({self.p}^{self._prec}))"
        return f"PAdic({self._unit}*{self.p}^{self._val} + O({self.p}^{self._prec}))"

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """Interchange form with decimal-string fields."""
        if self.is_exact_zero():
            return {"val": "inf", "unit": "0", "prec": "inf"}
        if self._unit == 0:
            return {"val": None, "unit": "0", "prec": str(self._prec)}
        return {
            "val": str(self._val),
            "unit": str(self._unit),
            "prec": str(self._prec),
        }

    @classmethod
    def from_json(cls, obj: dict, p: int) -> "PAdic":
        if obj.get("val") == "inf":
            return cls.zero(p)
        prec = as_int(obj["prec"], "prec")
        unit = as_int(obj.get("unit", "0"), "unit")
        if obj.get("val") is None or unit == 0:
            return cls.inexact_zero(p, prec)
        val = as_int(obj["val"], "val")
        if (prec - val) * p.bit_length() > MAX_RESIDUE_BITS:
            raise UnsupportedRegime(
                f"prec - val = {prec - val} is too large at p = {p}: residues "
                f"mod p^(prec - val) must fit in {MAX_RESIDUE_BITS} bits")
        return cls(p, val, unit, prec)


# ---------------------------------------------------------------------------
# unit-level routines
# ---------------------------------------------------------------------------


def _sqrt_mod_p(a: int, p: int) -> int:
    """Tonelli-Shanks; assumes a is a nonzero quadratic residue mod p."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def is_square(x: PAdic) -> bool:
    """Whether x is a square in Q_p (precision-aware; p=2 uses the mod-8 test)."""
    if x.is_zero():
        raise ZeroArgument("squareness of a (possibly inexact) zero is undecidable")
    if x.valuation % 2 != 0:
        return False
    u = x.unit_residue()
    if x.p == 2:
        if x.rel_prec < 3:
            raise PrecisionInsufficient("need the unit mod 8 to decide squareness")
        return u % 8 == 1
    return pow(u, (x.p - 1) // 2, x.p) == 1


def sqrt(x: PAdic) -> PAdic:
    """Hensel square root in Q_p, p odd.

    Of the two roots, returns the one whose unit residue modulo p lies in
    {1, ..., (p-1)/2}.  Raises NotASquare on odd valuation or a unit that is
    not a quadratic residue.
    """
    if x.p == 2:
        raise OddPrimeRequired("square roots are implemented for odd p only")
    if x.is_zero():
        if x.is_exact_zero():
            return x
        raise ZeroArgument("cannot take sqrt of an inexact zero")
    if x.valuation % 2 != 0:
        raise NotASquare(f"valuation {x.valuation} is odd")
    p = x.p
    u = x.unit_residue()
    if pow(u, (p - 1) // 2, p) != 1:
        raise NotASquare(f"unit residue {u % p} is not a square mod {p}")
    rel = int(x.rel_prec)
    r = _sqrt_mod_p(u, p)
    known = 1
    while known < rel:
        known = min(2 * known, rel)
        mod = p ** known
        r = (r + u * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    if r % p > (p - 1) // 2:
        r = p ** rel - r
    val = x.valuation // 2
    return PAdic(p, val, r, val + rel)


@functools.lru_cache(maxsize=256)
def _log_coefficients(p: int, rel: int, c: int):
    """``(K, b)`` with b[n - 1] = (-1)^(n+1) p^K / (n e) mod p^(rel + K), the
    terms of log(1 + z) / e for v(z) = c that survive mod p^rel, where e
    is p - 1 for odd p and 1 for p = 2 (see ``log0``).

    Term n has valuation n c - v_p(n) >= n c - floor(log_p n); once that
    bound, also for every later n, exceeds rel, the sum is complete.
    K = floor(log_p M) for the last term M is the largest v_p(n), so every
    coefficient is an integer.
    """
    def floor_log(n):
        k, q = 0, p
        while q <= n:
            k, q = k + 1, q * p
        return k

    n = 2
    while n * c - floor_log(n) - 1 <= rel:
        n += 1
    last = n - 1
    K = floor_log(last)
    mod = p ** (rel + K)
    scale = p ** K * pow(1 if p == 2 else p - 1, -1, mod)
    b = []
    for n in range(1, last + 1):
        k = vp(n, p)
        term = scale // p ** k * pow(n // p ** k, -1, mod) % mod
        b.append(term if n % 2 else -term % mod)
    return K, tuple(b)


def log0(x: PAdic) -> PAdic:
    """The logarithm branch with Log(p) = 0.

    Strips p-powers (killed by this branch) and, for odd p, raises the
    unit u to the power p - 1, which kills its Teichmueller part:
    log0(x) = log(u^(p-1)) / (p - 1), with u^(p-1) a 1-unit.  For p = 2
    the unit is u or -u, whichever is 1 mod 4.  log(1 + z) = sum
    (-1)^(n+1) z^n / n is then one Horner pass in z on integers mod
    p^(rel + K), with the coefficients from ``_log_coefficients``.  Every
    root of unity, and every power of p, maps to zero.

        >>> log0(PAdic.from_int(4, 3, 5))      # log(1 + 3) = 3 - 9/2 + 9 - ...
        PAdic(16*3^1 + O(3^5))
        >>> log0(PAdic.from_int(-9, 3, 5)).is_zero()
        True
    """
    if x.is_zero():
        raise ZeroArgument("Log0 is undefined at zero")
    p = x.p
    rel = x.rel_prec
    mod = p**rel
    u = x.unit_residue()
    if p == 2:
        z = (u if u % 4 == 1 else -u) - 1
    else:
        z = pow(u, p - 1, mod) - 1
    z %= mod
    if z == 0:
        # u is a root of unity to working precision; its log is zero there
        return PAdic.inexact_zero(p, rel)
    K, b = _log_coefficients(p, rel, vp(z, p))
    big = mod * p**K
    acc = 0
    for coeff in reversed(b):
        acc = (acc + coeff) * z % big
    return PAdic(p, 0, acc // p**K, rel)
