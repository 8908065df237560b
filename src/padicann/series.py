"""Laurent polynomials over Q_p, Newton-polygon zero counts, antiderivatives.

The zero-counting convention is the one for annuli: a lower-hull segment of
slope -s and horizontal length L certifies exactly L zeros of valuation s in
the algebraic closure (counted with multiplicity), and the total number of
zeros with nonzero finite valuation equals the width of the exponent support.

A coefficient known only to be O(p^N) is the point (n, N) with its true
height unknown at or above N.  If adding such points changes the hull built
from the definite coefficients, they could move it, so the polygon is flagged
provisional and zero counts refuse to commit.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AllCoefficientsIndistinguishableFromZero,
    OutsideDomain,
    ProvisionalPolygon,
    UnsupportedRegime,
)
from .intpoly import as_int, as_rational
from .padic import DEFAULT_PRECISION, MAX_RESIDUE_BITS, PAdic


class LaurentPoly:
    """A finite Laurent polynomial sum a_n z^n with PAdic coefficients."""

    def __init__(self, p, terms, prec=DEFAULT_PRECISION):
        """``terms`` maps exponents, read by ``as_int``, to PAdic coefficients
        or rationals, read by ``as_rational`` and embedded at absolute
        precision ``prec``; PAdic terms keep their own.  Exact zeros are
        dropped; inexact zeros are kept as precision bounds.
        """
        if prec * p.bit_length() > MAX_RESIDUE_BITS:
            raise UnsupportedRegime(
                f"prec {prec} is too large at p = {p}: residues mod p^prec "
                f"must fit in {MAX_RESIDUE_BITS} bits")
        self.p = p
        coeffs = {}
        for n, c in terms.items():
            n = as_int(n, "exponent")
            if not isinstance(c, PAdic):
                c = PAdic.from_rational(as_rational(c, f"term {n}"), p, prec)
            elif c.p != p:
                raise ValueError("coefficient prime mismatch")
            if c.is_exact_zero():
                continue
            coeffs[n] = c
        self.terms = dict(sorted(coeffs.items()))

    # -- classmethods ------------------------------------------------------

    @classmethod
    def from_coeff_list(cls, p, coeffs, prec=DEFAULT_PRECISION):
        """Polynomial with ascending coefficients."""
        return cls(p, dict(enumerate(coeffs)), prec)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        """True when every coefficient is zero at its precision."""
        return not self.definite_terms()

    def definite_terms(self):
        return {n: c for n, c in self.terms.items() if not c.is_zero()}

    def support(self):
        d = self.definite_terms()
        if not d:
            return None
        return min(d), max(d)

    def coeff(self, n: int) -> PAdic:
        return self.terms.get(n, PAdic.zero(self.p))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for n in set(self.terms) | set(other.terms):
            out[n] = self.coeff(n) + other.coeff(n)
        return LaurentPoly(self.p, out)

    def __neg__(self):
        return LaurentPoly(self.p, {n: -c for n, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PAdic):
            return LaurentPoly(self.p, {n: c * other for n, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for n1, c1 in self.terms.items():
            for n2, c2 in other.terms.items():
                n = n1 + n2
                prod = c1 * c2
                out[n] = out[n] + prod if n in out else prod
        return LaurentPoly(self.p, out)

    def derivative(self):
        return LaurentPoly(self.p, {n - 1: c * n for n, c in self.terms.items() if n != 0})

    def evaluate(self, x: PAdic) -> PAdic:
        """The sum of c_n x^n; needs x nonzero if negative exponents occur."""
        total = PAdic.zero(self.p)
        for n, c in self.terms.items():
            total = total + c * x**n
        return total

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = [f"({c!r})*z^{n}" for n, c in self.terms.items()]
        return "LaurentPoly(" + " + ".join(bits) + ")"

    def to_json(self):
        return {
            "p": self.p,
            "terms": {str(n): c.to_json() for n, c in self.terms.items()},
        }

    @classmethod
    def from_json(cls, obj):
        p = as_int(obj["p"], "p")
        prec = as_int(obj.get("prec", DEFAULT_PRECISION), "prec")
        terms = {n: PAdic.from_json(c, p) if isinstance(c, dict) else c
                 for n, c in obj["terms"].items()}
        return cls(p, terms, prec)


class LaurentData:
    """A function u * h on an annulus, where h is a 1-unit series without zeros.

    Only the Laurent-polynomial part ``u`` is stored; the unit factor h
    contributes no zeros on the domain, so all zero counting happens on u.
    ``domain`` is the open valuation interval (lo, hi) of the annulus.
    """

    def __init__(self, u: LaurentPoly, domain):
        lo, hi = (as_rational(v, "domain") for v in domain)
        if not lo < hi:
            raise OutsideDomain(f"empty annulus domain ({lo}, {hi})")
        self.u = u
        self.domain = (lo, hi)

    @property
    def p(self):
        return self.u.p

    def __repr__(self):
        return f"LaurentData({self.u!r}, domain={self.domain})"


class NewtonPolygon:
    """Lower convex hull of (exponent, coefficient valuation) points."""

    def __init__(self, vertices, provisional):
        self.vertices = vertices          # [(n, v)] int points, increasing slopes
        self.provisional = provisional

    def slopes(self):
        """[(slope, horizontal_length)] per hull segment, slopes increasing."""
        out = []
        for (n1, v1), (n2, v2) in zip(self.vertices, self.vertices[1:]):
            out.append((Fraction(v2 - v1, n2 - n1), n2 - n1))
        return out

    def __repr__(self):
        flag = ", provisional" if self.provisional else ""
        return f"NewtonPolygon({self.vertices}{flag})"


def _lower_hull(points):
    pts = sorted(points)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only right turns (strictly convex from below)
            if (x2 - x1) * (pt[1] - y1) <= (pt[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(f: LaurentPoly) -> NewtonPolygon:
    """Lower hull of the (n, v(a_n)) cloud, with O(p^N) coefficients flagged.

    The points are ints, so the hull is built on integer cross-products.
    ``_lower_hull`` keeps only strictly convex vertices and no O(p^N) term
    shares an exponent with a definite one, so the hull of every term at its
    ``valuation`` equals the definite hull exactly when each O(p^N) point
    lies inside its x-range and on or above it, the one case where no true
    height at or above N can move the hull.
    """
    definite = f.definite_terms()
    if not definite:
        raise AllCoefficientsIndistinguishableFromZero(
            "no coefficient is nonzero at its precision"
        )
    hull = _lower_hull([(n, c.valuation) for n, c in definite.items()])
    provisional = len(definite) < len(f.terms) and hull != _lower_hull(
        [(n, c.valuation) for n, c in f.terms.items()])
    return NewtonPolygon(hull, provisional)


def count_zeros_valuation_range(
    f, lo, hi, include_lo: bool = False, include_hi: bool = False
) -> int:
    """Number of zeros (in the algebraic closure) with valuation in the range.

    ``f`` may be a LaurentPoly or a LaurentData; for the latter the range is
    intersected with the annulus domain and the unit factor is ignored.
    """
    lo, hi = as_rational(lo, "window"), as_rational(hi, "window")
    if isinstance(f, LaurentData):
        dlo, dhi = f.domain
        if lo < dlo:
            lo, include_lo = dlo, False
        if hi > dhi:
            hi, include_hi = dhi, False
        f = f.u
    poly = newton_polygon(f)
    if poly.provisional:
        raise ProvisionalPolygon(
            "a coefficient known only to O(p^N) could change the zero count"
        )
    total = 0
    for slope, length in poly.slopes():
        s = -slope
        if (lo < s < hi) or (include_lo and s == lo) or (include_hi and s == hi):
            total += length
    return total


# ---------------------------------------------------------------------------
# formal antiderivatives
# ---------------------------------------------------------------------------


def formal_integrate(f: LaurentPoly):
    """Split f dz = d(ell) + c dz/z; returns (ell, c).

    ell takes a_n z^(n+1) / (n+1) for n != -1 with zero constant term, and c
    is the z^(-1) coefficient.  Dividing by n+1 costs v_p(n+1) digits of
    absolute precision, which the coefficient arithmetic tracks.
    """
    c = f.coeff(-1)
    terms = {}
    for n, a in f.terms.items():
        if n == -1:
            continue
        terms[n + 1] = a / (n + 1)
    return LaurentPoly(f.p, terms), c
