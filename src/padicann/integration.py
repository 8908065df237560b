"""Integrals of differentials on p-adic disks and annuli.

On an annulus the pulled-back differential splits as d(ell) + c dz/z, so the
integral between two points is the difference of ell + c*Log0, where Log0 is
the branch of the logarithm with Log0(p) = 0.  Abelian integrals on the curve
differ from this by a constant a times the valuation jump; a depends linearly
on the differential and is supplied by the caller, not computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .bounds import B_A
from .errors import (
    BoundViolated,
    MissingAbelianConstant,
    OutsideDomain,
    WindowViolation,
)
from .intpoly import as_rational
from .padic import PAdic, log0
from .series import LaurentData, LaurentPoly, count_zeros_valuation_range, formal_integrate


@dataclass(frozen=True)
class AnnulusIntegrand:
    ell: LaurentPoly
    c: PAdic
    a: Optional[PAdic] = None
    domain: Tuple[Fraction, Fraction] = (Fraction(0), Fraction(1))

    def __post_init__(self):
        lo, hi = self.domain
        object.__setattr__(self, "domain", (as_rational(lo, "domain"),
                                            as_rational(hi, "domain")))

    @property
    def p(self):
        return self.ell.p


def _require_inside(x: PAdic, lo, hi, what="point"):
    v = x.valuation
    if not (lo < v < hi):
        raise OutsideDomain(f"{what} has valuation {v}, outside ({lo}, {hi})")


def integrate_disk(ell: LaurentPoly, xi0: PAdic, xi1: PAdic) -> PAdic:
    """ell(xi1) - ell(xi0) for a power-series antiderivative on the open unit disk."""
    if ell.terms and min(ell.terms) < 0:
        raise ValueError("disk antiderivative must have nonnegative exponents")
    for xi in (xi0, xi1):
        if not xi.valuation > 0:
            raise OutsideDomain(f"point has valuation {xi.valuation}, need > 0")
    return ell.evaluate(xi1) - ell.evaluate(xi0)


def integrate_annulus(I: AnnulusIntegrand, xi0: PAdic, xi1: PAdic) -> PAdic:
    lo, hi = I.domain
    _require_inside(xi0, lo, hi)
    _require_inside(xi1, lo, hi)
    total = I.ell.evaluate(xi1) - I.ell.evaluate(xi0)
    if not I.c.is_exact_zero():
        total = total + I.c * (log0(xi1) - log0(xi0))
    return total


def abelian_integral_annulus(I: AnnulusIntegrand, xi0: PAdic, xi1: PAdic) -> PAdic:
    if I.a is None:
        raise MissingAbelianConstant(
            "abelian integral needs the constant a; none was supplied"
        )
    plain = integrate_annulus(I, xi0, xi1)
    jump = xi1.valuation - xi0.valuation
    return plain + I.a * int(jump)


def lambda_zero_count_annulus(V, p: int, e: int, r: int):
    """Zero bound and best actual zero count for antiderivatives over V.

    Each element of V is a LaurentData u (residue-free: no z^-1 term) whose
    exponent window must satisfy n1 < -1 < n2 with n2 - n1 <= 2r.  The
    antiderivative lambda of the best (fewest zeros) eligible element is
    counted on its annulus via the Newton polygon.  Returns (B_A, count).
    """
    if r <= 0:
        raise WindowViolation("window precondition n1 < -1 < n2 is empty for r <= 0")
    bound = B_A(p, e, r)
    best = None
    for data in V:
        sup = data.u.support()
        if sup is None:
            continue
        n1, n2 = sup
        if not (n1 < -1 < n2 and n2 - n1 <= 2 * r):
            continue
        ell, c = formal_integrate(data.u)
        if not c.is_zero():
            continue
        count = count_zeros_valuation_range(
            LaurentData(ell, data.domain), data.domain[0], data.domain[1]
        )
        if best is None or count < best:
            best = count
    if best is None:
        raise WindowViolation("no element of V meets the exponent-window precondition")
    if best > bound:
        raise BoundViolated(f"zero count {best} exceeds B_A = {bound}")
    return bound, best
