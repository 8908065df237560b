"""Exception types shared across the package."""


class PadicannError(Exception):
    """Base class for all computational errors raised by this package."""


# --- p-adic arithmetic ------------------------------------------------------

class DivisionByIndistinguishableZero(PadicannError, ZeroDivisionError):
    """Division by an element that is zero at its stated precision."""


class NotASquare(PadicannError, ArithmeticError):
    """Square root requested of a non-square (odd valuation or non-residue)."""


class OddPrimeRequired(PadicannError):
    """The operation is only implemented for odd residue characteristic."""


class ZeroArgument(PadicannError, ValueError):
    """The operation is undefined at zero (e.g. branch logarithm, Teichmueller)."""


class PrecisionInsufficient(PadicannError):
    """Working precision is too low to decide the requested quantity."""


# --- Laurent series / Newton polygons ---------------------------------------

class AllCoefficientsIndistinguishableFromZero(PadicannError):
    """Every coefficient of the series is zero at its precision."""


class ProvisionalPolygon(PadicannError):
    """A coefficient known only as O(p^N) could still change the polygon."""


class DegreeTooLarge(PadicannError, ValueError):
    """Input degree exceeds what the operation supports."""


# --- integration ------------------------------------------------------------

class OutsideDomain(PadicannError, ValueError):
    """An evaluation point lies outside the disk or annulus of definition."""


class MissingAbelianConstant(PadicannError, ValueError):
    """The branch-correction constant a(omega) is required but absent."""


class WindowViolation(PadicannError, ValueError):
    """No differential satisfies the required exponent-window constraints."""


# --- curve decomposition ----------------------------------------------------

class NonSplitInput(PadicannError):
    """The polynomial does not split over Q_p at the working precision."""


class UnsupportedRegime(PadicannError, ValueError):
    """Parameters outside the supported regime (e.g. p <= e+1, tiny genus)."""


class MissingAlpha(PadicannError, ValueError):
    """A pullback needs alpha = sqrt(gamma) but the annulus is non-split."""


# --- arithmetic graphs ------------------------------------------------------

class RelationViolated(PadicannError):
    """A per-vertex intersection relation fails."""

    def __init__(self, vertex, lhs, rhs):
        self.vertex = vertex
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"vertex {vertex}: neighbour sum {lhs} != m*(w+2) - 2*m*pa = {rhs}"
        )


class Disconnected(PadicannError):
    """The graph is not connected."""


class NonIntegralGenus(PadicannError):
    """sum(m*w) is not of the form 2g-2 for an integer g >= 2."""


class UnclassifiableVertex(PadicannError):
    """A (-2)-vertex does not match any of the four local cases."""


class BoundViolated(PadicannError):
    """A special-fiber count exceeds its structural bound."""


class NothingToRewrite(PadicannError):
    """local_modification called on a graph with no case-3/4 configuration."""


# --- bounds -----------------------------------------------------------------

class RankOutOfRange(PadicannError, ValueError):
    """The rank input is outside the closed-form bound's validity range."""


class RankTooLarge(RankOutOfRange):
    """The Mordell-Weil rank input exceeds g-3."""


# --- oracle -----------------------------------------------------------------

class CertificationFailed(PadicannError):
    """A candidate zero could not be certified or refuted at this precision."""


class CoverageGap(PadicannError):
    """Some residue class is claimed by no region of the decomposition."""


class DoubleCover(PadicannError):
    """Some residue class is claimed by more than one region."""
