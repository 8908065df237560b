from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicann.bounds import Delta, delta, zero_bound_disk
from padicann.errors import (
    AllCoefficientsIndistinguishableFromZero,
    OutsideDomain,
    ProvisionalPolygon,
    UnsupportedRegime,
)
from padicann.padic import PAdic
from padicann.series import (
    LaurentData,
    LaurentPoly,
    count_zeros_valuation_range,
    formal_integrate,
    newton_polygon,
)


def L(p, terms):
    return LaurentPoly(p, terms)


@pytest.mark.parametrize("p, prec, ok", [
    (3, 2**20, True),              # 3 has 2 bits: 2^21 bits, at the bound
    (3, 2**20 + 1, False),
    (10007, 2**21 // 14, True),    # 10007 has 14 bits
    (10007, 2**21 // 14 + 1, False),
])
def test_laurent_poly_bounds_the_size_of_p_to_the_prec(p, prec, ok):
    if ok:
        assert LaurentPoly(p, {0: 1}, prec).coeff(0).prec == prec
    else:
        with pytest.raises(UnsupportedRegime, match="too large"):
            LaurentPoly(p, {0: 1}, prec)


class TestNewtonPolygon:
    def test_two_flat_terms(self):
        # t^-1 + t: both zeros have valuation 0
        f = L(3, {-1: 1, 1: 1})
        poly = newton_polygon(f)
        assert poly.vertices == [(-1, Fraction(0)), (1, Fraction(0))]
        assert poly.slopes() == [(Fraction(0), 2)]

    def test_square_root_of_p_cubed(self):
        f = L(3, {0: -27, 2: 1})
        poly = newton_polygon(f)
        assert poly.slopes() == [(Fraction(-3, 2), 2)]

    def test_middle_point_above_hull_is_dropped(self):
        f = L(5, {0: 25, 1: 25, 2: 1})
        poly = newton_polygon(f)
        assert poly.vertices == [(0, Fraction(2)), (2, Fraction(0))]

    def test_two_segments(self):
        # zeros: one of valuation 2, two of valuation -1
        f = L(3, {0: 9, 1: 1, 3: 9})
        poly = newton_polygon(f)
        assert poly.slopes() == [(Fraction(-2), 1), (Fraction(1), 2)]

    def test_all_zero_coefficients_rejected(self):
        f = L(3, {0: PAdic.inexact_zero(3, 5), 2: PAdic.inexact_zero(3, 7)})
        with pytest.raises(AllCoefficientsIndistinguishableFromZero):
            newton_polygon(f)

    def test_exact_zero_coefficients_are_dropped(self):
        f = L(3, {0: 1, 1: 0, 5: 3})
        assert list(f.terms) == [0, 5]


class TestProvisionalFlag:
    def test_low_precision_coefficient_on_hull_flags(self):
        f = L(3, {0: -27, 1: PAdic.inexact_zero(3, 1), 2: 1})
        assert newton_polygon(f).provisional

    def test_high_precision_bound_is_harmless(self):
        f = L(3, {0: -27, 1: PAdic.inexact_zero(3, 10), 2: 1})
        poly = newton_polygon(f)
        assert not poly.provisional
        assert poly.slopes() == [(Fraction(-3, 2), 2)]

    def test_bound_outside_support_flags(self):
        f = L(3, {0: 1, 1: 1, 4: PAdic.inexact_zero(3, 12)})
        assert newton_polygon(f).provisional

    def test_count_refuses_on_provisional(self):
        f = L(3, {0: -27, 1: PAdic.inexact_zero(3, 1), 2: 1})
        with pytest.raises(ProvisionalPolygon):
            count_zeros_valuation_range(f, 0, 10)

    @given(p=st.sampled_from((2, 3, 5)), data=st.data())
    @example(p=3, data=None)
    @settings(max_examples=300, deadline=None)
    def test_provisional_is_the_pointwise_rule(self, p, data):
        # the rule is written out here: an O(p^N) term (n, N) could move the
        # hull when n lies outside the definite terms' x-range, or N lies
        # strictly below the hull at n.  The hull's height at n is the least
        # chord through definite points on either side of n, in Fractions.
        if data is None:   # O(3^1) on the chord from (0, 3) to (2, 0), then below it
            terms = {0: PAdic(3, 3, 1, 6), 1: PAdic.inexact_zero(3, 1), 2: PAdic(3, 0, 1, 3),
                     4: PAdic(3, 0, 1, 3), 3: PAdic.inexact_zero(3, 0)}
        else:
            terms = {}
            for n in data.draw(st.lists(st.integers(-6, 6), min_size=1, max_size=8,
                                        unique=True)):
                v = data.draw(st.integers(-4, 6))
                terms[n] = (PAdic.inexact_zero(p, v) if data.draw(st.booleans())
                            else PAdic(p, v, 1, v + 3))
        definite = [(n, c.valuation) for n, c in terms.items() if not c.is_zero()]
        assume(definite)

        def height(x):
            return min(Fraction(v1) + Fraction(v2 - v1, n2 - n1) * (x - n1)
                       if n1 < n2 else Fraction(v1)
                       for n1, v1 in definite for n2, v2 in definite if n1 <= x <= n2)

        lo, hi = min(n for n, _ in definite), max(n for n, _ in definite)
        expected = any(not lo <= n <= hi or c.prec < height(n)
                       for n, c in terms.items() if c.is_zero())
        assert newton_polygon(L(p, terms)).provisional == expected


class TestZeroCounts:
    def test_flat_pair_has_no_zeros_off_zero(self):
        f = L(3, {-1: 1, 1: 1})
        assert count_zeros_valuation_range(f, 1, 2) == 0
        assert count_zeros_valuation_range(f, -1, 1) == 2

    def test_sqrt_p3_zeros_land_at_three_halves(self):
        f = L(3, {0: -27, 2: 1})
        assert count_zeros_valuation_range(f, 1, 2) == 2
        assert count_zeros_valuation_range(f, 2, 3) == 0

    def test_boundary_inclusion_flags(self):
        f = L(3, {0: -27, 2: 1})
        s = Fraction(3, 2)
        assert count_zeros_valuation_range(f, s, 2) == 0
        assert count_zeros_valuation_range(f, s, 2, include_lo=True) == 2
        assert count_zeros_valuation_range(f, 1, s) == 0
        assert count_zeros_valuation_range(f, 1, s, include_hi=True) == 2

    def test_unit_series_multiplication_keeps_counts(self):
        # 1 + 3z + 9z^2 only vanishes at valuation -1, outside (-1, oo)
        u = L(3, {-1: 1, 1: 1})
        h = L(3, {0: 1, 1: 3, 2: 9})
        g = u * h
        for lo, hi in [(-Fraction(1, 2), Fraction(1, 2)), (1, 2), (-1, 5)]:
            assert count_zeros_valuation_range(g, lo, hi) == count_zeros_valuation_range(
                u, lo, hi
            )
        # and the new zeros are exactly the two at valuation -1
        assert count_zeros_valuation_range(g, -2, -Fraction(1, 2)) == 2

    def test_laurent_data_clips_to_domain(self):
        u = L(3, {-1: 1, 1: 1})
        data = LaurentData(u, (1, 2))
        assert count_zeros_valuation_range(data, -5, 5) == 0
        wide = LaurentData(u, (-1, 1))
        assert count_zeros_valuation_range(wide, -5, 5) == 2

    def test_empty_domain_rejected(self):
        u = L(3, {0: 1, 1: 1})
        with pytest.raises(OutsideDomain):
            LaurentData(u, (2, 2))


@st.composite
def int_laurent(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    exps = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=6, unique=True))
    coeffs = draw(
        st.lists(st.integers(-20, 20), min_size=len(exps), max_size=len(exps))
    )
    terms = {n: c for n, c in zip(exps, coeffs) if c != 0}
    return p, terms


class TestCountProperties:
    @given(int_laurent())
    @settings(max_examples=150, deadline=None)
    def test_total_count_is_support_width(self, data):
        p, terms = data
        if not terms:
            return
        f = L(p, terms)
        lo, hi = min(terms), max(terms)
        assert count_zeros_valuation_range(f, -(10**6), 10**6) == hi - lo

    @given(int_laurent())
    @settings(max_examples=100, deadline=None)
    def test_rescaling_by_p_shifts_valuations(self, data):
        p, terms = data
        if not terms:
            return
        f = L(p, terms)
        g = L(p, {n: Fraction(c) * Fraction(p) ** n for n, c in terms.items()})
        for lo, hi in [(-3, 0), (0, 3), (-10, 10)]:
            assert count_zeros_valuation_range(g, lo - 1, hi - 1) == (
                count_zeros_valuation_range(f, lo, hi)
            )


class TestCorrections:
    def test_delta_values(self):
        assert delta(3, 1, 0) == 0
        assert delta(3, 1, 4) == 4
        assert delta(5, 1, 7) == 2
        assert delta(5, 3, 7) == 21
        assert delta(7, 2, 9) == 4

    def test_delta_needs_room_below_p(self):
        with pytest.raises(UnsupportedRegime):
            delta(3, 2, 1)
        with pytest.raises(UnsupportedRegime):
            delta(2, 1, 1)

    def test_Delta_example(self):
        assert Delta(3, 2, 3, 1) == 2

    def test_Delta_matches_closed_form(self):
        for p in (3, 5, 7):
            for e in range(1, p - 1):
                for s in (1, 2, 3, 4):
                    for r in range(9):
                        assert Delta(s, r, p, e) == e * (r // (p - e - 1))

    def test_zero_bound_disk(self):
        assert zero_bound_disk(4, 3, 1) == 9
        assert zero_bound_disk(0, 5, 1) == 1
        assert zero_bound_disk(6, 5, 2) == 13


class TestFormalIntegrate:
    def test_splits_off_dlog_part(self):
        f = L(3, {-2: 1, -1: 5, 1: 1})
        ell, c = formal_integrate(f)
        assert c.agrees(5)
        assert ell.coeff(-1).agrees(-1)
        assert ell.coeff(2).agrees(Fraction(1, 2))
        assert ell.coeff(0).is_exact_zero()

    def test_no_residue_term(self):
        f = L(3, {-2: 1, 1: 1})
        _, c = formal_integrate(f)
        assert c.is_exact_zero()

    def test_dividing_by_p_costs_precision(self):
        f = L(3, {2: 1})
        ell, _ = formal_integrate(f)
        a = ell.coeff(3)
        assert a.valuation == -1
        assert a.prec == 19

    def test_derivative_inverts_ell(self):
        f = L(5, {-3: 2, 0: 7, 4: -1})
        ell, c = formal_integrate(f)
        assert c.is_exact_zero()
        g = ell.derivative()
        assert (g - f).is_zero()


class TestAlgebra:
    def test_add_cancellation_keeps_bound_term(self):
        f = L(3, {0: 1, 1: 1})
        g = L(3, {1: -1})
        h = f + g
        assert h.coeff(1).is_zero() and not h.coeff(1).is_exact_zero()
        assert h.definite_terms().keys() == {0}

    def test_mul_matches_integer_convolution(self):
        f = L(3, {-1: 2, 1: 3})
        g = L(3, {0: 1, 2: -4})
        h = f * g
        assert h.coeff(-1).agrees(2)
        assert h.coeff(1).agrees(3 + (-8))
        assert h.coeff(3).agrees(-12)

    def test_evaluate(self):
        f = L(3, {-1: 1, 2: 2})
        x = PAdic.from_int(3, 3)
        val = f.evaluate(x)
        assert val.agrees(Fraction(1, 3) + 2 * 9)

    def test_evaluate_keeps_the_precision_of_the_point(self):
        # the z^-2 term costs two digits of the point's 40, not a default's
        x = PAdic.from_int(21, 3, 40)
        val = LaurentPoly(3, {-2: 1, 1: 1}, 40).evaluate(x)
        assert val.prec == 37
        assert val == 1 / (x * x) + x

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_evaluate_agrees_with_the_exact_sum_over_representatives(self, data):
        # definite and O(p^N) coefficients, always a z^0 term, and a point
        # known to finitely many digits: the sum of c * x^n in exact
        # rationals agrees with evaluate to the precision evaluate claims,
        # for the lifts and for other representatives of the unknown digits
        # (x + p^prec(x), c + p^prec(c), so p^N for an O(p^N) coefficient)
        p = data.draw(st.sampled_from((2, 3, 5, 10007)))
        unit = st.integers(1, 10**12).filter(lambda u: u % p)

        def element():
            if data.draw(st.integers(0, 4)) == 0:
                return PAdic.inexact_zero(p, data.draw(st.integers(-6, 12)))
            v = data.draw(st.integers(-3, 3))
            return PAdic(p, v, data.draw(unit), v + data.draw(st.integers(1, 20)))

        exps = data.draw(st.sets(st.integers(-4, 4), max_size=5)) | {0}
        f = LaurentPoly(p, {n: element() for n in exps})
        v = data.draw(st.integers(-3, 3))
        x = PAdic(p, v, data.draw(unit), v + data.draw(st.integers(1, 20)))
        value = f.evaluate(x)

        def exact_sum(shift):
            def rep(y):
                return y.lift() + shift * Fraction(p) ** y.prec
            return sum((rep(c) * rep(x) ** n for n, c in f.terms.items()), Fraction(0))

        assert value.agrees(exact_sum(0))
        assert value.agrees(exact_sum(1))

    def test_json_roundtrip(self):
        f = L(3, {-2: Fraction(1, 2), 5: 7})
        g = LaurentPoly.from_json(f.to_json())
        assert (f - g).is_zero()
        assert list(g.terms) == [-2, 5]
