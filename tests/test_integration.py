from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicann.bounds import B_A
from padicann.errors import (
    MissingAbelianConstant,
    OutsideDomain,
    WindowViolation,
)
from padicann.integration import (
    AnnulusIntegrand,
    abelian_integral_annulus,
    integrate_annulus,
    integrate_disk,
    lambda_zero_count_annulus,
)
from padicann.padic import PAdic, log0
from padicann.series import LaurentData, LaurentPoly


def L(p, terms):
    return LaurentPoly(p, terms)


def pt(value, p=3):
    return PAdic.from_rational(Fraction(value), p)


class TestDisk:
    def test_linear(self):
        res = integrate_disk(L(3, {1: 1}), pt(3), pt(9))
        assert res.agrees(6)

    def test_same_endpoints_vanish(self):
        res = integrate_disk(L(3, {1: 1, 3: 2}), pt(3), pt(3))
        assert res.is_zero()

    def test_square(self):
        res = integrate_disk(L(3, {2: 1}), pt(3), pt(6))
        assert res.agrees(27)

    def test_rejects_unit_point(self):
        with pytest.raises(OutsideDomain):
            integrate_disk(L(3, {1: 1}), pt(1), pt(3))

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            integrate_disk(L(3, {-1: 1}), pt(3), pt(9))


class TestAnnulus:
    def test_pure_dlog_between_p_multiples(self):
        # Log0(p*xi) = Log0(xi), so the integral from xi to p*xi vanishes
        I = AnnulusIntegrand(L(3, {}), pt(1), domain=(-1, 2))
        res = integrate_annulus(I, pt(2), pt(6))
        assert res.is_zero()

    def test_no_residue_reduces_to_disk(self):
        ell = L(3, {1: 1, 2: 1})
        I = AnnulusIntegrand(ell, PAdic.zero(3), domain=(0, 3))
        assert integrate_annulus(I, pt(3), pt(9)) == integrate_disk(ell, pt(3), pt(9))

    def test_combined_value(self):
        I = AnnulusIntegrand(L(3, {1: 1}), pt(1), domain=(-1, 1))
        res = integrate_annulus(I, pt(1), pt(4))
        expected = pt(3) + log0(pt(4))
        assert (res - expected).is_zero()

    def test_point_outside_domain(self):
        I = AnnulusIntegrand(L(3, {1: 1}), pt(1), domain=(0, 2))
        with pytest.raises(OutsideDomain):
            integrate_annulus(I, pt(1), pt(3))


class TestAbelian:
    def setup_method(self):
        self.I = AnnulusIntegrand(
            L(3, {1: 1}), pt(1), a=pt(1), domain=(-1, 3)
        )

    def test_missing_constant(self):
        I = AnnulusIntegrand(L(3, {1: 1}), pt(1), domain=(-1, 3))
        with pytest.raises(MissingAbelianConstant):
            abelian_integral_annulus(I, pt(1), pt(2))

    def test_equal_valuations_match_plain(self):
        a, b = pt(2), pt(5)
        assert (
            abelian_integral_annulus(self.I, a, b)
            - integrate_annulus(self.I, a, b)
        ).is_zero()

    def test_zero_constant_matches_plain(self):
        I = AnnulusIntegrand(L(3, {1: 1}), pt(1), a=PAdic.zero(3), domain=(-1, 3))
        a, b = pt(2), pt(18)
        assert (
            abelian_integral_annulus(I, a, b) - integrate_annulus(I, a, b)
        ).is_zero()

    def test_valuation_jump_adds_multiple(self):
        a, b = pt(2), pt(18)  # valuations 0 and 2
        plain = integrate_annulus(self.I, a, b)
        assert (abelian_integral_annulus(self.I, a, b) - (plain + 2)).is_zero()


class TestLambdaZeroCount:
    def test_bound_values(self):
        # lambda_zero_count_annulus counts with bounds.B_A, which refuses r = 0.
        assert B_A(3, 1, 2) == 8
        assert B_A(5, 1, 3) == 8
        assert B_A(7, 2, 4) == 12
        with pytest.raises(ValueError):
            B_A(3, 1, 0)

    def test_example(self):
        V = [LaurentData(L(3, {-2: 1, 1: 1}), (0, 1))]
        assert lambda_zero_count_annulus(V, 3, 1, 2) == (8, 0)

    def test_rejects_rank_zero(self):
        V = [LaurentData(L(3, {-2: 1, 1: 1}), (0, 1))]
        with pytest.raises(WindowViolation):
            lambda_zero_count_annulus(V, 3, 1, 0)

    def test_too_wide_window(self):
        V = [LaurentData(L(3, {-4: 1, 1: 1}), (0, 1))]
        with pytest.raises(WindowViolation):
            lambda_zero_count_annulus(V, 3, 1, 2)

    def test_best_of_mixed_list(self):
        wide = LaurentData(L(3, {-4: 1, 1: 1}), (0, 1))
        ok = LaurentData(L(3, {-2: 1, 1: 1}), (0, 1))
        assert lambda_zero_count_annulus([wide, ok], 3, 1, 2) == (8, 0)

    def test_residue_term_disqualifies(self):
        V = [LaurentData(L(3, {-2: 1, -1: 1, 1: 1}), (0, 1))]
        with pytest.raises(WindowViolation):
            lambda_zero_count_annulus(V, 3, 1, 2)


def annulus_point(p=5, lo=-3, hi=3):
    units = st.integers(1, 400).filter(lambda u: u % p != 0)
    return st.builds(
        lambda k, u: PAdic.from_rational(Fraction(u) * Fraction(p) ** k, p),
        st.integers(lo, hi),
        units,
    )


laurent_5 = st.builds(
    lambda d: LaurentPoly(5, d),
    st.dictionaries(st.integers(-3, 3), st.integers(-9, 9), max_size=5),
)


class TestProperties:
    @given(laurent_5, st.integers(-9, 9), annulus_point(), annulus_point(), annulus_point())
    @settings(max_examples=60, deadline=None)
    def test_path_additivity(self, ell, c, x0, x1, x2):
        I = AnnulusIntegrand(ell, PAdic.from_int(c, 5), domain=(-4, 4))
        whole = integrate_annulus(I, x0, x2)
        split = integrate_annulus(I, x0, x1) + integrate_annulus(I, x1, x2)
        assert (whole - split).is_zero()

    @given(laurent_5, st.integers(-9, 9), annulus_point(), annulus_point())
    @settings(max_examples=40, deadline=None)
    def test_good_differential_needs_no_correction(self, ell, c, x0, x1):
        I = AnnulusIntegrand(
            ell, PAdic.from_int(c, 5), a=PAdic.zero(5), domain=(-4, 4)
        )
        assert (
            abelian_integral_annulus(I, x0, x1) - integrate_annulus(I, x0, x1)
        ).is_zero()

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_count_never_exceeds_bound(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        r = data.draw(st.integers(1, 3))
        n1 = data.draw(st.integers(-2 * r - 1, -2).filter(lambda n: n + 2 * r >= 0))
        n2 = data.draw(st.integers(0, n1 + 2 * r))
        mids = data.draw(
            st.dictionaries(
                st.integers(n1 + 1, n2 - 1).filter(lambda n: n != -1),
                st.integers(-9, 9),
                max_size=3,
            )
        )
        terms = dict(mids)
        terms[n1] = data.draw(st.integers(1, 9))
        terms[n2] = data.draw(st.integers(1, 9))
        V = [LaurentData(LaurentPoly(p, terms), (0, 1))]
        bound, count = lambda_zero_count_annulus(V, p, 1, r)
        assert 0 <= count <= bound
