import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicann import scanner
from padicann.curves import HyperellipticCurve, decompose
from padicann.errors import CertificationFailed, CoverageGap, DoubleCover
from padicann.oracle import (
    enumerate_padic_zeros,
    search_rational_points,
    verify_decomposition_cover,
)
from padicann.scanner import SCAN_MODULI, scan_candidates
from padicann.series import LaurentPoly, count_zeros_valuation_range


def monic_from_roots(roots):
    poly = [Fraction(1)]
    for r in roots:
        new = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] += c
            new[i] -= Fraction(r) * c
        poly = new
    return poly


# ---------------------------------------------------------------------------
# scan kernel
# ---------------------------------------------------------------------------

SCAN_INPUTS = [
    [1, 0, 0, 0, 0, 0, 0, 1],
    [3, -2, 0, 1, 0, 5],
    [4, 4],
    [7],
    [],
    [1, 0, 0, 0, 0, 0, 1],  # even degree
    [2, 0, 1, 0, 0, -3],  # negative leading coefficient
    [-5, 1, 0, 4],  # non-monic
    [1] + [0] * 15 + [1],  # degree 16
    [1, -1] + [0] * 16 + [2],  # degree 18
    [2**64 + 5, 0, 0, 1],  # a coefficient above 2^63
]


def _G(coeffs, a, b):
    n = len(coeffs) - 1
    return sum(c * a**i * b ** (2 * n - i) for i, c in enumerate(coeffs))


def _exact_filter(coeffs, h):
    """Every (a, b), b-major, with G(a, b) a square mod every scan modulus."""
    if not coeffs:  # no polynomial, no curve
        return []
    squares = {m: {r * r % m for r in range(m)} for m in SCAN_MODULI}
    return [
        (a, b)
        for b in range(1, h + 1)
        for a in range(-h, h + 1)
        if all(_G(coeffs, a, b) % m in squares[m] for m in SCAN_MODULI)
    ]


@pytest.mark.parametrize("coeffs", SCAN_INPUTS)
def test_kernel_parity(coeffs):
    assert scan_candidates(coeffs, 40) == _exact_filter(coeffs, 40)


@given(
    coeffs=st.lists(st.integers(-(2**70), 2**70), min_size=2, max_size=21),
    h=st.integers(1, 8),
)
@settings(max_examples=150, deadline=None)
def test_kernel_parity_random(coeffs, h):
    assert scan_candidates(coeffs, h) == _exact_filter(coeffs, h)


def test_kernel_parity_across_blocks(monkeypatch):
    # a small block size makes the scan gather b-rows in many blocks
    monkeypatch.setattr(scanner, "_BLOCK_CELLS", 200)
    coeffs = [3, -2, 0, 1, 0, 5]
    assert scan_candidates(coeffs, 40) == _exact_filter(coeffs, 40)


def test_kernel_order_is_b_major_a_ascending():
    out = scan_candidates([0, 1], 6)
    assert out == sorted(out, key=lambda ab: (ab[1], ab[0]))


def test_kernel_no_false_negatives():
    # every pair whose G value is a square must survive the filter
    h = 25
    for coeffs in filter(None, SCAN_INPUTS):  # [] is no curve
        survivors = set(scan_candidates(coeffs, h))
        for b in range(1, h + 1):
            for a in range(-h, h + 1):
                g = _G(coeffs, a, b)
                if g >= 0 and math.isqrt(g) ** 2 == g:
                    assert (a, b) in survivors, (coeffs, a, b)


# ---------------------------------------------------------------------------
# rational point search
# ---------------------------------------------------------------------------


def test_search_odd_degree_example():
    r = search_rational_points([1, 0, 0, 0, 0, 0, 0, 1], 10)
    assert r.infinity_points == 1
    assert (Fraction(0), Fraction(1)) in r.affine
    assert (Fraction(0), Fraction(-1)) in r.affine
    assert (Fraction(-1), Fraction(0)) in r.affine
    assert r.count == 4


def test_search_even_degree_square_lc():
    r = search_rational_points([1, 0, 0, 0, 0, 0, 1], 5)
    assert r.infinity_points == 2
    assert r.count == 4


def test_search_even_degree_nonsquare_lc():
    r = search_rational_points([3, 0, 0, 0, 0, 0, 2], 5)
    assert r.infinity_points == 0


def test_search_involution_and_order():
    r = search_rational_points([1, 0, 0, 0, 0, 0, 0, 1], 30)
    pts = set(r.affine)
    assert all((x, -y) in pts for x, y in pts)
    assert list(r.affine) == sorted(r.affine)


def _naive_points(coeffs, h):
    """Independent gcd/isqrt brute force over the height box."""
    expected = set()
    for b in range(1, h + 1):
        for a in range(-h, h + 1):
            if math.gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            val = sum(Fraction(c) * x**i for i, c in enumerate(coeffs))
            if val < 0:
                continue
            num, den = val.numerator, val.denominator
            if math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den:
                y = Fraction(math.isqrt(num), math.isqrt(den))
                expected.add((x, y))
                expected.add((x, -y))
    return expected


def test_search_matches_naive_enumeration():
    # fractional coefficients too
    coeffs = [Fraction(1, 4), 0, 0, 0, 0, 1]
    r = search_rational_points(coeffs, 12)
    assert set(r.affine) == _naive_points(coeffs, 12)


def test_search_degree_16():
    coeffs = [1] + [0] * 15 + [1]
    r = search_rational_points(coeffs, 5)
    assert set(r.affine) == _naive_points(coeffs, 5)
    assert r.infinity_points == 2


def test_search_rejects_nonsquarefree_and_trivial():
    with pytest.raises(ValueError):
        search_rational_points([1, 2, 1], 5)  # (x+1)^2
    with pytest.raises(ValueError):
        search_rational_points([3], 5)
    with pytest.raises(ValueError):
        search_rational_points([0, 1], 0)


def test_search_result_dict():
    d = search_rational_points([1, 0, 0, 0, 0, 0, 0, 1], 10).to_dict()
    assert d["count"] == 4 and d["infinity_points"] == 1
    assert ["0", "1"] in d["affine"]


# ---------------------------------------------------------------------------
# p-adic zero enumeration
# ---------------------------------------------------------------------------


def test_enumerate_single_root():
    assert enumerate_padic_zeros([-3, 1], 3, (0, 2), 6) == 1


def test_enumerate_two_roots():
    assert enumerate_padic_zeros([27, -12, 1], 3, (0, 3), 6) == 2


def test_enumerate_irrational_root_not_in_qp():
    # z^2 = 3 has no solution in Q_3, though C_p has two of valuation 1/2
    assert enumerate_padic_zeros([-3, 0, 1], 3, (0, 2), 6) == 0
    assert count_zeros_valuation_range(
        LaurentPoly.from_coeff_list(3, [-3, 0, 1]), 0, 2
    ) == 2


def test_enumerate_root_outside_window():
    assert enumerate_padic_zeros([-5, 1], 3, (0, 2), 6) == 0
    assert enumerate_padic_zeros([-5, 1], 3, (-1, 1), 6) == 1


def test_enumerate_negative_valuation():
    assert enumerate_padic_zeros([-1, 3], 3, (-2, 0), 6) == 1


def test_enumerate_double_root_refuses():
    with pytest.raises(CertificationFailed):
        enumerate_padic_zeros([9, -6, 1], 3, (0, 2), 6)


def test_enumerate_accepts_laurent_and_dict():
    L = LaurentPoly.from_coeff_list(3, [-3, 1])
    assert enumerate_padic_zeros(L, 3, (0, 2), 6) == 1
    assert enumerate_padic_zeros({0: "-3", 1: "1"}, 3, (0, 2), 6) == 1
    # multiplying by z^-1 moves nothing at finite nonzero valuation
    shifted = LaurentPoly(3, {-1: -3, 0: 1})
    assert enumerate_padic_zeros(shifted, 3, (0, 2), 6) == 1


def test_enumerate_rejects_inexact_and_zero():
    from padicann.padic import PAdic

    bounded = LaurentPoly(3, {0: PAdic.inexact_zero(3, 5), 1: 1})
    with pytest.raises(ValueError):
        enumerate_padic_zeros(bounded, 3, (0, 2), 6)
    with pytest.raises(ValueError):
        enumerate_padic_zeros({}, 3, (0, 2), 6)
    with pytest.raises(ValueError):
        enumerate_padic_zeros([-3, 1], 3, (0, 2), 0)


def test_enumerate_agrees_with_newton_counts():
    cases = [
        ([1, 4, 7, 100], 3, (-1, 3)),
        ([1, 5, 25], 5, (-1, 3)),
        ([3, 9, 1, 27], 3, (0, 4)),
        ([5, 10, 2], 5, (0, 2)),
    ]
    for roots, p, window in cases:
        poly = monic_from_roots(roots)
        want = sum(1 for r in roots if window[0] < _ival(r, p) < window[1])
        got = enumerate_padic_zeros(poly, p, window, 6 if p == 3 else 4)
        L = LaurentPoly.from_coeff_list(p, poly)
        newton = count_zeros_valuation_range(L, window[0], window[1])
        assert got == want == newton


def _ival(n, p):
    n = int(n)
    if n == 0:
        return 10**9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# decomposition coverage audit
# ---------------------------------------------------------------------------

OCTIC_ROOTS = [0, 3, 9, 1, 2, 4, 5, 7]
DEEP_ROOTS = [0, 9, 18, 1, 2, 4, 5, 7]


@pytest.fixture(scope="module")
def octic():
    c = HyperellipticCurve(monic_from_roots(OCTIC_ROOTS), 3, 30)
    return c, decompose(c)


@pytest.fixture(scope="module")
def deep_octic():
    c = HyperellipticCurve(monic_from_roots(DEEP_ROOTS), 3, 30)
    return c, decompose(c)


def test_cover_octic_every_class_once(octic):
    curve, dec = octic
    rep = verify_decomposition_cover(curve, dec, 4)
    assert rep["ok"] and rep["classes"] == 81
    # all annulus x-shells are empty here: the cluster depths differ by one
    assert all(v == 0 for v in rep["shell_classes"].values())


def test_cover_deep_cluster_shell(deep_octic):
    curve, dec = deep_octic
    assert [a.kind for a in dec.annuli] == ["odd", "weierstrass", "odd"]
    rep = verify_decomposition_cover(curve, dec, 4)
    assert rep["classes"] == 81
    # the depth-(0,2) annulus owns v(x) = 1, i.e. x = 3, 6 mod 9
    assert rep["shell_classes"][2] == 18
    assert rep["shell_classes"][0] == 0


def test_cover_missing_disk_is_a_gap(octic):
    curve, dec = octic
    free = next(d for d in dec.disks if d.kind == "free")
    broken = dataclasses.replace(
        dec, disks=[d for d in dec.disks if d is not free]
    )
    with pytest.raises(CoverageGap):
        verify_decomposition_cover(curve, broken, 4)


def test_cover_duplicated_disk_is_double(octic):
    curve, dec = octic
    free = next(d for d in dec.disks if d.kind == "free")
    broken = dataclasses.replace(dec, disks=list(dec.disks) + [free])
    with pytest.raises(DoubleCover):
        verify_decomposition_cover(curve, broken, 4)


def test_cover_needs_enough_depth(octic):
    curve, dec = octic
    with pytest.raises(ValueError):
        verify_decomposition_cover(curve, dec, 1)


def test_cover_requires_disks():
    # non-integral roots: decomposition skips the disk regions
    c = HyperellipticCurve(monic_from_roots([Fraction(1, 3), 1, 2, 4, 5]), 3, 30)
    dec = decompose(c)
    assert dec.disks is None
    with pytest.raises(ValueError):
        verify_decomposition_cover(c, dec, 4)
