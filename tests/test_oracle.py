import dataclasses
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicann import oracle, scanner
from padicann.curves import HyperellipticCurve, decompose
from padicann.errors import (
    CertificationFailed,
    CoverageGap,
    DoubleCover,
    NonSplitInput,
    UnsupportedRegime,
)
from padicann.intpoly import clear_denominators
from padicann.oracle import (
    _count_at_valuation,
    enumerate_padic_zeros,
    search_rational_points,
    verify_decomposition_cover,
)
from padicann.padic import PAdic
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


def _scan_every_b(coeffs, h):
    return scan_candidates(coeffs, h, range(1, h + 1))


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
    assert _scan_every_b(coeffs, 40) == _exact_filter(coeffs, 40)


@given(
    coeffs=st.lists(st.integers(-(2**70), 2**70), min_size=2, max_size=21),
    h=st.integers(1, 8),
)
@settings(max_examples=150, deadline=None)
def test_kernel_parity_random(coeffs, h):
    assert _scan_every_b(coeffs, h) == _exact_filter(coeffs, h)


def test_kernel_parity_across_blocks(monkeypatch):
    # a small block size makes the scan gather b-rows in many blocks
    monkeypatch.setattr(scanner, "_BLOCK_CELLS", 200)
    coeffs = [3, -2, 0, 1, 0, 5]
    assert _scan_every_b(coeffs, 40) == _exact_filter(coeffs, 40)


# h = max(SCAN_MODULI) + 1 reaches b = 61, so every prime's row b = 0 mod p
PRIME_ROW_HEIGHT = max(SCAN_MODULI) + 1
NEW_PRIME_ROW_INPUTS = [
    [3, -2, 0, 1, 0, 17 * 19 * 5],  # leading coefficient divisible by 17*19
    [-6, 11, -6, 1],  # roots 1, 2, 3: a root mod every prime
    [2**64 + 5, 0, 0, 1],  # a coefficient above 2^63
]


@pytest.mark.parametrize("coeffs", NEW_PRIME_ROW_INPUTS)
def test_kernel_parity_on_every_prime_row(coeffs):
    h = PRIME_ROW_HEIGHT
    assert _scan_every_b(coeffs, h) == _exact_filter(coeffs, h)


def test_kernel_parity_on_every_prime_row_across_blocks(monkeypatch):
    monkeypatch.setattr(scanner, "_BLOCK_CELLS", 200)
    coeffs = NEW_PRIME_ROW_INPUTS[0]
    h = PRIME_ROW_HEIGHT + 2
    assert _scan_every_b(coeffs, h) == _exact_filter(coeffs, h)


def _residue_filter(coeffs, h):
    """Every (a, b), b-major, kept by the per-prime tables "G(a, b) mod p
    is a square", read at (b mod p, a mod p) and ANDed over the primes."""
    n = len(coeffs) - 1
    a = np.arange(-h, h + 1)
    b = np.arange(1, h + 1)
    keep = np.ones((h, 2 * h + 1), dtype=bool)
    for p in SCAN_MODULI:
        r = np.arange(p)
        powers = [np.ones(p, dtype=np.int64)]
        for _ in range(2 * n):
            powers.append(powers[-1] * r % p)
        # [b, a] -> G(a, b) = sum_i c_i a^i b^(2n - i) mod p
        g = sum(c % p * powers[2 * n - i][:, None] * powers[i][None, :] % p
                for i, c in enumerate(coeffs)) % p
        is_square = np.zeros(p, dtype=bool)
        is_square[r * r % p] = True
        keep &= is_square[g][:, a % p][b % p]
    rows, cols = np.nonzero(keep)
    return list(zip((cols - h).tolist(), (rows + 1).tolist()))


# word edges (64 cells of a to a word) and gather-block edges (the bank
# is gathered 512 cells of a at a time)
EDGE_HEIGHTS = (31, 32, 63, 64, 65, 255, 256, 257)


@pytest.mark.parametrize("h", EDGE_HEIGHTS)
@given(coeffs=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=12))
@settings(max_examples=8, deadline=None)
def test_kernel_matches_residue_filter_at_block_edges(h, coeffs):
    assert _scan_every_b(coeffs, h) == _residue_filter(coeffs, h)


# a height of many gather blocks, on curves whose survivors are few (a
# polynomial such as 0 or x^2 keeps all 8.8 million pairs)
@pytest.mark.parametrize("coeffs", [c for c in SCAN_INPUTS if len(c) > 2])
def test_kernel_matches_residue_filter_over_many_blocks(coeffs):
    assert _scan_every_b(coeffs, 2100) == _residue_filter(coeffs, 2100)


# banks narrower than the largest prime: the box's 2h + 1 cells hold at
# most one period of a prime's table
@pytest.mark.parametrize("h", (1, 2, 3, 7, 30))
@given(coeffs=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=12))
@settings(max_examples=8, deadline=None)
def test_kernel_matches_residue_filter_on_narrow_banks(h, coeffs):
    assert _scan_every_b(coeffs, h) == _residue_filter(coeffs, h)


def test_kernel_parity_across_gather_blocks(monkeypatch):
    # one word of every bank row gathered and packed per block
    monkeypatch.setattr(scanner, "_GATHER_CELLS", 1)
    coeffs = [3, -2, 0, 1, 0, 5]
    assert _scan_every_b(coeffs, 300) == _residue_filter(coeffs, 300)


@pytest.mark.parametrize("height", [8_607_136, 10**8, 10**30])
def test_a_height_whose_bank_would_pass_a_gib_is_refused(height):
    # 499 rows of 8 bytes per 64 values of a: H = 8,607,135 is the largest
    # height whose bank fits in 2^30 bytes, and no larger one is allocated
    with pytest.raises(UnsupportedRegime, match="sieve bank"):
        _scan_every_b([1, 0, 0, 0, 0, 0, 0, 1], height)
    with pytest.raises(UnsupportedRegime, match="sieve bank"):
        search_rational_points([1, 0, 0, 0, 0, 0, 0, 1], height)


@pytest.mark.parametrize("height, survivors", [(2000, 4263), (10**4, 27306)])
def test_kernel_strength_on_the_septic(height, survivors):
    # pins how many pairs the sieve keeps on y^2 = x^7 + 1: dropping or
    # weakening a prime raises the count (the four points all survive)
    out = _scan_every_b([1, 0, 0, 0, 0, 0, 0, 1], height)
    assert len(out) == survivors
    assert {(0, 1), (-1, 1)} <= set(out)


def test_kernel_order_is_b_major_a_ascending():
    out = _scan_every_b([0, 1], 6)
    assert out == sorted(out, key=lambda ab: (ab[1], ab[0]))


def test_kernel_no_false_negatives():
    # every pair whose G value is a square must survive the filter
    h = 25
    for coeffs in filter(None, SCAN_INPUTS):  # [] is no curve
        survivors = set(_scan_every_b(coeffs, h))
        for b in range(1, h + 1):
            for a in range(-h, h + 1):
                g = _G(coeffs, a, b)
                if g >= 0 and math.isqrt(g) ** 2 == g:
                    assert (a, b) in survivors, (coeffs, a, b)


# ascending lists of b with gaps, a single b and none
DENOMINATOR_LISTS = ([1, 4, 9, 16, 25, 36], [2, 3, 5, 8, 12, 18, 27, 32, 40],
                     list(range(1, 41, 3)), [40], [])


@pytest.mark.parametrize("coeffs", SCAN_INPUTS)
@pytest.mark.parametrize("denominators", DENOMINATOR_LISTS)
def test_kernel_parity_on_a_denominator_list(coeffs, denominators):
    wanted = set(denominators)
    expected = [ab for ab in _exact_filter(coeffs, 40) if ab[1] in wanted]
    assert scan_candidates(coeffs, 40, denominators=denominators) == expected


def test_kernel_parity_on_a_denominator_list_across_blocks(monkeypatch):
    monkeypatch.setattr(scanner, "_BLOCK_CELLS", 200)
    coeffs, denominators = [3, -2, 0, 1, 0, 5], DENOMINATOR_LISTS[1]
    expected = [ab for ab in _exact_filter(coeffs, 40) if ab[1] in denominators]
    assert scan_candidates(coeffs, 40, denominators=denominators) == expected


def test_kernel_strength_on_the_septic_squares():
    # y^2 = x^7 + 1 is monic, so a point's b is a square: the 44 squares
    # up to 2000 keep 95 pairs, against 4,263 over every b
    squares = [k * k for k in range(1, 45)]
    out = scan_candidates([1, 0, 0, 0, 0, 0, 0, 1], 2000, denominators=squares)
    assert len(out) == 95
    assert {(0, 1), (-1, 1)} <= set(out)


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


@st.composite
def planted_curves(draw):
    """(f, h, x0): f non-monic (c_n = +-12 or +-18) or with rational
    coefficients, c_0 chosen so that x0 = a/b is a point of y^2 = f(x)."""
    deg = draw(st.integers(1, 7))
    rational = draw(st.booleans())
    small = (st.fractions(min_value=-4, max_value=4, max_denominator=6)
             if rational else st.integers(-4, 4))
    f = [Fraction(c) for c in draw(st.lists(small, min_size=deg, max_size=deg))]
    f.append(Fraction(draw(st.sampled_from((12, 18, -12, -18)))))
    if rational:
        f[-1] /= draw(st.sampled_from((1, 2, 3, 5)))
    h = draw(st.integers(1, 10))
    x0 = Fraction(draw(st.integers(-h, h)), draw(st.integers(1, h)))
    y0 = draw(st.fractions(min_value=0, max_value=20, max_denominator=9))
    f[0] += y0 * y0 - sum(c * x0**i for i, c in enumerate(f))
    return f, h, x0


@given(planted_curves())
@settings(max_examples=60, deadline=None)
def test_search_non_monic_and_rational_match_exhaustive_search(case):
    f, h, x0 = case
    try:
        r = search_rational_points(f, h)
    except ValueError:
        assume(False)  # not squarefree
    assert set(r.affine) == _naive_points(f, h)
    assert x0 in {x for x, _ in r.affine}


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


def test_search_result_stage_counters():
    # the septic is monic: only the 44 squares b <= 2000 are scanned, each
    # over the 4,001 values of a; 95 pairs pass the sieve, 6 of them coprime,
    # and x = 0 and x = -1 are confirmed
    r = search_rational_points([1, 0, 0, 0, 0, 0, 0, 1], 2000)
    assert r.to_dict()["stages"] == {
        "denominators": 44, "pairs": 176_044, "survivors": 95, "coprime": 6,
        "confirmed": 2}
    # even degree: c_n = 1 is a square mod every prime, so every b is scanned
    r = search_rational_points([1, 0, 0, 0, 0, 0, 1], 5)
    assert (r.denominators, r.pairs) == (5, 5 * 11)
    assert r.confirmed == 1 and r.coprime <= r.survivors <= r.pairs


def test_a_height_over_the_cap_is_refused_before_listing_denominators(monkeypatch):
    def fail(lc, height):
        raise AssertionError("the denominators were listed")

    monkeypatch.setattr(oracle, "_admissible_denominators", fail)
    with pytest.raises(UnsupportedRegime, match="sieve bank"):
        search_rational_points([1, 0, 0, 0, 0, 0, 0, 1], 10**30)


def _square_free_part_divides(b, lc):
    """Whether d | lc, where b = d k^2 with d squarefree; d by trial
    division of b."""
    d, q = 1, 2
    while q * q <= b:
        while b % (q * q) == 0:
            b //= q * q
        if b % q == 0:
            b //= q
            d *= q
        q += 1
    return lc % (d * b) == 0


@given(
    body=st.lists(st.integers(-20, 20), min_size=9, max_size=9),
    degree=st.sampled_from((1, 3, 5, 7, 9)),
    lc=st.sampled_from((1, -1, 2, -8, 12, 18, 27, 50)),
    height=st.integers(1, 30),
)
@settings(max_examples=150, deadline=None)
def test_every_odd_degree_point_has_an_admissible_denominator(body, degree, lc, height):
    # the oracle here is direct: b^n F(a, b) a square, F(a, b) the binary
    # form of f, and b tested by its own trial division
    coeffs, n = body[:degree] + [lc], degree
    admissible = oracle._admissible_denominators(lc, height)
    assert admissible == sorted(set(admissible))
    assert admissible == [b for b in range(1, height + 1)
                          if _square_free_part_divides(b, abs(lc))]
    for b in range(1, height + 1):
        for a in range(-height, height + 1):
            if math.gcd(a, b) != 1:
                continue
            F = sum(c * a**i * b ** (n - i) for i, c in enumerate(coeffs))
            w = b**n * F
            if w >= 0 and math.isqrt(w) ** 2 == w:
                assert b in admissible, (coeffs, a, b)


def _even_rule_allows(b, lc):
    """Whether no prime of b rules b out for an even-degree point: an odd
    prime q of b with q not dividing lc needs lc to be a square mod q, and
    for odd lc, 4 | b needs lc = 1 mod 4 and 8 | b needs lc = 1 mod 8.
    Primes by trial division, squares by listing them."""
    if lc % 2 and (b % 4 == 0 and lc % 4 != 1 or b % 8 == 0 and lc % 8 != 1):
        return False
    odd_primes = [q for q in range(3, b + 1, 2)
                  if b % q == 0 and all(q % r for r in range(3, q, 2))]
    return all(lc % q == 0 or lc % q in {r * r % q for r in range(q)}
               for q in odd_primes)


@given(
    body=st.lists(st.integers(-20, 20), min_size=8, max_size=8),
    degree=st.sampled_from((2, 4, 6, 8)),
    lc=st.sampled_from((1, -1, 2, -3, 5, -7, 6, 12, -27, 17, 9, 25)),
    height=st.integers(1, 30),
)
@settings(max_examples=150, deadline=None)
def test_every_even_degree_point_has_an_admissible_denominator(body, degree, lc, height):
    # F(a, b) = sum_i c_i a^i b^(n-i) is a square at every point x = a/b
    coeffs, n = body[:degree] + [lc], degree
    admissible = oracle._even_degree_denominators(lc, height)
    assert admissible == [b for b in range(1, height + 1) if _even_rule_allows(b, lc)]
    for b in range(1, height + 1):
        for a in range(-height, height + 1):
            if math.gcd(a, b) != 1:
                continue
            F = sum(c * a**i * b ** (n - i) for i, c in enumerate(coeffs))
            if F >= 0 and math.isqrt(F) ** 2 == F:
                assert b in admissible, (coeffs, a, b)


@st.composite
def even_degree_planted_curves(draw):
    """(f, h, x0): f of even degree with a non-square c_n, and c_0 chosen
    (a rational) so that x0 = a/b is a point of y^2 = f(x)."""
    deg = draw(st.sampled_from((2, 4, 6, 8)))
    f = [Fraction(c) for c in draw(st.lists(st.integers(-4, 4), min_size=deg,
                                            max_size=deg))]
    f.append(Fraction(draw(st.sampled_from((-1, 2, -3, 5, -7, 6, -27, 17)))))
    h = draw(st.integers(1, 12))
    x0 = Fraction(draw(st.integers(-h, h)), draw(st.integers(1, h)))
    y0 = draw(st.fractions(min_value=0, max_value=20, max_denominator=9))
    f[0] += y0 * y0 - sum(c * x0**i for i, c in enumerate(f))
    return f, h, x0


@given(even_degree_planted_curves())
@settings(max_examples=80, deadline=None)
def test_even_degree_search_finds_every_point_of_the_scan_over_all_b(case):
    # the naive search scans every b; the search skips the b that the even
    # degree rule rules out, and must still find every point
    f, h, x0 = case
    try:
        r = search_rational_points(f, h)
    except ValueError:
        assume(False)  # not squarefree
    assert set(r.affine) == _naive_points(f, h)
    assert x0 in {x for x, _ in r.affine}


def test_even_degree_search_skips_the_ruled_out_denominators():
    # c_n = -7: an odd prime q != 7 of b needs -7 to be a square mod q, and
    # -7 = 1 mod 8 puts no condition on the power of 2; 81 of 300 b remain
    r = search_rational_points([1, 0, 0, 0, 0, 0, -7], 300)
    assert (r.denominators, r.pairs) == (81, 81 * 601)
    assert (Fraction(0), Fraction(1)) in r.affine


def _brute_force_points(f, height):
    """perfbench's gcd/isqrt brute force on den^2 f, whose points are
    (x, den y) for the points (x, y) of y^2 = f(x)."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        from checks import brute_force_points
    finally:
        sys.path.pop(0)
    f = [Fraction(c) for c in f]
    den = math.lcm(*(c.denominator for c in f))
    points, inf = brute_force_points([c * den * den for c in f], height)
    return {(x, y / den) for x, y in points}, inf


def test_search_matches_the_benchmark_brute_force_on_seeded_curves():
    rng = random.Random(18)
    checked = 0
    for i in range(60):
        deg = 3 + i % 6  # both parities
        lc = Fraction(rng.choice((1, -1, 2, -8, 12, 18, -18, 27, 50)))
        f = [Fraction(rng.randint(-5, 5)) for _ in range(deg)] + [lc]
        if i % 3 == 0:  # rational coefficients: den^2 scaling changes c_n
            f = [c / rng.choice((1, 2, 3, 4)) for c in f]
        h = rng.choice((7, 12, 18))
        try:
            r = search_rational_points(f, h)
        except ValueError:
            continue  # not squarefree
        points, inf = _brute_force_points(f, h)
        assert set(r.affine) == points, f
        assert r.infinity_points == inf
        checked += 1
    assert checked >= 50


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
    assert enumerate_padic_zeros({0: -3, 1: 1}, 3, (0, 2), 6) == 1
    assert enumerate_padic_zeros({0: "-3", 1: "1"}, 3, (0, 2), 6) == 1
    # multiplying by z^-1 moves nothing at finite nonzero valuation
    assert enumerate_padic_zeros({-1: -3, 0: 1}, 3, (0, 2), 6) == 1


@pytest.mark.parametrize("p", [4, 9, 15])
def test_enumerate_refuses_a_p_that_is_not_prime(p):
    # the digit descent would answer 0, 2 and 4 here: counts of nothing
    with pytest.raises(ValueError, match="not prime"):
        enumerate_padic_zeros([-4, 0, 1], p, (-5, 5))


def test_enumerate_rejects_inexact_and_zero():
    # a p-adic coefficient is known only mod p^prec: not read as a rational
    with pytest.raises(TypeError):
        enumerate_padic_zeros({0: PAdic.from_rational(-3, 3, 20), 1: 1}, 3, (0, 2), 6)
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


def test_enumerate_counts_two_roots_in_one_scan_class():
    # 7 and -2 agree mod 9 and their difference has valuation 2, so the
    # class 7 + 9 Z_3 holds both; a third digit separates them
    with pytest.raises(CertificationFailed):
        enumerate_padic_zeros([-14, -5, 1], 3, (-1, 3), 2)
    assert enumerate_padic_zeros([-14, -5, 1], 3, (-1, 3), 3) == 2


@st.composite
def valuation_spread(draw):
    """(p, coefficients c_i = u_i p^(e_i)) with c_0, c_n != 0: ties anywhere."""
    p = draw(st.sampled_from((2, 3, 5)))
    terms = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 8)),
                          min_size=2, max_size=6))
    coeffs = [u * p**e for u, e in terms]
    assume(coeffs[0] and coeffs[-1])
    return p, coeffs


@given(valuation_spread(), st.integers(-10, 4), st.integers(1, 12),
       st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_enumerate_visits_every_valuation_that_can_hold_a_zero(case, lo, width, N):
    # the tied valuations give the same count, or the same refusal, as a
    # descent at every integer of the window
    p, coeffs = case
    ints = clear_denominators(coeffs)
    window = (lo, lo + width)
    try:
        want = sum(_count_at_valuation(ints, p, m, N) for m in range(lo + 1, lo + width))
    except CertificationFailed:
        with pytest.raises(CertificationFailed):
            enumerate_padic_zeros(coeffs, p, window, N)
    else:
        assert enumerate_padic_zeros(coeffs, p, window, N) == want


@st.composite
def planted_roots(draw):
    """p, distinct rational roots of valuation -2..2, some in close pairs.

    A pair is r and r + t p^(m+2) with t a unit: both of valuation m = v(r),
    agreeing to p^(m+2).
    """
    p = draw(st.sampled_from((3, 5)))
    units = st.integers(-4 * p, 4 * p).filter(lambda u: u % p)
    roots = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(-2, 2))
        r = draw(units) * Fraction(p) ** m
        roots.append(r)
        if draw(st.booleans()):
            roots.append(r + draw(units) * Fraction(p) ** (m + 2))
    return p, list(dict.fromkeys(roots))


@given(planted_roots(), st.integers(-3, 2), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_enumerate_planted_close_roots(case, lo, width):
    p, roots = case
    window = (lo, lo + width)
    want = sum(1 for r in roots if window[0] < _ival(r, p) < window[1])
    assert enumerate_padic_zeros(monic_from_roots(roots), p, window, N=20) == want

    r = roots[0]
    v = _ival(r, p)
    with pytest.raises(CertificationFailed):
        enumerate_padic_zeros(monic_from_roots(roots + [r]), p, (v - 1, v + 1), N=20)


def _ival(r, p):
    r = Fraction(r)
    if r == 0:
        return 10**9
    v, num, den = 0, r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
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


@pytest.mark.parametrize("edit, error", [("move-depths", DoubleCover),
                                         ("drop-annulus", CoverageGap)])
def test_cover_reads_the_published_annuli(deep_octic, edit, error):
    # the audit reads the regions a decomposition publishes, not its
    # cluster tree, so an edited annulus list is caught
    curve, dec = deep_octic
    annuli = list(dec.annuli)
    if edit == "move-depths":
        # the shell (0, 3) also takes v(x) = 2, inside the child's disks
        annuli[2] = dataclasses.replace(annuli[2], depths=(Fraction(0), Fraction(3)))
    else:
        annuli.pop(2)  # v(x) = 1, i.e. x = 3, 6 mod 9, left uncovered
    with pytest.raises(error):
        verify_decomposition_cover(curve, dataclasses.replace(dec, annuli=annuli), 4)


def test_cover_needs_enough_depth(octic):
    curve, dec = octic
    with pytest.raises(ValueError):
        verify_decomposition_cover(curve, dec, 1)


def test_cover_count_scales_without_enumerating_p_to_the_n():
    c = HyperellipticCurve(monic_from_roots([1, 2, 3, 4, 5]), 3, 30)
    dec = decompose(c)
    start = time.perf_counter()
    rep = verify_decomposition_cover(c, dec, 40)
    assert time.perf_counter() - start < 1
    assert rep["ok"] and rep["classes"] == 3**40


def test_cover_requires_disks():
    # non-integral roots: decomposition skips the disk regions
    c = HyperellipticCurve(monic_from_roots([Fraction(1, 3), 1, 2, 4, 5]), 3, 30)
    dec = decompose(c)
    assert dec.disks is None
    with pytest.raises(ValueError):
        verify_decomposition_cover(c, dec, 4)


@st.composite
def split_curves(draw):
    """(p, roots): 5 to 8 distinct integral branch points in [0, p^3)."""
    p = draw(st.sampled_from((3, 5, 7)))
    deg = draw(st.integers(5, 8))
    roots = draw(st.lists(st.integers(0, p**3 - 1), min_size=deg,
                          max_size=deg, unique=True))
    return p, roots


@given(split_curves())
@settings(max_examples=100, deadline=None)
def test_random_split_curves_tile_z_p_once(case):
    p, roots = case
    curve = HyperellipticCurve(monic_from_roots(roots), p, 20)
    dec = decompose(curve)
    assert sorted(int(r.lift()) for r in dec.tree.roots) == sorted(roots)
    if len({r % p for r in roots}) == 1:
        # one residue disk holds every root: no disk regions at depth 0
        assert dec.disks is None
        assert "disks-skipped-nonintegral-or-deep-roots" in dec.flags
        return
    # roots differ mod p^3, so every region is resolved mod p^3
    report = verify_decomposition_cover(curve, dec, 3)
    assert report["ok"] and report["classes"] == p**3
    # at the resolved depth each class stands for its lifts mod p^3
    least = verify_decomposition_cover(curve, dec)
    lifts = p ** (3 - least["modulus_exponent"])
    assert least["classes"] * lifts == p**3
    assert {i: n * lifts for i, n in least["shell_classes"].items()} \
        == report["shell_classes"]


@given(
    st.sampled_from((3, 5, 7)),
    st.lists(st.integers(-9, 9), min_size=5, max_size=8),
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
)
@settings(max_examples=150, deadline=None)
def test_random_curves_reject_only_as_non_split(p, lower, lead):
    try:
        curve = HyperellipticCurve(lower + [lead], p, 20)
    except ValueError:
        return  # not squarefree: refused before any root finding
    try:
        decompose(curve)
    except Exception as exc:
        assert isinstance(exc, NonSplitInput), repr(exc)
