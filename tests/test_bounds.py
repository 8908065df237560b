import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicann.bounds import (
    B_A,
    BoundReport,
    N_local,
    R_rational,
    annulus_count_bound,
    bound_report,
    density_lower_bound,
    disk_count_bound,
    improved_bound,
    min_unlikely_n,
    n_local_by_maximization,
    n_local_majorants,
    points_on_annuli_bound,
    points_on_disks_bound,
    rholog_bounds,
    torsion_bound,
)
from padicann.errors import RankOutOfRange, RankTooLarge, UnsupportedRegime


def test_disk_count_examples():
    assert disk_count_bound(3, 3, 1) == 34
    assert disk_count_bound(3, 3, 0) == 43
    assert disk_count_bound(3, 3, 3) == 16
    with pytest.raises(ValueError):
        disk_count_bound(3, 3, 4)


def test_annulus_count_examples():
    assert annulus_count_bound(3, 0) == 3
    assert annulus_count_bound(3, 3) == 6
    assert annulus_count_bound(5, 2) == 9


def test_B_A_examples():
    assert B_A(3, 1, 2) == 8
    assert B_A(5, 1, 1) == 2
    assert B_A(3, 1, 4) == 16
    assert B_A(5, 1, 3) == 8
    assert B_A(7, 2, 4) == 12
    with pytest.raises(UnsupportedRegime):
        B_A(3, 2, 1)
    with pytest.raises(ValueError):
        B_A(5, 1, 0)


def test_points_on_disks_examples():
    assert points_on_disks_bound(34, 0, 3, 1) == 34
    assert points_on_disks_bound(43, 2, 3, 1) == 51
    assert points_on_disks_bound(16, 1, 5, 1) == 18


def test_points_on_annuli_examples():
    assert points_on_annuli_bound(3, 0, 3, 1, 0) == 24
    assert points_on_annuli_bound(4, 1, 3, 1, 1) == 72
    with pytest.raises(RankTooLarge):
        points_on_annuli_bound(3, 0, 3, 1, 1)


def test_N_local_examples():
    assert N_local(3, 1, 3, 3, 0) == 67
    assert N_local(3, 1, 3, 4, 1) == 136
    for g in range(3, 11):
        assert N_local(3, 1, 3, g, 0) == 33 * g - 32
    with pytest.raises(UnsupportedRegime):
        N_local(2, 1, 2, 3, 0)
    with pytest.raises(UnsupportedRegime):
        N_local(3, 2, 3, 3, 0)
    with pytest.raises(RankTooLarge):
        N_local(3, 1, 3, 3, 1)


@pytest.mark.parametrize("p, q", [(9, 9), (15, 15), (3, 5), (3, 6), (5, 15), (3, 1)])
def test_non_prime_p_or_q_off_the_powers_of_p_is_refused(p, q):
    for compute in (N_local, n_local_by_maximization, bound_report):
        with pytest.raises(ValueError, match="prime|power of p"):
            compute(p, 1, q, 3, 0)


def test_N_local_matches_explicit_maximization():
    for p in (3, 5, 7):
        for e in range(1, p - 1):
            for q in (p, p * p):
                for g in range(3, 13):
                    for r in range(0, g - 2):
                        assert N_local(p, e, q, g, r) == n_local_by_maximization(
                            p, e, q, g, r
                        )


def test_N_local_within_majorants_on_grid():
    for p in (3, 5, 7):
        for e in range(1, p - 1):
            for q in (p, p * p, p**3):
                for g in range(3, 13):
                    for r in range(0, g - 2):
                        value = N_local(p, e, q, g, r)
                        m1, m2 = n_local_majorants(p, e, q, g, r)
                        assert value <= m1 <= m2


def test_R_rational_examples():
    assert R_rational(1, 3, 0) == 67
    assert R_rational(1, 4, 1) == 136
    assert R_rational(1, 10, 3) == 624
    with pytest.raises(RankTooLarge):
        R_rational(1, 3, 1)
    with pytest.raises(UnsupportedRegime, match="no closed form"):
        R_rational(2, 5, 0)


def test_N_local_at_q3_equals_rational_bound():
    for g in range(3, 21):
        for r in range(0, g - 2):
            assert N_local(3, 1, 3, g, r) == R_rational(1, g, r)


def test_torsion_examples():
    assert torsion_bound(3) == 67
    assert torsion_bound(4) == 100
    for g in range(3, 21):
        assert torsion_bound(g) == R_rational(1, g, 0)


def test_improved_bound_examples():
    assert improved_bound(4, 1) == 130
    assert improved_bound(10, 3) == 536
    assert improved_bound(5, 2) == 211
    with pytest.raises(RankOutOfRange):
        improved_bound(4, 0)
    with pytest.raises(RankOutOfRange):
        improved_bound(4, 2)


def test_improved_bound_beats_general_bound():
    for g in range(4, 21):
        for r in range(1, g - 2):
            assert improved_bound(g, r) < R_rational(1, g, r)


def test_rholog_examples():
    b = rholog_bounds(3)
    assert b.annulus == 127
    assert b.core_disks == 42
    assert b.core_annuli == 6
    assert b.disks_total == 222
    assert b.total == 984
    assert rholog_bounds(2).total == 353
    for g in range(2, 31):
        rb = rholog_bounds(g)
        assert rb.total == rb.disks_total + rb.core_annuli * rb.annulus


def test_density_examples():
    assert density_lower_bound(2) == 1 - Fraction(708, 4)
    assert density_lower_bound(17) > 0
    assert density_lower_bound(16) < 0
    for g in range(2, 41):
        assert (density_lower_bound(g) > 0) == (g >= 17)


def test_density_coefficient_identity():
    for g in range(2, 31):
        coeff = 288 * (g - 1) ** 2 + 398 * (g - 1) + 22
        assert coeff == 2 * rholog_bounds(g).total + 2


def test_min_unlikely_n_examples():
    assert min_unlikely_n(6, 3, 0) == 5
    assert min_unlikely_n(6, 3, 1) == 7
    assert min_unlikely_n(0, 2, 0) == 3
    # least-integer property
    for dim_B in range(0, 12):
        for g in range(2, 7):
            for r in range(0, 4):
                n = min_unlikely_n(dim_B, g, r)
                threshold = Fraction(dim_B + g + g * r, g - 1)
                assert n > threshold
                assert n - 1 <= threshold


def test_bound_report_full_inputs():
    rep = bound_report(3, 1, 3, 3, 0)
    assert isinstance(rep, BoundReport)
    assert rep.N_local == 67
    assert rep.R_rational == 67
    assert rep.torsion_bound == 67
    assert rep.improved_bound is None  # r = 0 outside the improved range
    assert rep.min_unlikely_n == 5
    assert len(rep.per_t) == 4
    assert rep.per_t[1]["disks"] == 34
    d = rep.to_dict()
    assert d["rholog"]["total"] == 984
    assert d["density_lower"] == {"numerator": -981, "denominator": 4}


def test_bound_report_low_genus():
    rep = bound_report(3, 1, 3, 2, 0)
    assert rep.N_local is None
    assert rep.torsion_bound is None
    assert rep.rholog.total == 353
    d = rep.to_dict()
    assert d["N_local"] is None


def test_bound_report_unevaluated_degree():
    # no closed form for d > 1: the field is None, like any failed precondition
    rep = bound_report(3, 1, 3, 5, 1, d=2)
    assert rep.R_rational is None
    assert rep.to_dict()["R_rational"] is None
    assert rep.N_local == bound_report(3, 1, 3, 5, 1).N_local


# -- the report reads each formula's own refusals ------------------------------

REFUSALS = (UnsupportedRegime, RankTooLarge, RankOutOfRange)

# sha256 of ``_report_grid()``, recorded when ``bound_report`` still restated
# each formula's preconditions by hand: the report, or the error it raised,
# at every point of the grid.  To see what moved after a change, dump
# ``_report_grid()`` as JSON on both sides and diff them.
REPORT_GRID_SHA256 = "5693f624ab83c184d100cc4d4055c9c2743b75694ac78b5d566595e0ddcffbc7"


def _report_grid() -> list:
    out = []
    for p in (2, 3, 4, 5, 7, 9, 11):
        for e in range(5):
            for q in (p, p * p, p + 1):
                for g in range(9):
                    for r in range(-2, 8):
                        for d in (1, 2):
                            try:
                                rec = bound_report(p, e, q, g, r, d).to_dict()
                            except ValueError as exc:
                                rec = [type(exc).__name__, str(exc)]
                            out.append(rec)
    return out


def test_bound_reports_match_the_golden_hash():
    blob = json.dumps(_report_grid(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORT_GRID_SHA256


def _expect(value, formula, *args):
    """A report field is the formula's value, or None where it refuses."""
    if value is None:
        with pytest.raises(REFUSALS):
            formula(*args)
    else:
        assert value == formula(*args)


@st.composite
def report_inputs(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    e = draw(st.integers(1, p - 2))
    q = p ** draw(st.integers(1, 3))
    return p, e, q, draw(st.integers(2, 14)), draw(st.integers(0, 14)), draw(st.integers(1, 3))


@given(report_inputs())
@settings(max_examples=200, deadline=None)
def test_report_fields_are_the_formulas_or_their_refusals(inputs):
    p, e, q, g, r, d = inputs
    rep = bound_report(p, e, q, g, r, d)
    assert rep.inputs == {"p": p, "e": e, "q": q, "g": g, "r": r, "d": d}
    for t, row in enumerate(rep.per_t):
        assert row["disks"] == disk_count_bound(q, g, t)
        assert row["annuli"] == annulus_count_bound(g, t)
        assert row["points_on_disks"] == points_on_disks_bound(row["disks"], r, p, e)
        _expect(row.get("points_on_annuli"), points_on_annuli_bound, g, t, p, e, r)
    assert rep.B_A_r_plus_2 == B_A(p, e, r + 2)
    _expect(rep.N_local, N_local, p, e, q, g, r)
    if rep.N_local is None:
        assert rep.N_local_majorants is None
    else:
        assert rep.N_local_majorants == n_local_majorants(p, e, q, g, r)
    _expect(rep.R_rational, R_rational, d, g, r)
    _expect(rep.torsion_bound, torsion_bound, g)
    _expect(rep.improved_bound, improved_bound, g, r)
    assert rep.rholog == rholog_bounds(g)
    assert rep.density_lower == density_lower_bound(g)
    assert rep.min_unlikely_n == min_unlikely_n(3 * g - 3, g, r)


@pytest.mark.parametrize("d", [0, -1])
def test_a_degree_below_one_is_refused_at_every_genus_and_rank(d):
    for g in range(9):
        for r in range(-2, 8):
            with pytest.raises(ValueError, match="need d >= 1"):
                bound_report(3, 1, 3, g, r, d)
