"""Closed-form bounds on rational/local points, in exact arithmetic.

Each calculator returns exact integers (or Fractions where a bound is
genuinely rational).  No floating point is used anywhere: the cross-checks
between the assembled local bound, its explicit t-maximization, and the
rational-point specialization are exact identities and are asserted as such.
The p > e + 1 regime and its correction delta(p, e, n) live here alone: the
disk bound 1 + n + delta and the annulus bound B_A both read them.

Each of the paper's hypotheses has one check: ``_check_regime`` (p > e + 1),
``_check_field`` (p prime, q a power of p) and ``_check_rank`` (0 <= r <= g - 3).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .errors import RankOutOfRange, RankTooLarge, UnsupportedRegime
from .intpoly import is_prime, vp


# -- the p > e + 1 regime and its corrections ----------------------------------


def _check_regime(p: int, e: int):
    if e < 1 or p <= e + 1:
        raise UnsupportedRegime(f"need p > e + 1, got p = {p}, e = {e}")


def delta(p: int, e: int, n: int) -> int:
    """Hensel-loss correction e * floor(n / (p - e - 1)) for p > e + 1."""
    _check_regime(p, e)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return e * (n // (p - e - 1))


def Delta(s: int, r: int, p: int, e: int) -> int:
    """max of sum_j delta(p, e, m_j) over s nonnegative parts with sum <= r.

    Computed by dynamic programming over parts; superadditivity of the floor
    makes the closed form e * floor(r / (p - e - 1)), which the test suite
    cross-checks.
    """
    _check_regime(p, e)
    if s < 1 or r < 0:
        raise ValueError("need s >= 1 and r >= 0")
    prev = [delta(p, e, b) for b in range(r + 1)]
    for _ in range(2, s + 1):
        cur = []
        for b in range(r + 1):
            cur.append(max(prev[b - m] + delta(p, e, m) for m in range(b + 1)))
        prev = cur
    return prev[r]


def zero_bound_disk(n: int, p: int, e: int) -> int:
    """Zero bound 1 + n + delta(p, e, n) on a closed disk for v(coeffs) tails."""
    return 1 + n + delta(p, e, n)


# -- disk and annulus counts ---------------------------------------------------


def disk_count_bound(q: int, g: int, t: int) -> int:
    """Residue disks to cover: (5q+2)(g-1) - 3q(t-1) for toric rank t."""
    if g < 2 or not 0 <= t <= g:
        raise ValueError("need g >= 2 and 0 <= t <= g")
    return (5 * q + 2) * (g - 1) - 3 * q * (t - 1)


def annulus_count_bound(g: int, t: int) -> int:
    """Residue annuli to cover: 2g - 3 + t."""
    if g < 2 or not 0 <= t <= g:
        raise ValueError("need g >= 2 and 0 <= t <= g")
    return 2 * g - 3 + t


def B_A(p: int, e: int, r: int) -> int:
    """Zero bound 2r + e*floor(2r/(p-e-1)) for an annulus subfamily of rank r."""
    _check_regime(p, e)
    if r < 1:
        raise ValueError("need r >= 1")
    return 2 * r + delta(p, e, 2 * r)


def points_on_disks_bound(N_D: int, r: int, p: int, e: int) -> int:
    """Points on N_D disks cut out by a rank-r constraint subspace."""
    _check_regime(p, e)
    if N_D < 0 or r < 0:
        raise ValueError("need N_D >= 0 and r >= 0")
    return N_D + 2 * r + delta(p, e, 2 * r)


def points_on_annuli_bound(g: int, t: int, p: int, e: int, r: int) -> int:
    """Points on the 2g-3+t annuli, using rank r+2 per annulus."""
    _check_rank(g, r)
    return annulus_count_bound(g, t) * B_A(p, e, r + 2)


def n_local_majorants(p: int, e: int, q: int, g: int, r: int):
    """The two displayed upper envelopes for the local bound, as Fractions."""
    mu = Fraction(p - 1, p - e - 1)
    m1 = (g - 1) * (2 + 2 * q + 4 * mu * (r + 3)) + g * max(3 * q - 4 * mu, 2 * mu * r)
    m2 = g * (2 + 5 * q + 6 * mu * (r + 2))
    return m1, m2


def _check_field(p: int, q: int) -> None:
    """p is prime and q, the residue field size, is a power of p."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if q < p or p ** vp(q, p) != q:
        raise ValueError("q must be a power of p, at least p")


def _check_rank(g: int, r: int) -> None:
    """0 <= r <= g - 3: the rank hypothesis, which also gives g >= 3."""
    if r < 0:
        raise ValueError("need r >= 0")
    if r > g - 3:
        raise RankTooLarge(f"need r <= g - 3, got r = {r}, g = {g}")


def _check_local_inputs(p: int, e: int, q: int, g: int, r: int) -> None:
    _check_regime(p, e)
    _check_field(p, q)
    _check_rank(g, r)


def N_local(p: int, e: int, q: int, g: int, r: int) -> int:
    """Uniform bound on points of a genus-g rank-r curve over the local field.

    Assembled from the disk count at t = 1, the rank correction, and the
    annulus terms; never exceeds either closed-form majorant (asserted).
    """
    _check_local_inputs(p, e, q, g, r)
    B = B_A(p, e, r + 2)
    value = (
        (5 * q + 2) * (g - 1)
        + 3 * q
        + 2 * r
        + delta(p, e, 2 * r)
        + (2 * g - 3) * B
        + g * max(0, B - 3 * q)
    )
    m1, m2 = n_local_majorants(p, e, q, g, r)
    assert value <= m1 <= m2
    return value


def n_local_by_maximization(p: int, e: int, q: int, g: int, r: int) -> int:
    """Re-derive the local bound by maximizing disks + annuli over 0 <= t <= g."""
    _check_local_inputs(p, e, q, g, r)
    return max(
        points_on_disks_bound(disk_count_bound(q, g, t), r, p, e)
        + points_on_annuli_bound(g, t, p, e, r)
        for t in range(g + 1)
    )


def R_rational(d: int, g: int, r: int) -> int:
    """Uniform bound on rational points over a degree-d number field.

    Only d = 1 has a closed form: 8(r+4)(g-1) + max{1, 4r}g.  For d > 1 the
    bound is a maximum of local bounds over finitely many completions, which
    is not evaluated: UnsupportedRegime.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    _check_rank(g, r)
    if d > 1:
        raise UnsupportedRegime(f"no closed form for d = {d} > 1")
    return 8 * (r + 4) * (g - 1) + max(1, 4 * r) * g


def torsion_bound(g: int) -> int:
    """Bound 33(g-1) + 1 for points mapping into a finite subgroup."""
    if g < 3:
        raise UnsupportedRegime("need g >= 3")
    return 33 * (g - 1) + 1


def improved_bound(g: int, r: int) -> int:
    """Sharper count 8rg + 33(g-1) - 1, valid for 1 <= r <= g - 3."""
    if r < 1:
        raise RankOutOfRange(f"need 1 <= r <= g - 3, got r = {r}, g = {g}")
    _check_rank(g, r)
    return 8 * r * g + 33 * (g - 1) - 1


@dataclass(frozen=True)
class RhoLogBounds:
    """Image-size bounds for the rho-log map on disks and annuli."""

    annulus: int        # image points contributed by one annulus
    core_disks: int     # number of residue disks in the core covering
    core_annuli: int    # number of core annuli
    disks_total: int    # image points over all disks: 5 * core_disks + 6g - 6
    total: int          # assembled global bound


def rholog_bounds(g: int) -> RhoLogBounds:
    if g < 2:
        raise ValueError("need g >= 2")
    annulus = 48 * (g - 1) + 31
    core_disks = 20 * g - 18
    core_annuli = 3 * g - 3
    disks_total = 5 * core_disks + 6 * g - 6
    total = 144 * (g - 1) ** 2 + 199 * (g - 1) + 10
    assert total == disks_total + core_annuli * annulus
    return RhoLogBounds(annulus, core_disks, core_annuli, disks_total, total)


def density_lower_bound(g: int) -> Fraction:
    """Lower bound on the density of odd-degree-(2g+1) curves with few points."""
    if g < 2:
        raise ValueError("need g >= 2")
    coeff = 288 * (g - 1) ** 2 + 398 * (g - 1) + 22
    assert coeff == 2 * rholog_bounds(g).total + 2
    return 1 - Fraction(coeff, 2**g)


def min_unlikely_n(dim_B: int, g: int, r: int) -> int:
    """Least n with n(g-1) strictly above dim_B + g + g*r."""
    if g < 2 or dim_B < 0 or r < 0:
        raise ValueError("need g >= 2, dim_B >= 0, r >= 0")
    threshold = Fraction(dim_B + g, g - 1) + Fraction(g * r, g - 1)
    n = int(threshold) + 1
    assert n > threshold >= n - 1
    return n


# -- aggregate report ----------------------------------------------------------


# the refusals of the paper's hypotheses; any other error is a bad input
_REFUSALS = (UnsupportedRegime, RankOutOfRange)


def _unless_refused(formula, *args):
    """``formula(*args)``, or None where the formula refuses these inputs."""
    try:
        return formula(*args)
    except _REFUSALS:
        return None


def _jsonable(x):
    """``x`` with each Fraction as {"numerator", "denominator"}, tuples as lists."""
    if isinstance(x, Fraction):
        return {"numerator": x.numerator, "denominator": x.denominator}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


@dataclass
class BoundReport:
    """Every bound the package can state for one set of inputs.

    A field is None exactly where its formula refuses these inputs.
    """

    inputs: Dict[str, int]
    per_t: List[Dict[str, int]]
    B_A_r_plus_2: int
    N_local: Optional[int]
    N_local_majorants: Optional[tuple]
    R_rational: Optional[int]
    torsion_bound: Optional[int]
    improved_bound: Optional[int]
    rholog: RhoLogBounds
    density_lower: Fraction
    min_unlikely_n: int

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))


def bound_report(
    p: int, e: int, q: int, g: int, r: int, d: int = 1
) -> BoundReport:
    """Evaluate every bound at one parameter point; None where one refuses."""
    if d < 1:
        raise ValueError("need d >= 1")
    if g < 2:
        raise ValueError("need g >= 2")
    _check_regime(p, e)
    _check_field(p, q)
    per_t = []
    for t in range(g + 1):
        disks = disk_count_bound(q, g, t)
        row = {
            "t": t,
            "disks": disks,
            "annuli": annulus_count_bound(g, t),
            "points_on_disks": points_on_disks_bound(disks, r, p, e),
        }
        on_annuli = _unless_refused(points_on_annuli_bound, g, t, p, e, r)
        if on_annuli is not None:
            row["points_on_annuli"] = on_annuli
        per_t.append(row)

    n_local = _unless_refused(N_local, p, e, q, g, r)
    return BoundReport(
        inputs={"p": p, "e": e, "q": q, "g": g, "r": r, "d": d},
        per_t=per_t,
        B_A_r_plus_2=B_A(p, e, r + 2),  # per_t has refused r < 0
        N_local=n_local,
        N_local_majorants=(
            None if n_local is None else n_local_majorants(p, e, q, g, r)
        ),
        R_rational=_unless_refused(R_rational, d, g, r),
        torsion_bound=_unless_refused(torsion_bound, g),
        improved_bound=_unless_refused(improved_bound, g, r),
        rholog=rholog_bounds(g),
        density_lower=density_lower_bound(g),
        min_unlikely_n=min_unlikely_n(3 * g - 3, g, r),
    )
