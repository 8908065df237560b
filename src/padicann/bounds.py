"""Closed-form bounds on rational/local points, in exact arithmetic.

Each calculator returns exact integers (or Fractions where a bound is
genuinely rational).  No floating point is used anywhere: the cross-checks
between the assembled local bound, its explicit t-maximization, and the
rational-point specialization are exact identities and are asserted as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Union

from .errors import RankOutOfRange, RankTooLarge, UnsupportedRegime
from .series import _check_regime, delta


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
    if r > g - 3:
        raise RankTooLarge(f"need r <= g - 3, got r = {r}, g = {g}")
    if r < 0:
        raise ValueError("need r >= 0")
    return annulus_count_bound(g, t) * B_A(p, e, r + 2)


def n_local_majorants(p: int, e: int, q: int, g: int, r: int):
    """The two displayed upper envelopes for the local bound, as Fractions."""
    mu = Fraction(p - 1, p - e - 1)
    m1 = (g - 1) * (2 + 2 * q + 4 * mu * (r + 3)) + g * max(3 * q - 4 * mu, 2 * mu * r)
    m2 = g * (2 + 5 * q + 6 * mu * (r + 2))
    return m1, m2


def _check_local_inputs(p: int, e: int, q: int, g: int, r: int) -> None:
    if p % 2 == 0:
        raise UnsupportedRegime("p must be odd")
    _check_regime(p, e)
    if g < 3:
        raise ValueError("need g >= 3")
    if r < 0:
        raise ValueError("need r >= 0")
    if r > g - 3:
        raise RankTooLarge(f"need r <= g - 3, got r = {r}, g = {g}")
    if q < p:
        raise ValueError("q must be a power of p, at least p")


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


@dataclass(frozen=True)
class Unevaluated:
    """Placeholder for a bound with no closed form at these inputs."""

    note: str


def R_rational(d: int, g: int, r: int) -> Union[int, Unevaluated]:
    """Uniform bound on rational points over a degree-d number field.

    Only d = 1 has a closed form: 8(r+4)(g-1) + max{1, 4r}g.  For d > 1 the
    bound is a maximum of local bounds over finitely many completions and is
    returned as an Unevaluated marker carrying the growth envelope.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if g < 3:
        raise ValueError("need g >= 3")
    if r < 0:
        raise ValueError("need r >= 0")
    if r > g - 3:
        raise RankTooLarge(f"need r <= g - 3, got r = {r}, g = {g}")
    if d == 1:
        return 8 * (r + 4) * (g - 1) + max(1, 4 * r) * g
    return Unevaluated(
        note=(
            "no closed form for d > 1; the bound grows like "
            "g * (p^d + d(r+1)) with p the smallest prime above d + 1"
        )
    )


def torsion_bound(g: int) -> int:
    """Bound 33(g-1) + 1 for points mapping into a finite subgroup."""
    if g < 3:
        raise ValueError("need g >= 3")
    return 33 * (g - 1) + 1


def improved_bound(g: int, r: int) -> int:
    """Sharper count 8rg + 33(g-1) - 1, valid for 1 <= r <= g - 3."""
    if not 1 <= r <= g - 3:
        raise RankOutOfRange(f"need 1 <= r <= g - 3, got r = {r}, g = {g}")
    return 8 * r * g + 33 * (g - 1) - 1


@dataclass(frozen=True)
class RhoLogBounds:
    """Image-size bounds for the rho-log map on disks and annuli."""

    annulus: int        # image points contributed by one annulus
    core_disks: int     # number of residue disks in the core covering
    core_annuli: int    # number of core annuli
    disks_total: int    # image points over all disks: 5 * core_disks + 6g - 6
    total: int          # assembled global bound

    def to_dict(self) -> Dict[str, int]:
        return {
            "annulus": self.annulus,
            "core_disks": self.core_disks,
            "core_annuli": self.core_annuli,
            "disks_total": self.disks_total,
            "total": self.total,
        }


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


def rho_image_laurent_bound(w: int) -> int:
    """Image bound 3w + 3 for a Laurent expansion of exponent width w."""
    if w < 0:
        raise ValueError("need w >= 0")
    return 3 * w + 3


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


def _smallest_prime_above(n: int) -> int:
    candidate = n + 1
    while True:
        if candidate >= 2 and all(
            candidate % k for k in range(2, int(candidate**0.5) + 1)
        ):
            return candidate
        candidate += 1


def asymptotic_R(d: int, g: int, r: int) -> int:
    """Order-of-magnitude envelope g(p^d + d(r+1)), p smallest prime > d+1.

    This is a growth envelope, not a proven bound with constant 1.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    p = _smallest_prime_above(d + 1)
    return g * (p**d + d * (r + 1))


# -- aggregate report ----------------------------------------------------------


@dataclass
class BoundReport:
    """Every bound the package can state for one set of inputs.

    Fields whose preconditions fail at these inputs are None.
    """

    inputs: Dict[str, int]
    per_t: List[Dict[str, int]]
    B_A_r_plus_2: Optional[int]
    N_local: Optional[int]
    N_local_majorants: Optional[tuple]
    R_rational: Optional[Union[int, Unevaluated]]
    torsion_bound: Optional[int]
    improved_bound: Optional[int]
    rholog: RhoLogBounds
    density_lower: Fraction
    min_unlikely_n: int

    def to_dict(self) -> dict:
        def enc(x):
            if isinstance(x, Fraction):
                return {"numerator": x.numerator, "denominator": x.denominator}
            if isinstance(x, Unevaluated):
                return {"unevaluated": x.note}
            return x

        return {
            "inputs": dict(self.inputs),
            "per_t": [dict(row) for row in self.per_t],
            "B_A_r_plus_2": self.B_A_r_plus_2,
            "N_local": self.N_local,
            "N_local_majorants": (
                [enc(m) for m in self.N_local_majorants]
                if self.N_local_majorants is not None
                else None
            ),
            "R_rational": enc(self.R_rational),
            "torsion_bound": self.torsion_bound,
            "improved_bound": self.improved_bound,
            "rholog": self.rholog.to_dict(),
            "density_lower": enc(self.density_lower),
            "min_unlikely_n": self.min_unlikely_n,
        }


def bound_report(
    p: int, e: int, q: int, g: int, r: int, d: int = 1
) -> BoundReport:
    """Evaluate every applicable bound at one parameter point."""
    if g < 2:
        raise ValueError("need g >= 2")
    _check_regime(p, e)
    per_t = []
    for t in range(g + 1):
        row = {
            "t": t,
            "disks": disk_count_bound(q, g, t),
            "annuli": annulus_count_bound(g, t),
            "points_on_disks": points_on_disks_bound(
                disk_count_bound(q, g, t), r, p, e
            ),
        }
        if 0 <= r <= g - 3:
            row["points_on_annuli"] = points_on_annuli_bound(g, t, p, e, r)
        per_t.append(row)

    rank_ok = g >= 3 and 0 <= r <= g - 3
    return BoundReport(
        inputs={"p": p, "e": e, "q": q, "g": g, "r": r, "d": d},
        per_t=per_t,
        B_A_r_plus_2=B_A(p, e, r + 2) if r >= 0 else None,
        N_local=N_local(p, e, q, g, r) if rank_ok and p % 2 else None,
        N_local_majorants=(
            n_local_majorants(p, e, q, g, r) if rank_ok and p % 2 else None
        ),
        R_rational=R_rational(d, g, r) if rank_ok else None,
        torsion_bound=torsion_bound(g) if g >= 3 else None,
        improved_bound=improved_bound(g, r) if 1 <= r <= g - 3 else None,
        rholog=rholog_bounds(g),
        density_lower=density_lower_bound(g),
        min_unlikely_n=min_unlikely_n(3 * g - 3, g, r),
    )
