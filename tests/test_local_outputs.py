"""Golden outputs of the local pipeline on seeded split curves.

One hash pins, byte for byte, what the local side of the package returns
on curves whose branch points are planted integers and rationals for
p = 3, 5 and 7: each ``Decomposition.to_json()`` and cover audit, each
pullback ``LaurentPoly.to_json()``, its ``formal_integrate`` split and
Newton zero count, ``integrate_annulus`` between points of the annulus,
and Newton and enumerated zero counts of planted-root polynomials.  The
integer kernels under these (powers, ``log0``, the root finder) must
leave every ``val``, ``unit`` and ``prec`` as it was.  Errors enter the record by class name.

``PARENT_SHA256`` is the hash the object-arithmetic pipeline gave, when
``x ** 0`` was 1 at the absolute precision of x.  Now it is 1 at the
relative precision of x, which moves the pullback terms with a factor
gamma^0 or a^0 and what is integrated from them, so
``GOLDEN_SHA256`` differs; with the old ``x ** 0`` put back, the
pipeline must give ``PARENT_SHA256`` again, which pins every other
digit to the object-arithmetic results.

To see what moved after a change, dump ``local_outputs()`` as JSON on
both sides and diff them.
"""

import hashlib
import json
import random
from fractions import Fraction

from padicann.curves import ODD, HyperellipticCurve, decompose, pullback_differential
from padicann.errors import CertificationFailed, PadicannError
from padicann.integration import AnnulusIntegrand, integrate_annulus
from padicann.oracle import enumerate_padic_zeros, verify_decomposition_cover
from padicann.padic import DEFAULT_PRECISION, PAdic
from padicann.series import (
    LaurentData,
    LaurentPoly,
    count_zeros_valuation_range,
    formal_integrate,
)

GOLDEN_SHA256 = "1e338c9a84fc2bae9146660c36a3c4a7d71e160d9670db91a113f0bd84391dc5"
PARENT_SHA256 = "b6c91cd22af6f46348822f79ad9eb7220aac405adc5f43ba45b30fcf0067adf9"

PRIMES = (3, 5, 7)
CURVES_PER_PRIME = 20
ZERO_JOBS_PER_PRIME = 16


def poly_from_roots(roots, lc=1):
    poly = [Fraction(lc)]
    for r in roots:
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    return poly


def _attempt(compute):
    """``compute()``, or the class name of the package error it raised."""
    try:
        return compute()
    except PadicannError as exc:
        return {"error": type(exc).__name__}


def _split_curve(rng, p):
    """Distinct planted roots: integers mod p^3 that share leading digits
    often, so clusters nest, and now and then one of negative valuation."""
    deg = rng.randint(5, 8)
    roots = set()
    while len(roots) < deg:
        r = Fraction(rng.choice((rng.randrange(p**3), rng.randrange(p**2) * p,
                                 rng.randrange(p))))
        if rng.random() < 0.06:
            r = (r + 1) / p
        roots.add(r)
    lc = rng.choice((1, 1, -1, 2, p, Fraction(1, p)))
    return sorted(roots), lc, rng.choice((8, 12, 20, 20, 30))


def _annulus_points(rng, p, domain):
    """Points of integer valuation inside the open domain, at mixed precision."""
    lo, hi = domain
    vals = [v for v in range(int(lo) - 1, int(hi) + 2) if lo < v < hi]
    if not vals:
        return []
    pts = []
    for _ in range(3):
        v = rng.choice(vals)
        unit = rng.randrange(1, p**6)
        if unit % p == 0:
            unit += 1
        pts.append(PAdic(p, v, unit, v + rng.randint(2, 24)))
    return pts


def _pullback_records(rng, p, A):
    out = []
    u_tildes = [[0] * j + [1] for j in range(A.genus)]
    u_tildes.append([Fraction(rng.randint(-9, 9), rng.choice((1, 2, p)))
                     for _ in range(A.genus)])
    for u_tilde in u_tildes:
        data = pullback_differential(A, u_tilde)
        ell, c = formal_integrate(data.u)
        rec = {"u_tilde": [str(b) for b in u_tilde],
               "pullback": data.u.to_json(),
               "ell": ell.to_json(), "c": c.to_json()}
        rec["zeros_u"] = _attempt(lambda: count_zeros_valuation_range(data, *data.domain))
        rec["zeros_ell"] = _attempt(lambda: count_zeros_valuation_range(
            LaurentData(ell, data.domain), *data.domain))
        integrand = AnnulusIntegrand(ell, c, None, data.domain)
        pts = _annulus_points(rng, p, data.domain)
        rec["integrals"] = [
            _attempt(lambda: integrate_annulus(integrand, x0, x1).to_json())
            for x0, x1 in zip(pts, pts[1:] + pts[:1])]
        out.append(rec)
    return out


def _curve_record(rng, p):
    roots, lc, precision = _split_curve(rng, p)
    rec = {"p": p, "roots": [str(r) for r in roots], "lc": str(lc),
           "precision": precision}
    curve = HyperellipticCurve(poly_from_roots(roots, lc), p, precision)
    dec = _attempt(lambda: decompose(curve))
    if isinstance(dec, dict):
        rec["decomposition"] = dec
        return rec
    rec["decomposition"] = dec.to_json()
    if dec.disks is not None:
        rec["cover"] = _attempt(lambda: verify_decomposition_cover(curve, dec))
    rec["pullbacks"] = [_pullback_records(rng, p, A) for A in dec.annuli
                        if A.gamma is not None and (A.kind == ODD or A.split)]
    return rec


def _zero_record(rng, p):
    """Newton and enumerated counts for planted roots p^m u in a window."""
    roots = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 30)) * Fraction(p) ** rng.randint(-2, 3)
             for _ in range(rng.randint(1, 5))]
    coeffs = poly_from_roots(sorted(set(roots)), rng.choice((1, 3, Fraction(1, 2))))
    lo = rng.randint(-3, 1)
    window = (lo, lo + rng.randint(2, 5))
    rec = {"p": p, "coeffs": [str(c) for c in coeffs], "window": list(window)}
    rec["newton"] = _attempt(lambda: count_zeros_valuation_range(
        LaurentPoly.from_coeff_list(p, coeffs, 40), *window))
    rec["enumerated"] = {"error": "CertificationFailed"}
    for N in range(2, 7):
        try:
            rec["enumerated"] = [N, enumerate_padic_zeros(coeffs, p, window, N)]
            break
        except CertificationFailed:
            continue
    return rec


def local_outputs():
    """Every record the golden hash covers, in a fixed order."""
    rng = random.Random(20261020)
    records = []
    for p in PRIMES:
        records += [_curve_record(rng, p) for _ in range(CURVES_PER_PRIME)]
        records += [_zero_record(rng, p) for _ in range(ZERO_JOBS_PER_PRIME)]
    return records


def _hash():
    return hashlib.sha256(json.dumps(local_outputs(), sort_keys=True).encode()).hexdigest()


def test_local_outputs_match_the_golden_hash():
    assert _hash() == GOLDEN_SHA256


def test_with_the_old_zeroth_power_the_parent_hash_comes_back(monkeypatch):
    power = PAdic.__pow__

    def old_power(x, k):
        if k == 0:
            return PAdic.from_int(1, x.p, DEFAULT_PRECISION if x.is_exact_zero() else x.prec)
        return power(x, k)

    monkeypatch.setattr(PAdic, "__pow__", old_power)
    assert _hash() == PARENT_SHA256
