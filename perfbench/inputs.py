"""Seeded inputs for the three workloads.

Everything here is plain Python with exact integers and Fractions; nothing
is imported from padicann, so the inputs (and what the checks expect of
them) are made apart from the program under test.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

# Heights and batch sizes.  README.md explains the choices.
SEPTIC = (1, 0, 0, 0, 0, 0, 0, 1)          # y^2 = x^7 + 1, genus 3
SEPTIC_HEIGHT = 2000
PLANTED_HEIGHT = 300
PLANTED_REPEATS = 2                        # curves per planted shape
FAMILY_REPEATS = 40                        # curves per degree
FAMILY_HEIGHT = 60
FAMILY_DEGREES = (7, 9, 11, 13, 15)        # genus 3..7, odd degree
LOCAL_CURVE_REPEATS = 4                    # times every (prime, pattern) pair
LOCAL_PRIMES = (3, 5, 7)
LOCAL_PRECISION = 20
LOCAL_COVER_N = 3                          # roots live mod p^3, so depths <= 2
ZERO_FIXTURE_REPEATS = 80                  # planted-root fixtures per prime
ZERO_FIRST_N = 2                           # enumerate_padic_zeros starts here,
ZERO_LAST_N = 6                            # escalates at most to here,
ZERO_MAX_CLASSES = 729                     # and needs p^N <= this (see hensel_depth)


# ---------------------------------------------------------------------------
# exact polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def is_squarefree(coeffs) -> bool:
    """gcd(f, f') is a nonzero constant, by Euclid over Q."""
    a = _strip([Fraction(c) for c in coeffs])
    b = _strip([i * c for i, c in enumerate(a)][1:])
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            a = _strip([a[i] - q * b[i - shift] if i >= shift else a[i]
                        for i in range(len(a) - 1)])
        a, b = b, a
    return len(a) == 1


def points_at_infinity(coeffs) -> int:
    """One for odd degree; two for even degree with a square leading
    coefficient, else none."""
    f = _strip(coeffs)
    lc = Fraction(f[-1])
    if (len(f) - 1) % 2 == 1:
        return 1
    if lc < 0:
        return 0
    num, den = lc.numerator, lc.denominator
    return 2 if math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den else 0


def from_roots(roots):
    """Monic polynomial with the given (Fraction) roots."""
    poly = [Fraction(1)]
    for r in roots:
        poly = poly_mul(poly, [-Fraction(r), Fraction(1)])
    return poly


# ---------------------------------------------------------------------------
# points: fixed septic plus seeded curves with planted points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointJob:
    name: str
    coeffs: Tuple[int, ...]                  # ascending, integers
    height: int
    planted: Tuple[Tuple[Fraction, Fraction], ...]   # (x, y) known to lie on it


# (name, deg q, deg P*R, k, points at infinity).  f = q^2 + k * P * R, where
# P vanishes at the planted x-values, so that f(x_i) = q(x_i)^2.  The
# shapes cover both degree parities, square, negative and non-square
# leading coefficients, and non-monic f.
PLANTED_SHAPES = (
    ("sextic-square-lc", 3, 5, 1, 2),     # lc = lc(q)^2
    ("sextic-negative-lc", 2, 6, -1, 0),  # lc = -lc(P) < 0
    ("quintic-non-monic", 2, 5, 3, 1),    # lc = 3 lc(P)
    ("octic-non-square-lc", 3, 8, 2, 0),  # lc = 2 lc(P), drawn non-square
)


def _planted_curve(rng, name, deg_q, deg_pr, k, at_infinity, height) -> PointJob:
    while True:
        xs = set()
        count = rng.randint(2, 3)
        while len(xs) < count:
            b = rng.randint(1, 9)
            xs.add(Fraction(rng.randint(-9 * b, 9 * b), b))
        xs = sorted(xs)
        P = [1]
        for x in xs:
            P = poly_mul(P, [-x.numerator, x.denominator])
        R = [rng.randint(-3, 3) for _ in range(deg_pr - len(xs))] + [1]
        q = [rng.randint(-4, 4) for _ in range(deg_q)] + [rng.choice((1, 2))]
        f = _strip(poly_add(poly_mul(q, q), [k * c for c in poly_mul(P, R)]))
        if (len(f) != max(2 * deg_q, deg_pr) + 1
                or points_at_infinity(f) != at_infinity or not is_squarefree(f)):
            continue
        planted = set()
        for x in xs:
            y = poly_eval([Fraction(c) for c in q], x)
            planted.add((x, y))
            planted.add((x, -y))
        return PointJob(name, tuple(f), height, tuple(sorted(planted)))


def points_jobs(seed: int) -> List[PointJob]:
    rng = random.Random(seed)
    septic_points = ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)),
                     (Fraction(0), Fraction(1)))
    jobs = [PointJob("septic", SEPTIC, SEPTIC_HEIGHT, septic_points)]
    for _ in range(PLANTED_REPEATS):
        for shape in PLANTED_SHAPES:
            jobs.append(_planted_curve(rng, *shape, PLANTED_HEIGHT))
    return jobs


# ---------------------------------------------------------------------------
# family: many small odd-degree curves at a small height
# ---------------------------------------------------------------------------


def family_jobs(seed: int) -> List[PointJob]:
    rng = random.Random(seed)
    jobs = []
    for _ in range(FAMILY_REPEATS):
        for deg in FAMILY_DEGREES:
            while True:
                f = [rng.randint(-3, 3) for _ in range(deg)]
                f.append(rng.choice((-3, -2, -1, 1, 2, 3)))
                if is_squarefree(f):
                    break
            jobs.append(PointJob(f"family-{len(jobs)}", tuple(f), FAMILY_HEIGHT, ()))
    return jobs


# ---------------------------------------------------------------------------
# local: split curves with planted integral roots, planted-root zero fixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveJob:
    p: int
    roots: Tuple[int, ...]       # planted integral branch points, in [0, p^3)
    coeffs: Tuple[Fraction, ...]
    unit_seed: int               # drives the integration points


@dataclass(frozen=True)
class ZeroJob:
    p: int
    roots: Tuple[Fraction, ...]
    coeffs: Tuple[Fraction, ...]
    window: Tuple[int, int]

    @property
    def planted_count(self) -> int:
        return sum(1 for r in self.roots
                   if self.window[0] < valuation(r, self.p) < self.window[1])


def valuation(x, p: int) -> int:
    x = Fraction(x)
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# Cluster patterns of the planted branch points.  A node is a tuple of its
# children and 0 is a single root; children of a node at depth d differ in
# their p-adic digit d.  Every node has at most three children, so each
# pattern fits p = 3.  Fixing the patterns fixes the decomposition's shape
# (annulus kinds, depths, windows) and so keeps the work per curve steady;
# the seed draws the digits.
CLUSTER_PATTERNS = (
    ((0, 0, 0), 0, 0),                    # deg 5: odd
    ((0, (0, 0)), 0, 0),                  # deg 5: odd around a weierstrass pair
    ((0, 0), (0, 0, 0), 0),               # deg 6: weierstrass + odd
    (((0, 0), 0), (0, 0), 0),             # deg 6: odd around a pair, weierstrass
    ((0, 0, 0), (0, 0), (0, 0)),          # deg 7: odd + two weierstrass
    (((0, 0), 0, 0), (0, 0), 0),          # deg 7: even around a pair, weierstrass
    (((0, 0), 0, 0), (0, 0, 0), 0),       # deg 8: even around a pair, odd
    (((0, 0, 0), 0), (0, 0), (0, 0)),     # deg 8: even around odd, two weierstrass
)


def _place(rng, node, p, depth, prefix, out):
    if node == 0:
        # free digits below the distinguishing one, up to p^3
        out.append(prefix + p ** depth * rng.randrange(p ** (3 - depth)))
        return
    for child, digit in zip(node, rng.sample(range(p), len(node))):
        _place(rng, child, p, depth + 1, prefix + digit * p ** depth, out)


def _curve_job(rng, p, pattern) -> CurveJob:
    roots = []
    _place(rng, pattern, p, 0, 0, roots)
    roots = tuple(sorted(roots))
    return CurveJob(p, roots, tuple(from_roots(roots)), rng.randrange(2**32))


def integer_content_free(coeffs) -> List[int]:
    """Scale rational coefficients to coprime integers."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    content = 0
    for c in ints:
        content = math.gcd(content, c)
    return [c // content for c in ints]


def hensel_depth(job: "ZeroJob") -> int:
    """Scan depth N at which every root in the window certifies.

    With roots r_i = p^m_i u_i, where roots of one valuation have distinct
    unit residues mod p, a scan class at valuation m holding root r_j has
    v(f) >= s + D + N and v(f') = s + D - m, where D = sum_i min(m, m_i)
    and s is the valuation of the leading coefficient of the integer
    polynomial (of the reversed one for m < 0).  The Hensel test
    v(f) > 2 v(f') passes once N > s + D - 2m.
    """
    p = job.p
    ints = integer_content_free(job.coeffs)
    vals = [valuation(r, p) for r in job.roots]
    lo, hi = job.window
    depth = 1
    for m in set(vals):
        if not lo < m < hi:
            continue
        if m >= 0:
            s, D = valuation(ints[-1], p), sum(min(m, mi) for mi in vals)
        else:
            s, D, m = valuation(ints[0], p), sum(min(-m, -mi) for mi in vals), -m
        depth = max(depth, s + D - 2 * m + 1)
    return depth


def _zero_job(rng, p) -> ZeroJob:
    """Planted roots p^m * u that the residue scan can certify cheaply.

    Roots of one valuation have pairwise different unit residues mod p, so
    no two agree to p^(m+1), and fixtures whose hensel_depth N has
    p^N > ZERO_MAX_CLASSES are drawn again; the scan cost of a fixture
    is then bounded and the enumeration certifies by N.
    """
    while True:
        deg = rng.randint(1, 6)
        used = {}
        roots = []
        while len(roots) < deg:
            m = rng.randint(-2, 3)
            u = rng.choice((-1, 1)) * rng.randint(1, 40)
            if u % p == 0 or u % p in used.setdefault(m, set()):
                continue
            used[m].add(u % p)
            roots.append(Fraction(u) * Fraction(p) ** m)
        lo = rng.randint(-3, 1)
        hi = lo + rng.randint(2, 5)
        job = ZeroJob(p, tuple(roots), tuple(from_roots(roots)), (lo, hi))
        if p ** hensel_depth(job) <= ZERO_MAX_CLASSES:
            return job


def local_jobs(seed: int):
    rng = random.Random(seed)
    curves = [_curve_job(rng, p, pattern)
              for _ in range(LOCAL_CURVE_REPEATS)
              for p in LOCAL_PRIMES for pattern in CLUSTER_PATTERNS]
    zeros = [_zero_job(rng, p)
             for _ in range(ZERO_FIXTURE_REPEATS) for p in LOCAL_PRIMES]
    return curves, zeros
