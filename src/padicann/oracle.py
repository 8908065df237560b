"""Brute-force ground truths for cross-checking the analytic machinery.

Rational points come from an exhaustive height scan, p-adic zero counts
from a digit-by-digit descent over residue classes certified by Hensel's
lemma, and coverage reports from literal membership tests on every residue
class.  Nothing here calls the Newton-polygon counters, the cluster
decomposition or its root finder that it checks, nor imports their
modules: zero counts read exact rational terms, and the coverage audit
reads only the regions a decomposition publishes.  The only code shared
with them is the ``intpoly`` helpers (coefficient parsing, clearing
denominators, valuations).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .errors import CertificationFailed, CoverageGap, DoubleCover, UnsupportedRegime
from .intpoly import (
    as_int,
    as_rational,
    clear_denominators,
    is_prime,
    square_scaled,
    squarefree_coefficients,
    vp,
)

if TYPE_CHECKING:
    from .curves import Decomposition, HyperellipticCurve


# ---------------------------------------------------------------------------
# rational points up to height H
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """All rational points on y^2 = f(x) with x = a/b, |a|, b <= height.

    The stage counters say what the search did: the denominators b it
    scanned, the pairs (a, b) those make, the pairs that passed the
    modular sieve, the coprime ones among them, and the x = a/b it
    confirmed (one or two points each).
    """

    affine: Tuple[Tuple[Fraction, Fraction], ...]
    infinity_points: int
    height: int
    denominators: int
    pairs: int
    survivors: int
    coprime: int
    confirmed: int

    @property
    def count(self) -> int:
        return len(self.affine) + self.infinity_points

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "infinity_points": self.infinity_points,
            "height": self.height,
            "affine": [[str(x), str(y)] for x, y in self.affine],
            "stages": {
                "denominators": self.denominators,
                "pairs": self.pairs,
                "survivors": self.survivors,
                "coprime": self.coprime,
                "confirmed": self.confirmed,
            },
        }


def _admissible_denominators(lc: int, height: int) -> List[int]:
    """The b <= height, ascending, that an odd-degree point can have.

    For odd n and x = a/b in lowest terms, f(x) is a square exactly when
    b F(a, b) is one, with F(a, b) = sum_i c_i a^i b^(n-i).  F(a, b) is
    lc a^n mod b, so gcd(b, F(a, b)) divides the leading coefficient lc,
    and a prime that divides b but not lc divides b to an even power.  So
    b = d k^2 with d a squarefree divisor of lc.  Every b = d k^2 with d
    any divisor of lc is of that form, so the divisors need no factoring:
    at most min(height, |lc|) trial divisions find them.
    """
    c = abs(lc)
    return sorted({d * k * k
                   for d in range(1, min(height, c) + 1) if c % d == 0
                   for k in range(1, math.isqrt(height // d) + 1)})


def _even_degree_denominators(lc: int, height: int) -> List[int]:
    """The b <= height, ascending, that an even-degree point can have.

    For even n and x = a/b in lowest terms, f(x) is a square exactly when
    F(a, b) = sum_i c_i a^i b^(n-i) is one, and F(a, b) is lc a^n mod b
    with a^n a square prime to b.  So an odd prime q of b with q not
    dividing lc needs lc to be a square mod q.  For odd lc, 4 | b needs
    lc = 1 mod 4 and 8 | b needs lc = 1 mod 8, since an odd square is 1
    mod 8.  One sieve finds the odd primes q <= height, and the multiples
    of each q (and of 4 or 8) that fail are struck.
    """
    keep = bytearray([1]) * (height + 1)
    keep[0] = 0
    if lc % 2:
        m = 4 if lc % 4 != 1 else 8 if lc % 8 != 1 else 0
        if m:
            keep[m::m] = bytes(height // m)
    prime = bytearray([1]) * (height + 1)
    for q in range(3, math.isqrt(height) + 1, 2):
        if prime[q]:
            prime[q * q::q] = bytes((height - q * q) // q + 1)
    for q in compress(range(3, height + 1, 2), prime[3::2]):
        if lc % q and pow(lc, (q - 1) // 2, q) != 1:
            keep[q::q] = bytes(height // q)
    return list(compress(range(height + 1), keep))


def scan_candidates(coeffs, height, denominators):
    """``scanner.scan_candidates``, under the name the point search calls,
    so a wrapper set on the oracle sees every scan.  The scanner, and
    NumPy with it, is imported by the first call, not with the oracle."""
    from .scanner import scan_candidates as sieve
    return sieve(coeffs, height, denominators)


def search_rational_points(f, height: int) -> SearchResult:
    """Exhaustive point search on y^2 = f(x) over x of height <= ``height``.

    f is given by ascending coefficients (integers, Fractions or strings);
    it must be squarefree of degree >= 1.  The result is closed under
    (x, y) -> (x, -y) and sorted; points at infinity are counted
    separately (one for odd degree, two for even degree with square
    leading coefficient, none otherwise).  Only the denominators b that a
    point can have are scanned: for odd degree the b = d k^2 with d | c_n
    (``_admissible_denominators``), for even degree the b whose odd primes
    not dividing c_n have c_n as a square (``_even_degree_denominators``).
    """
    from .scanner import bank_words

    coeffs = squarefree_coefficients(f, 1)
    if height < 1:
        raise ValueError("height must be >= 1")

    n = len(coeffs) - 1
    den, ints = square_scaled(coeffs)
    lc = ints[-1]

    bank_words(height)  # refuse an oversized height before listing b
    if n % 2 == 1:
        denominators = _admissible_denominators(lc, height)
    else:
        denominators = _even_degree_denominators(lc, height)
    candidates = scan_candidates(ints, height, denominators)
    scanned = len(denominators)

    points = set()
    coprime = confirmed = 0
    for a, b in candidates:
        if math.gcd(a, b) != 1:
            continue
        coprime += 1
        # G(a, b) = sum_i c_i a^i b^(2n-i); f(a/b) = G(a, b) / b^(2n)
        g = 0
        bpow = b**n
        for c in reversed(ints):
            g = g * a + c * bpow
            bpow *= b
        if g < 0:
            continue
        s = math.isqrt(g)
        if s * s != g:
            continue
        confirmed += 1
        x = Fraction(a, b)
        y = Fraction(s, den * b**n)
        points.add((x, y))
        points.add((x, -y))

    if n % 2 == 1:
        inf = 1
    else:
        inf = 2 if lc > 0 and math.isqrt(lc) ** 2 == lc else 0
    return SearchResult(tuple(sorted(points)), inf, height, scanned,
                        scanned * (2 * height + 1), len(candidates), coprime,
                        confirmed)


# ---------------------------------------------------------------------------
# exhaustive p-adic zero enumeration on an open valuation window
# ---------------------------------------------------------------------------


def enumerate_padic_zeros(f, p: int, window, N: int = 6) -> int:
    """Count zeros of f in Q_p with valuation strictly inside ``window``.

    f is exact: a list of ascending coefficients, or a dict from exponent
    to coefficient (a Laurent polynomial), read by ``as_int``/``as_rational``.
    Zeros in Q_p have integer valuations, and only valuations where two
    terms of f tie can hold one (``_tied_valuations``).  So the search
    runs over those integers m in the open window, however wide it is, and
    finds the zeros p^m u, u a unit, digit by digit (see
    ``_count_at_valuation``).  N is the most digits of u the descent reads:
    a class still open after N digits (a repeated root, or roots closer
    than that) raises CertificationFailed rather than guessing.  A repeated
    root keeps classes open at every depth, and the work grows steeply with
    N, so N is at most 64.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > 64:
        raise ValueError(f"N = {N} is too large: the descent reads at most 64 digits")
    if not isinstance(f, dict):
        f = dict(enumerate(f))
    terms = {as_int(n, "exponent"): as_rational(c, f"term {n}") for n, c in f.items()}
    terms = {n: c for n, c in terms.items() if c}
    if not terms:
        raise ValueError("the zero polynomial has no isolated zeros")
    shift = min(terms)
    coeffs = [Fraction(0)] * (max(terms) - shift + 1)
    for n, c in terms.items():
        coeffs[n - shift] = c
    ints = clear_denominators(coeffs)  # content-free; zero set unchanged
    if len(ints) == 1:
        return 0

    lo, hi = (as_rational(v, "window") for v in window)
    return sum(_count_at_valuation(ints, p, m, N)
               for m in _tied_valuations(ints, p) if lo < m < hi)


def _tied_valuations(ints, p: int) -> List[int]:
    """The integer valuations m, ascending, that can carry a zero of ``ints``.

    At a zero of valuation m the terms c_i x^i cannot have one strictly
    smallest valuation v(c_i) + i m (ultrametric inequality), so two of
    them tie: m = (v(c_i) - v(c_j)) / (j - i).  That is at most
    n (n + 1) / 2 values, however wide the window.
    """
    terms = [(i, vp(c, p)) for i, c in enumerate(ints) if c]
    return sorted({(vi - vj) // (j - i)
                   for (i, vi), (j, vj) in combinations(terms, 2)
                   if (vi - vj) % (j - i) == 0})


def _count_at_valuation(ints, p: int, m: int, N: int) -> int:
    """Zeros of valuation m of the integer polynomial ``ints``.

    For m < 0 these are the inverses of the zeros of valuation -m of the
    reversed polynomial, so take s = |m| >= 0 and that polynomial f.  The
    descent visits the classes x + p^K Z_p, x = p^s u with u a unit mod p^k
    and K = s + k, for k = 1 .. N, and reads the exact Taylor coefficients
    f_i(x) = f^(i)(x) / i! (integers), with v0 = v(f(x)), vd = v(f'(x)),
    only as far as they can decide the class:

    * a root x + p^K t, t in Z_p, gives f(x) = -sum_{i>=1} f_i(x) p^(iK) t^i,
      so a class with v0 < min_i (v(f_i(x)) + iK) holds no root: dropped;
    * a kept class with vd < K has v0 >= K + vd > 2 vd, so Hensel's lemma
      puts a root in it, and only one: f_i(x) p^(iK) has valuation >= 2K
      > K + vd for i >= 2, so f is injective on the class.  It is counted;
    * any other class splits into its p children.

    A kept class is within p^-K of a root of f in C_p, and such disks are
    disjoint, so at most deg f classes stay open at each depth.
    """
    f = ints if m >= 0 else ints[::-1]
    s = abs(m)
    classes = range(1, p)
    count = 0
    for k in range(1, N + 1):
        K = s + k
        pK = p**K
        still_open = []
        for u in classes:
            taylor = _taylor_coefficients(f, u * p**s)
            f0 = next(taylor)
            if f0 % pK:
                continue  # v0 < K <= every v(f_i) + iK: no root
            f1 = next(taylor)
            if not _may_hold_a_root(vp(f0, p), K, chain([f1], taylor), p):
                continue
            if f1 % pK:
                count += 1
            else:
                still_open.append(u)
        if not still_open:
            return count
        classes = [u + j * p**k for u in still_open for j in range(p)]
    raise CertificationFailed(
        f"{len(still_open)} classes of valuation {m} may still hold roots after "
        f"{N} digits (a repeated root, or roots closer than that); raise N"
    )


def _may_hold_a_root(v0, K: int, taylor, p: int) -> bool:
    """Whether some f_i, i >= 1, has v(f_i) + iK <= v0, as a root in the
    class needs; once iK > v0 none can, so the passes stop there."""
    for i, c in enumerate(taylor, 1):
        if i * K > v0:
            return False
        if vp(c, p, v0 - i * K + 1) + i * K <= v0:
            return True
    return False


def _taylor_coefficients(f, x: int):
    """f(x), f'(x), f''(x)/2, ..., one at a time: repeated synthetic
    division by t - x."""
    while f:
        acc, quotient = 0, []
        for c in reversed(f):
            acc = acc * x + c
            quotient.append(acc)
        yield quotient.pop()
        f = quotient[::-1]


# ---------------------------------------------------------------------------
# coverage audit for a P^1 decomposition
# ---------------------------------------------------------------------------


def verify_decomposition_cover(curve: HyperellipticCurve,
                               decomposition: Decomposition,
                               N: Optional[int] = None) -> dict:
    """Check that disks and annulus shells tile Z_p exactly once mod p^N.

    Every residue class mod p^need is tested for membership in each
    published disk region {v(x - anchor) > level} and each published
    annulus's x-shell {d_lo < v(x - center) < d_hi}, (d_lo, d_hi) its
    ``depths``, where need is the deepest level + 1 or d_hi, so each
    membership is decided mod p^need.  Disks are grouped by level: a class
    x lies in as many disks of level l as have an anchor congruent to x
    mod p^(l + 1), so each class costs one lookup per level, however many
    disks there are.  Weierstrass annuli lie inside their disk region and
    are skipped.  The region at infinity covers v(x) < 0 and is outside
    the enumeration.

    N defaults to need.  A larger N changes only the counts: each class mod
    p^need stands for p^(N - need) classes mod p^N that hit the same regions,
    and its least member, the class's residue, is the first of them.

    The audit visits every class, so it refuses p^need > 2^20 with
    UnsupportedRegime.  Raises CoverageGap / DoubleCover, else returns a
    report with the per-annulus shell class counts.
    """
    if decomposition.disks is None:
        raise ValueError("decomposition carries no disk regions to audit")
    p = curve.p

    # p^(level + 1) -> {anchor mod p^(level + 1): number of disks}
    anchors_by_modulus: Dict[int, Counter] = {}
    disk_regions = 0
    need = 1
    for r in decomposition.disks:
        if r.kind == "infinity":
            continue
        level = int(r.level)
        q = p ** (level + 1)
        anchors_by_modulus.setdefault(q, Counter())[r.anchor % q] += 1
        disk_regions += 1
        need = max(need, level + 1)

    shells = []
    for idx, A in enumerate(decomposition.annuli):
        if A.kind == "weierstrass":
            continue  # inside the weierstrass disk region
        d_lo, d_hi = (int(d) for d in A.depths)
        shells.append((idx, int(A.center.lift()), d_lo, d_hi))
        need = max(need, d_hi)
    if N is None:
        N = need
    elif N < need:
        raise ValueError(f"need N >= {need} to resolve every region")
    if p**need > 1 << 20:
        raise UnsupportedRegime(
            f"the audit would visit {p}^{need} classes (need = {need}); "
            f"at most 2^20 are supported")

    lifts = p ** (N - need)
    modulus = p**N
    shell_classes = {idx: 0 for idx, *_ in shells}
    gaps: List[int] = []
    doubles: List[int] = []
    for x in range(p**need):
        hits = 0
        for q, anchors in anchors_by_modulus.items():
            hits += anchors.get(x % q, 0)
        for idx, anchor, d_lo, d_hi in shells:
            v = vp(x - anchor, p, need)
            if d_lo < v < d_hi:
                hits += 1
                shell_classes[idx] += lifts
        if hits == 0:
            gaps.append(x)
        elif hits > 1:
            doubles.append(x)
    if gaps:
        raise CoverageGap(
            f"{len(gaps) * lifts} of {modulus} classes uncovered, first x = {gaps[0]}"
        )
    if doubles:
        raise DoubleCover(
            f"{len(doubles) * lifts} of {modulus} classes multiply covered, "
            f"first x = {doubles[0]}"
        )
    return {
        "p": p,
        "modulus_exponent": N,
        "classes": modulus,
        "disk_regions": disk_regions,
        "shells": len(shells),
        "shell_classes": shell_classes,
        "infinity_excluded": True,
        "ok": True,
    }
