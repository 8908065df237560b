"""Brute-force ground truths for cross-checking the analytic machinery.

Nothing here shares logic with the Newton-polygon counters or the cluster
decomposition: rational points come from an exhaustive height scan,
p-adic zero counts from residue enumeration plus Hensel certification,
and coverage reports from literal membership tests on every residue
class.  Slow by design, honest by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .curves import (
    Decomposition,
    HyperellipticCurve,
    _clear_denominators,
    _newton_refine,
    _poly_derivative,
    _poly_eval,
    _poly_gcd_degree,
    _vp,
)
from .errors import CertificationFailed, CoverageGap, DoubleCover
from .scanner import scan_candidates
from .series import LaurentPoly


# ---------------------------------------------------------------------------
# rational points up to height H
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """All rational points on y^2 = f(x) with x = a/b, |a|, b <= height."""

    affine: Tuple[Tuple[Fraction, Fraction], ...]
    infinity_points: int
    height: int

    @property
    def count(self) -> int:
        return len(self.affine) + self.infinity_points

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "infinity_points": self.infinity_points,
            "height": self.height,
            "affine": [[str(x), str(y)] for x, y in self.affine],
        }


def search_rational_points(f, height: int) -> SearchResult:
    """Exhaustive point search on y^2 = f(x) over x of height <= ``height``.

    f is given by ascending coefficients (integers, Fractions or strings);
    it must be squarefree of degree >= 1.  The result is closed under
    (x, y) -> (x, -y) and sorted; points at infinity are counted
    separately (one for odd degree, two for even degree with square
    leading coefficient, none otherwise).
    """
    coeffs = [Fraction(str(c)) if isinstance(c, str) else Fraction(c) for c in f]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ValueError("f must have degree >= 1")
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    if _poly_gcd_degree(coeffs, deriv) > 0:
        raise ValueError("f must be squarefree")
    if height < 1:
        raise ValueError("height must be >= 1")

    n = len(coeffs) - 1
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    # y^2 = f(x) and (den*y)^2 = (den^2 f)(x) have the same points, and the
    # scaled coefficients are integers.  Content is *not* divided out: that
    # would change the square class.
    ints = [int(c * den * den) for c in coeffs]

    points = set()
    for a, b in scan_candidates(ints, height):
        if math.gcd(a, b) != 1:
            continue
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
        x = Fraction(a, b)
        y = Fraction(s, den * b**n)
        points.add((x, y))
        points.add((x, -y))

    lc = ints[-1]
    if n % 2 == 1:
        inf = 1
    else:
        inf = 2 if lc > 0 and math.isqrt(lc) ** 2 == lc else 0
    return SearchResult(tuple(sorted(points)), inf, height)


# ---------------------------------------------------------------------------
# exhaustive p-adic zero enumeration on an open valuation window
# ---------------------------------------------------------------------------


def _as_term_map(f) -> Dict[int, Fraction]:
    if isinstance(f, LaurentPoly):
        if f.bound_terms():
            raise ValueError("oracle needs exact coefficients, got O(p^N) terms")
        return {n: c.lift() for n, c in f.definite_terms().items()}
    if isinstance(f, dict):
        return {
            int(n): Fraction(str(c)) if isinstance(c, str) else Fraction(c)
            for n, c in f.items()
        }
    return {i: Fraction(str(c)) if isinstance(c, str) else Fraction(c)
            for i, c in enumerate(f)}


def enumerate_padic_zeros(f, p: int, window, N: int = 6) -> int:
    """Count zeros of f in Q_p with valuation strictly inside ``window``.

    Scans every unit class u mod p^N at each integer valuation m in the
    open window, evaluating f(p^m u); candidate classes are certified as
    simple roots by the Hensel criterion v(f) > 2 v(f') and deduplicated
    through Newton refinement.  A class that vanishes deeper than the
    certification threshold without being certifiable raises
    CertificationFailed rather than guessing.

    Only zeros of integer valuation can exist in Q_p, so the scan over
    integer m is exhaustive for the window.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    terms = {n: c for n, c in _as_term_map(f).items() if c != 0}
    if not terms:
        raise ValueError("the zero polynomial has no isolated zeros")
    shift = min(terms)
    coeffs = [Fraction(0)] * (max(terms) - shift + 1)
    for n, c in terms.items():
        coeffs[n - shift] = c
    ints = _clear_denominators(coeffs)  # content-free; zero set unchanged
    if len(ints) == 1:
        return 0

    lo, hi = window
    lo, hi = Fraction(lo), Fraction(hi)
    found = set()
    for m in range(math.floor(lo) + 1, math.ceil(hi)):
        if not (lo < m < hi):
            continue
        if m >= 0:
            poly, scale = ints, m
        else:
            poly, scale = ints[::-1], -m  # zeros x of f <-> zeros 1/x
        deg = len(poly) - 1
        cap = 4 * N + scale * deg + 4
        P = p**cap
        deriv = _poly_derivative(poly)
        base = min(_vp(c, p, cap) + i * scale for i, c in enumerate(poly) if c)
        step = p**scale
        for u in range(1, p**N):
            if u % p == 0:
                continue
            x0 = u * step
            acc = 0
            for c in reversed(poly):
                acc = (acc * x0 + c) % P
            v0 = _vp(acc, p, cap)
            if v0 == 0:
                continue
            d = 0
            for c in reversed(deriv):
                d = (d * x0 + c) % P
            vd = _vp(d, p, cap)
            if vd < cap and v0 > 2 * vd:
                target = 2 * N + scale + 1
                root = _newton_refine(poly, deriv, x0, vd, p, target)
                # the certified root can sit deeper than the scan class that
                # found it; count it only at its own valuation
                if _vp(root, p, target) == scale:
                    found.add((m, root))
            elif v0 >= min(vd + scale + N, base + 2 * N):
                # a class holding a simple root reaches v0 = vd + m + N at
                # this resolution; vanishing that deep without certifying
                # means the scan cannot separate whatever is in there
                raise CertificationFailed(
                    f"f vanishes to order {v0} at valuation {m} but no "
                    f"simple root certifies there; raise N"
                )
    return len(found)


# ---------------------------------------------------------------------------
# coverage audit for a P^1 decomposition
# ---------------------------------------------------------------------------


def verify_decomposition_cover(curve: HyperellipticCurve,
                               decomposition: Decomposition,
                               N: int) -> dict:
    """Check that disks and annulus shells tile Z_p exactly once mod p^N.

    Every residue class mod p^N is tested for membership in each disk
    region {v(x - anchor) > level} and each annulus x-shell
    {parent_depth < v(x - anchor) < child_depth}.  Shells under a
    weierstrass disk region are subsumed by it and skipped.  The region
    at infinity covers v(x) < 0 and is outside the enumeration.

    Raises CoverageGap / DoubleCover, else returns a report with the
    per-annulus shell class counts.
    """
    if decomposition.disks is None:
        raise ValueError("decomposition carries no disk regions to audit")
    p = curve.p

    disks = []
    need = 1
    for i, r in enumerate(decomposition.disks):
        if r.kind == "infinity":
            continue
        level = int(r.level)
        disks.append((i, r.anchor, p ** (level + 1)))
        need = max(need, level + 1)

    tree = decomposition.tree
    shells = []
    for idx, (parent, child) in enumerate(tree.edges()):
        if child.size == 2:
            continue  # inside the weierstrass disk region
        anchor = int(tree.roots[child.least].lift())
        d_lo, d_hi = int(parent.depth), int(child.depth)
        shells.append((idx, anchor, d_lo, d_hi))
        need = max(need, d_hi)
    if N < need:
        raise ValueError(f"need N >= {need} to resolve every region")

    modulus = p**N
    shell_classes = {idx: 0 for idx, *_ in shells}
    gaps: List[int] = []
    doubles: List[int] = []
    for x in range(modulus):
        hits = 0
        for _, anchor, q in disks:
            if (x - anchor) % q == 0:
                hits += 1
        for idx, anchor, d_lo, d_hi in shells:
            v = _vp(x - anchor, p, N)
            if d_lo < v < d_hi:
                hits += 1
                shell_classes[idx] += 1
        if hits == 0:
            gaps.append(x)
        elif hits > 1:
            doubles.append(x)
    if gaps:
        raise CoverageGap(
            f"{len(gaps)} of {modulus} classes uncovered, first x = {gaps[0]}"
        )
    if doubles:
        raise DoubleCover(
            f"{len(doubles)} of {modulus} classes multiply covered, "
            f"first x = {doubles[0]}"
        )
    return {
        "p": p,
        "modulus_exponent": N,
        "classes": modulus,
        "disk_regions": len(disks),
        "shells": len(shells),
        "shell_classes": shell_classes,
        "infinity_excluded": True,
        "ok": True,
    }
