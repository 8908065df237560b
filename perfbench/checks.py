"""Correctness checks on workload outputs, made apart from padicann.

Each ``*_problems`` function returns a list of human-readable problems;
an empty list means the output passed.  The references are exact
rational arithmetic, an exhaustive point search that uses no modular
filter (``brute_force_points``), the paper's bound formula, and literal
residue-class membership counts; none of them calls into padicann.
Values the program returns as p-adic numbers are read only through their
rational lift and absolute precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

import inputs
from inputs import points_at_infinity, valuation


# ---------------------------------------------------------------------------
# rational points
# ---------------------------------------------------------------------------


def brute_force_points(coeffs, height):
    """All affine points with x = a/b, |a|, b <= height, and the count at infinity.

    Only integer gcd and isqrt: V(a, b) = sum_i c_i a^i b^(n-i) is b^n f(a/b),
    so f(a/b) is a square exactly when V (n even) or V * b (n odd) is one.
    """
    coeffs = [int(c) for c in coeffs]
    n = len(coeffs) - 1
    points = set()
    for b in range(1, height + 1):
        bpow = [b**k for k in range(n + 1)]
        half = b ** ((n + 1) // 2)
        for a in range(-height, height + 1):
            if math.gcd(a, b) != 1:
                continue
            v = coeffs[n]
            for i in range(n - 1, -1, -1):
                v = v * a + coeffs[i] * bpow[n - i]
            w = v if n % 2 == 0 else v * b
            if w < 0:
                continue
            s = math.isqrt(w)
            if s * s == w:
                y = Fraction(s, half)
                points.add((Fraction(a, b), y))
                points.add((Fraction(a, b), -y))
    return points, points_at_infinity(coeffs)


def uniform_bound(g: int, r: int) -> int:
    """The paper's bound 8(r + 4)(g - 1) + max{1, 4r} g on #C(Q)."""
    return 8 * (r + 4) * (g - 1) + max(1, 4 * r) * g


def point_problems(job, affine, infinity_points) -> list:
    f = [Fraction(c) for c in job.coeffs]
    found = set(affine)
    problems = []
    for x, y in affine:
        if inputs.poly_eval(f, Fraction(x)) != Fraction(y) ** 2:
            problems.append(f"{job.name}: ({x}, {y}) is not on the curve")
        if (x, -y) not in found:
            problems.append(f"{job.name}: ({x}, {-y}) missing, set not closed under y -> -y")
    for pt in job.planted:
        if pt not in found:
            problems.append(f"{job.name}: planted point {pt} not found")
    want = points_at_infinity(job.coeffs)
    if infinity_points != want:
        problems.append(f"{job.name}: {infinity_points} points at infinity, want {want}")
    return problems


def septic_problems(count) -> list:
    bound = uniform_bound(3, 0)   # y^2 = x^7 + 1: genus 3, rank 0
    if count > bound:
        return [f"septic: {count} points exceed the uniform bound {bound}"]
    return []


def family_problems(job, affine, infinity_points, expected) -> list:
    problems = point_problems(job, affine, infinity_points)
    points, inf = expected
    if set(affine) != points or len(affine) != len(points):
        problems.append(f"{job.name}: {len(affine)} affine points, brute force "
                        f"finds {len(points)}")
    if infinity_points != inf:
        problems.append(f"{job.name}: {infinity_points} points at infinity, brute force {inf}")
    return problems


# ---------------------------------------------------------------------------
# local
# ---------------------------------------------------------------------------


def _agree(p, lifts, prec) -> bool:
    """sum of the signed lifts vanishes mod p^prec (exactly if prec is inf)."""
    total = sum(lifts, Fraction(0))
    if total == 0:
        return True
    return math.isfinite(prec) and valuation(total, p) >= prec


def tile_counts(p: int, N: int, decomposition):
    """How often each class of Z/p^N lies in a disk region or annulus shell.

    Enumerates every region's members directly: a disk {v(x - a) > l} is the
    progression a + p^(l+1) Z, a shell {lo < v(x - a) < hi} the union of
    a + p^v (units).  Shells of Weierstrass pairs lie inside their disk
    region and are left out, as the decomposition defines them.
    """
    modulus = p**N
    hits = [0] * modulus
    for region in decomposition.disks:
        if region.kind == "infinity":
            continue  # v(x) < 0 is outside Z_p
        step = p ** (int(region.level) + 1)
        for x in range(region.anchor % step, modulus, step):
            hits[x] += 1
    tree = decomposition.tree
    shell_classes = {}
    for idx, (parent, child) in enumerate(tree.edges()):
        if child.size == 2:
            continue
        anchor = int(tree.roots[child.least].lift())
        members = 0
        for v in range(int(parent.depth) + 1, int(child.depth)):
            for t in range(p ** (N - v)):
                if t % p:
                    hits[(anchor + p**v * t) % modulus] += 1
                    members += 1
        shell_classes[idx] = members
    return hits, shell_classes


def cover_problems(p, N, decomposition, report) -> list:
    hits, shells = tile_counts(p, N, decomposition)
    problems = []
    gaps = sum(1 for h in hits if h == 0)
    doubles = sum(1 for h in hits if h > 1)
    if gaps or doubles:
        problems.append(f"cover mod {p}^{N}: {gaps} classes uncovered, {doubles} covered twice")
    if report.get("classes") != p**N or report.get("shell_classes") != shells:
        problems.append(f"cover report {report.get('classes')} classes / "
                        f"{report.get('shell_classes')} disagrees with {p**N} / {shells}")
    return problems


def curve_problems(job, out) -> list:
    p = job.p
    name = f"curve p={p} roots={list(job.roots)}"
    problems = []

    lifts = sorted(r.lift() for r in out.curve.roots())
    if lifts != sorted(Fraction(r) for r in job.roots):
        problems.append(f"{name}: branch points {lifts} are not the planted roots")

    problems += [f"{name}: {m}" for m in
                 cover_problems(p, inputs.LOCAL_COVER_N, out.decomposition, out.cover)]

    genus = (len(job.roots) - 1) // 2
    if out.decomposition.iota_orbit_count > 2 * genus - 1:
        problems.append(f"{name}: {out.decomposition.iota_orbit_count} iota orbits "
                        f"exceed 2g - 1 = {2 * genus - 1}")

    for pb in out.pullbacks:
        where = f"{name}: {pb.annulus.kind} annulus, u~ = x^{pb.j}"
        lo, hi = pb.annulus.window
        u = pb.data.u.definite_terms()
        if not all(lo <= n <= hi for n in u):
            problems.append(f"{where}: support {sorted(u)} leaves the window [{lo}, {hi}]")

        # d(ell) + c dz/z must give back u, term by term
        minus_one = pb.data.u.coeff(-1)
        if not _agree(p, [pb.residue.lift(), -minus_one.lift()],
                      min(pb.residue.prec, minus_one.prec)):
            problems.append(f"{where}: residue is not the z^-1 coefficient")
        for n, a in u.items():
            if n == -1:
                continue
            e = pb.ell.coeff(n + 1)
            if not _agree(p, [(n + 1) * e.lift(), -a.lift()],
                          min(e.prec + valuation(n + 1, p), a.prec)):
                problems.append(f"{where}: d/dz of the z^{n + 1} term is not a_{n}")
        if not all(k != 0 and k - 1 in pb.data.u.terms for k in pb.ell.definite_terms()):
            problems.append(f"{where}: antiderivative has terms u does not explain")

        if pb.zeros is not None:
            n1, n2 = pb.ell.support()
            if not 0 <= pb.zeros <= n2 - n1:
                problems.append(f"{where}: {pb.zeros} zeros, more than the support "
                                f"width {n2 - n1}")
        if pb.integrals is not None:
            i01, i12, i02 = pb.integrals
            prec = min(i01.prec, i12.prec, i02.prec)
            if not _agree(p, [i01.lift(), i12.lift(), -i02.lift()], prec):
                problems.append(f"{where}: integral not additive along x0 -> x1 -> x2")
    return problems


def zero_problems(job, out) -> list:
    want = job.planted_count
    if out.newton == out.enumerated == want:
        return []
    return [f"zeros p={job.p} roots={list(job.roots)} window={job.window}: "
            f"planted {want}, newton {out.newton}, enumerated {out.enumerated}"]
