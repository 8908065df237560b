"""Built-in acceptance checks.

Ten independent criteria covering the bound formulas, the zero counters,
the integrators, the decomposition, the special-fiber combinatorics and
the end-to-end point count.  Each criterion returns (ok, detail) and is
timed against its own budget; ``run_all`` never raises, it reports.

The same functions back both ``padicann selftest`` and the acceptance
test module, so there is exactly one definition of "passing".
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple


# ---------------------------------------------------------------------------
# helpers shared by several criteria
# ---------------------------------------------------------------------------


def _monic_from_roots(roots):
    poly = [Fraction(1)]
    for r in roots:
        new = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] += c
            new[i] -= Fraction(r) * c
        poly = new
    return poly


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1() -> Tuple[bool, str]:
    """N_local at (p, e, q) = (3, 1, 3) equals the closed rational-case form."""
    from .bounds import N_local, R_rational, torsion_bound

    checked = 0
    for g in range(3, 21):
        for r in range(0, g - 2):
            want = 8 * (r + 4) * (g - 1) + max(1, 4 * r) * g
            if N_local(3, 1, 3, g, r) != want or R_rational(1, g, r) != want:
                return False, f"mismatch at g={g}, r={r}"
            checked += 1
    if not (N_local(3, 1, 3, 3, 0) == torsion_bound(3) == 67):
        return False, "genus-3 rank-0 value is not 67"
    return True, f"{checked} (g, r) pairs; N_local(3,1,3,3,0) = 67 = torsion bound"


def criterion_2() -> Tuple[bool, str]:
    """Maximizing disks+annuli over t reproduces the direct formula."""
    from .bounds import N_local, n_local_by_maximization

    checked = 0
    for p in (3, 5, 7):
        for e in range(1, p - 1):
            for q in (p, p * p):
                for g in range(3, 13):
                    for r in range(0, g - 2):
                        if n_local_by_maximization(p, e, q, g, r) != N_local(p, e, q, g, r):
                            return False, f"split at p={p}, e={e}, q={q}, g={g}, r={r}"
                        checked += 1
    return True, f"{checked} parameter cells agree"


def criterion_3() -> Tuple[bool, str]:
    """Newton-polygon counts match exhaustive enumeration on planted roots."""
    from .intpoly import vp
    from .oracle import enumerate_padic_zeros
    from .series import LaurentPoly, count_zeros_valuation_range

    rng = random.Random(20250825)
    fixtures = 0
    while fixtures < 110:
        p = rng.choice((3, 5))
        deg = rng.randint(1, 6)
        pool = [n for n in range(-40, 41) if n != 0]
        roots = []
        while len(roots) < deg:
            base = rng.choice(pool)
            shift = rng.randint(-2, 3)
            root = Fraction(base) * Fraction(p) ** shift
            if root not in roots:
                roots.append(root)
        lo = rng.randint(-4, 1)
        hi = lo + rng.randint(2, 5)
        poly = _monic_from_roots(roots)
        want = sum(1 for r in roots if lo < vp(r, p) < hi)
        # the descent stops once every root certifies; the deepest fixture
        # over 200 other seeds of this generator needed 14 digits
        got = enumerate_padic_zeros(poly, p, (lo, hi), 20)
        newton = count_zeros_valuation_range(
            LaurentPoly.from_coeff_list(p, poly, 40), lo, hi
        )
        if not (got == newton == want):
            return False, (f"p={p} roots={roots} window=({lo},{hi}): "
                           f"oracle {got}, newton {newton}, planted {want}")
        fixtures += 1
    return True, f"{fixtures} fixtures, all three counts equal"


def criterion_4() -> Tuple[bool, str]:
    """The two-variable correction term collapses to e*floor(r/(p-e-1))."""
    from .bounds import Delta

    checked = 0
    for p in (3, 5, 7):
        for e in range(1, p - 1):
            for s in range(1, 7):
                for r in range(0, 13):
                    if Delta(s, r, p, e) != e * (r // (p - e - 1)):
                        return False, f"Delta({s},{r},{p},{e}) deviates"
                    checked += 1
    return True, f"{checked} (s, r, p, e) tuples agree"


def criterion_5() -> Tuple[bool, str]:
    """Integration laws on random annulus integrands."""
    from .integration import AnnulusIntegrand, abelian_integral_annulus, integrate_annulus
    from .padic import PAdic
    from .series import LaurentPoly, formal_integrate

    p, prec = 3, 20
    rng = random.Random(99)

    def unit():
        u = rng.randint(1, 3**6)
        return u if u % 3 else u + 1

    def point(v):
        return PAdic.from_rational(Fraction(unit()) * 3**v, p, prec)

    cases = 0
    for _ in range(130):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            n = rng.choice([n for n in range(-4, 5) if n != -1])
            terms[n] = Fraction(rng.randint(-50, 50))
        ell = LaurentPoly(p, terms, prec)
        c = PAdic.from_int(rng.randint(-20, 20), p, prec)
        integrand = AnnulusIntegrand(ell, c, None, (Fraction(0), Fraction(4)))
        x0, x1, x2 = point(1), point(2), point(3)

        part = integrate_annulus(integrand, x0, x1) + integrate_annulus(integrand, x1, x2)
        whole = integrate_annulus(integrand, x0, x2)
        if not part.agrees(whole):
            return False, "path additivity violated"
        cases += 1

        # Log0(p) = 0: the pure dz/z integral between xi and p*xi vanishes
        dlog = AnnulusIntegrand(LaurentPoly(p, {}, prec), PAdic.from_int(1, p, prec),
                                None, (Fraction(0), Fraction(4)))
        xi = point(rng.randint(1, 2))
        px = PAdic.from_int(p, p, prec) * xi
        if not integrate_annulus(dlog, xi, px).is_zero():
            return False, "dz/z between xi and p*xi did not vanish"
        cases += 1

        # formal integration inverts differentiation
        anti, res = formal_integrate(ell)
        back = anti.derivative()
        if not res.agrees(PAdic.zero(p)) and ell.coeff(-1).is_exact_zero():
            return False, "residue appeared out of nowhere"
        for n, coeff in ell.definite_terms().items():
            if not back.coeff(n).agrees(coeff):
                return False, f"derivative lost the z^{n} term"
        cases += 1

        # a = 0 makes the abelian integral the plain one
        withzero = AnnulusIntegrand(ell, c, PAdic.zero(p), (Fraction(0), Fraction(4)))
        if not abelian_integral_annulus(withzero, x0, x2).agrees(whole):
            return False, "a = 0 abelian integral differs from the plain integral"
        cases += 1
    return True, f"{cases} law instances hold"


def criterion_6() -> Tuple[bool, str]:
    """Decomposition shapes, exact residue coverage, orbit-count bound."""
    from .curves import HyperellipticCurve, decompose
    from .oracle import verify_decomposition_cover

    shaped = HyperellipticCurve(_monic_from_roots([0, 5, 10, 1, 26, 2, 3, 4]), 5, 30)
    dec5 = decompose(shaped)
    kinds = sorted(a.kind for a in dec5.annuli)
    if kinds != ["odd", "weierstrass"]:
        return False, f"expected one odd and one weierstrass annulus, got {kinds}"
    odd = next(a for a in dec5.annuli if a.kind == "odd")
    if odd.nu != 1:
        return False, f"odd annulus has nu = {odd.nu}, want 1"

    octic = HyperellipticCurve(_monic_from_roots([0, 3, 9, 1, 2, 4, 5, 7]), 3, 30)
    dec3 = decompose(octic)
    report = verify_decomposition_cover(octic, dec3, 4)
    if not report["ok"] or report["classes"] != 81:
        return False, "octic decomposition does not tile Z_3 mod 3^4"

    deep = HyperellipticCurve(_monic_from_roots([0, 9, 18, 1, 2, 4, 5, 7]), 3, 30)
    checked = []
    for curve, dec in ((shaped, dec5), (octic, dec3), (deep, decompose(deep))):
        limit = 2 * curve.genus - 1
        if dec.iota_orbit_count > limit:
            return False, f"iota orbits {dec.iota_orbit_count} exceed {limit}"
        checked.append(dec.iota_orbit_count)
    return True, (f"one odd(nu=1) + one weierstrass annulus; 81/81 residue "
                  f"classes covered once; orbit counts {checked} within bounds")


def criterion_7() -> Tuple[bool, str]:
    """Pullback supports sit inside their exponent windows; window shapes."""
    from .curves import (
        EVEN,
        ODD,
        WEIERSTRASS,
        AnnulusDescriptor,
        good_window_subspace,
        pullback_differential,
    )
    from .padic import PAdic

    def window_for(kind, nu, g):
        if kind == ODD:
            return (-2 * nu, 2 * g - 2 - 2 * nu)
        if kind == EVEN:
            return (-nu, g - 1 - nu)
        return (-g, g - 2)

    def descriptor(kind, nu, g):
        mk = lambda v: PAdic.from_rational(Fraction(v), 3, 20)
        return AnnulusDescriptor(
            kind=kind, theta0=tuple(range(2 * nu + 1)), nu=nu, genus=g,
            depths=(0, 1), domain=(0, 1),
            gamma=mk(4), alpha=mk(1),
            a_const=mk(3) if kind == WEIERSTRASS else None,
            center=PAdic.zero(3), split=True,
        )

    supports = 0
    for g in range(2, 9):
        for nu in range(1, g):
            for kind in (ODD, EVEN, WEIERSTRASS):
                if kind == WEIERSTRASS and nu != 1:
                    continue
                A = descriptor(kind, nu, g)
                lo, hi = window_for(kind, nu, g)
                if A.window != (lo, hi):
                    return False, f"core window mismatch for {kind}, g={g}, nu={nu}"
                for j in range(g):
                    data = pullback_differential(A, [0] * j + [1])
                    if not all(lo <= e <= hi for e in data.u.definite_terms()):
                        return False, f"{kind} g={g} nu={nu} j={j} leaves its window"
                    supports += 1
                for m in range(1, g + 1):
                    n1, n2, basis = good_window_subspace(A, m)
                    if not (n1 < -1 < n2 and n2 - n1 == max(2 * (g - m), 2)):
                        return False, f"good window shape broken at {kind}, g={g}, m={m}"
                    if m < g:
                        for j in basis:
                            data = pullback_differential(A, [0] * j + [1])
                            if not all(n1 <= e <= n2 for e in data.u.definite_terms()):
                                return False, f"good window containment fails, {kind}, g={g}, m={m}"
    return True, f"{supports} pullback supports contained; window shapes verified"


def criterion_8() -> Tuple[bool, str]:
    """Special-fiber graphs: generator, hand rejections, rewrite, bounds."""
    from .errors import (
        Disconnected,
        NonIntegralGenus,
        PadicannError,
        RelationViolated,
        UnclassifiableVertex,
    )
    from .graphs import (
        ArithGraph,
        Vertex,
        check_specialfiber_bounds,
        classify,
        local_modification,
        random_fiber_graph,
    )

    good = 0
    rewritten = 0
    for seed in range(1000):
        cls = classify(random_fiber_graph(random.Random(seed), max_genus=10))
        check_specialfiber_bounds(cls)  # raises on violation
        good += 1
        if cls.case3 or cls.case4:
            cls2 = classify(local_modification(cls))
            if cls2.genus != cls.genus:
                return False, f"seed {seed}: rewrite changed the genus"
            if not (cls2.a1_outside_chains > cls.a1_outside_chains):
                return False, f"seed {seed}: rewrite did not increase A^1 components"
            if cls2.case3 or cls2.case4:
                return False, f"seed {seed}: rewrite left case-3/4 vertices behind"
            rewritten += 1
    if rewritten < 50:
        return False, f"only {rewritten} rewrite opportunities in 1000 graphs"

    V, E = Vertex, ArithGraph
    mutations = [
        (ValueError, lambda: E([V(0, 0, 2)], [])),                       # m = 0
        (ValueError, lambda: E([V(1, -1, 2)], [])),                      # pa < 0
        (ValueError, lambda: E([V(1, 0, 2), V(1, 0, 2)],
                               [(0, 0, 1)])),                            # self edge
        (ValueError, lambda: E([V(1, 0, 2), V(1, 0, 2)],
                               [(0, 1, 1), (1, 0, 1)])),                 # duplicate pair
        (ValueError, lambda: E([V(1, 1, 2, (0, 0))], [])),               # bad annotation
        (RelationViolated, lambda: E([V(1, 1, 2)], []).validate()),      # missing edge
        (RelationViolated, lambda: E([V(1, 2, 4), V(2, 0, 0), V(1, 0, 0),
                                      V(1, 0, 0), V(1, 0, 0)],
                                     [(0, 1, 2), (1, 2, 1), (1, 3, 1),
                                      (1, 4, 1)]).validate()),           # wrong mult
        (Disconnected, lambda: E([V(1, 1, 0), V(1, 1, 0)], []).validate()),
        (NonIntegralGenus, lambda: E([V(1, 1, 0)], []).validate()),      # genus 1
        (UnclassifiableVertex, lambda: classify(
            E([V(1, 1, 3), V(1, 0, 0, (0, 2)), V(1, 1, 1)],
              [(0, 1, 2), (0, 2, 1)]))),                                 # annotation on a double edge
    ]
    for expected, attempt in mutations:
        try:
            attempt()
        except expected:
            continue
        except PadicannError as err:
            return False, f"mutation raised {type(err).__name__}, wanted {expected.__name__}"
        else:
            return False, f"a malformed graph was accepted ({expected.__name__} case)"
    return True, (f"{good} generated graphs pass bounds, {rewritten} rewrites "
                  f"increase A^1, {len(mutations)} malformed graphs rejected")


def criterion_9() -> Tuple[bool, str]:
    """Logarithm-image budget assembly and the density lower bound."""
    from .bounds import density_lower_bound, rholog_bounds

    if rholog_bounds(3).total != 984:
        return False, f"genus-3 total is {rholog_bounds(3).total}, want 984"
    for g in range(2, 31):
        b = rholog_bounds(g)
        if b.total != (3 * g - 3) * b.annulus + b.disks_total:
            return False, f"per-part assembly deviates at g={g}"
        complement = 1 - density_lower_bound(g)
        coeff = 2 * b.total + 2
        if complement != Fraction(coeff, 2**g):
            return False, f"density complement is not (2*total+2)/2^g at g={g}"
        if coeff != 288 * (g - 1) ** 2 + 398 * (g - 1) + 22:
            return False, f"closed form for the complement deviates at g={g}"
    for g in range(2, 41):
        if (density_lower_bound(g) > 0) != (g >= 17):
            return False, f"positivity flips at the wrong genus ({g})"
    return True, "genus-3 total 984; complement identity for g <= 30; positive iff g >= 17"


def criterion_10() -> Tuple[bool, str]:
    """Point count of a rank-0 genus-3 curve sits inside the uniform bound."""
    from .bounds import N_local
    from .oracle import search_rational_points

    result = search_rational_points([1, 0, 0, 0, 0, 0, 0, 1], 10**4)
    bound = N_local(3, 1, 3, 3, 0)
    if not 4 <= result.count <= bound:
        return False, f"count {result.count} outside [4, {bound}]"
    return True, f"{result.count} points up to height 10^4 (bound {bound})"


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionResult:
    id: int
    name: str
    ok: bool
    detail: str
    elapsed: float
    budget: float


CRITERIA: List[Tuple[str, Callable[[], Tuple[bool, str]], float]] = [
    ("local bound equals rational closed form", criterion_1, 1.0),
    ("t-maximization equals direct formula", criterion_2, 10.0),
    ("Newton counts equal exhaustive enumeration", criterion_3, 30.0),
    ("correction term collapses to its floor form", criterion_4, 1.0),
    ("integration laws hold on random integrands", criterion_5, 30.0),
    ("decomposition shape and residue coverage", criterion_6, 30.0),
    ("pullback supports stay inside windows", criterion_7, 5.0),
    ("fiber graphs: generate, reject, rewrite", criterion_8, 60.0),
    ("log-image budget and density bound", criterion_9, 1.0),
    ("rank-zero septic count within bound", criterion_10, 60.0),
]


def run_all() -> List[CriterionResult]:
    results = []
    for i, (name, fn, budget) in enumerate(CRITERIA, start=1):
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # honest red: report, never mask
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if ok and elapsed > budget:
            ok, detail = False, f"passed but took {elapsed:.1f}s > {budget:.0f}s budget"
        results.append(CriterionResult(i, name, ok, detail, elapsed, budget))
    return results
