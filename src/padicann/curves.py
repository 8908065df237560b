"""Hyperelliptic curves y^2 = f(x) over Q_p and their annulus decompositions.

The branch points of f are organized into a cluster tree by the valuations of
their pairwise differences.  Each edge of the tree from a cluster to a proper
sub-cluster gives an annulus on the projective line free of branch points; the
annuli are classified odd / even / Weierstrass by the number of branch points
inside, and carry the constants (gamma, alpha, the x^2 - a datum) needed to
pull regular differentials back to Laurent data on the annulus.

The tree is read off the roots of f alone, so input curves must split over
Q_p at working precision; extension fields are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DegreeTooLarge,
    MissingAlpha,
    NonSplitInput,
    PrecisionInsufficient,
    UnsupportedRegime,
)
from .intpoly import (
    as_int,
    as_rational,
    clear_denominators,
    is_prime,
    is_qp_square,
    poly_derivative,
    poly_eval,
    square_scaled,
    squarefree_coefficients,
    vp,
)
from .padic import DEFAULT_PRECISION, INF, PAdic, is_square, sqrt

ODD = "odd"
EVEN = "even"
WEIERSTRASS = "weierstrass"


# ---------------------------------------------------------------------------
# Q_p root finding
# ---------------------------------------------------------------------------


def _newton_refine(coeffs, deriv, a: int, vd: int, p: int, target: int) -> int:
    """Refine a certified approximate root to an exact residue mod p^target."""
    modulus = p ** (target + vd)
    x = a % modulus
    for _ in range(target + 64):
        fx = poly_eval(coeffs, x)
        if fx % modulus == 0 and vp(fx, p, target + vd) >= target + vd:
            break
        u = poly_eval(deriv, x) // p**vd
        t = fx // p**vd
        x = (x - t * pow(u, -1, modulus)) % modulus
    return x % p**target


def _taylor_terms(coeffs: Sequence, a):
    """f(a), f'(a), f''(a)/2, ..., the coefficients of f(a + w), one per
    pass of synthetic division by x - a, on ints, rationals and a PAdic
    center.

    Each pass adds ``a`` times the entry above, starting from the top
    coefficient itself, so a PAdic center never meets an exact zero that
    would embed that coefficient at the default precision.
    """
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
        yield c[i]
    yield c[-1]


def _roots_in_class(coeffs: Sequence[int], a: int, p: int, k: int, v0) -> int:
    """The last i minimizing v(f_i) + ik, f_i = f^(i)(a)/i! and v0 = v(f_0).

    Once ik exceeds the least value so far, no later i can reach it, so
    the Taylor terms are read no further, and each valuation is read only
    as far as it could tie that least value.
    """
    best, inside = v0, 0
    terms = _taylor_terms(coeffs, a)
    next(terms)                                # f_0 = f(a)
    for i, fi in enumerate(terms, 1):          # v0 >= k, so f_1 is read
        w = vp(fi, p, best - i * k + 1) + i * k
        if w <= best:
            best, inside = w, i
        if (i + 1) * k > best:
            break
    return inside


def _zp_roots(coeffs: Sequence[int], p: int, prec: int,
              start: Optional[List[int]] = None) -> List[int]:
    """Certified simple roots in Z_p, as residues mod p^prec.

    Descends digit by digit through the classes a + p^k Z_p below the
    residues ``start`` mod p (default: all).  On a class f(a + p^k t) =
    sum_i f_i p^(ik) t^i with f_i = f^(i)(a)/i!, so a root forces
    f_0 = -sum_{i>=1} f_i p^(ik) t^i.  Each class is read cheapest first:

    1. v(f(a)) < k: every other term has valuation >= k; no root, drop.
    2. d = v(f'(a)) < k: the i = 1 term, of valuation k + d, is below every
       i >= 2 term (>= 2k).  Drop if v(f(a)) < k + d; else v(f(a)) > 2d and
       Hensel's lemma puts exactly one root in the class (f is injective
       there), which ``_newton_refine`` lifts.
    3. d >= k: build the f_i by synthetic division.  The class holds as
       many roots in C_p as the last i minimizing v(f_i) + ik
       (``_roots_in_class``): drop it at none, else split it into the p
       children.

    A class with one root holds a root in Q_p (its conjugates would sit
    there too), which case 2 certifies by depth v(f'(root)) + 1, even past
    depth prec.  Several roots in a class past depth prec, or two roots
    equal mod p^prec, cannot be separated at this precision.
    """
    deriv = poly_derivative(coeffs)
    roots: List[int] = []
    tied = 0
    frontier = list(range(p)) if start is None else start
    k = 0
    while frontier:
        k += 1
        kept = []
        for a in frontier:
            fa = poly_eval(coeffs, a)
            if fa % p:
                continue                      # v(f(a)) = 0 < k
            v0 = vp(fa, p)
            if v0 < k:
                continue
            d = vp(poly_eval(deriv, a), p)
            if d < k:
                if v0 >= k + d:
                    roots.append(_newton_refine(coeffs, deriv, a, d, p, prec))
                continue
            inside = _roots_in_class(coeffs, a, p, k, v0)
            if inside > 1 and k > prec:
                tied += inside
            elif inside:
                kept.append(a)
        step = p**k
        frontier = [b for a in kept for b in range(a, a + p * step, step)]
    tied += sum(1 for r in roots if roots.count(r) > 1)
    if tied:
        raise PrecisionInsufficient(
            f"{tied} root branch(es) cannot be separated at precision {prec}")
    return sorted(roots)


def _qp_roots(coeffs: Sequence[Fraction], p: int, prec: int) -> List[PAdic]:
    """All roots of f in Q_p (integral and not), certified simple.

    ``coeffs`` has a nonzero leading coefficient.  Raises NonSplitInput
    when fewer than deg(f) roots are found.
    """
    ints = clear_denominators(coeffs)
    deg = len(ints) - 1
    roots = []
    while ints and ints[0] == 0:
        ints = ints[1:]                # x | f: an exact root at 0
        roots.append(PAdic.zero(p))
    for a in _zp_roots(ints, p, prec):
        if a % p**prec == 0:
            roots.append(PAdic.inexact_zero(p, prec))
        else:
            roots.append(PAdic.from_int(a, p, prec))
    rev = ints[::-1]                   # zeros 1/x of f: nonzero leading term
    for b in _zp_roots(rev, p, prec, start=[0]):   # only v(x) < 0: p | b
        if b % p**prec != 0:
            roots.append(1 / PAdic.from_int(b, p, prec))
    if len(roots) != deg:
        raise NonSplitInput(
            f"found {len(roots)} of {deg} roots in Q_p at precision {prec}; "
            "the curve must split over Q_p, or raise precision"
        )
    return roots


# ---------------------------------------------------------------------------
# the curve
# ---------------------------------------------------------------------------


class HyperellipticCurve:
    """y^2 = f(x) with rational coefficients, over Q_p."""

    def __init__(self, f_coefficients, p: int, precision: int = DEFAULT_PRECISION):
        if precision < 1:
            raise ValueError(f"precision must be at least 1, got {precision}")
        self.f = coeffs = squarefree_coefficients(f_coefficients, 3)
        self.p = p
        self.precision = precision
        self.degree = len(coeffs) - 1
        self.genus = (self.degree - 1) // 2
        self.leading_coefficient = coeffs[-1]
        self._roots = None

    def roots(self) -> List[PAdic]:
        if self._roots is None:
            self._roots = _qp_roots(self.f, self.p, self.precision)
        return self._roots

    @property
    def has_infinite_branch_point(self) -> bool:
        return self.degree % 2 == 1

    @classmethod
    def from_json(cls, obj):
        return cls(
            obj["f"],
            as_int(obj["p"], "p"),
            as_int(obj.get("precision", DEFAULT_PRECISION), "precision"),
        )

    def __repr__(self):
        return f"HyperellipticCurve(deg={self.degree}, g={self.genus}, p={self.p})"


# ---------------------------------------------------------------------------
# cluster tree
# ---------------------------------------------------------------------------


@dataclass
class ClusterNode:
    indices: Tuple[int, ...]
    depth: Optional[Fraction]          # None for singleton leaves
    children: List["ClusterNode"] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def least(self) -> int:
        return self.indices[0]

    def __repr__(self):
        return f"ClusterNode({list(self.indices)}, depth={self.depth})"


class ClusterTree:
    def __init__(self, root: ClusterNode, roots: List[PAdic]):
        self.root = root
        self.roots = roots

    def edges(self) -> List[Tuple[ClusterNode, ClusterNode]]:
        """(parent, proper child) pairs, in deterministic order."""
        out = []

        def walk(node):
            for ch in node.children:
                if ch.size >= 2:
                    out.append((node, ch))
                    walk(ch)

        walk(self.root)
        return out


def _matrix_from_roots(roots: List[PAdic]):
    n = len(roots)
    m = [[INF] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            diff = roots[i] - roots[j]
            if diff.is_zero():
                raise PrecisionInsufficient(
                    f"roots {i} and {j} are indistinguishable at this precision"
                )
            m[i][j] = m[j][i] = diff.valuation
    return m


def _build_node(indices: List[int], matrix) -> ClusterNode:
    if len(indices) == 1:
        return ClusterNode((indices[0],), None)
    depth = min(matrix[i][j] for i in indices for j in indices if i < j)
    # on ultrametric input "v > depth" is an equivalence relation, so each
    # class is read off its first member (the diagonal is INF > depth)
    classes = {}
    for k in indices:
        seed = next((s for s in classes if matrix[s][k] > depth), k)
        classes.setdefault(seed, []).append(k)
    children = [_build_node(cls, matrix) for cls in classes.values()]
    children.sort(key=lambda ch: (ch.depth if ch.depth is not None else INF, ch.least))
    return ClusterNode(tuple(indices), depth, children)


def build_cluster_tree(curve: HyperellipticCurve) -> ClusterTree:
    """Nest the finite branch points by pairwise difference valuations."""
    roots = curve.roots()
    root = _build_node(list(range(len(roots))), _matrix_from_roots(roots))
    return ClusterTree(root, roots)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


@dataclass
class AnnulusDescriptor:
    kind: str
    theta0: Tuple[int, ...]            # indices of the enclosed branch points
    nu: int
    genus: int
    depths: Tuple[Fraction, Fraction]  # (parent depth, child depth) on the x-line
    domain: Tuple[Fraction, Fraction]  # valuation interval of the parameter t
    gamma: Optional[PAdic] = None
    alpha: Optional[PAdic] = None
    a_const: Optional[PAdic] = None
    center: Optional[PAdic] = None
    split: Optional[bool] = None
    count: Optional[int] = None        # curve-side annulus components (orbit view)
    flags: List[str] = field(default_factory=list)

    @property
    def window(self) -> Tuple[int, int]:
        """Exponent window of the pullbacks on the shrunk core annulus, by kind."""
        g, nu = self.genus, self.nu
        if self.kind == ODD:
            return (-2 * nu, 2 * g - 2 - 2 * nu)
        if self.kind == EVEN:
            return (-nu, g - 1 - nu)
        return (-g, g - 2)

    def to_json(self):
        def ser(v):
            return None if v is None else v.to_json()

        return {
            "kind": self.kind,
            "theta0": list(self.theta0),
            "nu": self.nu,
            "depths": [str(d) for d in self.depths],
            "domain": [str(d) for d in self.domain],
            "window": list(self.window),
            "gamma": ser(self.gamma),
            "alpha": ser(self.alpha),
            "a_const": ser(self.a_const),
            "center": ser(self.center),
            "split": self.split,
            "count": self.count,
            "flags": self.flags,
        }


@dataclass
class DiskRegion:
    kind: str                      # infinity | free | branch | weierstrass
    level: Optional[Fraction]      # disk is {v(x - anchor) > level}
    anchor: Optional[int]          # integer lift of the disk center, None for infinity
    count: int                     # curve-side residue components over the region
    may_contain_points: bool
    branch_index: Optional[int] = None
    annulus_ref: Optional[int] = None

    def to_json(self):
        return {
            "kind": self.kind,
            "level": None if self.level is None else str(self.level),
            "anchor": self.anchor,
            "count": self.count,
            "may_contain_points": self.may_contain_points,
            "branch_index": self.branch_index,
            "annulus_ref": self.annulus_ref,
        }


@dataclass
class Decomposition:
    curve: HyperellipticCurve
    tree: ClusterTree
    annuli: List[AnnulusDescriptor]
    disks: Optional[List[DiskRegion]]
    t_estimate: int
    iota_orbit_count: int
    flags: List[str]

    def to_json(self):
        return {
            "p": self.curve.p,
            "genus": self.curve.genus,
            "annuli": [a.to_json() for a in self.annuli],
            "disks": None if self.disks is None else [d.to_json() for d in self.disks],
            "t_estimate": self.t_estimate,
            "iota_orbit_count": self.iota_orbit_count,
            "flags": self.flags,
        }


def _gamma_for(curve, tree, child: ClusterNode, center: PAdic) -> PAdic:
    """lc * prod (center - theta_j) over the roots outside the child."""
    gamma = PAdic.from_rational(curve.leading_coefficient, curve.p, curve.precision)
    for j, theta in enumerate(tree.roots):
        if j not in child.indices:
            gamma = gamma * (center - theta)
    return gamma


def _classify_edge(curve, tree, parent: ClusterNode,
                   child: ClusterNode) -> AnnulusDescriptor:
    g = curve.genus
    s = child.size
    total_branch = curve.degree + (1 if curve.has_infinite_branch_point else 0)
    outside = total_branch - s
    d_par, d_ch = Fraction(parent.depth), Fraction(child.depth)
    flags = []

    if s == 2:
        kind, nu = WEIERSTRASS, 1
    elif s % 2 == 1:
        kind, nu = ODD, (s - 1) // 2
        if not 1 <= nu <= g - 1:
            flags.append("nu-out-of-range")
        if outside < 3:
            flags.append("exterior-singleton")
    else:
        kind, nu = EVEN, s // 2
        if not 2 <= nu <= g - 1:
            flags.append("nu-out-of-range")
        if outside == 2:
            flags.append("exterior-pair")

    alpha = a_const = split = None
    roots = tree.roots
    if kind == WEIERSTRASS:
        i1, i2 = child.indices
        center = (roots[i1] + roots[i2]) / 2
        diff = roots[i1] - roots[i2]
        a_const = (diff / 4) ** 2
    else:
        center = roots[child.least]
    gamma = _gamma_for(curve, tree, child, center)
    if kind in (EVEN, WEIERSTRASS):
        split = is_square(gamma)
        if split:
            alpha = sqrt(gamma)
        else:
            flags.append("non-split")

    if kind == ODD:
        domain = ((d_par - gamma.valuation) / 2, (d_ch - gamma.valuation) / 2)
        count = 1
    elif kind == EVEN:
        domain = (d_par, d_ch)
        count = 2 if split else 0
    else:
        domain = (d_par, 2 * d_ch - d_par)
        count = 1 if split else 0

    return AnnulusDescriptor(
        kind=kind, theta0=child.indices, nu=nu, genus=g,
        depths=(d_par, d_ch), domain=domain,
        gamma=gamma, alpha=alpha, a_const=a_const, center=center,
        split=split, count=count, flags=flags,
    )


def _build_disk_regions(curve, tree, annuli, edge_index) -> List[DiskRegion]:
    p = curve.p
    regions: List[DiskRegion] = []
    # f and its integer multiple have one square class at every x
    _, scaled_f = square_scaled(curve.f)

    if curve.has_infinite_branch_point:
        regions.append(DiskRegion("infinity", None, None, 1, True))
    else:
        lc_square = is_qp_square(scaled_f[-1], p)
        regions.append(
            DiskRegion("infinity", None, None, 2 if lc_square else 0, lc_square)
        )

    lifts = [int(r.lift()) for r in tree.roots]

    def walk(node: ClusterNode):
        d = int(node.depth)
        base = lifts[node.least]
        occupied = {}
        for ch in node.children:
            offset = (lifts[ch.least] - base) // p**d % p
            occupied[offset] = ch
        for s in range(p):
            ch = occupied.get(s)
            if ch is None:
                x_s = base + s * p**d
                cnt = 2 if is_qp_square(poly_eval(scaled_f, x_s), p) else 0
                regions.append(
                    DiskRegion("free", Fraction(d), x_s, cnt, cnt > 0)
                )
            elif ch.size == 1:
                regions.append(
                    DiskRegion(
                        "branch", Fraction(d), lifts[ch.least], 1, True,
                        branch_index=ch.least,
                    )
                )
            elif ch.size == 2:
                idx = edge_index[ch.indices]
                ann = annuli[idx]
                cnt = ann.count
                regions.append(
                    DiskRegion(
                        "weierstrass", Fraction(d), lifts[ch.least], cnt, True,
                        annulus_ref=idx,
                    )
                )
            else:
                walk(ch)

    walk(tree.root)
    return regions


_MAX_DECOMPOSE_P = 1 << 16
# roots and region centers are residues mod p^precision, and the root
# finder's cost grows faster than their size, so that size is bounded too
_MAX_DECOMPOSE_BITS = 1 << 13


def decompose(curve: HyperellipticCurve) -> Decomposition:
    """Split P^1(Q_p) along the cluster tree into annuli and residue disks."""
    if curve.genus < 2:
        raise ValueError("decomposition needs genus >= 2")
    if curve.p == 2:
        raise UnsupportedRegime("decomposition is implemented for odd p")
    if curve.p >= _MAX_DECOMPOSE_P:
        raise UnsupportedRegime(
            f"p = {curve.p} is too large: the decomposition has one disk per "
            f"free residue class, so p must be below {_MAX_DECOMPOSE_P}")
    if not is_prime(curve.p):
        raise ValueError(f"p = {curve.p} is not prime")
    if curve.precision * curve.p.bit_length() > _MAX_DECOMPOSE_BITS:
        raise UnsupportedRegime(
            f"precision {curve.precision} is too large at p = {curve.p}: "
            f"residues mod p^precision must fit in {_MAX_DECOMPOSE_BITS} bits")
    tree = build_cluster_tree(curve)
    flags = []

    annuli = []
    edge_index = {}
    for parent, child in tree.edges():
        ann = _classify_edge(curve, tree, parent, child)
        edge_index[child.indices] = len(annuli)
        annuli.append(ann)
        flags.extend(f"{ann.kind}:{f}" for f in ann.flags)

    edges = len(annuli)
    root = tree.root
    # For even degree the top cluster vertex has no branch point at infinity
    # behind it; with exactly two children it is a degree-2 vertex of the
    # branch-point hull and smooths away, joining its two incident edges.
    degenerate_root = (
        not curve.has_infinite_branch_point and len(root.children) == 2
    )
    iota_orbit_count = edges - (1 if degenerate_root else 0)
    if degenerate_root:
        flags.append("root-degree-two-merged")
    t_estimate = sum(1 for a in annuli if a.kind == EVEN)

    disks = None
    if all(r.valuation >= 0 for r in tree.roots) and root.depth == 0:
        disks = _build_disk_regions(curve, tree, annuli, edge_index)
    else:
        flags.append("disks-skipped-nonintegral-or-deep-roots")

    if iota_orbit_count > 2 * curve.genus - 1:
        flags.append("iota-orbit-bound-exceeded")
    return Decomposition(curve, tree, annuli, disks, t_estimate, iota_orbit_count, flags)


# ---------------------------------------------------------------------------
# differentials: pullbacks and exponent windows
# ---------------------------------------------------------------------------


def pullback_differential(A: AnnulusDescriptor, u_tilde) -> "LaurentData":
    """Laurent part of the pullback of u_tilde(x) dx / (2y) to the annulus.

    u_tilde is given by ascending rational coefficients of a polynomial of
    degree at most g-1, read by ``as_rational``.  They stay exact, so each
    term of the result is known to the precision of the center, gamma and
    alpha.  The unit factor of the pullback carries no zeros and is left
    symbolic; only the Laurent polynomial that controls zero counts returns.
    """
    from .series import LaurentData, LaurentPoly

    coeffs = [as_rational(c, "u_tilde") for c in u_tilde]
    g = A.genus
    if A.gamma is None:
        raise MissingAlpha("annulus descriptor lacks gamma")
    p = A.gamma.p
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) - 1 > g - 1:
        raise DegreeTooLarge(f"u~ degree {len(coeffs) - 1} exceeds g-1 = {g - 1}")
    if not coeffs:
        return LaurentData(LaurentPoly(p, {}), A.domain)

    if A.center is not None and not A.center.is_exact_zero():
        coeffs = list(_taylor_terms(coeffs, A.center))   # u~(center + w) in w

    terms = {}
    if A.kind == ODD:
        for k, b in enumerate(coeffs):
            terms[2 * (k - A.nu)] = b * A.gamma ** (k - A.nu)
    elif A.kind == EVEN:
        if A.alpha is None:
            raise MissingAlpha("even-case pullback needs alpha = sqrt(gamma)")
        inv = 1 / (2 * A.alpha)
        for k, b in enumerate(coeffs):
            terms[k - A.nu] = b * inv
    elif A.kind == WEIERSTRASS:
        if A.alpha is None:
            raise MissingAlpha("Weierstrass-case pullback needs alpha")
        if A.a_const is None:
            raise MissingAlpha("Weierstrass-case pullback needs the x^2 - a datum")
        inv = 1 / (2 * A.alpha)
        for k, b in enumerate(coeffs):
            for i in range(k + 1):
                e = 2 * i - k - 1
                term = b * math.comb(k, i) * A.a_const ** (k - i) * inv
                terms[e] = terms[e] + term if e in terms else term
    else:
        raise ValueError(f"unknown annulus kind {A.kind!r}")

    return LaurentData(LaurentPoly(p, terms), A.domain)


def good_window_subspace(A: AnnulusDescriptor, m: int):
    """Exponent window (n1, n2) of width max{2(g-m), 2} and the u~ monomials
    whose pullbacks are supported inside it, g = A.genus.  Requires 1 <= m <= g."""
    g = A.genus
    if not 1 <= m <= g:
        raise ValueError("need 1 <= m <= g")
    nu = A.nu
    span = g - m
    if A.kind == WEIERSTRASS:
        basis = list(range(0, span + 1))
        if m == g:
            return -2, 0, basis
        return -(span + 1), span - 1, basis
    j_lo = max(0, nu - span)
    basis = list(range(j_lo, j_lo + span + 1))
    if m == g:
        return -2, 0, basis
    if A.kind == ODD:
        n1 = 2 * (j_lo - nu)
        return n1, n1 + 2 * span, basis
    return -(span + 1), span - 1, basis
