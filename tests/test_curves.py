import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicann.curves import (
    EVEN,
    ODD,
    WEIERSTRASS,
    AnnulusDescriptor,
    HyperellipticCurve,
    build_cluster_tree,
    decompose,
    good_window_subspace,
    pullback_differential,
)
from padicann.errors import (
    DegreeTooLarge,
    MissingAlpha,
    NonSplitInput,
    PrecisionInsufficient,
    UnsupportedRegime,
)
from padicann.intpoly import poly_derivative, poly_eval, vp
from padicann.oracle import enumerate_padic_zeros
from padicann.padic import PAdic


def poly_from_roots(roots, lc=1):
    poly = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        new = [Fraction(0)] * (len(poly) + 1)
        for i, a in enumerate(poly):
            new[i + 1] += a
            new[i] -= r * a
        poly = new
    return [a * Fraction(lc) for a in poly]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def curve_from_roots(roots, p, lc=1, precision=20):
    return HyperellipticCurve(poly_from_roots(roots, lc), p, precision)


def node_values(tree, node):
    return sorted(int(tree.roots[i].lift()) for i in node.indices)


OCTIC_ROOTS = [0, 3, 9, 1, 2, 4, 5, 7]


# ---------------------------------------------------------------------------
# cluster trees
# ---------------------------------------------------------------------------


def test_octic_cluster_tree_structure():
    curve = curve_from_roots(OCTIC_ROOTS, 3)
    tree = build_cluster_tree(curve)
    root = tree.root
    assert root.depth == 0
    kids = [(node_values(tree, ch), ch.depth) for ch in root.children]
    assert kids == [([0, 3, 9], 1), ([1, 4, 7], 1), ([2, 5], 1)]
    inner = root.children[0]
    sub = [(node_values(tree, ch), ch.depth) for ch in inner.children]
    assert sub == [([0, 9], 2), ([3], None)]


def test_octic_named_clusters_present():
    # the size-3 cluster at depth 1 and its two-element sub-cluster at depth 2
    curve = curve_from_roots(OCTIC_ROOTS, 3)
    tree = build_cluster_tree(curve)
    proper = [tree.root] + [child for _, child in tree.edges()]
    found = {tuple(node_values(tree, n)): n.depth for n in proper}
    assert found[(0, 3, 9)] == 1
    assert found[(0, 9)] == 2


def test_no_cluster_tree_is_flat():
    curve = curve_from_roots([0, 1, 2, 3, 4, 5], 7)
    tree = build_cluster_tree(curve)
    assert all(ch.size == 1 for ch in tree.root.children)
    assert tree.edges() == []


def test_roots_with_negative_valuation():
    # (3x-1) contributes the root 1/3
    f = poly_from_roots([0, 1, 2])
    f = [a - 3 * b for a, b in zip(f + [Fraction(0)], [Fraction(0)] + f)]
    # f above is (1-3x) * x(x-1)(x-2); sign is irrelevant for root-finding
    curve = HyperellipticCurve(f, 3)
    roots = curve.roots()
    assert len(roots) == 4
    # the factor x gives an exact zero root (valuation +infinity)
    assert sorted(r.valuation for r in roots) == [-1, 0, 0, math.inf]
    assert any(r.lift() == Fraction(1, 3) for r in roots)


def test_nonsplit_curve_raises():
    # x^2+1 stays irreducible over Q_3
    f = [Fraction(c) for c in [0, 2, -3, 3, -3, 1]]  # x(x-1)(x-2)(x^2+1)
    curve = HyperellipticCurve(f, 3)
    with pytest.raises(NonSplitInput):
        curve.roots()


def test_indistinguishable_roots_need_more_precision():
    roots = [0, 1, 1 + 3**25]
    with pytest.raises(PrecisionInsufficient):
        curve_from_roots(roots, 3, precision=20).roots()
    got = curve_from_roots(roots, 3, precision=30).roots()
    assert sorted(int(r.lift()) for r in got) == roots


def test_depth_cap_is_the_first_digit_that_separates_a_close_pair():
    # 1 and 1 + 3^5 share every class down to depth 5 and part at depth 6;
    # both classes of depth 6 keep a root, so precision 5 cannot certify them
    roots = [0, 1, 1 + 3**5]
    with pytest.raises(PrecisionInsufficient,
                       match=r"^2 root branch\(es\) cannot be separated at precision 5$"):
        curve_from_roots(roots, 3, precision=5).roots()
    got = curve_from_roots(roots, 3, precision=6).roots()
    assert sorted(int(r.lift()) for r in got) == roots


@pytest.mark.parametrize("far", [2169, 6543])
def test_a_root_is_certified_past_the_precision_when_it_needs_to_be(far):
    # far = -18 + 3^7 or -18 + 3^8.  The root finder splits off x and
    # descends on f / x, whose derivative has valuation 20 or 21 at far, so
    # Hensel's lemma certifies far only at depth 21 or 22, though every pair
    # of roots parts by digit 9
    planted = [-57, -27, -24, -18, 0, 3, 9, 18, 21, 54, far]
    f_over_x = poly_from_roots(planted, 1)[1:]
    assert vp(poly_eval(poly_derivative(f_over_x), far), 3) == {2169: 20, 6543: 21}[far]
    got = curve_from_roots(planted, 3, precision=20).roots()
    assert all(sum(1 for x in got if x.agrees(r)) == 1 for r in planted)


@st.composite
def planted_roots(draw):
    """Distinct roots of a split curve: close pairs, p | r, v(r) = -1, -2."""
    p = draw(st.sampled_from((3, 5, 7)))
    units = st.integers(1, p**3).filter(lambda u: u % p)
    roots = set()
    for r in draw(st.lists(st.integers(-p**3, p**3), min_size=5, max_size=7,
                           unique=True)):
        kind = draw(st.sampled_from(("int", "pair", "multiple", "pole")))
        if kind == "pair":
            roots.add(Fraction(r + draw(units) * p ** draw(st.integers(1, 8))))
        elif kind == "multiple":
            r *= p
        elif kind == "pole":
            r = draw(units) / Fraction(p) ** draw(st.integers(1, 2))
        roots.add(Fraction(r))
    assume(len(roots) >= 5)
    return p, sorted(roots)


@given(planted_roots(), st.sampled_from((1, -2, 3)))
@settings(max_examples=100, deadline=None)
def test_roots_returns_every_planted_root(case, lc):
    p, planted = case
    got = curve_from_roots(planted, p, lc).roots()
    assert len(got) == len(planted)
    for r in planted:
        assert sum(1 for x in got if x.agrees(r)) == 1, (r, got)


@given(
    st.sampled_from((3, 5, 7)),
    st.lists(st.integers(-27, 27).filter(bool), max_size=6, unique=True),
    st.lists(st.integers(-27, 27).filter(bool), min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_non_split_iff_the_oracle_finds_fewer_roots(p, roots, cofactor):
    # planted integer roots times a random cofactor: a quadratic cofactor
    # splits over Q_p about half the time, a longer one seldom
    f = [int(c) for c in poly_mul(poly_from_roots(roots), cofactor)]
    assume(len(f) >= 4)
    try:
        curve = HyperellipticCurve(f, p, 20)
    except ValueError:
        assume(False)  # not squarefree
    try:
        split = len(curve.roots()) == curve.degree
    except NonSplitInput:
        split = False
    # root valuations are Newton polygon slopes, at most max v(c_i) in size
    w = max(vp(c, p) for c in f if c) + 1
    assert split == (enumerate_padic_zeros(f, p, (-w, w), N=30) == curve.degree)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_octic_decomposition():
    curve = curve_from_roots(OCTIC_ROOTS, 3)
    d = decompose(curve)
    kinds = [a.kind for a in d.annuli]
    assert kinds == [ODD, WEIERSTRASS, ODD, WEIERSTRASS]
    assert d.t_estimate == 0
    assert d.iota_orbit_count == 4 <= 2 * curve.genus - 1

    odd1, w1, odd2, w2 = d.annuli
    assert odd1.nu == 1 and odd1.window == (-2, 2)
    assert odd1.depths == (0, 1) and odd1.domain == (0, Fraction(1, 2))
    assert (odd1.gamma + 280).is_zero()
    assert odd1.count == 1

    # nested Weierstrass pair {0, 9}: gamma has odd valuation -> non-split
    assert w1.theta0 == (0, 7)
    assert w1.depths == (1, 2) and w1.domain == (1, 3)
    assert w1.gamma.valuation == 1
    assert w1.split is False and w1.count == 0
    assert "non-split" in w1.flags
    assert w1.a_const.valuation == 4
    assert w1.center.valuation == 2

    assert (odd2.gamma - 64).is_zero()

    # {2, 5}: gamma is a unit but a non-residue mod 3
    assert w2.gamma.valuation == 0 and w2.gamma.unit_residue() % 3 == 2
    assert w2.split is False and w2.count == 0
    assert w2.a_const.valuation == 2


def test_octic_disk_regions():
    d = decompose(curve_from_roots(OCTIC_ROOTS, 3))
    by_kind = {}
    for r in d.disks:
        by_kind.setdefault(r.kind, []).append(r)
    assert len(by_kind["infinity"]) == 1
    assert by_kind["infinity"][0].count == 2          # leading coefficient 1
    assert len(by_kind["weierstrass"]) == 2
    assert sorted(r.anchor for r in by_kind["branch"]) == [1, 3, 4, 7]
    (free,) = by_kind["free"]
    assert free.anchor == 6
    # f(6) = 2160 = 2^4 * 3^3 * 5 has odd valuation: no points over this disk
    assert free.count == 0 and free.may_contain_points is False
    assert all(r.may_contain_points for r in by_kind["weierstrass"])


def test_even_cluster_decomposition():
    curve = curve_from_roots([0, 3, 6, 9, 1, 2, 4, 5], 3)
    d = decompose(curve)
    kinds = [a.kind for a in d.annuli]
    assert kinds == [EVEN, WEIERSTRASS, WEIERSTRASS, WEIERSTRASS]
    even = d.annuli[0]
    assert even.nu == 2
    assert (even.gamma - 40).is_zero()
    assert even.split is True and even.count == 2
    assert (even.alpha * even.alpha - 40).is_zero()
    assert even.domain == (0, 1) and even.window == (-2, 0)
    assert d.t_estimate == 1
    assert d.iota_orbit_count == 4

    w09, w14, w25 = d.annuli[1:]
    assert w09.split is False          # v(gamma) = 2 but unit is a non-residue
    assert w09.gamma.valuation == 2 and w09.gamma.unit_residue() % 3 == 2
    assert w14.split is True and w14.count == 1
    assert w25.split is True and w25.count == 1


def test_no_cluster_decomposition():
    curve = curve_from_roots([0, 1, 2, 3, 4, 5], 7)
    d = decompose(curve)
    assert d.annuli == [] and d.t_estimate == 0 and d.iota_orbit_count == 0
    kinds = sorted(r.kind for r in d.disks)
    assert kinds == ["branch"] * 6 + ["free", "infinity"]
    free = next(r for r in d.disks if r.kind == "free")
    assert free.anchor == 6 and free.count == 0   # f(6)=720 is a non-residue mod 7


def test_odd_degree_curve():
    curve = curve_from_roots([0, 3, 9, 1, 2], 3)
    assert curve.genus == 2 and curve.has_infinite_branch_point
    d = decompose(curve)
    assert [a.kind for a in d.annuli] == [ODD, WEIERSTRASS]
    inf = next(r for r in d.disks if r.kind == "infinity")
    assert inf.count == 1 and inf.may_contain_points
    # exterior side counts the branch point at infinity: 6 - 3 = 3, no flag
    assert "exterior-singleton" not in d.annuli[0].flags
    assert d.iota_orbit_count == 2


def test_deep_cluster_gives_wide_annulus():
    curve = curve_from_roots([0, 9, 18, 1, 2, 4, 5, 7], 3)
    d = decompose(curve)
    wide = next(a for a in d.annuli if a.depths == (0, 2))
    assert wide.kind == ODD
    assert wide.domain == (0, 1)
    assert d.iota_orbit_count == 3


def test_degree_two_root_vertex_merges_orbits():
    # sextic whose branch points fall into exactly two residue directions
    curve = curve_from_roots([0, 3, 9, 1, 4, 7], 3)
    d = decompose(curve)
    assert len(d.annuli) == 3
    assert d.iota_orbit_count == 2
    assert "root-degree-two-merged" in d.flags


def test_decompose_rejects_small_genus_and_p2():
    with pytest.raises(ValueError):
        decompose(curve_from_roots([0, 1, 3], 3))
    with pytest.raises(UnsupportedRegime):
        decompose(curve_from_roots([1, 3, 5, 7, 9, 11], 2))


def test_squarefree_required():
    with pytest.raises(ValueError):
        HyperellipticCurve([0, 0, -1, 1], 3)   # x^2 (x - 1)
    with pytest.raises(ValueError):
        HyperellipticCurve([1, 1], 3)


def test_curve_json_roundtrip():
    curve = HyperellipticCurve([Fraction(1, 2), 0, 0, 1], 5, precision=12)
    again = HyperellipticCurve.from_json(
        {"p": curve.p, "f": [str(c) for c in curve.f], "precision": curve.precision})
    assert again.f == curve.f and again.p == 5 and again.precision == 12


# ---------------------------------------------------------------------------
# pullbacks and windows
# ---------------------------------------------------------------------------


def _descriptor(kind, nu, g, p=3, gamma=1, alpha=1, a_const=None):
    mk = lambda v: None if v is None else PAdic.from_rational(Fraction(v), p, 20)
    return AnnulusDescriptor(
        kind=kind, theta0=tuple(range(2 * nu + 1)), nu=nu, genus=g,
        depths=(0, 1), domain=(0, 1),
        gamma=mk(gamma), alpha=mk(alpha), a_const=mk(a_const),
        center=PAdic.zero(p), split=True,
    )


def core_annulus_window_for(kind, nu, g):
    if kind == ODD:
        return (-2 * nu, 2 * g - 2 - 2 * nu)
    if kind == EVEN:
        return (-nu, g - 1 - nu)
    return (-g, g - 2)


def test_pullback_even_constant():
    A = _descriptor(EVEN, 2, 3)
    data = pullback_differential(A, [1])
    assert sorted(data.u.definite_terms()) == [-2]
    assert (data.u.coeff(-2) * 2 - 1).is_zero()


def test_pullback_weierstrass_linear():
    A = _descriptor(WEIERSTRASS, 1, 3, a_const=3)
    data = pullback_differential(A, [0, 1])
    assert sorted(data.u.definite_terms()) == [-2, 0]
    assert (data.u.coeff(0) * 2 - 1).is_zero()
    assert (data.u.coeff(-2) * 2 - 3).is_zero()


def test_pullback_odd_constant():
    A = _descriptor(ODD, 1, 3)
    data = pullback_differential(A, [1])
    assert sorted(data.u.definite_terms()) == [-2]
    assert (data.u.coeff(-2) - 1).is_zero()


def test_pullback_translates_by_center():
    # u~ = x evaluated on an annulus centered at 2: constant term appears
    A = _descriptor(ODD, 1, 3)
    A.center = PAdic.from_int(2, 3, 20)
    data = pullback_differential(A, [0, 1])
    assert sorted(data.u.definite_terms()) == [-2, 0]
    assert (data.u.coeff(-2) - 2).is_zero()


def test_pullback_degree_guard():
    A = _descriptor(ODD, 1, 3)
    with pytest.raises(DegreeTooLarge):
        pullback_differential(A, [1, 0, 0, 1])


def test_pullback_missing_alpha():
    A = _descriptor(EVEN, 2, 3, alpha=None)
    with pytest.raises(MissingAlpha):
        pullback_differential(A, [1])
    B = _descriptor(WEIERSTRASS, 1, 3, a_const=None)
    with pytest.raises(MissingAlpha):
        pullback_differential(B, [0, 1])
    C = _descriptor(ODD, 1, 3, gamma=None)
    with pytest.raises(MissingAlpha):
        pullback_differential(C, [1])


def test_pullback_supports_stay_in_case_ranges():
    for g in range(2, 9):
        for nu in range(1, g):
            A = _descriptor(ODD, nu, g, gamma=4)
            for j in range(g):
                data = pullback_differential(A, [0] * j + [1])
                for e in data.u.definite_terms():
                    assert e % 2 == 0
                    assert -2 * nu <= e <= 2 * (g - 1) - 2 * nu
            B = _descriptor(EVEN, nu, g)
            for j in range(g):
                data = pullback_differential(B, [0] * j + [1])
                assert all(-nu <= e <= g - 1 - nu for e in data.u.definite_terms())
        W = _descriptor(WEIERSTRASS, 1, g, a_const=3)
        for j in range(g):
            data = pullback_differential(W, [0] * j + [1])
            assert all(-g <= e <= g - 2 for e in data.u.definite_terms())


@pytest.mark.parametrize("precision", [30, 40])
def test_octic_pullbacks_keep_the_curve_precision(precision):
    # u~ stays exact, so each term is known as well as the center, gamma and alpha
    dec = decompose(curve_from_roots(OCTIC_ROOTS, 3, precision=precision))
    checked = 0
    for A in dec.annuli:
        if A.kind != ODD and not A.split:
            continue
        for j in range(A.genus):
            for c in pullback_differential(A, [0] * j + [1]).u.terms.values():
                assert c.prec > 20
                checked += 1
    assert checked


def test_good_window_frozen_examples():
    W = _descriptor(WEIERSTRASS, 1, 4, a_const=3)
    assert good_window_subspace(W, 1) == (-4, 2, [0, 1, 2, 3])
    A = _descriptor(ODD, 1, 5)
    assert good_window_subspace(A, 2) == (-2, 4, [0, 1, 2, 3])
    B = _descriptor(ODD, 4, 5)
    assert good_window_subspace(B, 2) == (-6, 0, [1, 2, 3, 4])
    assert good_window_subspace(A, 5)[:2] == (-2, 0)


def test_good_window_shape_and_pullback_containment():
    for g in range(2, 8):
        for nu in range(1, g):
            for kind in (ODD, EVEN, WEIERSTRASS):
                if kind == WEIERSTRASS and nu != 1:
                    continue
                A = _descriptor(kind, nu, g, a_const=3 if kind == WEIERSTRASS else None)
                for m in range(1, g + 1):
                    n1, n2, basis = good_window_subspace(A, m)
                    assert n1 < -1 < n2
                    assert n2 - n1 == max(2 * (g - m), 2)
                    assert len(basis) == g - m + 1
                    if m < g:
                        for j in basis:
                            data = pullback_differential(A, [0] * j + [1])
                            assert all(n1 <= e <= n2 for e in data.u.definite_terms())


def test_core_annulus_windows():
    assert _descriptor(ODD, 1, 3).window == (-2, 2)
    assert _descriptor(EVEN, 2, 3).window == (-2, 0)
    assert _descriptor(WEIERSTRASS, 1, 3, a_const=3).window == (-3, 1)
    for g in range(2, 9):
        for nu in range(1, g):
            for kind in (ODD, EVEN, WEIERSTRASS):
                lo, hi = _descriptor(kind, nu, g, a_const=3).window
                assert (lo, hi) == core_annulus_window_for(kind, nu, g)
                assert hi - lo <= 2 * g - 2


def test_good_window_needs_m_in_range():
    A = _descriptor(ODD, 1, 3)
    for m in (0, 4):
        with pytest.raises(ValueError):
            good_window_subspace(A, m)
