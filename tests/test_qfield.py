"""Exact scalar arithmetic in Q(q).

The independent oracle for symbolic identities is exact evaluation at
rational sample points (Fractions), which exercises none of the
canonicalization code paths being tested.  The canonical form itself is
compared with sympy's ``cancel`` where sympy is installed.
"""

import os
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from qncalc.qfield import (
    ONE,
    Q,
    ZERO,
    DivisionByZeroError,
    PoleAtOneError,
    Scalar,
    _cancel_at,
    _canonical,
    _cofactor,
    _first_point,
    _padd,
    _pmul,
    _pneg,
)

SAMPLE_POINTS = [Fraction(3, 2), Fraction(7, 5), Fraction(-4, 3), Fraction(11, 7)]


def scalars(max_deg=3, max_coef=6):
    coefs = st.integers(min_value=-max_coef, max_value=max_coef)
    polys = st.lists(coefs, min_size=1, max_size=max_deg + 1)
    nonzero = polys.filter(lambda p: any(p))
    return st.builds(lambda n, d: Scalar(tuple(n), tuple(d)), polys, nonzero)


def assert_pointwise_equal(x, y):
    for pt in SAMPLE_POINTS:
        try:
            vx, vy = x.evaluate(pt), y.evaluate(pt)
        except DivisionByZeroError:
            continue  # a random denominator vanishes at this sample point
        assert vx == vy


# -- canonical form -----------------------------------------------------------

def test_canonical_gcd_cancelled():
    # (q^2 - 1)/(q - 1) canonicalizes to q + 1
    s = Scalar((-1, 0, 1), (-1, 1))
    assert s == Scalar((1, 1))
    assert s.num == (1, 1) and s.den == (1,)


def test_canonical_denominator_positive_lead():
    s = Scalar((1,), (-1, -1))
    assert s.den[-1] > 0
    assert s == Scalar((-1,), (1, 1))


def test_equality_is_canonical_identity():
    a = Scalar((2, 0, 2), (0, 4))      # (2 + 2q^2) / 4q
    b = Scalar((1, 0, 1), (0, 2))
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("k", range(-5, 6))
def test_integer_scalar_hashes_like_its_int(k):
    s = Scalar.from_int(k)
    assert s == k and hash(s) == hash(k)
    assert k in {s} and s in {k}
    assert Scalar.fraction(2 * k, 2) in {k: None}


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZeroError):
        Scalar((1,), ())


def test_certification_rejects_non_divisor_and_broken_bound():
    xi = 101
    # h = q + 1 and its cofactor q - 1 in a = q^2 - 1
    assert _cofactor(xi ** 2 - 1, xi + 1, 2, xi) == (-1, 1)
    # h = q + 2: h(xi) = 103 does not divide a(xi) = 10200
    assert _cofactor(xi ** 2 - 1, xi + 2, 3, xi) is None
    # (q + 1)(q + 50) = q^2 + 51 q + 50 has a coefficient past xi/2, so the
    # digits of its value are another polynomial; 2 * 2 * 50 >= xi rejects
    # the cofactor q + 50
    assert _cofactor((xi + 1) * (xi + 50), xi + 1, 2, xi) is None


# -- arithmetic: spec examples ------------------------------------------------

def test_telescoping_identity():
    # (q - 1/q) * q / (q^2 - 1) == 1
    lam = Q - Q ** -1
    assert lam * Q / (Q ** 2 - 1) == ONE


def test_lambda_common_denominator():
    lam = Q - Q ** -1
    assert lam.num == (-1, 0, 1)       # q^2 - 1
    assert lam.den == (0, 1)           # q


def test_matched_parameter_pair():
    # alpha * q^2 equals the second matched parameter 2q^2/(1+q^2)
    alpha = Scalar((2,)) / (ONE + Q ** 2)
    beta = (Scalar((2,)) * Q ** 2) / (ONE + Q ** 2)
    assert alpha * Q ** 2 == beta


def test_division_by_zero_is_distinct_error():
    with pytest.raises(DivisionByZeroError):
        ONE / ZERO


# -- eval at q = 1 ------------------------------------------------------------

def test_eval_q1_lambda_vanishes():
    assert (Q - Q ** -1).eval_q1() == 0


def test_eval_q1_matched_parameter_is_classical():
    alpha = Scalar((2,)) / (ONE + Q ** 2)
    assert alpha.eval_q1() == 1


def test_eval_q1_pole_detected():
    with pytest.raises(PoleAtOneError):
        (ONE / (Q - 1)).eval_q1()


@settings(max_examples=200, deadline=None)
@given(scalars(), scalars())
def test_eval_q1_is_multiplicative_where_defined(x, y):
    try:
        vx, vy, vxy = x.eval_q1(), y.eval_q1(), (x * y).eval_q1()
    except PoleAtOneError:
        return
    assert vxy == vx * vy


# -- q -> 1/q -----------------------------------------------------------------

def test_invert_q_basic():
    assert Q.invert_q() == Q ** -1


def test_invert_q_lambda_is_odd():
    lam = Q - Q ** -1
    assert lam.invert_q() == -lam


def test_invert_q_maps_left_parameter_to_right_parameter():
    alpha = Scalar((2,)) / (ONE + Q ** 2)
    t = Scalar((2,)) / (ONE + Q ** -2)
    assert alpha.invert_q() == t


@settings(max_examples=300, deadline=None)
@given(scalars())
def test_invert_q_involution(x):
    assert x.invert_q().invert_q() == x


@settings(max_examples=300, deadline=None)
@given(scalars())
def test_negation_is_canonical_without_recanonicalizing(x):
    y = -x
    z = Scalar(_pneg(x.num), x.den)
    assert (y.num, y.den, hash(y)) == (z.num, z.den, hash(z))
    assert -y == x and (-y).num == x.num and (-y).den == x.den


# -- field axioms -------------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO
    if not x.is_zero:
        assert x * (ONE / x) == ONE


@settings(max_examples=200, deadline=None)
@given(scalars(), scalars())
def test_arithmetic_matches_pointwise_oracle(x, y):
    for pt in SAMPLE_POINTS:
        try:
            vx, vy = x.evaluate(pt), y.evaluate(pt)
            assert (x + y).evaluate(pt) == vx + vy
            assert (x * y).evaluate(pt) == vx * vy
            assert (x - y).evaluate(pt) == vx - vy
            if not y.is_zero and vy != 0:
                assert (x / y).evaluate(pt) == vx / vy
        except DivisionByZeroError:
            continue  # a random denominator vanishes at this sample point


# -- differential oracle: sympy's cancel ------------------------------------

def _convention(num, den):
    """sympy's big-endian rational coefficients as qncalc stores them:
    little-endian integer tuples with coprime contents and a positive
    leading denominator coefficient."""
    coefs = [Fraction(int(c.p), int(c.q)) for c in num[::-1] + den[::-1]]
    scale = lcm(*(c.denominator for c in coefs))
    ints = [int(c * scale) for c in coefs]
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    ints = [c // content for c in ints]
    return tuple(ints[:len(num)]), tuple(ints[len(num):])


def _sympy_cancel(n, d):
    """(num, den) of sympy's cancel(n/d) in qncalc's convention."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    expr = sympy.Poly(n[::-1], q).as_expr() / sympy.Poly(d[::-1], q).as_expr()
    num, den = sympy.fraction(sympy.cancel(expr))
    return _convention(sympy.Poly(num, q).all_coeffs(), sympy.Poly(den, q).all_coeffs())


def _convolve(a, b):
    """Schoolbook product of little-endian integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _polys(max_deg=8, max_coef=50):
    coefs = st.integers(min_value=-max_coef, max_value=max_coef)
    return st.lists(coefs, min_size=1, max_size=max_deg + 1).filter(any)


_SHAPES = ["planted", "monomial numerator", "monomial denominator",
           "q^k (1 + q^2)^m denominator", "negative-lead divisor"]


@settings(max_examples=200, deadline=None)
@given(_polys(), _polys(), _polys(), st.integers(1, 12), st.integers(1, 12),
       st.sampled_from(_SHAPES), st.integers(0, 3), st.integers(0, 3))
def test_canonical_form_matches_sympy_cancel(a, b, g, ca, cb, shape, k, m):
    # n = ca a g and d = cb b g share the planted factor g, the content
    # gcd(ca, cb) and whatever a, b share
    a, b, g = (0,) * k + _convolve(a, (1,)), _convolve(b, (1,)), _convolve(g, (1,))
    if shape == "monomial numerator":
        a, g = (0,) * k + (a[-1],), (1,)
    elif shape == "monomial denominator":
        b, g = (0,) * m + (b[-1],), (1,)
    elif shape == "q^k (1 + q^2)^m denominator":
        b = (0,) * k + (1,)
        for _ in range(m):
            b = _convolve(b, (1, 0, 1))
        g = _convolve(g, (1, 0, 1)) if m > 1 else g
    n = tuple(ca * c for c in _convolve(a, g))
    d = tuple(cb * c for c in _convolve(b, g))
    if shape == "negative-lead divisor":
        d = _pneg(d) if d[-1] > 0 else d
        s = Scalar(n) / Scalar(d)
    else:
        s = Scalar(n, d)
    assert (s.num, s.den) == _sympy_cancel(n, d)


@settings(max_examples=60, deadline=None)
@given(_polys(4, 9), _polys(4, 9), _polys(4, 9), _polys(4, 9), _polys(2, 9),
       _polys(2, 9), st.integers(0, 2))
def test_planted_factors_cancel_as_in_sympy(p, r, s, t, g, h, k):
    # a = p g / r h and b = s / g t h: g crosses between the operands and
    # h is shared by the denominators; c = (h s - p g t) / r h t makes
    # a + c = s / r t, so that sum cancels h and more, in either order
    p, g = (0,) * k + _convolve(p, (1,)), _convolve(g, (1,))
    r, s, t, h = (_convolve(x, (1,)) for x in (r, s, t, h))
    an, ad = _convolve(p, g), _convolve(r, h)
    bn, bd = s, _convolve(_convolve(g, t), h)
    cn = _padd(_convolve(h, s), _pneg(_convolve(an, t)))
    cd = _convolve(ad, t)
    a, b, c = Scalar(an, ad), Scalar(bn, bd), Scalar(cn, cd)
    cases = [(a * b, _convolve(an, bn), _convolve(ad, bd)),
             (a / b, _convolve(an, bd), _convolve(ad, bn)),
             (a + b, _padd(_convolve(an, bd), _convolve(bn, ad)), _convolve(ad, bd)),
             (a + c, _padd(_convolve(an, cd), _convolve(cn, ad)), _convolve(ad, cd)),
             (c + a, _padd(_convolve(cn, ad), _convolve(an, cd)), _convolve(cd, ad))]
    for x, n, d in cases:
        assert (x.num, x.den) == _sympy_cancel(n, d)


@pytest.mark.parametrize("a, b", [((4, 3, 4, -1), (9, -4, -7, 2)),
                                  ((3, -6, -5), (-4, 1, 6))])
def test_first_point_without_certificate_is_squared(a, b):
    # coprime, yet gcd(a(xi), b(xi)) at the first point is 3065 and 647
    xi = _first_point(a, b)
    assert _cancel_at(a, b, xi) is None
    assert _cancel_at(a, b, xi * xi) == (a, b)
    s = Scalar(a, b)
    assert (s.num, s.den) == _sympy_cancel(a, b)


@settings(max_examples=300, deadline=None)
@given(_polys(max_deg=5), st.integers(0, 4), st.integers(-9, 9).filter(bool), st.booleans())
def test_pmul_by_a_monomial_matches_schoolbook(a, k, c, swap):
    a = _convolve(a, (1,))
    mono = (0,) * k + (c,)
    got = _pmul(a, mono) if swap else _pmul(mono, a)
    assert got == _convolve(a, mono)


# -- memoized addition ---------------------------------------------------------

def _reference_sum(a, b):
    """(num, den) of a + b by cross-multiplication, with no memo at all."""
    return _canonical.__wrapped__(
        _padd(_pmul(a.num, b.den), _pmul(b.num, a.den)), _pmul(a.den, b.den))


def _random_pairs(seed, count):
    """Operand pairs over equal, monomial, non-monomial and shared-factor
    denominators, with cancelling sums among them."""
    rng = random.Random(seed)

    def poly(deg):
        p = [rng.randint(-6, 6) for _ in range(deg + 1)]
        p[-1] = p[-1] or 1
        return tuple(p)

    def scalar(den):
        return Scalar(poly(rng.randint(0, 3)), den)

    for _ in range(count):
        kind = rng.randrange(6)
        a = scalar(poly(rng.randint(0, 3)))
        if kind == 0:                      # shared denominator
            b = scalar(a.den)
        elif kind == 5:                    # shared factor: g b1 and g d1
            g = poly(rng.randint(1, 2))
            a = scalar(_pmul(g, poly(rng.randint(0, 2))))
            b = scalar(_pmul(g, poly(rng.randint(0, 2))))
            if rng.random() < 0.5:         # a + b cancels part of a denominator
                a, b = rng.sample((a, b - a), 2)
        elif kind == 1:                    # monomial denominators c q^k
            a = scalar((0,) * rng.randint(0, 3) + (rng.randint(1, 4),))
            b = scalar((0,) * rng.randint(0, 3) + (rng.randint(1, 4),))
        elif kind == 2:                    # non-monomial denominators
            b = scalar(poly(rng.randint(1, 3)))
        elif kind == 3:                    # cancels to zero
            b = -a
        else:                              # cancels the denominator away
            b = scalar((1,)) - a
        yield a, b


def test_sum_matches_unmemoized_cross_multiplication():
    points = SAMPLE_POINTS[:3]
    for a, b in _random_pairs(seed=4, count=400):
        s = a + b
        assert (s.num, s.den) == _reference_sum(a, b)
        for pt in points:
            try:
                want = a.evaluate(pt) + b.evaluate(pt)
            except DivisionByZeroError:
                continue  # a random denominator vanishes at this sample point
            assert s.evaluate(pt) == want


def _reference_product(an, ad, bn, bd):
    """(num, den) of (an/ad) * (bn/bd) by whole multiplication, with no memo."""
    return _canonical.__wrapped__(_pmul(an, bn), _pmul(ad, bd))


def test_product_matches_unmemoized_multiplication():
    # b's inverse in a / b has b's numerator as its denominator, whose
    # leading coefficient may be negative
    points = SAMPLE_POINTS[:3]
    for a, b in _random_pairs(seed=6, count=400):
        for x, y in ((a, b), (b, a), (a, a), (a, ZERO), (ZERO, b), (a, ONE), (ONE, b)):
            p = x * y
            assert (p.num, p.den) == _reference_product(x.num, x.den, y.num, y.den)
            if y.is_zero:
                continue
            r = x / y
            assert (r.num, r.den) == _reference_product(x.num, x.den, y.den, y.num)
            for pt in points:
                try:
                    vx, vy = x.evaluate(pt), y.evaluate(pt)
                except DivisionByZeroError:
                    continue  # a random denominator vanishes at this sample point
                assert p.evaluate(pt) == vx * vy
                if vy:
                    assert r.evaluate(pt) == vx / vy


def test_every_cached_coefficient_is_canonical(monkeypatch):
    # memoized products and sums build their results without
    # Scalar.__init__, so nothing else recanonicalizes what the caches keep
    from qncalc.calculus import CALCULUS_PRESETS, diff_presentation
    from qncalc.ncalg import Presentation, check_local_confluence
    from qncalc.presentations import PRESET_IDS, preset
    from qncalc.suites import run_all

    # one CPU: run_all fills every preset's memo in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_all(seed=7, max_degree=2)
    systems = [preset(pid) for pid in PRESET_IDS]
    for pid in CALCULUS_PRESETS:
        # run_all leaves the -diff caches empty; fill fresh copies
        d = diff_presentation(pid)
        systems.append(Presentation(d.name, d.generators, d.order, d.rules,
                                    d.form_position, d.tags))
        check_local_confluence(systems[-1])
    for p in systems:
        coefs = [c for nf in p._nf_cache.values() for c in nf.coefs]
        assert coefs, p.name
        for c in coefs:
            assert _canonical.__wrapped__(c.num, c.den) == (c.num, c.den), p.name


def test_equal_sums_share_one_object():
    for a, b in _random_pairs(seed=5, count=100):
        a2 = Scalar(a.num, a.den)          # equal operands, other objects
        assert a2 is not a
        assert a + b is a2 + b
        assert (a - b) is (a2 - b)


def test_a_result_equal_to_one_is_the_shared_one():
    # the rewriting kernel skips multiplications by ONE, found by identity
    unit_copy = Scalar((1,))
    assert unit_copy is not ONE and unit_copy == ONE and hash(unit_copy) == hash(ONE) == 1
    for a, b in _random_pairs(seed=5, count=100):
        a2 = Scalar(a.num, a.den)          # equal operands, other objects
        assert a2 == a and hash(a2) == hash(a)
        for x in (a, b, a2):
            assert ONE * x is x and x * ONE is x
        for s in (a * b, a + b, a * unit_copy):
            assert (s is ONE) == (s == ONE)
        units = [unit_copy * unit_copy, (unit_copy - a) + a2, (ONE - b) + b]
        if not a.is_zero:
            units += [a * Scalar(a2.den, a2.num), a2 / a]
        assert all(s is ONE for s in units)


# -- printing -----------------------------------------------------------------

def test_str_laurent_form():
    assert str(Q - Q ** -1) == "q - q^-1"
    assert str(Q ** 2) == "q^2"
    assert str(Scalar((2,)) / (ONE + Q ** 2)) == "2/(q^2 + 1)"
    assert str(ZERO) == "0"
    assert str(-ONE) == "-1"
