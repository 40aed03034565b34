"""Exact scalar arithmetic in Q(q).

The independent oracle for symbolic identities is exact evaluation at
rational sample points (Fractions), which exercises none of the
canonicalization code paths being tested.  The canonical form itself is
compared with sympy's ``cancel`` where sympy is installed.
"""

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
    _pdiv_exact,
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


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZeroError):
        Scalar((1,), ())


def test_exact_division_rejects_remainder():
    assert _pdiv_exact((-1, 0, 1), (-1, 1)) == (1, 1)      # (q^2 - 1)/(q - 1)
    with pytest.raises(ArithmeticError):
        _pdiv_exact((1, 0, 1), (1, 1))                     # remainder 2
    with pytest.raises(ArithmeticError):
        _pdiv_exact((1, 2), (2,))                          # quotient not integral
    with pytest.raises(ArithmeticError):
        _pdiv_exact((1,), (1, 1))                          # divisor of higher degree


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


def _polys(max_deg=8, max_coef=50):
    coefs = st.integers(min_value=-max_coef, max_value=max_coef)
    return st.lists(coefs, min_size=1, max_size=max_deg + 1).filter(any)


@settings(max_examples=150, deadline=None)
@given(_polys(), _polys(), _polys())
def test_canonical_form_matches_sympy_cancel(a, b, g):
    # n = a g and d = b g share the planted factor g (and whatever a, b share)
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    pa, pb, pg = (sympy.Poly(c[::-1], q) for c in (a, b, g))
    n = tuple(int(c) for c in (pa * pg).all_coeffs()[::-1])
    d = tuple(int(c) for c in (pb * pg).all_coeffs()[::-1])
    num, den = sympy.fraction(sympy.cancel((pa * pg).as_expr() / (pb * pg).as_expr()))
    want = _convention(sympy.Poly(num, q).all_coeffs(), sympy.Poly(den, q).all_coeffs())
    s = Scalar(n, d)
    assert (s.num, s.den) == want


# -- printing -----------------------------------------------------------------

def test_str_laurent_form():
    assert str(Q - Q ** -1) == "q - q^-1"
    assert str(Q ** 2) == "q^2"
    assert str(Scalar((2,)) / (ONE + Q ** 2)) == "2/(q^2 + 1)"
    assert str(ZERO) == "0"
    assert str(-ONE) == "-1"
