"""Exact arithmetic in Q(q), the rational-function field in one variable q.

Every coefficient in the engine is a :class:`Scalar`: a quotient of two
integer-coefficient polynomials in q kept in a canonical form, so that two
scalars are equal iff their stored tuples are identical.  Canonical form
means

* numerator and denominator share no polynomial factor,
* the integer contents of numerator and denominator are coprime,
* the denominator's leading coefficient is positive,
* the denominator is never the zero polynomial.

The gcd needs no remainder sequence and no long division.  Where one side
is a monomial, the gcd is c q^k and is cancelled by slicing and integer
division.  Otherwise the primitive parts are evaluated at an integer xi,
one integer gcd is taken, and the gcd and both cofactors are read off as
balanced base-xi digits: the heuristic gcd of Char, Geddes and Gonnet
(1989).  An exact integer check certifies the result (:func:`_cancel_at`
has the proof); a point that does not certify is squared.

Polynomials are little-endian integer tuples (index = power of q) with no
trailing zeros; ``()`` is the zero polynomial.  All arithmetic is exact
and integer-only; no floating point or rational number appears (except in
the evaluations :meth:`Scalar.eval_q1` and :meth:`Scalar.evaluate`).

Canonicalization, addition and multiplication are memoized in bounded
``functools.lru_cache`` tables, which are thread-safe.  A memo only saves
work: results do not depend on what it holds, and equal sums and
products share one immutable :class:`Scalar`.

Scalars are immutable values and safe to share between threads.  The text
syntax for scalar literals (integers, ``q``, ``+ - * / ^``, parentheses)
is implemented by :mod:`qncalc.dsl`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd
from operator import neg as _neg

__all__ = [
    "Scalar",
    "Q",
    "ONE",
    "ZERO",
    "DivisionByZeroError",
    "PoleAtOneError",
]


class DivisionByZeroError(ZeroDivisionError):
    """Division of a scalar by the zero scalar."""


class PoleAtOneError(ArithmeticError):
    """Evaluation at q = 1 of a scalar whose denominator vanishes there."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (little-endian tuples, no trailing zeros)
# ---------------------------------------------------------------------------

def _pstrip(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _pstrip(out)


def _pneg(a):
    return tuple(map(_neg, a))


def _pmul(a, b):
    if not a or not b:
        return ()
    if _is_monomial(b):
        a, b = b, a
    if _is_monomial(a):
        # a = c q^k: a shift and a scale
        c = a[-1]
        return (0,) * (len(a) - 1) + (b if c == 1 else tuple([c * x for x in b]))
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _pstrip(out)


def _pshift(a, k):
    """Multiply by q**k (k >= 0)."""
    if not a:
        return ()
    return (0,) * k + tuple(a)


def _prev(a):
    """Reverse coefficients: q**deg(a) * a(1/q)."""
    return _pstrip(tuple(reversed(a)))


def _pval(a):
    """Order of vanishing at q = 0."""
    for i, c in enumerate(a):
        if c:
            return i
    return 0


def _is_monomial(a):
    return bool(a) and not any(a[:-1])


def _peval(a, x):
    """Value of a at the integer x."""
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _digits(v, xi):
    """Balanced base-xi digits of the integer v: the one polynomial with
    coefficients in (-xi/2, xi/2] whose value at xi is v."""
    half = xi >> 1
    out = []
    while v:
        v, r = divmod(v, xi)
        if r > half:
            r -= xi
            v += 1
        out.append(r)
    return tuple(out)


def _cofactor(v, hv, h1, xi):
    """The digits p of v / hv, or None unless hv divides v and
    2 * h1 * max|p_i| < xi.

    With hv = h(xi) and h1 = ||h||_1 this certifies h * p = a for the
    polynomial a with a(xi) = v and ||a||_inf < xi/2: both sides then have
    coefficients in (-xi/2, xi/2) and the same value at xi.
    """
    c, r = divmod(v, hv)
    if r:
        return None
    p = _digits(c, xi)
    if 2 * h1 * max(map(abs, p)) >= xi:
        return None
    return p


def _first_point(a, b):
    """Where :func:`_cancel` evaluates first: above 2 ||a||_inf + 1, and
    scaled by 4^len for the growth of gcd and cofactor coefficients."""
    return (2 * max(max(map(abs, a)), max(map(abs, b))) + 3) << (2 * max(len(a), len(b)))


def _cancel_at(a, b, xi):
    """(a/g, b/g) for primitive a, b and their gcd g, read off at the
    integer xi; None when xi does not certify the result.

    This is the heuristic gcd of Char, Geddes and Gonnet (1989), made exact.
    h is the primitive part of the digit polynomial H of
    gamma = gcd(a(xi), b(xi)), so h(xi) = gamma / content(H).  Its
    cofactors p and r are the digits of a(xi) / h(xi) and b(xi) / h(xi),
    accepted by :func:`_cofactor`, so h * p = a and h * r = b exactly.

    h is then the gcd when xi > 2 N + 1, N = min(||a||_inf, ||b||_inf),
    which :func:`_first_point` ensures and squaring keeps.  Write g = h m
    (Gauss: h is primitive, so m is an integer polynomial).  Every root z
    of m is a root of a and of b, so |z| < 1 + N (Cauchy), and a
    nonconstant m gives |m(xi)| > xi - 1 - N >= xi/2.  Yet g(xi) divides
    gamma = content(H) h(xi), so m(xi) divides content(H), which is at
    most xi/2 because it divides each digit of H.  So m = +-1.
    """
    va, vb = _peval(a, xi), _peval(b, xi)
    gamma = _int_gcd(va, vb)
    h_digits = _digits(gamma, xi)
    c = _int_gcd(*h_digits)
    hv, h1 = gamma // c, sum(map(abs, h_digits)) // c
    p = _cofactor(va, hv, h1, xi)
    if p is None:
        return None
    r = _cofactor(vb, hv, h1, xi)
    return None if r is None else (p, r)


def _cancel(a, b):
    """(a/g, b/g) for primitive, non-monomial a, b and their gcd g.

    Each point that fails :func:`_cancel_at` is squared.  This ends: with
    a = g A and b = g B, the spurious factor gcd(A(xi), B(xi)) divides the
    resultant Res(A, B), which is not 0, so a large enough xi reads off g
    and passes the bound.
    """
    xi = _first_point(a, b)
    while (pr := _cancel_at(a, b, xi)) is None:
        xi *= xi
    return pr


def _poly_str(p, shift=0):
    """Human-readable polynomial, highest power first; ``shift`` offsets exponents."""
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        e = i + shift
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if mag == 1 else f"{mag} {var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------

class Scalar:
    """Element of Q(q) in canonical numerator/denominator form."""

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=(1,)):
        n, d = _canonical(_pstrip(num), _pstrip(den))
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_d", d)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "Scalar":
        return Scalar((k,))

    @staticmethod
    def fraction(p: int, r: int = 1) -> "Scalar":
        return Scalar((p,), (r,))

    @staticmethod
    def q_power(k: int) -> "Scalar":
        if k >= 0:
            return Scalar(_pshift((1,), k))
        return Scalar((1,), _pshift((1,), -k))

    # -- structure ----------------------------------------------------------

    @property
    def num(self):
        return self._n

    @property
    def den(self):
        return self._d

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_one(self) -> bool:
        return self._n == (1,) and self._d == (1,)

    def leading_sign(self) -> int:
        if not self._n:
            return 0
        return 1 if self._n[-1] > 0 else -1

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, int):
            return Scalar((other,))
        return None

    def __add__(self, other):
        o = other if other.__class__ is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self._n, self._d, o._n, o._d)

    __radd__ = __add__

    def __neg__(self):
        # -n/d is canonical when n/d is: the same gcd, the same denominator
        out = object.__new__(Scalar)
        out._n = _pneg(self._n)
        out._d = self._d
        return out

    def __sub__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if other.__class__ is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self._n, self._d, o._n, o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZeroError("scalar division by zero")
        return _product(self._n, self._d, o._d, o._n)

    def __rtruediv__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.is_zero:
                raise DivisionByZeroError("zero scalar has no negative power")
            return Scalar(self._d, self._n) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- substitutions ------------------------------------------------------

    def invert_q(self) -> "Scalar":
        """Substitute q -> 1/q and recanonicalize (an involution)."""
        dn = len(self._n) - 1 if self._n else 0
        dd = len(self._d) - 1 if self._d else 0
        num, den = _prev(self._n), _prev(self._d)
        if dd >= dn:
            num = _pshift(num, dd - dn)
        else:
            den = _pshift(den, dn - dd)
        return Scalar(num, den)

    def eval_q1(self) -> Fraction:
        """Exact value at q = 1; raises :class:`PoleAtOneError` on a pole."""
        den = sum(self._d)
        if den == 0:
            raise PoleAtOneError(f"denominator of {self} vanishes at q = 1")
        return Fraction(sum(self._n), den)

    def evaluate(self, x: Fraction) -> Fraction:
        """Exact value at a rational point (used by test oracles)."""
        num = Fraction(0)
        for c in reversed(self._n):
            num = num * x + c
        den = Fraction(0)
        for c in reversed(self._d):
            den = den * x + c
        if den == 0:
            raise DivisionByZeroError(f"denominator of {self} vanishes at q = {x}")
        return num / den

    # -- equality / display -------------------------------------------------

    def __eq__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        # an integer hashes like the int it equals
        if self._d == (1,) and len(self._n) < 2:
            return hash(self._n[0]) if self._n else 0
        return hash((self._n, self._d))

    def __bool__(self):
        return bool(self._n)

    def __str__(self):
        if not self._n:
            return "0"
        if self._d == (1,):
            return _poly_str(self._n)
        if _is_monomial(self._d) and self._d[-1] == 1:
            return _poly_str(self._n, shift=-(len(self._d) - 1))
        ns = _poly_str(self._n)
        ds = _poly_str(self._d)
        if " " in ns:
            ns = f"({ns})"
        if " " in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"Scalar({self})"


# Bound of each memo.  At seed 7 the product memo ends the benchmark's work
# with 2,661 entries on verify-paper, 1,547 on diff-confluence and 7,685 on
# normalize-session.
_MEMO_SIZE = 1 << 15


@lru_cache(maxsize=_MEMO_SIZE)
def _canonical(n, d):
    if not d:
        raise DivisionByZeroError("zero denominator")
    if not n:
        return (), (1,)
    if _is_monomial(n) or _is_monomial(d):
        # the gcd is c q^k
        k, c = min(_pval(n), _pval(d)), _int_gcd(*n, *d)
        n, d = n[k:], d[k:]
        if c > 1:
            n, d = tuple([x // c for x in n]), tuple([x // c for x in d])
    else:
        cn, cd = _int_gcd(*n), _int_gcd(*d)
        n, d = _cancel(tuple([x // cn for x in n]), tuple([x // cd for x in d]))
        c = _int_gcd(cn, cd)
        cn, cd = cn // c, cd // c
        if cn > 1:
            n = tuple([cn * x for x in n])
        if cd > 1:
            d = tuple([cd * x for x in d])
    if d[-1] < 0:
        n, d = _pneg(n), _pneg(d)
    return n, d


@lru_cache(maxsize=_MEMO_SIZE)
def _product(an, ad, bn, bd):
    """The scalar (an/ad) * (bn/bd); equal products share one object."""
    return Scalar(_pmul(an, bn), _pmul(ad, bd))


@lru_cache(maxsize=_MEMO_SIZE)
def _sum(an, ad, bn, bd):
    """The scalar an/ad + bn/bd; equal sums share one object."""
    if ad == bd:
        return Scalar(_padd(an, bn), ad)
    return Scalar(_padd(_pmul(an, bd), _pmul(bn, ad)), _pmul(ad, bd))


Q = Scalar.q_power(1)
ONE = Scalar.from_int(1)
ZERO = Scalar.from_int(0)
