"""Exact arithmetic in Q(q), the rational-function field in one variable q.

Every coefficient in the engine is a :class:`Scalar`: a quotient of two
integer-coefficient polynomials in q kept in a canonical form, so that two
scalars are equal iff their stored tuples are identical.  Canonical form
means

* numerator and denominator share no polynomial factor (their gcd, from a
  primitive pseudo-remainder sequence over the integers, is cancelled),
* the integer contents of numerator and denominator are coprime,
* the denominator's leading coefficient is positive,
* the denominator is never the zero polynomial.

Polynomials are little-endian integer tuples (index = power of q) with no
trailing zeros; ``()`` is the zero polynomial.  All arithmetic is exact
and integer-only; no floating point or rational number appears (except in
the evaluations :meth:`Scalar.eval_q1` and :meth:`Scalar.evaluate`).

Canonicalization and multiplication are memoized in bounded
``functools.lru_cache`` tables, which are thread-safe.  A memo only saves
work: results do not depend on what it holds, and equal products share
one immutable :class:`Scalar`.

Scalars are immutable values and safe to share between threads.  The text
syntax for scalar literals (integers, ``q``, ``+ - * / ^``, parentheses)
is implemented by :mod:`qncalc.dsl`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd

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
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
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


def _pcontent(a):
    g = 0
    for c in a:
        g = _int_gcd(g, abs(c))
    return g


def _pval(a):
    """Order of vanishing at q = 0."""
    for i, c in enumerate(a):
        if c:
            return i
    return 0


def _is_monomial(a):
    return bool(a) and all(c == 0 for c in a[:-1])


def _pdiv_exact(a, g):
    """Exact division of integer polynomials; raises on any remainder."""
    if not a:
        return ()
    r = list(a)
    lead, dg = g[-1], len(g) - 1
    quot = [0] * (len(r) - dg)
    for i in range(len(quot) - 1, -1, -1):
        coef, rem = divmod(r[i + dg], lead)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if coef:
            quot[i] = coef
            for j, cg in enumerate(g):
                r[i + j] -= coef * cg
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _pstrip(quot)


def _pprem_primitive(a, b):
    """Primitive part of a pseudo-remainder of a by b (deg a >= deg b)."""
    r = list(a)
    lb, db = b[-1], len(b) - 1
    while len(r) > db:
        lr = r[-1]
        g = _int_gcd(lr, lb)
        ma, mb = lb // g, lr // g
        off = len(r) - 1 - db
        r = [c * ma for c in r]
        for j, cb in enumerate(b):
            r[off + j] -= mb * cb
        while r and not r[-1]:
            r.pop()
    c = _pcontent(r)
    return tuple(x // c for x in r) if c > 1 else tuple(r)


def _pgcd(a, b):
    """Full gcd (content times primitive part), positive leading coefficient.

    A primitive pseudo-remainder sequence over Z (Brown 1971): every
    remainder is divided by its content, which keeps coefficient growth in
    check without any rational arithmetic.
    """
    if not a:
        return _positive_lead(b)
    if not b:
        return _positive_lead(a)
    ca, cb = _pcontent(a), _pcontent(b)
    c = _int_gcd(ca, cb)
    # fast path: a power of q divides both
    if _is_monomial(a) or _is_monomial(b):
        k = min(_pval(a), _pval(b))
        return _pshift((c,), k)
    a = tuple(x // ca for x in a)
    b = tuple(x // cb for x in b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _pprem_primitive(a, b)
    return _positive_lead(tuple(c * x for x in a))


def _positive_lead(a):
    if a and a[-1] < 0:
        return _pneg(a)
    return tuple(a)


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
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(_padd(_pmul(self._n, o._d), _pmul(o._n, self._d)),
                      _pmul(self._d, o._d))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(_pneg(self._n), self._d)

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
        o = Scalar._coerce(other)
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


# Bound of each memo; verify-paper needs about 3.3k entries in the larger.
_MEMO_SIZE = 1 << 15


@lru_cache(maxsize=_MEMO_SIZE)
def _canonical(n, d):
    if not d:
        raise DivisionByZeroError("zero denominator")
    if not n:
        return (), (1,)
    g = _pgcd(n, d)
    if g != (1,):
        n = _pdiv_exact(n, g)
        d = _pdiv_exact(d, g)
    if d[-1] < 0:
        n, d = _pneg(n), _pneg(d)
    return n, d


@lru_cache(maxsize=_MEMO_SIZE)
def _product(an, ad, bn, bd):
    """The scalar (an/ad) * (bn/bd); equal products share one object."""
    return Scalar(_pmul(an, bn), _pmul(ad, bd))


Q = Scalar.q_power(1)
ONE = Scalar.from_int(1)
ZERO = Scalar.from_int(0)
