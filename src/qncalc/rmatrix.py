"""The matrix layer, the fundamental 4x4 R-matrix, and the Yang-Baxter
and RTT residuals.

A matrix is a tuple of rows whose entries are Scalars or Elements; :data:`T`
is the quantum matrix (a b; c d).  :func:`matmul` keeps the order of the
factors in each term, so Element entries need not commute.  The paper's
matrix identities (RTT, Yang-Baxter, the Hopf maps, the Maurer-Cartan
closure) are products in this layer.  Composite indices flatten pairs
(i,j) with i,j in {1,2} in the order 11, 12, 21, 22, so entries line up
with the printed matrix (eq 2.6); Yang-Baxter lifts R onto two of three
tensor slots, with index triples in the same order.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul, sub

from .ncalg import Element, Presentation, normalize
from .qfield import ONE, Scalar, ZERO

__all__ = [
    "T",
    "matrix",
    "matmul",
    "transpose",
    "matrix_residuals",
    "RMatrix",
    "standard_r",
    "perturbed_r",
    "ybe_residual",
    "rtt_residual",
    "forms_rtt_compat",
    "r_inverse_conventions",
]

_q = Scalar.q_power
_LAM = _q(1) - _q(-1)

RMatrix = tuple  # 4x4 tuple of tuples of Scalar


def matrix(a, b, c, d) -> tuple:
    """The 2x2 matrix (a b; c d)."""
    return ((a, b), (c, d))


T = matrix(*map(Element.word, "abcd"))   # the quantum matrix (eq 2.4)


def transpose(m) -> tuple:
    """The transpose of a square matrix."""
    return tuple(zip(*m))


def matmul(x, y) -> tuple:
    """The product x.y of two square matrices of Scalars or Elements."""
    cols = tuple(zip(*y))
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in cols) for row in x)


def _minus(x, y) -> tuple:
    return tuple(tuple(map(sub, u, v)) for u, v in zip(x, y))


def matrix_residuals(label: str, got, want, p: Presentation) -> list:
    """(label[ij], normal form of got - want at (i, j)) for each entry of
    two square matrices of Elements; each must vanish modulo ``p``."""
    return [(f"{label}[{i}{j}]", normalize(x, p))
            for i, row in enumerate(_minus(got, want), 1) for j, x in enumerate(row, 1)]


def _flat(i: int, j: int) -> int:
    return 2 * (i - 1) + (j - 1)


def standard_r() -> RMatrix:
    """R of eq 2.6: diag(q,1,1,q) plus a lambda in the (21),(12) slot."""
    m = [[ZERO] * 4 for _ in range(4)]
    m[_flat(1, 1)][_flat(1, 1)] = _q(1)
    m[_flat(1, 2)][_flat(1, 2)] = ONE
    m[_flat(2, 1)][_flat(1, 2)] = _LAM
    m[_flat(2, 1)][_flat(2, 1)] = ONE
    m[_flat(2, 2)][_flat(2, 2)] = _q(1)
    return tuple(tuple(row) for row in m)


def perturbed_r() -> RMatrix:
    """Negative control: the lambda entry replaced by the constant 1."""
    m = [list(row) for row in standard_r()]
    m[_flat(2, 1)][_flat(1, 2)] = ONE
    return tuple(tuple(row) for row in m)


def entry(r: RMatrix, i, j, k, l) -> Scalar:
    """R^{ij}_{kl} (upper pair = row, lower pair = column)."""
    return r[_flat(i, j)][_flat(k, l)]


_TRIPLES = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]


def _lift(r: RMatrix, s: int, t: int) -> tuple:
    """R acting on the tensor slots s < t of three (the other slot
    untouched), as an 8x8 matrix over index triples."""
    u = 3 - s - t
    return tuple(tuple(r[2 * x[s] + x[t]][2 * y[s] + y[t]] if x[u] == y[u] else ZERO
                       for y in _TRIPLES) for x in _TRIPLES)


def ybe_residual(r: RMatrix) -> tuple:
    """R12.R13.R23 - R23.R13.R12, the Yang-Baxter equation (eq 2.5) as an
    8x8 array whose rows and columns are index triples (i, j, k)."""
    r12, r13, r23 = _lift(r, 0, 1), _lift(r, 0, 2), _lift(r, 1, 2)
    return _minus(matmul(matmul(r12, r13), r23), matmul(matmul(r23, r13), r12))


def rtt_components(r: RMatrix) -> dict:
    """The 16 free-algebra elements R.(T1.T2) - (T2.T1).R (eq 2.4), keyed
    by the free indices (i, j, m, n)."""
    pairs = [(i, j) for i in (0, 1) for j in (0, 1)]
    t1t2 = tuple(tuple(T[i][m] * T[j][n] for m, n in pairs) for i, j in pairs)
    t2t1 = tuple(tuple(T[j][n] * T[i][m] for m, n in pairs) for i, j in pairs)
    res = _minus(matmul(r, t1t2), matmul(t2t1, r))
    return {(i + 1, j + 1, m + 1, n + 1): x
            for (i, j), row in zip(pairs, res) for (m, n), x in zip(pairs, row)}


def rtt_residual(r: RMatrix, p: Presentation) -> dict:
    """Each RTT component normalized under ``p``; all zero iff the RTT
    relation holds modulo the presentation's relations."""
    return {idx: normalize(comp, p) for idx, comp in rtt_components(r).items()}


def forms_rtt_compat(r: RMatrix, p: Presentation) -> list:
    """Forms times the RTT relations must still rewrite to zero
    (eq 3.2 for the left calculus, its section-5 mirror on the right),
    as (label, residual) pairs."""
    if p.form_position not in ("left", "right"):
        raise ValueError(f"{p.name} is not a calculus presentation")
    comps = rtt_components(r)
    right = p.form_position == "right"
    return [(f"forms-rtt[{f},{''.join(map(str, idx))}]",
             normalize(Element.word(f) * comp if right else comp * Element.word(f), p))
            for f in p.odd_names() for idx, comp in comps.items()]


def format_r(r: RMatrix) -> list:
    """The matrix as a 4x4 table of canonical scalar strings (for reports)."""
    return [[str(c) for c in row] for row in r]


def r_inverse_conventions() -> dict:
    """Which convention realizes R_q as the inverse of R_{1/q}.

    Returns {"plain": bool, "transposed": bool}: ``plain`` multiplies
    R(q).R(1/q) directly; ``transposed`` flips both composite indices of
    R(1/q) first.
    """
    r = standard_r()
    rinv = tuple(tuple(c.invert_q() for c in row) for row in r)
    ident = tuple(tuple(ONE if i == j else ZERO for j in range(4)) for i in range(4))
    return {label: matmul(r, cand) == ident
            for label, cand in (("plain", rinv), ("transposed", transpose(rinv)))}
