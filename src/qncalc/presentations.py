"""Built-in presentations, their Hopf-map residuals, and the morphism record.

Nine presets cover the 2x2 q-deformed matrix algebra, its left and right
differential-form extensions at the matched deformation parameter, the
unimodular reductions, and the four coordinate-plane reductions.  Each
is declared once, as a presentation-DSL file ``presets/<id>.preset``
shipped with the package; its header comment names the generators.
Rules carry equation tags (strings like ``eq-2.11``) naming the source
relation they orient; reports are keyed by these tags.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

from .ncalg import (
    Element,
    Generator,
    Presentation,
    RewriteRule,
    TerminationOrder,
    normalize,
)
from .qfield import ONE, ZERO, Scalar
from .rmatrix import T, matmul, matrix, matrix_residuals, transpose

__all__ = [
    "PRESET_IDS",
    "preset",
    "free_presentation",
    "preset_without_rule",
    "qdet",
    "tensor_square",
    "epsilon_identity_residuals",
    "coproduct_residuals",
    "antipode_residuals",
    "Morphism",
    "ANTIPODE_IMAGES",
]

_q = Scalar.q_power

PRESET_IDS = (
    "glq2",
    "glq2-left",
    "glq2-right",
    "slq2-left",
    "slq2-right",
    "qplane-left-b0",
    "qplane-left-c0",
    "qplane-right-b0",
    "qplane-right-c0",
)

_PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


@lru_cache(maxsize=None)
def preset(preset_id: str) -> Presentation:
    """The validated built-in presentation for a stable preset id."""
    if preset_id not in PRESET_IDS:
        raise KeyError(f"unknown preset {preset_id!r}; known: {', '.join(PRESET_IDS)}")
    from .dsl import parse_presentation     # dsl imports this module, for ``extends``
    with open(os.path.join(_PRESET_DIR, f"{preset_id}.preset"), encoding="utf-8") as f:
        return parse_presentation(f.read())


def builtin_id(p: Presentation) -> str | None:
    """The id of the built-in preset ``p`` is, or None.  Data kept per
    preset (printed tables, the trace form) is reached only through this,
    so a user file named like a preset never picks it up."""
    return p.name if p.name in PRESET_IDS and p is preset(p.name) else None


def free_presentation(*names: str) -> Presentation:
    """A free algebra on even generators (no rules; normalize is identity)."""
    return Presentation("free", [Generator(n, 0) for n in names],
                        TerminationOrder("deglex"), [], form_position=None)


def preset_without_rule(p: Presentation, lhs: str) -> Presentation:
    """Copy of ``p`` with the rule whose LHS is the dotted word removed."""
    target = tuple(lhs.split("."))
    rules = [r for r in p.rules if r.lhs != target]
    if len(rules) == len(p.rules):
        raise KeyError(f"no rule with LHS {lhs} in {p.name}")
    return Presentation(f"{p.name}-without-{lhs}", p.generators, p.order, rules,
                        form_position=p.form_position, tags=p.tags, calculus=p.calculus)


# ---------------------------------------------------------------------------
# quantum determinant and Hopf-map checks
# ---------------------------------------------------------------------------

def qdet(p: Presentation) -> Element:
    """The quantum determinant element a.d - q b.c."""
    p.check_word(("a", "d"))
    return T[0][0] * T[1][1] - _q(1) * (T[0][1] * T[1][0])


def epsilon_identity_residuals(p: Presentation) -> list:
    """The entries of the deformed Levi-Civita identities (eq 2.8), reading
    the dagger as transpose, as (label, residual) pairs."""
    eps = matrix(ZERO, ONE, -_q(1), ZERO)
    det = normalize(qdet(p), p)
    want = [[c * det for c in row] for row in eps]
    tt = transpose(T)
    return (matrix_residuals("T^t.eps.T", matmul(matmul(tt, eps), T), want, p)
            + matrix_residuals("T.eps.T^t", matmul(matmul(T, eps), tt), want, p))


def tensor_square(p: Presentation) -> Presentation:
    """Two commuting copies of ``p`` (even sector), legs suffixed 1 and 2."""
    gens = [Generator(g.name + leg, g.parity) for leg in "12" for g in p.generators]
    rules = []
    for leg in ("1", "2"):
        for r in p.rules:
            lhs = tuple(g + leg for g in r.lhs)
            rhs = Element({tuple(g + leg for g in w): c for w, c in r.rhs.items()})
            rules.append(RewriteRule(lhs, rhs, r.provenance))
    for g2 in p.generators:
        for g1 in p.generators:
            rules.append(RewriteRule(
                (g2.name + "2", g1.name + "1"),
                Element.word(g1.name + "1", g2.name + "2"), "tensor"))
    return Presentation(p.name + "-tensor", gens, p.order, rules,
                        form_position=None, tags=p.tags)


def _coproduct_images() -> dict:
    """Delta(T) = T1.T2 with D and Dinv grouplike; legs suffixed 1 and 2."""
    t1, t2 = ([[Element.word(f"{x}{leg}") for x in row] for row in T] for leg in "12")
    images = {str(x): y for row, out in zip(T, matmul(t1, t2)) for x, y in zip(row, out)}
    images.update((n, Element.word(n + "1", n + "2")) for n in ("D", "Dinv"))
    return images


_COUNIT_IMAGES = {
    "a": Element.unit(), "d": Element.unit(),
    "D": Element.unit(), "Dinv": Element.unit(),
    "b": Element.zero(), "c": Element.zero(),
}


def coproduct_residuals(p: Presentation) -> list:
    """Coproduct and counit respect every defining relation; the
    determinant is grouplike (eq 2.9).  (label, residual) pairs."""
    tp = tensor_square(p)
    delta = _coproduct_images()
    out = [(f"coproduct[{'.'.join(r.lhs)}]", normalize(r.relation().substitute(delta), tp))
           for r in p.rules]
    det = qdet(p)
    grouplike = det.substitute(delta) - (
        det.substitute({n: Element.word(n + "1") for n in ("a", "b", "c", "d")})
        * det.substitute({n: Element.word(n + "2") for n in ("a", "b", "c", "d")}))
    out.append(("coproduct[qdet grouplike]", normalize(grouplike, tp)))
    return out + [(f"counit[{'.'.join(r.lhs)}]", r.relation().substitute(_COUNIT_IMAGES))
                  for r in p.rules]


ANTIPODE_IMAGES: Mapping[str, Element] = {
    # confirmed below by solving S(T).T = T.S(T) = 1 inside the engine
    "a": Element.word("d.Dinv"),
    "b": Element.term(-_q(-1), ("b", "Dinv")),
    "c": Element.term(-_q(1), ("c", "Dinv")),
    "d": Element.word("a.Dinv"),
}


def antipode_residuals(p: Presentation) -> list:
    """S(T) is the two-sided matrix inverse, and S(qdet) is Dinv;
    (label, residual) pairs."""
    s = [[x.substitute(ANTIPODE_IMAGES) for x in row] for row in T]
    one, zero = Element.unit(), Element.zero()
    ident = matrix(one, zero, zero, one)
    # S is an antihomomorphism; on the determinant it must give Dinv
    s_det = (s[1][1] * s[0][0]) - _q(1) * (s[1][0] * s[0][1])
    return (matrix_residuals("S(T).T", matmul(s, T), ident, p)
            + matrix_residuals("T.S(T)", matmul(T, s), ident, p)
            + [("S(qdet) = Dinv", normalize(s_det, p) - Element.word("Dinv"))])


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class Morphism(NamedTuple):
    """Generator substitution plus a coefficient map into a target
    presentation.  A generator without an image maps to itself;
    ``scalar_fn``, when given, maps every coefficient.  The built-in maps
    are built in :mod:`qncalc.calculus`, which derives their form images."""

    name: str
    source: str
    target: Presentation
    images: Mapping[str, Element]
    scalar_fn: Callable[[Scalar], Scalar] | None = None

    def apply(self, x: Element, normalized: bool = True) -> Element:
        out = x.substitute(self.images, scalar_fn=self.scalar_fn)
        return normalize(out, self.target) if normalized else out
