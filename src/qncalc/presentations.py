"""Built-in presentations and the maps between them.

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
from .qfield import Scalar
from .reports import Check

__all__ = [
    "PRESET_IDS",
    "preset",
    "free_presentation",
    "preset_without_rule",
    "qdet",
    "tensor_square",
    "epsilon_identity_check",
    "coproduct_check",
    "antipode_check",
    "Morphism",
    "interchange_left_to_right",
    "interchange_right_to_left",
    "reduction_morphisms",
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


def free_presentation(*names: str, name: str = "free") -> Presentation:
    """A free algebra on even generators (no rules; normalize is identity)."""
    return Presentation(name, [Generator(n, 0, i) for i, n in enumerate(names)],
                        TerminationOrder("deglex"), [], form_position=None)


def preset_without_rule(p: Presentation, lhs: str) -> Presentation:
    """Copy of ``p`` with the rule whose LHS is the dotted word removed."""
    target = tuple(lhs.split("."))
    rules = [r for r in p.rules if r.lhs != target]
    if len(rules) == len(p.rules):
        raise KeyError(f"no rule with LHS {lhs} in {p.name}")
    return Presentation(f"{p.name}-without-{lhs}", p.generators, p.order, rules,
                        form_position=p.form_position, tags=p.tags)


# ---------------------------------------------------------------------------
# quantum determinant and Hopf-map checks
# ---------------------------------------------------------------------------

def qdet(p: Presentation) -> Element:
    """The quantum determinant element a.d - q b.c (inversion-signed sum)."""
    p.check_word(("a", "d"))
    out = Element.zero()
    for (i, k), inversions in (((1, 2), 0), ((2, 1), 1)):
        word = (_T_NAMES[(1, i)], _T_NAMES[(2, k)])
        out = out + Element.term((-_q(1)) ** inversions, word)
    return out


_T_NAMES = {(1, 1): "a", (1, 2): "b", (2, 1): "c", (2, 2): "d"}


def epsilon_identity_check(p: Presentation) -> list:
    """Entrywise check of the deformed Levi-Civita identities (eq 2.8),
    reading the dagger as transpose."""
    eps = {(1, 1): Element.zero(), (1, 2): Element.unit(),
           (2, 1): Element.term(-_q(1), ()), (2, 2): Element.zero()}
    det = normalize(qdet(p), p)
    t = {ik: Element.word(n) for ik, n in _T_NAMES.items()}
    tt = {(i, k): t[(k, i)] for i, k in t}   # transpose
    checks = []
    for label, left_mat in (("T^t.eps.T", tt), ("T.eps.T^t", t)):
        right_mat = t if left_mat is tt else tt
        for i in (1, 2):
            for j in (1, 2):
                acc = Element.zero()
                for k in (1, 2):
                    for l in (1, 2):
                        acc = acc + left_mat[(i, k)] * eps[(k, l)] * right_mat[(l, j)]
                want = normalize(eps[(i, j)] * det, p)
                got = normalize(acc, p)
                res = got - want
                checks.append(Check.of(
                    res.is_zero, f"{label}[{i}{j}]", "eq-2.8",
                    residual=str(res), details="dagger read as transpose"))
    return checks


def tensor_square(p: Presentation) -> Presentation:
    """Two commuting copies of ``p`` (even sector), legs suffixed 1 and 2."""
    n = len(p.generators)
    gens = ([Generator(g.name + "1", g.parity, g.precedence) for g in p.generators]
            + [Generator(g.name + "2", g.parity, g.precedence + n)
               for g in p.generators])
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


def _coproduct_images(suffixes=("1", "2")) -> dict:
    s1, s2 = suffixes
    leg = lambda name, s: Element.word(name + s)
    return {
        "a": leg("a", s1) * leg("a", s2) + leg("b", s1) * leg("c", s2),
        "b": leg("a", s1) * leg("b", s2) + leg("b", s1) * leg("d", s2),
        "c": leg("c", s1) * leg("a", s2) + leg("d", s1) * leg("c", s2),
        "d": leg("c", s1) * leg("b", s2) + leg("d", s1) * leg("d", s2),
        "D": leg("D", s1) * leg("D", s2),
        "Dinv": leg("Dinv", s1) * leg("Dinv", s2),
    }


_COUNIT_IMAGES = {
    "a": Element.unit(), "d": Element.unit(),
    "D": Element.unit(), "Dinv": Element.unit(),
    "b": Element.zero(), "c": Element.zero(),
}


def coproduct_check(p: Presentation) -> list:
    """Coproduct and counit respect every defining relation; the
    determinant is grouplike (eq 2.9)."""
    tp = tensor_square(p)
    delta = _coproduct_images()
    checks = []
    for r in p.rules:
        rel = r.relation()
        image = normalize(rel.substitute(delta), tp)
        checks.append(Check.of(
            image.is_zero, f"coproduct[{'.'.join(r.lhs)}]", "eq-2.1",
            residual=str(image)))
    det = qdet(p)
    grouplike = det.substitute(delta) - (
        det.substitute({n: Element.word(n + "1") for n in ("a", "b", "c", "d")})
        * det.substitute({n: Element.word(n + "2") for n in ("a", "b", "c", "d")}))
    res = normalize(grouplike, tp)
    checks.append(Check.of(res.is_zero, "coproduct[qdet grouplike]", "eq-2.9",
                           residual=str(res)))
    for r in p.rules:
        image = r.relation().substitute(_COUNIT_IMAGES)
        checks.append(Check.of(
            image.is_zero, f"counit[{'.'.join(r.lhs)}]", "eq-2.2",
            residual=str(image)))
    return checks


ANTIPODE_IMAGES: Mapping[str, Element] = {
    # confirmed below by solving S(T).T = T.S(T) = 1 inside the engine
    "a": Element.word("d.Dinv"),
    "b": Element.term(-_q(-1), ("b", "Dinv")),
    "c": Element.term(-_q(1), ("c", "Dinv")),
    "d": Element.word("a.Dinv"),
}


def antipode_check(p: Presentation) -> list:
    """S(T) is the two-sided matrix inverse, and S(qdet) is Dinv."""
    s = {(i, k): ANTIPODE_IMAGES[_T_NAMES[(i, k)]] for i in (1, 2) for k in (1, 2)}
    t = {ik: Element.word(n) for ik, n in _T_NAMES.items()}
    checks = []
    for label, first, second in (("S(T).T", s, t), ("T.S(T)", t, s)):
        for i in (1, 2):
            for j in (1, 2):
                acc = Element.zero()
                for k in (1, 2):
                    acc = acc + first[(i, k)] * second[(k, j)]
                want = Element.unit() if i == j else Element.zero()
                res = normalize(acc, p) - want
                checks.append(Check.of(res.is_zero, f"{label}[{i}{j}]", "eq-2.3",
                                       residual=str(res)))
    # S is an antihomomorphism; on the determinant it must give Dinv
    s_det = (s[(2, 2)] * s[(1, 1)]) - _q(1) * (s[(2, 1)] * s[(1, 2)])
    res = normalize(s_det, p) - Element.word("Dinv")
    checks.append(Check.of(res.is_zero, "S(qdet) = Dinv", "eq-2.9",
                           residual=str(res)))
    return checks


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

_SCALAR_MAPS: dict[str, Callable[[Scalar], Scalar]] = {
    "id": lambda s: s,
    "invq": lambda s: s.invert_q(),
}


class Morphism(NamedTuple):
    """Generator substitution plus a coefficient map into a target presentation."""

    name: str
    source: str
    target: Presentation
    images: Mapping[str, Element]
    scalar_map: str = "id"

    def apply(self, x: Element, normalized: bool = True) -> Element:
        out = x.substitute(self.images, scalar_fn=_SCALAR_MAPS[self.scalar_map])
        return normalize(out, self.target) if normalized else out


def _identity_images(names) -> dict:
    return {n: Element.word(n) for n in names}


# a <-> d, each left form onto its right counterpart
_INTERCHANGE = {"a": "d", "d": "a", "b": "b", "c": "c", "D": "D", "Dinv": "Dinv",
                "tht1": "wb1", "th2": "w2", "th3": "w3", "tht4": "wb4"}


def interchange_left_to_right() -> Morphism:
    """a <-> d with q -> 1/q, matching left forms onto right forms."""
    images = {x: Element.word(y) for x, y in _INTERCHANGE.items()}
    return Morphism("interchange", "glq2-left", preset("glq2-right"),
                    images, "invq")


def interchange_right_to_left() -> Morphism:
    images = {y: Element.word(x) for x, y in _INTERCHANGE.items()}
    return Morphism("interchange-rev", "glq2-right", preset("glq2-left"),
                    images, "invq")


def reduction_morphisms() -> list[Morphism]:
    """The six nested reductions (left and right chains)."""
    unit = Element.unit()
    zero = Element.zero()
    out = []
    out.append(Morphism(
        "glq2-left->slq2-left", "glq2-left", preset("slq2-left"),
        {**_identity_images(("a", "b", "c", "d", "th2", "th3")),
         "D": unit, "Dinv": unit, "tht1": zero, "tht4": Element.word("th1")}))
    out.append(Morphism(
        "slq2-left->qplane-left-c0", "slq2-left", preset("qplane-left-c0"),
        {**_identity_images(("a", "b", "d", "th1", "th2")), "c": zero, "th3": zero}))
    out.append(Morphism(
        "slq2-left->qplane-left-b0", "slq2-left", preset("qplane-left-b0"),
        {**_identity_images(("a", "c", "d", "th1", "th3")), "b": zero, "th2": zero}))
    out.append(Morphism(
        "glq2-right->slq2-right", "glq2-right", preset("slq2-right"),
        {**_identity_images(("a", "b", "c", "d", "w2", "w3")),
         "D": unit, "Dinv": unit, "wb1": zero, "wb4": Element.word("w1")}))
    out.append(Morphism(
        "slq2-right->qplane-right-c0", "slq2-right", preset("qplane-right-c0"),
        {**_identity_images(("a", "b", "d", "w1", "w2")), "c": zero, "w3": zero}))
    out.append(Morphism(
        "slq2-right->qplane-right-b0", "slq2-right", preset("qplane-right-b0"),
        {**_identity_images(("a", "c", "d", "w1", "w3")), "b": zero, "w2": zero}))
    return out
