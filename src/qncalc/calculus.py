"""Exterior derivatives, the maps between calculi, derived differential
rules, and vector fields for the calculus presets.

Each calculus preset stores its 1-forms in the diagonalized basis that
makes the rewrite rules monomial.  Its preset file declares the
differential of every generator and each form in terms of the primitive
differentials ``del_a .. del_d``; this module derives everything else
from the declared calculus, the standard forms too: indexed 1..4 by
row-major matrix position, they are the Maurer-Cartan forms S(T).dT
(left) or dT.S(T) (right), written in the preset's own forms.  A map
between calculi (a reduction, the interchange) is given by the images of
the coordinates that move; d forces the image of every form.

Sign conventions realized here (and asserted by the closure checks):

* left derivative:  d(fg) = f d(g) + (-1)^{deg g} d(f) g
* right derivative: d(fg) = d(f) g + (-1)^{deg f} f d(g)
* the form-valued matrices close as d(form) = +(form.form) entrywise;
  the opposite sign is incompatible with d^2 = 0 under these Leibniz
  rules.

Vector-field composition (frozen after testing both candidate orders
against the cubic relation sets; recorded in reports):

* left fields act on the right and compose in reading order:
  ``f V_i V_j`` means ``(f V_i) V_j``;
* right fields act on the left and compose as operators:
  ``V_i V_j f`` means ``V_i (V_j f)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, NamedTuple

from .ncalg import (
    Element,
    Generator,
    Presentation,
    RewriteRule,
    TerminationOrder,
    UnknownGeneratorError,
    add_scaled,
    normal_words,
    normalize,
    orient,
    validate_presentation,
)
from .presentations import ANTIPODE_IMAGES, Morphism, preset
from .qfield import ONE, Scalar
from .rmatrix import T, matmul, matrix_residuals

__all__ = [
    "DiffStructure",
    "apply_delta",
    "nilpotent_residuals",
    "reduction_morphisms",
    "interchange_left_to_right",
    "interchange_right_to_left",
    "delta_respects_rules",
    "maurer_cartan_residuals",
    "maurer_cartan_forms",
    "form_diff_roundtrip_residuals",
    "diff_presentation",
    "CALCULUS_PRESETS",
    "vector_field_components",
    "VECTOR_FIELDS",
    "check_vector_algebra",
    "COMPOSITION_CONVENTION",
]

_q = Scalar.q_power

CALCULUS_PRESETS = (
    "glq2-left", "slq2-left", "qplane-left-b0", "qplane-left-c0",
    "glq2-right", "slq2-right", "qplane-right-b0", "qplane-right-c0",
)

COMPOSITION_CONVENTION = (
    "left fields: f V_i V_j = (f V_i) V_j (reading order); "
    "right fields: V_i V_j f = V_i (V_j f) (operator order)"
)


class DiffStructure(NamedTuple("DiffStructure", [
        ("side", str), ("images", Mapping), ("coords", tuple), ("forms", Mapping),
        ("dependencies", tuple)])):
    """A calculus: its side and generator differentials, plus what a preset
    declares for the differential mode: the coordinates x whose ``del_x``
    span it, each form over the parameters and ``del_x``, and the linear
    relations among the ``del_x``."""

    __slots__ = ()

    def __new__(cls, side: str, images: Mapping[str, Element], coords: tuple = (),
                forms: Mapping[str, Element] | None = None, dependencies: tuple = ()):
        if side not in ("left", "right"):
            raise ValueError(f"bad side {side!r}")
        return super().__new__(cls, side, images, coords,
                               {} if forms is None else forms, dependencies)

    def del_images(self) -> dict:
        """``del_x -> d(x)`` for each coordinate x: the substitution that
        takes a differential-mode element back to form mode."""
        return {f"del_{x}": self.images[x] for x in self.coords}


def apply_delta(x: Element, p: Presentation) -> Element:
    """The exterior derivative of ``p.calculus``, as a normal form: the
    sum of coef * d(w) over the words of x (a sum of normal forms is normal).

    d of a word is memoized per presentation, and computed from d of that
    word with one letter peeled, the letter whose Leibniz sign is (-1)^{|g|}:

    * left:  d(w.g) = w.d(g) + (-1)^{|g|} d(w).g
    * right: d(g.w) = d(g).w + (-1)^{|g|} g.d(w)

    Each step is one ``normalize`` under the default step budget, whose
    charge is fixed by the word; a d(w) is memoized only once its step has
    succeeded, so whether a budget trips does not depend on what ran before.

    Soundness.  Let D(w) be the memoized value and d the derivation of the
    free algebra.  By induction on length, D(w) = d(w) mod the ideal I of
    the rules: I is two-sided, so D(w).g = d(w).g mod I, and ``normalize``
    keeps an element in its class.  The peeled word need not be normal.
    So d(d(w)) computed this way rests on the same premise as a full
    Leibniz expansion would: d(I) within I, which ``delta-respects-rules``
    checks.  Where normal forms are unique (a confluent presentation;
    Bergman's diamond lemma), D(w) is the expansion's normal form.
    """
    delta = _derivative(p)
    out: dict = {}
    for word, coef in x.items():
        add_scaled(out, delta(word).items(), coef)
    return Element(out, _trusted=True)


@lru_cache(maxsize=None)
def _derivative(p: Presentation):
    """word -> d(word) of :func:`apply_delta`, memoized for the life of
    ``p``; keyed by the object, so a user file named like a preset gets its
    own."""
    d = p.calculus
    if d is None:
        raise ValueError(f"{p.name} declares no differential calculus")
    left = d.side == "left"
    memo = {(): Element.zero()}

    def delta(word):
        hit = memo.get(word)
        if hit is None:
            g, rest = (word[-1], word[:-1]) if left else (word[0], word[1:])
            img = d.images.get(g)
            if img is None:
                raise UnknownGeneratorError(g)
            sign = -ONE if p.parity[g] else ONE
            if left:
                out = {rest + v: c for v, c in img.items()}
                add_scaled(out, ((v + (g,), c) for v, c in delta(rest).items()), sign)
            else:
                out = {v + rest: c for v, c in img.items()}
                add_scaled(out, (((g,) + v, c) for v, c in delta(rest).items()), sign)
            hit = memo[word] = normalize(Element(out, _trusted=True), p)
        return hit

    return delta


def _morphism(source: str, target: str, images: Mapping[str, Element],
              scalar_fn=None, name: str | None = None) -> Morphism:
    """The map of calculi from preset ``source`` to preset ``target`` that
    sends each even generator x to ``images[x]`` (to itself when absent)
    and maps coefficients by ``scalar_fn``.  The forms' images are forced
    by d: each ``form`` line of the source, its even generators mapped,
    ``del_x`` sent to d(image of x) in the target, normalized there."""
    name = name or f"{source}->{target}"
    tgt, ds = preset(target), preset(source).calculus
    dels = {f"del_{x}": apply_delta(images.get(x, Element.word(x)), tgt)
            for x in ds.coords}
    push = Morphism(name, source, tgt, {**images, **dels}, scalar_fn)
    forms = {f: push.apply(form) for f, form in ds.forms.items()}
    return Morphism(name, source, tgt, {**images, **forms}, scalar_fn)


def reduction_morphisms() -> list[Morphism]:
    """The six nested reductions, left chain then right: GL -> SL sets the
    determinant to 1, SL -> each plane kills c or b."""
    one, zero = Element.unit(), Element.zero()
    return [_morphism(source.format(side), target.format(side), images)
            for side in ("left", "right")
            for source, target, images in (
                ("glq2-{}", "slq2-{}", {"D": one, "Dinv": one}),
                ("slq2-{}", "qplane-{}-c0", {"c": zero}),
                ("slq2-{}", "qplane-{}-b0", {"b": zero}))]


# a <-> d with q -> 1/q matches each GL calculus with the other side's
_SWAP_AD = {"a": Element.word("d"), "d": Element.word("a")}


def interchange_left_to_right() -> Morphism:
    return _morphism("glq2-left", "glq2-right", _SWAP_AD, Scalar.invert_q, "interchange")


def interchange_right_to_left() -> Morphism:
    return _morphism("glq2-right", "glq2-left", _SWAP_AD, Scalar.invert_q, "interchange-rev")


def nilpotent_residuals(p: Presentation, max_degree: int = 4) -> list:
    """d(d(w)) for every normal-form word of total degree <= max_degree, as
    (word, residual) pairs."""
    return [(word, apply_delta(apply_delta(Element.term(ONE, word), p), p))
            for word in normal_words(p, max_degree)]


def delta_respects_rules(p: Presentation) -> list:
    """d applied to every defining relation rewrites to zero, as (label,
    residual) pairs."""
    return [(f"delta-respects[{'.'.join(r.lhs)}]", apply_delta(r.relation(), p))
            for r in p.rules]


# ---------------------------------------------------------------------------
# the Maurer-Cartan forms and their dual
# ---------------------------------------------------------------------------

def maurer_cartan_forms(p: Presentation, side: str | None = None) -> tuple:
    """The standard forms 1..4 (row-major matrix position): the 2x2 matrix
    S(T).dT on a left calculus and dT.S(T) on a right one (or on ``side``),
    normalized in ``p``.  A generator ``p`` lacks takes its value in the
    reductions: Dinv is 1, a missing b or c is 0."""
    lost = {g: Element.zero() for g in "bc" if g not in p.parity}
    if "Dinv" not in p.parity:
        lost["Dinv"] = Element.unit()
    dt = [[apply_delta(x.substitute(lost), p) for x in row] for row in T]
    s = [[x.substitute(ANTIPODE_IMAGES).substitute(lost) for x in row] for row in T]
    omega = matmul(s, dt) if (side or p.calculus.side) == "left" else matmul(dt, s)
    return tuple(tuple(normalize(x, p) for x in row) for row in omega)


def _dual(omega, p: Presentation) -> dict:
    """form -> {k: c} with form = sum_k c * omega_k, by Gauss-Jordan over
    omega_1..omega_4 in order, skipping one that depends on those before.
    Only one-letter odd words pivot, so a broken calculus whose forms keep
    other words still gives a table, and failing checks."""
    rows: dict = {}     # pivot -> {form: c} beside {k: c} of the omega_k; 1 at the pivot
    for k, x in enumerate(sum(omega, ()), 1):
        row = {w[0]: c for w, c in x.items() if len(w) == 1 and p.parity[w[0]]}
        row[k] = ONE
        for f, r in rows.items():
            if f in row:
                add_scaled(row, r.items(), -row[f])
        f = next((g for g in row if isinstance(g, str)), None)
        if f is None:
            continue
        row = {g: c / row[f] for g, c in row.items()}
        for r in rows.values():
            if f in r:
                add_scaled(r, row.items(), -r[f])
        rows[f] = row
    return {f: {k: c for k, c in r.items() if isinstance(k, int)} for f, r in rows.items()}


def maurer_cartan_residuals(p: Presentation) -> list:
    """Entrywise closure d(form) = +form.form of the form-valued matrix
    (the + closure is the consistent sign), as (label, residual) pairs."""
    omega = maurer_cartan_forms(p)
    d_omega = [[apply_delta(x, p) for x in row] for row in omega]
    return matrix_residuals(f"maurer-cartan[{p.name}]", d_omega, matmul(omega, omega), p)


# ---------------------------------------------------------------------------
# forms <-> primitive differentials, derived differential-mode rules
# ---------------------------------------------------------------------------

def form_diff_roundtrip_residuals(p: Presentation) -> list:
    """Substituting the generator differentials back into the
    form-through-differential expressions must reproduce each primitive
    form exactly (the conversion is invertible).  One (label, residual)
    pair per odd generator; one without a ``form`` line gets a string
    residual saying so, and fails."""
    ds = p.calculus
    subst = ds.del_images()
    return [(f"form-roundtrip[{p.name}][{form}]",
             f"form {form} has no form line" if form not in ds.forms
             else normalize(ds.forms[form].substitute(subst), p) - Element.word(form))
            for form in p.odd_names()]


def _form_slot(word, p: Presentation):
    """``(rest, form)`` of a form-mode word whose one form sits at the end
    ``p.form_position`` names; any other word raises ValueError."""
    right = p.form_position == "right"
    rest, form = (word[:-1], word[-1]) if right else (word[1:], word[0])
    if p.parity[form] != 1 or p.form_degree(rest):
        raise ValueError(f"expected one form, {'rightmost' if right else 'leftmost'}, "
                         f"in {'.'.join(word)}")
    return rest, form


def diff_presentation(p) -> Presentation:
    """The derived differential-mode presentation of a calculus.  A preset
    id, with or without its ``-diff`` suffix, names the built-in one."""
    if isinstance(p, str):
        p = preset(p.removesuffix("-diff"))
    return _derived(p)


@lru_cache(maxsize=None)
def _derived(p: Presentation) -> Presentation:
    """Machine-derive the parameter/differential commutation rules of the
    calculus ``p`` declares, memoized per presentation object, so a user
    file named like a preset gets its own.

    For every primitive differential del_x and even generator y the
    normal form of (del_x . y) [left] or (y . del_x) [right] is computed
    in form mode, converted through the calculus's ``form`` expressions,
    and emitted as a migration-ordered rule.  The result is the ground
    truth the printed relation tables are regression-compared against.

    The calculus's ``dependencies`` are zero relations among the
    differentials (three forms span the unimodular presets' four).  They
    are oriented first, on their largest words, and reduce every derived
    right-hand side once; no derived rule rewrites before validation.

    A calculus whose forms cannot be converted (a term with other than
    one form, a form off its boundary slot or without a ``form`` line),
    or whose derived rules fail validation, raises ValueError.
    """
    d = p.calculus
    if d is None:
        raise ValueError(f"{p.name} declares no differential calculus")
    evens = [g for g in p.generators if g.parity == 0]
    gens = evens + [Generator(f"del_{x}", 1) for x in d.coords]
    order = TerminationOrder("migration", form_side=p.form_position)   # the del_x go there
    even_rules = [r for r in p.rules
                  if all(p.parity[g] == 0 for g in r.lhs)
                  and all(p.parity[g] == 0 for w_, _ in r.rhs.items() for g in w_)]
    skeleton = Presentation(p.name + "-diff-skeleton", gens, order, even_rules)
    deps = orient(d.dependencies, skeleton, "derived-dependency")
    skeleton = Presentation(skeleton.name, gens, order, even_rules + deps)

    def convert(form_mode: Element) -> Element:
        for word in form_mode.words():
            _, form = _form_slot(word, p)
            if form not in d.forms:
                raise ValueError(f"form {form} has no form line")
        return form_mode.substitute(d.forms)

    rules = list(even_rules)
    for x in d.coords:
        dx = f"del_{x}"
        for y in (g.name for g in evens):
            if d.side == "left":
                prod = normalize(d.images[x] * Element.word(y), p)
                lhs = (dx, y)
            else:
                prod = normalize(Element.word(y) * d.images[x], p)
                lhs = (y, dx)
            rhs = normalize(convert(prod), skeleton)
            rules.append(RewriteRule(lhs, rhs, f"derived[{lhs[0]}.{lhs[1]}]"))
    out = Presentation(p.name + "-diff", gens, order, rules + deps)
    report = validate_presentation(out)
    if not report.valid:
        raise ValueError(f"derived rules fail validation: {'; '.join(map(str, report.issues))}")
    return out


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def vector_field_components(f: Element, p: Presentation) -> dict:
    """Coefficients of d(f) in the standard (matrix-position) 1-form basis.

    Left structures decompose d(f) = sum_k (component_k) theta^k with the
    form rightmost; right structures as d(f) = sum_k omega^k (component_k).
    """
    return _components(f, p, _dual(maurer_cartan_forms(p), p))


def _components(f, p, table) -> dict:
    """:func:`vector_field_components` given the :func:`_dual` table."""
    df = apply_delta(f, p)
    prim: dict = {}         # form -> the word -> Scalar dict of its component
    for word, coef in df.items():
        rest, form = _form_slot(word, p)
        add_scaled(prim.setdefault(form, {}), ((rest, coef),), ONE)
    out: dict = {}
    for form, comp in prim.items():
        for k, coef in table[form].items():
            add_scaled(out.setdefault(k, {}), comp.items(), coef)
    return {k: Element(v, _trusted=True) for k, v in out.items() if v}


# what each field a ``vector-<id>`` block names means: its (k, c) terms over
# the components k of :func:`vector_field_components`; the hatted ones
# combine V1 and V4
_FIELDS = {side: {**{f"V{k}": ((k, ONE),) for k in (1, 2, 3, 4)},
                  "Vh1": ((1, ONE), (4, -shrink)), "Vh4": ((1, ONE), (4, ONE))}
           for side, shrink in (("left", _q(2)), ("right", _q(-2)))}
VECTOR_FIELDS = tuple(_FIELDS["left"])


def check_vector_algebra(relations, p: Presentation, max_degree: int = 3) -> list:
    """Evaluate each ``(tag, lhs, rhs)`` relation over words of
    :data:`VECTOR_FIELDS` on every even normal-form monomial of degree
    <= max_degree under the frozen composition convention: one
    ``(tag, [(monomial, residual)])`` entry per relation.

    The terms of every field on a word are memoized for this call only,
    all from one decomposition of d(word) by :func:`_components`, and the
    basis table is built once.
    """
    corpus = list(normal_words(p, max_degree, alphabet=p.even_names()))
    table = _dual(maurer_cartan_forms(p), p)
    fields = _FIELDS[p.calculus.side]
    memo: dict = {}     # word -> {field: its terms on that word}

    def apply(x: Element, op: str) -> Element:
        out: dict = {}
        for word, coef in x.items():
            row = memo.get(word)
            if row is None:
                comps = _components(Element({word: ONE}, _trusted=True), p, table)
                row = memo[word] = {}
                for field, terms in fields.items():
                    acc: dict = {}
                    for k, c in terms:
                        add_scaled(acc, comps.get(k, Element.zero()).items(), c)
                    row[field] = tuple(acc.items())
            add_scaled(out, row[op], coef)
        return Element(out, _trusted=True)

    def on(word, rel):
        acc: dict = {}
        for ops, coef in rel:
            x = Element({word: ONE}, _trusted=True)
            for op in ops if p.calculus.side == "left" else reversed(ops):
                x = apply(x, op)
                if x.is_zero:
                    break
            add_scaled(acc, x.items(), coef)
        return Element(acc, _trusted=True)

    rels = [(tag, (lhs - rhs).items()) for tag, lhs, rhs in relations]
    return [(tag, [(word, on(word, rel)) for word in corpus]) for tag, rel in rels]
