"""Text formats: scalar/element expressions and the presentation DSL.

Expression syntax: integers, ``q``, ``+ - * / ^`` (integer exponents,
negative allowed), parentheses, and dotted words of generator names
(``a.d``, ``del_a.a``); juxtaposition multiplies, so ``q b.c`` and
``(q - q^-1) b.c`` are products.  Division requires a scalar divisor,
``^`` a scalar base.

Presentation files are line oriented::

    name my-algebra          # optional
    extends glq2             # optional: start from a built-in preset
    order deglex             # or: order migration [left|right]
    gen x y parity even      # declaration order fixes precedence
    gen f parity odd
    rule f.x -> q x.f        # LHS word  ->  element expression
    rule f.f -> 0  @eq-1     # a trailing @tag names the rule's source
    # comments run to end of line

A differential calculus is declared with ``side``, ``coords``, ``diff``,
``form`` and ``dependency`` lines (see ``docs/dsl.md``); the built-in
presets are files of this format in the ``presets`` directory.

Parsed presentations are validated (orientation, parity, generator
references) before being returned.  Bad input of any kind, division by
zero, over-deep nesting and oversized literals, powers or products
included, is rejected with a :class:`DslError`; one raised inside an
expression carries its line and column.
"""

from __future__ import annotations

import re
from itertools import groupby

from .calculus import DiffStructure
from .ncalg import (
    Element,
    Generator,
    Presentation,
    RewriteRule,
    TerminationOrder,
    validate_presentation,
)
from .presentations import PRESET_IDS, preset
from .qfield import ONE, Scalar

__all__ = [
    "DslError",
    "parse_scalar",
    "parse_expression",
    "parse_presentation",
    "export_presentation",
]


class DslError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(f"{message}{where}")


# Bounds on expression input, checked before any work is done.
_MAX_NESTING = 100     # parenthesis depth; each level is five Python frames
_MAX_DIGITS = 1000     # digits of one integer literal
_MAX_POWER = 500       # |k| * _scalar_size(s) for s ^ k; keeps one power under ~1 s
_MAX_PRODUCT = 4000    # sum of the factors' sizes in one product: a bound on
                       # the product's _scalar_size (a 1000-digit literal is 3322)
                       # that keeps coefficients far below Python's
                       # 4300-digit limit on printing an int


def _scalar_size(s: Scalar) -> int:
    """Size of ``s``: the larger of its degree and ceil(log2) of the
    absolute coefficient sum of its numerator or denominator.  It bounds
    what each unit of exponent adds to a power of ``s`` (every coefficient
    of p^k is at most that sum to the k), and the size of a product is at
    most the sum of its factors' sizes."""
    norm = max(sum(map(abs, s.num)), sum(map(abs, s.den)))
    return max(len(s.num) - 1, len(s.den) - 1, (norm - 1).bit_length())


def _size(x: Element) -> int:
    """Largest :func:`_scalar_size` of a coefficient of ``x``."""
    return max((_scalar_size(c) for _, c in x.items() if c is not ONE), default=0)


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([().+\-*/^]))")
_KINDS = (None, "int", "ident", "op")     # by the index of the matching group


def _tokenize(text, line=None, offset=0):
    """(kind, value, position) tokens; positions are 0-based and count
    ``offset`` characters before ``text``."""
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise DslError(f"bad character {rest[0]!r}", line,
                               offset + len(text) - len(rest) + 1)
            break
        kind = m.lastindex
        start, pos = m.span(kind)       # each token ends its match
        val = text[start:pos]
        if kind == 1:
            if len(val) > _MAX_DIGITS:
                raise DslError(f"integer literal longer than {_MAX_DIGITS} digits",
                               line, offset + start + 1)
            out.append(("int", int(val), offset + start))
        else:
            out.append((_KINDS[kind], val, offset + start))
    return out


class _ExprParser:
    def __init__(self, text, names, line, offset=0):
        self.toks = _tokenize(text, line, offset)
        # an end-of-input token, which every take() checks for first
        self.toks.append((None, None, offset + len(text.rstrip())))
        self.i = 0
        self.depth = 0
        self.names = names
        self.line = line

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def error(self, msg, at=None):
        """Raise at the token with index ``at``, by default the next one."""
        tok = self.peek() if at is None else self.toks[at]
        raise DslError(msg, self.line, tok[2] + 1)

    def parse(self) -> Element:
        out = self.expr()
        if self.peek()[0] is not None:
            self.error(f"unexpected {self.peek()[1]!r}")
        return out

    def expr(self) -> Element:
        out = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def term(self) -> Element:
        out, size = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
            elif not (kind in ("int", "ident") or (kind == "op" and val == "(")):
                return out
            at = self.i
            factor, factor_size = self.unary()
            size += factor_size
            if size > _MAX_PRODUCT:
                self.error(f"product too large (factor sizes add up to more than "
                           f"{_MAX_PRODUCT})", at)
            if val == "/":
                div = self.scalar(factor, "division requires a scalar divisor", at)
                if div.is_zero:
                    self.error("division by zero", at)
                out = out.scale(ONE / div)
            else:
                out = out * factor

    # unary, power and primary return a factor and a bound on its _size

    def unary(self):
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.take()
            negate = not negate
        out, size = self.power()
        return (-out if negate else out), size

    def power(self):
        at = self.i
        base, size = self.primary()
        if self.peek()[:2] != ("op", "^"):
            return base, size
        self.take()
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.take()
            sign = -1
        kind, k, _ = self.peek()
        if kind != "int":
            self.error("integer exponent expected after '^'")
        self.take()
        s = self.scalar(base, "'^' requires a scalar base", at)
        size = k * _scalar_size(s)
        if size > _MAX_POWER:
            self.error(f"power too large (exponent times base size exceeds "
                       f"{_MAX_POWER})", at)
        if sign < 0 and s.is_zero:
            self.error("division by zero: negative power of 0", at)
        return Element.term(s ** (sign * k), ()), size

    def scalar(self, x: Element, msg, at) -> Scalar:
        try:
            return x.as_scalar()
        except ValueError:
            self.error(msg, at)

    def primary(self):
        kind, val, _ = self.peek()
        if kind == "int":
            self.take()
            return Element.term(Scalar.from_int(val), ()), (val - 1).bit_length()
        if kind == "op" and val == "(":
            if self.depth == _MAX_NESTING:
                self.error(f"parentheses nested deeper than {_MAX_NESTING}")
            self.take()
            self.depth += 1
            out = self.expr()
            self.depth -= 1
            kind, val, _ = self.peek()
            if not (kind == "op" and val == ")"):
                self.error("')' expected")
            self.take()
            return out, _size(out)
        if kind == "ident":
            if val == "q":
                self.take()
                return Element.term(Scalar.q_power(1), ()), 1
            return Element.word(*self.word()), 0
        self.error("expression expected")

    def word(self):
        letters = []
        while True:
            kind, val, _ = self.peek()
            if kind != "ident":
                self.error("generator name expected")
            if val == "q":
                self.error("'q' is the deformation parameter, not a generator")
            if val not in self.names:
                self.error(f"unknown generator {val!r}")
            self.take()
            letters.append(val)
            kind, val, _ = self.peek()
            if kind == "op" and val == ".":
                self.take()
                continue
            return tuple(letters)


def _namespace(p) -> frozenset:
    if p is None:
        return frozenset()
    if isinstance(p, Presentation):
        return frozenset(g.name for g in p.generators)
    return frozenset(p)


def parse_expression(text: str, p=None, line=1) -> Element:
    """Parse an element expression (unnormalized) against a presentation
    or an iterable of generator names; ``line`` is reported in errors."""
    return _ExprParser(text, _namespace(p), line).parse()


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar literal (no generators allowed)."""
    return parse_expression(text, ()).as_scalar()


def _arrow_line(raw, rest, lineno, what, lhs_names, rhs_names):
    """Parse ``<word> -> <expression>``; columns count from the start of
    the raw line.  ``what`` names the line in messages, e.g. ``rule``."""
    if "->" not in rest:
        raise DslError(f"expected: {what} <word> -> <expression>", lineno)
    arrow = rest.index("->")
    # where ``rest`` starts in the raw line, so columns count from there
    start = re.match(r"\s*\S+\s+", raw).end()
    lhs_parser = _ExprParser(rest[:arrow], lhs_names, lineno, start)
    lhs = lhs_parser.word()
    if lhs_parser.peek()[0] is not None:
        lhs_parser.error(f"{what} LHS must be a single dotted word")
    rhs = _ExprParser(rest[arrow + 2:], rhs_names, lineno, start + arrow + 2).parse()
    return lhs, rhs


_TAG = re.compile(r"\s@(\S+)$")


def _diff_names(parity, coords) -> set:
    """The names of a form or dependency line: even generators and the
    primitive differentials ``del_<coordinate>``."""
    return {n for n, odd in parity.items() if not odd} | {f"del_{x}" for x in coords}


def parse_presentation(text: str) -> Presentation:
    """Parse, build, and validate a presentation from DSL text."""
    name = "user"
    order = None
    gens: list[Generator] = []
    parity: dict = {}       # generator name -> parity; changes on gen and extends
    declared: dict = {}     # generator name -> the line that declared it
    rules: list[RewriteRule] = []
    side, coords, diff, forms, deps = None, (), {}, {}, []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if head == "name":
            if not rest:
                raise DslError("name requires a value", lineno)
            name = rest.strip()
        elif head == "extends":
            pid = rest.strip()
            if pid not in PRESET_IDS:
                raise DslError(f"unknown preset {pid!r}", lineno)
            base = preset(pid)
            gens = list(base.generators)
            parity = dict(base.parity)
            declared = dict.fromkeys(parity, lineno)
            rules = list(base.rules)
            if order is None:
                order = base.order
            c = base.calculus
            side, coords, diff, forms, deps = (
                (c.side, c.coords, dict(c.images), dict(c.forms), list(c.dependencies))
                if c else (None, (), {}, {}, []))
        elif head == "order":
            bits = rest.split()
            if not bits or bits[0] not in ("deglex", "migration"):
                raise DslError("order must be 'deglex' or 'migration'", lineno)
            form_side = "right"
            if len(bits) > 1:
                if bits[0] != "migration" or bits[1] not in ("left", "right"):
                    raise DslError("order side must be 'left' or 'right'", lineno)
                form_side = bits[1]
            order = TerminationOrder(bits[0], form_side)
        elif head == "gen":
            m = re.fullmatch(r"((?:[A-Za-z_][A-Za-z0-9_]*\s+)+)parity\s+(even|odd)", rest)
            if not m:
                raise DslError("expected: gen <name> parity (even|odd)", lineno)
            par = 0 if m.group(2) == "even" else 1
            for gname in m.group(1).split():
                if gname == "q" or gname in parity:
                    raise DslError(f"bad or duplicate generator {gname!r}", lineno)
                gens.append(Generator(gname, par, len(gens)))
                parity[gname] = par
                declared[gname] = lineno
        elif head == "rule":
            tag = _TAG.search(rest)
            if tag:
                rest = rest[:tag.start()]
            lhs, rhs = _arrow_line(raw, rest, lineno, "rule", parity, parity)
            rules.append(RewriteRule(lhs, rhs, tag.group(1) if tag else f"user:{lineno}"))
        elif head == "side":
            if rest not in ("left", "right"):
                raise DslError("side must be 'left' or 'right'", lineno)
            side = rest
        elif head == "coords":
            coords = tuple(rest.split())
            if (not coords or len(set(coords)) < len(coords)
                    or any(parity.get(x, 1) for x in coords)):
                raise DslError("coords must name distinct declared even generators",
                               lineno)
        elif head == "diff":
            word, image = _arrow_line(raw, rest, lineno, head, parity, parity)
            if len(word) > 1:
                raise DslError("diff LHS must be one generator", lineno)
            odd = parity[word[0]] + 1
            if any(sum(parity[g] for g in w) != odd for w in image.words()):
                raise DslError(f"each term of d({word[0]}) needs exactly one odd "
                               f"generator more than {word[0]}", lineno)
            diff[word[0]] = image
        elif head == "form":
            word, image = _arrow_line(raw, rest, lineno, head, parity,
                                      _diff_names(parity, coords))
            if len(word) > 1 or not parity[word[0]]:
                raise DslError("form LHS must be one odd generator", lineno)
            forms[word[0]] = image
        elif head == "dependency":
            if not rest:
                raise DslError("expected: dependency <expression>", lineno)
            start = re.match(r"\s*\S+\s+", raw).end()
            deps.append(_ExprParser(rest, _diff_names(parity, coords),
                                    lineno, start).parse())
        else:
            raise DslError(f"unknown directive {head!r}", lineno)
    if order is None:
        order = TerminationOrder("deglex")
    calculus = None
    if side is not None:       # a left calculus keeps its forms rightmost
        for g in parity:
            if g not in diff:
                raise DslError(f"generator {g!r} has no diff line", declared[g])
        calculus = DiffStructure(side, diff, coords, forms, tuple(deps))
        form_position = "right" if side == "left" else "left"
    elif diff or forms or coords or deps:
        raise DslError("coords, diff, form and dependency lines need a side line")
    else:                      # a migration order moves odd generators to its side
        form_position = order.form_side if order.kind == "migration" else None
    p = Presentation(name, gens, order, rules, form_position=form_position,
                     calculus=calculus)
    report = validate_presentation(p)
    if not report.valid:
        msgs = "; ".join(f"[{i.rule}] {i.kind}: {i.message}" for i in report.issues)
        raise DslError(f"presentation invalid: {msgs}")
    return p


def export_presentation(p: Presentation) -> str:
    """Serialize a presentation to DSL text that reparses to an equal one:
    the same name, generators, order, rules with their tags, and calculus."""
    lines = [f"name {p.name}"]
    if p.order.kind == "migration":
        lines.append(f"order migration {p.order.form_side}")
    c = p.calculus
    if c is not None:
        lines.append(f"side {c.side}")
    gens = sorted(p.generators, key=lambda g: g.precedence)
    for parity, run in groupby(gens, key=lambda g: g.parity):
        lines.append(f"gen {' '.join(g.name for g in run)} "
                     f"parity {'odd' if parity else 'even'}")
    for r in p.rules:
        tag = f"  @{r.provenance}" if r.provenance else ""
        lines.append(f"rule {'.'.join(r.lhs)} -> {r.rhs}{tag}")
    if c is not None:
        if c.coords:
            lines.append(f"coords {' '.join(c.coords)}")
        lines += [f"diff {g} -> {x}" for g, x in c.images.items()]
        lines += [f"form {f} -> {x}" for f, x in c.forms.items()]
        lines += [f"dependency {x}" for x in c.dependencies]
    return "\n".join(lines) + "\n"
