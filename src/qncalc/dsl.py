"""Text formats: scalar/element expressions and the presentation DSL.

Expression syntax: integers, ``q``, ``+ - * / ^`` (integer exponents,
negative allowed), parentheses, and dotted words of generator names
(``a.d``, ``del_a.a``; whitespace around a dot is allowed, and ``q``,
the deformation parameter, may not appear in a word); juxtaposition
multiplies, so ``q b.c`` and ``(q - q^-1) b.c`` are products and
``a b`` is ``a.b``.  Division requires a scalar divisor, ``^`` a scalar
base.

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
from functools import lru_cache
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


def _size(x) -> int:
    """Largest :func:`_scalar_size` of a coefficient of ``x``."""
    if isinstance(x, Scalar):
        return _scalar_size(x)
    return max((_scalar_size(c) for _, c in x.items() if c is not ONE), default=0)


def _element(x) -> Element:
    """``x``, a parsed value, as an :class:`Element`."""
    return Element.term(x, ()) if isinstance(x, Scalar) else x


# A dotted word is one token, with any whitespace around its dots; a lone
# ``q`` is its own token, so ``q.a`` is ``q``, ``.``, ``a`` as before.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(rf"\s*(?:(\d+)|(q)(?![A-Za-z0-9_])|({_NAME}(?:\s*\.\s*{_NAME})*)"
                    r"|([().+\-*/^])|(\S))")
_KINDS = (None, "int", "q", "word", None)   # by group index; an operator is its own kind
_FACTOR = frozenset(("int", "q", "word", "("))     # kinds that start a factor
_Q = Scalar.q_power(1)
_Q_IN_WORD = "'q' is the deformation parameter, not a generator"
# Scalars are immutable, so literals and powers of q can be shared
_int = lru_cache(maxsize=1 << 10)(Scalar.from_int)
_q_power = lru_cache(maxsize=1 << 10)(Scalar.q_power)


def _tokenize(text, line=None, offset=0):
    """(kind, value, position) tokens and an end-of-input token; positions
    are 0-based and count ``offset`` characters before ``text``."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        val = m[kind]
        if kind == 1:
            if len(val) > _MAX_DIGITS:
                raise DslError(f"integer literal longer than {_MAX_DIGITS} digits",
                               line, offset + m.start(kind) + 1)
            val = int(val)
        elif kind == 5:
            raise DslError(f"bad character {val!r}", line, offset + m.start(kind) + 1)
        out.append((_KINDS[kind] or val, val, offset + m.start(kind)))
    out.append((None, None, offset + len(text.rstrip())))
    return out


class _ExprParser:
    """Recursive descent over the tokens of one expression.  A value is a
    :class:`Scalar` until a word joins it, then an :class:`Element`;
    ``unary``, ``power`` and ``primary`` return a value and a bound on its
    :func:`_size`."""

    def __init__(self, text, names, line, offset=0):
        self.toks = _tokenize(text, line, offset)
        self.i = 0
        self.depth = 0
        self.names = names          # never holds 'q'
        self.line = line

    def error(self, msg, at=None):
        """Raise at the token with index ``at``, by default the next one."""
        raise DslError(msg, self.line, self.toks[self.i if at is None else at][2] + 1)

    def parse(self) -> Element:
        out = self.expr()
        kind, val, _ = self.toks[self.i]
        if kind is not None:
            self.error(f"unexpected {val!r}")
        return _element(out)

    def expr(self):
        out = self.term()
        while True:
            op = self.toks[self.i][0]
            if op != "+" and op != "-":
                return out
            self.i += 1
            rhs = self.term()
            if not (isinstance(out, Scalar) and isinstance(rhs, Scalar)):
                out, rhs = _element(out), _element(rhs)
            out = out + rhs if op == "+" else out - rhs

    def term(self):
        out, size = self.unary()
        while True:
            op = self.toks[self.i][0]
            if op == "*" or op == "/":
                self.i += 1
            elif op not in _FACTOR:
                return out
            at = self.i
            factor, factor_size = self.unary()
            size += factor_size
            if size > _MAX_PRODUCT:
                self.error(f"product too large (factor sizes add up to more than "
                           f"{_MAX_PRODUCT})", at)
            if op == "/":
                div = self.scalar(factor, "division requires a scalar divisor", at)
                if div.is_zero:
                    self.error("division by zero", at)
                out = out / div if isinstance(out, Scalar) else out.scale(ONE / div)
            elif isinstance(factor, Scalar):
                out = out * factor if isinstance(out, Scalar) else out.scale(factor)
            elif not isinstance(out, Scalar):
                out = out * factor
            elif self.toks[at][0] == "word":      # a bare word: no sign, no power
                (word,) = factor.words()
                out = Element.term(out, word)
            else:
                out = _element(out) * factor

    def unary(self):
        negate = False
        while self.toks[self.i][0] == "-":
            self.i += 1
            negate = not negate
        out, size = self.power()
        return (-out if negate else out), size

    def power(self):
        at = self.i
        base, size = self.primary()
        if self.toks[self.i][0] != "^":
            return base, size
        self.i += 1
        sign = 1
        if self.toks[self.i][0] == "-":
            self.i += 1
            sign = -1
        kind, k, _ = self.toks[self.i]
        if kind != "int":
            self.error("integer exponent expected after '^'")
        self.i += 1
        s = self.scalar(base, "'^' requires a scalar base", at)
        size = k if s is _Q else k * _scalar_size(s)
        if size > _MAX_POWER:
            self.error(f"power too large (exponent times base size exceeds "
                       f"{_MAX_POWER})", at)
        if sign < 0 and s.is_zero:
            self.error("division by zero: negative power of 0", at)
        return (_q_power(sign * k) if s is _Q else s ** (sign * k)), size

    def scalar(self, x, msg, at) -> Scalar:
        if isinstance(x, Scalar):
            return x
        try:
            return x.as_scalar()
        except ValueError:
            self.error(msg, at)

    def primary(self):
        kind, val, _ = self.toks[self.i]
        if kind == "int":
            self.i += 1
            return _int(val), (val - 1).bit_length()
        if kind == "q":
            self.i += 1
            return _Q, 1
        if kind == "word":
            return Element.term(ONE, self.word()), 0
        if kind == "(":
            if self.depth == _MAX_NESTING:
                self.error(f"parentheses nested deeper than {_MAX_NESTING}")
            self.i += 1
            self.depth += 1
            out = self.expr()
            self.depth -= 1
            if self.toks[self.i][0] != ")":
                self.error("')' expected")
            self.i += 1
            return out, _size(out)
        self.error("expression expected")

    def word(self) -> tuple:
        kind, val, pos = self.toks[self.i]
        if kind != "word":
            self.error(_Q_IN_WORD if kind == "q" else "generator name expected")
        self.i += 1
        letters = val.split(".")
        for g in letters:
            if g not in self.names:     # whitespace around a dot, or a bad name
                letters = []
                for m in re.finditer(_NAME, val):
                    g = m.group()
                    if g not in self.names:
                        raise DslError(_Q_IN_WORD if g == "q" else f"unknown generator {g!r}",
                                       self.line, pos + m.start() + 1)
                    letters.append(g)
                break
        if self.toks[self.i][0] == ".":
            self.error("generator name expected", self.i + 1)
        return tuple(letters)


def _namespace(p):
    """The generator names of ``p``, a presentation or names, without 'q'."""
    names = p.parity if isinstance(p, Presentation) else frozenset(p or ())
    return frozenset(names) - {"q"} if "q" in names else names


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
    if lhs_parser.toks[lhs_parser.i][0] is not None:
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
