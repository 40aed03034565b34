"""Text formats: expressions, the presentation DSL and printed-equation lines.

Expression syntax: integers, ``q``, ``+ - * / ^`` (integer exponents,
negative allowed), parentheses, and dotted words of generator names
(``a.d``, ``del_a.a``; whitespace around a dot is allowed, and ``q``,
the deformation parameter, may not appear in a word); juxtaposition
multiplies, so ``q b.c`` and ``(q - q^-1) b.c`` are products and
``a b`` is ``a.b``.  Division requires a scalar divisor, ``^`` a scalar
base.

Presentation files are line oriented::

    name my-algebra          # optional
    extends glq2             # optional, first: start from a built-in preset
    order deglex             # or: order migration [left|right]
    gen x y parity even      # declaration order fixes precedence
    gen f parity odd
    rule f.x -> q x.f        # LHS word  ->  element expression
    rule f.f -> 0  @eq-1     # a trailing @tag names the rule's source
    # comments run to end of line

A differential calculus is declared with ``side``, ``coords``, ``diff``,
``form`` and ``dependency`` lines (see ``docs/dsl.md``); the built-in
presets are files of this format in ``presets``.  The printed equations
in ``paper`` are lines ``<expression> = <expression>  @tag``.

An expression is read by one ``findall`` of token strings and a
recursive descent over them; a sum keeps its terms in source order.

Parsed presentations are validated (orientation, parity, generator
references) before being returned.  Bad input of any kind, division by
zero, over-deep nesting and oversized literals, powers or products
included, is rejected with a :class:`DslError`; one raised inside an
expression carries its line and column.  A bad character or an oversized
literal is reported before any syntax error.
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
    add_scaled,
    validate_presentation,
)
from .presentations import PRESET_IDS, preset
from .qfield import ONE, Scalar

__all__ = [
    "DslError",
    "parse_scalar",
    "parse_expression",
    "parse_presentation",
    "parse_equations",
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
_MAX_NESTING = 100     # parenthesis depth; each level is three Python frames
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
    """Largest :func:`_scalar_size` of a coefficient of ``x``, a parsed value."""
    if isinstance(x, Scalar):
        return _scalar_size(x)
    return max((_scalar_size(c) for _, c in _element(x).items() if c is not ONE),
               default=0)


def _element(x) -> Element:
    """``x``, a parsed value, as an :class:`Element`."""
    if isinstance(x, Scalar):
        return Element.term(x, ())
    return Element.term(ONE, x) if x.__class__ is tuple else x


# A dotted word is one token, with any whitespace around its dots; a lone
# ``q`` is its own token, so ``q.a`` is ``q``, ``.``, ``a``.  The pattern
# has no group, so ``findall`` returns the token strings.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(rf"\d+|q(?![A-Za-z0-9_])|{_NAME}(?:\s*\.\s*{_NAME})*|[().+\-*/^]|\S")
# a character that starts no token, or digits that may make a literal
# longer than _MAX_DIGITS
_SUSPECT = re.compile(rf"[^\dA-Za-z_\s().+\-*/^]|\d{{{_MAX_DIGITS + 1}}}")
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_STOP = frozenset((")", "+", "-", "^", ".", ""))   # tokens that end a product
_Q = Scalar.q_power(1)
_Q_IN_WORD = "'q' is the deformation parameter, not a generator"
# Scalars are immutable, so literals and powers of q can be shared
_int = lru_cache(maxsize=1 << 10)(Scalar.from_int)
_q_power = lru_cache(maxsize=1 << 10)(Scalar.q_power)


class _ExprParser:
    """Recursive descent over the tokens of one expression: the strings of
    one ``findall``, then ``""``.  A token's column is computed, by scanning
    the text again, only when an error is raised.  A value is a
    :class:`Scalar`, a bare word kept as its tuple, or an :class:`Element`;
    a sum that a word joins is one word -> Scalar dict.  ``factor``
    returns a value and a bound on its :func:`_size`."""

    def __init__(self, text, names, line, offset=0):
        self.text = text
        self.offset = offset        # characters before ``text`` on its line
        self.line = line
        self.names = names          # never holds 'q'
        self.i = 0
        self.depth = 0
        self.toks = toks = _TOKEN.findall(text)
        toks.append("")
        if _SUSPECT.search(text):   # reported before any syntax error
            for i, t in enumerate(toks):
                if _SUSPECT.match(t):
                    self.error(f"integer literal longer than {_MAX_DIGITS} digits"
                               if t[0].isdecimal() else f"bad character {t!r}", i)

    def error(self, msg, at=None, shift=0):
        """Raise ``shift`` characters into the token with index ``at``, by
        default the next one."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        starts.append(len(self.text.rstrip()))
        column = self.offset + starts[self.i if at is None else at] + shift + 1
        raise DslError(msg, self.line, column)

    def parse(self) -> Element:
        out = self.expr()
        if self.toks[self.i]:
            self.error(f"unexpected {self.toks[self.i]!r}")
        return _element(out)

    def expr(self):
        toks = self.toks
        out = self.term()
        terms = None                # word -> Scalar, once a word joins the sum
        op = toks[self.i]
        while op == "+" or op == "-":
            self.i += 1
            rhs = self.term()
            if terms is None and isinstance(out, Scalar) and isinstance(rhs, Scalar):
                out = out + rhs if op == "+" else out - rhs
            else:
                if terms is None:
                    terms = dict(_element(out).items())
                add_scaled(terms, (_element(rhs) if op == "+" else -_element(rhs)).items(), ONE)
            op = toks[self.i]
        return out if terms is None else Element(terms, _trusted=True)

    def term(self):
        toks = self.toks
        out, size = self.factor()
        while True:
            op = toks[self.i]
            if op == "*" or op == "/":
                self.i += 1
            elif op in _STOP:
                return out
            at = self.i
            factor, factor_size = self.factor()
            size += factor_size
            if size > _MAX_PRODUCT:
                self.error(f"product too large (factor sizes add up to more than "
                           f"{_MAX_PRODUCT})", at)
            if op == "/":
                div = self.scalar(factor, "division requires a scalar divisor", at)
                if div.is_zero:
                    self.error("division by zero", at)
                out = out / div if isinstance(out, Scalar) else _element(out).scale(ONE / div)
            elif isinstance(out, Scalar) and isinstance(factor, Scalar):
                out = out * factor
            elif isinstance(out, Scalar) and factor.__class__ is tuple:
                out = Element.term(out, factor)     # a coefficient and a word
            elif out.__class__ is tuple and factor.__class__ is tuple:
                out = out + factor                  # ``a b`` is ``a.b``
            else:
                out = _element(out) * _element(factor)

    def factor(self):
        """A signed, parenthesized or literal base and its optional power."""
        toks = self.toks
        negate = False
        t = toks[self.i]
        while t == "-":             # a loop, so a long run costs no frames
            negate = not negate
            self.i += 1
            t = toks[self.i]
        at = self.i
        if t == "(":
            if self.depth == _MAX_NESTING:
                self.error(f"parentheses nested deeper than {_MAX_NESTING}")
            self.i += 1
            self.depth += 1
            out = self.expr()
            self.depth -= 1
            if toks[self.i] != ")":
                self.error("')' expected")
            self.i += 1
            size = _size(out)
        elif t == "q":
            self.i += 1
            out, size = _Q, 1
        elif t[:1].isdecimal():     # not isdigit: int() rejects '²'
            self.i += 1
            k = int(t)
            out, size = _int(k), (k - 1).bit_length()
        elif t[:1] in _WORD_START:
            out, size = self.word(), 0
        else:
            self.error("expression expected")
        if toks[self.i] == "^":
            self.i += 1
            sign = 1
            if toks[self.i] == "-":
                self.i += 1
                sign = -1
            k = toks[self.i]
            if not k[:1].isdecimal():
                self.error("integer exponent expected after '^'")
            self.i += 1
            k = int(k)
            s = self.scalar(out, "'^' requires a scalar base", at)
            size = k if s is _Q else k * _scalar_size(s)
            if size > _MAX_POWER:
                self.error(f"power too large (exponent times base size exceeds "
                           f"{_MAX_POWER})", at)
            if sign < 0 and s.is_zero:
                self.error("division by zero: negative power of 0", at)
            out = _q_power(sign * k) if s is _Q else s ** (sign * k)
        if negate:
            out = -out if isinstance(out, Scalar) else -_element(out)
        return out, size

    def scalar(self, x, msg, at) -> Scalar:
        if isinstance(x, Scalar):
            return x
        try:
            return _element(x).as_scalar()
        except ValueError:
            self.error(msg, at)

    def word(self) -> tuple:
        t = self.toks[self.i]
        if t == "q" or t[:1] not in _WORD_START:
            self.error(_Q_IN_WORD if t == "q" else "generator name expected")
        at = self.i
        self.i += 1
        letters = t.split(".")
        for g in letters:
            if g not in self.names:     # whitespace around a dot, or a bad name
                letters = []
                for m in re.finditer(_NAME, t):
                    g = m.group()
                    if g not in self.names:
                        self.error(_Q_IN_WORD if g == "q" else f"unknown generator {g!r}",
                                   at, m.start())
                    letters.append(g)
                break
        if self.toks[self.i] == ".":
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
    if lhs_parser.toks[lhs_parser.i]:
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
    rule_lines: list = []   # the line of each rule declared here, None if inherited
    side, coords, diff, forms, deps = None, (), {}, {}, []
    first = None            # the first line that an extends line would drop
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if head not in ("name", "order"):
            if head == "extends" and first is not None:
                raise DslError(f"extends must come first; it would drop line {first}",
                               lineno)
            first = first or lineno
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
            rule_lines = [None] * len(rules)
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
                gens.append(Generator(gname, par))
                parity[gname] = par
                declared[gname] = lineno
        elif head == "rule":
            tag = _TAG.search(rest)
            if tag:
                rest = rest[:tag.start()]
            lhs, rhs = _arrow_line(raw, rest, lineno, "rule", parity, parity)
            rules.append(RewriteRule(lhs, rhs, tag.group(1) if tag else f"user:{lineno}"))
            rule_lines.append(lineno)
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
        # the line of the first issue's rule, when its tag names one rule only
        lines = [n for r, n in zip(rules, rule_lines)
                 if r.provenance == report.issues[0].rule]
        raise DslError(f"presentation invalid: {msgs}",
                       lines[0] if len(lines) == 1 else None)
    return p


def parse_equations(text: str, names) -> list:
    """Parse printed-equation lines ``<expression> = <expression>  @tag``
    over the generator ``names``; ``#`` starts a comment and blank lines
    are skipped.  Returns ``(tag, lhs, rhs)`` triples in file order."""
    names = _namespace(names)
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tag = _TAG.search(line)
        body = line[:tag.start(1) - 1] if tag else line
        eqs = [m.start() for m in re.finditer("=", body)]
        if tag is None or len(eqs) != 1:    # point at a second '=', else the end
            raise DslError("expected: <expression> = <expression>  @tag", lineno,
                           (eqs[1] if tag and eqs[1:] else len(body)) + 1)
        eq = eqs[0]
        out.append((tag.group(1), _ExprParser(body[:eq], names, lineno).parse(),
                    _ExprParser(body[eq + 1:], names, lineno, eq + 1).parse()))
    return out


def export_presentation(p: Presentation) -> str:
    """Serialize a presentation to DSL text that reparses to an equal one:
    the same name, generators, order, rules with their tags, and calculus."""
    lines = [f"name {p.name}"]
    if p.order.kind == "migration":
        lines.append(f"order migration {p.order.form_side}")
    c = p.calculus
    if c is not None:
        lines.append(f"side {c.side}")
    for parity, run in groupby(p.generators, key=lambda g: g.parity):
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
