"""Pinned inputs and outcomes of the expression parser.

``cases()`` builds a seeded list of parser inputs: the shapes of the
benchmark's normalize corpus, word spellings, unary-minus runs, the
nesting, digit, power and product bounds at and just past each limit,
random strings over the token alphabet with a few bad characters, and
presentation files with ``rule``, ``diff``, ``form`` and ``dependency``
lines.  ``outcomes()`` parses each one and records either the value, as
``str`` and the words in the order the parser inserted them, or the
exact ``DslError`` message with its line and column.

``tests/test_dsl.py`` requires that ``outcomes()`` equals
``dsl_expressions.json``.  To rewrite the file after a deliberate change
of the parser, run from the repository root::

    PYTHONPATH=src python tests/data/dsl_expressions.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from qncalc.calculus import CALCULUS_PRESETS, diff_presentation
from qncalc.dsl import DslError, parse_expression, parse_presentation
from qncalc.presentations import PRESET_IDS, preset

SEED = 1212
JSON_PATH = Path(__file__).with_name("dsl_expressions.json")

# tokens of the random strings: the expression alphabet plus three
# characters that are never tokens
_ALPHABET = ["a", "d", "b.c", "a . d", "zz", "q", "2", "10", "0", "(", ")",
             "+", "-", "*", "/", "^", ".", " ", "$", "@", "\u200b"]
_CALCULUS_HEAD = "side left\ngen x parity even\ngen f parity odd\ncoords x\n"


def _mono(rng) -> str:
    k = rng.randint(-3, 3)
    c = rng.randint(1, 5)
    qk = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
    return " ".join(x for x in (str(c) if c > 1 or not qk else "", qk) if x)


def _coef(rng) -> str:
    """The coefficient shapes of the normalize corpus."""
    r = rng.random()
    if r < 0.60:
        return _mono(rng)
    if r < 0.75:
        return f"({_mono(rng)} + {_mono(rng)})"
    return f"({_mono(rng)})/({rng.randint(1, 3)} + {_mono(rng)})"


def _corpus(rng, systems, size):
    """Sums of one to three ``coefficient word`` terms, as in the corpus."""
    out = []
    for _ in range(size):
        sid = rng.choice(sorted(systems))
        p = systems[sid]
        terms = []
        for i in range(rng.randint(1, 3)):
            if sid.endswith("-diff"):
                word = [rng.choice(p.even_names()) for _ in range(rng.randint(1, 2))]
                word.insert(rng.randint(0, len(word)), rng.choice(p.odd_names()))
            else:
                names = [g.name for g in p.generators]
                word = [rng.choice(names) for _ in range(rng.randint(3, 8))]
            sign = "-" if rng.random() < 0.3 else "+"
            lead = ("-" if sign == "-" else "") if i == 0 else f" {sign} "
            terms.append(f"{lead}{_coef(rng)} {'.'.join(word)}")
        out.append((sid, "".join(terms)))
    return out


def _cancelling_sums(rng, size):
    """Sums over few words and coefficients, so that terms repeat and cancel."""
    words = ["a.d", "b.c", "d.a", "a", "a . d"]
    coefs = ["", "q ", "2 ", "(1 - q) ", "q^-1 ", "1/q ", "(q)/(1 + q) "]
    out = []
    for _ in range(size):
        text = ""
        for i in range(rng.randint(2, 6)):
            sign = rng.choice("+-")
            if i or sign == "-":
                text += f" {sign} " if i else "-"
            text += rng.choice(["1", "q", "-2"]) if rng.random() < 0.2 else \
                rng.choice(coefs) + rng.choice(words)
        out.append(("glq2", text))
    return out


_FIXED = [
    # spellings of words, juxtaposition and digits
    "a . d", "a.\tb", "2a", "\xa0a", "\u0663 a", "a b", "a .b", "a\n.b", "a.b.c.d",
    "2 3 a", "q a q", "a 2 d", "a.d q", "(a.d)", "((a.d))", "(a.d)(b.c)", "a (b + c) d",
    "(a + b)(a - b)", "(a.d - q b.c) (a + d)", "2 (a.d)", "(2) a.d", "(q) (a.d)",
    # signs and sums
    "-a.d", "- a.d", "-(a.d)", "-(a.d - b.c)", "a.d - a.d", "a.d - a.d + b.c",
    "1 - 1 + a", "1 + 2 + a + 3", "a + 1 - 1", "b.c + a.d - q a.a", "q - q", "-q + q",
    "a.d - (a.d - b.c)", "-(1 - q)", "2 - -3", "a --b", "- -a", "-2 q^-1 a.d",
    # products, quotients and powers
    "a.d / 2", "a.d / (1 + q)", "2 * a.d", "a.d * q", "a.d * b.c", "q * q / q",
    "1/q^2 a", "(1 + q)^2 a.d", "(q - q^-1)^3", "q^-1", "q^ -2", "0^0", "0 a.d",
    "a.d 0", "(a - a)^2", "(a - a + 1)^2", "(1 + a - a) a.d", "2/(1+q^2)",
    "(q^2 - 1)/(q - 1)", "1/(1 - q) a - 1/(1 - q) a",
    # the error table of test_dsl.py and its neighbours
    "a.", "a..b", ".a", "a.d.", "a .", "a . .b", "()", "(", ")", "-", "2 -", "q.a",
    "q.", "a.d q.b", "(q.a)", "a.q", "a. q", "a.2", "a.zz", "a2", "a$b", "q^a",
    "a^2", "(a.d)^0", "1/(a)", "1/0", "0^-1", "a.d/(q-q)", "q^2^3", "q^--1", "q +",
    "a.d)", "(a.d", "a.d / b", "a ^ 2", "", "   ", "a.\u0663", "\xb2", "q\xb2",
    "a @x", "a\u200bb",
]


def _bounds():
    nine = " ".join(["9^125"] * 8)
    qs = " ".join(["q^500"] * 8)
    return [
        # unary minus, without recursion
        "-" * 2000 + "q", "-" * 2001 + "q", "-" * 301 + "a.d", "a.d -" + "-" * 50 + " b.c",
        # nesting
        "(" * 100 + "q" + ")" * 100, "(" * 101 + "q" + ")" * 101,
        "(" * 100 + "a.d" + ")" * 100, "(" * 101 + "a.d" + ")" * 101,
        "-(" * 100 + "a" + ")" * 100, "(" * 101, "(" * 100 + ")" * 100,
        # digits
        "9" * 1000, "9" * 1001, "1 + " + "9" * 1001, "a.d $ " + "9" * 1001,
        "9" * 1001 + " $", "a" + "9" * 1001, "a" + "\u0663" * 1001, "\u0663" * 1000,
        # powers
        "q^500", "q^501", "q^-500", "q^-501", "3^250", "3^251", "(2 q)^250",
        "(2 q)^251", "(1 + q)^501", "1^123456789123456789", "((q^999)^999)^999",
        # products
        qs, qs + " q", "q^500 " * 7 + "q^499 * q", "q^500 " * 8 + "/ q",
        nine, nine + " 9^125", "(" + qs + ") q", "(" + qs + ") (" + qs + ")",
        "(" + nine + ") a.d", "a.d " + qs,
    ]


def _random_strings(rng, size):
    return [("glq2", "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 8))))
            for _ in range(size)]


def _presentations():
    head = "gen x parity even\ngen y parity even\n"
    rules = [
        "rule y.x -> q x.y - 1 + x.x", "rule y.x -> (q - q^-1) x.y + x.y  @t1",
        "rule y . x -> x . y", "rule y.x -> 2 x.y - x.y - x.y", "rule y.x -> 1/0",
        "  rule   y.x -> x.y $", "rule y.x x -> x.y", "rule y.z -> x.y",
        "rule y.x -> (x.y  # open", "rule y.x -> x.z", "rule y.x -> q.x",
        "rule y.x -> x.y \u200b", "rule  y.x  ->  " + "9" * 1001, "rule y.x -> -",
        "rule y.x -> y.x + x.y", "rule y. -> x", "rule -> x", "rule y.x x.y",
    ]
    diffs = "diff x -> x.f - x.f + 2 x.f\ndiff f -> 0\n"
    calculus = [
        "diff x -> y.f", diffs, diffs + "form f -> (1 - q) del_x . x + x.del_x",
        diffs + "dependency x.del_x - q^-1 del_x.x - x.del_x", "form f -> del_y",
        "form f -> f", "dependency x.del_x - del_z", "dependency (1 - q x.del_x",
    ]
    return ([head + r + "\n" for r in rules]
            + [_CALCULUS_HEAD + c + "\n" for c in calculus])


def cases(seed=SEED):
    """(system, text) pairs; the system is a preset id, a ``<calculus>-diff``
    id, ``""`` for no generators, or ``"file"`` for a presentation file."""
    rng = random.Random(seed)
    systems = {sid: _system(sid)
               for sid in PRESET_IDS + tuple(f"{c}-diff" for c in CALCULUS_PRESETS)}
    out = _corpus(rng, systems, 160)
    out += _cancelling_sums(rng, 60)
    out += [("glq2", t) for t in _FIXED]
    out += [("", t) for t in ("q", "2 q - 1", "(1 + q)/(1 - q)", "a", "\u0663")]
    out += [("glq2", t) for t in _bounds()]
    out += _random_strings(rng, 240)
    out += [("file", t) for t in _presentations()]
    return out


def _system(sid):
    return diff_presentation(sid[:-5]) if sid.endswith("-diff") else preset(sid)


def _value(x) -> dict:
    return {"str": str(x), "words": [".".join(w) for w in x.words()]}


def outcome(sid, text) -> dict:
    """What the parser makes of ``text``: a value or a ``DslError``."""
    try:
        if sid == "file":
            p = parse_presentation(text)
            c = p.calculus
            return {"rules": [[".".join(r.lhs), _value(r.rhs)] for r in p.rules],
                    "calculus": c and {
                        "diff": {g: _value(x) for g, x in c.images.items()},
                        "form": {f: _value(x) for f, x in c.forms.items()},
                        "dependency": [_value(x) for x in c.dependencies]}}
        return _value(parse_expression(text, _system(sid) if sid else ()))
    except DslError as e:
        return {"error": str(e), "line": e.line, "column": e.column}


def outcomes(seed=SEED) -> list:
    return [{"system": sid, "text": text, **outcome(sid, text)}
            for sid, text in cases(seed)]


if __name__ == "__main__":
    records = outcomes()
    errors = sum("error" in r for r in records)
    JSON_PATH.write_text(json.dumps(records, indent=1, ensure_ascii=True) + "\n")
    print(f"{len(records)} cases, {errors} errors -> {JSON_PATH}")
