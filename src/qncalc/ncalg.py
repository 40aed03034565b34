"""Graded free algebra over Q(q) with an oriented rewriting engine.

Words are tuples of generator names; elements are finite Q(q)-linear
combinations of words; a presentation bundles graded generators (their
order is their precedence), a termination order, and oriented rewrite
rules whose left-hand sides are single words of length >= 2.

Normalization rewrites exhaustively with a leftmost-first strategy; on a
locally confluent presentation (checked, never assumed) the result is the
unique normal form regardless of strategy, which
:func:`random_strategy_normalize` exercises independently.

:func:`add_scaled` is the one routine that adds scaled terms into a word
-> coefficient dict: every sum, difference, product and substitution of
elements, and the DSL's and the calculus's sums, merge through it, in the
order the terms come.  Only the witness keeps its own merge loop, so that
it shares no code with the cached normalizer it checks.

Presentations, rules, and elements are immutable after construction.  A
presentation indexes its rules once, as first letter -> second letter ->
the rules whose LHS starts with those two letters, in rule order, with
each right-hand side as a tuple of (word, Scalar) pairs in which a
coefficient equal to 1 is the shared :data:`~qncalc.qfield.ONE`.  Its
normal-form cache, an internal memo, maps a word to a record of two
parallel tuples, the words of its normal form and their coefficients
(:class:`_NormalForm`).  The record of u.x, for a letter x, is built
from the record of u by extending each of its words by x (prefix
extension, :meth:`Presentation._fill`, one iterative walk), and it links
that record and the records of the words the extensions rewrite to.
With a LHS longer than 2 letters, u's record is its stable form, in a
second memo.  A record whose extensions are all kept as they are shares
its tuple of coefficients with the prefix, and one whose prefix has a
single word shares its tuple of words with the child that word's
extension rewrites to.  Each record holds one count, an upper bound on
the records it links, which the step budget charges.  A normalization
that exceeds its step budget removes the entries it added.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Mapping, NamedTuple

from .qfield import ONE, Scalar, ZERO

__all__ = [
    "Generator",
    "Element",
    "RewriteRule",
    "TerminationOrder",
    "Presentation",
    "ValidationReport",
    "ConfluenceReport",
    "CriticalPair",
    "normalize",
    "random_strategy_normalize",
    "check_local_confluence",
    "validate_presentation",
    "normal_words",
    "StepBudgetExceededError",
    "UnknownGeneratorError",
    "DEFAULT_STEP_BUDGET",
]

DEFAULT_STEP_BUDGET = 10 ** 6

Word = tuple  # tuple[str, ...]


class StepBudgetExceededError(RuntimeError):
    """Rewriting exceeded its step cap; the rule set is suspect."""


class UnknownGeneratorError(KeyError):
    """A word references a generator the presentation does not declare."""


class Generator(NamedTuple):
    name: str
    parity: int          # 0 even, 1 odd


class Element:
    """Finite map word -> Scalar with zero coefficients absent."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Scalar] | None = None, _trusted=False):
        if terms is None:
            object.__setattr__(self, "_terms", {})
        elif _trusted:
            # a dict of canonical, nonzero coefficients that the caller has
            # just built and hands over: it is kept, not copied
            object.__setattr__(self, "_terms", terms)
        else:
            clean: dict = {}
            add_scaled(clean, ((tuple(w), c if isinstance(c, Scalar) else Scalar.from_int(c))
                               for w, c in terms.items()), ONE)
            object.__setattr__(self, "_terms", clean)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Element":
        return _ZERO_ELEMENT

    @staticmethod
    def unit() -> "Element":
        return _UNIT_ELEMENT

    @staticmethod
    def word(*names: str) -> "Element":
        if len(names) == 1 and "." in names[0]:
            names = tuple(names[0].split("."))
        return Element({tuple(names): ONE}, _trusted=True)

    @staticmethod
    def term(coef, word: Iterable[str]) -> "Element":
        if not isinstance(coef, Scalar):
            coef = Scalar.from_int(coef)
        if coef.is_zero:
            return _ZERO_ELEMENT
        return Element({tuple(word): coef}, _trusted=True)

    # -- views ---------------------------------------------------------------

    def items(self):
        return self._terms.items()

    def words(self):
        return self._terms.keys()

    def coeff(self, word: Iterable[str]) -> Scalar:
        return self._terms.get(tuple(word), ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self._terms)
        add_scaled(out, other._terms.items(), ONE)
        return Element(out, _trusted=True)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self._terms)
        add_scaled(out, ((w, -c) for w, c in other._terms.items()), ONE)
        return Element(out, _trusted=True)

    def __neg__(self):
        return Element({w: -c for w, c in self._terms.items()}, _trusted=True)

    def __mul__(self, other):
        if isinstance(other, Element):
            out = {}
            terms = other._terms.items()
            for w1, c1 in self._terms.items():
                add_scaled(out, ((w1 + w2, c2) for w2, c2 in terms), c1)
            return Element(out, _trusted=True)
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, coef) -> "Element":
        if not isinstance(coef, Scalar):
            coef = Scalar.from_int(coef)
        if coef.is_zero:
            return _ZERO_ELEMENT
        return Element({w: c * coef for w, c in self._terms.items()}, _trusted=True)

    def substitute(self, images: Mapping[str, "Element"], scalar_fn=None) -> "Element":
        """Replace generators by elements (homomorphically on words)."""
        out: dict = {}
        for w, c in self._terms.items():
            if scalar_fn is not None:
                c = scalar_fn(c)
                if c.is_zero:
                    continue
            acc = Element.term(c, ())
            for g in w:
                img = images.get(g)
                if img is None:     # g stays: appended to every word, no product
                    acc = Element({v + (g,): x for v, x in acc.items()}, _trusted=True)
                    continue
                acc = acc * img
                if acc.is_zero:
                    break
            add_scaled(out, acc.items(), ONE)
        return Element(out, _trusted=True)

    def as_scalar(self) -> Scalar:
        if not self._terms:
            return ZERO
        if set(self._terms) == {()}:
            return self._terms[()]
        raise ValueError(f"element {self} is not a scalar")

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for w in sorted(self._terms, key=lambda w: (len(w), w)):
            c = self._terms[w]
            neg = c.leading_sign() < 0
            mag = -c if neg else c
            ws = ".".join(w)
            cs = str(mag)
            if ws:
                if mag.is_one:
                    body = ws
                else:
                    if " " in cs or "/" in cs:
                        cs = f"({cs})"
                    body = f"{cs} {ws}"
            elif neg and "/" not in cs and (" + " in cs or " - " in cs):
                body = f"({cs})"        # a negated sum: -(q - 1), not -q - 1
            else:
                body = cs
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<{self}>"


_ZERO_ELEMENT = Element({}, _trusted=True)
_UNIT_ELEMENT = Element({(): ONE}, _trusted=True)


class RewriteRule(NamedTuple):
    lhs: Word
    rhs: Element
    provenance: str = ""

    def relation(self) -> Element:
        """LHS - RHS, the relation this rule orients."""
        return Element.word(*self.lhs) - self.rhs


class TerminationOrder(NamedTuple):
    """Well-founded word order used to orient rules.

    ``deglex`` compares word length, then precedence sequences.

    ``migration`` compares the number of odd letters, then the tuple of
    their crossing counts read from the ``form_side`` end (each odd
    letter's count is the number of evens between it and that end; for
    ``"right"``, ``th.a -> a.th`` goes from (1,) to (0,)), then deglex.
    It orients degree-raising rules that move odd generators toward
    ``form_side``, which deglex cannot.

    Both are reduction orders: well-founded, and monotone, so u > v gives
    x.u.y > x.v.y.  Deglex is both (Dershowitz 1987).  For migration,
    N, then N^k under lex for a fixed count k, then deglex are each
    well-founded, so their lexicographic product is.  Monotone: read
    x.u.y from the form side (shown for ``"right"``).  A context adds
    the same odd letters on both sides, so a count of odd letters that
    differs still decides.  The odd letters of y get the same crossing
    counts in x.u.y and x.v.y; those of u and v are shifted alike by the
    evens of y, so their tuples compare as u's and v's do.  The odd
    letters of x come after, and decide only when u's and v's tuples are
    equal; then deglex decides u > v, so u is at least as long as v and,
    with as many odd letters, has at least as many evens.  So each odd
    letter of x crosses as many or more evens in x.u.y: more makes x.u.y
    greater, and equal leaves it to deglex, which is monotone.  Proven
    termination still has no bound on the length of a rewrite: the tuple
    can fall at its head while evens pile up behind it, so rewriting
    keeps its step budget as a guard.
    """

    kind: str = "deglex"
    form_side: str = "right"

    def key(self, word: Word, parity: Mapping[str, int], prec: Mapping[str, int]):
        base = (len(word),) + tuple(prec[g] for g in word)
        if self.kind == "deglex":
            return base
        if self.kind != "migration":
            raise ValueError(f"unknown order kind {self.kind!r}")
        crossings, evens = [], 0    # per odd letter, the evens from the form side
        for g in reversed(word) if self.form_side == "right" else word:
            if parity[g]:
                crossings.append(evens)
            else:
                evens += 1
        return (len(crossings), tuple(crossings)) + base

    def greater(self, w1: Word, w2: Word, parity, prec) -> bool:
        return self.key(w1, parity, prec) > self.key(w2, parity, prec)


class ValidationIssue(NamedTuple):
    rule: str
    kind: str
    message: str


class ValidationReport(NamedTuple):
    presentation: str
    issues: list

    @property
    def valid(self) -> bool:
        return not self.issues


class CriticalPair(NamedTuple):
    rule1: str
    rule2: str
    word: Word
    branch1: Element
    branch2: Element

    @property
    def residual(self) -> Element:
        return self.branch1 - self.branch2

    @property
    def resolved(self) -> bool:
        return self.branch1 == self.branch2


class ConfluenceReport(NamedTuple):
    presentation: str
    pairs: list

    @property
    def unresolved(self) -> list:
        return [p for p in self.pairs if not p.resolved]

    @property
    def confluent(self) -> bool:
        return not self.unresolved


class _NormalForm:
    """A cached form of a word w, linked to the records it was built from.

    ``words`` is a tuple of distinct words and ``coefs`` the parallel tuple
    of their nonzero Scalar coefficients.  A word shorter than two letters
    is normal: its record has the words ``(w,)``, the shared coefficients
    :data:`_ONE_COEFS`, no ``prefix`` and no ``kids``.  Any other record
    is built by :meth:`Presentation._fill` from ``prefix``, the record of
    the stable form of w without its last letter x, and ``kids``, the
    records of the words that the extensions t.x of ``prefix``'s words
    rewrite to, in order: None, one record, or a tuple of several.  A
    record whose extensions are all kept shares ``prefix``'s ``coefs``.  A
    record with one extension that rewrites to one word shares that
    child's ``words``, and its ``coefs`` too when the coefficient is
    :data:`ONE`.

    ``bound`` is the size of the tree that ``prefix`` and ``kids`` unfold
    to, one plus the bounds of the links, so never less than the number
    of distinct records they reach (:meth:`closure_size`); on a chain of
    records without kids the two are equal.
    """

    __slots__ = ("words", "coefs", "prefix", "kids", "bound")

    def __init__(self, words: tuple, coefs: tuple, prefix=None, kids=None):
        self.words = words
        self.coefs = coefs
        self.prefix = prefix
        self.kids = kids
        if prefix is None:
            self.bound = 1
        elif kids is None:
            self.bound = prefix.bound + 1
        else:
            self.bound = prefix.bound + 1 + (
                kids.bound if kids.__class__ is _NormalForm else sum([k.bound for k in kids]))

    def closure_size(self) -> int:
        """Number of distinct records reachable through ``prefix`` and
        ``kids``, this one included."""
        seen = {self}
        todo = [self]
        while todo:
            nf = todo.pop()
            links = nf.kids
            if links is None or links.__class__ is _NormalForm:
                links = (nf.prefix, links)
            else:
                links += (nf.prefix,)
            for link in links:
                if link is not None and link not in seen:
                    seen.add(link)
                    todo.append(link)
        return len(seen)


_ONE_COEFS = (ONE,)     # the coefficients of every normal word's record
_NO_RULES: dict = {}    # the index of a letter no LHS starts with; never filled


class _Steps:
    """Step budget of one rewriting call.

    Each word normal form is charged its cost (see
    :meth:`Presentation.word_normal_form`) whether or not it was cached, so
    whether a budget trips does not depend on what ran before.  A record
    is charged its ``bound`` and owed the difference, so the count is
    never below the exact one; only when it passes the budget are the
    owed records counted, and the budget trips at the same word as with
    exact costs throughout, without walking the records of every word.  A
    budget that trips names the word whose normal form was being computed
    and the rule at that word's leftmost redex, by its tag; the naming is
    done on the way out, so it costs nothing until then.
    """

    __slots__ = ("count", "budget", "owed")

    def __init__(self, budget):
        self.count = 0
        self.budget = budget
        self.owed = []

    def charge(self, p, word, nf):
        self.count += nf.bound
        self.owed.append(nf)
        if self.count > self.budget and self.settle() > self.budget:
            self.exceeded(p, word)

    def settle(self) -> int:
        """Replace the bounds charged so far by the exact costs; return the
        count."""
        for nf in self.owed:
            self.count -= nf.bound - nf.closure_size()
        self.owed.clear()
        return self.count

    def exceeded(self, p, word):
        r = (p.find_redex(word) or (0, None))[1]
        rule = f" (rule {r.provenance or '.'.join(r.lhs)} at its leftmost redex)" if r else ""
        raise StepBudgetExceededError(
            f"step budget {self.budget} exceeded while normalizing "
            f"{'.'.join(word) or '1'} under {p.name!r}{rule}; the rule set "
            f"may not terminate") from None


class Presentation:
    """Immutable bundle of generators, order, and oriented rules."""

    def __init__(self, name: str, generators: Iterable[Generator],
                 order: TerminationOrder, rules: Iterable[RewriteRule],
                 form_position: str | None = None, tags: tuple = (),
                 calculus=None):
        self.name = name
        self.generators = tuple(generators)
        self.order = order
        self.rules = tuple(rules)
        self.form_position = form_position  # where odd generators sit in normal form
        self.tags = tuple(tags)
        self.calculus = calculus    # a calculus.DiffStructure, if one is declared
        self.parity = {g.name: g.parity for g in self.generators}
        self.precedence = {g.name: i for i, g in enumerate(self.generators)}
        self._by_first = {}     # for all_redexes, the witness's own index
        self._index = {}        # letter -> letter -> [(lhs, len, rhs terms, rule)]
        for r in self.rules:    # a rule is indexed only where it has the letters
            if r.lhs:
                self._by_first.setdefault(r.lhs[0], []).append(r)
            if len(r.lhs) >= 2:
                self._index.setdefault(r.lhs[0], {}).setdefault(r.lhs[1], []).append(
                    (r.lhs, len(r.lhs), tuple((v, ONE if c.is_one else c)
                                              for v, c in r.rhs.items()), r))
        self._reach = max((len(r.lhs) for r in self.rules), default=2) - 1
        self._nf_cache: dict = {}
        # the stable forms of _fill; with no LHS longer than 2 they are the
        # normal forms, and one memo serves both
        self._stable_cache = self._nf_cache if self._reach < 2 else {}

    # -- generator helpers ----------------------------------------------------

    def even_names(self):
        return [g.name for g in self.generators if g.parity == 0]

    def odd_names(self):
        return [g.name for g in self.generators if g.parity == 1]

    def word_parity(self, word: Word) -> int:
        p = 0
        for g in word:
            p ^= self.parity[g]
        return p

    def form_degree(self, word: Word) -> int:
        return sum(self.parity[g] for g in word)

    def check_word(self, word: Word):
        for g in word:
            if g not in self.parity:
                raise UnknownGeneratorError(g)

    # -- rewriting ------------------------------------------------------------

    def find_redex(self, word: Word, start: int = 0):
        """(position, rule) of the leftmost redex at or after ``start``,
        first matching rule in rule order, or None; rules are indexed by
        their first two letters, so a LHS shorter than 2 (which
        :func:`validate_presentation` rejects) never matches."""
        m = self._redex(word, start)
        return None if m is None else (m[0], m[3])

    def _redex(self, word: Word, start: int):
        """:meth:`find_redex` as (position, LHS length, RHS terms, rule);
        a two-letter LHS matches on its two index letters alone."""
        index = self._index
        for i in range(start, len(word) - 1):
            entries = index.get(word[i], _NO_RULES).get(word[i + 1])
            if entries:
                for L, n, rhs, r in entries:
                    if n == 2 or word[i:i + n] == L:
                        return i, n, rhs, r
        return None

    def all_redexes(self, word: Word):
        """Every (position, index, rule) match in ``word``; as in
        :meth:`find_redex`, a LHS shorter than 2 never matches."""
        by_first = self._by_first
        n = len(word)
        out = []
        for i in range(n):
            rules = by_first.get(word[i])
            if not rules:
                continue
            for j, r in enumerate(rules):
                L = r.lhs
                if n - i >= len(L) > 1 and word[i:i + len(L)] == L:
                    out.append((i, j, r))
        return out

    def is_normal(self, word: Word) -> bool:
        return self.find_redex(word) is None

    def word_normal_form(self, word: Word, steps: _Steps) -> _NormalForm:
        """The cached normal form of ``word`` (:class:`_NormalForm`),
        charged to ``steps`` at its cost on a cache hit as on a miss.  The
        cost is the number of distinct records in the word's extension DAG:
        its record and, through ``prefix`` and ``kids``, every record that
        record was built from.  It depends on the word alone, not on what
        the memos held before.  A cold miss checks the word's letters and
        builds exactly the records of the DAG that were not cached yet.
        """
        hit = self._nf_cache.get(word)
        if hit is None:
            self.check_word(word)
            self._fill(word, steps)
            hit = self._nf_cache[word]
        steps.charge(self, word, hit)
        return hit

    def _fill(self, word: Word, steps: _Steps) -> None:
        """Cache the normal form of ``word`` by prefix extension.

        Let r be the longest LHS length minus 1, and call a word k-stable
        when it has no redex before its last k letters.  S_k(w) rewrites w
        at its leftmost redex, first matching rule in rule order, while that
        redex starts before the last k letters; the normal form is S_0, and
        S_1 too, since no redex starts at the last letter.  For a letter x
        and S_r(u) = sum of c_t t,

            S_k(u.x) = sum of c_t S_k(t.x),   for k in {0, r}.

        Proof, by induction on the rewrites of u, which terminate.  If u is
        r-stable, S_r(u) = u.  Otherwise its leftmost redex starts at
        j < len(u) - r.  A redex of u.x that starts before j would end
        inside u, no LHS being longer than r + 1, so there is none; every
        rule tried at j ends inside u too, so the same rule matches first,
        and u.x rewrites to the children of u, each followed by x.  That
        redex starts before the last k letters of u.x, so S_k rewrites it,
        and the claim for each child gives it for u.x, S_k being linear.
        By the same bound, t.x for an r-stable t has no redex before
        len(t) - r, where its search starts (Baader & Nipkow 1998); for
        r = 1 that is the pair of t's last letter and x.  So the result is
        the leftmost normal form on every presentation, confluent or not.

        The records of u's prefixes are in the stable memo, the normal-form
        memo itself when r = 1.  An extension t.x whose leftmost redex
        starts in its last k letters is kept; any other is rewritten once,
        and its children's forms come from the word's own memo.

        The walk is one last-in, first-out stack of (word, k) requests and
        waiting records.  A request for a word not cached extends its
        longest cached prefix one letter at a time.  A record whose
        children are not all cached waits: its entry marks its memo slot
        and goes on the stack, then a request for each missing child, the
        first on top.  Popped again, it finds every child cached, is built,
        and its word's longer prefixes go on, so each record waits at most
        once.  Each record started is a distinct record of the word's DAG,
        so giving up once more have been started than the budget has left
        never trips below the charge, and it still stops rules that grow
        words forever.  A request that finds a waiting record, as its word
        or as its longest cached prefix, means a word rewrites back to
        itself, or to a longer word that begins with it; neither terminates,
        and the second exceeds every budget.
        """
        held = self._reach if self._reach > 1 else 0    # the k of the prefixes' forms
        memos = {0: self._nf_cache, held: self._stable_cache}
        stable_memo = self._stable_cache
        index, redex, reach = self._index, self._redex, self._reach
        room = steps.budget - steps.count
        started = 0
        # (word, k) requests, and waiting records [word, k, j, prefix record, parts]
        stack = [(word, 0)]
        while stack:
            top = stack.pop()
            if top.__class__ is list:   # a waiting record, whose children are now cached
                top, k, j, pre, parts = top
                n, rewrote = len(top), True     # only the children of a rewrite are waited on
            else:
                top, k = top
                nf = memos[k].get(top)
                if nf is not None:
                    if nf.__class__ is list:    # a record that waits on this word
                        for f in reversed(stack):   # the records that wait above it
                            if f is nf:
                                break
                            if f.__class__ is list and f[2] < len(f[0]):
                                steps.exceeded(self, word)
                        raise StepBudgetExceededError(
                            f"{'.'.join(top)} rewrites back to itself under "
                            f"{self.name!r}; the rule set does not terminate")
                    continue
                # a word not cached: extend its longest cached prefix
                pre = parts = None
                n = j = len(top)
                while j > 1:
                    j -= 1
                    pre = stable_memo.get(top[:j])
                    if pre is not None:
                        if pre.__class__ is list:   # a prefix that waits
                            steps.exceeded(self, word)
                        j += 1
                        break
            while True:     # top[:j], then each longer prefix, up to top itself
                if j < n:
                    cur, kj, memo = top[:j], held, stable_memo
                else:
                    cur, kj, memo = top, k, memos[k]
                if parts is None:
                    started += 1
                    if started > room:
                        room = steps.budget - steps.settle()
                        if started > room:
                            steps.exceeded(self, word)
                    if pre is not None:
                        parts = []  # (word, coefficient, record: None if kept, False if missing)
                        missing, rewrote = [], False
                        x, xs = cur[-1], cur[-1:]
                        for t, c in zip(pre.words, pre.coefs):
                            if reach == 1:      # a redex can only be t's last letter and x
                                rules = index.get(t[-1], _NO_RULES).get(x) if t else None
                                if not rules:
                                    parts.append((t + xs, c, None))
                                    continue
                                head, tail, rhs = t[:-1], (), rules[0][2]
                            else:
                                i = len(t)
                                tx = t + xs
                                m = redex(tx, i - reach if i > reach else 0)
                                if m is None or m[0] > i - kj:
                                    parts.append((tx, c, None))
                                    continue
                                i, size, rhs, _ = m
                                head, tail = tx[:i], tx[i + size:]
                            rewrote = True
                            for v, c2 in rhs:
                                v = head + v + tail
                                kid = memo.get(v)
                                if kid.__class__ is not _NormalForm:
                                    missing.append((v, kj))
                                    kid = False
                                parts.append((v, c2 if c is ONE else c * c2, kid))
                        if missing:     # wait below the missing children, the first on top
                            memo[cur] = frame = [top, k, j, pre, parts]
                            stack.append(frame)
                            stack += reversed(missing)
                            break
                if pre is None:
                    nf = _NormalForm((cur,), _ONE_COEFS)
                elif not parts:
                    nf = _NormalForm((), (), pre)
                elif not rewrote:
                    # every extension kept: the prefix's coefficients, and
                    # the key itself when u's form is u
                    v = parts[0][0]
                    nf = _NormalForm((cur if v == cur else v,) if len(parts) == 1
                                     else tuple([p[0] for p in parts]), pre.coefs, pre)
                elif len(parts) == 1:
                    v, c, kid = parts[0]
                    if kid is None:
                        nf = _NormalForm((v,), (c,), pre)
                    else:
                        kid = memo[v] if kid is False else kid
                        coefs = kid.coefs if c is ONE else tuple([c * y for y in kid.coefs])
                        nf = _NormalForm(kid.words, coefs, pre, kid)
                else:
                    acc: dict = {}
                    kids = []
                    for v, c, kid in parts:
                        if kid is None:
                            add_scaled(acc, ((v, c),), ONE)
                            continue
                        kid = memo[v] if kid is False else kid
                        kids.append(kid)
                        add_scaled(acc, zip(kid.words, kid.coefs), c)
                    nf = _NormalForm(tuple(acc), tuple(acc.values()), pre,
                                     tuple(kids) if kids else None)
                memo[cur] = nf
                if j >= n:
                    break
                pre, parts = nf, None
                j += 1

    def __repr__(self):
        return f"Presentation({self.name!r}, {len(self.rules)} rules)"


# ---------------------------------------------------------------------------
# module-level operations (the public engine surface)
# ---------------------------------------------------------------------------

def normalize(x: Element, p: Presentation, budget: int = DEFAULT_STEP_BUDGET) -> Element:
    """Unique rewriting fixed point of ``x`` under ``p`` (leftmost strategy).

    A call that exceeds ``budget`` removes the normal forms it cached
    before it raises: cache entries are only ever added, so the newest
    ones are its own.
    """
    steps = _Steps(budget)
    memos = (p._nf_cache, p._stable_cache)     # one dict twice when they are one
    sizes = (len(memos[0]), len(memos[1]))
    out: dict = {}
    word_nf = p.word_normal_form
    try:
        for w, c in x.items():
            nf = word_nf(w, steps)
            add_scaled(out, zip(nf.words, nf.coefs), c)
    except StepBudgetExceededError:
        for memo, size in zip(memos, sizes):
            while len(memo) > size:
                memo.popitem()
        raise
    return Element(out, _trusted=True)


def add_scaled(out: dict, terms, coef: Scalar) -> None:
    """``out += coef * terms`` on a word -> Scalar dict, keeping zero
    coefficients absent; ``terms`` yields (word, Scalar) pairs."""
    for w, c in terms:
        if coef is not ONE:
            c = coef * c
        s = out.get(w)
        s = c if s is None else s + c
        if s.is_zero:
            out.pop(w, None)
        else:
            out[w] = s


def random_strategy_normalize(x: Element, p: Presentation, seed: int,
                              budget: int = DEFAULT_STEP_BUDGET) -> Element:
    """Rewrite with randomly chosen redexes; agrees with :func:`normalize`
    on locally confluent presentations.

    Deliberately shares no code with the cached leftmost normalizer so the
    two act as independent witnesses.
    """
    rng = random.Random(seed)
    terms = {w: c for w, c in x.items()}
    for w in terms:
        for g in w:
            if g not in p.parity:
                raise UnknownGeneratorError(g)
    steps = 0
    while True:
        redexes = []
        for w in sorted(terms, key=lambda w: (len(w), w)):
            for i, j, r in p.all_redexes(w):
                redexes.append((w, i, j, r))
        if not redexes:
            break
        w, i, _, rule = redexes[rng.randrange(len(redexes))]
        steps += 1
        if steps > budget:
            raise StepBudgetExceededError(
                f"step budget {budget} exceeded in random-strategy rewriting")
        c = terms.pop(w)
        prefix, suffix = w[:i], w[i + len(rule.lhs):]
        for w2, c2 in rule.rhs.items():
            nw = prefix + w2 + suffix
            s = terms.get(nw)
            s = c * c2 if s is None else s + c * c2
            if s.is_zero:
                terms.pop(nw, None)
            else:
                terms[nw] = s
    return Element(terms, _trusted=True)


def validate_presentation(p: Presentation) -> ValidationReport:
    """Check rule orientation, parity consistency, and generator references."""
    issues = []
    seen_names = set()
    for g in p.generators:
        if g.name in seen_names:
            issues.append(ValidationIssue(g.name, "generator", "duplicate name"))
        if g.name == "q":
            issues.append(ValidationIssue(g.name, "generator", "name 'q' is reserved"))
        seen_names.add(g.name)
    seen_lhs = set()
    for r in p.rules:
        tag = r.provenance or ".".join(r.lhs)
        if len(r.lhs) < 2:
            issues.append(ValidationIssue(tag, "shape", "rule LHS shorter than 2"))
            continue
        unknown = [g for g in r.lhs if g not in p.parity]
        for w, _ in r.rhs.items():
            unknown.extend(g for g in w if g not in p.parity)
        if unknown:
            issues.append(ValidationIssue(
                tag, "unknown-generator", f"undeclared: {sorted(set(unknown))}"))
            continue
        if r.lhs in seen_lhs:
            issues.append(ValidationIssue(tag, "shape", "duplicate rule LHS"))
        seen_lhs.add(r.lhs)
        lp = p.word_parity(r.lhs)
        for w, _ in r.rhs.items():
            if p.word_parity(w) != lp:
                issues.append(ValidationIssue(
                    tag, "parity", f"RHS word {'.'.join(w) or '1'} parity differs"))
            if not p.order.greater(r.lhs, w, p.parity, p.precedence):
                issues.append(ValidationIssue(
                    tag, "orientation",
                    f"RHS word {'.'.join(w) or '1'} not smaller than LHS"))
    return ValidationReport(p.name, issues)


def check_local_confluence(p: Presentation) -> ConfluenceReport:
    """Reduce both branches of every overlap/inclusion critical pair.

    A rule r1 with LHS u is paired, in rule order, only with the rules
    whose LHS is empty or starts with a letter of u: an overlap or an
    inclusion puts the first letter of a nonempty LHS on a letter of u.
    So no pair is missed, and they come in the order of the all-pairs loop.
    """
    starts: dict = {}       # LHS[:1] -> [(index, rule)], in rule order
    for j, r in enumerate(p.rules):
        starts.setdefault(r.lhs[:1], []).append((j, r))
    pairs = []
    for r1 in p.rules:
        u = r1.lhs
        heads = {u[i:i + 1] for i in range(len(u) + 1)}     # u's letters and ()
        for _, r2 in sorted(jr for h in heads for jr in starts.get(h, ())):
            v = r2.lhs
            # proper overlaps: a suffix of u equals a prefix of v
            for k in range(1, min(len(u), len(v))):
                if u[-k:] == v[:k]:
                    word = u + v[k:]
                    b1 = normalize(_wrap((), r1.rhs, v[k:]), p)
                    b2 = normalize(_wrap(u[:-k], r2.rhs, ()), p)
                    pairs.append(CriticalPair(_tag(r1), _tag(r2), word, b1, b2))
            # inclusions: v strictly inside u
            if r1 is not r2 and len(v) < len(u):
                for i in range(len(u) - len(v) + 1):
                    if u[i:i + len(v)] == v:
                        b1 = normalize(r1.rhs, p)
                        b2 = normalize(_wrap(u[:i], r2.rhs, u[i + len(v):]), p)
                        pairs.append(CriticalPair(_tag(r1), _tag(r2), u, b1, b2))
    return ConfluenceReport(p.name, pairs)


def _wrap(head: Word, x: Element, tail: Word) -> Element:
    """head.x.tail for words head and tail."""
    return Element({head + w + tail: c for w, c in x.items()}, _trusted=True)


def _tag(rule: RewriteRule) -> str:
    return rule.provenance or ".".join(rule.lhs)


def normal_words(p: Presentation, max_len: int,
                 alphabet: Iterable[str] | None = None) -> Iterator[Word]:
    """All normal-form words of length <= max_len (empty word included)."""
    letters = tuple(alphabet) if alphabet is not None else tuple(
        g.name for g in p.generators)
    level = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for w in level:
            for g in letters:
                w2 = w + (g,)
                if p.is_normal(w2):
                    nxt.append(w2)
                    yield w2
        level = nxt
