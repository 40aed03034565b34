"""Rewriting engine: normalization, orders, validation, confluence.

Hand-expanded reductions (worked out once on paper from the preset rules)
are frozen as oracles; strategy independence is exercised against an
implementation that shares no code with the cached normalizer.
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

from qncalc.calculus import CALCULUS_PRESETS, diff_presentation
from qncalc.dsl import parse_presentation
from qncalc.ncalg import (
    DEFAULT_STEP_BUDGET,
    Element,
    Generator,
    Presentation,
    RewriteRule,
    StepBudgetExceededError,
    TerminationOrder,
    UnknownGeneratorError,
    ValidationIssue,
    check_local_confluence,
    normal_words,
    normalize,
    random_strategy_normalize,
    validate_presentation,
    _Steps,
)
from qncalc.presentations import PRESET_IDS, preset, preset_without_rule
from qncalc.qfield import ONE, Scalar

q = Scalar.q_power
w = Element.word
LAM = q(1) - q(-1)


def el(*terms):
    out = Element.zero()
    for coef, spec in terms:
        out = out + Element.term(coef, tuple(spec.split(".")) if spec else ())
    return out


def random_words(p, rng, count, max_len, alphabet=None):
    letters = list(alphabet or (g.name for g in p.generators))
    out = []
    for _ in range(count):
        n = rng.randint(1, max_len)
        out.append(tuple(rng.choice(letters) for _ in range(n)))
    return out


# -- element basics -----------------------------------------------------------

def test_element_zero_coefficients_absent():
    x = Element.term(ONE, ("a",)) - Element.term(ONE, ("a",))
    assert x.is_zero
    assert len(x) == 0


def test_element_product_is_concatenation():
    x = w("a") * w("b", "c")
    assert x == w("a.b.c")


def test_element_str():
    x = el((ONE, "a.d"), (-LAM, "b.c"))
    assert str(x) == "a.d - (q - q^-1) b.c"
    # a negated sum as the scalar term keeps its parentheses
    assert str(el((ONE - q(1), ""), (ONE, "a"))) == "-(q - 1) + a"
    assert str(el((-q(2) * 2, ""))) == "-2 q^2"


def _merge(out, pairs):
    """``out += pairs`` on a word -> Scalar dict, a word whose sum is 0
    leaving it; the reference merge for the term-order test."""
    for word, c in pairs:
        s = out[word] + c if word in out else c
        if s.is_zero:
            del out[word]
        else:
            out[word] = s
    return out


def _times(x, y):
    out = {}
    for w1, c1 in x.items():
        _merge(out, [(w1 + w2, c1 * c2) for w2, c2 in y.items()])
    return out


def test_element_arithmetic_keeps_reference_term_order():
    # the order in which terms are inserted moves the scalar-sum memo's
    # misses, and so the cost of later rewriting; it is pinned here
    rng = random.Random(20)
    coefs = [ONE, -ONE, q(1), -q(1)]
    words = [(), ("a",), ("b",), ("a", "b"), ("b", "a")]

    def sample():
        return Element({wd: rng.choice(coefs) for wd in rng.sample(words, rng.randint(1, 5))})

    cancelled = [0, 0]      # samples in which x * y, x - y lose a term to a 0 sum
    for _ in range(200):
        x, y = sample(), sample()
        images = {"a": sample(), "b": sample()} if rng.random() < 0.5 else {"a": sample()}
        subst = {}
        for wd, c in x.items():
            acc = {(): c}
            for g in wd:
                acc = _times(acc, images.get(g, w(g)))
            _merge(subst, acc.items())
        cases = [(x + y, _merge(dict(x.items()), y.items())),
                 (x - y, _merge(dict(x.items()), [(wd, -c) for wd, c in y.items()])),
                 (x * y, _times(x, y)),
                 (x.substitute(images), subst)]
        for got, want in cases:
            assert list(got.items()) == list(want.items())
        cancelled[0] += len({u + v for u in x.words() for v in y.words()}) > len(x * y)
        cancelled[1] += len(set(x.words()) | set(y.words())) > len(x - y)
    assert min(cancelled) > 20


# -- normalization: frozen oracles against glq2 -------------------------------

def test_normalize_da_oracle():
    # d.a -> a.d - lam b.c -> D + (q - lam) b.c = D + q^-1 b.c
    p = preset("glq2")
    assert normalize(w("d.a"), p) == el((ONE, "D"), (q(-1), "b.c"))


def test_normalize_single_generator_fixed():
    p = preset("glq2")
    assert normalize(w("a"), p) == w("a")


def test_defining_relation_holds_mod_ideal():
    p = preset("glq2")
    assert normalize(w("a.b") - q(1) * w("b.a"), p).is_zero
    assert not normalize(w("a") - w("b"), p).is_zero


def test_mul_reorients():
    # normal form sorts letters by ascending precedence, so a.b reduces
    # onto b.a; the relation b.a = q^-1 a.b holds modulo the ideal
    p = preset("glq2")
    assert normalize(w("a") * w("b"), p) == q(1) * w("b.a")
    assert normalize(w("b.a") - q(-1) * w("a.b"), p).is_zero


def test_unit_generator_cancels():
    p = preset("glq2")
    rng = random.Random(7)
    for word in random_words(p, rng, 20, 4):
        x = w(*word)
        assert normalize(normalize(x * w("D.Dinv"), p) - x, p).is_zero


def test_determinant_commutes_with_parameters():
    p = preset("glq2")
    det = el((ONE, "a.d"), (-q(1), "b.c"))
    for g in ("a", "b", "c", "d"):
        commutator = det * w(g) - w(g) * det
        assert normalize(commutator, p).is_zero


def test_cubic_chain_oracle():
    # the two explicit three-letter reorderings of the diagonalized forms
    p = preset("glq2-left")
    assert normalize(w("tht4.th3.th2"), p) == Element.term(-q(2), ("th2", "th3", "tht4"))
    assert normalize(w("tht4.th2.tht1"), p) == Element.term(-q(4), ("tht1", "th2", "tht4"))


def test_step_budget_enforced():
    p = preset("glq2")
    with pytest.raises(StepBudgetExceededError):
        normalize(w("d.a") * w("d.a"), Presentation(
            p.name, p.generators, p.order, p.rules), budget=2)


def _extension_dag(p, word):
    """The words whose records make up ``word``'s extension DAG when no LHS
    is longer than 2: the word, the DAG of the word without its last letter
    x, and the DAGs of the words that each extension t.x of that prefix's
    normal form rewrites to.  Found with ``find_redex`` and the normal forms
    of whole words (checked against the cache-free reference below), not
    with the memo's records."""
    seen = {word}
    todo = [word]
    while todo:
        cur = todo.pop()
        if len(cur) < 2:
            continue
        u, x = cur[:-1], cur[-1:]
        kids = [u]
        for t in normalize(Element({u: ONE}), p).words():
            m = p.find_redex(t + x)
            if m is not None:
                i, rule = m
                kids += [(t + x)[:i] + v + (t + x)[i + len(rule.lhs):]
                         for v in rule.rhs.words()]
        for kid in kids:
            if kid not in seen:
                seen.add(kid)
                todo.append(kid)
    return seen


@pytest.mark.parametrize("pid", ("glq2", "glq2-left-diff", "qplane-right-b0-diff",
                                 "slq2-left-diff"))
def test_step_charge_is_closure_size_cold_or_warm(pid):
    shared = preset(pid) if pid in PRESET_IDS else diff_presentation(pid[:-5])
    rng = random.Random(11)
    for _ in range(20):
        word = [rng.choice(shared.even_names()) for _ in range(rng.randint(2, 5))]
        for _ in range(rng.randint(0, 2) if shared.odd_names() else 0):
            word.insert(rng.randint(0, len(word)), rng.choice(shared.odd_names()))
        word = tuple(word)
        size = len(_extension_dag(shared, word))
        fresh = Presentation(shared.name, shared.generators, shared.order, shared.rules)
        for p in (fresh, fresh, shared):        # cold, then warm memos
            assert normalize(w(*word), p, budget=size) == normalize(w(*word), shared)
            with pytest.raises(StepBudgetExceededError):
                normalize(w(*word), p, budget=size - 1)


def test_step_charge_adds_up_over_the_words_of_a_call():
    p = preset("glq2")
    x = w("d.d.a.a") + w("d.a.d.a")
    total = (len(_extension_dag(p, ("d", "d", "a", "a")))
             + len(_extension_dag(p, ("d", "a", "d", "a"))))
    assert normalize(x, p, budget=total) == normalize(x, p)
    with pytest.raises(StepBudgetExceededError):
        normalize(x, p, budget=total - 1)


def test_long_words_fit_the_default_budget():
    # the leftmost rewrite tree of d^8 a^8 has 15,341,673 nodes, but its
    # extension DAG has only 560 records, and a cold normalization builds
    # exactly those
    p = preset("glq2")
    fresh = Presentation(p.name, p.generators, p.order, p.rules)
    word = tuple("d" * 8 + "a" * 8)
    assert len(_extension_dag(p, word)) == 560
    out = normalize(w(*word), fresh, budget=560)
    assert len(fresh._nf_cache) == 560
    assert out == normalize(w(*word), p)
    with pytest.raises(StepBudgetExceededError):
        normalize(w(*word), fresh, budget=559)


def test_the_walk_is_not_bounded_by_the_recursion_limit():
    # normalizing y^n.x waits on a chain of n records, one per y moved
    # past x; a walk that recursed per record would overflow the stack
    p = parse_presentation("gen x y parity even\nrule y.x -> q x.y\n")
    n = sys.getrecursionlimit() + 500
    out = normalize(w(*"y" * n, "x"), p)
    assert out == Element.term(q(n), ("x",) + ("y",) * n)
    assert len(p._nf_cache) == 3 * n + 1


def test_failed_normalization_leaves_the_cache_as_it_found_it():
    # without the rollback, the failed call keeps about one entry per step
    shared = diff_presentation("slq2-right")
    fresh = Presentation(shared.name, shared.generators, shared.order, shared.rules)
    normalize(w("d.del_a") + w("a.d"), fresh)
    before = dict(fresh._nf_cache)
    messages = []
    for _ in range(2):
        with pytest.raises(StepBudgetExceededError) as info:
            normalize(w("d.del_a") + w("d.d.del_a.del_c.del_b"), fresh, budget=2000)
        messages.append(str(info.value))
        assert fresh._nf_cache == before
    assert messages[0] == messages[1]
    assert messages[0].startswith("step budget 2000 exceeded while normalizing "
                                  "d.d.del_a.del_c.del_b under 'slq2-right-diff'")


def test_unknown_generator_raises_cold_or_warm():
    p = preset("glq2")
    fresh = Presentation(p.name, p.generators, p.order, p.rules)
    for warm in (False, True):
        if warm:
            normalize(w("d.a.c.b") + w("c.a"), fresh)
        for bad in (w("zz"), w("d.zz.a"), w("d.a") + w("a.zz")):
            with pytest.raises(UnknownGeneratorError):
                normalize(bad, fresh)
        assert not any("zz" in word for word in fresh._nf_cache)


@pytest.mark.parametrize("bad", ["zz", "d.zz.a", "a.zz"])
def test_the_witness_rejects_unknown_generators_as_normalize_does(bad):
    # by its own letter check: a word with no redex is never rewritten
    p = preset("glq2")
    for x in (w(bad), w("d.a") + w(bad)):
        with pytest.raises(UnknownGeneratorError, match="zz"):
            random_strategy_normalize(x, p, seed=1)


def test_step_budget_stops_non_terminating_rules():
    gens = [Generator("x", 0), Generator("y", 0)]
    loop = Presentation("loop", gens, TerminationOrder("deglex"), [
        RewriteRule(("y", "x"), w("x.y")), RewriteRule(("x", "y"), w("y.x"))])
    for budget in (1, 2, 1000):
        with pytest.raises(StepBudgetExceededError):
            normalize(w("x.y"), loop, budget=budget)
    with pytest.raises(StepBudgetExceededError, match="rewrites back to itself"):
        normalize(w("x.y"), loop)
    # words that grow forever: stopped by the budget alone, also when the
    # word comes back as the prefix of a child's child (x.y, y.x.x, x.y.x)
    grow = Presentation("grow", gens, TerminationOrder("deglex"), [
        RewriteRule(("x", "x"), w("x.x.x"))])
    swap = Presentation("swap", gens, TerminationOrder("deglex"), [
        RewriteRule(("x", "y"), w("y.x.x")), RewriteRule(("y", "x"), w("x.y"))])
    for budget in (1, 2, 1000):
        for p, word in ((grow, "x.x"), (swap, "x.y")):
            with pytest.raises(StepBudgetExceededError, match=f"step budget {budget} "):
                normalize(w(word), p, budget=budget)


def test_the_witness_stops_at_its_step_budget():
    gens = [Generator("x", 0), Generator("y", 0)]
    loop = Presentation("loop", gens, TerminationOrder("deglex"), [
        RewriteRule(("y", "x"), w("x.y")), RewriteRule(("x", "y"), w("y.x"))])
    with pytest.raises(StepBudgetExceededError,
                       match="step budget 5 exceeded in random-strategy rewriting"):
        random_strategy_normalize(w("x.y"), loop, seed=0, budget=5)


@pytest.mark.parametrize("word, budget, rule", [
    ("z.y.x", 1, " (rule zy at its leftmost redex)"),      # cold: tripped while filling
    ("z.y.x", 3, " (rule zy at its leftmost redex)"),      # warm: tripped by the charge
    ("y.x", 1, " (rule y.x at its leftmost redex)"),       # an untagged rule: its LHS
    ("x.y", 0, ""),                                        # a normal word has no redex
])
def test_step_budget_error_names_the_leftmost_rule(word, budget, rule):
    gens = [Generator(g, 0) for g in "xyz"]
    p = Presentation("tags", gens, TerminationOrder("deglex"), [
        RewriteRule(("y", "x"), w("x.y")),
        RewriteRule(("z", "x"), w("x.z"), "zx"),
        RewriteRule(("z", "y"), w("y.z"), "zy")])
    if budget == 3:
        normalize(w(word), p)       # cache the normal form first
    msg = f"step budget {budget} exceeded while normalizing {word} under 'tags'{rule};"
    with pytest.raises(StepBudgetExceededError) as info:
        normalize(w(word), p, budget=budget)
    assert str(info.value).startswith(msg)


# -- invariants ----------------------------------------------------------------

def test_normalize_idempotent_and_linear():
    p = preset("glq2-left")
    rng = random.Random(11)
    words = random_words(p, rng, 60, 4)
    for i in range(0, len(words) - 1, 2):
        x, y = w(*words[i]), w(*words[i + 1])
        nx = normalize(x, p)
        assert normalize(nx, p) == nx
        s = q(2) - 3
        assert normalize(x + y, p) == normalize(x, p) + normalize(y, p)
        assert normalize(s * x, p) == s * normalize(x, p)


def test_normalize_preserves_parity_and_form_degree():
    p = preset("glq2-left")
    rng = random.Random(13)
    for word in random_words(p, rng, 80, 4):
        nf = normalize(w(*word), p)
        for word2 in nf.words():
            assert p.word_parity(word2) == p.word_parity(word)
            assert p.form_degree(word2) == p.form_degree(word)


def test_mul_associative_mod_ideal():
    p = preset("glq2")
    rng = random.Random(17)
    words = random_words(p, rng, 30, 3)
    for i in range(0, len(words) - 2, 3):
        x, y, z = (w(*words[i + j]) for j in range(3))
        xy_z = normalize(normalize(x * y, p) * z, p)
        assert normalize(xy_z - normalize(x * normalize(y * z, p), p), p).is_zero


def test_every_preset_rule_strictly_decreases():
    for pid in ("glq2", "glq2-left", "glq2-right", "slq2-left", "slq2-right"):
        p = preset(pid)
        for r in p.rules:
            for word, _ in r.rhs.items():
                assert p.order.greater(r.lhs, word, p.parity, p.precedence)


# -- strategy independence ------------------------------------------------------

def test_random_strategy_matches_normalize_on_chains():
    p = preset("glq2-left")
    for seed in range(5):
        got = random_strategy_normalize(w("tht4.th3.th2"), p, seed)
        assert got == Element.term(-q(2), ("th2", "th3", "tht4"))


def test_random_strategy_normal_form_fixed():
    p = preset("glq2")
    assert random_strategy_normalize(w("b.c.a"), p, 3) == w("b.c.a")


def test_random_strategy_corpus_glq2():
    p = preset("glq2")
    rng = random.Random(2024)
    words = random_words(p, rng, 200, 4)
    for word in words:
        expected = normalize(w(*word), p)
        for seed in range(5):
            assert random_strategy_normalize(w(*word), p, seed) == expected


def _shared_prefix_presentation():
    # two LHS share their first two letters, so in-position rule order matters
    gens = [Generator(n, 0) for n in "xyz"]
    rules = [RewriteRule(("x", "y", "z"), w("z"), "long"),
             RewriteRule(("x", "y"), w("y", "x"), "short"),
             RewriteRule(("z", "x", "y"), w("x"), "other")]
    return Presentation("shared-prefix", gens, TerminationOrder("deglex"), rules)


@pytest.mark.parametrize("pid", PRESET_IDS + tuple(f"{c}-diff" for c in CALCULUS_PRESETS)
                         + ("shared-prefix",))
def test_find_redex_is_first_of_all_redexes(pid):
    # the pair-indexed leftmost redex agrees with the independent scan
    if pid == "shared-prefix":
        p = _shared_prefix_presentation()
    else:
        p = diff_presentation(pid) if pid.endswith("-diff") else preset(pid)
    for word in random_words(p, random.Random(31), 200, 6):
        everything = p.all_redexes(word)
        want = (everything[0][0], everything[0][2]) if everything else None
        assert p.find_redex(word) == want, word


KERNEL_PIDS = PRESET_IDS + tuple(f"{c}-diff" for c in CALCULUS_PRESETS) + ("shared-prefix",)


def _kernel_presentation(pid):
    if pid == "shared-prefix":
        return _shared_prefix_presentation()
    return diff_presentation(pid) if pid.endswith("-diff") else preset(pid)


@pytest.mark.parametrize("pid", KERNEL_PIDS)
def test_find_redex_resumes_where_a_rewrite_can_start_one(pid):
    # a child of a rewrite at i has no redex that starts before
    # i - (longest LHS - 1), so a search from there finds its leftmost one
    p = _kernel_presentation(pid)
    reach = max(len(r.lhs) for r in p.rules) - 1
    for word in random_words(p, random.Random(37), 200, 6):
        m = p.find_redex(word)
        if m is None:
            continue
        i, rule = m
        for v in rule.rhs.words():
            child = word[:i] + v + word[i + len(rule.lhs):]
            assert p.find_redex(child, max(0, i - reach)) == p.find_redex(child), child


@pytest.mark.parametrize("pid", KERNEL_PIDS)
def test_an_extension_of_a_stable_word_has_no_earlier_redex(pid):
    # prefix extension searches t.x from len(t) - r on, r the longest LHS
    # length minus 1, when t has no redex before its last r letters
    p = _kernel_presentation(pid)
    reach = max(len(r.lhs) for r in p.rules) - 1
    letters = [(g.name,) for g in p.generators]
    stable = 0
    for t in random_words(p, random.Random(53), 300, 6):
        m = p.find_redex(t)
        if m is not None and m[0] < len(t) - reach:
            continue
        stable += 1
        for x in letters:
            assert p.find_redex(t + x, max(0, len(t) - reach)) == p.find_redex(t + x)
    assert stable > 20


@pytest.mark.parametrize("pid", KERNEL_PIDS)
def test_normal_words_are_the_normal_words(pid):
    p = _kernel_presentation(pid)
    letters = [g.name for g in p.generators]
    brute = [word for n in range(4) for word in itertools.product(letters, repeat=n)
             if p.is_normal(word)]
    assert list(normal_words(p, 3)) == brute


def _leftmost_reference(x, p):
    """Normal form by rewriting every term at its leftmost redex (first
    matching rule in rule order, found by a plain scan of the rules), one
    round at a time, with no cache."""
    todo, done = dict(x.items()), {}
    for _ in range(10_000):
        if not todo:
            return Element(done)
        out = {}
        for word, c in todo.items():
            hit = next(((i, r) for i in range(len(word)) for r in p.rules
                        if word[i:i + len(r.lhs)] == r.lhs), None)
            if hit is None:
                done[word] = done[word] + c if word in done else c
                continue
            i, r = hit
            for v, c2 in r.rhs.items():
                v = word[:i] + v + word[i + len(r.lhs):]
                out[v] = out[v] + c * c2 if v in out else c * c2
        todo = {v: c for v, c in out.items() if not c.is_zero}
    raise AssertionError("reference rewriting did not stop")


@pytest.mark.parametrize("pid", KERNEL_PIDS)
def test_normalize_matches_cache_free_leftmost_rewriting(pid):
    # words of form degree <= 1: two odd letters make -diff closures of
    # thousands of words, which the reference rewrites without sharing
    shared = _kernel_presentation(pid)
    fresh = Presentation(shared.name, shared.generators, shared.order, shared.rules)
    rng = random.Random(41)
    words = random_words(fresh, rng, 60, 4, shared.even_names())
    for k in range(0, len(words), 3):
        terms = []
        for v in words[k:k + 3]:
            v = list(v)
            if shared.odd_names() and rng.random() < 0.7:
                v.insert(rng.randint(0, len(v)), rng.choice(shared.odd_names()))
            terms.append((q(rng.randint(-2, 2)) * rng.randint(1, 3), ".".join(v)))
        x = el(*terms)
        assert normalize(x, fresh) == _leftmost_reference(x, fresh), x


def _random_system(rng, name):
    """Rules on 2-4 letters with LHS of length 2-4, each RHS a sum of up to
    three deglex-smaller words; such systems terminate and are mostly not
    confluent, so any strategy other than leftmost rewriting shows."""
    letters = "abcd"[:rng.randint(2, 4)]
    rules = {}
    for _ in range(rng.randint(1, 5)):
        lhs = tuple(rng.choice(letters) for _ in range(rng.randint(2, 4)))
        rhs = {}
        for _ in range(rng.randint(0, 3)):
            v = tuple(rng.choice(letters) for _ in range(rng.randint(0, len(lhs))))
            if (len(v), v) < (len(lhs), lhs):
                rhs[v] = rng.choice((ONE, -ONE, q(1), Scalar.from_int(2)))
        rules.setdefault(lhs, RewriteRule(lhs, Element(rhs)))
    return Presentation(name, [Generator(g, 0) for g in letters],
                        TerminationOrder("deglex"), list(rules.values()))


def test_normalize_matches_leftmost_rewriting_on_random_systems():
    # prefix extension must give the leftmost normal form whether or not the
    # system is confluent; with LHS longer than 2, extending the prefix's
    # normal form instead of its stable form breaks this
    rng = random.Random(47)
    longer = 0
    for n in range(1000):
        p = _random_system(rng, f"random-{n}")
        longer += p._reach > 1
        letters = [g.name for g in p.generators]
        for _ in range(30):
            x = w(*(rng.choice(letters) for _ in range(rng.randint(1, 6))))
            assert normalize(x, p) == _leftmost_reference(x, p), (p.rules, x)
    assert longer > 700


def test_longer_rules_keep_the_charge_and_the_rollback_of_both_memos():
    # with a LHS longer than 2, prefixes are kept in a memo of their own;
    # a word's charge, taken cold, decides whether a warm call fits its
    # budget, and a call that does not fit leaves both memos as they were
    rng = random.Random(59)
    systems = [p for p in (_random_system(rng, f"random-{n}") for n in range(200))
               if p._reach > 1][:40]
    for shared in systems:
        letters = [g.name for g in shared.generators]
        warm = Presentation(shared.name, shared.generators, shared.order, shared.rules)
        assert warm._stable_cache is not warm._nf_cache
        for _ in range(6):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(2, 6)))
            steps = _Steps(DEFAULT_STEP_BUDGET)
            Presentation(shared.name, shared.generators, shared.order,
                         shared.rules).word_normal_form(word, steps)
            charge = steps.settle()
            memos = (dict(warm._nf_cache), dict(warm._stable_cache))
            if charge > 1:
                with pytest.raises(StepBudgetExceededError):
                    normalize(w(*word), warm, budget=charge - 1)
                assert (warm._nf_cache, warm._stable_cache) == memos
            assert normalize(w(*word), warm, budget=charge) == normalize(w(*word), shared)


@pytest.mark.parametrize("pid", PRESET_IDS + tuple(f"{c}-diff" for c in CALCULUS_PRESETS))
def test_cached_records_share_words_along_one_word_rewrites(pid):
    shared = _kernel_presentation(pid)
    p = Presentation(shared.name, shared.generators, shared.order, shared.rules)
    rng = random.Random(43)
    for word in random_words(p, rng, 40, 5, shared.even_names()):
        word = list(word)
        if shared.odd_names():
            word.insert(rng.randint(0, len(word)), rng.choice(shared.odd_names()))
        normalize(w(*word), p)
    assert p._stable_cache is p._nf_cache          # no LHS longer than 2
    records = {id(nf) for nf in p._nf_cache.values()}
    normal_coefs = set()
    for word, nf in p._nf_cache.items():
        assert len(nf.words) == len(nf.coefs)
        assert len(set(nf.words)) == len(nf.words)
        assert not any(c.is_zero for c in nf.coefs)
        assert Element(dict(zip(nf.words, nf.coefs))) == normalize(w(*word), shared)
        if nf.words == (word,) and nf.coefs == (ONE,):
            normal_coefs.add(id(nf.coefs))
        if nf.prefix is None:                       # a letter, or the empty word
            assert len(word) < 2 and nf.kids is None
            assert (nf.words, nf.coefs) == ((word,), (ONE,))
            continue
        assert nf.prefix is p._nf_cache[word[:-1]]
        kids = (nf.kids,) if isinstance(nf.kids, type(nf)) else nf.kids or ()
        assert all(id(kid) in records for kid in kids)
        if nf.kids is None and len(nf.words) == len(nf.prefix.words):
            # every extension t.x normal: the prefix's coefficients
            assert nf.words == tuple(t + word[-1:] for t in nf.prefix.words)
            assert nf.coefs is nf.prefix.coefs
        if len(nf.prefix.words) == 1:               # one extension t.x
            (t,), (c,) = nf.prefix.words, nf.prefix.coefs
            m = p.find_redex(t + word[-1:])
            if m is None:
                assert nf.kids is None
            elif len(m[1].rhs) == 1:                # one child: its words, scaled
                (_, c2), = m[1].rhs.items()
                assert nf.words is nf.kids.words
                if c * c2 == ONE:
                    assert nf.coefs is nf.kids.coefs
    assert len(normal_coefs) == 1                       # one shared (ONE,)


# -- termination orders ----------------------------------------------------------

def _two_gen_presentation(order):
    gens = [Generator("x", 0), Generator("y", 0)]
    return Presentation("xy", gens, order, [])


def test_deglex_keys():
    p = _two_gen_presentation(TerminationOrder("deglex"))
    o = p.order
    assert o.greater(("y", "x"), ("x", "y"), p.parity, p.precedence)
    assert o.greater(("x", "x", "x"), ("y", "y"), p.parity, p.precedence)


def test_deglex_orients_every_shipped_rule_in_every_one_letter_context():
    # a rewrite inside u._.v must still go down the order, or termination,
    # and with it every verdict read off a unique normal form, is unproven
    systems = [preset(pid) for pid in PRESET_IDS]
    systems += [parse_presentation(f.read_text()) for f in sorted(EXAMPLES.glob("*.preset"))]
    samples = 0
    for p in systems:
        assert p.order.kind == "deglex", p.name
        contexts = [()] + [(g.name,) for g in p.generators]
        for r in p.rules:
            for rhs_word in r.rhs.words():
                for u, v in itertools.product(contexts, repeat=2):
                    samples += 1
                    assert p.order.greater(u + r.lhs + v, u + rhs_word + v, p.parity,
                                           p.precedence), (p.name, u, r.lhs, rhs_word, v)
    assert samples == 17684


def test_migration_orients_every_derived_rule_in_every_one_letter_context():
    # the same property for the -diff systems; a key that counts all
    # crossings in one number fails it (glq2-left: del_a._ turns
    # del_a.b < b.b.c.Dinv.del_a around), so only the step budget stood
    # in for termination there
    samples = 0
    for pid in CALCULUS_PRESETS:
        p = diff_presentation(pid)
        assert p.order.kind == "migration", p.name
        contexts = [()] + [(g.name,) for g in p.generators]
        for r in p.rules:
            for rhs_word in r.rhs.words():
                for u, v in itertools.product(contexts, repeat=2):
                    samples += 1
                    assert p.order.greater(u + r.lhs + v, u + rhs_word + v, p.parity,
                                           p.precedence), (p.name, u, r.lhs, rhs_word, v)
    assert samples == 39924


def test_an_unknown_order_kind_is_an_error():
    with pytest.raises(ValueError, match="unknown order kind 'foo'"):
        TerminationOrder("foo").key(("x",), {"x": 0}, {"x": 0})


def test_migration_orients_degree_raising_rules():
    # del.x -> x.del + x.x.tr : deglex cannot orient, migration(right) can
    gens = [Generator("x", 0), Generator("tr", 1), Generator("del", 1)]
    rhs = el((q(-2), "x.del")) + Element.term(ONE, ("x", "x", "tr"))
    rule = RewriteRule(("del", "x"), rhs, "t")
    mig = Presentation("m", gens, TerminationOrder("migration", "right"), [rule])
    assert validate_presentation(mig).valid
    deg = Presentation("d", gens, TerminationOrder("deglex"), [rule])
    assert not validate_presentation(deg).valid


def test_migration_left_is_the_mirror():
    gens = [Generator("x", 0), Generator("tr", 1), Generator("del", 1)]
    rhs = el((q(2), "del.x")) + Element.term(ONE, ("tr", "x", "x"))
    rule = RewriteRule(("x", "del"), rhs, "t")
    mig = Presentation("m", gens, TerminationOrder("migration", "left"), [rule])
    assert validate_presentation(mig).valid


# -- validation -------------------------------------------------------------------

def test_validate_glq2_clean():
    assert validate_presentation(preset("glq2")).valid


def test_validate_reports_orientation_violation():
    gens = [Generator("x", 0), Generator("y", 0)]
    rule = RewriteRule(("x", "y"), Element.term(q(1), ("y", "x")), "bad")
    p = Presentation("p", gens, TerminationOrder("deglex"), [rule])
    rep = validate_presentation(p)
    assert any(i.kind == "orientation" for i in rep.issues)


def test_validate_reports_parity_violation():
    gens = [Generator("x", 0), Generator("f", 1)]
    rule = RewriteRule(("x", "x"), Element.word("f"), "bad")
    p = Presentation("p", gens, TerminationOrder("deglex"), [rule])
    rep = validate_presentation(p)
    assert any(i.kind == "parity" for i in rep.issues)


@pytest.mark.parametrize("lhs", [(), ("x",)])
def test_short_lhs_builds_is_reported_and_never_matches(lhs):
    gens = [Generator("x", 0), Generator("y", 0)]
    rules = [RewriteRule(lhs, w("y"), "short"), RewriteRule(("y", "x"), w("x.y"), "swap")]
    p = Presentation("short-lhs", gens, TerminationOrder("deglex"), rules)
    assert [(i.rule, i.kind) for i in validate_presentation(p).issues] == [("short", "shape")]
    for word in [("x",), ("y",), ("x", "x"), ("y", "x", "x"), ("x", "y", "x")]:
        m = p.find_redex(word)
        assert m is None or m[1].provenance == "swap", word
        # the witness's own redex scan skips the short rule too
        assert random_strategy_normalize(w(*word), p, seed=1) == normalize(w(*word), p), word
    assert normalize(w("y.x.x"), p) == w("x.x.y")


@pytest.mark.parametrize("gens, tags, issue", [
    ([("x", 0), ("x", 0)], [], ("x", "generator", "duplicate name")),
    ([("x", 0), ("q", 0)], [], ("q", "generator", "name 'q' is reserved")),
    ([("x", 0), ("y", 0)], ["first", "second"],
     ("second", "shape", "duplicate rule LHS")),
])
def test_validate_reports_a_clash(gens, tags, issue):
    # presentations built in code, where the DSL's own checks do not run
    p = Presentation("p", [Generator(*g) for g in gens], TerminationOrder("deglex"),
                     [RewriteRule(("y", "x"), w("x.y"), tag) for tag in tags])
    assert validate_presentation(p).issues == [ValidationIssue(*issue)]


def test_validate_reports_unknown_generator():
    gens = [Generator("x", 0)]
    rule = RewriteRule(("x", "z"), Element.word("x"), "bad")
    p = Presentation("p", gens, TerminationOrder("deglex"), [rule])
    rep = validate_presentation(p)
    assert any(i.kind == "unknown-generator" for i in rep.issues)


# -- confluence --------------------------------------------------------------------

def test_critical_pair_dad_oracle():
    # both branches of d.a.d hand-expand to d.D + q^-1 b.c.d
    p = preset("glq2")
    expected = el((ONE, "d.D"), (q(-1), "b.c.d"))
    rep = check_local_confluence(p)
    dad = [pair for pair in rep.pairs if pair.word == ("d", "a", "d")]
    assert dad
    for pair in dad:
        assert pair.resolved
        assert pair.branch1 == expected


def _all_pairs_reference(p):
    """Critical pairs as (rule1, rule2, word, branch1, branch2), from the
    loop over all ordered pairs of rules with the branches built as
    products of elements."""
    tag = lambda r: r.provenance or ".".join(r.lhs)
    pairs = []
    for r1 in p.rules:
        u = r1.lhs
        for r2 in p.rules:
            v = r2.lhs
            for k in range(1, min(len(u), len(v))):
                if u[-k:] == v[:k]:
                    b1 = normalize(r1.rhs * Element.word(*v[k:]), p)
                    b2 = normalize(Element.word(*u[:-k]) * r2.rhs, p)
                    pairs.append((tag(r1), tag(r2), u + v[k:], b1, b2))
            if r1 is not r2 and len(v) < len(u):
                for i in range(len(u) - len(v) + 1):
                    if u[i:i + len(v)] == v:
                        mid = Element.word(*u[:i]) * r2.rhs * Element.word(*u[i + len(v):])
                        pairs.append((tag(r1), tag(r2), u, normalize(r1.rhs, p),
                                      normalize(mid, p)))
    return pairs


def _short_lhs_presentation(short):
    # the short LHS lies inside every other LHS; an empty one has no first letter
    gens = [Generator(n, 0) for n in "xyz"]
    rules = [RewriteRule(("z", "x", "y"), w("x"), "long"),
             RewriteRule(short, w("z"), "short"),
             RewriteRule(("x", "y"), w("y.x"), "xy"),
             RewriteRule(("y", "x", "z"), w("x.z.y"), "yxz")]
    return Presentation("short-lhs", gens, TerminationOrder("deglex"), rules)


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
CONFLUENCE_SYSTEMS = KERNEL_PIDS + ("wz-plane.preset", "q-line.preset", "one-letter-lhs",
                                    "empty-lhs")


@pytest.mark.parametrize("name", CONFLUENCE_SYSTEMS)
def test_critical_pairs_match_the_all_pairs_reference(name):
    # the first-letter index visits only rules that can overlap or lie
    # inside r1, so it gives the all-pairs list, in its order
    if name.endswith(".preset"):
        p = parse_presentation((EXAMPLES / name).read_text())
    elif name.endswith("-lhs"):
        p = _short_lhs_presentation(("x",) if name == "one-letter-lhs" else ())
    else:
        p = _kernel_presentation(name)
    want = _all_pairs_reference(p)
    got = [tuple(pair) for pair in check_local_confluence(p).pairs]
    assert got == want
    # the hand-made systems reach what no built-in one does: an overlap of
    # two letters, and a LHS inside a longer one
    if name == "shared-prefix":
        assert {("other", "long", tuple("zxyz")), ("long", "short", tuple("xyz")),
                ("other", "short", tuple("zxy"))} <= {pair[:3] for pair in want}
    elif name.endswith("-lhs"):
        # "x" lies once in each other LHS; () at each of their 4 + 3 + 4 gaps
        inside = [pair for pair in want if pair[1] == "short"]
        assert len(inside) == (3 if name == "one-letter-lhs" else 11)


def test_broken_preset_has_unresolved_pair():
    p = preset_without_rule(preset("glq2"), "c.b")
    rep = check_local_confluence(p)
    assert not rep.confluent
    assert any(not pair.resolved and not pair.residual.is_zero
               for pair in rep.pairs)


def test_removing_a_rule_needs_a_rule_with_that_lhs():
    with pytest.raises(KeyError, match="no rule with LHS a.a in glq2"):
        preset_without_rule(preset("glq2"), "a.a")


def test_normal_words_enumeration():
    p = preset("glq2")
    words = list(normal_words(p, 2, alphabet=("b", "c", "a", "d")))
    assert () in words and ("b", "c") in words
    assert ("a", "d") not in words and ("d", "a") not in words
    for word in words:
        assert p.is_normal(word)
