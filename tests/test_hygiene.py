"""Module hygiene, checked on the source with ``ast`` (no linter is
assumed): every ``__all__`` name exists, no module but the package's
``__init__`` imports a name it never uses, every function and class is
used somewhere, the engine layers import nothing from ``reports`` or
``targets``, the one function-level import of the package is the one that
breaks the dsl cycle, one loop merges scaled terms into word ->
coefficient dicts, no family of identities is judged by ``Check.of``, and
no calculus function takes a calculus beside the presentation that
declares it, and where the forms sit, what a rule is called in messages
and how an element is oriented on its largest word are each decided in
one place."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qncalc"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists(name):
    # the benchmark's layer trace calls getattr on each of them
    mod = importlib.import_module("qncalc" if name == "__init__" else f"qncalc.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


@pytest.mark.parametrize("name", [n for n in MODULES if n != "__init__"])
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {n: line for n, line in imported.items() if n not in used} == {}


def _names_used(path: Path) -> set:
    """Every name ``path`` reads, every attribute it takes and every name
    it imports."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update((node.name.split(".")[-1], node.asname))
    return used


def test_every_definition_is_used():
    # a function, method or class that nothing names is dead code; the
    # dunder methods are called by Python itself
    root = SRC.parent.parent
    used = set().union(*(_names_used(path) for top in ("src", "tests", "demos", "bench")
                         for path in (root / top).rglob("*.py")))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("__") and node.name not in used):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


# the engine layers, everything ``import qncalc`` loads, know nothing of
# reports or of the printed-equation judges; the suites and targets turn
# their results into report lines
@pytest.mark.parametrize("name", ["qfield", "ncalg", "rmatrix", "presentations",
                                  "calculus", "dsl"])
def test_kernel_layers_do_not_import_reports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert [m for m in imported if {"reports", "targets"} & set(m.split("."))] == []


def test_the_one_function_level_import_breaks_the_dsl_cycle():
    # a module-level import shows a layer's dependencies; presentations.preset
    # alone imports at call time, since dsl imports presentations for ``extends``
    late = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                late += [(path.stem, fn.name, node.module, [a.name for a in node.names])
                         for node in ast.walk(fn) if isinstance(node, ast.ImportFrom)
                         and (node.level or (node.module or "").startswith("qncalc"))]
    assert late == [("presentations", "preset", "dsl", ["parse_presentation"])]


def test_the_witness_shares_no_code_with_the_cached_normalizer():
    # random_strategy_normalize, and the redex scan it calls, stand as an
    # independent witness only while they reach none of the cached
    # leftmost normalizer's code or state
    tree = ast.parse((SRC / "ncalg.py").read_text(encoding="utf-8"))
    cached = {"_redex", "find_redex", "_index", "_fill", "word_normal_form", "_nf_cache",
              "_stable_cache", "normalize", "add_scaled"}
    named = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and node.name in ("random_strategy_normalize", "all_redexes")):
            named[node.name] = cached & (
                {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})
    assert named == {"random_strategy_normalize": set(), "all_redexes": set()}


def test_one_merge_loop_drops_zero_coefficients():
    # add_scaled is the one accumulator of word -> coefficient dicts; the
    # witness keeps its own loop.  A function that both tests a sum's
    # is_zero and removes a dict entry is a new copy of that loop.
    merges = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            nodes = list(ast.walk(fn))
            tests_zero = any(isinstance(n, ast.Attribute) and n.attr == "is_zero"
                             for n in nodes)
            removes = any(isinstance(n, ast.Delete) or (
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "pop") for n in nodes)
            if tests_zero and removes:
                merges.append(f"{path.stem}.{fn.name}")
    assert merges == ["ncalg.add_scaled", "ncalg.random_strategy_normalize"]


def _folds(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("all", "any"))


def test_no_family_is_judged_by_check_of():
    # Check.vanish judges a family of identities and names its first
    # failing entry; a Check.of over all(...) or any(...), directly or
    # through a name bound in the same function, names none
    judged = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            nodes = list(ast.walk(fn))
            folded = {t.id for n in nodes if isinstance(n, ast.Assign) and _folds(n.value)
                      for t in n.targets if isinstance(t, ast.Name)}
            for n in nodes:
                if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "of" and isinstance(n.func.value, ast.Name)
                        and n.func.value.id == "Check" and n.args
                        and (_folds(n.args[0]) or (isinstance(n.args[0], ast.Name)
                                                   and n.args[0].id in folded))):
                    judged.add(f"{path.stem}.{fn.name}")
    assert sorted(judged) == []


def test_the_calculus_is_read_from_the_presentation():
    # a calculus function takes the presentation and reads p.calculus; a
    # separate calculus argument could disagree with it
    tree = ast.parse((SRC / "calculus.py").read_text(encoding="utf-8"))
    both = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and {"d", "p"} <= {a.arg for a in fn.args.args + fn.args.kwonlyargs}]
    assert both == []


def _placed(path: Path):
    """(module.Class.function that encloses it, node) for every node of
    ``path``; a def or class is placed inside itself."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            scope = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            inner = f"{where}.{child.name}" if scope else where
            yield inner, child
            yield from walk(child, inner)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def _stores(node) -> set:
    """The names and attributes an assignment statement binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
        targets = [node.target]
    else:
        return set()
    return {n.id if isinstance(n, ast.Name) else n.attr for t in targets
            for n in ast.walk(t) if isinstance(n, (ast.Name, ast.Attribute))}


def test_where_the_forms_sit_and_a_rules_tag_are_decided_once():
    # Presentation.__init__ derives form_position from the calculus or the
    # migration order, and RewriteRule.tag names a rule; a keyword that
    # passes form_position or tags, another assignment of form_position or
    # another "provenance or ..." is a second copy of one of them
    passed, assigned, tagged = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        for where, node in _placed(path):
            if isinstance(node, ast.keyword) and node.arg in ("form_position", "tags"):
                passed.append(f"{where}: {node.arg}=")
            if "form_position" in _stores(node):
                assigned.add(where)
            if (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
                    and isinstance(node.values[0], ast.Attribute)
                    and node.values[0].attr == "provenance"):
                tagged.add(where)
    assert passed == []
    assert assigned == {"ncalg.Presentation.__init__"}
    assert tagged == {"ncalg.RewriteRule.tag"}


def _keyed_by_an_order(node) -> bool:
    """Whether ``node`` is a ``max(...)`` whose ``key`` calls ``.key(``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "max"
            and any(k.arg == "key" and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "key" for n in ast.walk(k.value)) for k in node.keywords))


def test_orientation_on_the_largest_word_is_written_once():
    # ncalg.orient turns elements into rules on their largest words in an
    # order; a max keyed by an order's key elsewhere is a second copy of it
    root = SRC.parent.parent
    paths = sorted(SRC.glob("*.py")) + sorted((root / "tests").rglob("*.py"))
    assert {where for path in paths for where, node in _placed(path)
            if _keyed_by_an_order(node)} == {"ncalg.orient"}
