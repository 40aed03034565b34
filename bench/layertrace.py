"""Span tracing of qncalc's layers, installed from outside the package.

The tracer wraps the public entry points of each module of
``src/qncalc`` after import and before set-up; nothing under ``src/``
changes.  Two kinds of wrapper share one call stack:

* a *span* wrapper records ``[name, start, end, parent, agg_s]`` for every
  call, where ``parent`` is the index of the enclosing span (-1 at top
  level) and ``agg_s`` the time spent in aggregate-traced calls inside it;
* an *aggregate* wrapper, used for the ``Scalar`` operations of
  ``qfield``, keeps only a call count and a self time per operation,
  because a span per operation would mean 10^5 to 10^6 spans per run.

Self time is a call's duration minus the time its traced children cover.
Bookkeeping that happens after a call's end clock (memo-key and
monomial counting) is charged to neither the call nor its parent; it
shows up only in ``trace.overhead_frac``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

# Scalar operations traced in aggregate; the dunder aliases (__radd__ is
# __add__) are wrapped separately because the class holds both names.
_SCALAR_OPS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
               "__neg__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
               "__pow__", "invert_q", "eval_q1")

# modules whose public functions (their ``__all__``) get a span each
_SPAN_MODULES = ("ncalg", "presentations", "calculus", "rmatrix", "targets",
                 "dsl", "suites")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []            # frames: [span index or None, child seconds]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.agg = {}              # op -> [calls, self seconds]
        self.mul_calls = 0
        self.mul_pairs = set()
        self.monomials = 0
        self.word_nf_calls = 0
        self.critical_pairs = 0
        self.presentations = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn):
        spans, stack = self.spans, self.stack
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), -1)
            rec = [name, 0.0, 0.0, parent, 0.0]
            frame = [len(spans), 0.0]
            spans.append(rec)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[1], rec[2] = t0, t1
                calls[name] += 1
                incl_s[name] += t1 - t0
                self_s[name] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, op, fn, after=None):
        stack, spans = self.stack, self.spans
        rec = self.agg.setdefault(op, [0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[0] += 1
                rec[1] += t1 - t0 - frame[1]
            if after is not None:
                after(args, out)
            if stack:
                parent = stack[-1]
                d = clock() - t0
                parent[1] += d
                if parent[0] is not None:
                    spans[parent[0]][4] += d
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap the layers of the already imported ``qncalc`` package."""
        from qncalc import ncalg, presentations, qfield, suites

        modules = [m for n, m in sys.modules.items()
                   if n == "qncalc" or n.startswith("qncalc.")]

        def rebind(orig, wrapped):
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

        for short in _SPAN_MODULES:
            mod = sys.modules[f"qncalc.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if (callable(fn) and not isinstance(fn, type)
                        and not inspect.isgeneratorfunction(fn)):
                    wrapped = self.span(f"{short}.{attr}", fn)
                    if fn is ncalg.check_local_confluence:
                        wrapped = self._count_pairs(wrapped)
                    rebind(fn, wrapped)

        for name, fn in list(suites.SUITES.items()):
            suites.SUITES[name] = self.span(f"suites.{name}", fn)
        presentations.Morphism.apply = self.span(
            "presentations.Morphism.apply", presentations.Morphism.apply)

        word_nf = ncalg.Presentation.word_normal_form

        def counted_word_nf(p, word, steps):
            self.word_nf_calls += 1
            return word_nf(p, word, steps)

        ncalg.Presentation.word_normal_form = counted_word_nf

        pres_init = ncalg.Presentation.__init__

        def registered_init(p, *args, **kwargs):
            pres_init(p, *args, **kwargs)
            self.presentations.append(p)

        ncalg.Presentation.__init__ = registered_init

        def after_init(args, _):
            s = args[0]                        # c q^k, zero included
            if not any(s._n[:-1]) and not any(s._d[:-1]):
                self.monomials += 1

        def after_mul(args, out):
            if out is not NotImplemented:      # Scalar * Element defers
                self.mul_calls += 1
                self.mul_pairs.add((args[0], args[1]))

        for op in _SCALAR_OPS:
            after = {"__init__": after_init, "__mul__": after_mul,
                     "__rmul__": after_mul}.get(op)
            setattr(qfield.Scalar, op,
                    self.aggregate(op, getattr(qfield.Scalar, op), after))

    def reset(self):
        """Zero every count and time, keeping the wrappers installed (they
        hold references to these containers) and the presentation registry."""
        for rec in self.agg.values():
            rec[0], rec[1] = 0, 0.0
        for container in (self.spans, self.self_s, self.incl_s, self.calls,
                          self.mul_pairs):
            container.clear()
        self.mul_calls = self.monomials = self.word_nf_calls = 0
        self.critical_pairs = 0

    def _count_pairs(self, fn):
        def counted(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.critical_pairs += len(report.pairs)
            return report
        return counted

    # -- results ------------------------------------------------------------------

    def layer_metrics(self, setup_times) -> dict:
        """Per-layer metrics by name (``trace.overhead_frac`` comes from the
        parent, which sees the untraced runs too)."""
        from qncalc.suites import SUITE_NAMES

        def self_of(prefix):
            return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

        scalars = self.agg["__init__"][0]
        qfield_self = sum(r[1] for r in self.agg.values())
        out = {
            "qfield.scalars": scalars,
            "qfield.self_s": qfield_self,
            "qfield.us_per_scalar": qfield_self / max(scalars, 1) * 1e6,
            "qfield.monomial_frac": self.monomials / max(scalars, 1),
            "qfield.mul_calls": self.mul_calls,
            "qfield.mul_distinct_frac": len(self.mul_pairs) / max(self.mul_calls, 1),
            "ncalg.normalize_calls": self.calls["ncalg.normalize"],
            "ncalg.normalize_self_s": self.self_s["ncalg.normalize"],
            "ncalg.word_nf_calls": self.word_nf_calls,
            "ncalg.nf_memo_entries": sum(len(p._nf_cache)
                                         for p in self.presentations),
            "ncalg.critical_pairs": self.critical_pairs,
            "ncalg.confluence_self_s": self.self_s["ncalg.check_local_confluence"],
            "ncalg.witness_self_s": self.self_s["ncalg.random_strategy_normalize"],
            "calculus.apply_delta_calls": self.calls["calculus.apply_delta"],
            "calculus.apply_delta_self_s": self.self_s["calculus.apply_delta"],
            "calculus.apply_delta_s": self.incl_s["calculus.apply_delta"],
            "calculus.vector_field_self_s":
                self.self_s["calculus.check_vector_algebra"]
                + self.self_s["calculus.vector_field_components"],
            "calculus.derive_s": setup_times["derive_s"],
            "presentations.preset_s": setup_times["preset_s"],
            "presentations.morphism_self_s":
                self.self_s["presentations.Morphism.apply"],
            "rmatrix.self_s": self_of("rmatrix."),
            "targets.self_s": self_of("targets."),
            "dsl.parse_calls": self.calls["dsl.parse_expression"],
            "dsl.parse_self_s": self.self_s["dsl.parse_expression"],
        }
        for name in SUITE_NAMES:
            out[f"suites.{name}_s"] = self.incl_s[f"suites.{name}"]
        return out

    def write_spans(self, path):
        """Write every span as ``[name, start, end, parent, agg_s]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
