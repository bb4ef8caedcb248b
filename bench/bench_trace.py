"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the modtwist modules from outside the
package: each wrapper replaces the function on its home module and on every
other modtwist module that imported it by name, so calls between layers are
seen as well as the benchmark's own calls.  `src/` is never edited.

Spanned functions record (span id, parent span id, start, end) into flat
arrays kept in memory; self time is a span's duration minus the
durations of its child spans, taken after the run.  Counted functions
(`GroupElement.__mul__`, `hurwitz_move`) only bump a counter, because a span
per call would dominate what they cost.  The tracer records nothing while
`active` is false, so output checks run between ops leave no trace.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# (module, function, record distinct first arguments)
SPANNED = [
    ("psl2", "normal_form", False),
    ("psl2", "classify", True),
    ("psl2", "cutting_conjugator", False),
    ("diagrams", "para_symmetries", False),
    ("diagrams", "recognize", False),
    ("factorization", "exists_2factorization", True),
    ("factorization", "canonical_2factorizations", True),
    ("factorization", "strong_class_labels", True),
    ("factorization", "count_classes", True),
    ("factorization", "factorization_reality", True),
    ("factorization", "decide_strong_equivalence", False),
    ("factorization", "decide_weak_equivalence", False),
    ("necklace", "monodromy", False),
    ("necklace", "pendants", False),
    ("necklace", "enumerate_classes", False),
    ("obstructions", "finite_quotient_test", False),
    ("skeleton", "from_twists", False),
    ("mcurve", "flat_diagram", False),
    ("mcurve", "monodromy_class", False),
    ("mcurve", "classes_sharing_real_part", False),
]

# functions of the factorization layer that take one group element; their
# distinct arguments over their calls bound what a per-element memo can save
ELEMENT_QUERIES = [
    f"factorization.{name}"
    for module, name, distinct in SPANNED
    if module == "factorization" and distinct
]

ENUMERATION_CASES = [
    (k, w, category)
    for k, w in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1))
    for category in ("nonoriented", "oriented")
]


def enumeration_metric(k: int, w: int, category: str) -> str:
    return f"necklace.enumerate_classes.{k}{w}.{category}_s"


class Tracer:
    """Collects spans and counters for the modtwist layers while active."""

    def __init__(self):
        self.active = False
        self._names: list[str] = []
        self._stack: list[tuple[int, int]] = []  # open spans: (span id, name index)
        self._next_id = 1
        # one entry per finished span, appended in finishing order
        self._span_name = array("H")
        self._span_id = array("q")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._distinct: dict[str, set] = defaultdict(set)
        self._case_seconds: dict[str, float] = defaultdict(float)
        self.mul_calls = 0
        self.hurwitz_calls = 0
        self.hurwitz_in_decisions = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions on every modtwist module that holds them."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("modtwist")]
        for module_name, func_name, distinct in SPANNED:
            home = sys.modules[f"modtwist.{module_name}"]
            original = getattr(home, func_name)
            wrapper = self._spanned(f"{module_name}.{func_name}", original, distinct)
            self._replace(modules, original, func_name, wrapper)
        fz = sys.modules["modtwist.factorization"]
        self._replace(modules, fz.hurwitz_move, "hurwitz_move", self._counted_hurwitz(fz.hurwitz_move))
        group = sys.modules["modtwist.psl2"].GroupElement
        self._restore.append((group, "__mul__", group.__mul__))
        group.__mul__ = self._counted_mul(group.__mul__)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _replace(self, modules, original, name, wrapper) -> None:
        for module in modules:
            if getattr(module, name, None) is original:
                self._restore.append((module, name, original))
                setattr(module, name, wrapper)

    # -- wrappers -----------------------------------------------------

    def _spanned(self, name: str, fn, distinct: bool):
        tracer = self
        self._names.append(name)
        name_idx = len(self._names) - 1
        is_enumeration = name == "necklace.enumerate_classes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if distinct:
                tracer._distinct[name].add(args[0])
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, name_idx))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._span_name.append(name_idx)
                tracer._span_id.append(span_id)
                tracer._span_parent.append(parent)
                tracer._span_start.append(start)
                tracer._span_end.append(end)
                if is_enumeration:
                    key = _enumeration_key(args, kwargs)
                    tracer._case_seconds[enumeration_metric(*key)] += end - start

        return wrapper

    def _counted_hurwitz(self, fn):
        tracer = self
        decide_idx = self._names.index("factorization.decide_strong_equivalence")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.hurwitz_calls += 1
                if tracer._stack and tracer._stack[-1][1] == decide_idx:
                    tracer.hurwitz_in_decisions += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_mul(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_, other):
            if tracer.active:
                tracer.mul_calls += 1
            return fn(self_, other)

        return wrapper

    # -- results ------------------------------------------------------

    def span_count(self) -> int:
        return len(self._span_id)

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self seconds, ratios and per-case enumeration times."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        child_s: dict[int, float] = defaultdict(float)
        # spans finish children-first, so a span's children are summed
        # before the span itself is reached
        for name_idx, span_id, parent, start, end in zip(
            self._span_name, self._span_id, self._span_parent, self._span_start, self._span_end
        ):
            duration = end - start
            name = self._names[name_idx]
            calls[name] += 1
            self_s[name] += duration - child_s.pop(span_id, 0.0)
            if parent:
                child_s[parent] += duration
        out: dict[str, float] = {}
        for name in self._names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for k, w, category in ENUMERATION_CASES:
            key = enumeration_metric(k, w, category)
            out[key] = self._case_seconds[key]
        out["psl2.mul.calls"] = self.mul_calls
        out["factorization.hurwitz_move.calls"] = self.hurwitz_calls
        decisions = calls["factorization.decide_strong_equivalence"]
        out["factorization.moves_per_decision"] = (
            self.hurwitz_in_decisions / decisions if decisions else 0.0
        )
        element_calls = sum(calls[name] for name in ELEMENT_QUERIES)
        element_distinct = len(set().union(*(self._distinct[name] for name in ELEMENT_QUERIES)))
        out["factorization.distinct_ratio"] = (
            element_distinct / element_calls if element_calls else 0.0
        )
        classify_calls = calls["psl2.classify"]
        out["psl2.classify.distinct_ratio"] = (
            len(self._distinct["psl2.classify"]) / classify_calls if classify_calls else 0.0
        )
        return out


def _enumeration_key(args, kwargs) -> tuple[int, int, str]:
    names = ("k", "w", "category")
    values = dict(zip(names, args))
    values.update({n: kwargs[n] for n in names if n in kwargs})
    return values["k"], values["w"], values.get("category", "nonoriented")
