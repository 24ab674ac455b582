"""Tracing for the benchmark's traced run, installed from outside `src/`.

`install` wraps public lsalgo names in every module namespace that binds
them, so a call is traced however its caller resolved the name (the CLI's
`from .solver import solve` binding as well as `lsalgo.solver.solve`).  Two
kinds of wrapper exist:

  * a span records (id, parent id, name, start ns, end ns) for coarse layer
    boundaries; self time is a span's duration minus that of its child spans;
  * a counter records only calls and total ns, for functions called too often
    to keep one span per call (polynomial products, exact divisions,
    determinants).  A counter is not a span, so its time stays inside the
    self time of the enclosing span.

A name that the program no longer defines is skipped: its metrics read zero.
Only public names are touched; operand sizes are read through the public
`support()` and `items()` of `HalfLaurent`.

In a traced pass each operation's process installs a fresh tracer before it
calls `main`, so every operation starts with empty records.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, public name) pairs traced as spans
SPANS = (
    ("cli", "main"),
    ("blockdata", "build_springer_block_a"),
    ("blockdata", "dominance_covers"),
    ("blockdata", "validate_dataset"),
    ("blockdata", "load_dataset"),
    ("blockdata", "save_dataset"),
    ("weyl", "char_table_sn"),
    ("weyl", "coinvariant_pairing"),
    ("weyl", "class_pair_series"),
    ("weyl", "degrees_product"),
    ("laurent", "rational_series"),
    ("exthom", "graded_hom_dims"),
    ("solver", "solve"),
    ("solver", "reconstruct"),
    ("solver", "dualize_p"),
    ("solver", "extension_invariance_check"),
    ("oracle", "kostka_foulkes"),
    ("oracle", "ssyt_enumerate"),
)

# (module, public name) pairs traced as counters
COUNTERS = (
    ("laurent", "exact_div"),
    ("solver", "bareiss_det"),
)

_perf_ns = time.perf_counter_ns


def _terms(x) -> int:
    if isinstance(x, int):
        return 1 if x else 0
    try:
        return len(x.support())
    except AttributeError:
        return 0


def _coeff_bits(x) -> int:
    try:
        return max((abs(c).bit_length() for _, c in x.items()), default=0)
    except AttributeError:
        return 0


class Tracer:
    """Spans and counters of one operation, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.counters: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; `after(result, counter)` may add to the span's
        counter once the call returns."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = _perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf_ns()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(result, self.counters.setdefault(name, {}))
            return result

        return wrapper

    def count(self, name: str, fn):
        counter = self.counters.setdefault(name, {"calls": 0, "ns": 0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _perf_ns()
            result = fn(*args, **kwargs)
            counter["ns"] += _perf_ns() - start
            counter["calls"] += 1
            return result

        return wrapper

    def count_mul(self, fn):
        """Counter for HalfLaurent products with operand and result sizes:
        coeff_ops sums |a|*|b| over products, max_terms is the largest
        operand or result, max_bits the largest result coefficient."""
        counter = self.counters.setdefault(
            "laurent.mul", {"calls": 0, "ns": 0, "coeff_ops": 0, "max_terms": 0, "max_bits": 0})

        @functools.wraps(fn)
        def wrapper(a, b):
            start = _perf_ns()
            out = fn(a, b)
            counter["ns"] += _perf_ns() - start
            if out is NotImplemented:
                return out
            counter["calls"] += 1
            ta, tb, to = _terms(a), _terms(b), _terms(out)
            counter["coeff_ops"] += ta * tb
            counter["max_terms"] = max(counter["max_terms"], ta, tb, to)
            counter["max_bits"] = max(counter["max_bits"], _coeff_bits(out))
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "lsalgo" or key.startswith("lsalgo.")]

        def rebind(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for module_name, name in SPANS + COUNTERS:
            try:
                module = importlib.import_module(f"lsalgo.{module_name}")
            except ImportError:
                continue
            original = getattr(module, name, None)
            if original is None:
                continue
            label = f"{module_name}.{name}"
            if (module_name, name) in COUNTERS:
                rebind(original, self.count(label, original))
            elif name == "ssyt_enumerate":
                rebind(original, self.span(label, original, after=_count_tableaux))
            else:
                rebind(original, self.span(label, original))

        laurent = importlib.import_module("lsalgo.laurent")
        poly = getattr(laurent, "HalfLaurent", None)
        if poly is not None:
            mul = poly.__mul__
            wrapped = self.count_mul(mul)
            poly.__mul__ = wrapped
            poly.__rmul__ = wrapped if poly.__rmul__ is mul else self.count_mul(poly.__rmul__)
        rational = getattr(laurent, "RationalHL", None)
        if rational is not None:
            rational.__init__ = self.count("laurent.rational_hl", rational.__init__)

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counters": self.counters}


def _count_tableaux(result, counter: dict[str, int]) -> None:
    counter["tableaux"] = counter.get("tableaux", 0) + len(result)


def summarize(dumps: list[dict]) -> dict[str, dict[str, int]]:
    """Totals over the given operations' dumps, per span or counter name:
    calls, ns (inclusive) and, for spans, self_ns; every other counter field
    is summed, except fields named max_*, which keep the largest value."""
    out: dict[str, dict[str, int]] = {}
    for dump in dumps:
        spans = dump["spans"]
        child_ns: dict[int, int] = {}
        for _sid, parent, _name, start, end in spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        for sid, _parent, name, start, end in spans:
            entry = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += end - start - child_ns.get(sid, 0)
        for name, fields in dump["counters"].items():
            entry = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            for key, value in fields.items():
                if key.startswith("max_"):
                    entry[key] = max(entry.get(key, 0), value)
                else:
                    entry[key] = entry.get(key, 0) + value
    return out
