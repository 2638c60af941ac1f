"""Spans and counters for the traced run.

A span is (name, start, end, parent, op): the layer it times, its bounds on
the runner's work clock (perf_counter less the reference sampler's time),
the index of the span that encloses it (-1 for none)
and the id of the benchmark operation it belongs to.  Spans are kept in
memory and written once, when the workload ends.  They are opened only while
an operation is being timed, so the benchmark's own correctness checks never
show in them.

The benchmark opens some spans itself (around category builds and the
rendering of values).  The rest come from wrappers that `install_hooks` puts
on public fsind functions and methods, so that a call one public function
makes into another (frobenius_check into nu_brute, parse_family_spec into the
FiniteGroup constructor) gets its own span.  The one private name hooked is
FiniteGroup._check_axioms; if it is renamed, group-check time folds into
groups.table.
"""

from __future__ import annotations

import bisect
import functools
import json
import statistics
import sys
from time import perf_counter

LAYER_TIMES = (
    "groups.table",
    "groups.check",
    "extensions.build",
    "cocycles.verify",
    "cocycles.c_omega",
    "indicators.nu",
    "indicators.frobenius",
    "cyclotomic.gauss",
    "cyclotomic.divisibility",
    "cyclotomic.render",
)
LAYER_COUNTS = (
    ("groups.table_entries", "entries"),
    ("cocycles.verify_cases", "cases"),
    ("indicators.values", "values"),
)

# (module, function, span): module-level functions, wrapped in every fsind
# module namespace that binds them, so calls between modules are seen too
FUNCTION_HOOKS = (
    ("fsind.cocycles", "verify_cocycle", "cocycles.verify"),
    ("fsind.cocycles", "c_omega", "cocycles.c_omega"),
    ("fsind.indicators", "nu_brute", "indicators.nu"),
    ("fsind.indicators", "frobenius_check", "indicators.frobenius"),
    ("fsind.cyclotomic", "gauss_sum_direct", "cyclotomic.gauss"),
    ("fsind.cyclotomic", "gauss_sum_closed", "cyclotomic.gauss"),
    ("fsind.cyclotomic", "is_divisible_by_integer", "cyclotomic.divisibility"),
    ("fsind.cyclotomic", "divide_by_sqrt_p_and_test", "cyclotomic.divisibility"),
)
# (module, class, method, span)
METHOD_HOOKS = (
    ("fsind.groups", "FiniteGroup", "__init__", "groups.table"),
    ("fsind.groups", "FiniteGroup", "_check_axioms", "groups.check"),
    ("fsind.cyclotomic", "CyclotomicInteger", "is_divisible_by_integer", "cyclotomic.divisibility"),
    ("fsind.cyclotomic", "CyclotomicInteger", "render_text", "cyclotomic.render"),
    ("fsind.cyclotomic", "CyclotomicInteger", "to_json_dict", "cyclotomic.render"),
)


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """The untraced run: spans and counts cost one call and record nothing."""

    op = None

    def span(self, name):
        return _NO_SPAN

    def add(self, counter, amount):
        pass


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        stack = t.stack
        self.index = len(t.spans)
        t.spans.append((self.name, t.clock(), None, stack[-1] if stack else -1, t.op))
        stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.stack.pop()
        name, start, _, parent, op = t.spans[self.index]
        t.spans[self.index] = (name, start, t.clock(), parent, op)
        return False


class Tracer:
    """Records spans and counts while an operation is being timed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: list[tuple[int, str, int]] = []  # (op, counter, amount)
        self.op = None  # id of the operation being timed, None outside one
        self.clock = perf_counter  # the runner swaps in a clock without its sampling time

    def span(self, name):
        if self.op is None:
            return _NO_SPAN
        return _Span(self, name)

    def add(self, counter, amount):
        if self.op is not None:
            self.counts.append((self.op, counter, amount))

    def layer_metrics(self, round_ends):
        """Per-layer self time (a span's duration minus its direct children's)
        and counts, each the median over rounds of its total in one round.
        round_ends[i] is the id of the last operation of round i."""
        totals = [{} for _ in round_ends]

        def tally(op, key, amount):
            per_round = totals[bisect.bisect_left(round_ends, op)]
            per_round[key] = per_round.get(key, 0) + amount

        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, op) in enumerate(self.spans):
            tally(op, name, (end - start) - child[i])
        for op, counter, amount in self.counts:
            tally(op, counter, amount)
        metrics = {}
        for name in LAYER_TIMES:
            value = statistics.median(t.get(name, 0.0) for t in totals)
            metrics[f"{name}_s"] = {"value": value, "unit": "s"}
        for name, unit in LAYER_COUNTS:
            value = statistics.median(t.get(name, 0) for t in totals)
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    def write(self, path, summary):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _counting(tracer, name, after):
    """A wrapper factory that times calls as span `name` inside operations."""

    def wrap(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            with _Span(tracer, name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    return wrap


def install_hooks(tracer):
    """Wrap the public fsind entry points named above with spans."""
    import fsind.groups

    dense_bound = getattr(fsind.groups, "DENSE_BOUND", None)

    def table_entries(args, result):
        order = args[0].order
        if dense_bound is None or order <= dense_bound:
            tracer.add("groups.table_entries", order * order)

    def verify_cases(args, result):
        tracer.add("cocycles.verify_cases", getattr(result, "checked", 0))

    after = {"groups.table": table_entries, "cocycles.verify": verify_cases}
    modules = [m for k, m in list(sys.modules.items()) if k == "fsind" or k.startswith("fsind.")]
    for mod_name, attr, name in FUNCTION_HOOKS:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            continue
        wrapped = _counting(tracer, name, after.get(name))(original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
    for mod_name, cls_name, attr, name in METHOD_HOOKS:
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        original = getattr(cls, attr, None)
        if original is None:
            continue
        setattr(cls, attr, _counting(tracer, name, after.get(name))(original))
