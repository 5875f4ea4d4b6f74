"""Span tracer laid over the mahonian modules at run time.

The tracer replaces each traced public function under every name a mahonian
module binds it to (``oracle.graphical_inversions``, ``cli.distribution``,
``relations.to_ordered_bipartition`` and so on), so calls between layers
pass through it.  No source file is edited; ``uninstall`` puts every
original object back.

Two kinds of wrapper:

* span functions record one span per call: name, start, end, parent;
* kernel functions (the per-word statistics, enumeration steps and small
  relation helpers) are folded into a call count and total time on the
  span that is open when they run, so memory stays bounded however many
  words a pass scores.  Generator functions are timed per ``next``.

Wrapped calls made inside a kernel pass straight through and are charged to
that kernel.  A name that is missing from the library is skipped.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("words", "relations", "statistics", "qseries", "bcode", "oracle", "cli")

SPAN_FUNCTIONS = {
    "relations": ("is_essentially_bipartitional", "satisfies_sorting_conditions"),
    "statistics": ("maximal_chain_word",),
    "qseries": ("gf_bipartitional", "gf_sorting"),
    "bcode": ("bcode_encode", "bcode_decode", "validate_code", "code_count"),
    "oracle": ("distribution", "equidistributed", "verify_theorem1", "verify_theorem2"),
    "cli": ("run_cli",),
}

KERNEL_FUNCTIONS = {
    "words": (
        "make_word", "class_size", "rearrangement_class", "rearrangement_class_range",
        "unrank_word", "parse_letters", "render_letters", "infer_alpha",
    ),
    "relations": (
        "natural_order", "full_relation", "complement", "is_transitive",
        "is_bipartitional", "from_ordered_bipartition", "to_ordered_bipartition",
        "decompose", "effective_core", "relation_from_json_dict",
        "relation_from_text",
    ),
    "statistics": (
        "graphical_inversions", "graphical_descent_set", "graphical_descent_count",
        "graphical_major_index", "graphical_sorting_index", "graphical_sorting_trace",
        "replay_trace",
    ),
    "qseries": ("q_binomial", "q_multinomial", "box_partition_counts", "multinomial"),
    "bcode": ("enumerate_codes",),
    "oracle": ("relation_from_mask", "relation_to_mask", "relation_universe"),
}

INV = "statistics.graphical_inversions"
MAJ = "statistics.graphical_major_index"
# The sorting index is keyed by tie rule, so each rule gets its own counter.
SORT_INDEX = "statistics.graphical_sorting_index"

# Spans that keep a size taken from their result.
RESULT_SIZE = {
    "oracle.verify_theorem1": lambda report: report.relation_count,
    "oracle.verify_theorem2": lambda report: report.relation_count,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "calls", "size")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.calls = None  # kernel name -> [count, seconds]
        self.size = None


class Tracer:
    """Holds the spans of one traced run and the patches that feed them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root_calls: dict[str, list] = {}
        self._stack: list[Span] = []
        self._in_kernel = 0
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # ------------------------------------------------------------ recording

    def _charge(self, key: str, seconds: float, count: int = 1) -> None:
        if self._stack:
            span = self._stack[-1]
            if span.calls is None:
                span.calls = {}
            calls = span.calls
        else:
            calls = self.root_calls
        entry = calls.get(key)
        if entry is None:
            calls[key] = [count, seconds]
        else:
            entry[0] += count
            entry[1] += seconds

    def _span_wrapper(self, name, fn):
        size_of = RESULT_SIZE.get(name)

        def traced(*args, **kwargs):
            if self._in_kernel:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if size_of is not None:
                span.size = size_of(result)
            return result

        return traced

    def _kernel_wrapper(self, name, fn, key_of):
        def traced(*args, **kwargs):
            if self._in_kernel:
                return fn(*args, **kwargs)
            self._in_kernel += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_kernel -= 1
                self._charge(key_of(args, kwargs) if key_of else name, elapsed)

        return traced

    def _generator_wrapper(self, name, fn):
        tracer = self

        class TimedIterator:
            __slots__ = ("inner",)

            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                if tracer._in_kernel:
                    return next(self.inner)
                tracer._in_kernel += 1
                start = time.perf_counter()
                yielded = 0
                try:
                    item = next(self.inner)
                    yielded = 1
                    return item
                finally:
                    elapsed = time.perf_counter() - start
                    tracer._in_kernel -= 1
                    tracer._charge(name, elapsed, yielded)

        def traced(*args, **kwargs):
            return TimedIterator(fn(*args, **kwargs))

        return traced

    # -------------------------------------------------------------- patching

    def install(self) -> list[str]:
        """Wrap every traced function under every name bound to it; returns
        the traced names found."""
        modules = {"": importlib.import_module("mahonian")}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"mahonian.{layer}")
            except ModuleNotFoundError:
                continue
        default_rule = getattr(
            modules.get("statistics"), "DEFAULT_TIE_RULE", "copy-label-max"
        )

        def sort_key(args, kwargs):
            rule = args[2] if len(args) > 2 else kwargs.get("tie_rule", default_rule)
            return f"{SORT_INDEX}[{rule}]"

        wrappers = {}
        for kind, table in (("span", SPAN_FUNCTIONS), ("kernel", KERNEL_FUNCTIONS)):
            for layer, names in table.items():
                module = modules.get(layer)
                for attr in names:
                    fn = getattr(module, attr, None)
                    if not callable(fn):
                        continue
                    name = f"{layer}.{attr}"
                    if kind == "span":
                        wrappers[id(fn)] = (fn, self._span_wrapper(name, fn))
                    elif inspect.isgeneratorfunction(fn):
                        wrappers[id(fn)] = (fn, self._generator_wrapper(name, fn))
                    else:
                        key_of = sort_key if name == SORT_INDEX else None
                        wrappers[id(fn)] = (fn, self._kernel_wrapper(name, fn, key_of))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, found[1])
        self.origin = time.perf_counter()
        return sorted({f"{m.__name__}.{a}" for m, a, _ in self._patches})

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # --------------------------------------------------------------- output

    def write(self, path: str) -> None:
        """Write every span as [name, start, end, parent index, calls, size],
        times in seconds from installation."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [
                span.name,
                round(span.start - self.origin, 7),
                round(span.end - self.origin, 7),
                index[id(span.parent)] if span.parent is not None else -1,
                span.calls or {},
                span.size,
            ]
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows, "root_calls": self.root_calls}, handle)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer figures of the traced passes: counts per pass, mean
    microseconds per call, self times per pass."""
    by_span: dict[str, list[Span]] = {}
    child_time: dict[int, float] = {}
    kernel_count: dict[str, int] = {}
    kernel_time: dict[str, float] = {}
    for calls in [tracer.root_calls] + [s.calls for s in tracer.spans if s.calls]:
        for key, (count, seconds) in calls.items():
            kernel_count[key] = kernel_count.get(key, 0) + count
            kernel_time[key] = kernel_time.get(key, 0.0) + seconds
    for span in tracer.spans:
        by_span.setdefault(span.name, []).append(span)
        if span.parent is not None:
            pid = id(span.parent)
            child_time[pid] = child_time.get(pid, 0.0) + span.end - span.start

    def self_time(span: Span) -> float:
        own = span.end - span.start - child_time.get(id(span), 0.0)
        if span.calls:
            own -= sum(seconds for _, seconds in span.calls.values())
        return own

    def spans_of(*names):
        return [s for name in names for s in by_span.get(name, ())]

    def mean_us(total_seconds, count):
        return 1e6 * total_seconds / count if count else 0.0

    def kernel_us(*keys):
        return mean_us(
            sum(kernel_time.get(k, 0.0) for k in keys),
            sum(kernel_count.get(k, 0) for k in keys),
        )

    def calls_under(spans, key):
        # kernel calls charged to these spans or to spans they opened
        chosen = {id(s) for s in spans}
        total = 0
        for span in tracer.spans:
            node = span
            while node is not None and id(node) not in chosen:
                node = node.parent
            if node is not None and span.calls:
                total += span.calls.get(key, [0])[0]
        return total

    def per_pass(value):
        return value / passes

    rules = ("copy-label-max", "leftmost", "rightmost")
    sort_keys = [f"{SORT_INDEX}[{rule}]" for rule in rules]
    essential = spans_of("relations.is_essentially_bipartitional")
    sorting = spans_of("relations.satisfies_sorting_conditions")
    codec = spans_of("bcode.bcode_encode", "bcode.bcode_decode")
    codec_ids = {id(s) for s in codec}
    gf = spans_of("qseries.gf_bipartitional", "qseries.gf_sorting")
    sweeps = spans_of("oracle.verify_theorem1", "oracle.verify_theorem2")
    swept = sum(s.size or 0 for s in sweeps)
    stat_keys = [INV, MAJ] + sort_keys
    enumerated = kernel_count.get("words.rearrangement_class", 0)

    def mean_self_us(spans):
        return mean_us(sum(self_time(s) for s in spans), len(spans))

    def mean_span_us(spans):
        return mean_us(sum(s.end - s.start for s in spans), len(spans))

    return {
        "words.enumerate_us_per_word": kernel_us("words.rearrangement_class"),
        "words.enumerated": per_pass(enumerated),
        "words.make_word_us": kernel_us("words.make_word"),
        "statistics.inv_us": kernel_us(INV),
        "statistics.inv_calls": per_pass(kernel_count.get(INV, 0)),
        "statistics.maj_us": kernel_us(MAJ),
        "statistics.maj_calls": per_pass(kernel_count.get(MAJ, 0)),
        **{
            f"statistics.sor_{rule}_us": kernel_us(key)
            for rule, key in zip(rules, sort_keys)
        },
        "statistics.sor_calls": per_pass(sum(kernel_count.get(k, 0) for k in sort_keys)),
        "statistics.trace_us": kernel_us("statistics.graphical_sorting_trace"),
        "relations.from_mask_us": kernel_us("oracle.relation_from_mask"),
        "relations.essential_us": mean_span_us(essential),
        "relations.essential_attempts_per_call": (
            calls_under(essential, "relations.to_ordered_bipartition") / len(essential)
            if essential else 0.0
        ),
        "relations.sorting_conditions_us": mean_span_us(sorting),
        "relations.sorting_conditions_calls_per_bcode_call": (
            sum(1 for s in sorting if _has_ancestor(s, codec_ids)) / len(codec)
            if codec else 0.0
        ),
        "qseries.gf_us": mean_span_us(gf),
        "qseries.gf_calls": per_pass(len(gf)),
        "bcode.encode_self_us": mean_self_us(spans_of("bcode.bcode_encode")),
        "bcode.decode_self_us": mean_self_us(spans_of("bcode.bcode_decode")),
        "oracle.distribution_self_s": per_pass(
            sum(self_time(s) for s in spans_of("oracle.distribution"))
        ),
        "oracle.sweep_self_s": per_pass(sum(self_time(s) for s in sweeps)),
        "oracle.stat_calls_per_relation": (
            sum(calls_under(sweeps, key) for key in stat_keys) / swept if swept else 0.0
        ),
        "cli.self_us": mean_self_us(spans_of("cli.run_cli")),
    }


def _has_ancestor(span: Span, chosen: set[int]) -> bool:
    node = span.parent
    while node is not None:
        if id(node) in chosen:
            return True
        node = node.parent
    return False
