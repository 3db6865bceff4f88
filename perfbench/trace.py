"""Outside-in tracing of rkcodes: wrap public names, record spans and counts.

The library has no instrumentation of its own, so the traced run replaces
functions and methods with wrappers at every place a caller looks them up
(each ``rkcodes.*`` module attribute that is the original object, or the
class attribute for methods), and puts the originals back afterwards.

Hot, tiny functions (ring multiplication, Gray images of one element, one
row added to an F2 span) only count calls: a span per call would cost more
than the call.  Coarser functions record a span each: name, start, end,
parent span and run id (the pass index).  Spans stay in memory and are
written out once, at the end of the run.  Span times are plain
perf_counter readings, so they include the speed probes of
perfbench/calibrate.py (2-5%) and are not scaled.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from rkcodes import analysis, codes, gf2, graymap, polyqt, ring
from rkcodes.codes import BudgetError

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "run_id")


class Tracer:
    """Spans and counters for one traced run; patches rkcodes while attached."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # SPAN_FIELDS[1:], indexed by id
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._open: Counter = Counter()  # span name -> open spans of that name
        self._search_bases: set = set()  # (run_id, basis) met inside search chunks
        self._pass_codes: set = set()  # (run_id, QTCode) given to code_span
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """Wrap fn in a span; hook(args, result, exc) runs after the span closes."""
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            open_[name] += 1
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                open_[name] -= 1
                spans[idx] = (name, start, end, parent, self.run_id)
                if hook is not None:
                    hook(args, result, exc)

        return wrapper

    def counted(self, name: str, fn: Callable, amount: Callable | None = None) -> Callable:
        counts = self.counts
        if amount is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += amount(*args, **kwargs)
                return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Replace original under every rkcodes module attribute bound to it."""
        for mod_name in sorted(sys.modules):
            if mod_name != "rkcodes" and not mod_name.startswith("rkcodes."):
                continue
            module = sys.modules[mod_name]
            for attr in [a for a, v in vars(module).items() if v is original]:
                self._patched.append((module, attr, original))
                setattr(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, wrap(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def attached(self) -> Iterator["Tracer"]:
        install(self)
        try:
            yield self
        finally:
            self.restore()

    # -- hooks used by install() ---------------------------------------------

    def _in_search_chunk(self) -> bool:
        return self._open["search.evaluate_chunk"] > 0

    def _on_chunk(self, args, result, exc) -> None:
        tuples = args[0].get("tuples", ())
        self.counts["search.generated"] += len(tuples)
        self.counts["search.zero_tuples"] += sum(1 for t in tuples if not any(t))

    def _on_orbit(self, args, result, exc) -> None:
        if result is not None and result[0] != result[1]:
            self.counts["search.orbit_dropped"] += 1

    def _on_code_span(self, args, result, exc) -> None:
        if result is None:
            return
        self._pass_codes.add((self.run_id, args[0]))
        if self._in_search_chunk():
            self._search_bases.add((self.run_id, result.basis))

    def _on_budget_point(self, args, result, exc) -> None:
        if isinstance(exc, BudgetError) and self._in_search_chunk():
            self.counts["search.budget_skipped"] += 1

    def _on_min_distance(self, args, result, exc) -> None:
        self._on_budget_point(args, result, exc)
        if exc is None and self._in_search_chunk():
            self.counts["search.evaluated"] += 1

    # -- results ------------------------------------------------------------

    def span_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Spans of one thread nest without overlap, so the time a span's
        children cover is the sum of their durations.
        """
        spans = [s for s in self.spans if s is not None]
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _ = span
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered[idx]
        return out

    def finalize_seconds(self) -> float:
        """Time in code_record calls made directly by search (its last stage)."""
        total = 0.0
        for span in self.spans:
            if span is None or span[0] != "codes.code_record" or span[3] < 0:
                continue
            if self.spans[span[3]][0] == "analysis.search":
                total += span[2] - span[1]
        return total

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics, keyed as in BENCHMARK.json."""
        t = self.span_times()
        c = self.counts

        def total(name: str) -> float:
            return t.get(name, {}).get("total_s", 0.0)

        def self_s(name: str) -> float:
            return t.get(name, {}).get("self_s", 0.0)

        def calls(name: str) -> int:
            return int(t.get(name, {}).get("calls", 0))

        weight_counts_s = total("codes.min_distance") + total("codes.weight_enumerator")
        hom_enum_s = self_s("codes.hom_weight_enumerator")
        bound_check_s = self_s("analysis.bound_check")
        enum_s = weight_counts_s + hom_enum_s + bound_check_s
        evaluated = c["search.evaluated"]
        distinct_codes = len(self._pass_codes)
        return {
            "ring.mul_calls": c["ring.mul_calls"],
            "graymap.element_image_calls": c["graymap.element_image_calls"],
            "gf2.span_add_calls": c["gf2.span_add_calls"],
            "gf2.words_enumerated": c["gf2.words_enumerated"],
            "polyqt.shift_calls": c["polyqt.shift_calls"],
            "polyqt.format_generator_calls": c["polyqt.format_generator_calls"],
            "codes.module_span_calls": calls("codes.module_span"),
            "codes.module_span_s": total("codes.module_span"),
            "codes.image_s": self_s("codes.binary_image") + self_s("codes.binary_image_of_span"),
            "codes.spans_per_code": calls("codes.code_span") / distinct_codes if distinct_codes else 0.0,
            "codes.weight_counts_s": weight_counts_s,
            "codes.hom_enum_s": hom_enum_s,
            "codes.enum_words_per_s": c["gf2.words_enumerated"] / enum_s if enum_s else 0.0,
            "analysis.bound_check_s": bound_check_s,
            "analysis.verify_tables_s": total("analysis.verify_tables"),
            "analysis.code_record_s": total("codes.code_record"),
            "search.generated": c["search.generated"],
            "search.zero_tuples": c["search.zero_tuples"],
            "search.orbit_dropped": c["search.orbit_dropped"],
            "search.budget_skipped": c["search.budget_skipped"],
            "search.evaluated": evaluated,
            "search.distinct_codes": len(self._search_bases),
            "search.useful_ratio": len(self._search_bases) / evaluated if evaluated else 0.0,
            "search.orbit_s": total("search.orbit_min"),
            "search.eval_s": total("search.evaluate_chunk"),
            "search.finalize_s": self.finalize_seconds(),
        }

    def count_snapshot(self) -> dict:
        """Every count taken so far, span calls and distinct-code sets included."""
        snap = dict(self.counts)
        snap.update({f"{name}.calls": agg["calls"] for name, agg in self.span_times().items()})
        snap["codes.distinct"] = len(self._pass_codes)
        snap["search.distinct_codes"] = len(self._search_bases)
        return snap

    def search_identity_holds(self) -> bool:
        """generated == all-zero tuples + orbit duplicates + budget skips + evaluated."""
        c = self.counts
        parts = (
            c["search.zero_tuples"]
            + c["search.orbit_dropped"]
            + c["search.budget_skipped"]
            + c["search.evaluated"]
        )
        return c["search.generated"] == parts

    def write_spans(self, path: Path) -> None:
        """One JSON array per line, SPAN_FIELDS first; parent -1 is a root span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for idx, span in enumerate(self.spans):
                if span is not None:
                    fh.write(json.dumps([idx, *span]) + "\n")


def install(tracer: Tracer) -> None:
    """Patch the rkcodes boundaries the per-layer metrics are taken at."""
    spans = (
        (analysis.verify_tables, "analysis.verify_tables", None),
        (analysis.bound_check, "analysis.bound_check", None),
        (analysis.search, "analysis.search", None),
        (analysis._evaluate_chunk, "search.evaluate_chunk", tracer._on_chunk),
        (analysis._orbit_min_string, "search.orbit_min", tracer._on_orbit),
        (codes.code_record, "codes.code_record", None),
        (codes.code_span, "codes.code_span", tracer._on_code_span),
        (codes.module_span, "codes.module_span", None),
        (codes.binary_image, "codes.binary_image", tracer._on_budget_point),
        (codes.binary_image_of_span, "codes.binary_image_of_span", None),
        (codes.hom_weight_enumerator, "codes.hom_weight_enumerator", None),
        (codes.residue_code, "codes.residue_code", None),
    )
    for fn, name, hook in spans:
        tracer.patch_function(fn, tracer.timed(name, fn, hook))
    tracer.patch_method(
        codes.BinaryCode, "min_distance",
        lambda fn: tracer.timed("codes.min_distance", fn, tracer._on_min_distance),
    )
    tracer.patch_method(
        codes.BinaryCode, "weight_enumerator",
        lambda fn: tracer.timed("codes.weight_enumerator", fn),
    )
    tracer.patch_method(ring.RingElement, "__mul__", lambda fn: tracer.counted("ring.mul_calls", fn))
    tracer.patch_method(
        graymap.GrayMap, "element_image",
        lambda fn: tracer.counted("graymap.element_image_calls", fn),
    )
    tracer.patch_method(gf2.F2Span, "add", lambda fn: tracer.counted("gf2.span_add_calls", fn))
    # Every span_iter caller in the workloads drains it: 2^rank words per call.
    tracer.patch_function(
        gf2.span_iter,
        tracer.counted("gf2.words_enumerated", gf2.span_iter, lambda basis: 1 << len(basis)),
    )
    tracer.patch_function(polyqt.shift, tracer.counted("polyqt.shift_calls", polyqt.shift))
    tracer.patch_function(
        polyqt.format_generator,
        tracer.counted("polyqt.format_generator_calls", polyqt.format_generator),
    )
