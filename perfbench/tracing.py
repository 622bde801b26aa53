"""Span recording around the program's public layer boundaries.

The traced run wraps functions of ``repro`` from the outside: each wrapped
call records one span (name, start, end, parent span, op id, thread, and an
optional work count) into an in-memory list, which the benchmark writes out
when the run ends.  Nothing under ``src/`` is changed; ``uninstall`` puts
every original attribute back.

Self time of a span is its duration minus the time its child spans cover.
Per-layer figures are sums over spans of one name; the ledger adds up the
self times of every layer and calls the root spans' own self time
"unattributed".
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_MISSING = object()

# Span record layout (lists keep the in-memory trace small).
ID, PARENT, OP, NAME, START, END, THREAD, COUNT = range(8)


class Recorder:
    """Keeps spans in memory; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stats: List[dict] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[tuple] = []
        self.missing: List[str] = []

    # -- spans -------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent, op = stack[-1][ID], stack[-1][OP]
        else:
            parent, op = 0, next(self._ops)
        span = [next(self._ids), parent, op, name, time.perf_counter(), 0.0,
                threading.get_ident(), 0]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        # Pop by identity: an abandoned generator may close out of order.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index]
                break
        with self._lock:
            self.spans.append(span)

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable] = None,
             on_result: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, result, token)`` sets the span's work count, where
        ``token`` is what ``before(args)`` returned ahead of the call;
        ``on_result(result)`` sees each return value.  A missing target is
        noted in :attr:`missing` and skipped, so the benchmark keeps working
        on a program whose layers moved.
        """
        raw = _MISSING
        for klass in getattr(owner, "__mro__", (owner,)):
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        if raw is _MISSING:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        wrapped = self._wrapper(function, name, count, on_result, before)
        self._installed.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def _wrapper(self, function, name, count, on_result, before):
        recorder = self
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                def run():
                    span = recorder.open(name)
                    try:
                        yield from function(*args, **kwargs)
                    finally:
                        recorder.close(span)
                return run()
            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            span = recorder.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(span)
            if count is not None:
                span[COUNT] = count(args, result, token)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._installed.clear()

    # -- output ------------------------------------------------------------------

    def dump(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        payload = {
            "fields": ["id", "parent", "op", "name", "start", "end",
                       "thread", "count"],
            "spans": spans,
            "stats": self.stats,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _len_arg(position: int):
    def count(args, result, token):
        try:
            return len(args[position])
        except (IndexError, TypeError):
            return 0
    return count


def _result_stats(recorder: Recorder, result) -> None:
    stats = getattr(result, "stats", None)
    if stats is None:
        return
    recorder.stats.append({
        "at": time.perf_counter(),
        "levels": stats.levels_processed,
        "oc": stats.oc_candidates_validated,
        "ofd": stats.ofd_candidates_validated,
        "memo_hits": stats.validation_memo_hits,
        "found": len(result.ocs) + len(result.ofds),
    })


def install(recorder: Recorder, serve: bool = False) -> Recorder:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.backend import resolve_backend
    from repro.dataset.encoding import EncodedRelation
    from repro.dataset.partition import PartitionCache
    from repro.discovery.engine import DiscoveryEngine
    from repro.discovery.session import Profiler
    from repro.incremental.engine import IncrementalEngine

    backend = type(resolve_backend(None))
    wrap = recorder.wrap
    wrap(EncodedRelation, "from_relation", "encoding.from_relation")

    def extend_rows(args, result, token):
        return result[0].num_rows - args[0].num_rows
    wrap(EncodedRelation, "extend", "encoding.extend", count=extend_rows)

    def misses(args):
        return args[0].stats.get("misses", 0)

    def hit(args, result, token):
        # A lookup is a hit when the cache counted no miss during the call
        # (a miss may recurse into hits on subsets; those count alone).
        return int(misses(args) == token)
    wrap(PartitionCache, "get", "partition.get", before=misses, count=hit)
    wrap(PartitionCache, "apply_delta", "partition.apply_delta")
    wrap(backend, "oc_optimal_removal_count_batch", "backend.oc_lnds_batch",
         count=_len_arg(2))
    wrap(backend, "ofd_removal_batch", "backend.ofd_removal_batch",
         count=_len_arg(2))
    wrap(backend, "oc_holds_batch", "backend.oc_holds_batch", count=_len_arg(2))
    wrap(backend, "ofd_holds_batch", "backend.ofd_holds_batch", count=_len_arg(2))
    wrap(backend, "partition_refine", "backend.partition_refine")
    wrap(backend, "partition_product", "backend.partition_product")
    wrap(DiscoveryEngine, "iter_events", "engine")
    wrap(Profiler, "discover", "session.discover",
         on_result=lambda r: _result_stats(recorder, r))
    wrap(Profiler, "extend", "session.extend")
    wrap(Profiler, "discover_incremental", "session.discover_incremental",
         on_result=lambda o: _result_stats(recorder, getattr(o, "result", None)))

    def must_revalidate(args, plan, token):
        return getattr(plan, "num_must_revalidate", 0) if plan is not None else 0
    wrap(IncrementalEngine, "classify", "incremental.classify",
         count=must_revalidate)
    if serve:
        from repro.discovery.results import DiscoveryResult
        from repro.serve import http
        from repro.serve.admission import AdmissionController
        from repro.serve.service import ProfilerService

        wrap(http._Handler, "do_POST", "serve.request")
        wrap(ProfilerService, "discover", "serve.handler")
        wrap(ProfilerService, "append", "serve.handler")
        wrap(AdmissionController, "acquire", "serve.admission_wait")
        wrap(DiscoveryResult, "to_dict", "serve.serialize")
    return recorder


# -- analysis ------------------------------------------------------------------------


class SpanTree:
    """Spans of the roots named ``root`` (optionally started in a window),
    with their descendants, indexed for per-layer sums."""

    def __init__(self, spans: List[list], root: str,
                 window: Optional[tuple] = None) -> None:
        children: Dict[int, List[list]] = defaultdict(list)
        for span in spans:
            if span[PARENT]:
                children[span[PARENT]].append(span)
        self.roots = [
            span for span in spans
            if span[NAME] == root and not span[PARENT]
            and (window is None or window[0] <= span[START] <= window[1])
        ]
        self.spans: List[list] = []
        self.self_time: Dict[int, float] = {}
        pending = list(self.roots)
        while pending:
            span = pending.pop()
            kids = children.get(span[ID], [])
            self.spans.append(span)
            self.self_time[span[ID]] = max(
                0.0, span[END] - span[START] - _covered(kids))
            pending.extend(kids)

    def wall(self) -> float:
        return sum(span[END] - span[START] for span in self.roots)

    def inclusive(self, name: str) -> float:
        return sum(span[END] - span[START] for span in self.spans
                   if span[NAME] == name)

    def self_seconds(self, name: str) -> float:
        return sum(self.self_time[span[ID]] for span in self.spans
                   if span[NAME] == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[NAME] == name)

    def count(self, name: str) -> int:
        return sum(span[COUNT] for span in self.spans if span[NAME] == name)

    def ledger(self) -> Dict[str, float]:
        """Self seconds per span name; the root name's share is what no
        wrapped layer covered."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[NAME]] += self.self_time[span[ID]]
        return dict(totals)


def _covered(spans: List[list]) -> float:
    """Length of the union of the spans' intervals."""
    total = 0.0
    end = float("-inf")
    for span in sorted(spans, key=lambda s: s[START]):
        start = max(span[START], end)
        if span[END] > start:
            total += span[END] - start
            end = span[END]
    return total


def layer_metrics(tree: SpanTree, stats: List[dict], ops: int) -> Dict[str, float]:
    """Per-op layer figures shared by every workload (serve-only ones are
    added by the serve workload)."""
    ops = max(ops, 1)

    def per_op(value):
        return value / ops

    metrics = {}
    for name in ("backend.oc_lnds_batch", "backend.ofd_removal_batch",
                 "backend.oc_holds_batch", "backend.ofd_holds_batch",
                 "backend.partition_refine", "partition.get",
                 "partition.apply_delta", "encoding.from_relation"):
        metrics[f"{name}_s"] = per_op(tree.self_seconds(name))
        metrics[f"{name}_calls"] = per_op(tree.calls(name))
    metrics["backend.oc_lnds_candidates"] = per_op(tree.count("backend.oc_lnds_batch"))
    metrics["backend.ofd_removal_batch_candidates"] = per_op(
        tree.count("backend.ofd_removal_batch"))
    metrics["backend.oc_holds_batch_candidates"] = per_op(
        tree.count("backend.oc_holds_batch"))
    get_calls = tree.calls("partition.get")
    metrics["partition.hit_ratio"] = (
        tree.count("partition.get") / get_calls if get_calls else 0.0)
    metrics["backend.partition_product_s"] = per_op(
        tree.self_seconds("backend.partition_product"))
    extend_calls = tree.calls("encoding.extend")
    metrics["encoding.extend_s"] = per_op(tree.inclusive("encoding.extend"))
    metrics["encoding.extend_rows"] = (
        tree.count("encoding.extend") / extend_calls if extend_calls else 0.0)
    metrics["engine.self_s"] = per_op(tree.self_seconds("engine"))
    runs = len(stats)
    validated = sum(s["oc"] + s["ofd"] for s in stats)
    metrics["engine.levels"] = sum(s["levels"] for s in stats) / runs if runs else 0.0
    metrics["engine.oc_candidates"] = sum(s["oc"] for s in stats) / runs if runs else 0.0
    metrics["engine.ofd_candidates"] = sum(s["ofd"] for s in stats) / runs if runs else 0.0
    metrics["engine.valid_ratio"] = (
        sum(s["found"] for s in stats) / validated if validated else 0.0)
    metrics["engine.memo_hit_ratio"] = (
        sum(s["memo_hits"] for s in stats) / validated if validated else 0.0)
    metrics["session.discover_s"] = per_op(tree.inclusive("session.discover"))
    extend = tree.inclusive("session.extend")
    metrics["session.extend_s"] = per_op(extend)
    metrics["session.memo_repair_s"] = per_op(max(
        0.0, extend - tree.inclusive("encoding.extend")
        - tree.inclusive("partition.apply_delta")))
    metrics["session.discover_incremental_s"] = per_op(
        tree.inclusive("session.discover_incremental"))
    classify_calls = tree.calls("incremental.classify")
    metrics["incremental.classify_s"] = per_op(tree.self_seconds("incremental.classify"))
    metrics["incremental.must_revalidate"] = (
        tree.count("incremental.classify") / classify_calls if classify_calls else 0.0)
    return metrics
