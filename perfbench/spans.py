"""Spans around calls into the program's layers, recorded from outside.

:func:`install` replaces public functions and methods of ``repro`` with
wrappers that time each call into an in-memory :class:`Recorder`.  A
span records its name, start, end, the span that caused it (the
innermost open span on the same thread) and an optional size (rows,
maps, frames).  Handles returned by the engine also leave their
``RequestContext`` stage stamps.  Nothing is written until
:meth:`Recorder.dump`.

Times are ``time.monotonic()`` seconds, the clock the program's own
stamps use, so daemon spans and client timings line up.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Context stamps copied off every resolved handle.
STAMPS = ("admitted_at", "enqueued_at", "dispatched_at", "computed_at",
          "resolved_at", "worker_recv_at", "worker_done_at")


class Recorder:
    """Spans, handle stamps and counts read off results, of one
    process."""

    def __init__(self):
        #: (id, parent id or 0, name, start, end, size, failed, thread)
        self.spans: List[tuple] = []
        self.stamps: List[dict] = []
        #: (time, name, value) quantities read off results
        self.counts: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name, size: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``name`` is a string or ``f(args) -> str``; ``size(args, result)``
        gives the span's size; ``after(args, result)`` runs once the
        call returned (the stamp reader uses it).  A call nested directly
        in a span of the same name (an override calling ``super()``) is
        not recorded twice.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            stack = recorder._stack()
            if stack and stack[-1][1] == label:
                return original(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, label))
            start = time.monotonic()
            failed = True
            result = None
            try:
                result = original(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                n = size(args, result) if size and not failed else None
                recorder.spans.append((span_id, parent, label, start, end,
                                       n, failed, threading.get_ident()))
                if after is not None:
                    after(args, result)

        setattr(owner, attr, wrapper)

    def read_stamps(self, args, _result) -> None:
        handle = args[0]
        ctx = getattr(handle, "ctx", None)
        if ctx is None:
            return
        self.stamps.append({key: getattr(ctx, key) for key in STAMPS})

    def count_series(self, _args, result) -> None:
        """CAE frames kept after the early stop, per explained map."""
        kept = sum(r.meta.get("series_len", 0) for r in result or ())
        self.counts.append((time.monotonic(), "cae.series_len", kept))

    def snapshot(self) -> dict:
        return {"spans": self.spans, "stamps": self.stamps,
                "counts": self.counts}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def _rows(args, _result) -> int:
    return len(args[1])


def _maps(_args, result) -> int:
    return len(result)


def _scored_maps(args, result) -> int:
    """``evaluate_methods(explainers, classifier, images, ...)``."""
    return len(args[2]) * len(result)


def _decode_frames(args, _result) -> int:
    return max(len(args[1]), len(args[2]))


def _explainer_name(args) -> str:
    return "explain." + getattr(args[0], "name", type(args[0]).__name__)


def _explainer_classes():
    from repro.explain.base import Explainer
    seen, todo = [], [Explainer]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return [Explainer] + seen


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on.  Importing
    the modules here (not at module import) keeps this file usable
    before ``src`` is on the path."""
    import repro.eval
    import repro.explain  # noqa: F401 — registers every explainer class
    from repro.classifiers.resnet import SmallResNet
    from repro.core.model import CAEModel
    from repro.serve import cache, engine, executor, http, store

    wrap = recorder.wrap
    # serve.http: one request on a keep-alive connection (from waiting
    # for its first line to the flushed response), header parsing, the
    # handler entry, reading the body,
    # the service call, writing the response, and the wire codec (module
    # globals the service resolves at call time).
    wrap(http._Handler, "handle_one_request", "http.request")
    wrap(http._Handler, "parse_request", "http.parse")
    wrap(http._Handler, "do_POST", "http.handler")
    wrap(http._Handler, "_json_body", "http.body")
    wrap(http._Handler, "_send", "http.send")
    wrap(http.ExplainService, "explain", "http.explain")
    wrap(http, "decode_array", "http.decode")
    wrap(http, "encode_array", "http.encode")
    # classifiers
    wrap(SmallResNet, "predict", "classifier.predict", size=_rows)
    wrap(SmallResNet, "predict_proba", "classifier.predict_proba",
         size=_rows)
    # serve.engine
    wrap(engine, "image_digest", "engine.digest")
    wrap(engine.ExplainEngine, "submit", "engine.submit")
    wrap(engine.ExplainEngine, "submit_async", "engine.submit")
    wrap(engine.ExplainEngine, "explain_batch", "engine.explain_batch")
    wrap(engine.PendingExplain, "result", "engine.result",
         after=recorder.read_stamps)
    # serve.cache / serve.store
    wrap(cache.ShardedSaliencyCache, "get", "cache.get")
    wrap(cache.ShardedSaliencyCache, "put", "cache.put")
    wrap(store.SaliencyStore, "get", "store.get")
    wrap(store.SaliencyStore, "put", "store.put")
    # serve.executor: a raising run_batch is a batch the engine retries.
    wrap(executor.ProcessExecutor, "run_batch", "executor.run_batch")
    # explain + serve.plans: tape batches, plan replays, plan compiles.
    for cls in _explainer_classes():
        own = vars(cls)
        if "explain_batch" in own:
            wrap(cls, "explain_batch", _explainer_name, size=_maps,
                 after=(recorder.count_series
                        if getattr(cls, "name", "") == "cae" else None))
        if "explain_batch_planned" in own:
            wrap(cls, "explain_batch_planned", _explainer_name, size=_maps)
        if "compile_plan" in own:
            wrap(cls, "compile_plan", "plans.compile")
    # core (CAE)
    wrap(CAEModel, "encode", "cae.encode", size=_rows)
    wrap(CAEModel, "decode", "cae.decode", size=_decode_frames)
    # eval: the sweep calls evaluate_methods through the package.
    wrap(repro.eval, "evaluate_methods", "eval.evaluate",
         size=_scored_maps)


# ----------------------------------------------------------------------
# Reading a dump back.
def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def window(dump: dict, start: float, end: float) -> dict:
    """Spans that started, stamps admitted and counts taken inside
    ``[start, end]``."""
    return {
        "spans": [s for s in dump["spans"] if start <= s[3] <= end],
        "stamps": [s for s in dump["stamps"]
                   if s["admitted_at"] is not None
                   and start <= s["admitted_at"] <= end],
        "counts": [c for c in dump["counts"] if start <= c[0] <= end],
    }


def layer_table(spans: List[list]) -> Dict[str, dict]:
    """Per span name: count, total and self milliseconds, summed size.

    Self time is a span's duration minus the part its direct children
    cover (children never outlive their parent on one thread).
    """
    child_ms: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1]:
            child_ms[span[1]] += (span[4] - span[3]) * 1e3
    table: Dict[str, dict] = {}
    for span_id, _parent, name, start, end, n, failed, _thread in spans:
        row = table.setdefault(name, {"count": 0, "total_ms": 0.0,
                                      "self_ms": 0.0, "size": 0,
                                      "failed": 0})
        dur = (end - start) * 1e3
        row["count"] += 1
        row["total_ms"] += dur
        row["self_ms"] += dur - child_ms.get(span_id, 0.0)
        row["size"] += n or 0
        row["failed"] += 1 if failed else 0
    return table


def parent_names(spans: List[list]) -> Dict[int, str]:
    return {s[0]: s[2] for s in spans}
