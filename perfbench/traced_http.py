"""The traced run of an HTTP workload: per-layer metrics.

The run serves the nominal rate twice, first from a plain daemon and
then from one started under ``traced_daemon.py``.  The first phase is
the baseline for the tracing overhead; the second gives the spans,
the handle stamps and ``GET /v1/stats``, from which every per-layer
metric is computed.  Span coverage compares the time the daemon's layer
spans, the client's own steps and the wire legs between them account
for with client-observed latency (see :func:`coverage`); a run whose
coverage is below ``MIN_COVERAGE`` fails.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Dict, List, Tuple

import spans
import stats
from http_workloads import MIN_COVERAGE, PHASE_ATTEMPTS, WARMUP_S, HttpRun
from layers import layer_metrics, layer_report, mean

#: The handler's layer spans: reading the body, the service call (which
#: holds the wire codec, label resolution and the engine) and writing the
#: response.  Its own self time (routing, tenant lookup) is not covered.
HANDLER_CHILDREN = ("http.body", "http.explain", "http.send")


class TracedHttpRun(HttpRun):
    def run(self) -> dict:
        rate = self.cfg["nominal_rate"]
        half = self.seconds / 2.0
        if self.hot:
            self.store = self.prepare_store()
        store = self.store if self.hot else self._store_dir(fresh=True)
        daemon, _ = self.launch(store)
        try:
            self.phase(daemon, "warmup", rate, WARMUP_S, keep=False)
            plain = self.steady_phase(daemon, "untraced", rate, half)
        finally:
            daemon.stop()
        spans_path = os.path.join(self.work, "spans.json")
        store = self.store if self.hot else self._store_dir(fresh=True)
        daemon, _ = self.launch(store, traced=True, spans_path=spans_path)
        try:
            self.phase(daemon, "warmup", rate, WARMUP_S, keep=False)
            traced = self.steady_phase(daemon, "traced", rate, half)
            engine = self.stats_snapshot(daemon)["engine"]
        finally:
            daemon.stop()
        self.check_outputs()
        dump = spans.load(spans_path)
        window = spans.window(dump, traced.due[0], max(traced.done))
        metrics, table = layer_metrics(window, engine, traced.n)
        metrics.update(self.client_metrics(plain, traced, dump))
        attempted = sum(p.n for p, _ in self.phases)
        failed = sum(p.n - sum(1 for i in range(p.n) if p.ok(i))
                     for p, _ in self.phases)
        metrics["error_rate"] = failed / attempted
        self.report["layers"] = layer_report(table)
        self.report["health"] = {p.name: self.phase_health(p)
                                 for p in (plain, traced)}
        for name, health in self.report["health"].items():
            if not health["valid"]:
                self.failures.append(f"phase {name} invalid: p99 send lag "
                                     f"{health['send_lag_p99_ms']:.2f} ms")
        if metrics["trace.coverage"] < MIN_COVERAGE:
            self.failures.append(
                f"spans cover {metrics['trace.coverage']:.3f} of client "
                f"latency, below {MIN_COVERAGE}")
        return {"attempted": attempted, "failed": failed,
                "metrics": metrics}

    def steady_phase(self, daemon, name: str, rate: float, seconds: float):
        """The phase, run once more if the generator lagged past its
        bound (an invalid phase is not scored)."""
        for attempt in range(PHASE_ATTEMPTS):
            phase = self.phase(daemon, f"{name}.{attempt + 1}" if attempt
                               else name, rate, seconds)
            if self.phase_health(phase)["valid"]:
                break
        return phase

    def client_metrics(self, plain, traced, dump: dict
                       ) -> Dict[str, float]:
        """Coverage, untraced remainder, wire overhead and generator
        health of the traced phase, and tracing overhead against the
        untraced one."""
        ok = [i for i in range(traced.n) if traced.ok(i)]
        latency = sum((traced.done[i] - traced.due[i]) * 1e3 for i in ok)
        # All spans, not the window's: a connection's first request span
        # starts when it connects, before the phase's first request is due.
        covered, parts = coverage(traced, ok, dump["spans"])
        self.report["coverage_ms_per_request"] = parts
        answers = [json.loads(traced.body[i]) for i in ok]
        engine_ms = [answer["latency_ms"] for answer in answers]
        # Read off the responses: how many the engine served from a tier.
        self.report["response_cache_hit_share"] = mean(
            1.0 if answer["cache_hit"] else 0.0 for answer in answers)
        outside = [(traced.done[i] - traced.due[i]) * 1e3 - engine
                   for i, engine in zip(ok, engine_ms)]
        plain_ok = [i for i in range(plain.n) if plain.ok(i)]
        return {
            "trace.coverage": covered / latency if latency else 0.0,
            "trace.untraced_ms": (latency - covered) / max(1, len(ok)),
            "trace.overhead_ms": (
                latency / max(1, len(ok))
                - mean((plain.done[i] - plain.due[i]) * 1e3
                        for i in plain_ok)),
            "http.outside_engine_ms": mean(outside),
            "http.send_lag_p99_ms": stats.percentile(traced.send_lags_ms(),
                                                     99.0),
        }


def match_requests(phase, requests: List[list]) -> Dict[int, list]:
    """Client request index -> the daemon's ``http.request`` span that
    served it.

    Each keep-alive connection is served by one daemon thread, one
    request at a time, so the request that a connection sent at ``sent``
    and got answered at ``done`` is the one its thread started parsing in
    between.  A connection is paired with the thread that matches most
    of its requests that way.
    """
    threads: Dict[int, List[list]] = defaultdict(list)
    for span in sorted(requests, key=lambda s: s[8]):
        threads[span[7]].append(span)
    sent: Dict[int, List[int]] = defaultdict(list)
    for i in sorted(range(phase.n), key=phase.sent.__getitem__):
        sent[phase.conn[i]].append(i)

    def pairs(conn: int, thread: int) -> Dict[int, list]:
        found, spans, k = {}, threads[thread], 0
        for i in sent[conn]:
            while k < len(spans) and spans[k][8] < phase.sent[i]:
                k += 1
            if k < len(spans) and spans[k][8] <= phase.done[i]:
                found[i] = spans[k]
        return found

    matched: Dict[int, list] = {}
    free = set(threads)
    for conn in sorted(sent):
        if not free:
            break
        thread = max(sorted(free), key=lambda t: len(pairs(conn, t)))
        free.discard(thread)
        matched.update(pairs(conn, thread))
    return matched


def union_ms(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length in ms of the union of ``intervals`` clipped to
    ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total * 1e3


def coverage(phase, ok: List[int], spans: List[list]
             ) -> Tuple[float, Dict[str, float]]:
    """Milliseconds of client latency the spans cover, summed over the
    ``ok`` requests, and the mean per request of each covering part.

    A request is covered by the client's own steps (backlog wait,
    writing the request, reading the response), by the daemon's layer
    spans on its blocking path (``http.parse`` and the handler's
    children ``HANDLER_CHILDREN``) and by the two wire legs between
    them: from the client's send until the daemon starts parsing (its
    thread waits in ``http.request`` for the bytes), and from the end of
    ``http.send`` until the client reads the first byte back.  What the
    daemon does between its layer spans, the handler's own self time
    included, is not covered.  Overlaps count once.
    """
    children: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    requests = []
    for span in spans:
        if span[2] != "http.request":
            continue
        parse = [c for c in children[span[0]] if c[2] == "http.parse"]
        handler = [c for c in children[span[0]] if c[2] == "http.handler"]
        if parse and handler and phase.due[0] <= parse[0][3]:
            # The request span, the parse start and the layer spans.
            requests.append(list(span) + [parse[0][3], parse + [
                c for c in children[handler[0][0]]
                if c[2] in HANDLER_CHILDREN]])
    matched = match_requests(phase, requests)
    parts: Dict[str, float] = defaultdict(float)
    covered = 0.0
    for i in ok:
        steps = {"client.backlog": (phase.due[i], phase.sent[i]),
                 "client.write": (phase.sent[i], phase.written[i]),
                 "client.read": (phase.answered[i], phase.done[i])}
        request = matched.get(i)
        if request is not None:
            steps["wire.request"] = (max(request[3], phase.sent[i]),
                                     request[8])
            for span in request[9]:
                steps[span[2]] = (span[3], span[4])
            if "http.send" in steps:
                steps["wire.response"] = (steps["http.send"][1],
                                          phase.answered[i])
        for name, (start, end) in steps.items():
            # The response leg is empty when the client read the headers
            # before http.send had written the body.
            parts[name] += max(0.0, end - start) * 1e3
        covered += union_ms(list(steps.values()), phase.due[i],
                            phase.done[i])
    report = {name: ms / max(1, len(ok)) for name, ms in parts.items()}
    report["matched_share"] = (sum(1 for i in ok if i in matched)
                               / max(1, len(ok)))
    return covered, report
