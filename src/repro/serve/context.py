"""Request context: the per-request identity that rides every hop.

Before this module the serving layers passed ``(image, label, method,
target)`` positionally, so nothing downstream of the engine facade
could tell an interactive request from a bulk Table II sweep.
:class:`RequestContext` is that seam:

* **Priority class** — one of :data:`PRIORITIES`
  (``interactive`` < ``normal`` < ``bulk``); the scheduler orders ready
  queues by class (with starvation aging, see
  :class:`~repro.serve.scheduler.MicroBatchScheduler`).
* **Deadline** — optional *absolute* ``time.monotonic()`` instant.  A
  request whose deadline passes while it is still queued resolves as
  :class:`DeadlineExceeded` without ever reaching an executor.  On
  Linux ``time.monotonic()`` is ``CLOCK_MONOTONIC``, which is
  system-wide, so the deadline stays meaningful on the worker side of
  a process pool on the same host.
* **Tenant** — opaque id; cache/store/engine stats break out hit and
  served counts per tenant.
* **Trace id + stage stamps** — ``admitted/enqueued/dispatched/
  computed/resolved`` monotonic timestamps stamped by the layer that
  performs each transition, plus ``worker_pid/worker_recv_at/
  worker_done_at`` stamped by a process worker, carried back in its
  reply header.

Legacy callers pass nothing: every engine entry point defaults the
context to ``RequestContext()`` (priority ``normal``, no deadline, no
tenant), so existing code keeps its exact behaviour while new callers
opt into SLO semantics per request.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["PRIORITIES", "PRIORITY_RANK", "DeadlineExceeded",
           "RequestContext"]

#: Priority classes, most to least urgent.  The scheduler flushes ready
#: queues in this order (subject to starvation aging).
PRIORITIES: Tuple[str, ...] = ("interactive", "normal", "bulk")

#: Class -> rank; *lower* rank flushes first.
PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITIES)}

#: Stage-stamp attribute suffix order (documentation + test aid).
STAGES: Tuple[str, ...] = ("admitted", "enqueued", "dispatched",
                          "computed", "resolved")


class DeadlineExceeded(RuntimeError):
    """A request's absolute deadline passed before it was computed.

    Raised from ``PendingExplain.result()``; the request was dropped
    from its queue without billing compute (no executor dispatch, no
    cache insert).  ``ctx`` carries
    the dead request's :class:`RequestContext` for post-mortems.
    """

    def __init__(self, message: str,
                 ctx: Optional["RequestContext"] = None):
        super().__init__(message)
        self.ctx = ctx


_trace_seq = itertools.count(1)


def _new_trace_id() -> str:
    return f"{os.getpid():x}-{next(_trace_seq):06x}"


@dataclass(eq=False)          # identity semantics: one ctx per handle
class RequestContext:
    """Identity + SLO envelope of one submitted request.

    Stamp ownership (who sets what):

    ===============  ====================================================
    field            stamped by
    ===============  ====================================================
    ``admitted_at``  engine facade, on entry to ``submit``/``submit_async``
    ``enqueued_at``  engine, after the scheduler accepted (or deduped) it
    ``dispatched_at``engine, when the request pops into a micro-batch
    ``computed_at``  engine, when the batch's explainer pass returned
    ``resolved_at``  engine, when the handle's result (or error) is set
    ``worker_*``     process worker, via its batch reply header
    ===============  ====================================================

    All stamps are ``time.monotonic()`` seconds; :meth:`stamp` is
    set-if-unset so a cache hit (which skips the queue) simply leaves
    the middle stages ``None``.
    """

    priority: str = "normal"
    #: Absolute ``time.monotonic()`` instant, or ``None`` (no SLO).
    deadline: Optional[float] = None
    tenant: Optional[str] = None
    trace_id: str = field(default_factory=_new_trace_id)

    admitted_at: Optional[float] = None
    enqueued_at: Optional[float] = None
    dispatched_at: Optional[float] = None
    computed_at: Optional[float] = None
    resolved_at: Optional[float] = None

    worker_pid: Optional[int] = None
    worker_recv_at: Optional[float] = None
    worker_done_at: Optional[float] = None

    def __post_init__(self):
        if self.priority not in PRIORITY_RANK:
            raise ValueError(
                f"unknown priority {self.priority!r}; "
                f"expected one of {PRIORITIES}")

    # -- construction --------------------------------------------------
    @classmethod
    def ensure(cls, value) -> "RequestContext":
        """Normalize an engine-facade argument: ``None`` -> default
        context, a priority-class string -> context of that class, an
        instance passes through unchanged."""
        if value is None:
            return cls()
        if isinstance(value, str):
            return cls(priority=value)
        if isinstance(value, cls):
            return value
        raise TypeError(f"ctx must be None, a priority string, or "
                        f"RequestContext; got {type(value).__name__}")

    @classmethod
    def with_timeout(cls, timeout_ms: float, **kwargs) -> "RequestContext":
        """Context whose deadline is ``timeout_ms`` from now."""
        return cls(deadline=time.monotonic() + timeout_ms / 1000.0,
                   **kwargs)

    def spawn(self) -> "RequestContext":
        """Fresh-stamped copy sharing identity fields — one per element
        of an ``explain_batch`` call, so stage stamps stay per-request
        while priority/deadline/tenant/trace apply to the whole batch."""
        return RequestContext(priority=self.priority,
                              deadline=self.deadline,
                              tenant=self.tenant,
                              trace_id=self.trace_id)

    # -- SLO probes ----------------------------------------------------
    @property
    def rank(self) -> int:
        return PRIORITY_RANK[self.priority]

    def expired(self, now: Optional[float] = None) -> bool:
        """True when the deadline has passed (``now`` defaults to
        ``time.monotonic()``; pass one clock reading to evaluate many
        contexts consistently).  Deadline-free contexts never expire."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def remaining_ms(self, now: Optional[float] = None) -> Optional[float]:
        """Milliseconds until the deadline (negative once past it), or
        ``None`` for deadline-free contexts."""
        if self.deadline is None:
            return None
        now = time.monotonic() if now is None else now
        return (self.deadline - now) * 1000.0

    # -- stamping ------------------------------------------------------
    def stamp(self, stage: str) -> "RequestContext":
        """Set ``<stage>_at`` to now if not already set (idempotent)."""
        attr = stage + "_at"
        if getattr(self, attr) is None:
            setattr(self, attr, time.monotonic())
        return self

    def absorb(self, other: "RequestContext") -> "RequestContext":
        """Copy pipeline stamps a shared computation collected onto this
        handle's context (dedup fan-out: many handles, one compute)."""
        for stage in ("enqueued", "dispatched", "computed"):
            attr = stage + "_at"
            if getattr(self, attr) is None:
                setattr(self, attr, getattr(other, attr))
        if self.worker_pid is None:
            self.worker_pid = other.worker_pid
            self.worker_recv_at = other.worker_recv_at
            self.worker_done_at = other.worker_done_at
        return self

    def latency_ms(self) -> Optional[float]:
        """Admission-to-resolution wall time, or ``None`` if unfinished."""
        if self.admitted_at is None or self.resolved_at is None:
            return None
        return (self.resolved_at - self.admitted_at) * 1000.0
