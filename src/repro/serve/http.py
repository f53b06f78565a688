"""HTTP/JSON service tier: the network front end over ``ExplainEngine``.

Everything below the wire is the existing in-process runtime — this
module only translates HTTP requests into engine calls and engine
outcomes into status codes.  Stdlib only (``http.server`` +
``socketserver`` threading mix-in): one handler thread per connection,
all of them submitting into the same admission-controlled engine, whose
micro-batching turns concurrent requests into shared explainer passes.

Endpoints
---------
``POST /v1/explain``
    One image + method (+ optional ``label``, ``target``, ``priority``,
    ``deadline_ms``).  Default is the **inline** mode: the response
    carries the saliency map (the handler thread waits on the engine —
    concurrent requests still batch).  ``"mode": "async"`` instead
    returns ``202`` with a ticket id to poll.  An omitted or ``null``
    ``label`` explains the classifier's own call: the engine caches it
    as such and resolves it inside the micro-batch that computes it, so
    the handler never runs the classifier.
``GET /v1/tickets/<id>``
    Poll an async submit: ``202`` while pending, ``200`` with the
    result exactly once (the ticket is retired on delivery), ``404``
    for unknown/expired/foreign tickets.
``POST /v1/batch``
    Many images through :meth:`ExplainEngine.explain_batch`, so a
    remote sweep shares the admission pipeline (and dedup, and the
    cache) with live traffic.
``GET /v1/stats``
    Full ``engine.stats()`` passthrough plus the service's own counters.
``GET /healthz``
    Liveness + drain state.  Never requires auth; stays ``200`` while
    draining (the process is alive — readiness is the ``draining``
    flag).

Authentication & tenancy
------------------------
With ``api_keys`` configured, every ``/v1/*`` request must carry a key
(``X-API-Key: <key>`` or ``Authorization: Bearer <key>``); the key
resolves to an opaque **tenant id** stamped on the request's
:class:`~repro.serve.context.RequestContext`, so per-tenant accounting
and the per-tenant **quota** admission (PR 9's follow-on) apply: a
tenant over its slice gets ``429`` with a ``Retry-After`` header while
other tenants keep being served.  Without ``api_keys`` the service is
open (tenant ``None`` — accounting only).

Error mapping
-------------
===========================================  =====
engine outcome                               status
===========================================  =====
malformed JSON / bad image / bad field       400
label/target not an integer in range         400
image channels differ from the model's       400
missing or unknown API key                   401
unknown explain method, unknown route        404
request body over ``MAX_BODY_BYTES``         413
:class:`~repro.serve.engine.TenantOverQuota` 429 (+ ``Retry-After``)
the request's own batch raised               500
draining, or global ``EngineOverloaded``     503 (+ ``Retry-After``)
:class:`~repro.serve.DeadlineExceeded`       504
===========================================  =====

Other requests are unaffected by a ``500`` (the engine isolates a
failed micro-batch down to its bad request); a ``/v1/batch`` fails if
any of its maps failed.

Graceful drain
--------------
:meth:`HttpDaemon.begin_drain` flips the service into drain mode: new
``POST`` work gets ``503``, while ``GET`` endpoints (tickets, stats,
health) keep answering so clients can collect in-flight results; the
engine's ``drain()`` then resolves everything queued or in flight —
the same drain-before-shutdown contract ``close()`` honours.
``tools/serve_daemon.py`` wires SIGTERM/SIGINT to exactly this
sequence.

This daemon is a serving-tier demonstrator, not a hardened edge: bind
it to loopback (the default) or put a real proxy in front.
"""

from __future__ import annotations

import base64
import json
import math
import threading
import time
import uuid
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

import numpy as np

from .context import PRIORITIES, DeadlineExceeded, RequestContext
from .engine import EngineOverloaded, ExplainEngine, TenantOverQuota

__all__ = ["ApiKey", "ServiceConfig", "ExplainService", "HttpDaemon",
           "HttpError", "serve", "encode_array", "decode_array"]

#: Flush deadline (ms) applied to engines that arrive without one: an
#: async ticket on a partial micro-batch must become "ready" by age so
#: the kicker thread can dispatch it without a client blocking.
FLUSH_MS = 25.0
#: Period (s) of the kicker thread's ``engine.kick()`` sweep, which
#: dispatches age-ready partial batches and expires dead requests.
KICK_INTERVAL_S = 0.025
#: Unclaimed async tickets are purged this long (s) after creation, so
#: a client that never polls cannot leak results.
TICKET_TTL_S = 300.0
#: Request bodies over this many bytes get ``413``.
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Wire encodings of a returned saliency map.
ENCODINGS = ("b64", "list")


class HttpError(Exception):
    """An error with a wire status; handlers raise it anywhere and the
    dispatch loop turns it into a JSON error body.

    Parameters
    ----------
    status:
        HTTP status code to send.
    message:
        Human-readable error string (returned as ``{"error": ...}``).
    headers:
        Extra response headers (e.g. ``Retry-After``).
    """

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


# ----------------------------------------------------------------------
# Wire codec: ndarrays as JSON objects.
def encode_array(array: np.ndarray, encoding: str = "b64") -> dict:
    """Encode an ndarray for the JSON wire.

    ``"b64"`` (default) carries the raw little-endian bytes base64'd
    next to ``shape``/``dtype`` — compact and bit-exact; ``"list"``
    nests plain JSON lists — bulkier, but curl/jq-friendly.
    """
    array = np.ascontiguousarray(array)
    if _encoding(encoding) == "list":
        return {"shape": list(array.shape), "dtype": str(array.dtype),
                "data": array.tolist()}
    little = array.astype(array.dtype.newbyteorder("<"), copy=False)
    return {"shape": list(array.shape), "dtype": str(array.dtype),
            "b64": base64.b64encode(little.tobytes()).decode("ascii")}


def _encoding(encoding) -> str:
    """A known wire encoding, or :class:`HttpError` 400."""
    if encoding not in ENCODINGS:
        raise HttpError(400, f"unknown encoding {encoding!r}; "
                             f"use one of {ENCODINGS}")
    return encoding


def decode_array(obj, dtype=np.float32) -> np.ndarray:
    """Decode a request image: either the :func:`encode_array` dict
    form (``b64`` or ``data``, with a bool, integer or float ``dtype``)
    or bare nested lists.  Raises :class:`HttpError` 400 on anything
    malformed."""
    try:
        if isinstance(obj, dict):
            shape = tuple(int(d) for d in obj["shape"])
            want = np.dtype(obj.get("dtype", "float32"))
            if want.kind not in "biuf":
                raise ValueError(f"dtype {want} is not numeric")
            if "b64" in obj:
                raw = base64.b64decode(obj["b64"], validate=True)
                array = np.frombuffer(raw, dtype=want.newbyteorder("<"))
                array = array.reshape(shape)
            else:
                array = np.asarray(obj["data"], dtype=want)
                if array.shape != shape:
                    raise ValueError(
                        f"data has shape {array.shape}, header says "
                        f"{shape}")
        else:
            array = obj
        array = np.asarray(array, dtype=dtype)
    except Exception as exc:               # noqa: BLE001 — wire input
        raise HttpError(400, f"cannot decode image: {exc}")
    if array.ndim != 3:
        raise HttpError(400, "image must be (channels, height, width); "
                             f"got shape {tuple(array.shape)}")
    if not array.size:
        raise HttpError(400, "image has an empty dimension; got shape "
                             f"{tuple(array.shape)}")
    if not np.isfinite(array).all():
        raise HttpError(400, "image contains NaN or infinite values")
    return array


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ApiKey:
    """One API key's identity: the tenant it resolves to, plus an
    optional per-tenant quota slice (merged into the engine's
    ``tenant_quotas`` at service start).  A slice below 1 raises
    ``ValueError``, as the engine's own quotas do."""

    tenant: str
    quota: Optional[int] = None

    def __post_init__(self):
        if self.quota is not None and self.quota < 1:
            raise ValueError(f"quota of tenant {self.tenant!r} must be "
                             f">= 1 (or None); got {self.quota!r}")


@dataclass
class ServiceConfig:
    """Service-tier knobs (the engine brings its own).

    Parameters
    ----------
    api_keys:
        ``key -> ApiKey`` table.  ``None`` (default) leaves the service
        open: requests run as the anonymous tenant with accounting
        only.  With a table, every ``/v1/*`` request must present a
        known key or gets ``401``.
    verbose:
        Log one line per request to stderr (the ``BaseHTTPRequestHandler``
        format).  Off by default: the handler runs per-request threads
        and stderr logging is a measurable cost at bench rates.
    """

    api_keys: Optional[Dict[str, ApiKey]] = None
    verbose: bool = False


@dataclass
class _Ticket:
    """One async submit awaiting pickup."""

    handle: object
    tenant: Optional[str]
    method: str
    encoding: str
    created: float = field(default_factory=time.monotonic)


def _class_field(value, key: str, num_classes: Optional[int]
                 ) -> Optional[int]:
    """A wire class index: ``None`` stays ``None``; anything but a JSON
    integer (not a bool) in ``[0, num_classes)`` is a ``400`` naming
    the field.  ``num_classes=None`` (no classifier) checks the type
    only."""
    if value is None:
        return None
    if (type(value) is not int or value < 0
            or (num_classes is not None and value >= num_classes)):
        bound = "" if num_classes is None else f" in [0, {num_classes})"
        raise HttpError(400, f"{key!r} must be an integer{bound}; "
                             f"got {value!r}")
    return value


def _per_image(payload: dict, key: str, images: list) -> list:
    """A ``/v1/batch`` field parallel to ``images`` (absent: all
    ``None``)."""
    values = payload.get(key)
    if values is None:
        return [None] * len(images)
    if not isinstance(values, list) or len(values) != len(images):
        raise HttpError(400, f"{key!r} must be a list of {len(images)} "
                             "entries, one per image")
    return values


def _jsonable(value):
    """JSON fallback for numpy scalars (engine stats carry a few)."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


class ExplainService:
    """The engine-facing half of the daemon: auth, tickets, drain state,
    and the request -> engine translation.  The HTTP handler below is a
    thin parser around these methods, so tests can drive the service
    in-process and the wire layer stays trivial.

    The service installs a flush deadline (``FLUSH_MS``) on engines
    that lack one and runs a background *kicker* thread calling
    ``engine.kick()`` every ``KICK_INTERVAL_S``, which is what makes
    async tickets complete without a client thread blocking on them.

    Labels and targets are checked against ``num_classes``, and each
    image's channel count against the classifier's ``in_channels``,
    while the body is parsed, so a client error is a ``400`` that
    computes nothing.  The wire label, an int or ``None``, goes to the
    engine as is, so the service never runs the classifier itself.
    """

    def __init__(self, engine: ExplainEngine,
                 config: Optional[ServiceConfig] = None):
        self.engine = engine
        self.config = config or ServiceConfig()
        self.num_classes = getattr(engine.classifier, "num_classes", None)
        self.in_channels = getattr(engine.classifier, "in_channels", None)
        self.started_at = time.monotonic()
        self.draining = False
        self._lock = threading.Lock()
        self._tickets: Dict[str, _Ticket] = {}
        #: endpoint -> request count, plus per-status error counts.
        self.counters: Dict[str, int] = {}
        # Per-key quotas become per-tenant quotas on the engine (the
        # engine is the single admission authority; the service never
        # keeps its own counts).
        if self.config.api_keys:
            for key_info in self.config.api_keys.values():
                if key_info.quota is not None:
                    engine.tenant_quotas[key_info.tenant] = key_info.quota
        # Async tickets ride partial micro-batches; without a flush
        # deadline those never become ready by age and only resolve
        # when some other request flushes the method.  Same-package
        # reach into the scheduler, applied once before any traffic.
        if engine.max_delay_ms is None:
            engine._scheduler.max_delay_ms = FLUSH_MS
        self._stop = threading.Event()
        self._kicker = threading.Thread(target=self._kick_loop,
                                        name="serve-http-kicker",
                                        daemon=True)
        self._kicker.start()

    # -- lifecycle -----------------------------------------------------
    def _kick_loop(self) -> None:
        while not self._stop.wait(KICK_INTERVAL_S):
            try:
                self.engine.kick()
            except Exception:              # noqa: BLE001 — engine closing
                pass

    def begin_drain(self) -> None:
        """Flip into drain mode: new ``POST`` work gets ``503``; GETs
        (tickets/stats/health) keep answering."""
        self.draining = True

    def drain(self) -> None:
        """``begin_drain`` + resolve everything queued or in flight, so
        every outstanding ticket is answerable before shutdown."""
        self.begin_drain()
        self.engine.drain()

    def close(self) -> None:
        """Stop the kicker thread (idempotent; does not close the
        engine — the caller that built the engine owns it)."""
        self._stop.set()
        if self._kicker.is_alive():
            self._kicker.join(timeout=2.0)

    # -- auth ----------------------------------------------------------
    def resolve_tenant(self, headers) -> Optional[str]:
        """Map request headers to a tenant id.

        Open service (no ``api_keys``): always the anonymous tenant.
        Keyed service: ``X-API-Key`` or ``Authorization: Bearer`` must
        name a known key; raises :class:`HttpError` 401 otherwise.
        """
        if not self.config.api_keys:
            return None
        key = headers.get("X-API-Key")
        if key is None:
            auth = headers.get("Authorization", "")
            if auth.startswith("Bearer "):
                key = auth[len("Bearer "):].strip()
        if key is None:
            raise HttpError(401, "missing API key (X-API-Key header or "
                                 "Authorization: Bearer)",
                            {"WWW-Authenticate": "Bearer"})
        info = self.config.api_keys.get(key)
        if info is None:
            raise HttpError(401, "unknown API key",
                            {"WWW-Authenticate": "Bearer"})
        return info.tenant

    # -- request translation -------------------------------------------
    def _count(self, name: str) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + 1

    def _require_live(self) -> None:
        if self.draining:
            raise HttpError(503, "draining: not accepting new work",
                            {"Retry-After": "5"})

    def _context(self, payload: dict, tenant: Optional[str]
                 ) -> RequestContext:
        priority = payload.get("priority", "normal")
        if priority not in PRIORITIES:
            raise HttpError(400, f"unknown priority {priority!r}; "
                                 f"use one of {PRIORITIES}")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            return RequestContext(priority=priority, tenant=tenant)
        try:
            deadline_ms = float(deadline_ms)
            # json.loads accepts NaN and Infinity: a NaN deadline would
            # never expire, and would erase a dedup twin's deadline.
            if not math.isfinite(deadline_ms) or deadline_ms <= 0:
                raise ValueError
        except (TypeError, ValueError):
            raise HttpError(400, "deadline_ms must be a positive, finite "
                                 "number")
        return RequestContext.with_timeout(deadline_ms, priority=priority,
                                           tenant=tenant)

    def _image(self, obj) -> np.ndarray:
        """A decoded request image whose channel count the model takes,
        or :class:`HttpError` 400."""
        image = decode_array(obj)
        if (self.in_channels is not None
                and image.shape[0] != self.in_channels):
            raise HttpError(400, f"image has {image.shape[0]} channel(s); "
                                 f"the model takes {self.in_channels}")
        return image

    def _method(self, payload: dict) -> str:
        method = payload.get("method")
        if not isinstance(method, str) or not method:
            raise HttpError(400, "missing 'method'")
        if method not in self.engine.explainers:
            raise HttpError(
                404, f"unknown method {method!r}; this engine serves "
                     f"{sorted(self.engine.explainers)}")
        return method

    def _encode_result(self, result, encoding: str, ctx: RequestContext,
                       cache_hit: bool) -> dict:
        return {
            "saliency": encode_array(np.asarray(result.saliency,
                                                dtype=np.float32),
                                     encoding),
            "label": int(result.label),
            "target_label": (None if result.target_label is None
                             else int(result.target_label)),
            "image_digest": result.image_digest,
            "cache_hit": bool(cache_hit),
            "trace_id": ctx.trace_id,
            "priority": ctx.priority,
            "tenant": ctx.tenant,
            "latency_ms": ctx.latency_ms(),
        }

    @staticmethod
    def _translate(exc: Exception) -> HttpError:
        """Engine exception -> wire status (see module docstring)."""
        if isinstance(exc, TenantOverQuota):
            return HttpError(
                429, str(exc),
                {"Retry-After": f"{max(1, round(exc.retry_after_s)):d}"})
        if isinstance(exc, EngineOverloaded):
            return HttpError(503, str(exc), {"Retry-After": "1"})
        if isinstance(exc, DeadlineExceeded):
            return HttpError(504, str(exc))
        return HttpError(500, f"{type(exc).__name__}: {exc}")

    # -- endpoints -----------------------------------------------------
    def explain(self, payload: dict, tenant: Optional[str]
                ) -> Tuple[int, dict]:
        """``POST /v1/explain`` — returns ``(status, body)``.

        Inline mode waits on the engine (still batched across
        concurrent handler threads); ``"mode": "async"`` submits and
        returns a ticket immediately.
        """
        self._require_live()
        self._count("explain")
        method = self._method(payload)
        image = self._image(payload.get("image"))
        label = _class_field(payload.get("label"), "label",
                             self.num_classes)
        target = _class_field(payload.get("target"), "target",
                              self.num_classes)
        # Checked before submitting: a bad encoding must not cost a map.
        encoding = _encoding(payload.get("encoding", "b64"))
        mode = payload.get("mode", "sync")
        if mode not in ("sync", "async"):
            raise HttpError(400, f"unknown mode {mode!r}; "
                                 "use 'sync' or 'async'")
        ctx = self._context(payload, tenant)
        try:
            handle = self.engine.submit_async(image, label, method,
                                              target, ctx=ctx)
        except Exception as exc:           # noqa: BLE001 — translated
            raise self._translate(exc)
        if mode == "async":
            ticket_id = uuid.uuid4().hex
            with self._lock:
                self._purge_tickets_locked()
                self._tickets[ticket_id] = _Ticket(handle, tenant, method,
                                                   encoding)
            return 202, {"ticket": ticket_id,
                         "href": f"/v1/tickets/{ticket_id}",
                         "trace_id": ctx.trace_id}
        try:
            result = handle.result()
        except Exception as exc:           # noqa: BLE001 — translated
            raise self._translate(exc)
        return 200, self._encode_result(result, encoding, ctx,
                                        handle.cache_hit)

    def batch(self, payload: dict, tenant: Optional[str]
              ) -> Tuple[int, dict]:
        """``POST /v1/batch`` — a sweep through ``explain_batch`` so it
        shares admission (and dedup, and both cache tiers) with live
        traffic.  One template context covers the whole batch; stage
        stamps stay per-element."""
        self._require_live()
        self._count("batch")
        method = self._method(payload)
        raw_images = payload.get("images")
        if not isinstance(raw_images, list) or not raw_images:
            raise HttpError(400, "'images' must be a non-empty list")
        images = [self._image(obj) for obj in raw_images]
        labels = [_class_field(value, "labels", self.num_classes)
                  for value in _per_image(payload, "labels", images)]
        targets = [_class_field(value, "targets", self.num_classes)
                   for value in _per_image(payload, "targets", images)]
        encoding = _encoding(payload.get("encoding", "b64"))
        template = self._context(payload, tenant)
        try:
            handles = [
                self.engine.submit_async(images[i], labels[i], method,
                                         targets[i], ctx=template.spawn())
                for i in range(len(images))
            ]
            self.engine.flush(method)
            results = []
            for handle in handles:
                result = handle.result()
                results.append(self._encode_result(
                    result, encoding, handle.ctx, handle.cache_hit))
        except HttpError:
            raise
        except Exception as exc:           # noqa: BLE001 — translated
            raise self._translate(exc)
        return 200, {"count": len(results), "results": results}

    def ticket(self, ticket_id: str, tenant: Optional[str]
               ) -> Tuple[int, dict]:
        """``GET /v1/tickets/<id>`` — ``202`` while pending, ``200``
        with the result exactly once (delivery retires the ticket),
        ``404`` for unknown/expired tickets or another tenant's ticket
        (existence is not leaked across tenants)."""
        self._count("ticket")
        with self._lock:
            self._purge_tickets_locked()
            entry = self._tickets.get(ticket_id)
        if entry is None or entry.tenant != tenant:
            raise HttpError(404, "unknown ticket")
        handle = entry.handle
        if not handle.done:
            # kick(): expire dead requests, dispatch age-ready batches.
            self.engine.kick()
        if not handle.done:
            return 202, {"status": "pending", "ticket": ticket_id}
        with self._lock:
            self._tickets.pop(ticket_id, None)
        try:
            result = handle.result()
        except Exception as exc:           # noqa: BLE001 — translated
            raise self._translate(exc)
        return 200, self._encode_result(result, entry.encoding,
                                        handle.ctx, handle.cache_hit)

    def _purge_tickets_locked(self) -> None:
        now = time.monotonic()
        dead = [tid for tid, t in self._tickets.items()
                if now - t.created > TICKET_TTL_S]
        for tid in dead:
            del self._tickets[tid]

    def stats(self) -> Tuple[int, dict]:
        """``GET /v1/stats`` — engine stats passthrough + service
        counters."""
        self._count("stats")
        with self._lock:
            service = {
                "draining": self.draining,
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "tickets_outstanding": len(self._tickets),
                "counters": dict(self.counters),
                "auth": bool(self.config.api_keys),
            }
        return 200, {"engine": self.engine.stats(), "service": service}

    def health(self) -> Tuple[int, dict]:
        """``GET /healthz`` — liveness + drain state (never auth'd)."""
        self._count("healthz")
        return 200, {
            "status": "draining" if self.draining else "ok",
            "draining": self.draining,
            "methods": sorted(self.engine.explainers),
            "pending": self.engine.pending_count(),
            "uptime_s": round(time.monotonic() - self.started_at, 3),
        }


# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Thin wire layer: route, auth, parse JSON, call the service,
    serialize.  HTTP/1.1 with explicit ``Content-Length`` on every
    response, so clients can keep connections alive (the loopback
    benchmark does)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # Headers and body leave in separate writes; with Nagle on, the
    # second write stalls behind the client's delayed ACK (~40ms per
    # response on loopback, which would dominate every latency number).
    disable_nagle_algorithm = True

    @property
    def service(self) -> ExplainService:
        return self.server.service       # type: ignore[attr-defined]

    def log_message(self, fmt, *args):   # noqa: D102 — quiet by default
        if self.service.config.verbose:
            super().log_message(fmt, *args)

    # -- plumbing ------------------------------------------------------
    def _send(self, status: int, body: dict,
              headers: Optional[Dict[str, str]] = None) -> None:
        data = json.dumps(body, default=_jsonable).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _error(self, err: HttpError) -> None:
        self.service._count(f"error_{err.status}")
        self._send(err.status, {"error": err.message}, err.headers)

    def _json_body(self) -> dict:
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise HttpError(411, "Content-Length required")
        if length < 0:
            # rfile.read(-1) would block until the client hangs up.
            raise HttpError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes exceeds the "
                                 f"{MAX_BODY_BYTES} byte limit")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"malformed JSON: {exc}")
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        return body

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:            # noqa: N802 — http.server API
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                status, body = self.service.health()
            elif path == "/v1/stats":
                tenant = self.service.resolve_tenant(self.headers)
                del tenant               # stats are engine-wide
                status, body = self.service.stats()
            elif path.startswith("/v1/tickets/"):
                tenant = self.service.resolve_tenant(self.headers)
                ticket_id = path[len("/v1/tickets/"):]
                status, body = self.service.ticket(ticket_id, tenant)
            else:
                raise HttpError(404, f"no route {path!r}")
            self._send(status, body)
        except HttpError as err:
            self._error(err)
        except Exception as exc:         # noqa: BLE001 — wire boundary
            self._error(HttpError(500, f"{type(exc).__name__}: {exc}"))

    def do_POST(self) -> None:           # noqa: N802 — http.server API
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/v1/explain":
                tenant = self.service.resolve_tenant(self.headers)
                status, body = self.service.explain(self._json_body(),
                                                    tenant)
            elif path == "/v1/batch":
                tenant = self.service.resolve_tenant(self.headers)
                status, body = self.service.batch(self._json_body(),
                                                  tenant)
            else:
                raise HttpError(404, f"no route {path!r}")
            self._send(status, body)
        except HttpError as err:
            self._error(err)
        except Exception as exc:         # noqa: BLE001 — wire boundary
            self._error(HttpError(500, f"{type(exc).__name__}: {exc}"))


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: ExplainService):
        self.service = service
        super().__init__(address, _Handler)


class HttpDaemon:
    """A running HTTP front end: server + serving thread + service.

    Use :func:`serve` to construct one.  ``with``-friendly:
    ``__exit__`` performs the full graceful sequence (drain, stop,
    close the service — the engine stays the caller's to close).
    """

    def __init__(self, service: ExplainService, server: _Server,
                 thread: threading.Thread):
        self.service = service
        self.server = server
        self.thread = thread
        host, port = server.server_address[:2]
        self.host, self.port = host, port
        self.url = f"http://{host}:{port}"

    @property
    def engine(self) -> ExplainEngine:
        return self.service.engine

    def begin_drain(self) -> None:
        """New POST work gets ``503`` from now on; GETs keep serving."""
        self.service.begin_drain()

    def drain(self) -> None:
        """``begin_drain`` + resolve every queued/in-flight request, so
        all outstanding tickets become deliverable."""
        self.service.drain()

    def shutdown(self) -> None:
        """Stop accepting connections and join the serving thread
        (idempotent).  Call :meth:`drain` first for the graceful
        sequence; this alone is the hard stop."""
        self.server.shutdown()
        self.server.server_close()
        if self.thread.is_alive():
            self.thread.join(timeout=5.0)
        self.service.close()

    def __enter__(self) -> "HttpDaemon":
        return self

    def __exit__(self, *exc) -> bool:
        try:
            self.drain()
        except Exception:                # noqa: BLE001 — shutdown path
            pass
        self.shutdown()
        return False


def serve(engine: ExplainEngine, host: str = "127.0.0.1", port: int = 0,
          config: Optional[ServiceConfig] = None) -> HttpDaemon:
    """Start the HTTP front end over ``engine`` on ``host:port``.

    ``port=0`` binds an ephemeral port (read it back from
    ``daemon.port`` — how the tests and the loopback benchmark avoid
    collisions).  Returns a running :class:`HttpDaemon`; the caller
    keeps ownership of the engine (``daemon`` drains it but never
    closes it).

    Raises ``OSError`` when the address cannot be bound.
    """
    service = ExplainService(engine, config)
    server = _Server((host, port), service)
    thread = threading.Thread(target=server.serve_forever,
                              name="serve-http", daemon=True)
    thread.start()
    return HttpDaemon(service, server, thread)
