#!/usr/bin/env python
"""Run the ``repro.serve`` HTTP/JSON daemon over a demo engine.

This is the network entry point for the serving stack: it builds an
:class:`~repro.serve.ExplainEngine` (seeded demo classifier +
explainers from :func:`~repro.serve.demo_spec` — swap in a real spec
for a trained model), wraps it in :func:`repro.serve.http.serve`, and
handles SIGTERM/SIGINT with the graceful sequence the engine's
``close()`` contract defines: stop admitting (new POSTs get 503),
drain every queued/in-flight request so outstanding tickets resolve,
then stop the listener and exit 0.

Usage::

    PYTHONPATH=src python tools/serve_daemon.py --port 8787 \
        --api-key secret1=acme:4 --api-key secret2=globex

    curl -s -X POST localhost:8787/v1/explain \
        -H 'X-API-Key: secret1' -H 'Content-Type: application/json' \
        -d '{"method": "gradcam", "encoding": "list",
             "image": [[[0.1, 0.9], [0.5, 0.2]]]}'

Flags fall back to ``REPRO_SERVE_*`` environment knobs (flag wins):
``REPRO_SERVE_HOST``, ``REPRO_SERVE_PORT``, ``REPRO_SERVE_EXECUTOR``,
``REPRO_SERVE_WORKERS``, ``REPRO_SERVE_API_KEYS`` (comma-separated
``KEY=TENANT[:QUOTA]`` entries), ``REPRO_SERVE_STORE`` (persistent
saliency store directory).  See docs/operations.md for the full
operator guide.

On startup the daemon prints one machine-readable ready line::

    READY http://127.0.0.1:8787 methods=gradcam,occlusion

— the CI smoke job and the subprocess tests wait for it before sending
traffic.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.serve import ExplainEngine, SaliencyStore, demo_spec, make_executor  # noqa: E402
from repro.serve.http import ApiKey, ServiceConfig, serve  # noqa: E402


def parse_api_key(entry: str) -> tuple:
    """``KEY=TENANT[:QUOTA]`` -> ``(key, ApiKey)``."""
    try:
        key, rest = entry.split("=", 1)
        if ":" in rest:
            tenant, quota = rest.rsplit(":", 1)
            info = ApiKey(tenant, int(quota))
        else:
            info = ApiKey(rest)
        if not key or not info.tenant:
            raise ValueError
        return key, info
    except ValueError:
        raise SystemExit(
            f"bad --api-key {entry!r}: expected KEY=TENANT[:QUOTA], "
            "QUOTA >= 1")


def build_parser() -> argparse.ArgumentParser:
    env = os.environ.get
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--host", default=env("REPRO_SERVE_HOST", "127.0.0.1"),
                   help="bind address (loopback by default; this daemon "
                        "expects a proxy in front for anything else)")
    p.add_argument("--port", type=int,
                   default=int(env("REPRO_SERVE_PORT", "8787")),
                   help="bind port (0 = ephemeral, printed on the READY "
                        "line)")
    p.add_argument("--methods", default="gradcam,occlusion",
                   help="comma-separated demo explainer methods")
    p.add_argument("--executor",
                   default=env("REPRO_SERVE_EXECUTOR", "threaded"),
                   choices=("serial", "threaded", "process"),
                   help="compute executor behind the engine")
    p.add_argument("--workers", type=int,
                   default=int(env("REPRO_SERVE_WORKERS", "0")) or None,
                   help="executor worker count (default: executor's own)")
    p.add_argument("--max-batch", type=int, default=16,
                   help="micro-batch size limit")
    p.add_argument("--max-delay-ms", type=float, default=25.0,
                   help="micro-batch flush deadline")
    p.add_argument("--max-pending", type=int, default=256,
                   help="global admission bound on unresolved requests")
    p.add_argument("--policy", default="reject",
                   choices=("block", "reject"),
                   help="global admission policy when max-pending is hit "
                        "(a network daemon should reject -> 503, not tie "
                        "up handler threads)")
    p.add_argument("--tenant-quota", type=int, default=None,
                   help="default per-tenant unresolved-request slice "
                        "(429 + Retry-After past it); per-key quotas "
                        "override")
    p.add_argument("--api-key", action="append", default=None,
                   metavar="KEY=TENANT[:QUOTA]",
                   help="repeatable API key entry; with none, the "
                        "service is open (anonymous tenant)")
    p.add_argument("--store", default=env("REPRO_SERVE_STORE"),
                   help="directory for the persistent saliency store "
                        "(warm restarts); default: cache only")
    p.add_argument("--cache-size", type=int, default=512,
                   help="in-memory saliency cache capacity (entries)")
    p.add_argument("--seed", type=int, default=0,
                   help="demo engine weight seed")
    p.add_argument("--linger-s", type=float, default=0.5,
                   help="window between drain and listener shutdown in "
                        "which clients can still collect resolved "
                        "tickets")
    p.add_argument("--verbose", action="store_true",
                   help="log one line per request to stderr")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    spec = demo_spec(methods, seed=args.seed)
    classifier, explainers = spec.materialize()
    executor = make_executor(args.executor, spec=spec, workers=args.workers)
    store = SaliencyStore(args.store) if args.store else None

    api_keys = None
    if args.api_key is None and os.environ.get("REPRO_SERVE_API_KEYS"):
        args.api_key = [e for e in
                        os.environ["REPRO_SERVE_API_KEYS"].split(",") if e]
    if args.api_key:
        api_keys = dict(parse_api_key(entry) for entry in args.api_key)

    engine = ExplainEngine(
        classifier, explainers,
        max_batch=args.max_batch, max_delay_ms=args.max_delay_ms,
        cache_size=args.cache_size,
        max_pending=args.max_pending, policy=args.policy,
        tenant_quota=args.tenant_quota,
        executor=executor, store=store)

    daemon = serve(engine, args.host, args.port,
                   ServiceConfig(api_keys=api_keys, verbose=args.verbose))
    print(f"READY {daemon.url} methods={','.join(sorted(methods))}",
          flush=True)

    done = threading.Event()

    def _graceful(signum, frame):
        del frame
        print(f"signal {signum}: draining", file=sys.stderr, flush=True)
        done.set()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    # Timed wait, not a bare wait(): the kernel may deliver the signal
    # to any thread, and a main thread parked in an untimed lock
    # acquire never re-enters the interpreter to run the Python-level
    # handler.  Waking periodically bounds the drain response to the
    # interval no matter which thread caught the signal.
    while not done.wait(0.5):
        pass

    # Graceful sequence: refuse new POSTs, resolve everything in
    # flight (tickets become deliverable), linger so pollers can
    # collect, stop the listener, release the engine (which drains
    # again, harmlessly, then closes the executor/store).
    daemon.drain()
    if args.linger_s > 0:
        time.sleep(args.linger_s)
    daemon.shutdown()
    engine.close()
    print("STOPPED", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
