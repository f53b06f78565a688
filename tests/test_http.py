"""Tests for the HTTP/JSON service tier (``repro.serve.http``) and the
per-tenant quota admission underneath it: wire round trips, the error
mapping (400/401/404/429/500/503/504), ticket lifecycle, graceful drain,
and the ``tools/serve_daemon.py`` SIGTERM contract."""

import base64
import importlib.util
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from conftest import (CountingClassifier, GatedExplainer, MarkerExplainer,
                      StubExplainer)

from repro.serve import (ExplainEngine, RequestContext, TenantOverQuota,
                         ThreadedExecutor, demo_spec)
from repro.serve.http import (KICK_INTERVAL_S, ApiKey, ExplainService,
                              ServiceConfig, decode_array, encode_array,
                              serve)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _img(i: int, side: int = 4) -> np.ndarray:
    return np.full((1, side, side), float(i), dtype=np.float32)


def _noise(rng, side: int = 4) -> np.ndarray:
    return rng.standard_normal((1, side, side)).astype(np.float32)


# ----------------------------------------------------------------------
# Engine layer: per-tenant quota admission
# ----------------------------------------------------------------------
class TestTenantQuota:
    def _engine(self, **kw):
        kw.setdefault("executor", "serial")
        kw.setdefault("max_batch", 64)
        return ExplainEngine(None, {"stub": StubExplainer()}, **kw)

    def test_over_quota_rejects_while_others_served(self):
        engine = self._engine(tenant_quota=2)
        with engine:
            a1 = engine.submit_async(_img(0), 0, "stub", ctx=RequestContext(tenant="acme"))
            a2 = engine.submit_async(_img(1), 0, "stub", ctx=RequestContext(tenant="acme"))
            with pytest.raises(TenantOverQuota) as err:
                engine.submit_async(_img(2), 0, "stub", ctx=RequestContext(tenant="acme"))
            assert err.value.tenant == "acme"
            assert err.value.quota == 2
            assert err.value.retry_after_s > 0
            # Global capacity remains: another tenant sails in.
            b1 = engine.submit_async(_img(3), 0, "stub", ctx=RequestContext(tenant="globex"))
            engine.drain()
            for h in (a1, a2, b1):
                assert h.result().label == 0
            stats = engine.stats()
            assert stats["quota_rejected"] == 1
            assert stats["tenants"]["acme"]["quota_rejected"] == 1
            assert stats["tenants"]["globex"]["served"] == 1

    def test_completion_releases_the_slice(self):
        engine = self._engine(tenant_quota=1)
        with engine:
            engine.submit_async(_img(0), 0, "stub", ctx=RequestContext(tenant="acme"))
            with pytest.raises(TenantOverQuota):
                engine.submit_async(_img(1), 0, "stub", ctx=RequestContext(tenant="acme"))
            engine.drain()
            # Slot released: the same tenant is admitted again.
            engine.submit_async(_img(2), 0, "stub", ctx=RequestContext(tenant="acme"))
            engine.drain()
            assert engine.stats()["tenants"]["acme"]["served"] == 2

    def test_dedup_attach_is_exempt(self):
        engine = self._engine(tenant_quota=1)
        with engine:
            engine.submit_async(_img(0), 0, "stub", ctx=RequestContext(tenant="acme"))
            # Identical request: attaches to the queued one, no new
            # unique work, so the quota does not reject it.
            h = engine.submit_async(_img(0), 0, "stub", ctx=RequestContext(tenant="acme"))
            engine.drain()
            assert h.result().label == 0

    def test_sync_path_is_charged_too(self):
        engine = self._engine(tenant_quota=1)
        with engine:
            engine.submit_async(_img(0), 0, "stub", ctx=RequestContext(tenant="acme"))
            # Unlike the async-only global `counted` slot, the quota
            # bounds sync ingestion as well.
            with pytest.raises(TenantOverQuota):
                engine.submit(_img(1), 0, "stub", ctx=RequestContext(tenant="acme"))
            engine.drain()

    def test_anonymous_tenant_never_quotad(self):
        engine = self._engine(tenant_quota=1)
        with engine:
            for i in range(4):
                engine.submit_async(_img(i), 0, "stub")
            engine.drain()
            assert engine.stats()["requests_served"] == 4

    def test_per_tenant_override_beats_default(self):
        engine = self._engine(tenant_quota=1,
                              tenant_quotas={"big": 3})
        with engine:
            for i in range(3):
                engine.submit_async(_img(i), 0, "stub", ctx=RequestContext(tenant="big"))
            with pytest.raises(TenantOverQuota):
                engine.submit_async(_img(3), 0, "stub", ctx=RequestContext(tenant="big"))
            engine.drain()

    def test_bad_quota_value_rejected(self):
        with pytest.raises(ValueError):
            self._engine(tenant_quota=0)
        with pytest.raises(ValueError):
            self._engine(tenant_quotas={"t": -1})

    def test_api_key_quota_below_one_rejected(self):
        # The service writes key quotas straight into the engine, past
        # the engine's own check, so the key itself must refuse them.
        for quota in (0, -2):
            with pytest.raises(ValueError):
                ApiKey("t", quota)
        assert ApiKey("t", 1).quota == 1 and ApiKey("t").quota is None

    def test_daemon_flag_quota_below_one_exits(self):
        spec = importlib.util.spec_from_file_location(
            "serve_daemon", TestServeDaemon.SCRIPT)
        daemon_cli = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(daemon_cli)
        with pytest.raises(SystemExit, match="bad --api-key"):
            daemon_cli.parse_api_key("k=t:0")
        assert daemon_cli.parse_api_key("k=t:3") == ("k", ApiKey("t", 3))

    def test_stats_expose_unresolved_held(self):
        engine = self._engine(tenant_quota=4)
        with engine:
            engine.submit_async(_img(0), 0, "stub", ctx=RequestContext(tenant="acme"))
            held = engine.stats()["tenants"]["acme"]["unresolved"]
            assert held == 1
            engine.drain()
            assert "unresolved" not in engine.stats()["tenants"]["acme"]


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_b64_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 5, 7)).astype(np.float32)
        out = decode_array(json.loads(json.dumps(encode_array(arr))))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, arr)

    def test_list_round_trip(self):
        arr = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        np.testing.assert_array_equal(
            decode_array(encode_array(arr, "list")), arr)
        np.testing.assert_array_equal(decode_array(arr.tolist()), arr)

    def test_malformed_rejects_400(self):
        from repro.serve.http import HttpError
        strings = np.full((1, 2, 2), "a")
        complex_ = np.full((1, 2, 2), 1 + 2j, dtype=np.complex64)
        for bad in ({"shape": [2, 2, 2], "b64": "!!notbase64!!"},
                    {"shape": [9, 9, 9], "b64": base64.b64encode(
                        b"\0" * 16).decode()},
                    {"shape": [2, 2], "data": [[1.0, 2.0], [3.0, 4.0]]},
                    "just a string",
                    [[[np.inf]]],
                    {"shape": [1, 2, 2], "dtype": "<U1",
                     "b64": base64.b64encode(strings.tobytes()).decode()},
                    {"shape": [1, 2, 2], "dtype": "<U1",
                     "data": strings.tolist()},
                    {"shape": [1, 2, 2], "dtype": "complex64",
                     "b64": base64.b64encode(complex_.tobytes()).decode()}):
            with pytest.raises(HttpError) as err:
                decode_array(bad)
            assert err.value.status == 400

    def test_bool_image_decodes(self):
        flags = np.random.default_rng(14).random((1, 4, 4)) > 0.5
        out = decode_array(encode_array(flags))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, flags)


# ----------------------------------------------------------------------
# HTTP round trips against a live loopback daemon
# ----------------------------------------------------------------------
class _Client:
    """Tiny urllib wrapper returning (status, body, headers)."""

    def __init__(self, url, key=None):
        self.url = url
        self.key = key

    def __call__(self, method, path, body=None, key="unset"):
        req = urllib.request.Request(self.url + path, method=method)
        if key == "unset":
            key = self.key
        if key:
            req.add_header("X-API-Key", key)
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            req.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(req, data=data,
                                        timeout=30) as resp:
                return resp.status, json.loads(resp.read()), resp.headers
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read()), err.headers

    def raw_post(self, path, payload: bytes, key="unset"):
        req = urllib.request.Request(self.url + path, method="POST")
        if key == "unset":
            key = self.key
        if key:
            req.add_header("X-API-Key", key)
        try:
            with urllib.request.urlopen(req, data=payload,
                                        timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())


@pytest.fixture()
def stack():
    """Demo engine + live daemon with two keyed tenants (acme quota 2,
    globex unquota'd)."""
    spec = demo_spec(("gradcam", "occlusion", "slow"))
    classifier, explainers = spec.materialize()
    engine = ExplainEngine(classifier, explainers, max_batch=8,
                           max_pending=64, policy="reject",
                           executor=ThreadedExecutor(workers=2))
    daemon = serve(engine, port=0, config=ServiceConfig(
        api_keys={"k-acme": ApiKey("acme", 2), "k-glob": ApiKey("globex")}))
    try:
        yield daemon, _Client(daemon.url, key="k-acme")
    finally:
        daemon.drain()
        daemon.shutdown()
        engine.close()


@pytest.fixture()
def counted():
    """Open daemon over a demo gradcam engine whose classifier counts
    its ``predict`` rows; the long flush deadline keeps a ``/v1/batch``
    in one micro-batch."""
    classifier, explainers = demo_spec(("gradcam",)).materialize()
    counting = CountingClassifier(classifier)
    engine = ExplainEngine(counting, explainers, max_batch=8,
                           max_delay_ms=60_000.0,
                           executor=ThreadedExecutor(workers=2))
    daemon = serve(engine, port=0)
    try:
        yield daemon, _Client(daemon.url), counting
    finally:
        daemon.drain()
        daemon.shutdown()
        engine.close()


class TestHttpRoundTrips:
    def test_sync_explain_b64(self, stack):
        daemon, client = stack
        rng = np.random.default_rng(1)
        img = _noise(rng, side=8)
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "gradcam",
                                  "image": encode_array(img)})
        assert status == 200
        sal = np.frombuffer(base64.b64decode(body["saliency"]["b64"]),
                            dtype="<f4").reshape(body["saliency"]["shape"])
        assert sal.shape == (8, 8)
        assert np.isfinite(sal).all()
        assert body["tenant"] == "acme"
        assert body["cache_hit"] is False
        assert body["latency_ms"] is not None
        # Same image again: served from the saliency cache.
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "gradcam",
                                  "image": encode_array(img)})
        assert status == 200 and body["cache_hit"] is True

    def test_label_defaults_to_classifier_argmax(self, stack):
        daemon, client = stack
        rng = np.random.default_rng(2)
        img = _noise(rng, side=8)
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "gradcam",
                                  "image": encode_array(img)})
        assert status == 200
        predicted = int(daemon.engine.classifier.predict(img[None])[0])
        assert body["label"] == predicted

    def test_omitted_label_repeat_is_a_hit_without_predict(self, counted):
        daemon, client, counting = counted
        img = encode_array(_noise(np.random.default_rng(21), 8))
        status, first, _ = client("POST", "/v1/explain",
                                  {"method": "gradcam", "image": img})
        assert status == 200 and first["cache_hit"] is False
        assert counting.rows == [1]
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "gradcam", "label": None,
                                  "image": img})
        assert status == 200 and body["cache_hit"] is True
        assert body["label"] == first["label"]
        assert counting.rows == [1]

    def test_omitted_label_batch_runs_one_predict(self, counted):
        daemon, client, counting = counted
        rng = np.random.default_rng(22)
        images = [_noise(rng, 8) for _ in range(4)]
        status, body, _ = client(
            "POST", "/v1/batch",
            {"method": "gradcam",
             "images": [encode_array(i) for i in images]})
        assert status == 200
        assert counting.rows == [4]
        argmax = counting.inner.predict(np.stack(images))
        assert [r["label"] for r in body["results"]] == list(argmax)

    def test_list_encoding_and_explicit_label(self, stack):
        daemon, client = stack
        img = _img(3, side=8)
        status, body, _ = client(
            "POST", "/v1/explain",
            {"method": "gradcam", "label": 1, "encoding": "list",
             "image": {"shape": [1, 8, 8], "dtype": "float32",
                       "data": img.tolist()}})
        assert status == 200
        assert body["label"] == 1
        assert np.asarray(body["saliency"]["data"]).shape == (8, 8)

    def test_async_ticket_lifecycle(self, stack):
        daemon, client = stack
        rng = np.random.default_rng(3)
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "gradcam", "mode": "async",
                                  "image": encode_array(_noise(rng, 8))})
        assert status == 202
        ticket = body["ticket"]
        assert body["href"].endswith(ticket)
        deadline = time.monotonic() + 15
        while True:
            status, body, _ = client("GET", f"/v1/tickets/{ticket}")
            if status == 200:
                break
            assert status == 202
            assert time.monotonic() < deadline, "ticket never resolved"
            time.sleep(0.02)
        assert body["saliency"]["shape"] == [8, 8]
        # One-shot delivery: the ticket is retired.
        status, _, _ = client("GET", f"/v1/tickets/{ticket}")
        assert status == 404

    def test_tickets_are_tenant_scoped(self, stack):
        daemon, client = stack
        rng = np.random.default_rng(4)
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "gradcam", "mode": "async",
                                  "image": encode_array(_noise(rng, 8))})
        assert status == 202
        status, _, _ = client("GET", f"/v1/tickets/{body['ticket']}",
                              key="k-glob")
        assert status == 404

    def test_batch_round_trip(self, stack):
        daemon, client = stack
        rng = np.random.default_rng(5)
        images = [_noise(rng, 8) for _ in range(5)]
        status, body, _ = client(
            "POST", "/v1/batch",
            {"method": "gradcam", "labels": [0, 1, 0, 1, 0],
             "images": [encode_array(i) for i in images]},
            key="k-glob")
        assert status == 200
        assert body["count"] == 5
        assert [r["label"] for r in body["results"]] == [0, 1, 0, 1, 0]

    def test_stats_and_healthz(self, stack):
        daemon, client = stack
        status, body, _ = client("GET", "/healthz", key=None)
        assert status == 200
        assert body["draining"] is False
        assert body["methods"] == ["gradcam", "occlusion", "slow"]
        status, body, _ = client("GET", "/v1/stats")
        assert status == 200
        assert body["engine"]["tenant_quotas"] == {"acme": 2}
        assert body["service"]["auth"] is True


class TestHttpErrorPaths:
    def test_malformed_json_400(self, stack):
        daemon, client = stack
        status, body = client.raw_post("/v1/explain", b"{nope")
        assert status == 400
        assert "malformed JSON" in body["error"]

    def test_non_object_body_400(self, stack):
        daemon, client = stack
        status, body = client.raw_post("/v1/explain", b"[1, 2]")
        assert status == 400

    def test_missing_and_unknown_method(self, stack):
        daemon, client = stack
        img = encode_array(_img(0, 8))
        status, body, _ = client("POST", "/v1/explain", {"image": img})
        assert status == 400
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "nope", "image": img})
        assert status == 404
        assert "gradcam" in body["error"]

    def test_bad_image_priority_deadline_mode_400(self, stack):
        daemon, client = stack
        img = encode_array(_img(0, 8))
        cases = [
            {"method": "gradcam", "image": "zzz"},
            {"method": "gradcam", "image": img, "priority": "zzz"},
            {"method": "gradcam", "image": img, "deadline_ms": -1},
            {"method": "gradcam", "image": img, "mode": "zzz"},
            {"method": "gradcam", "image": img, "label": "x"},
            {"method": "gradcam",
             "image": encode_array(np.zeros((3, 8, 8), np.float32))},
        ]
        for payload in cases:
            status, _, _ = client("POST", "/v1/explain", payload)
            assert status == 400, payload

    def test_unknown_encoding_400_before_any_compute(self, stack):
        daemon, client = stack
        rng = np.random.default_rng(11)
        img = encode_array(_noise(rng, 8))
        before = daemon.engine.stats()["batches_run"]
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "gradcam", "image": img,
                                  "label": 0, "encoding": "hex"})
        assert status == 400 and "hex" in body["error"]
        status, _, _ = client("POST", "/v1/batch",
                              {"method": "gradcam", "images": [img],
                               "labels": [0], "encoding": "hex"})
        assert status == 400
        assert daemon.engine.stats()["batches_run"] == before

    def test_unknown_encoding_async_gets_no_ticket(self, stack):
        daemon, client = stack
        rng = np.random.default_rng(12)
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "gradcam", "mode": "async",
                                  "image": encode_array(_noise(rng, 8)),
                                  "label": 0, "encoding": "hex"})
        assert status == 400 and "ticket" not in body
        _, stats, _ = client("GET", "/v1/stats")
        assert stats["service"]["tickets_outstanding"] == 0

    def test_non_integer_target_400(self, stack):
        daemon, client = stack
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "gradcam", "target": "x",
                                  "image": encode_array(_img(0, 8))})
        assert status == 400
        assert "'target'" in body["error"]

    def test_out_of_range_label_400_keeps_the_method_serving(self, stack):
        daemon, client = stack
        rng = np.random.default_rng(13)
        status, body, _ = client("POST", "/v1/explain",
                                 {"method": "gradcam", "label": 2,
                                  "image": encode_array(_noise(rng, 8))},
                                 key="k-glob")
        assert status == 400 and "'label'" in body["error"]
        for i in range(5):
            status, _, _ = client("POST", "/v1/explain",
                                  {"method": "gradcam", "label": i % 2,
                                   "image": encode_array(_noise(rng, 8))},
                                  key="k-glob")
            assert status == 200
        status, _, _ = client("POST", "/v1/explain",
                              {"method": "gradcam", "label": 0,
                               "image": encode_array(_noise(rng, 16))},
                              key="k-glob")
        assert status == 200
        assert daemon.engine.pending_count() == 0

    def test_label_and_target_must_be_class_indices(self, stack):
        daemon, client = stack
        img = encode_array(_img(0, 8))
        for field, value in (("label", -1), ("label", 1.7),
                             ("label", True), ("label", "1"),
                             ("target", 5), ("target", -1)):
            status, body, _ = client("POST", "/v1/explain",
                                     {"method": "gradcam", "image": img,
                                      field: value}, key="k-glob")
            assert status == 400, (field, value)
            assert repr(field) in body["error"]

    def test_batch_with_one_bad_label_computes_nothing(self, stack):
        daemon, client = stack
        before = daemon.engine.stats()["batches_run"]
        status, body, _ = client(
            "POST", "/v1/batch",
            {"method": "gradcam", "labels": [0, 9],
             "images": [encode_array(_img(i, 8)) for i in range(2)]},
            key="k-glob")
        assert status == 400 and "'labels'" in body["error"]
        assert daemon.engine.stats()["batches_run"] == before
        assert daemon.engine.pending_count() == 0

    def test_batch_with_one_wrong_channel_count_computes_nothing(self,
                                                                stack):
        daemon, client = stack
        before = daemon.engine.stats()["batches_run"]
        status, body, _ = client(
            "POST", "/v1/batch",
            {"method": "gradcam",
             "images": [encode_array(_img(0, 8)),
                        encode_array(np.zeros((3, 8, 8), np.float32))]},
            key="k-glob")
        assert status == 400
        assert "3 channel(s)" in body["error"] and "takes 1" in body["error"]
        assert daemon.engine.stats()["batches_run"] == before
        assert daemon.engine.pending_count() == 0

    def test_failed_request_500_keeps_the_method_serving(self):
        engine = ExplainEngine(None, {"marker": MarkerExplainer()},
                               max_batch=8,
                               executor=ThreadedExecutor(workers=2))
        daemon = serve(engine, port=0)
        client = _Client(daemon.url)
        bad = _img(0, 8)
        bad[0, 0, 0] = MarkerExplainer.MARKER
        try:
            status, body, _ = client("POST", "/v1/explain",
                                     {"method": "marker", "label": 0,
                                      "image": encode_array(bad)})
            assert status == 500 and "marked" in body["error"]
            for side in (8, 16):           # its own queue, then another
                status, body, _ = client("POST", "/v1/explain",
                                         {"method": "marker", "label": 0,
                                          "image": encode_array(
                                              _img(1, side))})
                assert status == 200
                assert body["saliency"]["shape"] == [side, side]
            # A /v1/batch fails when any one of its maps failed.
            status, _, _ = client("POST", "/v1/batch",
                                  {"method": "marker", "labels": [0, 0],
                                   "images": [encode_array(_img(2, 8)),
                                              encode_array(bad)]})
            assert status == 500
            assert engine.pending_count() == 0
        finally:
            daemon.drain()
            daemon.shutdown()
            engine.close()

    def test_idle_service_runs_no_batch_after_a_failure(self):
        # The kicker dispatches the failed request once; with nothing
        # requeued, an idle service then runs no batch at all.
        marker = MarkerExplainer()
        engine = ExplainEngine(None, {"marker": marker}, max_batch=8,
                               executor=ThreadedExecutor(workers=1))
        service = ExplainService(engine)
        bad = _img(0, 8)
        bad[0, 0, 0] = MarkerExplainer.MARKER
        try:
            handle = engine.submit_async(bad, 0, "marker")
            deadline = time.monotonic() + 10
            while not marker.batch_sizes and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(20 * KICK_INTERVAL_S)
            assert marker.batch_sizes == [1]
            assert handle.done and engine.pending_count() == 0
        finally:
            service.close()
            engine.close()

    def test_non_integer_batch_label_400(self, stack):
        daemon, client = stack
        status, body, _ = client(
            "POST", "/v1/batch",
            {"method": "gradcam", "labels": [0, "x"],
             "images": [encode_array(_img(i, 8)) for i in range(2)]},
            key="k-glob")
        assert status == 400
        assert "'labels'" in body["error"]

    def test_non_integer_batch_target_400(self, stack):
        daemon, client = stack
        status, body, _ = client(
            "POST", "/v1/batch",
            {"method": "gradcam", "targets": [None, "x"],
             "images": [encode_array(_img(i, 8)) for i in range(2)]},
            key="k-glob")
        assert status == 400
        assert "'targets'" in body["error"]

    def test_negative_content_length_400(self, stack):
        # Reading a body of length -1 would block until the client hung
        # up; the reply must come back without the client closing.
        import socket
        daemon, _ = stack
        with socket.create_connection((daemon.host, daemon.port),
                                      timeout=2.0) as sock:
            sock.sendall(b"POST /v1/explain HTTP/1.1\r\n"
                         b"Host: localhost\r\nX-API-Key: k-acme\r\n"
                         b"Content-Length: -1\r\n\r\n")
            status_line = sock.recv(4096).split(b"\r\n", 1)[0]
        assert status_line.split()[1] == b"400"

    def test_unknown_route_404(self, stack):
        daemon, client = stack
        assert client("GET", "/v1/zzz")[0] == 404
        assert client("POST", "/v2/explain", {})[0] == 404

    def test_unauthenticated_401(self, stack):
        daemon, client = stack
        status, body, headers = client("GET", "/v1/stats", key=None)
        assert status == 401
        assert headers.get("WWW-Authenticate") == "Bearer"
        status, _, _ = client("GET", "/v1/stats", key="wrong")
        assert status == 401
        # healthz stays open.
        assert client("GET", "/healthz", key=None)[0] == 200

    def test_bearer_header_accepted(self, stack):
        daemon, client = stack
        req = urllib.request.Request(daemon.url + "/v1/stats")
        req.add_header("Authorization", "Bearer k-acme")
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 200

    def test_over_quota_429_with_retry_after(self, stack):
        daemon, client = stack
        rng = np.random.default_rng(6)
        codes, retry = [], None
        for _ in range(3):
            status, body, headers = client(
                "POST", "/v1/explain",
                {"method": "slow", "mode": "async",
                 "image": encode_array(_noise(rng, 12))})
            codes.append(status)
            if status == 429:
                retry = headers.get("Retry-After")
                assert "quota" in body["error"]
        assert codes == [202, 202, 429]
        assert retry is not None and int(retry) >= 1
        # The other tenant is still served: global capacity remains.
        status, _, _ = client(
            "POST", "/v1/explain",
            {"method": "slow", "mode": "async",
             "image": encode_array(_noise(rng, 12))}, key="k-glob")
        assert status == 202

    def test_expired_deadline_maps_to_504(self, stack):
        daemon, client = stack
        rng = np.random.default_rng(7)
        status, body, _ = client(
            "POST", "/v1/explain",
            {"method": "occlusion", "mode": "async", "deadline_ms": 0.01,
             "image": encode_array(_noise(rng, 16))})
        assert status == 202
        ticket = body["ticket"]
        deadline = time.monotonic() + 15
        while True:
            status, body, _ = client("GET", f"/v1/tickets/{ticket}")
            if status != 202:
                break
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert status == 504


class TestDrain:
    def test_drain_rejects_new_work_resolves_tickets(self):
        gated = GatedExplainer()
        engine = ExplainEngine(None, {"gated": gated}, max_batch=4,
                               executor=ThreadedExecutor(workers=1))
        daemon = serve(engine, port=0)
        client = _Client(daemon.url)
        try:
            status, body, _ = client(
                "POST", "/v1/explain",
                {"method": "gated", "mode": "async", "label": 0,
                 "image": encode_array(_img(0))})
            assert status == 202
            ticket = body["ticket"]
            assert gated.entered.wait(timeout=10)

            daemon.begin_drain()
            # New POST work is refused with Retry-After...
            status, body, headers = client(
                "POST", "/v1/explain",
                {"method": "gated", "label": 0,
                 "image": encode_array(_img(1))})
            assert status == 503
            assert headers.get("Retry-After")
            # ...but liveness and polling still answer.
            status, body, _ = client("GET", "/healthz")
            assert status == 200 and body["draining"] is True
            assert client("GET", f"/v1/tickets/{ticket}")[0] == 202

            gated.release.set()
            drained = threading.Thread(target=daemon.drain)
            drained.start()
            drained.join(timeout=20)
            assert not drained.is_alive()
            # The in-flight ticket resolved during the drain.
            status, body, _ = client("GET", f"/v1/tickets/{ticket}")
            assert status == 200
            assert body["saliency"]["shape"] == [4, 4]
        finally:
            gated.release.set()
            daemon.shutdown()
            engine.close()


# ----------------------------------------------------------------------
# The daemon process: READY line, traffic, SIGTERM drain, exit 0
# ----------------------------------------------------------------------
class TestServeDaemon:
    SCRIPT = os.path.join(REPO_ROOT, "tools", "serve_daemon.py")

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="POSIX signal semantics")
    def test_sigterm_drains_and_exits_clean(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, self.SCRIPT, "--port", "0",
             "--methods", "gradcam,slow", "--executor", "threaded",
             "--workers", "1", "--api-key", "secret=acme",
             "--linger-s", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
        try:
            ready = proc.stdout.readline()
            assert ready.startswith("READY "), ready
            url = ready.split()[1]
            client = _Client(url, key="secret")

            status, body, _ = client("GET", "/healthz", key=None)
            assert status == 200 and "slow" in body["methods"]

            status, body, _ = client(
                "POST", "/v1/explain",
                {"method": "gradcam", "encoding": "list",
                 "image": _img(1, side=6).tolist()})
            assert status == 200

            # Park an in-flight slow request (200ms demo method),
            # then SIGTERM: the drain contract must resolve it and the
            # linger window must let us collect it.
            status, body, _ = client(
                "POST", "/v1/explain",
                {"method": "slow", "mode": "async",
                 "image": encode_array(_img(2, side=6))})
            assert status == 202
            ticket = body["ticket"]

            proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 10
            resolved = None
            while time.monotonic() < deadline:
                try:
                    status, body, _ = client("GET",
                                             f"/v1/tickets/{ticket}")
                except (urllib.error.URLError, ConnectionError,
                        OSError):
                    break
                if status == 200:
                    resolved = body
                    break
                assert status in (202, 503)
                time.sleep(0.05)
            assert resolved is not None, \
                "in-flight ticket did not resolve during drain"
            assert resolved["saliency"]["shape"] == [6, 6]

            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert "STOPPED" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


    @pytest.mark.skipif(sys.platform == "win32",
                        reason="POSIX signal semantics")
    def test_failed_request_then_sigterm_exits_clean(self):
        proc = subprocess.Popen(
            [sys.executable, self.SCRIPT, "--port", "0",
             "--methods", "gradcam,boom", "--executor", "threaded",
             "--workers", "1", "--linger-s", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
        try:
            ready = proc.stdout.readline()
            assert ready.startswith("READY "), ready
            client = _Client(ready.split()[1])
            status, body, _ = client(
                "POST", "/v1/explain",
                {"method": "boom", "image": _img(1, side=6).tolist()})
            assert status == 500 and "injected" in body["error"]
            status, _, _ = client(
                "POST", "/v1/explain",
                {"method": "gradcam", "image": _img(1, side=6).tolist()})
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert "STOPPED" in out
            assert "Traceback" not in err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


# ----------------------------------------------------------------------
# check_bench gates the http keys
# ----------------------------------------------------------------------
class TestHttpBenchGate:
    SCRIPT = os.path.join(REPO_ROOT, "tools", "check_bench.py")

    def test_committed_baseline_has_http_section(self):
        with open(os.path.join(REPO_ROOT, "BENCH_serve.json")) as fh:
            doc = json.load(fh)
        section = doc["current"]["http"]
        assert section["http_rps"] > 0
        assert section["http_p95_ms"] > 0

    def test_rps_regression_fails_the_gate(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(
            {"current": {"http": {"http_rps": 500.0}}}))
        cur.write_text(json.dumps(
            {"ci": {"http": {"http_rps": 10.0}}}))
        proc = subprocess.run(
            [sys.executable, self.SCRIPT, str(base), str(cur),
             "--current-label", "ci"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "http_rps" in proc.stdout + proc.stderr
