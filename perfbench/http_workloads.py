"""``http_hot`` and ``http_cold``: the shipped daemon driven over
loopback by this process.

Both workloads send gradcam:occlusion = 3:1, some bodies without
``label`` (``label_omitted_share`` in workloads.json), to a daemon
started as its own process.
``http_hot`` repeats a Zipf-skewed hot set that a preparation pass
already wrote to the store; ``http_cold`` sends a new image every time.
"""

from __future__ import annotations

import base64
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

import loadgen
import stats
from daemon import Daemon

METHODS = ("gradcam", "occlusion")

# Settings both HTTP workloads share (the rest is in workloads.json).
OCCLUSION_SHARE = 0.25     # gradcam:occlusion = 3:1
THREADS = 2                # open-loop senders = keep-alive connections = nproc
WORKERS = 2                # process-pool size (http_cold, hot preparation)
SETUP_REPEATS = 5          # daemon starts per run; setup_s is their median
WARMUP_S = 1.0             # untimed load before the nominal phase
#: The objective and the tail reported as ``latency_p95_ms``: p99 would
#: need 1000 samples at the nominal rate, p95 needs 200.
SLO_PERCENTILE = 95.0
#: A phase whose p99 send lag exceeds this is invalid.  The sender's own
#: p99 lag is under 0.5 ms on a quiet host; stalls of a busy shared host
#: reach 10-15 ms and are the system's latency, not a broken generator.
LAG_BOUND_MS = 20.0
PHASE_ATTEMPTS = 2         # a traced phase runs again if it lagged
CYCLES = 3                 # nominal + saturated phase pairs per run
WINDOW_S = 1.0             # throughput windows of the saturated phases
CHECKED_MAPS = 12          # saliency maps compared per run
SALIENCY_TOLERANCE = 1e-3  # peak-relative, against the tape reference
DEMO_SEED = 0              # the daemon's default --seed
MIN_COVERAGE = 0.9         # traced runs fail when spans explain less


# ----------------------------------------------------------------------
# Inputs.  Everything derives from the run's seed; the daemon only sees
# the request bodies.
def wire_image(image: np.ndarray) -> dict:
    """The daemon's documented ``b64`` array form."""
    little = np.ascontiguousarray(image, dtype="<f4")
    return {"shape": list(image.shape), "dtype": "float32",
            "b64": base64.b64encode(little.tobytes()).decode("ascii")}


def explain_body(image: np.ndarray, method: str,
                 label: Optional[int]) -> bytes:
    payload = {"method": method, "image": wire_image(image)}
    if label is not None:
        payload["label"] = int(label)
    return json.dumps(payload).encode()


class Mix:
    """The request mix: method 3:1, ``label`` omitted at the workload's
    share."""

    def __init__(self, rng: np.random.Generator, cfg: dict):
        self.rng = rng
        self.omit_share = cfg["label_omitted_share"]

    def _exact(self, n: int, share: float) -> np.ndarray:
        """``n`` flags, exactly ``round(n * share)`` of them set, in a
        seeded order: every phase carries the mix itself, not a draw
        around it."""
        flags = np.arange(n) < int(round(n * share))
        return self.rng.permutation(flags)

    def draw(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """``n`` (method index, label omitted) pairs."""
        methods = self._exact(n, OCCLUSION_SHARE).astype(int)
        omitted = self._exact(n, self.omit_share)
        return methods, omitted


class Request:
    """What the benchmark remembers about one request it sent."""

    __slots__ = ("image_id", "method", "label")

    def __init__(self, image_id: int, method: str, label: Optional[int]):
        self.image_id = image_id
        self.method = method
        self.label = label


class HotInputs:
    """A fixed set of images, each with a supplied label; requests pick
    an image by Zipf rank."""

    def __init__(self, rng: np.random.Generator, cfg: dict):
        side = cfg["image_side"]
        n = cfg["hot_images"]
        self.images = rng.standard_normal((n, 1, side, side)).astype(
            np.float32)
        self.given = rng.integers(0, 2, n)
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** -cfg["zipf_s"]
        self.popularity = weights / weights.sum()
        self.order = rng.permutation(n)
        self.rng = rng
        self.mix = Mix(rng, cfg)
        self._bodies: Dict[Tuple[int, str, bool], bytes] = {}

    def hot_set(self) -> List[Tuple[int, str, bool]]:
        """Every distinct request body: image x method x label mode."""
        return [(i, m, omit) for i in range(len(self.images))
                for m in METHODS for omit in (False, True)]

    def body(self, key: Tuple[int, str, bool]) -> bytes:
        if key not in self._bodies:
            i, method, omit = key
            self._bodies[key] = explain_body(
                self.images[i], method, None if omit else self.given[i])
        return self._bodies[key]

    def stream(self, n: int) -> Tuple[List[bytes], List[Request]]:
        picks = self.order[self.rng.choice(len(self.images), size=n,
                                           p=self.popularity)]
        methods, omitted = self.mix.draw(n)
        bodies, requests = [], []
        for i, m, omit in zip(picks, methods, omitted):
            key = (int(i), METHODS[m], bool(omit))
            bodies.append(self.body(key))
            requests.append(Request(int(i), METHODS[m],
                                    None if omit else int(self.given[i])))
        return bodies, requests

    def image(self, image_id: int) -> np.ndarray:
        return self.images[image_id]


class ColdInputs:
    """A new image for every request."""

    def __init__(self, rng: np.random.Generator, cfg: dict):
        self.side = cfg["image_side"]
        self.rng = rng
        self.mix = Mix(rng, cfg)
        self.images: List[np.ndarray] = []

    def stream(self, n: int) -> Tuple[List[bytes], List[Request]]:
        fresh = self.rng.standard_normal(
            (n, 1, self.side, self.side)).astype(np.float32)
        given = self.rng.integers(0, 2, n)
        methods, omitted = self.mix.draw(n)
        bodies, requests = [], []
        for k in range(n):
            image_id = len(self.images)
            self.images.append(fresh[k])
            label = None if omitted[k] else int(given[k])
            method = METHODS[methods[k]]
            bodies.append(explain_body(fresh[k], method, label))
            requests.append(Request(image_id, method, label))
        return bodies, requests

    def image(self, image_id: int) -> np.ndarray:
        return self.images[image_id]


# ----------------------------------------------------------------------
# Output checks against an in-process reference of the same demo spec.
class Reference:
    """The daemon's demo models, built here: the classifier's argmax for
    label-omitted requests and tape saliency for sampled responses."""

    def __init__(self, seed: int):
        from repro.serve import demo_spec
        self.classifier, self.explainers = demo_spec(
            METHODS, seed=seed).materialize()

    def argmax(self, images: np.ndarray) -> np.ndarray:
        return self.classifier.predict(images)

    def saliency(self, image: np.ndarray, label: int,
                 method: str) -> np.ndarray:
        from repro import nn
        explainer = self.explainers[method]
        labels = np.array([label], dtype=np.int64)
        if getattr(explainer, "needs_gradients", False):
            result = explainer.explain_batch(image[None], labels)
        else:
            with nn.no_grad():
                result = explainer.explain_batch(image[None], labels)
        return np.asarray(result[0].saliency, dtype=np.float32)


def decode_saliency(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["b64"])
    return np.frombuffer(raw, dtype="<f4").reshape(obj["shape"])


def check_phase(phase: loadgen.Phase, requests: List[Request], inputs,
                reference: Reference, sample: List[int], tolerance: float,
                failures: List[str]) -> Tuple[int, int]:
    """Mark wrong outputs on ``phase``.  Every 200 response is parsed and
    its label checked (the argmax when the body omitted ``label``);
    the responses at ``sample`` are compared with a tape reference at
    peak-relative ``tolerance``.  Returns ``(labels, maps)`` checked."""
    decoded: Dict[int, dict] = {}
    omitted = [i for i in range(phase.n)
               if phase.status[i] == 200 and requests[i].label is None]
    want = {}
    if omitted:
        ids = sorted({requests[i].image_id for i in omitted})
        argmax = dict(zip(ids, (int(v) for v in reference.argmax(
            np.stack([inputs.image(k) for k in ids])))))
        want = {i: argmax[requests[i].image_id] for i in omitted}
    labels = 0
    for i in range(phase.n):
        if phase.status[i] != 200:
            continue
        try:
            decoded[i] = json.loads(phase.body[i])
        except ValueError:
            phase.wrong.add(i)
            failures.append(f"{phase.name}[{i}]: response is not JSON")
            continue
        expected = want.get(i, requests[i].label)
        labels += 1
        if decoded[i].get("label") != expected:
            phase.wrong.add(i)
            failures.append(f"{phase.name}[{i}]: label "
                            f"{decoded[i].get('label')} != {expected}")
    maps = 0
    for i in sample:
        if i not in decoded or i in phase.wrong:
            continue
        req = requests[i]
        got = decode_saliency(decoded[i]["saliency"])
        ref = reference.saliency(inputs.image(req.image_id),
                                 decoded[i]["label"], req.method)
        err = stats.peak_relative_error(got, ref)
        maps += 1
        if not err <= tolerance:
            phase.wrong.add(i)
            failures.append(f"{phase.name}[{i}] {req.method}: saliency "
                            f"peak-relative error {err:.2e}")
    return labels, maps


# ----------------------------------------------------------------------
class HttpRun:
    """One run of an HTTP workload (see ``workloads.json``)."""

    def __init__(self, name: str, cfg: dict, root: str, work: str,
                 seed: int, seconds: float):
        self.name = name
        self.cfg = cfg
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.rng = np.random.default_rng([seed, 1])
        self.hot = name == "http_hot"
        self.inputs = (HotInputs(self.rng, cfg) if self.hot
                       else ColdInputs(self.rng, cfg))
        self.phases: List[Tuple[loadgen.Phase, List[Request]]] = []
        self.failures: List[str] = []
        self.report: Dict[str, object] = {}
        self._stores = 0

    # -- daemon lifecycle ------------------------------------------------
    def _store_dir(self, fresh: bool) -> str:
        if fresh:
            self._stores += 1
        path = os.path.join(self.work, f"store{self._stores}")
        os.makedirs(path, exist_ok=True)
        return path

    def daemon_args(self, store: str) -> List[str]:
        args = ["--store", store]
        if self.hot:
            args += ["--cache-size",
                     str(len(self.inputs.hot_set()) // 2)]
        else:
            args += ["--executor", "process", "--workers", str(WORKERS)]
        return args

    def launch(self, store: str, traced: bool = False,
               spans_path: Optional[str] = None) -> Tuple[Daemon, float]:
        """Start a daemon and answer one request: returns the daemon and
        seconds from launch until that first answer."""
        daemon = Daemon(self.root, self.daemon_args(store),
                        os.path.join(self.work, "daemon.log"),
                        traced=traced, spans_path=spans_path)
        launched = daemon.start()
        bodies, _ = self.inputs.stream(1)
        try:
            status, data = loadgen.request(daemon.host, daemon.port,
                                           "POST", "/v1/explain", bodies[0])
            ready = time.monotonic() - launched
            if status != 200:
                raise RuntimeError(f"first request answered {status}: "
                                   f"{data[:200]!r}")
        except BaseException:
            daemon.stop()
            raise
        return daemon, ready

    def prepare_store(self) -> str:
        """``http_hot`` only: compute the whole hot set into a store
        with a daemon no metric times (a process pool, fed from two
        threads so both workers compute), then stop it so the store is
        flushed."""
        store = self._store_dir(fresh=True)
        daemon = Daemon(self.root, ["--store", store, "--executor",
                                    "process", "--workers", str(WORKERS)],
                        os.path.join(self.work, "daemon.log"))
        daemon.start()
        inputs = self.inputs
        chunk = 16
        payloads = []
        for method in METHODS:
            for omit in (False, True):
                for start in range(0, len(inputs.images), chunk):
                    ids = range(start, min(start + chunk,
                                           len(inputs.images)))
                    payload = {"method": method,
                               "images": [wire_image(inputs.images[i])
                                          for i in ids]}
                    if not omit:
                        payload["labels"] = [int(inputs.given[i])
                                             for i in ids]
                    payloads.append(json.dumps(payload).encode())
        try:
            with ThreadPoolExecutor(THREADS) as pool:
                answers = list(pool.map(
                    lambda body: loadgen.request(daemon.host, daemon.port,
                                                 "POST", "/v1/batch", body),
                    payloads))
        finally:
            daemon.stop()
        for status, data in answers:
            if status != 200:
                raise RuntimeError(f"preparation batch answered {status}: "
                                   f"{data[:200]!r}")
        return store

    def setup(self) -> Tuple[Daemon, List[float]]:
        """Start the daemon :data:`SETUP_REPEATS` times; every start but
        the last is stopped again.  Returns the running daemon and the
        launch-to-first-answer seconds of every start."""
        times = []
        for k in range(SETUP_REPEATS):
            store = (self.store if self.hot
                     else self._store_dir(fresh=True))
            daemon, ready = self.launch(store)
            times.append(ready)
            if k == SETUP_REPEATS - 1:
                return daemon, times
            daemon.stop()
        raise AssertionError("unreachable")

    # -- phases ------------------------------------------------------------
    def phase(self, daemon: Daemon, name: str, rate: Optional[float],
              seconds: float, keep: bool = True,
              threads: int = THREADS) -> loadgen.Phase:
        """Open loop at ``rate``, or closed loop for ``seconds`` when
        ``rate`` is None (bodies for up to ``saturation_cap_rps``)."""
        cap = rate if rate is not None else self.cfg["saturation_cap_rps"]
        bodies, requests = self.inputs.stream(max(1, int(round(cap
                                                               * seconds))))
        phase = loadgen.run_phase(name, daemon.host, daemon.port, bodies,
                                  rate, threads=threads, seconds=seconds)
        if keep:
            self.phases.append((phase, requests[:phase.n]))
        return phase

    def phase_health(self, phase: loadgen.Phase) -> dict:
        lags = phase.send_lags_ms()
        lag_p99 = stats.percentile(lags, 99.0)
        health = dict(phase.counts())
        health["rate"] = phase.rate
        health["send_lag_p99_ms"] = lag_p99
        health["valid"] = lag_p99 <= LAG_BOUND_MS
        return health

    def stats_snapshot(self, daemon: Daemon) -> dict:
        status, data = loadgen.request(daemon.host, daemon.port, "GET",
                                       "/v1/stats")
        if status != 200:
            raise RuntimeError(f"GET /v1/stats answered {status}")
        return json.loads(data)

    def check_outputs(self) -> None:
        """Check every response's label and a seeded sample of
        :data:`CHECKED_MAPS` maps drawn from the whole run."""
        reference = Reference(DEMO_SEED)
        answered = [(k, i) for k, (phase, _) in enumerate(self.phases)
                    for i in range(phase.n) if phase.status[i] == 200]
        picks = np.random.default_rng([self.seed, 2]).choice(
            len(answered), size=min(CHECKED_MAPS, len(answered)),
            replace=False) if answered else []
        sample: Dict[int, List[int]] = {}
        for pick in sorted(picks):
            k, i = answered[pick]
            sample.setdefault(k, []).append(i)
        labels = maps = 0
        for k, (phase, requests) in enumerate(self.phases):
            got = check_phase(phase, requests, self.inputs, reference,
                              sample.get(k, []), SALIENCY_TOLERANCE,
                              self.failures)
            labels += got[0]
            maps += got[1]
        self.report["checked_labels"] = labels
        self.report["checked_maps"] = maps

    # -- the run ------------------------------------------------------------
    def run(self) -> dict:
        started = time.monotonic()
        if self.hot:
            self.store = self.prepare_store()
        prepared = time.monotonic()
        daemon, setups = self.setup()
        self.report["wall_s"] = {"prepare": prepared - started,
                                 "setup": time.monotonic() - prepared}
        try:
            return self._measure(daemon, setups)
        finally:
            daemon.stop()

    def _measure(self, daemon: Daemon, setups: List[float]) -> dict:
        """Warm up, then :data:`CYCLES` times serve the nominal rate open
        loop (the latency metrics) and saturate the daemon closed loop
        (the throughput: the interquartile mean over :data:`WINDOW_S`
        windows of the successful requests per second, a window that
        misses the latency limit at p95 counting as 0; see
        :func:`stats.window_rates`).  Alternating spreads both over the
        whole run, so a slow spell of the host weighs on both alike."""
        cfg = self.cfg
        nominal = cfg["nominal_rate"]
        nominal_s = self.seconds * cfg["nominal_share"] / CYCLES
        saturated_s = self.seconds * (1.0 - cfg["nominal_share"]) / CYCLES
        self.phase(daemon, "warmup", nominal, WARMUP_S, keep=False)
        nominal_phases: List[loadgen.Phase] = []
        saturated_phases: List[loadgen.Phase] = []
        for cycle in range(CYCLES):
            nominal_phases.append(self.phase(
                daemon, f"nominal{cycle + 1}", nominal, nominal_s))
            saturated_phases.append(self.phase(
                daemon, f"saturated{cycle + 1}", None, saturated_s,
                threads=cfg["saturation_connections"]))
        peak_rss = daemon.tree_peak_rss_mb()
        engine_stats = self.stats_snapshot(daemon)
        measured = time.monotonic()
        self.check_outputs()
        self.report["wall_s"]["checks"] = time.monotonic() - measured
        # Judged now that wrong outputs count as misses.
        healths: Dict[str, dict] = {}
        for phase in nominal_phases + saturated_phases:
            healths[phase.name] = self.phase_health(phase)
            healths[phase.name][f"p{SLO_PERCENTILE:g}_ms"] = stats.percentile(
                phase.latencies_ms(), SLO_PERCENTILE)
        rates = [rate for phase in saturated_phases
                 for rate in stats.window_rates(
                     phase.done, phase.latencies_ms(), phase.sent[0],
                     phase.sent[0] + saturated_s, cfg["latency_limit_ms"],
                     SLO_PERCENTILE, WINDOW_S)]
        throughput = stats.interquartile_mean(rates) if rates else 0.0
        if not throughput > 0:
            self.failures.append("the saturated phases missed the objective "
                                 "in most windows")
        # A nominal phase whose generator fell behind is not scored.
        lat = [ms for p in nominal_phases if healths[p.name]["valid"]
               for ms in p.latencies_ms()]
        if not lat:
            self.failures.append(f"no valid nominal phase: p99 send lag "
                                 f"above {LAG_BOUND_MS} ms in all of them")
            lat = [float("nan")]
        if not stats.supports(len(lat), SLO_PERCENTILE):
            self.failures.append(
                f"nominal phase has {len(lat)} samples; "
                f"p{SLO_PERCENTILE:g} needs {stats.MIN_BEYOND} beyond it")
        attempted = sum(p.n for p, _ in self.phases)
        failed = sum(p.n - sum(1 for i in range(p.n) if p.ok(i))
                     for p, _ in self.phases)
        self.report.update({
            "phases": healths,
            "nominal_rate": nominal,
            "latency_limit_ms": cfg["latency_limit_ms"],
            "nominal_samples": len(lat),
            f"nominal_p{SLO_PERCENTILE:g}_windows_ms": stats.window_tails(
                lat, SLO_PERCENTILE),
            "saturated_rps_windows": rates,
            # The HTTP meaning of throughput_per_s, and the p99 beside p95.
            "saturated_rps": {"value": throughput, "unit": "req/s"},
            "latency_p99_ms": {"value": (stats.percentile(lat, 99.0)
                                         if stats.supports(len(lat), 99.0)
                                         else None), "unit": "ms"},
            "setup_samples_s": setups,
            "engine_stats": {key: engine_stats["engine"][key] for key in (
                "requests_served", "cache_hits", "store_served",
                "batches_run", "cache_evictions")},
            # Beside peak_rss_mb: how much of it plan arenas hold.
            "plans_arena_mb": (engine_stats["engine"]["plans"] or {}).get(
                "arena_bytes", 0) / (1024.0 * 1024.0),
        })
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "setup_s": stats.median(setups),
                "latency_p50_ms": stats.percentile(lat, 50.0),
                "latency_p95_ms": stats.windowed_percentile(
                    lat, SLO_PERCENTILE),
                "throughput_per_s": throughput,
                "peak_rss_mb": peak_rss,
            },
        }
