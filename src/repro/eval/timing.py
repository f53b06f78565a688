"""Computation-cost measurements (paper Tables V and VI).

With the batched-first explainer contract, Table V reports two numbers
per method: the classic per-image latency (one ``explain`` call per
image) and the batched throughput cost (one ``explain_batch`` over the
whole set, amortised per image) — the latter is the serving-relevant
headline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..explain.base import Explainer


@dataclass
class MethodTiming:
    """Per-method Table V row: single-image vs batched vs served cost.

    ``served_ms`` is the cost per map through a serving
    :class:`~repro.serve.ExplainEngine` (micro-batching + cache +
    dedup); ``None`` when no engine was timed.
    """

    per_image_ms: float
    batched_ms: float
    served_ms: Optional[float] = None

    @property
    def speedup(self) -> float:
        """How much cheaper one map is when produced in a batch."""
        return self.per_image_ms / self.batched_ms if self.batched_ms > 0 \
            else float("inf")


def saliency_time_ms(explainer: Explainer, images: np.ndarray,
                     labels: np.ndarray, n_images: Optional[int] = None
                     ) -> float:
    """Average wall time (milliseconds) to produce one saliency map via
    per-image ``explain`` calls, matching Table V's protocol (paper: 100
    brain images)."""
    if n_images is not None:
        images = images[:n_images]
        labels = labels[:n_images]
    start = time.perf_counter()
    for image, label in zip(images, labels):
        explainer.explain(image, int(label))
    elapsed = time.perf_counter() - start
    return 1000.0 * elapsed / max(len(images), 1)


def batched_saliency_time_ms(explainer: Explainer, images: np.ndarray,
                             labels: np.ndarray,
                             n_images: Optional[int] = None,
                             batch_size: int = 16) -> float:
    """Average milliseconds per map when maps are produced in batches of
    ``batch_size`` through ``explain_batch`` (the serving path)."""
    if n_images is not None:
        images = images[:n_images]
        labels = labels[:n_images]
    start = time.perf_counter()
    for lo in range(0, len(images), batch_size):
        explainer.explain_batch(images[lo:lo + batch_size],
                                labels[lo:lo + batch_size])
    elapsed = time.perf_counter() - start
    return 1000.0 * elapsed / max(len(images), 1)


def served_saliency_time_ms(engine, method: str, images: np.ndarray,
                            labels: np.ndarray,
                            n_images: Optional[int] = None) -> float:
    """Average milliseconds per map through a serving
    :class:`~repro.serve.ExplainEngine` (one cache-aware
    ``explain_batch`` sweep).  On a warm cache this measures pure
    serving overhead; on a cold cache, the micro-batched compute path.

    ``explain_batch`` ingests through the engine's admission-controlled
    async path, so timing a ``max_pending`` engine measures the same
    bounded-memory pipeline that serves live traffic.
    """
    if n_images is not None:
        images = images[:n_images]
        labels = labels[:n_images]
    start = time.perf_counter()
    engine.explain_batch(images, labels, method)
    elapsed = time.perf_counter() - start
    return 1000.0 * elapsed / max(len(images), 1)


def method_timing(explainer: Explainer, images: np.ndarray,
                  labels: np.ndarray, n_images: Optional[int] = None,
                  batch_size: int = 16, engine=None,
                  method: Optional[str] = None) -> MethodTiming:
    """Both Table V numbers for one method (plus the served cost when
    ``engine`` is given; ``method`` defaults to the explainer's name).

    One untimed warmup batch absorbs lazy-initialisation and cache-
    warming costs so they don't inflate whichever pass runs first.
    """
    explainer.explain_batch(images[:1], labels[:1])
    served_ms = None
    if engine is not None:
        served_ms = served_saliency_time_ms(
            engine, method or explainer.name, images, labels, n_images)
    return MethodTiming(
        per_image_ms=saliency_time_ms(explainer, images, labels, n_images),
        batched_ms=batched_saliency_time_ms(explainer, images, labels,
                                            n_images, batch_size),
        served_ms=served_ms)


def time_all_methods(explainers: Dict[str, Explainer], images: np.ndarray,
                     labels: np.ndarray,
                     n_images: Optional[int] = None) -> Dict[str, float]:
    """Classic Table V row: method -> ms per saliency map (per-image)."""
    return {name: saliency_time_ms(explainer, images, labels, n_images)
            for name, explainer in explainers.items()}


def time_all_methods_batched(explainers: Dict[str, Explainer],
                             images: np.ndarray, labels: np.ndarray,
                             n_images: Optional[int] = None,
                             batch_size: int = 16,
                             engine=None) -> Dict[str, MethodTiming]:
    """Extended Table V: method -> (per-image ms, batched ms, speedup).

    With ``engine`` set, each row also records the engine-served cost
    per map (``MethodTiming.served_ms``).
    """
    return {name: method_timing(explainer, images, labels, n_images,
                                batch_size, engine=engine, method=name)
            for name, explainer in explainers.items()}
