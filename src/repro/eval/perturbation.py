"""Saliency-accuracy metric: patch-coverage degradation curves.

Implements the evaluation of the paper's Section IV.C (following Hooker
et al. 2019 and Samek et al. 2017): pixels are ranked by saliency; the
most important ones are covered with random-valued square patches; the
drop in the classifier's ground-truth class probability is recorded as
coverage grows.

* **AOPC** (eq 11): mean degradation over all coverage levels.
* **PD** (eq 12): maximum (peak) degradation over coverage levels.

The paper covers 7x7 patches on 256x256 inputs; we default to 3x3
patches on 32x32, preserving the covered-area fraction per patch.

Batched-first: the sweep explains the whole sample set through one
``explain_batch`` call and scores all patched variants of all images in
shared classifier conv batches — no per-image model calls remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .. import nn
from ..classifiers import SmallResNet
from ..explain.base import Explainer


@dataclass
class DegradationCurve:
    """Per-coverage-level mean probability drops for one explainer."""

    drops: np.ndarray        # (N,) overall degradation at p = 1..N patches

    @property
    def aopc(self) -> float:
        """Eq (11): area over the perturbation curve."""
        return float(self.drops.mean())

    @property
    def pd(self) -> float:
        """Eq (12): peak degradation."""
        return float(self.drops.max())


def _select_patch_centers(saliency: np.ndarray, n_patches: int,
                          patch: int) -> list:
    """Greedy non-overlapping selection of the most salient patch centres."""
    h, w = saliency.shape
    half = patch // 2
    working = saliency.copy()
    centers = []
    for _ in range(n_patches):
        idx = int(np.argmax(working))
        cy, cx = divmod(idx, w)
        centers.append((cy, cx))
        top = max(cy - half, 0)
        left = max(cx - half, 0)
        working[top:cy + half + 1, left:cx + half + 1] = -np.inf
    return centers


def perturbation_curve(explainer: Explainer, classifier: SmallResNet,
                       images: np.ndarray, labels: np.ndarray,
                       n_patches: int = 20, patch: int = 3,
                       rng: Optional[np.random.Generator] = None,
                       target_labels: Optional[np.ndarray] = None,
                       fill: str = "mean",
                       max_batch: int = 4096,
                       method: str = None) -> DegradationCurve:
    """Compute the degradation curve of ``explainer`` on a sample set.

    For each image: explain, rank pixels, cover the top-p patches (p =
    1..n_patches), and measure the classifier's ground-truth probability
    drop.  ``fill`` selects the cover content: the paper fills with
    random values; on our synthetic data random speckle itself resembles
    lesion evidence, so the default is ``"mean"`` (image-mean fill),
    which removes evidence as the metric intends.  Pass ``"random"``
    for the paper-verbatim protocol.

    Pass ``method`` to treat ``explainer`` as a serving
    :class:`~repro.serve.ExplainEngine`: the explain step then runs
    through the engine's cache/dedup/micro-batch runtime, so repeat
    sweeps over the same sample set (or other eval layers sharing the
    engine) reuse cached maps instead of recomputing them.
    """
    rng = rng or np.random.default_rng(0)
    images = np.asarray(images, dtype=nn.get_default_dtype())
    labels = np.asarray(labels, dtype=np.int64)
    half = patch // 2
    n_images = len(images)
    c, h, w = images.shape[1:]

    # Batched explains + shared variant-scoring sweeps, both chunked so
    # peak memory (explainer tape and variant buffer alike) stays
    # bounded at ~max_batch images regardless of sample-set size.
    base_probs = classifier.predict_proba(images)[np.arange(n_images), labels]

    chunk = max(1, max_batch // n_patches)
    drops = np.empty((n_images, n_patches))
    for start in range(0, n_images, chunk):
        m = min(chunk, n_images - start)
        chunk_targets = None if target_labels is None \
            else target_labels[start:start + m]
        if method is not None:           # serving-engine path
            results = explainer.explain_batch(
                images[start:start + m], labels[start:start + m],
                method, chunk_targets)
        else:
            results = explainer.explain_batch(
                images[start:start + m], labels[start:start + m],
                chunk_targets)
        variants = np.empty((m, n_patches, c, h, w), dtype=images.dtype)
        for j in range(m):
            i = start + j
            centers = _select_patch_centers(results[j].saliency, n_patches,
                                            patch)
            covered = images[i].copy()
            fill_value = images[i].mean()
            for p, (cy, cx) in enumerate(centers):
                top, bottom = max(cy - half, 0), min(cy + half + 1, h)
                left, right = max(cx - half, 0), min(cx + half + 1, w)
                if fill == "random":
                    covered[:, top:bottom, left:right] = rng.random(
                        (c, bottom - top, right - left))
                else:
                    covered[:, top:bottom, left:right] = fill_value
                variants[j, p] = covered
        probs = classifier.predict_proba(
            variants.reshape(m * n_patches, c, h, w))
        picked = probs.reshape(m, n_patches, -1)[
            np.arange(m)[:, None], np.arange(n_patches)[None, :],
            labels[start:start + m, None]]
        drops[start:start + m] = base_probs[start:start + m, None] - picked
    return DegradationCurve(drops.mean(axis=0))


def evaluate_methods(explainers: Optional[Dict[str, Explainer]],
                     classifier: SmallResNet, images: np.ndarray,
                     labels: np.ndarray, n_patches: int = 20, patch: int = 3,
                     seed: int = 0, fill: str = "mean",
                     engine=None) -> Dict[str, DegradationCurve]:
    """Degradation curves for every explainer on the same image set.

    With ``engine`` set (a :class:`~repro.serve.ExplainEngine`), every
    method's explain step is served through the engine runtime — pass
    ``explainers=None`` to sweep every method the engine serves, or a
    dict/iterable to restrict the sweep.  Reproduction runs then share
    the serving code path (and its cache/dedup/admission counters) with
    traffic: on a ``max_pending`` engine the sweep's ingestion is
    bounded.
    """
    if engine is not None:
        names = list(explainers) if explainers is not None \
            else list(engine.methods)
        return {
            name: perturbation_curve(
                engine, classifier, images, labels, n_patches, patch,
                rng=np.random.default_rng(seed), fill=fill, method=name)
            for name in names
        }
    return {
        name: perturbation_curve(
            explainer, classifier, images, labels, n_patches, patch,
            rng=np.random.default_rng(seed), fill=fill)
        for name, explainer in explainers.items()
    }
