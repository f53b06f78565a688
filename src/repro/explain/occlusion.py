"""Sliding-window occlusion saliency (Zeiler & Fergus 2014).

A classic perturbation baseline: mask a square window at each location
and record the drop in the explained class probability.  All masked
variants — across every image of a batch — are scored through the
classifier in shared conv batches, so explaining N images costs one
batched sweep instead of N independent ones.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..classifiers import SmallResNet
from .base import Explainer, SaliencyResult, resolve_targets, target_or_none


class OcclusionExplainer(Explainer):
    """Probability-drop map from sliding square occluders."""

    name = "occlusion"

    def __init__(self, classifier: SmallResNet, window: int = 5,
                 stride: int = 2, fill: Optional[float] = None,
                 max_batch: int = 4096):
        self.classifier = classifier
        self.window = window
        self.stride = stride
        self.fill = fill
        self.max_batch = max_batch

    def _positions(self, h: int, w: int,
                   side: int) -> List[Tuple[int, int]]:
        return [(top, left)
                for top in range(0, h - side + 1, self.stride)
                for left in range(0, w - side + 1, self.stride)]

    def explain_batch(self, images: np.ndarray, labels: np.ndarray,
                      target_labels: Optional[np.ndarray] = None) -> list:
        """Score all masked variants of all images in shared conv batches."""
        images = np.asarray(images, dtype=nn.get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        targets = resolve_targets(labels, target_labels)
        n, c, h, w = images.shape
        # The occluder shrinks to fit an image smaller than the window,
        # so every image has at least one position.
        side = min(self.window, h, w)
        positions = self._positions(h, w, side)
        n_pos = len(positions)
        fills = np.full(n, self.fill, dtype=images.dtype) \
            if self.fill is not None else images.mean(axis=(1, 2, 3))

        base = self.classifier.predict_proba(images)[np.arange(n), labels]

        # Group as many images' masked variants as fit one sweep.
        chunk = max(1, self.max_batch // n_pos)
        drops = np.empty((n, n_pos))
        for start in range(0, n, chunk):
            imgs = images[start:start + chunk]
            m = len(imgs)
            batch = np.repeat(imgs, n_pos, axis=0).reshape(m, n_pos, c, h, w)
            for j, (top, left) in enumerate(positions):
                batch[:, j, :, top:top + side, left:left + side] = \
                    fills[start:start + m, None, None, None]
            probs = self.classifier.predict_proba(
                batch.reshape(m * n_pos, c, h, w)).reshape(m, n_pos, -1)
            picked = probs[np.arange(m)[:, None],
                           np.arange(n_pos)[None, :],
                           labels[start:start + m, None]]
            drops[start:start + m] = np.maximum(
                base[start:start + m, None] - picked, 0.0)

        results = []
        for i in range(n):
            saliency = np.zeros((h, w))
            counts = np.zeros((h, w))
            for (top, left), drop in zip(positions, drops[i]):
                saliency[top:top + side, left:left + side] += drop
                counts[top:top + side, left:left + side] += 1
            counts[counts == 0] = 1
            results.append(SaliencyResult(saliency / counts, int(labels[i]),
                                          target_or_none(targets, i),
                                          meta={"base_prob": float(base[i])}))
        return results
