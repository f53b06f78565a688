"""FullGrad (Srinivas & Fleuret 2019) and its Simple/Smooth variants.

FullGrad aggregates the input-gradient term with per-layer "bias
gradient" feature maps.  With our classifier we realise the layer terms
as |feature x feature-gradient| maps from every residual stage
(the implicit-bias formulation), matching the reference repo's
``fullgrad.py`` structure:

* **FullGrad** — input term + all stage terms, each min-max normalised
  before aggregation.
* **Simple FullGrad** — same but without per-map normalisation
  (the "simple" variant of the idiap repository).
* **Smooth FullGrad** — FullGrad averaged over noisy copies of the input.

All three are batched-first: a whole batch runs one forward and one
backward pass (per-sample gradients are independent because the summed
per-class logits decouple across the batch axis), and each per-map
normalisation happens per sample.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import nn
from ..nn import plan
from ..classifiers import SmallResNet
from ..data.transforms import resize_bilinear
from .base import Explainer, SaliencyResult, resolve_targets, target_or_none


def _postprocess(gradient_maps: np.ndarray, normalize: bool) -> np.ndarray:
    """Abs -> (optionally) per-sample min-max normalise (N, H, W) maps."""
    g = np.abs(gradient_maps)
    if normalize:
        g = g - g.min(axis=(1, 2), keepdims=True)
        peak = g.max(axis=(1, 2), keepdims=True)
        g = np.divide(g, peak, out=g, where=peak > 0)
    return g


class FullGradExplainer(Explainer):
    """Full-gradient decomposition saliency."""

    name = "fullgrad"
    needs_gradients = True
    plan_eligible = True

    def __init__(self, classifier: SmallResNet, normalize: bool = True):
        self.classifier = classifier
        self.normalize = normalize

    @property
    def plan_key(self):
        """All three FullGrad methods trace one core per classifier (the
        forward with gradients at the input and every stage) and differ
        only after replay, so they share its plan."""
        return ("fullgrad", self.classifier)

    def _aggregate(self, images: np.ndarray, x_grad: np.ndarray,
                   feat_pairs) -> np.ndarray:
        """Combine input and stage terms; shared by tape and plan paths.

        ``feat_pairs`` is a sequence of (feature, feature_grad) arrays.
        """
        h, w = images.shape[2:]
        # Input-gradient term: |x * dL/dx| summed over channels.
        saliency = _postprocess((x_grad * images).sum(axis=1), self.normalize)
        # Layer terms: |feat * dL/dfeat| channel-summed, upsampled.
        for data, grad in feat_pairs:
            term = np.abs(grad * data).sum(axis=1)          # (N, h', w')
            if term.shape[1:] != (h, w):
                term = resize_bilinear(term[:, None], h)[:, 0]
            saliency = saliency + _postprocess(term, self.normalize)
        return saliency

    def _saliency_batch(self, images: np.ndarray,
                        labels: np.ndarray) -> np.ndarray:
        """(N, H, W) FullGrad maps from one batched forward/backward."""
        self.classifier.eval()
        x = nn.Tensor(images, requires_grad=True)
        # Only input/feature gradients are consumed; freezing the weights
        # drops every weight-gradient GEMM from the shared backward pass.
        with nn.frozen(self.classifier):
            logits, feats = self.classifier.forward_with_all_features(x)
            for f in feats:
                f.retain_grad()
            nn.class_score_sum(logits, labels).backward()

        return self._aggregate(images, x.grad,
                               [(f.data, f.grad) for f in feats])

    def compile_plan(self, images: np.ndarray, labels: np.ndarray):
        """Trace the full forward with gradients requested at the input
        and every residual stage.  Weight gradients are pruned by the
        plan's demand analysis, matching the tape path's ``nn.frozen``.
        """
        images = np.asarray(images, dtype=nn.get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        self.classifier.eval()

        def core(tr: plan.Tracer) -> None:
            x = tr.input("x", images)
            lab = tr.aux_input("labels", labels)
            logits, feats = self.classifier.forward_with_all_features(x)
            tr.grad("x_grad", x)
            for i, f in enumerate(feats):
                tr.output(f"f{i}", f)
                tr.grad(f"f{i}_grad", f)
            tr.loss(nn.class_score_sum(logits, lab))

        return plan.trace(core)

    def _saliency_batch_planned(self, compiled, images: np.ndarray,
                                labels: np.ndarray) -> np.ndarray:
        out = compiled.replay({"x": images, "labels": labels})
        feat_pairs = []
        i = 0
        while f"f{i}" in out:
            feat_pairs.append((out[f"f{i}"], out[f"f{i}_grad"]))
            i += 1
        return self._aggregate(images, out["x_grad"], feat_pairs)

    def explain_batch_planned(self, compiled, images: np.ndarray,
                              labels: np.ndarray,
                              target_labels: Optional[np.ndarray] = None
                              ) -> List[SaliencyResult]:
        images = np.asarray(images, dtype=nn.get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        targets = resolve_targets(labels, target_labels)
        saliency = self._saliency_batch_planned(compiled, images, labels)
        return [SaliencyResult(saliency[i], int(labels[i]),
                               target_or_none(targets, i))
                for i in range(len(images))]

    def explain_batch(self, images: np.ndarray, labels: np.ndarray,
                      target_labels: Optional[np.ndarray] = None
                      ) -> List[SaliencyResult]:
        images = np.asarray(images, dtype=nn.get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        targets = resolve_targets(labels, target_labels)
        saliency = self._saliency_batch(images, labels)
        return [SaliencyResult(saliency[i], int(labels[i]),
                               target_or_none(targets, i))
                for i in range(len(images))]


class SimpleFullGradExplainer(FullGradExplainer):
    """FullGrad without per-component normalisation."""

    name = "simple_fullgrad"

    def __init__(self, classifier: SmallResNet):
        super().__init__(classifier, normalize=False)


class SmoothFullGradExplainer(FullGradExplainer):
    """FullGrad averaged over Gaussian-noised inputs (SmoothGrad-style).

    The noise stream is reseeded per call and shared across the batch
    (sample s applies one noise map to every image), so batch-of-one and
    full-batch runs see identical perturbations — the property the
    batch-vs-single parity suite relies on.
    """

    name = "smooth_fullgrad"

    def __init__(self, classifier: SmallResNet, n_samples: int = 8,
                 noise_scale: float = 0.05, seed: int = 0):
        super().__init__(classifier, normalize=True)
        self.n_samples = n_samples
        self.noise_scale = noise_scale
        self.seed = seed

    def explain_batch(self, images: np.ndarray, labels: np.ndarray,
                      target_labels: Optional[np.ndarray] = None
                      ) -> List[SaliencyResult]:
        images = np.asarray(images, dtype=nn.get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        targets = resolve_targets(labels, target_labels)
        rng = np.random.default_rng(self.seed)
        total = np.zeros(images.shape[:1] + images.shape[2:])
        for _ in range(self.n_samples):
            noise = rng.standard_normal(images.shape[1:]).astype(images.dtype)
            noisy = np.clip(images + self.noise_scale * noise[None], 0, 1)
            total += self._saliency_batch(noisy, labels)
        total /= self.n_samples
        return [SaliencyResult(total[i], int(labels[i]),
                               target_or_none(targets, i))
                for i in range(len(images))]

    def explain_batch_planned(self, compiled, images: np.ndarray,
                              labels: np.ndarray,
                              target_labels: Optional[np.ndarray] = None
                              ) -> List[SaliencyResult]:
        """One plan replay per noisy copy (same noise stream as the tape
        path, so planned and taped maps agree to float tolerance)."""
        images = np.asarray(images, dtype=nn.get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        targets = resolve_targets(labels, target_labels)
        rng = np.random.default_rng(self.seed)
        total = np.zeros(images.shape[:1] + images.shape[2:])
        for _ in range(self.n_samples):
            noise = rng.standard_normal(images.shape[1:]).astype(images.dtype)
            noisy = np.clip(images + self.noise_scale * noise[None], 0, 1)
            total += self._saliency_batch_planned(compiled, noisy, labels)
        total /= self.n_samples
        return [SaliencyResult(total[i], int(labels[i]),
                               target_or_none(targets, i))
                for i in range(len(images))]
