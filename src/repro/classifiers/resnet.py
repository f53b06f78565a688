"""The black-box classifier to be explained.

The paper trains a ResNet50 per dataset; at our 32x32 numpy scale we use
a small residual CNN with the same structural recipe (stem conv, stacked
residual stages with stride-2 transitions, global average pooling, linear
head).  The explainers treat it as a black box except where the baseline
method is intrinsically white-box (Grad-CAM/FullGrad need activations and
gradients, exactly as they do with ResNet50 in the paper).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import nn
from ..nn import functional as F


class _BasicBlock(nn.Module):
    """Residual block with optional stride-2 downsample projection."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        self.conv1 = nn.Conv2d(in_channels, out_channels, 3, stride=stride,
                               padding=1, rng=rng)
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.conv2 = nn.Conv2d(out_channels, out_channels, 3, padding=1,
                               rng=rng)
        self.bn2 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.proj = nn.Conv2d(in_channels, out_channels, 1, stride=stride,
                                  rng=rng)
        else:
            self.proj = None

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        h = self.bn1(self.conv1(x)).relu()
        h = self.bn2(self.conv2(h))
        skip = x if self.proj is None else self.proj(x)
        return (h + skip).relu()


class SmallResNet(nn.Module):
    """Residual CNN classifier; our stand-in for the paper's ResNet50.

    Exposes the hooks that white-box baselines need:

    * :meth:`forward_with_features` returns the final conv feature map
      (for Grad-CAM).
    * :attr:`bias_parameters` and :meth:`forward_with_all_features`
      support FullGrad's bias-gradient aggregation.
    * :meth:`predict_proba` (the black-box API) skips the tape: a BN-folded
      channels-last kernel computing the eval-mode ``softmax(forward)``.
    """

    def __init__(self, num_classes: int, in_channels: int = 1,
                 width: int = 16, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.stem = nn.Conv2d(in_channels, width, 3, padding=1, rng=rng)
        self.stem_bn = nn.BatchNorm2d(width)
        self.stage1 = _BasicBlock(width, width, stride=1, rng=rng)
        self.stage2 = _BasicBlock(width, width * 2, stride=2, rng=rng)
        self.stage3 = _BasicBlock(width * 2, width * 4, stride=2, rng=rng)
        self.head = nn.Linear(width * 4, num_classes, rng=rng)

    # ------------------------------------------------------------------
    def forward(self, x: nn.Tensor) -> nn.Tensor:
        feats = self._features(x)
        pooled = F.global_avg_pool2d(feats[-1])
        return self.head(pooled)

    def _features(self, x: nn.Tensor) -> List[nn.Tensor]:
        h0 = self.stem_bn(self.stem(x)).relu()
        h1 = self.stage1(h0)
        h2 = self.stage2(h1)
        h3 = self.stage3(h2)
        return [h0, h1, h2, h3]

    def forward_with_features(self, x: nn.Tensor):
        """Return (logits, last conv feature map) for Grad-CAM."""
        feats = self._features(x)
        pooled = F.global_avg_pool2d(feats[-1])
        return self.head(pooled), feats[-1]

    def features(self, x: nn.Tensor) -> nn.Tensor:
        """The last conv feature map only (Grad-CAM's trunk pass)."""
        return self._features(x)[-1]

    def head_from_features(self, feats: nn.Tensor) -> nn.Tensor:
        """Logits from a (possibly re-tracked) last-stage feature map.

        Lets Grad-CAM run the conv trunk under ``no_grad`` and restart
        the tape at the feature map: the backward pass then touches only
        the pooling + head, never the conv stack.
        """
        return self.head(F.global_avg_pool2d(feats))

    def forward_with_all_features(self, x: nn.Tensor):
        """Return (logits, all stage feature maps) for FullGrad."""
        feats = self._features(x)
        pooled = F.global_avg_pool2d(feats[-1])
        return self.head(pooled), feats

    # ------------------------------------------------------------------
    def predict_proba(self, images: np.ndarray,
                      batch_size: int = 16) -> np.ndarray:
        """Black-box inference API: images (N, C, H, W) -> probabilities.

        A tape-free kernel, not :meth:`forward`: every call folds each
        eval-mode BatchNorm into its conv from the live parameters, keeps
        activations channels-last (NHWC) up to the global pool, and runs
        each conv of each ``batch_size``-row chunk as one patch gather
        plus one GEMM per sample.

        Contract: always BatchNorm running statistics, whatever
        :attr:`training` says; no mode flag is read and no module state
        written, so concurrent calls on one model are safe in any mode.
        The dtype is numpy's promotion of input and weights, and zero
        rows give ``(0, num_classes)``.
        """
        images = np.asarray(images)
        convs = [_fold(self.stem, self.stem_bn)] + [
            (_fold(b.conv1, b.bn1), _fold(b.conv2, b.bn2),
             None if b.proj is None else _fold(b.proj))
            for b in (self.stage1, self.stage2, self.stage3)]
        # Zero rows still run one empty chunk: (0, num_classes) comes out.
        return np.concatenate([
            self._infer(images[start:start + batch_size], convs)
            for start in range(0, max(len(images), 1), batch_size)])

    def _infer(self, images: np.ndarray, convs: list) -> np.ndarray:
        h = _conv_nhwc(images.transpose(0, 2, 3, 1), *convs[0])
        np.maximum(h, 0, out=h)
        for conv1, conv2, proj in convs[1:]:
            t = _conv_nhwc(h, *conv1)
            np.maximum(t, 0, out=t)
            t = _conv_nhwc(t, *conv2)
            t += h if proj is None else _conv_nhwc(h, *proj)
            h = np.maximum(t, 0, out=t)
        # The head is per-sample too, so no row depends on its chunk.
        logits = np.matmul(h.mean(axis=(1, 2))[:, None],
                           self.head.weight.data.T) + self.head.bias.data
        exps = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return (exps / exps.sum(axis=-1, keepdims=True))[:, 0]

    def predict(self, images: np.ndarray, batch_size: int = 16) -> np.ndarray:
        return self.predict_proba(images, batch_size).argmax(axis=1)


def _fold(conv: nn.Conv2d, bn: Optional[nn.BatchNorm2d] = None):
    """``conv`` (then eval-mode ``bn``) as one conv: ``(W', b', k, stride,
    padding)`` with ``W'`` laid out ``(k*k*C_in, C_out)`` in (ki, kj, c)
    row order, matching :func:`_conv_nhwc`'s patch columns."""
    w = conv.weight.data
    b = conv.bias.data
    if bn is not None:
        s = bn.weight.data / np.sqrt(bn.running_var + bn.eps)
        w = w * s[:, None, None, None]
        b = (b - bn.running_mean) * s + bn.bias.data
    c_out, __, k, __ = w.shape
    return (w.transpose(2, 3, 1, 0).reshape(-1, c_out), b, k, conv.stride,
            conv.padding)


def _conv_nhwc(x: np.ndarray, w: np.ndarray, b: np.ndarray, k: int,
               stride: int, padding: int) -> np.ndarray:
    """Channels-last conv: (n, H, W, C_in) -> (n, oh, ow, C_out)."""
    n, h, wd, c = x.shape
    if padding:
        padded = np.zeros((n, h + 2 * padding, wd + 2 * padding, c),
                          dtype=x.dtype)
        padded[:, padding:padding + h, padding:padding + wd] = x
        x = padded
    oh = (x.shape[1] - k) // stride + 1
    ow = (x.shape[2] - k) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, oh, ow, k, k, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3), writeable=False)
    # One GEMM per sample, (L, k*k*C) @ (k*k*C, C_out): the tape's M*N*K,
    # so BLAS threads as before (one GEMM over all n*L rows crosses its
    # threading threshold and starves a 2-worker pool on 2 cores).
    out = np.matmul(windows.reshape(n, oh * ow, k * k * c), w)
    out += b
    return out.reshape(n, oh, ow, w.shape[1])
