"""Structured neural-network primitives with hand-written backward passes.

Convolution is implemented with im2col/col2im so that the inner loop is a
single large matrix multiply — the standard approach for CPU conv and the
only way a pure-numpy GAN training loop stays tractable.  Every conv
forward/backward contraction is a broadcast-batched BLAS ``matmul`` over
the ``(N, C * k * k, L)`` patch block (L = output locations): the weight
matrix multiplies all samples' patch matrices in one call, with no
einsum and no layout-hostile copies.  (A fully batch-folded ``(N * L,
C * k * k)`` single-GEMM layout was benchmarked and loses ~2x to the
batched form here, because its patch gather strides against the image
memory order.  That holds for an NCHW gather only.  With channels-last
(NHWC) activations each patch row is contiguous ``k * C`` runs, and a
forward-only NHWC conv, one GEMM per sample, measured 1.3-1.9x this one
per 3x3 conv of the classifier (16 rows, width 12, 32x32, 2-core host,
OpenBLAS; 1.0-1.2x for its 1x1 projections).
``SmallResNet.predict_proba`` is built that way, with BatchNorm folded
in, and runs 1.7-2.1x the no-grad tape forward; moving the tape itself
to NHWC would take the backward with it.)

A conv's input gradient has one kernel, :func:`conv2d_input_grad`,
which both the tape and the compiled plans (:mod:`repro.nn.plan`) call.
At stride 1 it gathers k x k windows of the padded upstream gradient
and runs one GEMM against the flipped kernel; any other stride runs the
GEMM ``W^T @ grad`` and scatter-adds the columns with ``col2im``, which
pooling's backward uses too.

All image tensors use NCHW layout.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x: (N, C, H, W) input images.

    Returns
    -------
    cols: (N, C * kernel * kernel, out_h * out_w)
    """
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # Strided sliding-window view: (N, C, out_h, out_w, k, k)
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    # -> (N, C, k, k, out_h, out_w) -> (N, C*k*k, out_h*out_w).  The
    # reshape of the strided view already materialises a C-contiguous
    # array, so no extra ascontiguousarray copy is needed.
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(
        n, c * kernel * kernel, out_h * out_w)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
           kernel: int, stride: int, padding: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image.

    Two regimes:

    * ``stride >= kernel`` — windows are disjoint, so the whole scatter is
      a single assignment into a writable strided 6-D view of the output
      (stride-trick tiling; no adds, no python loop).  This covers
      pooling backward (k2/s2) and patch-embedding convs (k4/s4).
    * overlapping windows — a k x k loop of large vectorized strided
      adds.  Every "single-call" alternative was benchmarked slower on
      numpy 2.x for our shapes: ``np.add.at`` ~10x (buffered fancy
      indexing), flat ``np.bincount`` ~8x, separable two-pass band
      tiling ~2.5x, and a diagonal-strided gather-view reduction ~1.2x.
      The loop issues only kernel**2 memmove-speed adds and wins.
    """
    n, c, h, w = x_shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    if stride >= kernel:
        # Disjoint windows: one strided-view write, no accumulation.
        s0, s1, s2, s3 = padded.strides
        view = np.lib.stride_tricks.as_strided(
            padded,
            shape=(n, c, out_h, out_w, kernel, kernel),
            strides=(s0, s1, s2 * stride, s3 * stride, s2, s3))
        view[:] = cols6.transpose(0, 1, 4, 5, 2, 3)
    else:
        for ki in range(kernel):
            h_end = ki + stride * out_h
            for kj in range(kernel):
                w_end = kj + stride * out_w
                padded[:, :, ki:h_end:stride, kj:w_end:stride] += \
                    cols6[:, :, ki, kj]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------
def _input_grad_gathers(kernel: int, stride: int, padding: int) -> bool:
    """Whether :func:`conv2d_input_grad` takes the stride-1 gather: more
    padding than ``kernel - 1`` crops the gradient, which only col2im's
    scatter covers."""
    return stride == 1 and padding <= kernel - 1


def conv2d_input_grad(grad: np.ndarray, weight: np.ndarray,
                      x_shape: Tuple[int, int, int, int], stride: int,
                      padding: int, out: Optional[np.ndarray] = None,
                      gpad: Optional[np.ndarray] = None,
                      cols: Optional[np.ndarray] = None) -> np.ndarray:
    """The input gradient of :func:`conv2d`: ``dL/dx`` (``x_shape``) for
    the upstream gradient ``grad`` (N, C_out, OH, OW) and ``weight``
    (C_out, C, k, k).  The tape's conv backward and the compiled plans'
    conv VJP both call it.

    At stride 1 with ``padding <= k - 1`` the input gradient is a
    stride-1 correlation of the gradient, zero-padded by ``k - 1 -
    padding``, with the spatially flipped kernel (Dumoulin & Visin,
    https://arxiv.org/abs/1603.07285): one gather of k x k windows and
    one GEMM.  On the networks' 3x3 stride-1 convs it measured 1.4-16x
    the scatter below (float32, 2-core host, OpenBLAS), except 0.6x on
    the 1-channel stem, which gathers too: the route depends on stride
    and padding alone.  Any other geometry runs the GEMM ``W^T @ grad``
    and scatter-adds its columns with :func:`col2im`.  (At stride 2 a
    gather would read a zero-dilated gradient, three quarters zeros,
    and measured slower than the scatter.)

    Omitted buffers are allocated.  A plan passes its own, so that a
    replay allocates only the flipped weight: ``gpad`` (N, C_out, H + k
    - 1, W + k - 1), whose border must be zero (only its interior is
    written), and ``cols``, the gathered window matrix (N, C_out * k *
    k, H * W), or on the col2im path the GEMM's output (N, C * k * k,
    OH * OW).  The result is written into ``out`` when given.
    """
    n, c, h, w = x_shape
    c_out, _, k, _ = weight.shape
    if not _input_grad_gathers(k, stride, padding):
        gcols = np.matmul(weight.reshape(c_out, -1).T,
                          grad.reshape(n, c_out, -1), out=cols)
        gx = col2im(gcols, x_shape, k, stride, padding)
        if out is None:
            return gx
        np.copyto(out, gx)
        return out
    if gpad is None:
        gpad = np.zeros((n, c_out, h + k - 1, w + k - 1), dtype=grad.dtype)
    pad = k - 1 - padding
    gpad[:, :, pad:pad + grad.shape[2], pad:pad + grad.shape[3]] = grad
    s0, s1, s2, s3 = gpad.strides
    windows = np.lib.stride_tricks.as_strided(
        gpad, shape=(n, c_out, k, k, h, w),
        strides=(s0, s1, s2, s3, s2, s3), writeable=False)
    if cols is None:
        cols = np.empty((n, c_out * k * k, h * w), dtype=grad.dtype)
    np.copyto(cols.reshape(n, c_out, k, k, h, w), windows)
    # Rebuilt on every call: the flip cannot be a view, and a plan's
    # weights may change in place between replays.
    flipped = np.ascontiguousarray(
        weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(c, -1)
    gx = np.matmul(flipped, cols,
                   out=None if out is None else out.reshape(n, c, h * w))
    return gx.reshape(x_shape)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation), NCHW.

    weight: (out_channels, in_channels, k, k); bias: (out_channels,).
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels, weight expects {c_in_w}")
    if kh != kw:
        raise ValueError("only square kernels are supported")
    kernel = kh
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)

    cols = im2col(x.data, kernel, stride, padding)          # (N, C*k*k, L)
    w2d = weight.data.reshape(c_out, -1)                    # (C_out, C*k*k)
    out = np.matmul(w2d, cols).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad2d = grad.reshape(n, c_out, -1)                 # (N, C_out, L)
        if weight.requires_grad:
            gw = np.matmul(grad2d, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            x._accumulate(conv2d_input_grad(grad, weight.data, x.shape,
                                            stride, padding))

    return Tensor._make(out, parents, backward,
                        op="conv2d",
                        meta={"stride": stride, "padding": padding})


# ----------------------------------------------------------------------
# pooling / resampling
# ----------------------------------------------------------------------
def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling with non-overlapping or strided square windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, 0)
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(n * c, 1, -1)
        gcols = np.repeat(g, kernel * kernel, axis=1) / (kernel * kernel)
        gx = col2im(gcols, (n * c, 1, h, w), kernel, stride, 0)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(out, (x,), backward,
                        op="avg_pool2d",
                        meta={"kernel": kernel, "stride": stride})


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling with square windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, 0)
    argmax = cols.argmax(axis=1)                            # (N*C, L)
    out = np.take_along_axis(cols, argmax[:, None, :], axis=1)[:, 0, :]
    out = out.reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(n * c, -1)
        gcols = np.zeros_like(cols)
        np.put_along_axis(gcols, argmax[:, None, :], g[:, None, :], axis=1)
        gx = col2im(gcols, (n * c, 1, h, w), kernel, stride, 0)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(out, (x,), backward,
                        op="max_pool2d",
                        meta={"kernel": kernel, "stride": stride})


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Global average pooling to (N, C)."""
    return x.mean(axis=(2, 3))


def upsample_nearest2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of the spatial axes by ``scale``."""
    out = x.data.repeat(scale, axis=2).repeat(scale, axis=3)
    n, c, h, w = x.shape

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        x._accumulate(g)

    return Tensor._make(out, (x,), backward,
                        op="upsample2d", meta={"scale": scale})


# ----------------------------------------------------------------------
# batched-backward helpers
# ----------------------------------------------------------------------
def class_score_sum(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Sum of each sample's selected class logit: ``sum_i logits[i, y_i]``.

    The workhorse of batched gradient explainers: per-sample loss terms
    are independent across the batch axis, so backpropagating this single
    scalar produces every sample's own gradient in one tape sweep —
    ``d(sum)/d(logits[i]) = one_hot(y_i)`` has no cross-sample terms.
    Fused node: the backward scatters into a zeroed (N, C) buffer
    directly instead of going through ``__getitem__``'s generic
    ``np.add.at`` path.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    rows = np.arange(n)
    out = logits.data[rows, labels].sum()

    def backward(grad: np.ndarray) -> None:
        g = np.zeros_like(logits.data)
        g[rows, labels] = grad
        logits._accumulate(g)

    return Tensor._make(np.asarray(out), (logits,), backward,
                        op="class_score_sum", meta={"labels": labels})


# ----------------------------------------------------------------------
# normalisation / misc composites
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``.

    Fused single tape node: the stabilising max is subtracted as a
    detached ndarray, so no dead graph nodes are recorded per call.
    """
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        inner = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - inner))
    return Tensor._make(out, (x,), backward,
                        op="softmax", meta={"axis": axis})


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis`` (fused, see softmax)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - np.exp(out)
                      * grad.sum(axis=axis, keepdims=True))
    return Tensor._make(out, (x,), backward,
                        op="log_softmax", meta={"axis": axis})


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)
