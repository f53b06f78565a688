"""Neural-network layers built on the :mod:`repro.nn.tensor` autodiff core.

The :class:`Module` base class mirrors the familiar torch.nn API surface
(``parameters()``, ``state_dict()``, ``train()``/``eval()``) so that the
CAE networks in :mod:`repro.core.networks` read like the paper's PyTorch
reference implementation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from . import functional as F
from . import init
from . import tensor as tensor_mod
from .tensor import Tensor


class frozen:
    """Context manager: parameters of ``modules`` stop requiring grad.

    Explainers that backpropagate only toward activations/inputs (the
    whole white-box family) wrap their backward passes in this so the
    tape skips every weight-gradient GEMM — a large share of conv
    backward cost — while per-sample input/feature gradients are
    untouched.

    Freezing is **reference-counted** per parameter (under a lock):
    overlapping ``frozen`` scopes — nested on one thread, or concurrent
    explainer batches sharing one classifier on executor worker threads
    — keep the flag down until the last scope exits, and the original
    flag is restored exactly once.  ``requires_grad`` flags on *shared*
    models would otherwise race: one scope's exit could re-enable weight
    gradients mid-backward for another, or leave them permanently off.
    """

    _lock = threading.Lock()
    #: id(param) -> [active scope count, original flag, param ref]
    _active: Dict[int, list] = {}
    #: Callbacks fired (no args) after any 0->1 or 1->0 refcount
    #: transition — i.e. whenever the *set* of frozen parameters changed.
    #: The serving layer's PlanCache listens here: compiled plans record
    #: the frozen set in their cache key, so a transition must dirty the
    #: ambient fingerprint.  Fired outside the lock (listeners may take
    #: their own locks).
    _listeners: List = []

    def __init__(self, *modules: "Module"):
        self.params = []
        seen: set = set()
        for module in modules:
            for p in module.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    self.params.append(p)

    def __enter__(self) -> "frozen":
        changed = False
        with frozen._lock:
            for p in self.params:
                entry = frozen._active.get(id(p))
                if entry is None:
                    # Keep a reference so id() stays valid for the entry.
                    frozen._active[id(p)] = [1, p.requires_grad, p]
                    p.requires_grad = False
                    changed = True
                else:
                    entry[0] += 1
        if changed:
            frozen._notify()
        return self

    def __exit__(self, *exc) -> bool:
        changed = False
        with frozen._lock:
            for p in self.params:
                entry = frozen._active[id(p)]
                entry[0] -= 1
                if entry[0] == 0:
                    p.requires_grad = entry[1]
                    del frozen._active[id(p)]
                    changed = True
        if changed:
            frozen._notify()
        return False

    @staticmethod
    def _notify() -> None:
        for fn in list(frozen._listeners):
            fn()

    @staticmethod
    def register_listener(fn) -> None:
        """Register ``fn()`` to fire after frozen-set transitions."""
        frozen._listeners.append(fn)

    @staticmethod
    def unregister_listener(fn) -> None:
        try:
            frozen._listeners.remove(fn)
        except ValueError:
            pass


def frozen_fingerprint() -> frozenset:
    """Identity of the currently-frozen parameter set.

    Execution plans compiled while a parameter set is frozen are only
    replayable under the same set (the trace baked in which gradients
    exist), so the serving-layer plan cache stamps entries with this
    fingerprint and re-validates it on every lookup.
    """
    with frozen._lock:
        return frozenset(frozen._active.keys())


class Parameter(Tensor):
    """A trainable tensor; discovered automatically by :class:`Module`.

    Parameters are always stored in the engine's default dtype so the
    whole forward pass stays in one precision regime (no silent float64
    upcasts from stray initialiser arrays).
    """

    def __init__(self, data):
        if isinstance(data, Tensor):
            data = data.data
        data = np.asarray(data).astype(tensor_mod.get_default_dtype(),
                                       copy=False)
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered for ``parameters()`` and
    ``state_dict()`` traversal in attribute definition order.
    """

    def __init__(self):
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._params: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track a non-trainable array in the state dict (e.g. BN stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        out: List[Parameter] = []
        seen: set = set()
        for p in self._params.values():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
        for m in self._modules.values():
            for p in m.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    out.append(p)
        return out

    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        for name, p in self._params.items():
            yield prefix + name, p
        for mod_name, m in self._modules.items():
            yield from m.named_parameters(prefix + mod_name + ".")

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, p in self._params.items():
            state[prefix + name] = p.data
        for name, buf in self._buffers.items():
            state[prefix + name] = buf
        for mod_name, m in self._modules.items():
            state.update(m.state_dict(prefix + mod_name + "."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray],
                        prefix: str = "") -> None:
        for name, p in self._params.items():
            key = prefix + name
            if key not in state:
                raise KeyError(f"missing parameter {key!r} in state dict")
            if state[key].shape != p.data.shape:
                raise ValueError(f"shape mismatch for {key!r}: "
                                 f"{state[key].shape} vs {p.data.shape}")
            p.data[...] = state[key]
        for name in list(self._buffers):
            key = prefix + name
            if key in state:
                self._buffers[name][...] = state[key]
                object.__setattr__(self, name, self._buffers[name])
        for mod_name, m in self._modules.items():
            m.load_state_dict(state, prefix + mod_name + ".")

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Run sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)
        for i, m in enumerate(modules):
            self._modules[f"layer{i}"] = m

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


# ----------------------------------------------------------------------
# linear & convolutional layers
# ----------------------------------------------------------------------
class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None, bias: bool = True):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal(
            (out_features, in_features), rng, fan_in=in_features))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight.transpose())
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution layer (square kernels, NCHW)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: Optional[np.random.Generator] = None, bias: bool = True):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(init.kaiming_normal(
            (out_channels, in_channels, kernel_size, kernel_size), rng,
            fan_in=fan_in))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)


# ----------------------------------------------------------------------
# normalisation layers
# ----------------------------------------------------------------------
class InstanceNorm2d(Module):
    """Instance normalisation over each (sample, channel) spatial map.

    The standard choice for image-to-image GANs (and what MUNIT-style
    encoders/decoders, the architecture family CAE builds on, use).
    """

    def __init__(self, num_features: int, eps: float = 1e-5,
                 affine: bool = True):
        super().__init__()
        self.eps = eps
        self.affine = affine
        if affine:
            self.weight = Parameter(init.ones(num_features))
            self.bias = Parameter(init.zeros(num_features))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=(2, 3), keepdims=True)
        var = x.var(axis=(2, 3), keepdims=True, eps=self.eps)
        out = (x - mu) / var.sqrt()
        if self.affine:
            c = x.shape[1]
            out = out * self.weight.reshape(1, c, 1, 1) \
                + self.bias.reshape(1, c, 1, 1)
        return out


class BatchNorm2d(Module):
    """Batch normalisation with running statistics for eval mode."""

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones(num_features))
        self.bias = Parameter(init.zeros(num_features))
        self.register_buffer("running_mean", init.zeros(num_features))
        self.register_buffer("running_var", init.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        c = x.shape[1]
        if self.training:
            mu = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True, eps=0.0)
            m = self.momentum
            self.running_mean *= (1 - m)
            self.running_mean += m * mu.data.reshape(-1)
            self.running_var *= (1 - m)
            self.running_var += m * var.data.reshape(-1)
            var = var + self.eps
        else:
            mu = Tensor(self.running_mean.reshape(1, c, 1, 1))
            var = Tensor((self.running_var + self.eps).reshape(1, c, 1, 1))
        out = (x - mu) / var.sqrt()
        return out * self.weight.reshape(1, c, 1, 1) \
            + self.bias.reshape(1, c, 1, 1)


class LayerNorm(Module):
    """Layer normalisation over the last dimension (used by the TS-CAM
    analog's attention blocks)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones(dim))
        self.bias = Parameter(init.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True, eps=self.eps)
        return (x - mu) / var.sqrt() * self.weight + self.bias


# ----------------------------------------------------------------------
# activations & misc
# ----------------------------------------------------------------------
class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.2):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Flatten(Module):
    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_dim)


class Dropout(Module):
    def __init__(self, p: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class AvgPool2d(Module):
    def __init__(self, kernel: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel = kernel
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel, self.stride)


class MaxPool2d(Module):
    def __init__(self, kernel: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel = kernel
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Upsample(Module):
    def __init__(self, scale: int = 2):
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_nearest2d(x, self.scale)
