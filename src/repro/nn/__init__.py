"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

The target paper trains its networks in PyTorch; this environment has no
deep-learning framework, so the reproduction ships its own: a tape-based
autodiff :class:`~repro.nn.tensor.Tensor`, convolutional layers, GAN-ready
normalisation, Adam, and checkpointing.

Performance contract
--------------------
* **Inference mode.**  Gradient-free code wraps its forward passes in
  ``with nn.no_grad():`` (or decorates the function with ``@nn.no_grad()``).
  Inside that scope :meth:`Tensor._make` skips parent tracking and
  backward-closure retention entirely: forward values are bit-identical
  to tracked execution, no tape memory is held, and calling
  ``backward()`` on a no-grad result raises a ``RuntimeError``.
  ``set_grad_enabled``/``is_grad_enabled`` expose the raw switch;
  ``enable_grad`` re-enables recording inside an outer ``no_grad``.
  ``Module.eval()`` only toggles layer behaviour (dropout, batch-norm
  statistics); it does not disable the tape — combine it with
  ``no_grad`` for gradient-free evaluation.
* **Dtype regime.**  The engine runs float32 by default: scalars/lists,
  parameters, initialisers, and datasets all materialise in
  ``get_default_dtype()``.  Tensors built from existing float ndarrays
  keep their dtype, so gradient-check tests pass float64 arrays (or call
  ``set_default_dtype(np.float64)`` around model construction) to get
  full-precision tapes.  Ops never silently upcast float32 activations.
"""

from . import functional
from . import plan
from .functional import class_score_sum
from .blocks import MLP, DownBlock, ResidualBlock, UpBlock
from .layers import (AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten,
                     GlobalAvgPool2d, InstanceNorm2d, LayerNorm, LeakyReLU,
                     Linear, MaxPool2d, Module, Parameter, ReLU, Sequential,
                     Sigmoid, Tanh, Upsample, frozen, frozen_fingerprint)
from .losses import (accuracy, binary_real_fake_loss, cross_entropy, l1_loss,
                     mse_loss)
from .optim import SGD, Adam, Optimizer
from .plan import ExecutionPlan, PlanMismatch, PlanUnsupported, trace
from .serialization import load_state, save_state
from .tensor import (Tensor, as_tensor, enable_grad, get_default_dtype,
                     is_grad_enabled, no_grad, ones, randn,
                     register_dtype_listener, set_default_dtype,
                     set_grad_enabled, unregister_dtype_listener, zeros)

__all__ = [
    "Tensor", "as_tensor", "zeros", "ones", "randn",
    "no_grad", "enable_grad", "set_grad_enabled", "is_grad_enabled", "frozen",
    "frozen_fingerprint",
    "set_default_dtype", "get_default_dtype",
    "register_dtype_listener", "unregister_dtype_listener",
    "Module", "Parameter", "Sequential", "Linear", "Conv2d",
    "InstanceNorm2d", "BatchNorm2d", "LayerNorm",
    "ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Flatten", "Dropout",
    "AvgPool2d", "MaxPool2d", "GlobalAvgPool2d", "Upsample",
    "ResidualBlock", "DownBlock", "UpBlock", "MLP",
    "SGD", "Adam", "Optimizer",
    "l1_loss", "mse_loss", "cross_entropy", "binary_real_fake_loss",
    "accuracy", "class_score_sum", "save_state", "load_state", "functional",
    "plan", "trace", "ExecutionPlan", "PlanUnsupported", "PlanMismatch",
]
