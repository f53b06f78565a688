"""Explainer interface shared by CAE and all nine baselines.

Batched-first invariant
-----------------------
:meth:`Explainer.explain_batch` is the primitive every subclass
implements: forward *and* backward passes run over the whole image batch
in single conv/GEMM calls.  Per-sample gradients come free because the
loss terms are independent across the batch axis — summing the
per-class-selected logits (:func:`repro.nn.class_score_sum`) and
backpropagating once yields each sample's own gradient.
:meth:`Explainer.explain` is a thin one-image wrapper; batch-of-one and
per-image results agree to float32 tolerance, which the parity test
suite asserts for every registered method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

import numpy as np


@dataclass
class SaliencyResult:
    """Saliency explanation for one image.

    ``saliency`` is an (H, W) non-negative importance map; higher values
    mean greater attribution toward the explained class decision.

    ``image_digest`` carries the content digest of the explained image
    when the result came through the serving runtime (which hashes each
    request exactly once and threads the digest through submit, queue,
    and cache insert); explainers called directly leave it ``None``.
    """

    saliency: np.ndarray
    label: int
    target_label: Optional[int] = None
    meta: Dict = field(default_factory=dict)
    image_digest: Optional[str] = None

    def normalized(self) -> np.ndarray:
        """Saliency rescaled to [0, 1]; monotone and ranking-preserving
        over the non-negative values (the map's contract).

        Non-finite entries are zeroed and out-of-contract negative values
        clipped to 0 before rescaling, so NaN-polluted or negative-only
        maps (which batched float32 gradient sweeps can produce) degrade
        to all-zero maps instead of propagating NaN into downstream
        metrics.  Negative entries thus collapse to 0 rather than rank.
        """
        s = np.nan_to_num(self.saliency, nan=0.0, posinf=0.0, neginf=0.0)
        s = np.clip(s, 0.0, None)
        s = s - s.min()
        peak = s.max()
        return s / peak if peak > 0 else s

    def top_pixels(self, k: int) -> np.ndarray:
        """Indices (row, col) of the k most salient pixels, descending.

        Ties break deterministically in row-major pixel order (stable
        sort), so float32 maps with repeated values rank reproducibly.
        """
        flat = np.argsort(-self.saliency, axis=None, kind="stable")[:k]
        return np.stack(np.unravel_index(flat, self.saliency.shape), axis=1)


class Explainer:
    """Base class: produce saliency maps for a batch of images.

    Subclasses set :attr:`name` and implement :meth:`explain_batch` (the
    primitive — see the module docstring for the batched-first
    invariant).  The ``target_labels`` argument selects which counter
    class to contrast against in counterfactual methods;
    gradient/perturbation methods may ignore it.  :attr:`needs_gradients`
    tells serving layers whether the method's batch call may legally run
    under ``nn.no_grad()``.
    """

    name = "base"

    #: True for white-box methods whose explain_batch records a tape and
    #: calls backward (Grad-CAM, FullGrad family, StyLEx); the serving
    #: engine wraps everything else in ``nn.no_grad()``.
    needs_gradients = False

    #: True when the method's hot path is a fixed primitive sequence the
    #: serving layer may compile into a :mod:`repro.nn.plan`
    #: ExecutionPlan and replay tape-free for repeated
    #: (batch_shape, dtype) keys.  Methods with data-dependent control
    #: flow (LIME sampling, occlusion sweeps, StyLEx/CAE optimisation
    #: loops, ICAM's manifold search) stay ineligible and always run on
    #: the tape.
    plan_eligible = False

    @property
    def plan_key(self) -> Hashable:
        """What names this method's traced core in a plan cache, beside
        the batch shape and dtype.  Explainers whose :meth:`compile_plan`
        traces the same computation return equal keys, so they compile
        and replay one plan; the default, :attr:`name`, shares with no
        other method."""
        return self.name

    def compile_plan(self, images: np.ndarray, labels: np.ndarray):
        """Trace this method's hot path into an ExecutionPlan for the
        given exemplar batch (its shape/dtype fix the plan's key).

        Only called when :attr:`plan_eligible`; may raise
        ``repro.nn.plan.PlanUnsupported`` if the traced computation uses
        a primitive with no compiled kernel.
        """
        raise NotImplementedError(f"{type(self).__name__} is not plan-eligible")

    def explain_batch_planned(self, plan, images: np.ndarray,
                              labels: np.ndarray,
                              target_labels: Optional[np.ndarray] = None
                              ) -> "List[SaliencyResult]":
        """Like :meth:`explain_batch` but replaying a compiled plan from
        :meth:`compile_plan` instead of recording a tape.  Raises
        ``repro.nn.plan.PlanMismatch`` when the batch's shape or dtype
        differs from the plan's (callers then fall back to the tape).
        """
        raise NotImplementedError(f"{type(self).__name__} is not plan-eligible")

    def explain(self, image: np.ndarray, label: int,
                target_label: Optional[int] = None) -> SaliencyResult:
        """Thin one-image wrapper over :meth:`explain_batch`."""
        targets = None if target_label is None \
            else np.array([target_label], dtype=np.int64)
        return self.explain_batch(np.asarray(image)[None],
                                  np.array([label], dtype=np.int64),
                                  targets)[0]

    def explain_batch(self, images: np.ndarray, labels: np.ndarray,
                      target_labels: Optional[np.ndarray] = None
                      ) -> List[SaliencyResult]:
        """Explain a batch of images, returning one result per image.

        The primitive of the explainer contract: implementations run the
        whole batch through shared conv/GEMM calls (and, for white-box
        methods, one shared backward pass).  Legacy subclasses that only
        override :meth:`explain` fall back to a per-image loop; all ten
        registered methods implement the batched path directly.
        """
        if type(self).explain is not Explainer.explain:
            targets = resolve_targets(labels, target_labels)
            results = []
            for i, (image, label) in enumerate(zip(images, labels)):
                results.append(self.explain(image, int(label),
                                            target_or_none(targets, i)))
            return results
        raise NotImplementedError(
            f"{type(self).__name__} implements neither explain_batch (the "
            "batched-first primitive) nor a legacy explain override")


def default_counter_label(label: int, num_classes: int) -> int:
    """Default counter class: NORMAL (0) for abnormal samples, class 1
    otherwise — mirroring the paper's normal-vs-abnormal transitions."""
    return 0 if label != 0 else 1 % num_classes


def resolve_targets(labels: np.ndarray,
                    target_labels: Optional[np.ndarray],
                    num_classes: Optional[int] = None) -> np.ndarray:
    """Per-image target labels as an int array.

    The sentinel -1 marks "no target" entries (``target_labels=None``
    sets it everywhere; micro-batched serving can also mix -1 with real
    targets in one array).  When ``num_classes`` is given every sentinel
    entry is resolved to :func:`default_counter_label` for its image;
    otherwise sentinels pass through for :func:`target_or_none`.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if target_labels is None:
        targets = np.full(len(labels), -1, dtype=np.int64)
    else:
        targets = np.array(target_labels, dtype=np.int64, copy=True)
    if num_classes is not None:
        for i in np.nonzero(targets < 0)[0]:
            targets[i] = default_counter_label(int(labels[i]), num_classes)
    return targets


def target_or_none(targets: np.ndarray, i: int) -> Optional[int]:
    """Per-image target for result metadata (-1 sentinel -> None)."""
    t = int(targets[i])
    return None if t < 0 else t
