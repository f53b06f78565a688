"""Shared experiment pipeline with on-disk model caching.

Every table/figure benchmark needs the same expensive artefacts: a
trained black-box classifier, a trained CAE, a trained ICAM-reg, and the
auxiliary baseline models.  :class:`ExperimentContext` builds them once
per (dataset, scale) and caches network weights under
``.repro_cache/`` so the full benchmark suite runs in one sitting.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import nn
from ..classifiers import SmallResNet, train_classifier
from ..config import ReproConfig
from ..core import CAEModel, train_cae
from ..data import ImageDataset, make_dataset
from ..explain import (ExplainerSuite, ICAMRegModel, build_all_explainers,
                       train_icam)

DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")


@dataclass
class ExperimentScale:
    """Knobs controlling how big one experiment run is."""

    image_size: int = 32
    train_divisor: int = 200     # Table I counts / divisor
    classifier_epochs: int = 8
    classifier_width: int = 12
    cae_iterations: int = 250
    aux_epochs: int = 3
    base_channels: int = 8
    seed: int = 0
    min_train_per_class: int = 60
    min_test_per_class: int = 10

    def tag(self, dataset: str) -> str:
        return (f"{dataset}_s{self.image_size}_d{self.train_divisor}"
                f"_e{self.classifier_epochs}_w{self.classifier_width}"
                f"_i{self.cae_iterations}_b{self.base_channels}"
                f"_m{self.min_train_per_class}_seed{self.seed}")


QUICK_SCALE = ExperimentScale(train_divisor=400, classifier_epochs=4,
                              cae_iterations=80, aux_epochs=2)


class ExperimentContext:
    """Lazily-built, disk-cached bundle of everything one dataset needs."""

    def __init__(self, dataset_name: str,
                 scale: Optional[ExperimentScale] = None,
                 cache_dir: str = DEFAULT_CACHE_DIR):
        self.dataset_name = dataset_name
        self.scale = scale or ExperimentScale()
        self.cache_dir = cache_dir
        self.config = ReproConfig(base_channels=self.scale.base_channels,
                                  image_size=self.scale.image_size,
                                  seed=self.scale.seed)
        self._train: Optional[ImageDataset] = None
        self._test: Optional[ImageDataset] = None
        self._classifier: Optional[SmallResNet] = None
        self._cae: Optional[CAEModel] = None
        self._icam: Optional[ICAMRegModel] = None
        self._suite: Optional[ExplainerSuite] = None
        self._engine = None
        self.train_times: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def _cache_path(self, kind: str) -> str:
        return os.path.join(self.cache_dir,
                            f"{self.scale.tag(self.dataset_name)}_{kind}.npz")

    @property
    def train_set(self) -> ImageDataset:
        if self._train is None:
            self._train = make_dataset(
                self.dataset_name, "train", self.scale.image_size,
                seed=self.scale.seed, divisor=self.scale.train_divisor,
                min_per_class=self.scale.min_train_per_class)
        return self._train

    @property
    def test_set(self) -> ImageDataset:
        if self._test is None:
            self._test = make_dataset(
                self.dataset_name, "test", self.scale.image_size,
                seed=self.scale.seed, divisor=self.scale.train_divisor,
                min_per_class=self.scale.min_test_per_class)
        return self._test

    # ------------------------------------------------------------------
    @property
    def classifier(self) -> SmallResNet:
        if self._classifier is None:
            model = SmallResNet(self.train_set.num_classes,
                                self.train_set.image_shape[0],
                                width=self.scale.classifier_width,
                                seed=self.scale.seed)
            path = self._cache_path("classifier")
            if os.path.exists(path):
                nn.load_state(model, path)
                model.eval()
            else:
                start = time.perf_counter()
                model = train_classifier(
                    self.train_set, epochs=self.scale.classifier_epochs,
                    width=self.scale.classifier_width, seed=self.scale.seed)
                self.train_times["classifier"] = time.perf_counter() - start
                nn.save_state(model, path)
            self._classifier = model
        return self._classifier

    # ------------------------------------------------------------------
    def _load_or_train_generative(self, kind: str):
        """Shared cache logic for the CAE and ICAM dual-code models."""
        if kind == "cae":
            model = CAEModel(self.train_set.num_classes, self.config)
        else:
            model = ICAMRegModel(self.train_set.num_classes, self.config)
        enc_path = self._cache_path(f"{kind}_encoder")
        if os.path.exists(enc_path):
            nn.load_state(model.encoder, enc_path)
            nn.load_state(model.decoder, self._cache_path(f"{kind}_decoder"))
            nn.load_state(model.discriminator,
                          self._cache_path(f"{kind}_disc"))
            model.eval()
            return model
        start = time.perf_counter()
        if kind == "cae":
            model = train_cae(self.train_set,
                              iterations=self.scale.cae_iterations,
                              config=self.config)
        else:
            model = train_icam(self.train_set,
                               iterations=self.scale.cae_iterations,
                               config=self.config)
        self.train_times[kind] = time.perf_counter() - start
        nn.save_state(model.encoder, enc_path)
        nn.save_state(model.decoder, self._cache_path(f"{kind}_decoder"))
        nn.save_state(model.discriminator, self._cache_path(f"{kind}_disc"))
        return model

    @property
    def cae(self) -> CAEModel:
        if self._cae is None:
            self._cae = self._load_or_train_generative("cae")
        return self._cae

    @property
    def icam(self) -> ICAMRegModel:
        if self._icam is None:
            self._icam = self._load_or_train_generative("icam")
        return self._icam

    # ------------------------------------------------------------------
    def suite(self, include: Optional[tuple] = None) -> ExplainerSuite:
        """The full explainer suite; CAE/ICAM reuse the cached models."""
        if self._suite is None:
            from ..explain import (CAEExplainer, ICAMExplainer)
            include_rest = tuple(m for m in (include or
                                             ("lime", "gradcam", "fullgrad",
                                              "simple_fullgrad",
                                              "smooth_fullgrad", "tscam",
                                              "stylex", "lagan"))
                                 if m not in ("cae", "icam"))
            suite = build_all_explainers(
                self.train_set, self.classifier, config=self.config,
                cae_iterations=self.scale.cae_iterations,
                aux_epochs=self.scale.aux_epochs, include=include_rest)
            cae_manifold = self.cae.build_manifold(self.train_set)
            suite.explainers["icam"] = ICAMExplainer(
                self.icam, self.icam.build_manifold(self.train_set),
                self.train_set.num_classes)
            suite.explainers["cae"] = CAEExplainer(
                self.cae, cae_manifold, self.classifier)
            suite.cae_model = self.cae
            suite.icam_model = self.icam
            self._suite = suite
        return self._suite

    # ------------------------------------------------------------------
    def engine_spec(self, include: Optional[tuple] = None):
        """Picklable :class:`~repro.serve.worker.EngineSpec` describing
        how a worker process rebuilds this context's classifier +
        explainer suite.

        The factory (:func:`context_explainers`, resolved by import in
        the worker) reconstructs the context from ``(dataset_name,
        scale, cache_dir)`` and loads the classifier/CAE/ICAM weights
        from the disk cache the parent populated — only the small
        auxiliary explainer models retrain, deterministically from the
        same seeds.  Build the suite (or call :meth:`engine`) *before*
        spawning workers from this spec so the weight cache is warm.
        """
        from ..serve.worker import EngineSpec
        return EngineSpec("repro.eval.pipeline:context_explainers",
                          kwargs=dict(dataset_name=self.dataset_name,
                                      scale=self.scale,
                                      cache_dir=self.cache_dir,
                                      include=include))

    def engine(self, include: Optional[tuple] = None, executor=None,
               workers: Optional[int] = None, **options):
        """The serving-layer :class:`~repro.serve.ExplainEngine` over this
        context's classifier + suite, so repeated sweeps hit the saliency
        cache and share micro-batched model calls.  ``options`` pass
        straight to the engine (its docstring lists them); the cache
        defaults to 4 shards here.  The engine is cached per
        configuration: calling again with the same arguments returns
        the same engine (warm cache); different arguments rebuild it —
        **invalidating** a previously returned engine whose executor the
        context created ("serial"/"threaded"/"process" strings): its
        workers are shut down (after a drain) so nothing leaks or
        strands.  An executor *instance* passed by the caller stays the
        caller's to close.
        ``executor`` picks the batch executor (``None``/"serial",
        "threaded", "process", or an instance) and ``workers`` its pool
        size; ``executor="process"`` derives the worker-side
        :meth:`engine_spec` automatically, so each worker process
        materializes its own model replicas from the disk cache this
        call populates.  A ``store`` directory is owned by the engine
        for its lifetime (single-writer rule), so two live engines must
        not share one.
        """
        options.setdefault("cache_shards", 4)
        config = (include, executor, workers, sorted(options.items()))
        if self._engine is None or self._engine[0] != config:
            from ..serve import ExplainEngine, make_executor
            if self._engine is not None:
                old_executor = self._engine[0][1]
                if old_executor is None or isinstance(old_executor, str):
                    self._engine[1].close()
            # suite() caches whatever method set it was first built with,
            # so filter here: the engine serves exactly `include` even
            # when the cached suite is broader, and fails loudly when the
            # cached suite is too narrow to honour the request.
            explainers = self.suite(include).explainers
            if include is not None:
                missing = [name for name in include
                           if name not in explainers]
                if missing:
                    raise KeyError(
                        f"suite was built without {missing}; construct the "
                        "context's suite with those methods first")
                explainers = {name: explainers[name] for name in include}
            # Build string executors here (not inside the engine): the
            # process pool needs the worker-side spec, and it must spawn
            # only after suite() above has written every cached weight
            # file the workers will load.
            engine_executor = executor
            if isinstance(executor, str) or executor is None:
                engine_executor = make_executor(
                    executor, spec=self.engine_spec(include),
                    workers=workers)
            self._engine = (config, ExplainEngine(
                self.classifier, explainers, executor=engine_executor,
                **options))
        return self._engine[1]

    # ------------------------------------------------------------------
    def sample_test_images(self, n: int, abnormal_only: bool = False,
                           seed: int = 0) -> Tuple[np.ndarray, np.ndarray,
                                                   np.ndarray]:
        """Random test images (images, labels, masks) for evaluation."""
        test = self.test_set
        idx = np.arange(len(test))
        if abnormal_only:
            idx = idx[test.labels[idx] != 0]
        rng = np.random.default_rng(seed)
        pick = rng.choice(idx, size=min(n, len(idx)), replace=False)
        masks = test.masks[pick] if test.masks is not None else \
            np.zeros((len(pick),) + test.image_shape[1:])
        return test.images[pick], test.labels[pick], masks


# ----------------------------------------------------------------------
def context_explainers(dataset_name: str,
                       scale: Optional[ExperimentScale] = None,
                       cache_dir: str = DEFAULT_CACHE_DIR,
                       include: Optional[tuple] = None):
    """Worker-process factory behind :meth:`ExperimentContext.engine_spec`.

    Rebuilds the context in the worker's own interpreter and returns
    ``(classifier, explainers)``.  The classifier/CAE/ICAM weights load
    from the disk cache the parent already populated; auxiliary
    explainer models retrain deterministically from the same seeds.
    Module-level on purpose: the :class:`~repro.serve.worker.EngineSpec`
    references it by ``"module:attr"`` string, which every
    ``multiprocessing`` start method can resolve by import.
    """
    context = ExperimentContext(dataset_name, scale=scale,
                                cache_dir=cache_dir)
    explainers = context.suite(include).explainers
    if include is not None:
        explainers = {name: explainers[name] for name in include}
    return context.classifier, explainers
