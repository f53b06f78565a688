"""Shared fixtures: tiny datasets and trained models reused across tests.

Training fixtures are session-scoped and deliberately small (16x16
images, few iterations) so the whole suite runs in minutes on CPU while
still exercising real training dynamics.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.classifiers import SmallResNet, train_classifier
from repro.core import CAEModel, train_cae
from repro.data import make_dataset
from repro.explain.base import Explainer, SaliencyResult


TINY_SIZE = 16


class StubExplainer(Explainer):
    """Deterministic stub for serving-runtime tests: returns zero maps,
    counts the maps it computes, optionally sleeping ``sleep_ms`` per
    map to simulate a method of known cost.  Import it (and the
    variants below) with ``from conftest import StubExplainer``."""

    name = "stub"
    needs_gradients = False

    def __init__(self, sleep_ms: float = 0.0):
        self.sleep_ms = sleep_ms
        self.computed = 0

    def explain_batch(self, images, labels, target_labels=None):
        if self.sleep_ms:
            time.sleep(self.sleep_ms * len(images) / 1000.0)
        self.computed += len(images)
        return [SaliencyResult(np.zeros(images.shape[2:]), int(y))
                for y in labels]


class GatedExplainer(StubExplainer):
    """Stub whose batches park on ``release`` until the test sets it;
    ``entered`` signals that a batch reached the explainer."""

    name = "gated"

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def explain_batch(self, images, labels, target_labels=None):
        self.entered.set()
        assert self.release.wait(timeout=10)
        return super().explain_batch(images, labels, target_labels)


class FlakyExplainer(StubExplainer):
    """Stub whose first ``failures`` batches raise a transient error
    (``failures=None``: every batch fails); ``calls`` counts batches."""

    name = "flaky"

    def __init__(self, failures: int | None = 1):
        super().__init__()
        self.failures = failures
        self.calls = 0

    def explain_batch(self, images, labels, target_labels=None):
        self.calls += 1
        if self.failures is None or self.calls <= self.failures:
            raise RuntimeError("transient backend failure")
        return super().explain_batch(images, labels, target_labels)


class MarkerExplainer(StubExplainer):
    """Stub whose batch raises ``ValueError`` when it holds an image
    whose first pixel is ``MARKER`` (the bad request); otherwise each
    map is its image's first channel.  ``batch_sizes`` records the size
    of every batch it was called with."""

    name = "marker"
    MARKER = -1000.0

    def __init__(self):
        super().__init__()
        self.batch_sizes = []

    def explain_batch(self, images, labels, target_labels=None):
        self.batch_sizes.append(len(images))
        if (images[:, 0, 0, 0] == self.MARKER).any():
            raise ValueError("marked request")
        self.computed += len(images)
        return [SaliencyResult(np.array(images[i, 0]), int(labels[i]))
                for i in range(len(images))]


class CountingClassifier:
    """Hand this to an engine in place of ``inner`` (its explainers keep
    the real model): ``rows`` records the row count of every
    ``predict`` the engine makes."""

    def __init__(self, inner):
        self.inner = inner
        self.num_classes = inner.num_classes
        self.rows = []

    def predict(self, images):
        self.rows.append(len(images))
        return self.inner.predict(images)


def force_pipe_replies(monkeypatch) -> None:
    """Make every process-pool batch for the rest of the test reply
    through the pipe leg (``ok_pipe``): the parent advertises an 8-byte
    return segment, so no worker reply fits in the arena."""
    from repro.serve.transport import ShmArena

    encode = ShmArena.encode

    def tiny_ret(self, slot, images):
        out_desc, (name, _size) = encode(self, slot, images)
        return out_desc, (name, 8)

    monkeypatch.setattr(ShmArena, "encode", tiny_ret)


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued f wrt array x.

    Shared by the tensor/functional gradient-check tests (import it with
    ``from conftest import numeric_grad``); run those checks on float64
    arrays — float32 lacks the precision for 1e-6 differencing.
    """
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = f()
        x[i] = old - eps
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


@pytest.fixture(scope="session")
def tiny_config() -> ReproConfig:
    return ReproConfig(image_size=TINY_SIZE, base_channels=8, seed=0)


@pytest.fixture(scope="session")
def tiny_train_set():
    return make_dataset("brain_tumor1", "train", image_size=TINY_SIZE,
                        seed=0, counts={0: 24, 1: 24})


@pytest.fixture(scope="session")
def tiny_test_set():
    return make_dataset("brain_tumor1", "test", image_size=TINY_SIZE,
                        seed=0, counts={0: 8, 1: 8})


@pytest.fixture(scope="session")
def tiny_oct_set():
    return make_dataset("oct", "train", image_size=TINY_SIZE, seed=0,
                        counts={0: 6, 1: 6, 2: 6, 3: 6})


@pytest.fixture(scope="session")
def tiny_classifier(tiny_train_set) -> SmallResNet:
    return train_classifier(tiny_train_set, epochs=6, width=8, seed=0)


@pytest.fixture(scope="session")
def tiny_cae(tiny_train_set, tiny_config) -> CAEModel:
    return train_cae(tiny_train_set, iterations=25, batch_size=4,
                     config=tiny_config)


@pytest.fixture(scope="session")
def tiny_manifold(tiny_cae, tiny_train_set):
    return tiny_cae.build_manifold(tiny_train_set)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
