"""Edge-case tests for explainers using lightweight mock models.

These tests isolate explainer *logic* (path truncation, weighting,
normalisation) from training quality by mocking the classifier and
generative model.
"""

import numpy as np
import pytest

from repro.core.manifold import ClassAssociatedManifold
from repro.explain.base import Explainer, SaliencyResult
from repro.explain.cae_explainer import CAEExplainer


class MockClassifier:
    """Deterministic classifier: class 1 probability = mean pixel value."""

    num_classes = 2

    def predict_proba(self, images, batch_size=64):
        images = np.asarray(images)
        p1 = images.mean(axis=(1, 2, 3))
        return np.stack([1 - p1, p1], axis=1)

    def predict(self, images, batch_size=64):
        return self.predict_proba(images).argmax(axis=1)


class MockCAE:
    """Fake CAE whose decoded brightness equals the CS code's first entry."""

    class _Cfg:
        cs_dim = 2

    config = _Cfg()

    def encode(self, images, batch_size=64):
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        n = len(images)
        cs = np.stack([images.mean(axis=(1, 2, 3)), np.zeros(n)], axis=1)
        is_codes = np.zeros((n, 1, 2, 2))
        return cs, is_codes

    def decode(self, cs_codes, is_codes, batch_size=64):
        cs_codes = np.atleast_2d(np.asarray(cs_codes))
        n = len(cs_codes)
        brightness = np.clip(cs_codes[:, 0], 0, 1)
        return brightness[:, None, None, None] * np.ones((n, 1, 8, 8))


@pytest.fixture()
def mock_setup():
    codes = np.array([[0.1, 0.0]] * 5 + [[0.9, 0.0]] * 5)
    labels = np.repeat([0, 1], 5)
    manifold = ClassAssociatedManifold(codes, labels)
    return MockCAE(), manifold, MockClassifier()


class TestCAEExplainerLogic:
    def test_series_stops_at_flip(self, mock_setup):
        cae, manifold, clf = mock_setup
        explainer = CAEExplainer(cae, manifold, clf, steps=10,
                                 stop_at_flip=True)
        dark = np.full((1, 8, 8), 0.1)      # class 0 territory
        series, probs = explainer.generate_series(dark, 0, 1)
        # The mock flips at brightness > 0.5 — well before 10 steps.
        assert len(series) < 10
        assert clf.predict(series[-1:])[0] == 1

    def test_series_full_length_without_stop(self, mock_setup):
        cae, manifold, clf = mock_setup
        explainer = CAEExplainer(cae, manifold, clf, steps=7,
                                 stop_at_flip=False)
        dark = np.full((1, 8, 8), 0.1)
        series, probs = explainer.generate_series(dark, 0, 1)
        assert len(series) == 7

    def test_probs_decrease_for_source_class(self, mock_setup):
        cae, manifold, clf = mock_setup
        explainer = CAEExplainer(cae, manifold, clf, steps=6,
                                 stop_at_flip=False)
        dark = np.full((1, 8, 8), 0.1)
        __, probs = explainer.generate_series(dark, 0, 1)
        # Source-class (0) probability must fall along the guided path.
        assert probs[-1] < probs[0]

    def test_saliency_nonnegative_and_finite(self, mock_setup):
        cae, manifold, clf = mock_setup
        explainer = CAEExplainer(cae, manifold, clf, steps=5)
        result = explainer.explain(np.full((1, 8, 8), 0.1), 0, 1)
        assert np.isfinite(result.saliency).all()
        assert result.saliency.min() >= 0.0


class TestExplainerBase:
    def test_explain_batch_uses_targets(self):
        captured = []

        class Recorder(Explainer):
            def explain(self, image, label, target_label=None):
                captured.append((label, target_label))
                return SaliencyResult(np.zeros(image.shape[1:]), label,
                                      target_label)

        images = np.zeros((3, 1, 4, 4))
        labels = np.array([0, 1, 1])
        targets = np.array([1, 0, 0])
        Recorder().explain_batch(images, labels, targets)
        assert captured == [(0, 1), (1, 0), (1, 0)]

    def test_base_explain_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Explainer().explain(np.zeros((1, 4, 4)), 0)


class TestPerturbationEdgeCases:
    def test_patch_selection_handles_borders(self):
        from repro.eval.perturbation import _select_patch_centers
        saliency = np.zeros((6, 6))
        saliency[0, 0] = 2.0     # corner maximum
        saliency[5, 5] = 1.0
        centers = _select_patch_centers(saliency, 2, patch=3)
        assert centers[0] == (0, 0)
        assert centers[1] == (5, 5)

    def test_patch_selection_more_patches_than_peaks(self):
        from repro.eval.perturbation import _select_patch_centers
        saliency = np.zeros((4, 4))
        centers = _select_patch_centers(saliency, 4, patch=3)
        assert len(centers) == 4      # falls back to remaining pixels

    def test_degradation_curve_of_mock(self, mock_setup):
        """With the mean-brightness mock classifier, covering bright
        pixels with random values must reduce the class-1 probability of
        a bright image."""
        from repro.eval.perturbation import perturbation_curve
        __, __, clf = mock_setup

        class BrightExplainer(Explainer):
            def explain(self, image, label, target_label=None):
                return SaliencyResult(image[0].copy(), label)

        bright = np.ones((1, 1, 8, 8)) * 0.95
        curve = perturbation_curve(BrightExplainer(), clf, bright,
                                   np.array([1]), n_patches=4, patch=3,
                                   rng=np.random.default_rng(0),
                                   fill="random")
        assert curve.drops[-1] > 0

    def test_occlusion_of_no_images_is_empty(self):
        """A zero-row batch reaches the real classifier's predict_proba,
        which returns (0, num_classes) rather than raising."""
        from repro.classifiers import SmallResNet
        from repro.explain.occlusion import OcclusionExplainer
        explainer = OcclusionExplainer(SmallResNet(2, width=8), window=4,
                                       stride=4)
        assert explainer.explain_batch(np.zeros((0, 1, 16, 16)),
                                       np.zeros(0, dtype=np.int64)) == []

    def test_occlusion_of_image_smaller_than_window(self, mock_setup):
        """The occluder shrinks to fit: a 3x3 image under a 4-px window
        is scored at one whole-image position instead of raising
        ZeroDivisionError.  Zero fill drops the mock's class-1
        probability (the mean pixel) to 0, so the map is that mean."""
        from repro.explain.occlusion import OcclusionExplainer
        __, __, clf = mock_setup
        images = np.random.default_rng(0).uniform(0.2, 0.9, (2, 1, 3, 3))
        results = OcclusionExplainer(clf, window=4, stride=4, fill=0.0) \
            .explain_batch(images, np.ones(2, dtype=np.int64))
        for image, result in zip(images, results):
            np.testing.assert_allclose(result.saliency,
                                       np.full((3, 3), image.mean()),
                                       rtol=1e-5)
