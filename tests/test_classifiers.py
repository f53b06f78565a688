"""Unit tests for the black-box classifier and its trainer."""

import os
import threading

import numpy as np
import pytest

from repro import nn
from repro.classifiers import ClassifierTrainer, SmallResNet, train_classifier
from repro.data import ImageDataset, make_dataset
from repro.nn import functional as F

OCT_CLASSIFIER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench",
    "weights", "oct_s32_d400_e4_w12_i80_b8_m60_seed0_classifier.npz")


class TestSmallResNet:
    def test_logits_shape(self, rng):
        model = SmallResNet(num_classes=3, width=8)
        logits = model(nn.Tensor(rng.random((2, 1, 16, 16))))
        assert logits.shape == (2, 3)

    def test_predict_proba_rows_sum_to_one(self, rng):
        model = SmallResNet(num_classes=4, width=8)
        proba = model.predict_proba(rng.random((5, 1, 16, 16)))
        assert proba.shape == (5, 4)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predict_argmax_consistent(self, rng):
        model = SmallResNet(num_classes=2, width=8)
        images = rng.random((6, 1, 16, 16))
        assert np.all(model.predict(images)
                      == model.predict_proba(images).argmax(axis=1))

    def test_forward_with_features(self, rng):
        model = SmallResNet(num_classes=2, width=8)
        logits, feats = model.forward_with_features(
            nn.Tensor(rng.random((1, 1, 16, 16))))
        assert logits.shape == (1, 2)
        assert feats.shape == (1, 32, 4, 4)   # width*4 at 1/4 resolution

    def test_forward_with_all_features(self, rng):
        model = SmallResNet(num_classes=2, width=8)
        __, feats = model.forward_with_all_features(
            nn.Tensor(rng.random((1, 1, 16, 16))))
        assert len(feats) == 4
        assert feats[0].shape[2] == 16      # stem keeps resolution

    def test_seed_determinism(self, rng):
        images = rng.random((2, 1, 16, 16))
        a = SmallResNet(2, width=8, seed=3).predict_proba(images)
        b = SmallResNet(2, width=8, seed=3).predict_proba(images)
        assert np.allclose(a, b)

    def test_batched_inference_matches_full(self, rng):
        """Chunking is bit-invariant: every GEMM, the head's too, is per
        sample, so no row's answer depends on the rows beside it."""
        model = _randomised(12)
        images = rng.random((70, 1, 32, 32)).astype(np.float32)
        full = model.predict_proba(images, batch_size=64)
        for batch_size in (1, 3, 16):
            assert np.array_equal(
                model.predict_proba(images, batch_size=batch_size), full)


def _batch_norms(model):
    return [model.stem_bn] + [bn for stage in (model.stage1, model.stage2,
                                               model.stage3)
                              for bn in (stage.bn1, stage.bn2)]


def _randomised(width, seed=1):
    """A model whose BN fold is non-trivial: random running statistics,
    affine parameters and conv biases."""
    model = SmallResNet(num_classes=4, width=width, seed=seed)
    rng = np.random.default_rng(seed)
    for bn in _batch_norms(model):
        c = bn.running_mean.shape[0]
        bn.running_mean[...] = rng.normal(0.0, 0.5, c)
        bn.running_var[...] = rng.uniform(0.3, 2.0, c)
        bn.weight.data[...] = rng.uniform(0.5, 1.5, c)
        bn.bias.data[...] = rng.normal(0.0, 0.3, c)
    for name, p in model.named_parameters():
        if name.endswith("bias") and "bn" not in name:
            p.data[...] = rng.normal(0.0, 0.1, p.shape)
    return model


def _oct_classifier():
    model = SmallResNet(num_classes=4, width=12)
    nn.load_state(model, OCT_CLASSIFIER)
    return model


def _tape_proba(model, images):
    """The reference: softmax(forward) of the eval-mode tape."""
    was_training = model.training
    model.eval()
    try:
        with nn.no_grad():
            return F.softmax(model(nn.Tensor(images)), axis=-1).data
    finally:
        model.train(was_training)


_MODELS = {
    "w8-16px": (lambda: _randomised(8), 16),
    "w12-32px": (lambda: _randomised(12), 32),
    "oct": (_oct_classifier, 32),
}


def _images(model_id, rng, n=24):
    size = _MODELS[model_id][1]
    if model_id == "oct":
        return make_dataset("oct", "test", image_size=size,
                            counts={k: n // 4 for k in range(4)}).images
    return rng.random((n, 1, size, size))


class TestInferenceKernel:
    """``predict_proba``'s folded channels-last kernel against the tape."""

    @pytest.mark.parametrize("model_id", sorted(_MODELS))
    def test_matches_tape_float32(self, model_id, rng):
        model = _MODELS[model_id][0]()
        images = _images(model_id, rng).astype(np.float32)
        proba = model.predict_proba(images)
        expected = _tape_proba(model, images)
        assert proba.dtype == np.float32
        np.testing.assert_allclose(proba, expected, rtol=0, atol=1e-6)
        assert np.array_equal(proba.argmax(1), expected.argmax(1))

    @pytest.mark.parametrize("model_id", sorted(_MODELS))
    def test_matches_tape_float64(self, model_id, rng):
        nn.set_default_dtype(np.float64)
        try:
            model = _MODELS[model_id][0]()
            images = _images(model_id, rng).astype(np.float64)
            proba = model.predict_proba(images)
            expected = _tape_proba(model, images)
        finally:
            nn.set_default_dtype(np.float32)
        assert model.head.weight.dtype == proba.dtype == np.float64
        np.testing.assert_allclose(proba, expected, rtol=0, atol=1e-12)
        assert np.array_equal(proba.argmax(1), expected.argmax(1))

    def test_output_dtype_is_numpy_promotion(self, rng):
        model = _randomised(8)
        images = rng.random((3, 1, 16, 16))
        assert model.predict_proba(images.astype(np.float32)).dtype \
            == np.float32
        proba64 = model.predict_proba(images)
        assert proba64.dtype == _tape_proba(model, images).dtype == np.float64

    def test_training_model_gets_eval_probabilities_untouched(self, rng):
        model = _randomised(8)
        images = rng.random((6, 1, 16, 16)).astype(np.float32)
        expected = _tape_proba(model, images)
        model.train()
        state = {k: v.copy() for k, v in model.state_dict().items()}
        proba = model.predict_proba(images)
        np.testing.assert_allclose(proba, expected, rtol=0, atol=1e-6)
        assert model.training and all(m.training for m in _batch_norms(model))
        for key, value in model.state_dict().items():
            assert np.array_equal(value, state[key]), key

    def test_concurrent_predicts_on_training_model(self, rng):
        """4 threads x 100 calls on one train-mode model all get the
        eval-mode answer (flipping the shared model to eval() and back
        per call let one thread's restore switch BatchNorm to batch
        statistics under another thread's forward)."""
        model = _randomised(8)
        images = rng.random((32, 1, 16, 16)).astype(np.float32)
        expected = _tape_proba(model, images)
        model.train()
        wrong = []

        def worker():
            for _ in range(100):
                proba = model.predict_proba(images)
                if not np.allclose(proba, expected, rtol=0, atol=1e-6):
                    wrong.append(proba)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not wrong
        assert model.training

    def test_zero_rows(self):
        model = SmallResNet(num_classes=3, width=8)
        for dtype in (np.float32, np.float64):
            empty = np.zeros((0, 1, 16, 16), dtype=dtype)
            proba = model.predict_proba(empty)
            assert proba.shape == (0, 3) and proba.dtype == dtype
            labels = model.predict(empty)
            assert labels.shape == (0,)
            assert np.issubdtype(labels.dtype, np.integer)


class TestTrainer:
    def test_training_improves_train_accuracy(self, tiny_train_set):
        model = SmallResNet(2, width=8, seed=0)
        trainer = ClassifierTrainer(model, rng=np.random.default_rng(0))
        history = trainer.fit(tiny_train_set, epochs=4, batch_size=8)
        assert history.accuracies[-1] > history.accuracies[0]
        assert history.losses[-1] < history.losses[0]
        assert history.wall_time > 0

    def test_fixture_classifier_beats_chance(self, tiny_classifier,
                                             tiny_test_set):
        accuracy = float((tiny_classifier.predict(tiny_test_set.images)
                          == tiny_test_set.labels).mean())
        assert accuracy > 0.6

    def test_evaluate_helper(self, tiny_classifier, tiny_test_set):
        trainer = ClassifierTrainer.__new__(ClassifierTrainer)
        trainer.model = tiny_classifier
        assert 0.0 <= trainer.evaluate(tiny_test_set) <= 1.0

    def test_train_classifier_sets_eval_mode(self, tiny_train_set):
        model = train_classifier(tiny_train_set, epochs=1, width=8)
        assert not model.training
