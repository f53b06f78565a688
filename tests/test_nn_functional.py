"""Unit tests for convolution / pooling / resampling primitives."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.functional import col2im, im2col

from conftest import numeric_grad


def check_grad_fn(forward, arrays, tol=1e-5):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = forward(*tensors)
    (out * out).sum().backward()

    for t, a in zip(tensors, arrays):
        def f():
            fresh = [Tensor(arr) for arr in arrays]
            o = forward(*fresh).data
            return float((o * o).sum())
        num = numeric_grad(f, a)
        assert np.abs(num - t.grad).max() < tol


class TestIm2Col:
    def test_roundtrip_counts(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        cols = im2col(x, kernel=2, stride=2, padding=0)
        back = col2im(cols, x.shape, kernel=2, stride=2, padding=0)
        # Non-overlapping stride: every pixel visited exactly once.
        assert np.allclose(back, x)

    def test_overlap_accumulates(self, rng):
        x = np.ones((1, 1, 3, 3))
        cols = im2col(x, kernel=3, stride=1, padding=1)
        back = col2im(cols, x.shape, kernel=3, stride=1, padding=1)
        # Centre pixel appears in all 9 windows.
        assert back[0, 0, 1, 1] == 9

    def test_output_shape(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        cols = im2col(x, kernel=3, stride=2, padding=1)
        assert cols.shape == (2, 3 * 9, 16)

    def test_nonoverlap_fast_path_matches_scatter(self, rng):
        """The stride >= kernel strided-view write must equal the generic
        scatter-add loop (here reproduced inline) on gapped windows."""
        cols = rng.standard_normal((2, 1 * 2 * 2, 2 * 2))
        x_shape = (2, 1, 7, 7)
        kernel, stride = 2, 3                 # stride > kernel: gaps
        back = col2im(cols, x_shape, kernel, stride, padding=0)
        expected = np.zeros(x_shape)
        cols6 = cols.reshape(2, 1, 2, 2, 2, 2)
        for ki in range(kernel):
            for kj in range(kernel):
                expected[:, :, ki:ki + stride * 2:stride,
                         kj:kj + stride * 2:stride] += cols6[:, :, ki, kj]
        assert np.allclose(back, expected)

    def test_nonoverlap_roundtrip_with_padding(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        cols = im2col(x, kernel=2, stride=2, padding=2)
        back = col2im(cols, x.shape, kernel=2, stride=2, padding=2)
        assert np.allclose(back, x)


class TestClassScoreSum:
    def test_value_and_gradient(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        labels = np.array([2, 0, 1, 2])
        out = F.class_score_sum(logits, labels)
        expected = sum(logits.data[i, labels[i]] for i in range(4))
        assert out.data == pytest.approx(expected)
        out.backward()
        grad = np.zeros((4, 3))
        grad[np.arange(4), labels] = 1.0
        assert np.allclose(logits.grad, grad)

    def test_matches_getitem_sum(self, rng):
        data = rng.standard_normal((3, 5))
        labels = np.array([4, 1, 0])
        a = Tensor(data.copy(), requires_grad=True)
        b = Tensor(data.copy(), requires_grad=True)
        F.class_score_sum(a, labels).backward()
        a_grad = a.grad
        b[np.arange(3), labels].sum().backward()
        assert np.allclose(a_grad, b.grad)


class TestFrozen:
    def test_skips_weight_grads_keeps_input_grads(self, rng):
        from repro import nn
        layer = nn.Linear(4, 2, rng=rng)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        with nn.frozen(layer):
            (layer(x) ** 2).sum().backward()
        assert layer.weight.grad is None
        assert x.grad is not None
        assert layer.weight.requires_grad    # restored on exit

    def test_restores_mixed_flags(self, rng):
        from repro import nn
        layer = nn.Linear(2, 2, rng=rng)
        layer.bias.requires_grad = False
        with nn.frozen(layer):
            assert not layer.weight.requires_grad
        assert layer.weight.requires_grad
        assert not layer.bias.requires_grad


class TestConv2d:
    def test_shape_stride2(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        w = Tensor(rng.standard_normal((5, 3, 3, 3)))
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 5, 4, 4)

    def test_matches_direct_computation(self, rng):
        x = rng.standard_normal((1, 1, 3, 3))
        w = rng.standard_normal((1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=0)
        expected = (x[0, 0] * w[0, 0]).sum()
        assert out.data[0, 0, 0, 0] == pytest.approx(expected)

    def test_bias_added_per_channel(self, rng):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.0, -2.0]))
        out = F.conv2d(x, w, b, padding=1)
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_gradients(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        check_grad_fn(lambda xx, ww, bb: F.conv2d(xx, ww, bb, stride=2,
                                                  padding=1), [x, w, b],
                      tol=1e-4)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))),
                     Tensor(np.zeros((1, 3, 3, 3))))

    def test_rect_kernel_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 4, 4))),
                     Tensor(np.zeros((1, 1, 2, 3))))


#: The conv geometries the models build (kernel, stride, padding), then
#: a padding past ``kernel - 1``, which crops the gradient.
CONV_GEOMETRIES = [(3, 1, 1), (3, 2, 1), (1, 2, 0), (4, 2, 1), (4, 4, 0),
                   (1, 1, 1)]


class TestConvInputGrad:
    @pytest.mark.parametrize("side", [8, 9])
    @pytest.mark.parametrize("kernel,stride,padding", CONV_GEOMETRIES)
    def test_gradcheck(self, rng, monkeypatch, kernel, stride, padding,
                       side):
        """float64 gradcheck through the tape.  Only stride 1 with
        padding at most ``kernel - 1`` takes the gather; every other
        geometry scatters with col2im."""
        scatters = []

        def spy(*args):
            scatters.append(args)
            return col2im(*args)
        monkeypatch.setattr(F, "col2im", spy)
        x = rng.standard_normal((2, 2, side, side))
        w = rng.standard_normal((3, 2, kernel, kernel))
        check_grad_fn(lambda xx, ww: F.conv2d(xx, ww, stride=stride,
                                              padding=padding), [x, w],
                      tol=1e-4)
        gathers = stride == 1 and padding <= kernel - 1
        assert len(scatters) == (0 if gathers else 1)

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (4, 2)])
    def test_adjoint_of_conv(self, rng, kernel, stride):
        """<conv(x), y> == <x, conv2d_input_grad(y)>: the input gradient
        is the conv's adjoint, on the gather and on col2im."""
        x = rng.standard_normal((2, 2, 8, 8))
        w = rng.standard_normal((3, 2, kernel, kernel))
        conv_x = F.conv2d(Tensor(x), Tensor(w), stride=stride,
                          padding=1).data
        y = rng.standard_normal(conv_x.shape)
        adjoint = F.conv2d_input_grad(y, w, x.shape, stride, 1)
        assert (conv_x * y).sum() == pytest.approx((x * adjoint).sum(),
                                                   rel=1e-9)


class TestPooling:
    def test_avg_pool_value(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        assert out.data[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_avg_pool_grad(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        check_grad_fn(lambda xx: F.avg_pool2d(xx, 2), [x], tol=1e-5)

    def test_max_pool_value(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        assert out.data[0, 0, 1, 1] == 15.0

    def test_max_pool_grad_goes_to_max(self):
        x = Tensor(np.arange(4, dtype=float).reshape(1, 1, 2, 2),
                   requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        assert np.allclose(x.grad.reshape(-1), [0, 0, 0, 1])

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.mean(axis=(2, 3)))


class TestUpsample:
    def test_nearest_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = F.upsample_nearest2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 1] == 1.0
        assert out.data[0, 0, 3, 3] == 4.0

    def test_grad_sums_over_duplicates(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        F.upsample_nearest2d(x, 2).sum().backward()
        assert np.allclose(x.grad, 4.0)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)))
        s = F.softmax(x, axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((2, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_log_softmax_consistent(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        assert np.allclose(F.log_softmax(x).data,
                           np.log(F.softmax(x).data))

    def test_extreme_logits_stable(self):
        x = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        s = F.softmax(x)
        assert np.isfinite(s.data).all()


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)))
        out = F.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_zero_p_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)))
        assert F.dropout(x, 0.0, rng, training=True) is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)
