"""Unit tests for Module mechanics and layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


class TestModuleMechanics:
    def test_parameter_discovery(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        params = layer.parameters()
        assert len(params) == 2     # weight + bias
        assert all(p.requires_grad for p in params)

    def test_nested_module_parameters(self, rng):
        net = nn.Sequential(nn.Linear(3, 4, rng=rng), nn.ReLU(),
                            nn.Linear(4, 2, rng=rng))
        assert len(net.parameters()) == 4

    def test_shared_parameter_counted_once(self, rng):
        a = nn.Linear(3, 3, rng=rng)

        class Tied(nn.Module):
            def __init__(self):
                super().__init__()
                self.first = a
                self.second = a
        assert len(Tied().parameters()) == 2

    def test_named_parameters_paths(self, rng):
        net = nn.Sequential(nn.Linear(2, 2, rng=rng))
        names = [n for n, _ in net.named_parameters()]
        assert "layer0.weight" in names
        assert "layer0.bias" in names

    def test_zero_grad_clears(self, rng):
        layer = nn.Linear(3, 1, rng=rng)
        layer(Tensor(rng.standard_normal((2, 3)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_train_eval_propagates(self, rng):
        net = nn.Sequential(nn.Dropout(0.5), nn.Linear(2, 2, rng=rng))
        net.eval()
        assert not net.layers[0].training
        net.train()
        assert net.layers[0].training

    def test_num_parameters(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_state_dict_roundtrip(self, rng):
        a = nn.Linear(3, 2, rng=np.random.default_rng(1))
        b = nn.Linear(3, 2, rng=np.random.default_rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_load_missing_key_raises(self, rng):
        layer = nn.Linear(2, 2, rng=rng)
        with pytest.raises(KeyError):
            layer.load_state_dict({})

    def test_load_shape_mismatch_raises(self, rng):
        layer = nn.Linear(2, 2, rng=rng)
        bad = {k: np.zeros((9, 9)) for k in layer.state_dict()}
        with pytest.raises(ValueError):
            layer.load_state_dict(bad)


class TestLinear:
    def test_forward_value(self):
        layer = nn.Linear(2, 1, rng=np.random.default_rng(0))
        layer.weight.data[...] = [[2.0, -1.0]]
        layer.bias.data[...] = [0.5]
        out = layer(Tensor(np.array([[1.0, 3.0]])))
        assert out.data[0, 0] == pytest.approx(2 - 3 + 0.5)

    def test_no_bias(self, rng):
        layer = nn.Linear(2, 3, rng=rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradient_updates_loss(self, rng):
        layer = nn.Linear(4, 1, rng=rng)
        x = Tensor(rng.standard_normal((8, 4)))
        y = Tensor(rng.standard_normal((8, 1)))
        opt = nn.SGD(layer.parameters(), lr=0.1)
        first = None
        for _ in range(50):
            loss = nn.mse_loss(layer(x), y)
            if first is None:
                first = loss.item()
            layer.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.5


class TestConvLayers:
    def test_conv2d_shape(self, rng):
        layer = nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)


class TestNorms:
    def test_instance_norm_normalises_per_instance(self, rng):
        norm = nn.InstanceNorm2d(3)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)) * 5 + 3)
        out = norm(x).data
        assert np.allclose(out.mean(axis=(2, 3)), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=(2, 3)), 1.0, atol=1e-2)

    def test_instance_norm_affine_params(self):
        norm = nn.InstanceNorm2d(3, affine=True)
        assert len(norm.parameters()) == 2
        assert len(nn.InstanceNorm2d(3, affine=False).parameters()) == 0

    def test_batch_norm_train_normalises_batch(self, rng):
        norm = nn.BatchNorm2d(2)
        x = Tensor(rng.standard_normal((8, 2, 4, 4)) * 3 + 1)
        out = norm(x).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)

    def test_batch_norm_updates_running_stats(self, rng):
        norm = nn.BatchNorm2d(2)
        before = norm.running_mean.copy()
        norm(Tensor(rng.standard_normal((8, 2, 4, 4)) + 5))
        assert not np.allclose(norm.running_mean, before)

    def test_batch_norm_eval_uses_running_stats(self, rng):
        norm = nn.BatchNorm2d(2)
        for _ in range(50):
            norm(Tensor(rng.standard_normal((16, 2, 4, 4)) + 5))
        norm.eval()
        x = Tensor(np.full((4, 2, 4, 4), 5.0))
        out = norm(x).data
        assert np.abs(out).max() < 1.5   # ~ (5 - running_mean)/std ~ 0

    def test_batch_norm_stats_in_state_dict(self):
        norm = nn.BatchNorm2d(2)
        state = norm.state_dict()
        assert "running_mean" in state
        assert "running_var" in state

    def test_layer_norm_normalises_last_dim(self, rng):
        norm = nn.LayerNorm(16)
        x = Tensor(rng.standard_normal((4, 7, 16)) * 4 + 2)
        out = norm(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)


class TestActivationsMisc:
    def test_relu_clips_negative(self):
        out = nn.ReLU()(Tensor(np.array([-1.0, 2.0])))
        assert np.allclose(out.data, [0.0, 2.0])

    def test_leaky_relu_slope(self):
        out = nn.LeakyReLU(0.1)(Tensor(np.array([-10.0])))
        assert out.data[0] == pytest.approx(-1.0)

    def test_tanh_sigmoid_ranges(self, rng):
        x = Tensor(rng.standard_normal(100) * 10)
        assert np.all(np.abs(nn.Tanh()(x).data) <= 1.0)
        sig = nn.Sigmoid()(x).data
        assert np.all((sig >= 0) & (sig <= 1))

    def test_flatten_layer(self):
        out = nn.Flatten()(Tensor(np.zeros((2, 3, 4))))
        assert out.shape == (2, 12)

    def test_pool_layers(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        assert nn.AvgPool2d(2)(x).shape == (1, 2, 4, 4)
        assert nn.MaxPool2d(2)(x).shape == (1, 2, 4, 4)
        assert nn.GlobalAvgPool2d()(x).shape == (1, 2)
        assert nn.Upsample(2)(x).shape == (1, 2, 16, 16)

    def test_dropout_eval_identity(self, rng):
        drop = nn.Dropout(0.9, rng=rng)
        drop.eval()
        x = Tensor(np.ones((4, 4)))
        assert np.allclose(drop(x).data, 1.0)

    def test_sequential_iteration_and_indexing(self, rng):
        net = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert isinstance(net[0], nn.ReLU)
        assert len(list(net)) == 2
