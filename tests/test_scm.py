import math

import numpy as np
import pytest

from irstd.checkpoint import load_weights, save_weights, weight_hash
from irstd.nn import cross_entropy
from irstd.scm import CHANNELS, build_scm, classify, feature_count
from irstd.tensor import Rng, finite_diff_grad


def max_rel_err(a, b):
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-12)


def loss_and_input_grad(net, image, label):
    """Cross-entropy of one 2-D image at ``label`` and its gradient with
    respect to the image, through the classifier's own backward pass."""
    x = np.asarray(image)[None, None].astype(net.convs[0].w.dtype)
    losses, dlogits = cross_entropy(net.forward(x), np.array([label]))
    return float(losses[0]), net.backward(dlogits.astype(x.dtype))[0, 0]


class TestStructure:
    def test_channel_trace(self):
        net = build_scm(4, (64, 64), Rng(1))
        assert tuple(c.c_out for c in net.convs) == CHANNELS == (32, 64, 32, 16)
        assert tuple(c.c_in for c in net.convs) == (1, 32, 64, 32)

    def test_convs_have_biases_and_zero_padding(self):
        net = build_scm(4, (64, 64), Rng(1))
        assert all(c.b is not None and c.padding == "zero" for c in net.convs)

    def test_fc_width_at_shipping_shape(self):
        assert feature_count(256, 256) == 256
        net = build_scm(4, (256, 256), Rng(1))
        assert net.fc.n_in == 256 and net.fc.n_out == 4

    def test_fc_width_scales_with_pooled_grid(self):
        assert feature_count(64, 64) == 16    # global window
        assert feature_count(128, 128) == 64  # 2x2 grid of 4x4 windows
        assert feature_count(192, 192) == 144

    def test_fc_width_small_extents_use_global_window(self):
        assert feature_count(32, 32) == 16
        assert feature_count(96, 96) == 16

    def test_bad_extents_rejected(self):
        with pytest.raises(ValueError, match="divisible by 16"):
            feature_count(60, 60)
        with pytest.raises(ValueError, match="unsupported"):
            feature_count(96, 64)

    def test_input_size_mismatch_rejected(self):
        net = build_scm(4, (64, 64), Rng(1))
        with pytest.raises(ValueError, match="features"):
            net.forward(np.zeros((1, 1, 256, 256), np.float32), train=False)

    def test_global_window_sizes_interchange(self):
        # 32 and 64 inputs both reduce to the 16-wide head
        net = build_scm(4, (64, 64), Rng(1))
        logits = net.forward(np.zeros((1, 1, 32, 32), np.float32), train=False)
        assert logits.shape == (1, 4)


class TestClassify:
    def test_zero_image_valid_distribution(self):
        net = build_scm(4, (64, 64), Rng(2))
        probs = classify(net, np.zeros((64, 64), np.float32))
        assert probs.shape == (4,)
        assert abs(float(probs.sum()) - 1.0) < 1e-9
        assert (probs >= 0).all()

    def test_shipping_shape_roundtrip(self):
        net = build_scm(4, (256, 256), Rng(2))
        probs = classify(net, Rng(3).uniform_array((256, 256)))
        assert abs(float(probs.sum()) - 1.0) < 1e-9

    def test_non_2d_rejected(self):
        net = build_scm(4, (64, 64), Rng(2))
        with pytest.raises(ValueError, match="2-D"):
            classify(net, np.zeros((1, 64, 64), np.float32))


class TestForwardBackward:
    def test_uniform_logits_loss_is_ln4(self):
        net = build_scm(4, (64, 64), Rng(4))
        for layer in net.layers():  # zero weights -> identical logits
            for arr in layer.weight_arrays():
                arr[...] = 0.0
        loss, _ = loss_and_input_grad(net, Rng(5).uniform_array((64, 64)), 2)
        assert abs(loss - math.log(4.0)) < 1e-9

    def test_confident_correct_loss_near_zero(self):
        net = build_scm(4, (64, 64), Rng(4))
        net.fc.b[...] = np.array([50.0, 0.0, 0.0, 0.0], np.float32)
        for arr in net.fc.weight_arrays()[:1]:
            arr[...] = 0.0
        loss, _ = loss_and_input_grad(net, np.zeros((64, 64), np.float32), 0)
        assert loss < 1e-6

    def test_label_out_of_range(self):
        net = build_scm(4, (64, 64), Rng(4))
        with pytest.raises(ValueError, match="label"):
            loss_and_input_grad(net, np.zeros((64, 64), np.float32), 4)

    def test_input_gradient_vs_finite_difference(self):
        from conftest import fd_at_indices, spread_indices
        net = build_scm(4, (32, 32), Rng(6), dtype=np.float64)
        img = Rng(7).uniform_array((32, 32), 0, 1, np.float64)
        _, d_input = loss_and_input_grad(net, img, 1)
        idx = spread_indices(img.size, 64)
        ref = fd_at_indices(lambda q: loss_and_input_grad(net, q, 1)[0], img, idx, 1e-5)
        assert max_rel_err(d_input.reshape(-1)[idx], ref) < 1e-6

    def test_param_grads_left_on_layers(self):
        net = build_scm(4, (64, 64), Rng(8))
        loss_and_input_grad(net, Rng(9).uniform_array((64, 64)), 0)
        assert all(g is not None and g.shape for g in net.gradients())


class TestFreezeAndCheckpoint:
    def test_forward_backward_leaves_weights_untouched(self):
        net = build_scm(4, (64, 64), Rng(10))
        before = weight_hash(net)
        for label in range(4):
            loss_and_input_grad(net, Rng(11).uniform_array((64, 64)), label)
        assert weight_hash(net) == before

    def test_checkpoint_round_trip(self, tmp_path):
        net = build_scm(4, (64, 64), Rng(12))
        path = tmp_path / "scm.tbcw"
        save_weights(path, net)
        loaded = load_weights(path)
        assert loaded.c_classes == 4 and loaded.fc.n_in == net.fc.n_in
        assert weight_hash(loaded) == weight_hash(net)
        img = Rng(13).uniform_array((64, 64))
        assert np.allclose(classify(loaded, img), classify(net, img))

    def test_checkpoint_kind_byte(self, tmp_path):
        net = build_scm(4, (64, 64), Rng(12))
        path = tmp_path / "scm.tbcw"
        save_weights(path, net)
        assert path.read_bytes()[8] == 1  # classifier kind
