import numpy as np
import pytest

from irstd.loss import loss_b, loss_t, ssim, ssim_with_grad
from irstd.nn import cross_entropy
from irstd.scm import build_scm
from irstd.tensor import Rng, finite_diff_grad
from irstd.train import TrainConfig, joint_loss


def max_rel_err(a, b):
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-12)


def ssim_window_oracle(x, y, win=11, c1=0.02, c2=0.06):
    """Direct per-window evaluation with population statistics."""
    h, w = x.shape
    vals = []
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            a = x[i:i + win, j:j + win].astype(np.float64)
            b = y[i:i + win, j:j + win].astype(np.float64)
            ma, mb = a.mean(), b.mean()
            va, vb = ((a - ma) ** 2).mean(), ((b - mb) ** 2).mean()
            cov = ((a - ma) * (b - mb)).mean()
            vals.append((2 * ma * mb + c1) * (2 * cov + c2)
                        / ((ma * ma + mb * mb + c1) * (va + vb + c2)))
    return float(np.mean(vals))


class TestSsim:
    def test_identical_inputs_give_one(self):
        x = Rng(1).uniform_array((20, 20))
        assert abs(ssim(x, x) - 1.0) < 1e-9

    def test_symmetry(self):
        x = Rng(2).uniform_array((16, 16))
        y = Rng(3).uniform_array((16, 16))
        assert ssim(x, y) == ssim(y, x)

    def test_constant_pair_hand_value(self):
        # zero variances: (c1)(c2) / ((0+1+c1)(c2)) = 0.02 / 1.02
        got = ssim(np.zeros((12, 12)), np.ones((12, 12)))
        assert abs(got - 0.02 / 1.02) < 1e-6

    def test_matches_window_oracle(self):
        x = Rng(4).uniform_array((14, 17))
        y = Rng(5).uniform_array((14, 17))
        assert abs(ssim(x, y) - ssim_window_oracle(x, y)) < 1e-10

    def test_bounded_by_one_in_magnitude(self):
        rng = Rng(6)
        for _ in range(20):
            x = rng.uniform_array((12, 12))
            y = rng.uniform_array((12, 12))
            assert -1.0 <= ssim(x, y) <= 1.0

    def test_small_extent_rejected(self):
        with pytest.raises(ValueError, match=">= 11"):
            ssim(np.zeros((10, 12)), np.zeros((10, 12)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            ssim(np.zeros((12, 12)), np.zeros((12, 13)))

    def test_gradient_vs_finite_difference(self):
        x = Rng(7).uniform_array((16, 16), 0, 1, np.float64)
        y = Rng(8).uniform_array((16, 16), 0, 1, np.float64)
        _, grad = ssim_with_grad(x, y)
        ref = finite_diff_grad(lambda q: ssim(q, y), x, 1e-5)
        assert max_rel_err(grad, ref) < 1e-6


class TestLossT:
    def test_perfect_extraction_zero(self):
        x = Rng(9).uniform_array((16, 16))
        l1, ls, _ = loss_t(x, x)
        assert l1 == 0.0 and abs(ls) < 1e-12

    def test_uniform_offset_l1(self):
        y = Rng(10).uniform_array((16, 16), 0, 0.5, np.float64)
        l1, _, _ = loss_t(y + 0.1, y)
        assert abs(l1 - 0.1) < 1e-9

    def test_gradient_vs_finite_difference_away_from_kinks(self):
        rng = Rng(11)
        x = rng.uniform_array((16, 16), 0.3, 0.9, np.float64)
        y = rng.uniform_array((16, 16), 0.0, 0.2, np.float64)  # x - y bounded away from 0
        _, _, grad = loss_t(x, y)
        ref = finite_diff_grad(lambda q: sum(loss_t(q, y)[:2]), x, 1e-6)
        assert max_rel_err(grad, ref) < 1e-5


class TestLossB:
    def test_zero_image(self):
        value, grad = loss_b(np.zeros((8, 8)))
        assert value == 0.0 and np.all(grad == 0.0)

    def test_constant_half(self):
        value, _ = loss_b(np.full((8, 8), 0.5))
        assert abs(value - 0.5) < 1e-12

    def test_subgradient_sign(self):
        x = np.array([[0.5, -0.25], [0.0, 1.0]])
        _, grad = loss_b(x)
        assert np.array_equal(grad * x.size, np.sign(x))


class TestSubgradientCancellation:
    def test_inside_target_region_cancels(self):
        # 0 < pred < truth: the reconstruction pull (-1) and the sparsity
        # push (+1) sum to zero, so nothing fights the structural term
        pred = np.full((12, 12), 0.3)
        truth = np.full((12, 12), 0.8)
        _, _, g_t = loss_t(pred, truth)
        _, g_b = loss_b(pred)
        _, g_l1 = _l1_only(pred, truth)
        assert np.all((g_l1 + g_b) * pred.size == 0.0)

    def test_background_overshoot_doubles(self):
        # pred > truth = 0: both pieces push down with slope +1 each
        pred = np.full((12, 12), 0.2)
        truth = np.zeros((12, 12))
        _, g_l1 = _l1_only(pred, truth)
        _, g_b = loss_b(pred)
        assert np.all((g_l1 + g_b) * pred.size == 2.0)


def _l1_only(pred, truth):
    diff = np.asarray(pred, np.float64) - np.asarray(truth, np.float64)
    return float(np.abs(diff).mean()), np.sign(diff) / diff.size


class TestLossTbc:
    """The joint loss L_TBC as the trainer runs it: batch sums of the terms
    and the gradient of their batch mean."""

    def test_decomposition_identity(self):
        rng = Rng(12)
        net = build_scm(4, (64, 64), rng)
        preds = rng.uniform_array((2, 1, 64, 64))
        truths = rng.uniform_array((2, 1, 64, 64))
        terms, _ = joint_loss(preds, truths, np.array([1, 3]), net, 0.7)
        per_image = [loss_t(p[0], t[0])[:2] + (loss_b(p[0])[0],)
                     for p, t in zip(preds, truths)]
        for k, key in enumerate(("l1", "ssim_term", "sparsity")):
            assert terms[key] == per_image[0][k] + per_image[1][k]
        assert terms["classification"] > 0.0

    def test_negative_sample_global_minimum(self):
        # perfect empty extraction plus a confident class-0 head: total ~ 0
        net = build_scm(4, (64, 64), Rng(13))
        net.fc.b[...] = np.array([60.0, 0.0, 0.0, 0.0], np.float32)
        net.fc.w[...] = 0.0
        zeros = np.zeros((2, 1, 64, 64), np.float32)
        terms, _ = joint_loss(zeros, zeros, np.array([0, 0]), net, 1.0)
        assert sum(terms.values()) < 1e-6

    def test_gradient_sums_components(self):
        rng = Rng(14)
        net = build_scm(4, (64, 64), rng)
        preds = rng.uniform_array((3, 1, 64, 64))
        truths = rng.uniform_array((3, 1, 64, 64))
        labels = np.array([2, 0, 1])
        _, g_all = joint_loss(preds, truths, labels, net, 0.7)
        g_tb = np.stack([loss_t(p[0], t[0])[2] + loss_b(p[0])[1]
                         for p, t in zip(preds, truths)])[:, None] / 3
        _, dlogits = cross_entropy(net.forward(preds), labels)
        g_c = net.backward((dlogits * 0.7 / 3).astype(np.float32))
        assert np.allclose(g_all, g_tb + g_c.astype(np.float64), atol=1e-12)

    def test_without_classifier(self):
        # the ablation modes drop their terms from the values and from the
        # gradient, and never touch the classifier
        rng = Rng(15)
        preds = rng.uniform_array((2, 1, 16, 16))
        truths = rng.uniform_array((2, 1, 16, 16))
        labels = np.array([1, 2])
        g_t = np.stack([loss_t(p[0], t[0])[2] for p, t in zip(preds, truths)])[:, None]
        g_b = np.stack([loss_b(p[0])[1] for p in preds])[:, None]
        terms, grad = joint_loss(preds, truths, labels, None, 0.7, "target_sparsity")
        assert terms["classification"] == 0.0 and terms["sparsity"] > 0.0
        assert np.array_equal(grad, g_t / 2 + g_b / 2)
        terms, grad = joint_loss(preds, truths, labels, None, 0.7, "target")
        assert terms["classification"] == 0.0 and terms["sparsity"] == 0.0
        assert np.array_equal(grad, g_t / 2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            TrainConfig(weight=-1.0)

    def test_joint_gradient_vs_finite_difference(self):
        # the gradient is of the batch mean, with the classification term
        # weighted: both scalings are checked here
        from conftest import fd_at_indices, spread_indices
        rng = Rng(17)
        net = build_scm(4, (32, 32), rng, dtype=np.float64)
        preds = rng.uniform_array((2, 1, 32, 32), 0.25, 0.95, np.float64)
        truths = rng.uniform_array((2, 1, 32, 32), 0.0, 0.2, np.float64)
        labels = np.array([1, 3])
        _, grad = joint_loss(preds, truths, labels, net, 0.7)

        def mean_total(q):
            terms, _ = joint_loss(q, truths, labels, net, 0.7)
            return (terms["l1"] + terms["ssim_term"] + terms["sparsity"]
                    + 0.7 * terms["classification"]) / 2

        idx = spread_indices(preds.size, 48)
        ref = fd_at_indices(mean_total, preds, idx, 1e-6)
        assert max_rel_err(grad.reshape(-1)[idx], ref) < 1e-4
