import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_at_indices, max_rel_err, spread_indices
from irstd import loss, train
from irstd.checkpoint import weight_hash
from irstd.scm import build_scm
from irstd.synth import desk_tuples
from irstd.tem import NetConfig, build_tem
from irstd.tensor import Rng
from irstd.train import (Adam, FrozenScm, TrainConfig, freeze_scm, scm_accuracy,
                         train_config_from_dict, train_scm, train_tem)


class TestConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.lr == 0.005 and cfg.decay_epochs == (42, 54)

    def test_lr_schedule(self):
        cfg = TrainConfig(lr=0.1, decay_epochs=(10, 20), decay=0.1)
        assert cfg.lr_at(0) == 0.1
        assert cfg.lr_at(9) == 0.1
        assert np.isclose(cfg.lr_at(10), 0.01)
        assert np.isclose(cfg.lr_at(25), 0.001)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    def test_unordered_decay_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(decay_epochs=(20, 10))

    @pytest.mark.parametrize("field,value", [
        ("weight", -3.0), ("weight", math.nan), ("weight", math.inf),
        ("lr", math.nan), ("lr", math.inf), ("epochs", 0), ("batch_size", 0),
        ("decay", -1.0), ("decay", 0.0), ("decay", math.nan), ("decay", math.inf),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan),
        ("beta2", 1.0), ("beta2", 2.0), ("beta2", math.nan),
        ("eps", 0.0), ("eps", -1e-8), ("eps", math.nan), ("eps", math.inf)])
    def test_bad_value_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_recipe_edges_allowed(self):
        cfg = TrainConfig(decay=2.0, beta1=0.0, beta2=0.0, eps=1e-30)
        assert (cfg.decay, cfg.beta1, cfg.beta2, cfg.eps) == (2.0, 0.0, 0.0, 1e-30)

    def test_zero_weight_allowed(self):
        assert TrainConfig(weight=0.0).weight == 0.0

    @pytest.mark.parametrize("doc,match", [
        ({"lr": 0.01, "momentum": 0.9}, "'momentum'"),
        ({"lr": "x"}, "'lr'"),
        ({"epochs": 2.5}, "'epochs'"),
        ({"seed": True}, "'seed'"),
        ({"decay_epochs": [1, "2"]}, "'decay_epochs'"),
        ([1, 2], "JSON object")],
        ids=["unknown-key", "str-for-float", "float-for-int", "bool-for-int",
             "str-in-list", "not-an-object"])
    def test_malformed_dict_rejected(self, doc, match):
        with pytest.raises(ValueError, match=match):
            train_config_from_dict(doc)

    def test_dict_round_trip(self):
        cfg = TrainConfig(epochs=3, lr=1, decay_epochs=(1, 2), weight=0.5)
        assert train_config_from_dict(train.train_config_to_dict(cfg)) == cfg


class TestOptimizers:
    def test_plain_step_hand_value(self):
        # f(w) = w^2 / 2, so one step from 1.0 at lr 0.1 lands on 0.9
        w = np.array([1.0], np.float32)
        Adam([w]).step([np.array([1.0])], 0.1)
        assert np.isclose(w[0], 0.9)

    def test_plain_step_zero_gradient_is_identity(self):
        w = np.array([1.5, -2.0], np.float32)
        Adam([w]).step([np.zeros(2)], 0.1)
        assert np.array_equal(w, [1.5, -2.0])

    def test_adam_first_step_magnitude_is_lr(self):
        # step = lr * g / (|g| + eps), so ~lr at any gradient scale well
        # above eps
        for scale in (1e-4, 1.0, 1e6):
            w = np.zeros(3, np.float32)
            opt = Adam([w])
            opt.step([np.full(3, scale, np.float32)], lr=0.01)
            assert np.allclose(np.abs(w), 0.01, rtol=1e-3)

    def test_adam_deterministic(self):
        def run():
            w = np.ones(4, np.float32)
            opt = Adam([w])
            rng = Rng(3)
            for _ in range(10):
                opt.step([rng.uniform_array((4,), -1, 1)], 0.01)
            return w.tobytes()

        assert run() == run()


@pytest.fixture(scope="module")
def tiny_dataset():
    return desk_tuples([6, 6, 6, 6], seed=404)


class TestTrainScm:
    def test_epoch_zero_loss_near_ln4(self, tiny_dataset):
        _, log = train_scm(tiny_dataset, TrainConfig(epochs=1, seed=1, lr=1e-6))
        assert abs(log.epochs[0]["loss"] - np.log(4.0)) < 0.2

    def test_same_seed_identical_weights(self, tiny_dataset):
        cfg = TrainConfig(epochs=2, seed=11)
        a, _ = train_scm(tiny_dataset, cfg)
        b, _ = train_scm(tiny_dataset, cfg)
        assert weight_hash(a) == weight_hash(b)

    def test_val_accuracy_logged(self, tiny_dataset):
        _, log = train_scm(tiny_dataset, TrainConfig(epochs=1, seed=2),
                           val=tiny_dataset[:8])
        assert "val_accuracy" in log.epochs[0]

    def test_accuracy_helper_range(self, tiny_dataset):
        net, _ = train_scm(tiny_dataset, TrainConfig(epochs=1, seed=3))
        assert 0.0 <= scm_accuracy(net, tiny_dataset) <= 1.0


class TestTrainTem:
    def test_requires_frozen_handle(self, tiny_dataset):
        net = build_scm(4, (64, 64), Rng(5))
        with pytest.raises(TypeError, match="frozen classifier"):
            train_tem(tiny_dataset, net, TrainConfig(epochs=1, seed=1),
                      NetConfig(2, 2, 64, 64))

    def test_scm_hash_unchanged_after_training(self, tiny_dataset):
        scm_net, _ = train_scm(tiny_dataset, TrainConfig(epochs=1, seed=6))
        frozen = freeze_scm(scm_net)
        before = frozen.hash
        train_tem(tiny_dataset, frozen, TrainConfig(epochs=1, seed=7),
                  NetConfig(2, 2, 64, 64))
        assert weight_hash(scm_net) == before

    def test_verify_catches_one_ulp_change(self):
        scm_net = build_scm(4, (64, 64), Rng(20))
        frozen = freeze_scm(scm_net)
        w = scm_net.convs[2].w
        original = w[1, 0, 2, 1]
        w[1, 0, 2, 1] = np.nextafter(original, np.float32(np.inf))
        with pytest.raises(AssertionError, match="changed while frozen"):
            frozen.verify()
        w[1, 0, 2, 1] = original
        frozen.verify()

    def test_loss_decomposition_identity_each_epoch(self, tiny_dataset):
        scm_net, _ = train_scm(tiny_dataset, TrainConfig(epochs=1, seed=8))
        _, log = train_tem(tiny_dataset, freeze_scm(scm_net),
                           TrainConfig(epochs=2, seed=9, weight=0.5),
                           NetConfig(2, 2, 64, 64))
        for rec in log.epochs:
            assert np.isclose(rec["target"], rec["l1"] + rec["ssim_term"])
            assert np.isclose(rec["total"], rec["target"] + rec["sparsity"]
                              + 0.5 * rec["classification"])

    def test_ablation_modes_drop_terms(self, tiny_dataset):
        scm_net, _ = train_scm(tiny_dataset, TrainConfig(epochs=1, seed=10))
        frozen = freeze_scm(scm_net)
        _, log_t = train_tem(tiny_dataset, frozen, TrainConfig(epochs=1, seed=11),
                             NetConfig(2, 2, 64, 64), loss_mode="target")
        assert log_t.epochs[0]["sparsity"] == 0.0
        assert log_t.epochs[0]["classification"] == 0.0
        _, log_tb = train_tem(tiny_dataset, frozen, TrainConfig(epochs=1, seed=11),
                              NetConfig(2, 2, 64, 64), loss_mode="target_sparsity")
        assert log_tb.epochs[0]["sparsity"] > 0.0
        assert log_tb.epochs[0]["classification"] == 0.0

    def test_unknown_mode_rejected(self, tiny_dataset):
        scm_net, _ = train_scm(tiny_dataset, TrainConfig(epochs=1, seed=12))
        with pytest.raises(ValueError, match="loss_mode"):
            train_tem(tiny_dataset, freeze_scm(scm_net), TrainConfig(epochs=1, seed=1),
                      NetConfig(2, 2, 64, 64), loss_mode="everything")

    def test_same_seed_identical_weights(self, tiny_dataset):
        scm_net, _ = train_scm(tiny_dataset, TrainConfig(epochs=1, seed=13))
        frozen = freeze_scm(scm_net)
        cfg = TrainConfig(epochs=1, seed=14)
        a, _ = train_tem(tiny_dataset, frozen, cfg, NetConfig(2, 2, 64, 64))
        b, _ = train_tem(tiny_dataset, frozen, cfg, NetConfig(2, 2, 64, 64))
        assert weight_hash(a) == weight_hash(b)


TINY_TRAINING = """
import sys
from irstd.checkpoint import weight_hash
from irstd.synth import desk_tuples
from irstd.tem import NetConfig
from irstd.train import TrainConfig, freeze_scm, train_scm, train_tem
data = desk_tuples([4, 4, 4, 4], seed=404)
scm, _ = train_scm(data, TrainConfig(epochs=1, seed=21))
tem, _ = train_tem(data, freeze_scm(scm), TrainConfig(epochs=2, seed=22),
                   NetConfig(4, 3, 64, 64))
sys.stdout.write((weight_hash(scm) + weight_hash(tem)).hex())
"""


class TestThreadDeterminism:
    def test_weights_identical_at_one_and_two_blas_threads(self):
        weights = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", TINY_TRAINING], env=env,
                                  capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            weights[threads] = proc.stdout
        assert len(weights["1"]) > 0 and weights["1"] == weights["2"]


class TestEndToEndGradient:
    def test_classification_gradient_through_frozen_scm(self):
        """Finite differences of the classification loss with respect to
        extractor weights, through the frozen classifier, on a small
        instance."""
        rng = Rng(15)
        tem_net = build_tem(NetConfig(2, 2, 32, 32), Rng(16), dtype=np.float64)
        scm_net = build_scm(4, (32, 32), Rng(17), dtype=np.float64)
        frame = rng.uniform_array((1, 1, 32, 32), 0, 1, np.float64)
        label = np.array([1])

        from irstd.nn import cross_entropy

        def class_loss():
            pred = tem_net.forward(frame, train=False)
            logits = scm_net.forward(pred, train=False)
            return float(cross_entropy(logits, label)[0][0])

        pred = tem_net.forward(frame, train=True)
        logits = scm_net.forward(pred, train=True)
        _, dlogits = cross_entropy(logits, label)
        d_pred = scm_net.backward(dlogits)
        tem_net.backward(d_pred)

        for which in (0, 2, 5):  # input conv, a down conv, an up conv
            w = tem_net.parameters()[which]
            g = tem_net.gradients()[which]
            idx = spread_indices(w.size, 12)

            def f(wv, w=w):
                orig = w.copy()
                w[...] = wv
                out = class_loss()
                w[...] = orig
                return out

            ref = fd_at_indices(f, w, idx, 1e-5)
            assert max_rel_err(g.reshape(-1)[idx], ref) < 1e-2


class TestNumericalFailure:
    def test_nan_aborts_with_batch_diagnostics(self, tiny_dataset, tmp_path):
        from irstd.train import NumericalFailure
        scm_net, _ = train_scm(tiny_dataset[:8], TrainConfig(epochs=1, seed=18))
        poisoned = list(tiny_dataset[:8])
        frame = poisoned[3].frame.copy()
        frame[0, 0] = np.nan
        poisoned[3] = dataclasses.replace(poisoned[3], frame=frame)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure) as info:
            train_tem(poisoned, freeze_scm(scm_net), TrainConfig(epochs=1, seed=19),
                      NetConfig(2, 2, 64, 64), debug_dir=tmp_path)
        assert info.value.batch_indices
        assert (tmp_path / "bad_batch_frames.tbct").exists()
        assert np.isfinite(tiny_dataset[3].frame).all()


def load_tracer():
    """perfbench/tracer.py, imported from its file without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerNames:
    def test_training_runs_through_the_traced_names(self, tiny_dataset):
        """The benchmark tracer wraps names in irstd.train's namespace; a
        training step that bypasses them would leave its spans empty."""
        tracer_mod = load_tracer()
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
        try:
            frozen = train.freeze_scm(build_scm(4, (64, 64), Rng(30)))
            train.train_tem(tiny_dataset[:8], frozen, TrainConfig(epochs=1, seed=31),
                            NetConfig(2, 2, 64, 64))
        finally:
            tracer.restore()
        names = {span[0] for span in tracer.spans}
        assert {"loss.loss_t", "loss.loss_b", "nn.cross_entropy", "train.adam_step",
                "train.weight_hash", "tem.build", "train.step"} <= names
        assert train.loss_t is loss.loss_t
