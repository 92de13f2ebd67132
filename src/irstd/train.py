"""Two-stage training: fit the classifier on (target image, count) pairs,
freeze it, then fit the extractor against the joint loss with the
classification gradient flowing through the frozen classifier.

The stage order is enforced by the API: extractor training demands a
FrozenScm handle, and the classifier's weight bytes are compared before and
after to prove they never moved.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .checkpoint import weight_hash
from .loss import loss_b, loss_t
from .nn import cross_entropy
from .scm import ScmNet, feature_count
from .synth import TrainingTuple
from .tem import NetConfig, TemNet, build_tem
from .tensor import Rng

LOSS_MODES = ("target", "target_sparsity", "joint")
LOSS_TERMS = ("l1", "ssim_term", "sparsity", "classification")


class NumericalFailure(RuntimeError):
    """Raised when a loss goes non-finite; carries the offending batch."""

    def __init__(self, message: str, batch_indices: list[int]):
        super().__init__(message)
        self.batch_indices = batch_indices


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation recipe. The defaults are the desk-scale recipe: 64x64
    images, batch 16, 60 epochs, learning rate 0.005 decaying to a tenth at
    70% and 90% of the run; adaptive-moment hyperparameters (0.9, 0.999,
    1e-8)."""

    batch_size: int = 16
    epochs: int = 60
    lr: float = 0.005
    decay_epochs: tuple[int, ...] = (42, 54)
    decay: float = 0.1
    weight: float = 1.0
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "decay", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"weight must be >= 0 and finite, got {self.weight}")
        if list(self.decay_epochs) != sorted(set(self.decay_epochs)):
            raise ValueError("decay epochs must be strictly increasing")

    def lr_at(self, epoch: int) -> float:
        steps = sum(1 for e in self.decay_epochs if epoch >= e)
        return self.lr * self.decay**steps


@dataclass
class TrainLog:
    """One record per completed epoch."""

    epochs: list[dict] = field(default_factory=list)

    def add(self, **record) -> None:
        self.epochs.append(record)

    def to_dict(self) -> dict:
        return {"epochs": self.epochs}


class Adam:
    """Adaptive-moment estimation with bias correction. The first step has
    magnitude ~= lr elementwise regardless of gradient scale."""

    def __init__(self, params: list[np.ndarray], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            g = g.astype(p.dtype, copy=False)
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _batches(n: int, batch_size: int, rng: Rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):  # last partial batch kept
        yield order[start:start + batch_size]


def _stack(tuples: list[TrainingTuple], idx, attr: str) -> np.ndarray:
    return np.stack([getattr(tuples[i], attr) for i in idx])[:, None]


def scm_accuracy(net: ScmNet, dataset: list[TrainingTuple]) -> float:
    """Fraction of tuples whose target image is classified to its label."""
    hits = 0
    for start in range(0, len(dataset), 64):
        idx = range(start, min(start + 64, len(dataset)))
        x = _stack(dataset, idx, "target").astype(net.convs[0].w.dtype)
        pred = net.forward(x, train=False).argmax(axis=1)
        hits += int((pred == np.array([dataset[i].label for i in idx])).sum())
    return hits / len(dataset)


def train_scm(dataset: list[TrainingTuple], cfg: TrainConfig,
              val: list[TrainingTuple] | None = None, c_classes: int = 4,
              init: ScmNet | None = None) -> tuple[ScmNet, TrainLog]:
    """Stage one: fit the classifier on (target image, label) pairs. The
    extractor does not exist yet at this stage, so nothing else moves.
    ``init`` resumes from an existing net's weights (optimizer state starts
    fresh)."""
    if not dataset:
        raise ValueError("empty dataset")
    h, w = dataset[0].target.shape
    rng = Rng(cfg.seed)
    net = init if init is not None else ScmNet(c_classes, feature_count(h, w), rng)
    opt = Adam(net.parameters(), cfg.beta1, cfg.beta2, cfg.eps)
    log = TrainLog()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = cfg.lr_at(epoch)
        total = 0.0
        for idx in _batches(len(dataset), cfg.batch_size, rng):
            x = _stack(dataset, idx, "target")
            labels = np.array([dataset[i].label for i in idx])
            logits = net.forward(x)
            losses, dlogits = cross_entropy(logits, labels)
            if not np.all(np.isfinite(losses)):
                raise NumericalFailure(
                    f"non-finite classifier loss at epoch {epoch}", list(idx))
            net.backward((dlogits / len(idx)).astype(np.float32))
            opt.step(net.gradients(), lr)
            total += float(losses.sum())
        record = {"epoch": epoch, "loss": total / len(dataset), "lr": lr,
                  "seconds": time.perf_counter() - t0}
        if val is not None:
            record["val_accuracy"] = scm_accuracy(net, val)
        log.add(**record)
    return net, log


class FrozenScm:
    """Classifier locked for stage two. Holds a copy of the weight bytes
    taken at freeze time; verify() proves the weights are still
    byte-identical."""

    def __init__(self, net: ScmNet):
        self.net = net
        self.hash = weight_hash(net)

    def verify(self) -> None:
        if weight_hash(self.net) != self.hash:
            raise AssertionError("classifier weights changed while frozen")


def freeze_scm(net: ScmNet) -> FrozenScm:
    return FrozenScm(net)


def joint_loss(preds: np.ndarray, targets: np.ndarray, labels: np.ndarray,
               scm_net: ScmNet | None, weight: float, mode: str = "joint",
               sums: dict | None = None) -> tuple[dict, np.ndarray]:
    """The joint loss of a batch of (N, 1, H, W) extractor outputs and its
    float64 gradient with respect to ``preds``.

    Returns the terms summed over the batch (per-image ``l1``, ``ssim_term``
    and ``sparsity`` means, and the frozen classifier's cross-entropy at
    ``labels`` as ``classification``) and the gradient of their batch mean,
    with the classification term weighted by ``weight``. "target_sparsity"
    mode drops the classification term and does not run the classifier;
    "target" mode drops sparsity too. Given ``sums``, terms are added into
    it image by image, so running totals keep one accumulation order.
    Classifier parameter gradients are left on its layers, never applied.
    """
    if mode not in LOSS_MODES:
        raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
    n = len(preds)
    sums = dict.fromkeys(LOSS_TERMS, 0.0) if sums is None else sums
    grad = np.zeros_like(preds, dtype=np.float64)
    for j in range(n):
        l1, ls, g_t = loss_t(preds[j, 0], targets[j, 0])
        sums["l1"] += l1
        sums["ssim_term"] += ls
        grad[j, 0] += g_t / n
        if mode != "target":
            lb, g_b = loss_b(preds[j, 0])
            sums["sparsity"] += lb
            grad[j, 0] += g_b / n
    if mode == "joint":
        ce, dlogits = cross_entropy(scm_net.forward(preds), labels)
        sums["classification"] += float(ce.sum())
        grad += scm_net.backward((dlogits * (weight / n)).astype(preds.dtype))
    return sums, grad


def train_tem(dataset: list[TrainingTuple], scm: FrozenScm, cfg: TrainConfig,
              net_cfg: NetConfig, loss_mode: str = "joint", debug_dir=None,
              init: TemNet | None = None) -> tuple[TemNet, TrainLog]:
    """Stage two: fit the extractor. Per batch, :func:`joint_loss` gives the
    gradient with respect to the extractor output, which is pushed through
    the extractor.

    ``loss_mode``: "joint" (full), "target_sparsity", or "target" -- the
    ablations keep the same plumbing with pieces dropped. ``init`` resumes
    from an existing net's weights.
    """
    if not isinstance(scm, FrozenScm):
        raise TypeError("extractor training requires a frozen classifier handle; "
                        "train the classifier first and wrap it with freeze_scm")
    if not dataset:
        raise ValueError("empty dataset")
    rng = Rng(cfg.seed)
    net = init if init is not None else build_tem(net_cfg, rng)
    opt = Adam(net.parameters(), cfg.beta1, cfg.beta2, cfg.eps)
    log = TrainLog()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = cfg.lr_at(epoch)
        sums = dict.fromkeys(LOSS_TERMS, 0.0)
        for idx in _batches(len(dataset), cfg.batch_size, rng):
            frames = _stack(dataset, idx, "frame")
            preds = net.forward(frames)
            _, grad = joint_loss(preds, _stack(dataset, idx, "target"),
                                 np.array([dataset[i].label for i in idx]),
                                 scm.net, cfg.weight, loss_mode, sums)
            if not all(np.isfinite(v) for v in sums.values()):
                if debug_dir is not None:
                    _dump_batch(debug_dir, frames, preds)
                raise NumericalFailure(
                    f"non-finite extractor loss at epoch {epoch}", list(idx))
            net.backward(grad.astype(np.float32))
            opt.step(net.gradients(), lr)
        n_total = len(dataset)
        means = {k: v / n_total for k, v in sums.items()}
        means["target"] = means["l1"] + means["ssim_term"]
        means["total"] = (means["target"] + means["sparsity"]
                          + cfg.weight * means["classification"])
        log.add(epoch=epoch, lr=lr, seconds=time.perf_counter() - t0, **means)
    scm.verify()
    return net, log


def _dump_batch(debug_dir, frames: np.ndarray, preds: np.ndarray) -> None:
    from pathlib import Path
    from .tensor import save_tensor
    d = Path(debug_dir)
    d.mkdir(parents=True, exist_ok=True)
    save_tensor(d / "bad_batch_frames.tbct", frames)
    save_tensor(d / "bad_batch_preds.tbct", preds)


def train_config_to_dict(cfg: TrainConfig) -> dict:
    d = asdict(cfg)
    d["decay_epochs"] = list(cfg.decay_epochs)
    return d


def train_config_from_dict(d) -> TrainConfig:
    """TrainConfig from a JSON object. A key TrainConfig does not have, or a
    value of the wrong type, is a ValueError that names the key."""
    if not isinstance(d, dict):
        raise ValueError(f"training config must be a JSON object, got {type(d).__name__}")
    defaults = train_config_to_dict(TrainConfig())
    for key, value in d.items():
        if key not in defaults:
            raise ValueError(f"unknown training config key {key!r}")
        if not _same_type(value, defaults[key]):
            raise ValueError(f"training config key {key!r} has a value of the "
                             f"wrong type: {value!r}")
    if "decay_epochs" in d:
        d = {**d, "decay_epochs": tuple(d["decay_epochs"])}
    return TrainConfig(**d)


def _same_type(value, default) -> bool:
    """Whether a JSON value fits a field whose default is ``default``: ints
    for int fields, numbers for float fields, a list of ints for lists."""
    if isinstance(value, bool):
        return False
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_type(v, 0) for v in value)
    return isinstance(value, int) or (isinstance(value, float)
                                      and isinstance(default, float))
