"""Two-stage training: fit the classifier on (target image, count) pairs,
freeze it, then fit the extractor against the joint loss with the
classification gradient flowing through the frozen classifier.

The stage order is enforced by the API: extractor training demands a
FrozenScm handle, and the classifier's weight bytes are compared before and
after to prove they never moved.
"""

from __future__ import annotations

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
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
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


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: Adam, lr: float) -> None:
    """Single adaptive-moment update of ``params`` in place."""
    state.step(grads, lr)


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
    """Plain gradient descent: p <- p - lr * g. Zero gradient leaves the
    parameters untouched."""
    for p, g in zip(params, grads):
        p -= lr * g.astype(p.dtype, copy=False)


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


def train_tem(dataset: list[TrainingTuple], scm: FrozenScm, cfg: TrainConfig,
              net_cfg: NetConfig, loss_mode: str = "joint", debug_dir=None,
              init: TemNet | None = None) -> tuple[TemNet, TrainLog]:
    """Stage two: fit the extractor. Per batch, the joint gradient with
    respect to the extractor output is assembled from the reconstruction,
    sparsity and (in joint mode) classification pieces, then pushed through
    the extractor. Classifier parameter gradients are computed and discarded.

    ``loss_mode``: "joint" (full), "target_sparsity", or "target" -- the
    ablations keep the same plumbing with pieces dropped. ``init`` resumes
    from an existing net's weights.
    """
    if not isinstance(scm, FrozenScm):
        raise TypeError("extractor training requires a frozen classifier handle; "
                        "train the classifier first and wrap it with freeze_scm")
    if loss_mode not in LOSS_MODES:
        raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
    if not dataset:
        raise ValueError("empty dataset")
    rng = Rng(cfg.seed)
    net = init if init is not None else build_tem(net_cfg, rng)
    opt = Adam(net.parameters(), cfg.beta1, cfg.beta2, cfg.eps)
    log = TrainLog()
    use_c = loss_mode == "joint"
    use_b = loss_mode != "target"
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = cfg.lr_at(epoch)
        sums = {"l1": 0.0, "ssim_term": 0.0, "sparsity": 0.0, "classification": 0.0}
        for idx in _batches(len(dataset), cfg.batch_size, rng):
            frames = _stack(dataset, idx, "frame")
            labels = np.array([dataset[i].label for i in idx])
            preds = net.forward(frames)
            grad = np.zeros_like(preds, dtype=np.float64)
            n = len(idx)
            for j, i in enumerate(idx):
                l1, ls, g_t = loss_t(preds[j, 0], dataset[i].target)
                sums["l1"] += l1
                sums["ssim_term"] += ls
                grad[j, 0] += g_t / n
                if use_b:
                    lb, g_b = loss_b(preds[j, 0])
                    sums["sparsity"] += lb
                    grad[j, 0] += g_b / n
            if use_c:
                logits = scm.net.forward(preds)
                ce, dlogits = cross_entropy(logits, labels)
                sums["classification"] += float(ce.sum())
                scale = cfg.weight / n
                grad += scm.net.backward((dlogits * scale).astype(np.float32))
            batch_terms = [sums[k] for k in sums]
            if not all(np.isfinite(v) for v in batch_terms):
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


def train_config_from_dict(d: dict) -> TrainConfig:
    d = dict(d)
    if "decay_epochs" in d:
        d["decay_epochs"] = tuple(d["decay_epochs"])
    return TrainConfig(**d)
