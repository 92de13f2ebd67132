"""Semantic constraint module (SCM): a fixed 5-block classifier that predicts
how many targets a target-only image contains. It is used only while
training the extractor; its cross-entropy gradient with respect to the input
image is the semantic signal that keeps the extractor from collapsing to the
all-background solution.

Fixed structure (channels 1 -> 32 -> 64 -> 32 -> 16): four [3x3 conv, zero
pad 1, bias, ReLU; 2x2 max pool] blocks, a 4x4 stride-4 average pool, then a
linear layer into softmax. With 256x256 inputs the linear layer sees exactly
256 features. Other extents (divisible by 16) keep the 4x4 stride-4 average
pool when the post-pool grid divides by 4 and fall back to one global window
otherwise, scaling the linear layer's width accordingly.
"""

from __future__ import annotations

import numpy as np

# cross_entropy stays importable here: perfbench/tracer.py wraps scm.cross_entropy
from .nn import AvgPool, Conv3x3, Linear, MaxPool2x2, ReLU, cross_entropy, softmax  # noqa: F401
from .tensor import DTYPE, Rng

CHANNELS = (32, 64, 32, 16)


def _pool_geometry(h: int, w: int) -> tuple[int, int, int]:
    """Average-pool window and output grid for an H x W input.

    Returns (k, gh, gw) where k is the square window/stride and gh x gw the
    grid it leaves. The canonical 4x4 stride-4 window applies whenever the
    post-pool extents divide by 4 (256x256 gives (4, 4, 4)); otherwise one
    global window covers the whole grid."""
    if h % 16 or w % 16:
        raise ValueError(f"extents {h}x{w} must be divisible by 16")
    ph, pw = h // 16, w // 16
    if ph % 4 == 0 and pw % 4 == 0:
        return 4, ph // 4, pw // 4
    if ph == pw:
        return ph, 1, 1
    raise ValueError(
        f"extents {h}x{w} unsupported: post-pool grid {ph}x{pw} fits neither "
        "the 4x4 window nor a square global window")


def feature_count(h: int, w: int) -> int:
    """Length of the flattened feature vector the linear layer sees."""
    _, gh, gw = _pool_geometry(h, w)
    return CHANNELS[-1] * gh * gw


class ScmNet:
    """Built classifier. Construct via :func:`build_scm`."""

    def __init__(self, c_classes: int, fc_in: int, rng: Rng | None, dtype=DTYPE):
        if c_classes < 2:
            raise ValueError("need at least 2 classes")
        self.c_classes = c_classes
        self.fc_in = fc_in
        chans = (1,) + CHANNELS
        self.convs = [
            Conv3x3(chans[i], chans[i + 1], "zero", bias=True, rng=rng, dtype=dtype)
            for i in range(4)
        ]
        self.fc = Linear(fc_in, c_classes, rng=rng, dtype=dtype)
        # reduced-gain head: keeps the softmax unsaturated early in training,
        # which the small-sample counting task needs to converge reliably
        self.fc.w *= np.asarray(0.25, dtype)
        self._pools = [MaxPool2x2() for _ in range(4)]
        self._relus = [ReLU() for _ in range(4)]
        self._avg = None  # bound to the input geometry at forward time

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """(N, 1, H, W) target images -> (N, c_classes) logits."""
        h, w = x.shape[2], x.shape[3]
        if feature_count(h, w) != self.fc_in:
            raise ValueError(
                f"input {h}x{w} yields {feature_count(h, w)} features, "
                f"but this net was built for {self.fc_in}")
        k, _, _ = _pool_geometry(h, w)
        avg = AvgPool(k, k)
        for conv, mp, rl in zip(self.convs, self._pools, self._relus):
            x = mp.forward(rl.forward(conv.forward(x, train), train), train)
        x = avg.forward(x, train)
        if train:
            self._avg = avg
            self._pre_fc_shape = x.shape
        return self.fc.forward(x.reshape(x.shape[0], -1), train)

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        d = self.fc.backward(dlogits).reshape(self._pre_fc_shape)
        d = self._avg.backward(d)
        for conv, mp, rl in zip(reversed(self.convs), reversed(self._pools),
                                reversed(self._relus)):
            d = conv.backward(rl.backward(mp.backward(d)))
        return d

    def layers(self):
        return [*self.convs, self.fc]

    def parameters(self) -> list[np.ndarray]:
        return [a for layer in self.layers() for a in layer.weight_arrays()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers() for g in layer.grad_arrays()]


def build_scm(c_classes: int = 4, input_hw: tuple[int, int] = (256, 256),
              rng: Rng | None = None, dtype=DTYPE) -> ScmNet:
    return ScmNet(c_classes, feature_count(*input_hw), rng or Rng(0), dtype)


def classify(net: ScmNet, image: np.ndarray) -> np.ndarray:
    """Softmax class probabilities for a single 2-D target image."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    dtype = net.convs[0].w.dtype
    logits = net.forward(image[None, None].astype(dtype, copy=False), train=False)
    return softmax(logits[0])
