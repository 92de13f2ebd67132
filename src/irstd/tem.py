"""Target extraction module (TEM): a lightweight encoder-decoder that maps an
infrared frame to a target-only image, plus its storage/compute budget.

The structure is set by two knobs: the base channel count BC (width of the
first expansion layer) and the maximum scale level L (number of 2x
downsampling stages). Each downsample stage is a 3x3 convolution doubling the
channels followed by a 2x2 max pool; each upsample stage is a nearest
neighbour x2 upsample followed by a 3x3 convolution halving the channels.
The tensor entering downsample stage l is fused, by elementwise addition,
with the output of upsample stage l (same scale, same channel count). All
convolutions use replicate padding, so a constant image stays constant and
no border artifacts leak into the target map; none carry a bias. The output
convolution is linear, letting the sparsity loss drive the background to
exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Conv3x3, MaxPool2x2, ReLU, UpsampleNearest2x
from .tensor import DTYPE, Rng


@dataclass(frozen=True)
class NetConfig:
    """(BC, L) pair plus nominal input extents; drives both construction and
    the budget formulas."""

    bc: int
    levels: int
    height: int = 256
    width: int = 256

    def __post_init__(self):
        if self.bc < 1 or self.levels < 1:
            raise ValueError(f"bc and levels must be >= 1, got ({self.bc}, {self.levels})")
        step = 2 ** self.levels
        if self.height % step or self.width % step:
            raise ValueError(
                f"extents {self.height}x{self.width} must be divisible by 2^levels = {step}")


@dataclass(frozen=True)
class BudgetReport:
    """Raw operation and storage counts; divide by 2^20 for the usual units.

    ops         multiply-add count of the scale-level convolutions
    peak_map    peak number of live feature-map elements during inference
    params      trainable parameter count
    total       peak_map + params
    """

    ops: int
    peak_map: int
    params: int
    total: int

    def as_mega(self) -> dict[str, float]:
        scale = float(2**20)
        return {
            "ops": self.ops / scale,
            "peak_map": self.peak_map / scale,
            "params": self.params / scale,
            "total": self.total / scale,
        }


def budget(cfg: NetConfig) -> BudgetReport:
    """Closed-form budget for a (BC, L) network on H x W frames.

    ops:      (9/2) * BC^2 * H * W * L  -- one 3x3 kernel pass per scale
              level at that level's pooled resolution (see count_actual_ops).
    peak_map: [BC * (4 - 6 / 2^L) + 2] * H * W  -- the high-water mark occurs
              just before the first upsample, when the input, every skip
              tensor and the bottom tensor are all live.
    params:   12 * (4^L - 1) * BC^2 + 18 * BC  -- the down/up convolution
              pairs plus the input and output layers; no biases anywhere.
    """
    bc, lv = cfg.bc, cfg.levels
    hw = cfg.height * cfg.width
    ops2 = 9 * bc * bc * hw * lv
    if ops2 % 2:
        raise AssertionError("odd multiply-add total; extents not even?")
    num = bc * (4 * 2**lv - 6) * hw
    if num % 2**lv:
        raise AssertionError("peak map count not integral")
    peak = num // 2**lv + 2 * hw
    params = 12 * (4**lv - 1) * bc * bc + 18 * bc
    return BudgetReport(ops2 // 2, peak, params, peak + params)


class TemNet:
    """Built extractor network. Construct via :func:`build_tem`."""

    def __init__(self, cfg: NetConfig, rng: Rng | None, dtype=DTYPE):
        bc, lv = cfg.bc, cfg.levels
        self.cfg = cfg
        self.input_conv = Conv3x3(1, bc, "replicate", bias=False, rng=rng, dtype=dtype)
        self.down_convs = [
            Conv3x3(bc * 2 ** (l - 1), bc * 2**l, "replicate", bias=False, rng=rng, dtype=dtype)
            for l in range(1, lv + 1)
        ]
        self.up_convs = [
            Conv3x3(bc * 2**l, bc * 2 ** (l - 1), "replicate", bias=False, rng=rng, dtype=dtype)
            for l in range(lv, 0, -1)
        ]
        self.output_conv = Conv3x3(bc, 1, "replicate", bias=False, rng=rng, dtype=dtype)
        self._pools = [MaxPool2x2() for _ in range(lv)]
        self._ups = [UpsampleNearest2x() for _ in range(lv)]
        self._relu_in = ReLU()
        self._relus_down = [ReLU() for _ in range(lv)]
        self._relus_up = [ReLU() for _ in range(lv)]

    @property
    def levels(self) -> int:
        return self.cfg.levels

    def _check_extents(self, h: int, w: int) -> None:
        step = 2 ** self.levels
        if h % step or w % step:
            raise ValueError(
                f"input extents {h}x{w} must be divisible by 2^{self.levels} = {step}")

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """(N, 1, H, W) frames -> (N, 1, H, W) target maps."""
        self._check_extents(x.shape[2], x.shape[3])
        lv = self.levels
        skips = [self._relu_in.forward(self.input_conv.forward(x, train), train)]
        t = skips[0]
        for l in range(lv):
            c = self._relus_down[l].forward(self.down_convs[l].forward(t, train), train)
            t = self._pools[l].forward(c, train)
            skips.append(t)
        y = skips[lv]
        for i in range(lv):  # runs scale levels L..1
            y = self._ups[i].forward(y, train)
            y = self._relus_up[i].forward(self.up_convs[i].forward(y, train), train)
            y = y + skips[lv - 1 - i]
        return self.output_conv.forward(y, train)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        lv = self.levels
        d = self.output_conv.backward(dy)
        dskips = [None] * (lv + 1)
        for i in range(lv - 1, -1, -1):  # reverse of the up loop
            level_skip = lv - 1 - i
            dskips[level_skip] = d if dskips[level_skip] is None else dskips[level_skip] + d
            d = self._relus_up[i].backward(d)
            d = self.up_convs[i].backward(d)
            d = self._ups[i].backward(d)
        dt = d  # gradient at the bottom tensor skips[lv]
        for l in range(lv - 1, -1, -1):
            dc = self._pools[l].backward(dt)
            dc = self._relus_down[l].backward(dc)
            dt = self.down_convs[l].backward(dc)
            if dskips[l] is not None:
                dt = dt + dskips[l]
        dt = self._relu_in.backward(dt)
        return self.input_conv.backward(dt)

    def conv_layers(self) -> list[Conv3x3]:
        """All convolutions in construction order."""
        return [self.input_conv, *self.down_convs, *self.up_convs, self.output_conv]

    def parameters(self) -> list[np.ndarray]:
        return [a for layer in self.conv_layers() for a in layer.weight_arrays()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.conv_layers() for g in layer.grad_arrays()]


def build_tem(cfg: NetConfig, rng: Rng, dtype=DTYPE) -> TemNet:
    """Build an extractor with fan-in-scaled uniform weight initialisation
    from the given stream. The trainable parameter count equals
    budget(cfg).params exactly."""
    return TemNet(cfg, rng, dtype)


def count_parameters(net: TemNet) -> int:
    return sum(int(a.size) for a in net.parameters())


def count_actual_ops(net: TemNet, height: int, width: int) -> int:
    """Multiply-add census of the constructed scale-level convolutions under
    the budget's accounting convention: each level is charged one 3x3 kernel
    pass (9 * h * w * C_in * C_out) at that level's pooled resolution. The
    down and up convolutions of a level have identical counts under this
    convention, and the budget counts the level's channel-expansion pass
    once; the input and output layers and the interpolations are excluded.

    Channel counts are read from the built layers, so this cross-checks the
    construction against the closed form in :func:`budget`.
    """
    net._check_extents(height, width)
    total = 0
    for l, conv in enumerate(net.down_convs, start=1):
        total += 9 * (height >> l) * (width >> l) * conv.c_in * conv.c_out
    return total


def extract(net: TemNet, frame: np.ndarray) -> np.ndarray:
    """Run extraction on a single 2-D grayscale frame. Any resolution whose
    extents are divisible by 2^L is accepted; the output has the same
    extents. The output is linear and may be negative; detection normalises
    it to [0, 1]."""
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {frame.shape}")
    dtype = net.input_conv.w.dtype
    out = net.forward(frame[None, None].astype(dtype, copy=False), train=False)
    return out[0, 0]
