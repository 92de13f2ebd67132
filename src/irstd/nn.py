"""Layer kernels with forward and backward passes.

Five kernels: 3x3 convolution (stride 1, zero or replicate padding), 2x2 max
pooling, nearest-neighbour x2 upsampling, average pooling, and a fully
connected layer; plus ReLU, softmax and the cross-entropy gradient at the
logits. Layers operate on (N, C, H, W) batches, the linear layer on
(N, features).

Convolution uses the cross-correlation convention: weights are applied as
stored, without a spatial flip. Its forward pass is im2col plus GEMM, built
one band of output rows at a time: the band's nine shifted copies of the
input (its patch matrix) are sized to stay in cache while the GEMM reads
them, so inference never holds a whole image's patch matrix. Every backward
pass is validated against :func:`irstd.tensor.finite_diff_grad` in the test
suite.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import DTYPE, Rng


def _pad1(x: np.ndarray, mode: str) -> np.ndarray:
    spec = ((0, 0), (0, 0), (1, 1), (1, 1))
    if mode == "zero":
        return np.pad(x, spec)
    if mode == "replicate":
        return np.pad(x, spec, mode="edge")
    raise ValueError(f"unknown padding mode {mode!r}")


def _pad1_adjoint(g: np.ndarray, mode: str) -> np.ndarray:
    """Adjoint of _pad1: fold gradient from the padded border back in."""
    if mode == "zero":
        return g[..., 1:-1, 1:-1]
    out = g[..., 1:-1, 1:-1].copy()
    out[..., 0, :] += g[..., 0, 1:-1]
    out[..., -1, :] += g[..., -1, 1:-1]
    out[..., :, 0] += g[..., 1:-1, 0]
    out[..., :, -1] += g[..., 1:-1, -1]
    out[..., 0, 0] += g[..., 0, 0]
    out[..., 0, -1] += g[..., 0, -1]
    out[..., -1, 0] += g[..., -1, 0]
    out[..., -1, -1] += g[..., -1, -1]
    return out


_OFFSETS = [(u, v) for u in range(3) for v in range(3)]

# A band's patch matrix takes at most _BAND_BYTES (half a 2 MiB per-core L2
# cache), so it is still cached when the GEMM reads it back; but never fewer
# than _BAND_MIN_PX output pixels, below which the GEMMs of the small, wide
# deep layers get too narrow to run at speed.
_BAND_BYTES = 1 << 20
_BAND_MIN_PX = 1024


def _band_rows(c: int, w: int, itemsize: int) -> int:
    """Output rows per band for c input channels on rows w pixels wide."""
    return max(_BAND_BYTES // (9 * c * w * itemsize), -(-_BAND_MIN_PX // w), 1)


class Conv3x3:
    """3x3 convolution, stride 1, padding 1 (zero or replicate), so the
    spatial size is preserved. TEM layers carry no bias; SCM layers do.

    forward runs sample by sample and, within a sample, band by band of
    output rows (see _band_rows). Each band's patch matrix, (9C, rows * W)
    with rows ordered (offset, channel), is filled by nine strided copies
    and multiplied by the flattened weights into its slice of the output.
    In training the bands are slices of one (N, 9C, HW) patch matrix, which
    backward reuses; in inference one band buffer is reused, so peak memory
    stays near input plus output.

    Each output element reduces over the same 9C products in the same order
    as in a whole-image GEMM, so the two agree bit for bit wherever BLAS
    groups the sums alike at both widths. OpenBLAS runs one output channel
    as GEMV, which groups by width when 9C is small or at an odd column
    tail; there the last bit can differ (the output conv of a BC <= 5
    extractor on 256x256 frames, not the desk or BC 16 shapes).
    """

    def __init__(self, c_in: int, c_out: int, padding: str = "zero",
                 bias: bool = False, rng: Rng | None = None, dtype=DTYPE):
        if padding not in ("zero", "replicate"):
            raise ValueError(f"unknown padding mode {padding!r}")
        self.c_in = c_in
        self.c_out = c_out
        self.padding = padding
        if rng is None:
            self.w = np.zeros((c_out, c_in, 3, 3), dtype)
        else:
            bound = math.sqrt(6.0 / (9 * c_in))  # fan-in-scaled uniform
            self.w = rng.uniform_array((c_out, c_in, 3, 3), -bound, bound, dtype)
        self.b = np.zeros(c_out, dtype) if bias else None
        self.gw = None
        self.gb = None
        self._cols = None

    def _w_flat(self) -> np.ndarray:
        # (c_out, 9 * c_in) with columns ordered like the patch matrix rows
        return self.w.transpose(0, 2, 3, 1).reshape(self.c_out, 9 * self.c_in)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.shape[1] != self.c_in:
            raise ValueError(f"expected {self.c_in} input channels, got {x.shape[1]}")
        if x.shape[2] < 3 or x.shape[3] < 3:
            raise ValueError(f"spatial extents must be >= 3, got {x.shape[2:]}")
        n, c, h, w = x.shape
        xp = _pad1(x, self.padding)
        w_flat = self._w_flat()
        rows = min(_band_rows(c, w, xp.itemsize), h)
        y = np.empty((n, self.c_out, h * w), np.result_type(w_flat, xp))
        cols = np.empty((n, 9, c, h, w) if train else (9, c, rows, w), xp.dtype)
        for s in range(n):
            for r0 in range(0, h, rows):
                r1 = min(r0 + rows, h)
                band = cols[s, :, :, r0:r1] if train else cols[:, :, :r1 - r0]
                for i, (u, v) in enumerate(_OFFSETS):
                    band[i] = xp[s, :, r0 + u:r1 + u, v:v + w]
                np.matmul(w_flat, band.reshape(9 * c, (r1 - r0) * w),
                          out=y[s, :, r0 * w:r1 * w])
        y = y.reshape(n, self.c_out, h, w)
        if self.b is not None:
            y += self.b[:, None, None]
        self._cols = cols.reshape(n, 9 * c, h * w) if train else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cols is None:
            raise RuntimeError("backward before forward(train=True)")
        n, _, h, w = dy.shape
        c = self.c_in
        dyf = dy.reshape(n, self.c_out, h * w)
        gw_flat = np.matmul(dyf, self._cols.transpose(0, 2, 1)).sum(axis=0)
        self.gw = gw_flat.reshape(self.c_out, 3, 3, c).transpose(0, 3, 1, 2).copy()
        if self.b is not None:
            self.gb = dy.sum(axis=(0, 2, 3))
        dcols = np.matmul(self._w_flat().T, dyf)
        dxp = np.zeros((n, c, h + 2, w + 2), dy.dtype)
        for i, (u, v) in enumerate(_OFFSETS):
            dxp[:, :, u:u + h, v:v + w] += dcols[:, i * c:(i + 1) * c].reshape(n, c, h, w)
        return _pad1_adjoint(dxp, self.padding)

    def weight_arrays(self) -> list[np.ndarray]:
        return [self.w] if self.b is None else [self.w, self.b]

    def grad_arrays(self) -> list[np.ndarray]:
        return [self.gw] if self.b is None else [self.gw, self.gb]


# 2x2 block positions in argmax order: row-major within the block
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


class MaxPool2x2:
    """2x2 max pooling over disjoint blocks, taken as the elementwise maximum
    of the four strided views of the input. In training it keeps one
    first-winner mask per block position, in argmax order, so the backward
    pass routes each block's gradient to the same single pixel argmax would
    pick, ties included."""

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"extents must be even, got {h}x{w}")
        v00, v01, v10, v11 = (x[..., i::2, j::2] for i, j in _CORNERS)
        y = np.maximum(np.maximum(v00, v01), np.maximum(v10, v11))
        if train:
            m00 = v00 == y
            m01 = (v01 == y) & ~m00
            taken = m00 | m01
            m10 = (v10 == y) & ~taken
            taken |= m10
            self._masks = (m00, m01, m10, np.logical_not(taken, out=taken))
            self._shape = (n, c, h, w)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx = np.empty(self._shape, dy.dtype)
        for (i, j), mask in zip(_CORNERS, self._masks):
            np.multiply(dy, mask, out=dx[..., i::2, j::2])
        return dx


class UpsampleNearest2x:
    """Nearest-neighbour x2 upsampling: each pixel becomes a 2x2 block.
    Backward sums the gradients of each block."""

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        # numpy's reshape-and-sum over each block adds in this pairing when
        # the output is at least two pixels wide, so both round alike there
        return ((dy[..., 0::2, 0::2] + dy[..., 0::2, 1::2])
                + (dy[..., 1::2, 0::2] + dy[..., 1::2, 1::2]))


class AvgPool:
    """k x k average pooling with stride s, no padding. Requires
    (extent - k) divisible by s."""

    def __init__(self, k: int, stride: int):
        self.k = k
        self.stride = stride

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.k, self.stride
        if h < k or w < k or (h - k) % s or (w - k) % s:
            raise ValueError(f"{h}x{w} input incompatible with k={k}, stride={s}")
        windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        if train:
            self._shape = (n, c, h, w)
        return windows.mean(axis=(-2, -1))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        n, c, oh, ow = dy.shape
        k, s = self.k, self.stride
        dx = np.zeros(self._shape, dy.dtype)
        inv = 1.0 / (k * k)
        for i in range(oh):
            for j in range(ow):
                dx[:, :, i * s:i * s + k, j * s:j * s + k] += dy[:, :, i:i + 1, j:j + 1] * inv
        return dx


class Linear:
    """Affine map y = W x + b on (N, features) batches."""

    def __init__(self, n_in: int, n_out: int, rng: Rng | None = None, dtype=DTYPE):
        self.n_in = n_in
        self.n_out = n_out
        if rng is None:
            self.w = np.zeros((n_out, n_in), dtype)
        else:
            bound = math.sqrt(6.0 / n_in)
            self.w = rng.uniform_array((n_out, n_in), -bound, bound, dtype)
        self.b = np.zeros(n_out, dtype)
        self.gw = None
        self.gb = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.shape[-1] != self.n_in:
            raise ValueError(f"expected {self.n_in} features, got {x.shape[-1]}")
        if train:
            self._x = x
        return x @ self.w.T + self.b

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.gw = dy.T @ self._x
        self.gb = dy.sum(axis=0)
        return dy @ self.w

    def weight_arrays(self) -> list[np.ndarray]:
        return [self.w, self.b]

    def grad_arrays(self) -> list[np.ndarray]:
        return [self.gw, self.gb]


class ReLU:
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            self._mask = x > 0  # subgradient 0 at 0
        return np.maximum(x, 0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stabilised by max subtraction; outputs sum to 1."""
    x = np.asarray(x, dtype=np.float64)
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample cross-entropy and its gradient at the logits.

    Returns (losses of shape (N,), dlogits of shape (N, K)); the caller owns
    any batch averaging.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k - 1}]")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    losses = -logp[np.arange(n), labels]
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return losses, dlogits
