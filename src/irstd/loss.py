"""Reconstruction and sparsity terms of the joint training loss, with
analytic gradients with respect to the extractor output. The joint loss
itself, which adds the classification constraint, is
:func:`irstd.train.joint_loss`.

Per-image losses are pixel means, so magnitudes are resolution independent;
batch averaging is the trainer's job. SSIM uses uniform (box) 11x11 windows
over all valid (unpadded) positions, population window statistics, and
stabilisers c1 = 0.02, c2 = 0.06 applied to [0, 1]-scaled images as raw
constants. Swapping in a Gaussian window would mean replacing _box_valid
and its adjoint _box_scatter.
"""

from __future__ import annotations

import numpy as np

SSIM_WINDOW = 11
SSIM_C1 = 0.02
SSIM_C2 = 0.06


def _box_valid(a: np.ndarray, win: int) -> np.ndarray:
    """Sum over every valid win x win window, via double cumulative sums."""
    c = np.zeros((a.shape[0] + 1, a.shape[1] + 1), np.float64)
    np.cumsum(np.cumsum(a, axis=0, dtype=np.float64), axis=1, out=c[1:, 1:])
    return c[win:, win:] - c[:-win, win:] - c[win:, :-win] + c[:-win, :-win]


def _box_scatter(a: np.ndarray, win: int) -> np.ndarray:
    """Adjoint of valid-window extraction: out[p] = sum over windows
    containing pixel p of a[window]."""
    return _box_valid(np.pad(a, win - 1), win)


def _check_pair(x: np.ndarray, y: np.ndarray, win: int):
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 2 or min(x.shape) < win:
        raise ValueError(f"images must be 2-D with extents >= {win}, got {x.shape}")


def ssim(x: np.ndarray, y: np.ndarray, win: int = SSIM_WINDOW,
         c1: float = SSIM_C1, c2: float = SSIM_C2) -> float:
    """Mean structural similarity index over all valid windows.

    For each window: (2 mx my + c1)(2 cov + c2) / ((mx^2 + my^2 + c1)
    (vx + vy + c2)). Symmetric in its arguments; 1.0 iff the window
    statistics agree everywhere.
    """
    return _ssim_parts(np.asarray(x, np.float64), np.asarray(y, np.float64),
                       win, c1, c2)[0]


def ssim_with_grad(x: np.ndarray, y: np.ndarray, win: int = SSIM_WINDOW,
                   c1: float = SSIM_C1, c2: float = SSIM_C2) -> tuple[float, np.ndarray]:
    """SSIM value and its gradient with respect to x."""
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    value, per = _ssim_parts(x, y, win, c1, c2)
    s, mx, my, a1, a2, b1, b2 = per
    n = float(win * win)
    n_win = float(s.size)
    g = 2.0 / (n * b1 * b2 * n_win)
    # d s / d x_i = alpha_w + beta_w * y_i + gamma_w * x_i for each window w
    # containing pixel i; scatter the window coefficients back to pixels.
    alpha = g * (my * a2 - a1 * my - s * mx * b2 + s * b1 * mx)
    beta = g * a1
    gamma = -g * s * b1
    grad = _box_scatter(alpha, win) + y * _box_scatter(beta, win) + x * _box_scatter(gamma, win)
    return value, grad


def _ssim_parts(x, y, win, c1, c2):
    _check_pair(x, y, win)
    n = float(win * win)
    mx = _box_valid(x, win) / n
    my = _box_valid(y, win) / n
    vx = _box_valid(x * x, win) / n - mx * mx
    vy = _box_valid(y * y, win) / n - my * my
    cov = _box_valid(x * y, win) / n - mx * my
    a1 = 2.0 * mx * my + c1
    a2 = 2.0 * cov + c2
    b1 = mx * mx + my * my + c1
    b2 = vx + vy + c2
    s = (a1 * a2) / (b1 * b2)
    return float(s.mean()), (s, mx, my, a1, a2, b1, b2)


def loss_t(pred: np.ndarray, target: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Reconstruction loss: per-pixel-mean L1 plus (1 - SSIM).

    Returns (l1, ssim_term, gradient wrt pred). The L1 subgradient is
    sign(pred - target) with sign(0) = 0.
    """
    pred = np.asarray(pred, np.float64)
    target = np.asarray(target, np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    l1 = float(np.abs(diff).mean())
    s, ds = ssim_with_grad(pred, target)
    grad = np.sign(diff) / diff.size - ds
    return l1, 1.0 - s, grad


def loss_b(pred: np.ndarray) -> tuple[float, np.ndarray]:
    """Sparsity loss: per-pixel-mean L1 norm of the output image itself,
    pushing the background to exactly zero. Subgradient sign(pred)."""
    pred = np.asarray(pred, np.float64)
    return float(np.abs(pred).mean()), np.sign(pred) / pred.size
