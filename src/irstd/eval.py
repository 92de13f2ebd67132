"""Quantitative evaluation: detection probability / false-alarm rate, ROC
sweeps, signal-to-clutter ratio and its gain, background suppression factor,
and the three classical filtering baselines (top-hat, max-mean, max-median).

Box arguments are (x0, y0, h0, w0) tuples: top row, left column, extents.
The detection-to-target matching rule is ours (the task itself never defines
one): a detection claims the first unclaimed ground-truth box whose 2-px
dilation contains its centroid; unclaimed detections contribute their pixels
as false alarms. ROC sweeps score masks directly: a target counts as
detected when the mask touches its dilated box, and every mask pixel outside
all dilated boxes is a false-alarm pixel -- so at a threshold below the
global minimum everything is detected and the false-alarm rate approaches 1.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detect import Detection

STABILIZER = 0.01
RING_WIDTH = 5


def _as_box(box) -> tuple[int, int, int, int]:
    if hasattr(box, "x0"):
        return int(box.x0), int(box.y0), int(box.h0), int(box.w0)
    x0, y0, h0, w0 = (int(v) for v in box)
    return x0, y0, h0, w0


def _centroid_in(centroid: tuple[float, float], box, radius: float) -> bool:
    x0, y0, h0, w0 = _as_box(box)
    r, c = centroid
    return (x0 - radius <= r <= x0 + h0 - 1 + radius
            and y0 - radius <= c <= y0 + w0 - 1 + radius)


def match_and_score(detections: list[Detection], gt_boxes: list,
                    radius: float = 2.0) -> tuple[int, int]:
    """Greedy matching of detections to ground-truth boxes.

    Walking detections in order, each claims the first unclaimed box whose
    ``radius``-dilated area contains the detection centroid; each box is
    claimed at most once. Returns (true detections, false pixels), false
    pixels being the summed pixel counts of unclaimed detections.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    claimed = [False] * len(gt_boxes)
    true = 0
    false_px = 0
    for det in detections:
        hit = next((i for i, b in enumerate(gt_boxes)
                    if not claimed[i] and _centroid_in(det.centroid, b, radius)), None)
        if hit is None:
            false_px += det.pixel_count
        else:
            claimed[hit] = True
            true += 1
    return true, false_px


def detection_rates(per_frame: list[tuple[list[Detection], list]],
                    frame_pixels: int, radius: float = 2.0) -> tuple[float, float]:
    """Aggregate (Pd, Fa) over frames of (detections, gt boxes) pairs."""
    total_true = total_targets = total_false = 0
    for detections, boxes in per_frame:
        t, f = match_and_score(detections, boxes, radius)
        total_true += t
        total_false += f
        total_targets += len(boxes)
    pd = total_true / total_targets if total_targets else 0.0
    fa = total_false / (frame_pixels * len(per_frame)) if per_frame else 0.0
    return pd, fa


@dataclass(frozen=True)
class RocCurve:
    """Operating points (threshold, Fa, Pd), sorted by threshold."""

    points: list[tuple[float, float, float]]

    def write_csv(self, path) -> None:
        write_csv(path, ["threshold", "fa", "pd"], self.points)


def _dilated_box(box, radius: int) -> tuple[slice, slice]:
    """The box grown by ``radius`` and clipped to the frame; a box wholly
    above or left of the frame gives an empty window (no negative stop, which
    would wrap)."""
    x0, y0, h0, w0 = _as_box(box)
    return (slice(max(x0 - radius, 0), max(x0 + h0 + radius, 0)),
            slice(max(y0 - radius, 0), max(y0 + w0 + radius, 0)))


def _dilated_box_mask(shape, boxes, radius: int) -> np.ndarray:
    out = np.zeros(shape, bool)
    for box in boxes:
        out[_dilated_box(box, radius)] = True
    return out


def roc(score_images: list[np.ndarray], gts: list[list], thresholds,
        radius: int = 2) -> RocCurve:
    """Sweep thresholds over score images against ground-truth boxes.

    Per threshold, Pd = detected targets / total targets (a target is
    detected when the mask touches its dilated box) and Fa = mask pixels
    outside all dilated boxes / total pixels. Fa and Pd are both
    non-increasing in the threshold.

    Each image is scanned once for all thresholds: its scores outside the
    dilated boxes are sorted and counted above each threshold by binary
    search, and each box is detected above its dilated window's maximum.
    Both compare in the dtype that ``image > threshold`` uses, and NaN
    scores are never above a threshold.
    """
    thresholds = sorted(float(t) for t in thresholds)
    if len(thresholds) < 2:
        raise ValueError("need at least 2 thresholds")
    if len(score_images) != len(gts):
        raise ValueError("one ground-truth box list per score image required")
    total_targets = sum(len(b) for b in gts)
    total_pixels = sum(img.size for img in score_images)
    detected = np.zeros(len(thresholds), np.int64)
    false_px = np.zeros(len(thresholds), np.int64)
    for img, boxes in zip(score_images, gts):
        img = np.asarray(img)
        dtype = np.result_type(img, thresholds[0])
        ts = np.asarray(thresholds).astype(dtype)
        region = _dilated_box_mask(img.shape, boxes, radius)
        outside = np.sort(img[~region].astype(dtype))  # NaNs sort last
        outside = outside[:outside.size - np.count_nonzero(np.isnan(outside))]
        false_px += outside.size - np.searchsorted(outside, ts, side="right")
        for box in boxes:
            window = img[_dilated_box(box, radius)].astype(dtype)
            detected += np.fmax.reduce(window, axis=None, initial=-np.inf) > ts
    return RocCurve([(t, f / total_pixels, d / total_targets if total_targets else 0.0)
                     for t, f, d in zip(thresholds, false_px.tolist(), detected.tolist())])


def _ring_pixels(image: np.ndarray, box, width: int) -> np.ndarray:
    x0, y0, h0, w0 = _as_box(box)
    h, w = image.shape
    if x0 - width < 0 or y0 - width < 0 or x0 + h0 + width > h or y0 + w0 + width > w:
        raise ValueError(f"box {box} with {width}-px ring falls outside {h}x{w} image")
    block = image[x0 - width:x0 + h0 + width, y0 - width:y0 + w0 + width]
    hole = np.ones(block.shape, bool)
    hole[width:width + h0, width:width + w0] = False
    return block[hole]


def scr(image: np.ndarray, box, lam: float = STABILIZER, ring: int = RING_WIDTH) -> float:
    """Signal-to-clutter ratio: |peak target value - ring mean| over
    (ring std + lam). The ring is the ``ring``-pixel-wide frame around the
    box; lam keeps a flat ring from dividing by zero (0 for the strict
    mode)."""
    image = np.asarray(image, np.float64)
    x0, y0, h0, w0 = _as_box(box)
    peak = float(image[x0:x0 + h0, y0:y0 + w0].max())
    bg = _ring_pixels(image, box, ring)
    return abs(peak - float(bg.mean())) / (float(bg.std()) + lam)


def scrg(image_in: np.ndarray, image_out: np.ndarray, box,
         lam: float = STABILIZER, ring: int = RING_WIDTH) -> float:
    """SCR gain of processing: SCR_out / (SCR_in + lam)."""
    return scr(image_out, box, lam, ring) / (scr(image_in, box, lam, ring) + lam)


def bsf(image_in: np.ndarray, image_out: np.ndarray, box,
        lam: float = STABILIZER, ring: int = RING_WIDTH) -> float:
    """Background suppression factor: ring std before / (ring std after +
    lam)."""
    s_in = float(_ring_pixels(np.asarray(image_in, np.float64), box, ring).std())
    s_out = float(_ring_pixels(np.asarray(image_out, np.float64), box, ring).std())
    return s_in / (s_out + lam)


# --- filtering baselines ---------------------------------------------------

def _window_extreme(image: np.ndarray, size: int, reduce) -> np.ndarray:
    """Square-window ``reduce`` (np.minimum or np.maximum) over the
    edge-padded image, as two 1-D passes: along rows, then along columns."""
    h, w = image.shape
    padded = np.pad(image, size // 2, mode="edge")
    rows = padded[:, :w].copy()
    for k in range(1, size):
        reduce(rows, padded[:, k:k + w], out=rows)
    out = rows[:h].copy()
    for k in range(1, size):
        reduce(out, rows[k:k + h], out=out)
    return out


def tophat(image: np.ndarray, size: int = 5) -> np.ndarray:
    """Image minus its morphological opening (erosion then dilation) with a
    flat square element; replicate borders. A lone bright pixel survives at
    full contrast, a constant image scores zero everywhere."""
    if size % 2 == 0 or size < 1:
        raise ValueError("element size must be odd and positive")
    image = np.asarray(image, np.float64)
    if min(image.shape) < size:
        raise ValueError(f"image {image.shape} smaller than element {size}")
    opened = _window_extreme(_window_extreme(image, size, np.minimum), size, np.maximum)
    return (image - opened).astype(np.float32)


_DIRECTIONS = ("h", "v", "d1", "d2")
# frame rows per max-median band: the (rows, width, window) float64 buffer
# is 0.9 MiB for a 256-wide frame and a 15-pixel window
_MEDIAN_BAND_ROWS = 32


def _line_slices(padded: np.ndarray, direction: str, offset: int, pad: int,
                 h: int, w: int) -> np.ndarray:
    if direction == "h":
        return padded[pad:pad + h, pad + offset:pad + offset + w]
    if direction == "v":
        return padded[pad + offset:pad + offset + h, pad:pad + w]
    if direction == "d1":
        return padded[pad + offset:pad + offset + h, pad + offset:pad + offset + w]
    return padded[pad + offset:pad + offset + h, pad - offset:pad - offset + w]


def _median_deficit(image: np.ndarray, lines: list[np.ndarray], buf: np.ndarray) -> np.ndarray:
    """``image`` minus the median of ``lines`` (views shaped like the image),
    one band of rows at a time in the reused (rows, width, window) ``buf``.
    An odd window's median is its middle order statistic. np.median also
    partitions the largest value last and returns it when it is NaN; that
    slower partition runs only on frames holding a NaN."""
    mid, last = len(lines) // 2, len(lines) - 1
    has_nan = bool(np.isnan(image).any())
    kth = (mid, last) if has_nan else mid
    h = image.shape[0]
    deficit = np.empty_like(image)
    for r0 in range(0, h, len(buf)):
        r1 = min(r0 + len(buf), h)
        band = buf[:r1 - r0]
        for k, line in enumerate(lines):
            band[..., k] = line[r0:r1]
        band.partition(kth, axis=-1)
        median = band[..., mid]
        if has_nan:
            median = np.where(np.isnan(band[..., last]), band[..., last], median)
        np.subtract(image[r0:r1], median, out=deficit[r0:r1])
    return deficit


def _directional_filter(image: np.ndarray, size: int, reducer: str) -> np.ndarray:
    if size % 2 == 0 or size < 1:
        raise ValueError("window size must be odd and positive")
    image = np.asarray(image, np.float64)
    if min(image.shape) < size:
        raise ValueError(f"image {image.shape} smaller than window {size}")
    h, w = image.shape
    pad = size // 2
    padded = np.pad(image, pad, mode="edge")
    if reducer == "median":
        buf = np.empty((min(_MEDIAN_BAND_ROWS, h), w, size))
    score = None
    for direction in _DIRECTIONS:
        lines = [_line_slices(padded, direction, offset, pad, h, w)
                 for offset in range(-pad, pad + 1)]
        if reducer == "mean":
            # mean of (pixel - line value): identical to pixel minus the line
            # mean, but exactly zero on constant images
            acc = np.zeros((h, w), np.float64)
            for line in lines:
                acc += image - line
            deficit = acc / size
        else:
            deficit = _median_deficit(image, lines, buf)
        score = deficit if score is None else np.minimum(score, deficit)
    return score.astype(np.float32)


def max_mean(image: np.ndarray, size: int = 15) -> np.ndarray:
    """Image minus the max of its four directional (horizontal, vertical,
    two diagonal) windowed means; replicate borders."""
    return _directional_filter(image, size, "mean")


def max_median(image: np.ndarray, size: int = 15) -> np.ndarray:
    """Image minus the max of its four directional windowed medians."""
    return _directional_filter(image, size, "median")


BASELINES = {"tophat": tophat, "max-mean": max_mean, "max-median": max_median}


def write_csv(path, header: list[str], rows) -> None:
    """CSV with a header row and 6-significant-digit reals; identical inputs
    produce identical bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])
    Path(path).write_text(buf.getvalue())


def render_roc_plot(curve: RocCurve, path, size: int = 320) -> None:
    """Rasterise the ROC polyline (Fa on x, Pd on y, unit axes) into a PGM.
    A dependency-free debugging aid, not publication graphics."""
    from .pgm import write_pgm
    margin = 24
    span = size - 2 * margin
    img = np.ones((size, size), np.float32)
    img[margin, margin:size - margin] = 0.0   # top border
    img[size - margin - 1, margin:size - margin] = 0.0  # x axis
    img[margin:size - margin, margin] = 0.0   # y axis
    img[margin:size - margin, size - margin - 1] = 0.0

    def to_px(fa, pd):
        col = margin + int(round(min(max(fa, 0.0), 1.0) * (span - 1)))
        row = size - margin - 1 - int(round(min(max(pd, 0.0), 1.0) * (span - 1)))
        return row, col

    pts = [to_px(fa, pd) for _, fa, pd in curve.points]
    for (r0, c0), (r1, c1) in zip(pts, pts[1:]):
        steps = max(abs(r1 - r0), abs(c1 - c0), 1)
        rows = np.rint(np.linspace(r0, r1, steps + 1)).astype(int)
        cols = np.rint(np.linspace(c0, c1, steps + 1)).astype(int)
        img[rows, cols] = 0.0
    for r, c in pts:
        img[max(r - 1, 0):r + 2, max(c - 1, 0):c + 2] = 0.0
    write_pgm(path, img, maxval=255)
