"""Turn an extractor output into discrete detections: min-max normalise,
threshold at mean + k * std, and split the binary mask into 8-connected
components."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tem
from .tensor import stats


def normalize01(image: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0, 1]; a flat image maps to all zeros.
    Idempotent: an image whose float64 values already span exactly [0, 1]
    is returned as it is, without a copy, since (x - 0) / (1 - 0) == x (the
    rescale could only change the sign of a zero). Callers must not write
    into the result.

    The extremes are taken in the input dtype, whose conversion to float64
    is exact and monotone, and the rescale converts as it subtracts, so
    only the result is allocated."""
    image = np.asarray(image)
    lo, hi = float(image.min()), float(image.max())
    if lo == 0 and hi == 1:
        return np.asarray(image, np.float64)
    if hi == lo:
        return np.zeros(image.shape)
    out = np.subtract(image, lo, dtype=np.float64)
    out /= hi - lo
    return out


def adaptive_threshold(image: np.ndarray, k: float) -> np.ndarray:
    """Binary mask of pixels above mean + k * std of the normalised image.

    The comparison is strict, so a flat image (std 0) yields an empty mask.
    The mask is invariant to positive affine rescaling of the input, so
    computing the statistics before or after normalisation is equivalent; we
    normalise first.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    norm = normalize01(image)
    mean, std = stats(norm)
    return norm > (mean + k * std)


def _label_pixels(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """8-connectivity labelling of a 2-D boolean mask's pixel list.

    Returns the flat indices of the mask pixels in raster order, each
    pixel's component label (int32, 1..n) and n. Every pixel is joined to
    its forward neighbours (right, down-left, down, down-right), found by
    binary search in the sorted pixel list; a column test stops a row's
    last pixel joining the next row's first. The joins are merged by
    hooking each edge's larger root under its smaller one, then pointer
    jumping until every pixel points at a root. A component's root is
    thus its raster-first pixel, and components are numbered in that
    order.
    """
    _, w = mask.shape
    idx = np.flatnonzero(mask)
    n = idx.size
    if n == 0:
        return idx, np.zeros(0, np.int32), 0
    col = idx % w
    pos = np.arange(n)
    lo, hi = [], []
    for offset, ok in ((1, col < w - 1), (w - 1, col > 0), (w, slice(None)),
                       (w + 1, col < w - 1)):
        src = pos[ok]
        want = idx[src] + offset
        dst = np.minimum(np.searchsorted(idx, want), n - 1)
        hit = idx[dst] == want
        lo.append(src[hit])
        hi.append(dst[hit])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    parent = np.arange(n)
    while lo.size:
        a, b = parent[lo], parent[hi]
        cross = a != b
        if not cross.any():
            break
        lo, hi, a, b = lo[cross], hi[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    roots = np.cumsum(parent == pos, dtype=np.int32)
    return idx, roots[parent], int(roots[-1])


def label_mask(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connectivity component labelling.

    Returns (labels array with 0 for background and 1..n for components, n).
    Components are numbered in raster order of their first pixel; the
    labels come from the mask's pixel list (see ``_label_pixels``), so the
    cost grows with the mask pixels, not the frame.
    """
    mask = np.asarray(mask, bool)
    idx, lab, n = _label_pixels(mask)
    labels = np.zeros(mask.shape, np.int32)
    labels.reshape(-1)[idx] = lab
    return labels, n


@dataclass(frozen=True)
class Detection:
    """One connected component of the detection mask.

    centroid is (row, col) in real pixel coordinates; bbox is
    (x0, y0, h0, w0) with x0 the top row and y0 the left column, the same
    layout as a fusion box.
    """

    centroid: tuple[float, float]
    pixel_count: int
    peak_value: float
    bbox: tuple[int, int, int, int]


def connected_components(mask: np.ndarray, values: np.ndarray | None = None) -> list[Detection]:
    """Detections from a binary mask, ordered by (top, left) of their
    bounding boxes. ``values`` (e.g. the normalised target map) supplies the
    peak; without it peaks are 1.0.

    One pass over the labelled pixel list, grouped by label with a stable
    sort, gives every component's statistics; centroids are exact integer
    sums over the pixel count, so they equal the per-component means.
    """
    mask = np.asarray(mask, bool)
    idx, lab, n = _label_pixels(mask)
    if n == 0:
        return []
    order = np.argsort(lab, kind="stable")
    rows, cols = np.divmod(idx[order], mask.shape[1])
    counts = np.bincount(lab)[1:]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    x0 = np.minimum.reduceat(rows, starts)
    y0 = np.minimum.reduceat(cols, starts)
    h0 = np.maximum.reduceat(rows, starts) - x0 + 1
    w0 = np.maximum.reduceat(cols, starts) - y0 + 1
    centroids = zip((np.add.reduceat(rows, starts) / counts).tolist(),
                    (np.add.reduceat(cols, starts) / counts).tolist())
    bboxes = zip(x0.tolist(), y0.tolist(), h0.tolist(), w0.tolist())
    if values is None:
        peaks = [1.0] * n
    else:
        peaks = np.maximum.reduceat(np.asarray(values)[rows, cols], starts).tolist()
    detections = [Detection(centroid=c, pixel_count=k, peak_value=float(p), bbox=b)
                  for c, k, p, b in zip(centroids, counts.tolist(), peaks, bboxes)]
    detections.sort(key=lambda d: (d.bbox[0], d.bbox[1]))
    return detections


def detect(net: "tem.TemNet", frame: np.ndarray, k: float = 25.0):
    """Full pipeline on one frame: extract, threshold, componentise.

    Returns (raw target map, binary mask, detections); k defaults to 25, the
    midpoint of the useful 20-30 band.
    """
    target_map = tem.extract(net, frame)
    norm = normalize01(target_map)
    mask = adaptive_threshold(norm, k)
    return target_map, mask, connected_components(mask, norm)


def detections_to_jsonl(path, per_frame: list[list[Detection]]) -> None:
    """One JSON object per detection: {frame, centroid, pixel_count, peak,
    bbox}."""
    lines = []
    for frame_idx, dets in enumerate(per_frame):
        for d in dets:
            lines.append(json.dumps({
                "frame": frame_idx,
                "centroid": [d.centroid[0], d.centroid[1]],
                "pixel_count": d.pixel_count,
                "peak": d.peak_value,
                "bbox": list(d.bbox),
            }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
