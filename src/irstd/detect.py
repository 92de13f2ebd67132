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
    into the result."""
    image = np.asarray(image, np.float64)
    lo = image.min()
    hi = image.max()
    if lo == 0 and hi == 1:
        return image
    if hi == lo:
        return np.zeros_like(image)
    return (image - lo) / (hi - lo)


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


def label_mask(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connectivity component labelling by iterative flood fill.

    Returns (labels array with 0 for background and 1..n for components, n).
    Components are numbered in raster order of their first-encountered pixel.
    """
    mask = np.asarray(mask, bool)
    h, w = mask.shape
    labels = np.zeros((h, w), np.int32)
    n = 0
    for r0, c0 in np.argwhere(mask):
        if labels[r0, c0]:
            continue
        n += 1
        stack = [(int(r0), int(c0))]
        labels[r0, c0] = n
        while stack:
            r, c = stack.pop()
            for rr in range(max(r - 1, 0), min(r + 2, h)):
                for cc in range(max(c - 1, 0), min(c + 2, w)):
                    if mask[rr, cc] and not labels[rr, cc]:
                        labels[rr, cc] = n
                        stack.append((rr, cc))
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

    One pass over the mask pixels, grouped by label with a stable sort,
    gives every component's statistics; centroids are exact integer sums
    over the pixel count, so they equal the per-component means.
    """
    labels, n = label_mask(mask)
    if n == 0:
        return []
    rows, cols = np.nonzero(labels)
    lab = labels[rows, cols]
    order = np.argsort(lab, kind="stable")
    rows, cols = rows[order], cols[order]
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
