import math

import numpy as np
import pytest

from irstd.detect import (Detection, adaptive_threshold, connected_components,
                          detect, detections_to_jsonl, label_mask, normalize01)
from irstd.tem import NetConfig, build_tem
from irstd.tensor import Rng, stats


def flood_fill_oracle(mask):
    """Independent recursive-style component count (explicit queue BFS over
    8-neighbourhoods, scanning column-major to differ from the library)."""
    mask = np.asarray(mask, bool)
    h, w = mask.shape
    seen = np.zeros((h, w), bool)
    count = 0
    for c in range(w):
        for r in range(h):
            if not mask[r, c] or seen[r, c]:
                continue
            count += 1
            queue = [(r, c)]
            seen[r, c] = True
            while queue:
                rr, cc = queue.pop(0)
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        nr, nc = rr + dr, cc + dc
                        if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not seen[nr, nc]:
                            seen[nr, nc] = True
                            queue.append((nr, nc))
    return count


def rescan_components(mask, values=None):
    """The per-component rescan: one ``labels == i`` pass per label, then the
    stable (top, left) sort."""
    labels, n = label_mask(mask)
    detections = []
    for i in range(1, n + 1):
        rows, cols = np.nonzero(labels == i)
        x0, y0 = int(rows.min()), int(cols.min())
        bbox = (x0, y0, int(rows.max()) - x0 + 1, int(cols.max()) - y0 + 1)
        peak = float(np.max(values[rows, cols])) if values is not None else 1.0
        detections.append(Detection(
            centroid=(float(rows.mean()), float(cols.mean())),
            pixel_count=int(rows.size),
            peak_value=peak,
            bbox=bbox,
        ))
    detections.sort(key=lambda d: (d.bbox[0], d.bbox[1]))
    return detections


class TestNormalize:
    def test_flat_image_maps_to_zeros(self):
        assert not normalize01(np.full((5, 5), 3.7)).any()

    def test_idempotent(self):
        x = Rng(1).uniform_array((8, 8), -2, 5)
        once = normalize01(x)
        assert np.array_equal(normalize01(once), once)

    def test_range(self):
        y = normalize01(Rng(2).uniform_array((8, 8), -1, 1))
        assert y.min() == 0.0 and y.max() == 1.0

    def test_normalised_image_returned_byte_equal(self):
        once = normalize01(Rng(3).uniform_array((16, 16), -2, 5))
        assert normalize01(once).tobytes() == once.tobytes()
        assert normalize01(once).tobytes() == former_normalize01(once).tobytes()
        # float32 scores spanning [0, 1] come back as the same float64 values
        f32 = once.astype(np.float32)
        assert normalize01(f32).tobytes() == former_normalize01(f32).tobytes()

    def test_negative_zero_kept_and_mask_unchanged(self):
        # the rescale could turn -0.0 into +0.0 when min() picked the other
        # zero; the shortcut keeps the sign, and no threshold mask can tell
        once = normalize01(Rng(3).uniform_array((16, 16), -2, 5))
        once[0, :3] = -0.0
        assert normalize01(once).tobytes() == once.tobytes()
        for k in (0.5, 1.0, 2.0):
            former = former_normalize01(once)
            mean, std = stats(former)
            assert np.array_equal(adaptive_threshold(once, k), former > mean + k * std)

    def test_nan_and_near_unit_spans_still_rescaled(self):
        x = Rng(4).uniform_array((8, 8), 0, 1, np.float64)
        x[0, 0], x[0, 1] = 0.0, 1.0
        x[3, 3] = np.nan
        assert normalize01(x).tobytes() == former_normalize01(x).tobytes()
        y = np.linspace(0.0, np.nextafter(1.0, 2.0), 9)
        assert normalize01(y).max() == 1.0 and normalize01(y) is not y


def former_normalize01(image):
    """Min-max rescaling without the already-normalised shortcut."""
    image = np.asarray(image, np.float64)
    lo, hi = image.min(), image.max()
    if hi == lo:
        return np.zeros_like(image)
    return (image - lo) / (hi - lo)


class TestAdaptiveThreshold:
    def test_constant_image_empty_mask(self):
        assert not adaptive_threshold(np.full((16, 16), 0.42), 25.0).any()

    def test_single_hot_pixel_hand_value(self):
        img = np.zeros((256, 256))
        img[100, 50] = 1.0
        mu = 1 / 65536
        sigma = math.sqrt(mu - mu * mu)
        assert mu + 25 * sigma < 1.0  # threshold ~ 0.0977
        mask = adaptive_threshold(img, 25.0)
        assert mask.sum() == 1 and mask[100, 50]

    def test_affine_rescale_invariance(self):
        x = Rng(3).uniform_array((32, 32), 0, 1, np.float64)
        x[4, 5] = 8.0
        base = adaptive_threshold(x, 10.0)
        assert np.array_equal(adaptive_threshold(3.5 * x + 0.7, 10.0), base)

    def test_monotone_in_k(self):
        x = Rng(4).uniform_array((32, 32), 0, 1, np.float64)
        x[10, 10] = 5.0
        x[20, 25] = 3.0
        m30 = adaptive_threshold(x, 30.0)
        m20 = adaptive_threshold(x, 20.0)
        assert np.all(m20[m30])  # k=30 detections are a subset of k=20

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            adaptive_threshold(np.zeros((4, 4)), 0.0)


class TestComponents:
    def test_single_blob(self):
        mask = np.zeros((8, 8), bool)
        mask[2:4, 3:5] = True
        dets = connected_components(mask)
        assert len(dets) == 1
        d = dets[0]
        assert d.pixel_count == 4
        assert d.bbox == (2, 3, 2, 2)
        assert d.centroid == (2.5, 3.5)

    def test_diagonal_counts_as_connected(self):
        mask = np.zeros((6, 6), bool)
        mask[1, 1] = mask[2, 2] = True
        assert len(connected_components(mask)) == 1

    def test_separated_blobs(self):
        mask = np.zeros((8, 8), bool)
        mask[1, 1] = True
        mask[1, 3] = True  # one clear pixel between, orthogonally and diagonally
        mask[5, 6] = True
        assert len(connected_components(mask)) == 3

    def test_matches_flood_fill_oracle(self):
        rng = Rng(5)
        for _ in range(25):
            mask = rng.uniform_array((24, 24)) > 0.72
            _, n = label_mask(mask)
            assert n == flood_fill_oracle(mask)

    def test_partition_of_mask(self):
        mask = Rng(6).uniform_array((32, 32)) > 0.8
        dets = connected_components(mask)
        assert sum(d.pixel_count for d in dets) == int(mask.sum())

    def test_deterministic_order(self):
        mask = Rng(7).uniform_array((16, 16)) > 0.7
        dets = connected_components(mask)
        keys = [(d.bbox[0], d.bbox[1]) for d in dets]
        assert keys == sorted(keys)

    def test_peak_values_from_scores(self):
        mask = np.zeros((6, 6), bool)
        mask[1:3, 1:3] = True
        values = np.zeros((6, 6))
        values[2, 2] = 0.9
        dets = connected_components(mask, values)
        assert dets[0].peak_value == 0.9

    def test_centroid_inside_bbox(self):
        for seed in range(10):
            mask = Rng(seed).uniform_array((20, 20)) > 0.75
            for d in connected_components(mask):
                x0, y0, h0, w0 = d.bbox
                assert x0 <= d.centroid[0] <= x0 + h0 - 1
                assert y0 <= d.centroid[1] <= y0 + w0 - 1


class TestComponentsMatchRescan:
    """One-pass component statistics against the per-label rescan; Detection
    equality compares centroids and peaks exactly."""

    @staticmethod
    def check(mask, values=None):
        got = connected_components(mask, values)
        assert got == rescan_components(mask, values)
        for d in got:
            assert all(type(v) is float for v in (*d.centroid, d.peak_value))
            assert all(type(v) is int for v in (d.pixel_count, *d.bbox))
        return got

    @pytest.mark.parametrize("density", [0.02, 0.1, 0.3, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_seeded_masks(self, density, dtype):
        rng = Rng(int(density * 100))
        for shape in ((24, 24), (17, 41), (64, 64)):
            mask = rng.uniform_array(shape, 0, 1, np.float64) < density
            values = rng.uniform_array(shape, 0, 1, dtype)
            self.check(mask)
            self.check(mask, values)

    def test_empty_full_and_single_pixel(self):
        values = Rng(11).uniform_array((9, 7), 0, 1, np.float64)
        assert self.check(np.zeros((9, 7), bool), values) == []
        full = self.check(np.ones((9, 7), bool), values)
        assert len(full) == 1 and full[0].pixel_count == 63
        assert full[0].centroid == (4.0, 3.0) and full[0].bbox == (0, 0, 9, 7)
        single = np.zeros((9, 7), bool)
        single[8, 6] = True
        assert self.check(single, values)[0].peak_value == float(values[8, 6])

    def test_diagonal_only_chains(self):
        mask = np.zeros((12, 12), bool)
        idx = np.arange(4)
        mask[idx, idx] = mask[idx, 6 - idx] = True  # a V joined at (3, 3)
        mask[11 - idx[:3], idx[:3]] = True           # a separate rising chain
        dets = self.check(mask, Rng(12).uniform_array((12, 12)))
        assert [d.pixel_count for d in dets] == [7, 3]

    def test_shared_top_left_keeps_label_order(self):
        mask = np.zeros((8, 8), bool)
        mask[0, 0] = True
        idx = np.arange(6)
        mask[idx, 5 - idx] = True  # an anti-diagonal whose bbox also starts at (0, 0)
        dets = self.check(mask)
        assert [d.bbox for d in dets] == [(0, 0, 1, 1), (0, 0, 6, 6)]
        hook = np.zeros((8, 8), bool)
        hook[0, 0] = True
        hook[0, 2:] = hook[:, 7] = hook[7, :] = hook[2:, 0] = True  # wraps round (0, 0)
        dets = self.check(hook)
        assert [d.bbox for d in dets] == [(0, 0, 1, 1), (0, 0, 8, 8)]


class TestPipeline:
    def test_detect_returns_all_artifacts(self):
        net = build_tem(NetConfig(2, 2, 16, 16), Rng(8))
        frame = Rng(9).uniform_array((16, 16))
        target_map, mask, dets = detect(net, frame, k=5.0)
        assert target_map.shape == (16, 16)
        assert mask.shape == (16, 16) and mask.dtype == bool
        assert all(d.pixel_count >= 1 for d in dets)

    def test_detect_matches_former_pipeline(self):
        # the former detect normalised the target map once for the threshold
        # and once more for the component peaks
        for seed in range(4):
            net = build_tem(NetConfig(2, 2, 32, 32), Rng(20 + seed))
            frame = Rng(30 + seed).uniform_array((32, 32))
            for k in (0.5, 2.0, 5.0):
                target_map, mask, dets = detect(net, frame, k=k)
                want_mask = adaptive_threshold(target_map, k)
                assert mask.tobytes() == want_mask.tobytes()
                assert dets == connected_components(want_mask, former_normalize01(target_map))
                assert dets or k == 5.0

    def test_detections_jsonl_schema(self, tmp_path):
        import json
        mask = np.zeros((8, 8), bool)
        mask[1, 1] = True
        dets = connected_components(mask)
        path = tmp_path / "d.jsonl"
        detections_to_jsonl(path, [dets, []])
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 1
        assert set(rows[0]) == {"frame", "centroid", "pixel_count", "peak", "bbox"}
        assert rows[0]["frame"] == 0
