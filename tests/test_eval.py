import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from irstd import eval as evalmod
from irstd.detect import Detection, connected_components
from irstd.eval import (bsf, detection_rates, match_and_score, max_mean,
                        max_median, roc, scr, scrg, tophat, write_csv)
from irstd.tensor import Rng


def det(centroid, pixels=1, bbox=None):
    if bbox is None:
        bbox = (int(centroid[0]), int(centroid[1]), 1, 1)
    return Detection(centroid=centroid, pixel_count=pixels, peak_value=1.0, bbox=bbox)


class TestMatchAndScore:
    def test_perfect_single_detection(self):
        true, false_px = match_and_score([det((5.0, 5.0))], [(4, 4, 3, 3)])
        assert (true, false_px) == (1, 0)

    def test_far_detection_is_false_pixels(self):
        true, false_px = match_and_score([det((15.0, 15.0), pixels=4)], [(4, 4, 3, 3)])
        assert (true, false_px) == (0, 4)

    def test_two_detections_one_target(self):
        dets = [det((5.0, 5.0), pixels=2), det((5.5, 5.5), pixels=3)]
        true, false_px = match_and_score(dets, [(4, 4, 3, 3)])
        assert (true, false_px) == (1, 3)

    def test_radius_dilation(self):
        box = [(10, 10, 2, 2)]
        assert match_and_score([det((8.0, 10.0))], box, radius=2.0) == (1, 0)
        assert match_and_score([det((7.0, 10.0))], box, radius=2.0) == (0, 1)

    def test_each_target_once_multiple_targets(self):
        dets = [det((5.0, 5.0)), det((5.0, 11.0))]
        true, false_px = match_and_score(dets, [(4, 4, 3, 3), (4, 10, 3, 3)])
        assert (true, false_px) == (2, 0)

    def test_exhaustive_small_cases(self):
        # brute-force verification of the greedy at-most-once rule on a grid
        # of 2-detection, 2-target layouts
        boxes = [(0, 0, 2, 2), (0, 6, 2, 2)]
        for r1 in range(4):
            for r2 in range(4):
                d1 = det((0.0, float(r1 * 2)))
                d2 = det((0.0, float(r2 * 2)))
                true, false_px = match_and_score([d1, d2], boxes)
                claimed = set()
                expected_true = 0
                expected_false = 0
                for d in (d1, d2):
                    hit = None
                    for i, (x0, y0, h0, w0) in enumerate(boxes):
                        if i in claimed:
                            continue
                        if (x0 - 2 <= d.centroid[0] <= x0 + h0 + 1
                                and y0 - 2 <= d.centroid[1] <= y0 + w0 + 1):
                            hit = i
                            break
                    if hit is None:
                        expected_false += d.pixel_count
                    else:
                        claimed.add(hit)
                        expected_true += 1
                assert (true, false_px) == (expected_true, expected_false)

    def test_detection_rates_aggregates(self):
        frames = [([det((5.0, 5.0))], [(4, 4, 3, 3)]),
                  ([det((1.0, 1.0), pixels=8)], [(10, 10, 2, 2)])]
        pd, fa = detection_rates(frames, frame_pixels=100)
        assert pd == 0.5 and fa == 8 / 200


class TestRoc:
    def setup_method(self):
        rng = Rng(1)
        self.images = []
        self.gts = []
        for i in range(4):
            img = rng.uniform_array((32, 32), 0.0, 0.2, np.float64)
            img[8, 8] = 0.9
            img[20, 20 + i] = 0.7
            self.images.append(img)
            self.gts.append([(7, 7, 3, 3), (19, 19 + i, 3, 3)])

    def test_low_threshold_limit(self):
        curve = roc(self.images, self.gts, [-0.1, 2.0])
        t, fa, pd = curve.points[0]
        assert pd == 1.0 and fa > 0.9

    def test_high_threshold_limit(self):
        curve = roc(self.images, self.gts, [-0.1, 2.0])
        t, fa, pd = curve.points[-1]
        assert (fa, pd) == (0.0, 0.0)

    def test_monotone_in_threshold(self):
        curve = roc(self.images, self.gts, np.linspace(0, 1, 21))
        fas = [p[1] for p in curve.points]
        pds = [p[2] for p in curve.points]
        assert all(a >= b for a, b in zip(fas, fas[1:]))
        assert all(a >= b for a, b in zip(pds, pds[1:]))

    def test_operating_point_separates_signal(self):
        curve = roc(self.images, self.gts, [0.5, 0.95])
        t, fa, pd = curve.points[0]
        assert pd == 1.0 and fa == 0.0

    @pytest.mark.parametrize("box", [(-10, -10, 2, 2), (-1000, -1000, 2, 2),
                                     (-10, 5, 2, 2), (5, -10, 2, 2)])
    def test_box_off_the_frame_covers_nothing(self, box):
        # a box wholly above or left of the frame is never detected and
        # excuses no false alarm, however far off it lies
        img = np.zeros((32, 32))
        img[20, 20] = 1.0
        assert roc([img], [[box]], [0.5, 2.0]).points == [(0.5, 1 / 1024, 0.0),
                                                          (2.0, 0.0, 0.0)]
        assert not evalmod._dilated_box_mask(img.shape, [box], 2).any()

    def test_too_few_thresholds_rejected(self):
        with pytest.raises(ValueError, match="2 thresholds"):
            roc(self.images, self.gts, [0.5])

    def test_csv_layout(self, tmp_path):
        curve = roc(self.images, self.gts, [0.1, 0.5, 0.9])
        path = tmp_path / "roc.csv"
        curve.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,fa,pd"
        assert len(lines) == 4


def loop_roc(score_images, gts, thresholds, radius=2):
    """The threshold-by-threshold sweep: one full-frame mask per threshold
    and image."""
    thresholds = sorted(float(t) for t in thresholds)
    total_targets = sum(len(b) for b in gts)
    total_pixels = sum(img.size for img in score_images)
    region_masks = [evalmod._dilated_box_mask(img.shape, boxes, radius)
                    for img, boxes in zip(score_images, gts)]
    points = []
    for t in thresholds:
        detected = 0
        false_px = 0
        for img, boxes, region in zip(score_images, gts, region_masks):
            mask = np.asarray(img) > t
            false_px += int((mask & ~region).sum())
            for x0, y0, h0, w0 in boxes:
                if mask[max(x0 - radius, 0):max(x0 + h0 + radius, 0),
                        max(y0 - radius, 0):max(y0 + w0 + radius, 0)].any():
                    detected += 1
        pd = detected / total_targets if total_targets else 0.0
        points.append((t, false_px / total_pixels, pd))
    return points


class TestRocMatchesLoop:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_seeded_sweeps(self, dtype):
        rng = Rng(21)
        for trial in range(12):
            h, w = 20 + 7 * trial, 64 - 3 * trial
            images = [rng.uniform_array((h, w), 0, 1, dtype) for _ in range(3)]
            if trial % 3 == 0:
                images[0][images[0] < 0.1] = np.nan  # NaN is never above a threshold
            gts = [[(int(rng.uniform(-4, h)), int(rng.uniform(-4, w)),
                     int(rng.uniform(0, 5)), int(rng.uniform(0, 5)))
                    for _ in range(trial % 4)] for _ in images]
            # thresholds off the float32 grid, repeats and both extremes
            thresholds = [float(v) for v in rng.uniform_array(30, -0.1, 1.1, np.float64)]
            thresholds += [0.0, 0.5, 0.5, 1.0, float(np.float32(0.3))]
            radius = trial % 3
            got = roc(images, gts, thresholds, radius=radius).points
            assert got == loop_roc(images, gts, thresholds, radius=radius)
            assert all(type(v) is float for p in got for v in p)

    def test_integer_and_bool_scores(self):
        images = [Rng(22).uniform_array((16, 16), 0, 1, np.float64) > 0.6,
                  (Rng(23).uniform_array((16, 16), 0, 255, np.float64)).astype(np.uint8)]
        gts = [[(3, 3, 2, 2)], [(8, 1, 3, 3), (0, 12, 2, 2)]]
        thresholds = [-1.0, 0.0, 0.5, 1.0, 99.5, 200.0, 300.0]
        assert roc(images, gts, thresholds).points == loop_roc(images, gts, thresholds)


class TestContrastMetrics:
    def test_identity_processing(self):
        img = Rng(2).uniform_array((40, 40), 0.1, 0.4, np.float64)
        img[18:22, 18:22] = 1.0
        box = (18, 18, 4, 4)
        # identity processing: both gains reduce to v / (v + stabilizer) ~ 1
        assert abs(scrg(img, img, box) - scr(img, box) / (scr(img, box) + 0.01)) < 1e-12
        ring_std = float(_ring(img, 18, 18, 4, 4).std())
        assert abs(bsf(img, img, box) - ring_std / (ring_std + 0.01)) < 1e-12
        assert bsf(img, img, box) <= 1.0

    def test_flat_ring_stabilizer(self):
        img = np.zeros((40, 40))
        img[18:22, 18:22] = 1.0
        assert scr(img, (18, 18, 4, 4)) == 100.0  # 1 / (0 + 0.01)

    def test_perfectly_suppressed_background(self):
        img_in = Rng(3).uniform_array((40, 40), 0.0, 1.0, np.float64)
        img_out = np.zeros((40, 40))
        value = bsf(img_in, img_out, (18, 18, 4, 4))
        ring_std = float(np.std  # population std of the ring, computed directly
                         (_ring(img_in, 18, 18, 4, 4)))
        assert np.isfinite(value) and abs(value - ring_std / 0.01) < 1e-9

    def test_strict_mode_scale_invariance(self):
        rng = Rng(4)
        a = rng.uniform_array((40, 40), 0.0, 0.5, np.float64)
        b = rng.uniform_array((40, 40), 0.0, 0.5, np.float64)
        box = (18, 18, 4, 4)
        assert abs(bsf(a, b, box, lam=0.0) - bsf(3 * a, 3 * b, box, lam=0.0)) < 1e-12

    def test_ring_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="ring"):
            scr(np.zeros((20, 20)), (2, 2, 4, 4))


def _ring(img, x0, y0, h0, w0, width=5):
    block = img[x0 - width:x0 + h0 + width, y0 - width:y0 + w0 + width]
    hole = np.ones(block.shape, bool)
    hole[width:width + h0, width:width + w0] = False
    return block[hole]


def oracle_tophat(img, size=5):
    img = np.asarray(img, np.float64)
    h, w = img.shape
    pad = size // 2

    def at(r, c):
        return img[min(max(r, 0), h - 1), min(max(c, 0), w - 1)]

    eroded = np.empty((h, w))
    for r in range(h):
        for c in range(w):
            eroded[r, c] = min(at(r + dr, c + dc)
                               for dr in range(-pad, pad + 1)
                               for dc in range(-pad, pad + 1))

    def at_e(r, c):
        return eroded[min(max(r, 0), h - 1), min(max(c, 0), w - 1)]

    opened = np.empty((h, w))
    for r in range(h):
        for c in range(w):
            opened[r, c] = max(at_e(r + dr, c + dc)
                               for dr in range(-pad, pad + 1)
                               for dc in range(-pad, pad + 1))
    return (img - opened).astype(np.float32)


def oracle_directional(img, size, reducer):
    img = np.asarray(img, np.float64)
    h, w = img.shape
    pad = size // 2
    out = np.empty((h, w))
    for r in range(h):
        for c in range(w):
            best = None
            for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
                values = []
                acc = 0.0
                for k in range(-pad, pad + 1):
                    rr = min(max(r + dr * k, 0), h - 1)
                    cc = min(max(c + dc * k, 0), w - 1)
                    if reducer == "mean":
                        acc += img[r, c] - img[rr, cc]
                    else:
                        values.append(img[rr, cc])
                if reducer == "mean":
                    deficit = acc / size
                else:
                    deficit = img[r, c] - float(np.median(values))
                best = deficit if best is None else min(best, deficit)
            out[r, c] = best
    return out.astype(np.float32)


def window2d_tophat(img, size=5):
    """The 2-D sliding-window erosion and dilation, in one pass each."""
    img = np.asarray(img, np.float64)
    pad = size // 2
    eroded = sliding_window_view(np.pad(img, pad, mode="edge"), (size, size)).min(axis=(-2, -1))
    opened = sliding_window_view(np.pad(eroded, pad, mode="edge"),
                                 (size, size)).max(axis=(-2, -1))
    return (img - opened).astype(np.float32)


def stack_max_median(img, size=15):
    """Whole-frame directional medians: np.median over a stack of all the
    window's line offsets."""
    img = np.asarray(img, np.float64)
    h, w = img.shape
    pad = size // 2
    padded = np.pad(img, pad, mode="edge")
    score = None
    for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
        stack = np.stack([padded[pad + dr * k:pad + dr * k + h, pad + dc * k:pad + dc * k + w]
                          for k in range(-pad, pad + 1)])
        deficit = img - np.median(stack, axis=0)
        score = deficit if score is None else np.minimum(score, deficit)
    return score.astype(np.float32)


class TestBaselinesMatchWholeFrame:
    """Separable top-hat and row-banded max-median against the whole-frame
    forms, byte for byte, on frames of several bands."""

    @pytest.mark.parametrize("shape", [(15, 15), (70, 45), (33, 80), (256, 256)])
    def test_random_frames(self, shape):
        rng = Rng(shape[0] * 1000 + shape[1])
        for img in (rng.uniform_array(shape, 0, 1, np.float32),
                    rng.uniform_array(shape, 0, 1, np.float64),
                    # heavy ties: four grey levels
                    np.floor(rng.uniform_array(shape, 0, 4, np.float64)) / 3):
            assert tophat(img).tobytes() == window2d_tophat(img).tobytes()
            assert max_median(img).tobytes() == stack_max_median(img).tobytes()

    @pytest.mark.parametrize("shape", [(15, 15), (70, 45)])
    def test_loop_oracle_on_short_last_band(self, shape):
        img = Rng(31).uniform_array(shape)
        assert np.array_equal(tophat(img), oracle_tophat(img))
        assert np.array_equal(max_median(img), oracle_directional(img, 15, "median"))

    def test_nan_pixel_matches_median_rule(self):
        img = Rng(32).uniform_array((70, 45), 0, 1, np.float64)
        img[40, 20] = np.nan
        assert max_median(img).tobytes() == stack_max_median(img).tobytes()
        assert tophat(img).tobytes() == window2d_tophat(img).tobytes()

    def test_max_median_memory_bound(self):
        img = Rng(33).uniform_array((256, 256), 0, 1, np.float64)
        frame = img.nbytes
        padded = 270 * 270 * 8
        band = evalmod._MEDIAN_BAND_ROWS * 256 * 15 * 8
        # padded copy, one band, and deficit, running score and np.minimum's
        # result; the whole-frame stack alone is 15 frames
        bound = padded + band + 4 * frame
        tracemalloc.start()
        try:
            max_median(img)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound < 15 * frame


def run_network(size, values):
    """The middle output of the max-median selection network over ``values``
    (size, ...), run as ``_median_deficit`` runs it."""
    program, mid = evalmod._median_network(size)
    buf = np.empty((size + 1,) + values.shape[1:], values.dtype)
    buf[:size] = values
    for op, a, b, out in program:
        op(buf[a], buf[b], out=buf[out])
    return buf[mid]


class TestMedianNetwork:
    SIZES = [1, 3, 5, 7, 15, 17]

    @pytest.mark.parametrize("size", SIZES)
    def test_every_zero_one_input(self, size):
        # a comparator network that picks the median of every 0/1 input
        # picks it of every input (the 0-1 principle)
        bits = (np.arange(2**size)[:, None] >> np.arange(size)) & 1
        values = bits.T.astype(np.int8)
        assert np.array_equal(run_network(size, values), np.sort(values, axis=0)[size // 2])

    @pytest.mark.parametrize("size", SIZES)
    def test_matches_np_median(self, size):
        rng = Rng(100 + size)
        values = rng.uniform_array((size, 6, 50), 0, 1, np.float64)
        values[:, :2] = np.floor(values[:, :2] * 3)        # heavy ties
        values[size // 3, 2, ::3] = np.inf
        values[0, 3, ::2] = -np.inf
        values[-1, 4, ::4] = np.nan
        values[:, 5, :10] = np.inf                          # whole windows
        values[:, 5, 10:20] = -np.inf
        got = run_network(size, values)
        want = np.median(values, axis=0)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.isnan(got), np.isnan(values).any(axis=0))

    @pytest.mark.parametrize("size", SIZES)
    def test_max_median_sizes_with_special_pixels(self, size):
        rng = Rng(200 + size)
        img = np.floor(rng.uniform_array((40, 37), 0, 1, np.float64) * 4) / 3
        img[5, 7] = np.inf
        img[20, 30] = -np.inf
        img[33, 3] = np.nan
        with np.errstate(invalid="ignore"):  # inf - inf next to the infinities
            assert max_median(img, size).tobytes() == stack_max_median(img, size).tobytes()

    def test_fifteen_wide_network_size(self):
        # a comparator with both outputs live is a minimum and a maximum
        # step over the same slots, one after the other
        program, _ = evalmod._median_network(15)
        pairs = [(a, b) for _, a, b, _ in program]
        comparators = 1 + sum(p != q for p, q in zip(pairs, pairs[1:]))
        assert (comparators, len(program)) == (49, 84)


class TestBaselines:
    def test_constant_images_score_zero(self):
        flat = np.full((32, 32), 0.37, np.float32)
        assert not tophat(flat).any()
        assert not max_mean(flat).any()
        assert not max_median(flat).any()

    def test_tophat_preserves_lone_bright_pixel(self):
        img = np.full((32, 32), 0.1, np.float32)
        img[16, 16] = 0.9
        score = tophat(img)
        assert np.isclose(score[16, 16], 0.8)
        assert np.abs(np.delete(score.reshape(-1), 16 * 32 + 16)).max() == 0.0

    def test_tophat_matches_oracle_exactly(self):
        img = Rng(5).uniform_array((32, 32))
        assert np.array_equal(tophat(img), oracle_tophat(img))

    def test_max_mean_matches_oracle_exactly(self):
        img = Rng(6).uniform_array((32, 32))
        assert np.array_equal(max_mean(img), oracle_directional(img, 15, "mean"))

    def test_max_median_matches_oracle_exactly(self):
        img = Rng(7).uniform_array((32, 32))
        assert np.array_equal(max_median(img), oracle_directional(img, 15, "median"))

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            tophat(np.zeros((32, 32)), size=4)
        with pytest.raises(ValueError, match="odd"):
            max_mean(np.zeros((32, 32)), size=6)

    def test_window_larger_than_image_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            max_mean(np.zeros((8, 8)), size=15)

    def test_baseline_enhances_synthetic_target(self):
        img = Rng(8).uniform_array((32, 32), 0.2, 0.3)
        img[15:17, 15:17] = 0.95
        for fn in (tophat, max_mean, max_median):
            score = fn(img)
            assert score[15:17, 15:17].max() == score.max() > 0.5


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        rows = [(0, 1.23456789, 0.5), (1, 2.3456789e-7, 1.0)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["i", "x", "y"], rows)
        write_csv(b, ["i", "x", "y"], rows)
        assert a.read_bytes() == b.read_bytes()
        assert "1.23457" in a.read_text()  # 6 significant digits
