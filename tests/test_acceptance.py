"""Acceptance suite: every product-level numerical claim, one pass/fail line
per criterion. The desk-scale training criteria share one module-scoped run
(seeded, deterministic); everything else is fast and independent.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math

import numpy as np
import pytest

from conftest import fd_at_indices, max_rel_err, spread_indices
from irstd.checkpoint import weight_hash
from irstd.detect import (adaptive_threshold, connected_components, detect,
                          label_mask, normalize01)
from irstd.eval import (detection_rates, match_and_score, max_mean, max_median,
                        tophat)
from irstd.loss import loss_b, loss_t, ssim
from irstd.nn import (AvgPool, Conv3x3, Linear, MaxPool2x2, ReLU,
                      UpsampleNearest2x, cross_entropy, softmax)
from irstd.scm import build_scm, classify
from irstd.synth import (FusionLocation, bilinear_resize, count_components,
                         desk_tuples, fuse_one, gaussian_template,
                         generate_tuples, write_dataset)
from irstd.tem import NetConfig, budget, build_tem, count_actual_ops, count_parameters, extract
from irstd.tensor import Rng, stats
from irstd.train import TrainConfig, freeze_scm, scm_accuracy, train_scm, train_tem

# Printed reference figures: (bc, levels) -> (ops, peak_map, params, total)
# at 256x256 in 2^20 units, at the printed precision.
REFERENCE_TABLE = {
    (8, 3): (54, 1.750, 0.046, 1.796),
    (8, 4): (72, 1.938, 0.187, 2.124),
    (8, 5): (90, 2.031, 0.749, 2.781),
    (8, 6): (108, 2.078, 2.999, 5.078),
    (16, 3): (216, 3.375, 0.185, 3.560),
    (16, 4): (288, 3.750, 0.747, 4.497),
    (16, 5): (360, 3.938, 2.997, 6.935),
    (16, 6): (432, 4.031, 11.997, 16.029),
}


def criterion(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- budget table reproduction ----------------------------------------------

def test_budget_table_exact():
    all_ok = True
    for (bc, lv), row in REFERENCE_TABLE.items():
        mega = budget(NetConfig(bc, lv, 256, 256)).as_mega()
        ok = (mega["ops"] == row[0]
              and round(mega["peak_map"], 3) == row[1]
              and round(mega["params"], 3) == row[2]
              and round(mega["total"], 3) == row[3])
        all_ok &= ok
    criterion("budget table: 8/8 rows exact at printed precision", all_ok)


def test_formula_reality_equality():
    ok = True
    for bc, lv, h, w in ((8, 3, 256, 256), (16, 5, 256, 256), (4, 3, 64, 64),
                         (1, 1, 4, 4), (2, 2, 32, 48)):
        cfg = NetConfig(bc, lv, h, w)
        net = build_tem(cfg, Rng(1))
        report = budget(cfg)
        ok &= count_parameters(net) == report.params
        ok &= count_actual_ops(net, h, w) == report.ops
    criterion("formula/reality: parameter count and op census match the "
              "closed forms for 5 configs", ok)


# --- gradient suite ----------------------------------------------------------

def _fd_check(f, x, grad, n_coords, eps, tol):
    idx = spread_indices(x.size, n_coords)
    ref = fd_at_indices(f, x, idx, eps)
    return max_rel_err(np.asarray(grad).reshape(-1)[idx], ref) < tol


def test_gradient_suite_layers():
    rng = Rng(1234)
    instances = 0
    for trial in range(100):
        conv = Conv3x3(2, 2, "replicate" if trial % 2 else "zero",
                       bias=bool(trial % 3), rng=rng)
        x = rng.uniform_array((1, 2, 4, 4), -1, 1)
        dy = rng.uniform_array((1, 2, 4, 4), -1, 1).astype(np.float64)
        conv.forward(x)
        dx = conv.backward(dy.astype(np.float32))

        def f_x(xv):
            return float((conv.forward(xv.astype(np.float32), train=False)
                          .astype(np.float64) * dy).sum())

        assert _fd_check(f_x, x, dx, 6, 3e-3, 1e-3)
        w0 = conv.w.copy()

        def f_w(wv):
            conv.w = wv.astype(np.float32)
            out = float((conv.forward(x, train=False).astype(np.float64) * dy).sum())
            conv.w = w0
            return out

        assert _fd_check(f_w, w0, conv.gw, 6, 3e-3, 1e-3)
        instances += 1

    for trial in range(100):
        x = rng.uniform_array((1, 1, 4, 4), -1, 1)
        dy4 = rng.uniform_array((1, 1, 2, 2), -1, 1).astype(np.float64)
        pool = MaxPool2x2()
        pool.forward(x)
        dx = pool.backward(dy4.astype(np.float32))

        def f_pool(xv):
            return float((pool.forward(xv.astype(np.float32), train=False)
                          .astype(np.float64) * dy4).sum())

        assert _fd_check(f_pool, x, dx, 6, 1e-4, 1e-3)

        up = UpsampleNearest2x()
        dy_up = rng.uniform_array((1, 1, 8, 8), -1, 1).astype(np.float64)
        up.forward(x)
        dxu = up.backward(dy_up.astype(np.float32))

        def f_up(xv):
            return float((up.forward(xv.astype(np.float32), train=False)
                          .astype(np.float64) * dy_up).sum())

        assert _fd_check(f_up, x, dxu, 6, 3e-3, 1e-3)

        avg = AvgPool(2, 2)
        dy_avg = rng.uniform_array((1, 1, 2, 2), -1, 1).astype(np.float64)
        avg.forward(x)
        dxa = avg.backward(dy_avg.astype(np.float32))

        def f_avg(xv):
            return float((avg.forward(xv.astype(np.float32), train=False)
                          .astype(np.float64) * dy_avg).sum())

        assert _fd_check(f_avg, x, dxa, 6, 3e-3, 1e-3)

        lin = Linear(8, 3, rng=rng)
        xl = rng.uniform_array((2, 8), -1, 1)
        dyl = rng.uniform_array((2, 3), -1, 1).astype(np.float64)
        lin.forward(xl)
        dxl = lin.backward(dyl.astype(np.float32))

        def f_lin(xv):
            return float((lin.forward(xv.astype(np.float32), train=False)
                          .astype(np.float64) * dyl).sum())

        assert _fd_check(f_lin, xl, dxl, 6, 3e-3, 1e-3)

        relu_layer = ReLU()
        xr = rng.uniform_array((1, 12), -1, 1)
        while np.abs(xr).min() < 0.05:  # stay away from the kink
            xr = rng.uniform_array((1, 12), -1, 1)
        dyr = rng.uniform_array((1, 12), -1, 1).astype(np.float64)
        relu_layer.forward(xr)
        dxr = relu_layer.backward(dyr.astype(np.float32))

        def f_relu(xv):
            return float((np.maximum(xv, 0).astype(np.float64) * dyr).sum())

        assert _fd_check(f_relu, xr, dxr, 6, 1e-3, 1e-3)

        logits = rng.uniform_array((1, 4), -2, 2)
        label = np.array([trial % 4])
        _, dlogits = cross_entropy(logits, label)

        def f_ce(lv):
            return float(cross_entropy(lv.astype(np.float32), label)[0][0])

        assert _fd_check(f_ce, logits, dlogits, 4, 3e-3, 1e-3)
        instances += 1

    criterion("gradient suite: conv/pool/upsample/avgpool/linear/relu/softmax-ce "
              f"match finite differences at 1e-3 over {instances} instances",
              instances >= 200)


def test_gradient_suite_losses():
    rng = Rng(4321)
    checked = 0
    for trial in range(100):
        pred = rng.uniform_array((12, 12), 0.3, 0.9)
        target = rng.uniform_array((12, 12), 0.0, 0.2)

        _, _, g_t = loss_t(pred, target)

        def f_t(q):
            l1, ls, _ = loss_t(q.astype(np.float32), target)
            return l1 + ls

        assert _fd_check(f_t, pred.astype(np.float64), g_t, 5, 3e-3, 1e-3)

        _, g_b = loss_b(pred)

        def f_b(q):
            return loss_b(q.astype(np.float32))[0]

        assert _fd_check(f_b, pred.astype(np.float64), g_b, 5, 3e-3, 1e-3)
        checked += 1
    criterion("gradient suite: reconstruction and sparsity losses match finite "
              f"differences at 1e-3 over {checked} instances", checked >= 100)


def test_gradient_suite_end_to_end():
    # classification loss through the frozen classifier, with respect to
    # extractor weights, on a (bc=2, levels=2, 32x32) instance
    tem_net = build_tem(NetConfig(2, 2, 32, 32), Rng(16), dtype=np.float64)
    scm_net = build_scm(4, (32, 32), Rng(17), dtype=np.float64)
    frame = Rng(15).uniform_array((1, 1, 32, 32), 0, 1, np.float64)
    label = np.array([2])

    def class_loss():
        pred = tem_net.forward(frame, train=False)
        return float(cross_entropy(scm_net.forward(pred, train=False), label)[0][0])

    pred = tem_net.forward(frame)
    _, dlogits = cross_entropy(scm_net.forward(pred), label)
    tem_net.backward(scm_net.backward(dlogits))

    worst = 0.0
    for which in (0, 1, 3, 4, 5):
        w = tem_net.parameters()[which]
        g = tem_net.gradients()[which]
        idx = spread_indices(w.size, 10)

        def f(wv, w=w):
            orig = w.copy()
            w[...] = wv
            out = class_loss()
            w[...] = orig
            return out

        ref = fd_at_indices(f, w, idx, 1e-5)
        worst = max(worst, max_rel_err(g.reshape(-1)[idx], ref))
    criterion("gradient suite: end-to-end classification gradient through the "
              "frozen classifier within 1e-2", worst < 1e-2, f"max err {worst:.2e}")


# --- subgradient cancellation -------------------------------------------------

def test_subgradient_cancellation():
    rng = Rng(99)
    ok = True
    for _ in range(1000):
        h = rng.randint(11, 14)
        w = rng.randint(11, 14)
        pred = rng.uniform_array((h, w), 0.05, 0.95, np.float64)
        # half the configurations: target above pred (inside-target regime),
        # other half: target exactly zero (background regime)
        if rng.randint(0, 1):
            target = pred + rng.uniform_array((h, w), 0.01, 0.5, np.float64)
            diff = np.sign(pred - target) + np.sign(pred)
            ok &= bool(np.all(diff == 0.0))
        else:
            target = np.zeros((h, w))
            diff = np.sign(pred - target) + np.sign(pred)
            ok &= bool(np.all(diff == 2.0))
        # and the actual loss gradients reproduce the same superposition
        _, g_l1 = _l1_piece(pred, target)
        _, g_b = loss_b(pred)
        ok &= bool(np.allclose((g_l1 + g_b) * pred.size, diff, atol=1e-12))
    criterion("subgradient cancellation: reconstruction+sparsity superposition "
              "is 0 under the target and +2 above empty background, "
              "1000 configurations", ok)


def _l1_piece(pred, target):
    diff = np.asarray(pred, np.float64) - np.asarray(target, np.float64)
    return float(np.abs(diff).mean()), np.sign(diff) / diff.size


# --- synthesizer invariants ----------------------------------------------------

def test_synthesizer_invariants(tmp_path):
    counts = [250, 250, 250, 250]
    tuples = generate_tuples(counts, seed=8080, size=(64, 64))
    ok_nonneg = all((t.target >= 0).all() for t in tuples)
    ok_components = all(count_components(t.target) == t.label for t in tuples)
    ok_boxes = True
    for t in tuples:
        for i, a in enumerate(t.boxes):
            for b in t.boxes[i + 1:]:
                ok_boxes &= a.disjoint(b, 2)
    histogram = [sum(1 for t in tuples if t.label == k) for k in range(4)]

    write_dataset(tmp_path / "a", generate_tuples([10, 10, 10, 10], seed=4242,
                                                  size=(64, 64)))
    write_dataset(tmp_path / "b", generate_tuples([10, 10, 10, 10], seed=4242,
                                                  size=(64, 64)))
    ok_bytes = all(
        (tmp_path / "a" / p.name).read_bytes() == p.read_bytes()
        for p in sorted((tmp_path / "b").iterdir()))

    criterion("synthesizer: 1000 tuples with nonnegative targets", ok_nonneg)
    criterion("synthesizer: component count equals label for all 1000", ok_components)
    criterion("synthesizer: boxes pairwise disjoint with margin", ok_boxes)
    criterion("synthesizer: label histogram matches request",
              histogram == counts, str(histogram))
    criterion("synthesizer: byte-identical regeneration under a fixed seed", ok_bytes)


# --- ssim properties -----------------------------------------------------------

def test_ssim_properties():
    x = Rng(5).uniform_array((24, 24))
    y = Rng(6).uniform_array((24, 24))
    criterion("ssim(x, x) = 1 within 1e-9", abs(ssim(x, x) - 1.0) < 1e-9)
    criterion("ssim symmetry", ssim(x, y) == ssim(y, x))
    got = ssim(np.zeros((12, 12)), np.ones((12, 12)))
    criterion("ssim constant pair equals 0.02/1.02 within 1e-6",
              abs(got - 0.02 / 1.02) < 1e-6, f"{got:.8f}")


# --- degenerate inputs -----------------------------------------------------------

def test_degenerate_input_suite():
    criterion("degenerate: constant image yields an empty mask",
              not adaptive_threshold(np.full((32, 32), 0.5), 25.0).any())
    flat = normalize01(np.full((16, 16), 2.5))
    criterion("degenerate: flat image normalises to all zeros", not flat.any())
    criterion("degenerate: normalisation is idempotent",
              np.array_equal(normalize01(flat), flat))
    fused, ok, n = fuse_one(np.ones((16, 16), np.float32),
                            gaussian_template(2.0, 1.0, 9),
                            FusionLocation(4, 4, 6, 6), Rng(1))
    criterion("degenerate: saturated background fusion fails and leaves no trace",
              (not ok) and n == 0 and np.array_equal(fused, np.ones((16, 16), np.float32)))
    _, std = stats(np.full((8, 8), 0.123))
    criterion("degenerate: constant tensor has exactly zero deviation", std == 0.0)


# --- baseline oracles -------------------------------------------------------------

def oracle_tophat(img, size=5):
    img = np.asarray(img, np.float64)
    h, w = img.shape
    pad = size // 2

    def clamp(r, c):
        return min(max(r, 0), h - 1), min(max(c, 0), w - 1)

    eroded = np.empty((h, w))
    for r in range(h):
        for c in range(w):
            eroded[r, c] = min(img[clamp(r + dr, c + dc)]
                               for dr in range(-pad, pad + 1)
                               for dc in range(-pad, pad + 1))
    opened = np.empty((h, w))
    for r in range(h):
        for c in range(w):
            opened[r, c] = max(eroded[clamp(r + dr, c + dc)]
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
                if reducer == "mean":
                    acc = 0.0
                    for k in range(-pad, pad + 1):
                        rr = min(max(r + dr * k, 0), h - 1)
                        cc = min(max(c + dc * k, 0), w - 1)
                        acc += img[r, c] - img[rr, cc]
                    deficit = acc / size
                else:
                    values = [img[min(max(r + dr * k, 0), h - 1),
                                  min(max(c + dc * k, 0), w - 1)]
                              for k in range(-pad, pad + 1)]
                    deficit = img[r, c] - float(np.median(values))
                best = deficit if best is None else min(best, deficit)
            out[r, c] = best
    return out.astype(np.float32)


def test_baseline_oracles():
    rng = Rng(2024)
    ok = True
    for _ in range(3):
        img = rng.uniform_array((32, 32))
        ok &= np.array_equal(tophat(img), oracle_tophat(img))
        ok &= np.array_equal(max_mean(img), oracle_directional(img, 15, "mean"))
        ok &= np.array_equal(max_median(img), oracle_directional(img, 15, "median"))
    criterion("baselines: top-hat/max-mean/max-median equal brute-force "
              "oracles exactly on random 32x32 images", ok)
    flat = np.full((32, 32), 0.4, np.float32)
    criterion("baselines: constant image scores exactly zero",
              not (tophat(flat).any() or max_mean(flat).any()
                   or max_median(flat).any()))


# --- desk-scale training ------------------------------------------------------------

DESK_TRAIN_SEED = 1001
DESK_TEST_SEED = 2002
SCM_SEED = 31
TEM_SEED = 77
FRAME_PIXELS = 64 * 64
FA_BOUND = 1e-3


@pytest.fixture(scope="module")
def desk_run():
    """The one expensive fixture: dataset, classifier stage, extractor stage
    (joint loss) and the reconstruction-only ablation, all seeded."""
    train_set = desk_tuples([100, 100, 100, 100], seed=DESK_TRAIN_SEED)
    test_set = desk_tuples([25, 25, 25, 25], seed=DESK_TEST_SEED)

    # classifier stage recipe (the task leaves the classifier's own schedule
    # open): smaller batches and a gentler rate train the counting head
    # reliably at this sample count
    scm_cfg = TrainConfig(epochs=60, seed=SCM_SEED, batch_size=8, lr=0.003,
                          decay_epochs=(30, 48))
    scm_net, scm_log = train_scm(train_set, scm_cfg, val=test_set)
    frozen = freeze_scm(scm_net)
    hash_before = frozen.hash

    net_cfg = NetConfig(4, 3, 64, 64)
    tem_cfg = TrainConfig(epochs=60, seed=TEM_SEED)
    tem_joint, joint_log = train_tem(train_set, frozen, tem_cfg, net_cfg,
                                     loss_mode="joint")
    tem_ablation, _ = train_tem(train_set, frozen, tem_cfg, net_cfg,
                                loss_mode="target")
    return {
        "train": train_set, "test": test_set,
        "scm": scm_net, "scm_log": scm_log, "frozen": frozen,
        "hash_before": hash_before,
        "joint": tem_joint, "joint_log": joint_log,
        "ablation": tem_ablation, "net_cfg": net_cfg,
    }


def _score_at_k(net, test_set, k):
    per = []
    for t in test_set:
        _, _, dets = detect(net, t.frame, k)
        per.append((dets, t.boxes))
    return detection_rates(per, FRAME_PIXELS)


def _pd_at_fa_bound(net, test_set, bound):
    best = 0.0
    for k in (8, 10, 12, 15, 18, 21, 25, 30, 35, 40):
        pd, fa = _score_at_k(net, test_set, k)
        if fa <= bound:
            best = max(best, pd)
    return best


def test_desk_scm_accuracy(desk_run):
    acc = scm_accuracy(desk_run["scm"], desk_run["test"])
    criterion("desk training: classifier held-out accuracy >= 0.90",
              acc >= 0.90, f"accuracy {acc:.3f}")


def test_desk_scm_negatives_class0(desk_run):
    zeros = np.zeros((64, 64), np.float32)
    negatives = [t for t in desk_run["test"] if t.label == 0]
    hits = sum(1 for _ in negatives
               if int(np.argmax(classify(desk_run["scm"], zeros))) == 0)
    criterion("desk training: empty target images classify to count 0 on >= 95% "
              "of negatives", hits / len(negatives) >= 0.95,
              f"{hits}/{len(negatives)}")


def test_desk_scm_frozen_through_extractor_training(desk_run):
    criterion("desk training: classifier weights byte-identical before/after "
              "extractor training",
              weight_hash(desk_run["scm"]) == desk_run["hash_before"])


def test_desk_joint_detection(desk_run):
    pd, fa = _score_at_k(desk_run["joint"], desk_run["test"], 25.0)
    criterion("desk training: joint-loss extractor reaches Pd >= 0.9 at "
              "Fa <= 1e-3 with k = 25", pd >= 0.9 and fa <= FA_BOUND,
              f"Pd {pd:.3f}, Fa {fa:.2e}")


def test_desk_ablation_strictly_worse(desk_run):
    pd_joint = _pd_at_fa_bound(desk_run["joint"], desk_run["test"], FA_BOUND)
    pd_ablation = _pd_at_fa_bound(desk_run["ablation"], desk_run["test"], FA_BOUND)
    criterion("desk training: reconstruction-only ablation is strictly worse "
              "at the same false-alarm bound", pd_ablation < pd_joint,
              f"ablation {pd_ablation:.3f} vs joint {pd_joint:.3f}")


def test_desk_trained_mae_improvement(desk_run):
    untrained = build_tem(desk_run["net_cfg"], Rng(4242))
    test_set = desk_run["test"]
    mae_untrained = float(np.mean([np.abs(extract(untrained, t.frame) - t.target).mean()
                                   for t in test_set]))
    mae_trained = float(np.mean([np.abs(extract(desk_run["joint"], t.frame) - t.target).mean()
                                 for t in test_set]))
    criterion("desk training: trained extraction error at least 10x below "
              "untrained", mae_untrained >= 10 * mae_trained,
              f"{mae_untrained:.4f} vs {mae_trained:.5f}")


def test_desk_negatives_clean(desk_run):
    negatives = [t for t in desk_run["test"] if t.label == 0]
    clean = sum(1 for t in negatives
                if not detect(desk_run["joint"], t.frame, 25.0)[2])
    criterion("desk training: zero detections on >= 95% of held-out negatives "
              "at k = 25", clean / len(negatives) >= 0.95,
              f"{clean}/{len(negatives)}")


def test_desk_loss_trajectory(desk_run):
    totals = [e["total"] for e in desk_run["joint_log"].epochs]
    decreasing_trend = totals[-1] < 0.5 * totals[0]
    not_monotone = any(b > a for a, b in zip(totals, totals[1:]))
    criterion("desk training: joint loss decreases in trend but not "
              "monotonically", decreasing_trend and not_monotone,
              f"first {totals[0]:.3f}, last {totals[-1]:.3f}")


def test_desk_loss_decomposition_every_epoch(desk_run):
    ok = all(
        np.isclose(e["total"], e["l1"] + e["ssim_term"] + e["sparsity"]
                   + e["classification"])
        and np.isclose(e["target"], e["l1"] + e["ssim_term"])
        for e in desk_run["joint_log"].epochs)
    criterion("desk training: loss decomposition identity holds every epoch", ok)


def test_desk_translation_consistency(desk_run):
    """Shifting a target by a full stride block moves the response peak by
    the same amount (checked away from borders)."""
    net = desk_run["joint"]
    step = 2 ** desk_run["net_cfg"].levels
    bg = np.full((64, 64), 0.1, np.float32)
    template = gaussian_template(3.0, 1.0, 17)
    patch = bilinear_resize(template, 3, 3) * 0.9
    peaks = []
    for offset in (0, step):
        frame = bg.copy()
        r0, c0 = 24 + offset, 30
        frame[r0:r0 + 3, c0:c0 + 3] = np.maximum(frame[r0:r0 + 3, c0:c0 + 3], patch)
        out = extract(net, frame)
        peaks.append(np.unravel_index(np.argmax(out), out.shape))
    dr = peaks[1][0] - peaks[0][0]
    dc = peaks[1][1] - peaks[0][1]
    criterion("desk training: response peak tracks a full-stride target shift "
              "within 1 pixel", abs(dr - step) <= 1 and abs(dc) <= 1,
              f"shift ({dr}, {dc}) for stride {step}")
