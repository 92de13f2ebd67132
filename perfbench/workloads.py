"""The three benchmark workloads.

Each workload is seeded, single-process and closed-loop: the next operation
starts when the previous one returns. A workload has a set-up (timed and
repeated), one or more timed phases of operations, and output checks.

Operations call the library through module attributes (``detect.detect``,
``pgm.read_pgm``), where the tracer patches it; the runner pauses the tracer
while checks run.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from irstd import checkpoint, detect, pgm, synth, tem, train
from irstd import eval as evalmod
from irstd.tensor import Rng, stats

# the k sweep of the acceptance suite
K_SWEEP = (8, 10, 12, 15, 18, 21, 25, 30, 35, 40)
# float32 extraction against a float64 copy of the same weights, as a share of
# the float64 output's peak magnitude; measured error is ~2e-6 at bc16 L5
EXTRACT_F64_RTOL = 1e-4
# loss decomposition identity, relative to the total
DECOMPOSITION_RTOL = 1e-9


@dataclass
class Phase:
    """One timed phase: ``op(i)`` is timed, ``check(i, out)`` is not and
    returns failure messages. Each op completes ``units`` of ``unit``, and
    the phase reports ``<name>_<unit>_per_s``. ``begin`` runs once, timed,
    before the first op."""

    name: str
    share: float
    unit: str
    units: int
    op: Callable[[int], object]
    check: Callable[[int, object], list[str]]
    begin: Callable[[], None] | None = None


class Workload:
    name = ""
    setup_reps = 8
    latency_phase = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def setup_checks(self) -> list[str]:
        return []

    def phases(self) -> list[Phase]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks over the whole run, after peak memory has been read."""
        return []

    def trace_metrics(self, tracer, records: dict) -> dict:
        """Workload-specific per-layer metrics of a traced pass."""
        return {}


def _finite_losses(log, keys) -> list[str]:
    bad = [(e["epoch"], k) for e in log.epochs for k in keys if not np.isfinite(e[k])]
    return [f"non-finite loss {k} at epoch {epoch}" for epoch, k in bad]


class TrainDesk(Workload):
    """The desk recipe (64x64 desk tuples, TEM bc4 L3) on one fixed subset:
    classifier training, then extractor training through the frozen
    classifier with the joint loss, then the reconstruction-only ablation.

    Classifier ops are complete short runs from a fresh init; extractor ops
    are one epoch each (one batch-16 step) resuming the previous op's
    weights, so the extractor keeps learning across the phase."""

    name = "train_desk"
    latency_phase = "tem_joint"
    # the acceptance suite's desk training set; every STRIDE-th tuple forms
    # the subset, four of each label since the set is ordered by label
    COUNTS = [100, 100, 100, 100]
    STRIDE = 25
    NET = tem.NetConfig(4, 3, 64, 64)
    SCM_EPOCHS = 4
    # each extractor op is a train_tem call that restarts Adam, whose first
    # step moves every weight by the learning rate; at the recipe's 0.005 the
    # loss wandered above its first batch on some seeds, at 0.001 it fell on
    # every seed tried
    TEM_LR = 0.001

    def setup(self) -> None:
        self.data = synth.desk_tuples(self.COUNTS, seed=self.seed)[::self.STRIDE]

    def setup_checks(self) -> list[str]:
        got = Counter(t.label for t in self.data)
        want = [n // self.STRIDE for n in self.COUNTS]
        return [] if [got[k] for k in range(4)] == want else [f"label histogram {got}"]

    def phases(self) -> list[Phase]:
        n = len(self.data)
        self.scm_cfg = train.TrainConfig(epochs=self.SCM_EPOCHS, seed=self.seed,
                                         batch_size=8, lr=0.003)
        self.tem_cfg = train.TrainConfig(epochs=1, seed=self.seed, lr=self.TEM_LR)
        self.tem_losses = {"joint": [], "target": []}
        return [
            Phase("scm_train", 0.3, "samples", n * self.SCM_EPOCHS, self._scm_op, self._scm_check),
            Phase("tem_joint", 0.4, "samples", n, lambda i: self._tem_op("joint"),
                  self._tem_check("joint"), begin=self._freeze),
            Phase("tem_ablation", 0.3, "samples", n, lambda i: self._tem_op("target"),
                  self._tem_check("target"), begin=self._reset_tem),
        ]

    def _scm_op(self, i):
        self.scm, log = train.train_scm(self.data, self.scm_cfg)
        return log

    def _scm_check(self, i, log) -> list[str]:
        losses = [e["loss"] for e in log.epochs]
        out = _finite_losses(log, ["loss"])
        if not out and not losses[-1] < losses[0]:
            out.append(f"classifier loss did not fall: {losses[0]:.4g} -> {losses[-1]:.4g}")
        return out

    def _freeze(self) -> None:
        self.frozen = train.freeze_scm(self.scm)
        self.tem_net = None

    def _reset_tem(self) -> None:
        self.tem_net = None

    def _tem_op(self, mode: str):
        self.tem_net, log = train.train_tem(self.data, self.frozen, self.tem_cfg, self.NET,
                                            loss_mode=mode, init=self.tem_net)
        return log

    def _tem_check(self, mode: str):
        def check(i, log) -> list[str]:
            out = _finite_losses(log, ["l1", "ssim_term", "sparsity", "classification",
                                       "target", "total"])
            w = self.tem_cfg.weight
            for e in log.epochs:
                parts = e["target"] + e["sparsity"] + w * e["classification"]
                if abs(e["total"] - parts) > DECOMPOSITION_RTOL * max(1.0, abs(e["total"])):
                    out.append(f"loss decomposition fails at epoch {e['epoch']}")
                self.tem_losses[mode].append(e["total"])
            return out
        return check

    def final_checks(self) -> list[str]:
        out = []
        try:
            self.frozen.verify()
        except AssertionError as err:
            out.append(str(err))
        # the Adam restart of every op makes the loss alternate from op to op,
        # so the end of the phase is the lower of its last two epochs
        for mode, losses in self.tem_losses.items():
            if losses and not min(losses[-2:]) < losses[0]:
                out.append(f"{mode} loss did not fall below its first batch: "
                           f"{losses[0]:.4g} -> {min(losses[-2:]):.4g}")
        return out


class Detect256(Workload):
    """Budget-table scale detection: TEM bc16 L5 with seeded random weights,
    checkpointed and reloaded in set-up; each op mirrors ``irstd detect`` for
    one 256x256 frame (read PGM, detect at k=25, write score and mask)."""

    name = "detect_256"
    latency_phase = "detect"
    setup_reps = 4  # each set-up checksums 12.5 MB twice in Python
    CFG = tem.NetConfig(16, 5, 256, 256)
    COUNTS = [2, 2, 2, 2]
    K = 25.0
    F64_FRAMES = 3

    def setup(self) -> None:
        self.net = self.built = None  # a repeated set-up starts from nothing
        frames = synth.generate_tuples(self.COUNTS, self.seed, size=(256, 256))
        self.frame_paths = []
        for i, t in enumerate(frames):
            path = self.workdir / f"frame_{i:05d}.pgm"
            pgm.write_pgm(path, t.frame)
            self.frame_paths.append(path)
        self.built = tem.build_tem(self.CFG, Rng(self.seed))
        model = self.workdir / "tem.tbcw"
        checkpoint.save_weights(model, self.built)
        self.net = checkpoint.load_weights(model)

    def setup_checks(self) -> list[str]:
        a, b = self.built.parameters(), self.net.parameters()
        same = len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
        self.built = None  # a detect run holds one net
        return [] if same else ["checkpoint round trip changed weight bits"]

    def phases(self) -> list[Phase]:
        return [Phase("detect", 1.0, "frames", 1, self._op, self._check)]

    def _op(self, i):
        frame = pgm.read_pgm(self.frame_paths[i % len(self.frame_paths)])
        target_map, mask, dets = detect.detect(self.net, frame, self.K)
        pgm.write_pgm(self.workdir / "score.pgm", detect.normalize01(target_map))
        pgm.write_pgm(self.workdir / "mask.pgm", mask.astype(np.float64), maxval=255)
        return frame, target_map, mask, dets

    def _check(self, i, out) -> list[str]:
        frame, target_map, mask, dets = out
        if target_map.shape != frame.shape or not np.all(np.isfinite(target_map)):
            return ["target map not finite or wrong shape"]
        norm = detect.normalize01(target_map)
        mean, std = stats(norm)
        errs = []
        if not np.array_equal(mask, norm > mean + self.K * std):
            errs.append("mask differs from norm > mean + k*std")
        if sum(d.pixel_count for d in dets) != int(mask.sum()):
            errs.append("component pixel counts do not sum to the mask")
        return errs

    def final_checks(self) -> list[str]:
        ref = tem.build_tem(self.CFG, Rng(0), dtype=np.float64)
        for dst, src in zip(ref.parameters(), self.net.parameters()):
            dst[...] = src
        out = []
        for path in self.frame_paths[:self.F64_FRAMES]:
            frame = pgm.read_pgm(path)
            y32, y64 = tem.extract(self.net, frame), tem.extract(ref, frame)
            err = float(np.abs(y32 - y64).max() / np.abs(y64).max())
            if not err <= EXTRACT_F64_RTOL:
                out.append(f"{path.name}: float32 extract off float64 by {err:.3g}")
        return out

    def trace_metrics(self, tracer, records):
        """Budget against reality: each scale level's share of
        ``budget().ops`` over its measured down and up convolution forward
        self time, and the traced peak of one extract against
        ``budget().peak_map`` float32 values."""
        _, by_key = tracer.self_times()
        report = tem.budget(self.CFG)
        levels = self.CFG.levels
        frames = records["detect"]["ops"]
        out = {}
        for lv in range(1, levels + 1):
            convs = (self.net.down_convs[lv - 1], self.net.up_convs[levels - lv])
            s = sum(by_key.get(("nn.conv3x3.fwd", id(c)), 0.0) for c in convs)
            out[f"tem.level{lv}.conv_fwd_s"] = s
            out[f"tem.level{lv}.budget_gmac_per_s"] = (
                report.ops / levels * frames / 1e9 / s if s > 0 else 0.0)
        frame = pgm.read_pgm(self.frame_paths[0])
        tracemalloc.start()
        try:
            tem.extract(self.net, frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["tem.extract_peak_mib"] = peak / 2**20
        out["tem.peak_over_budget"] = peak / (4 * report.peak_map)
        return out


class DataEval(Workload):
    """Dataset synthesis on cluttered 256x256 backgrounds, then scoring of
    the three classical baselines over the acceptance k sweep, ROC and
    SCR/SCRG/BSF. No network code runs."""

    name = "data_eval"
    latency_phase = "eval"
    SIZE = (256, 256)
    # (n_min, n_max, amp_min, amp_max) single-pixel hot spots per frame; a
    # fixed count keeps the labelling work per frame alike across seeds
    BACKGROUND = {"speckles": (32, 32, 0.15, 0.45)}
    CORPUS = [12, 12, 12, 12]
    CHUNK = [1, 1, 1, 1]
    THRESHOLDS = np.linspace(0.0, 1.0, 64)

    def _generate(self, counts, seed):
        return synth.generate_tuples(counts, seed, size=self.SIZE,
                                     background_params=self.BACKGROUND)

    def setup(self) -> None:
        self.corpus = None  # a repeated set-up starts from nothing
        self.corpus = self._generate(self.CORPUS, self.seed)
        self.manifest = synth.write_dataset(self.workdir / "corpus", self.corpus)

    def setup_checks(self) -> list[str]:
        return self._tuple_checks(self.corpus, self.CORPUS)

    @staticmethod
    def _tuple_checks(tuples, counts) -> list[str]:
        got = Counter(t.label for t in tuples)
        errs = [] if [got[k] for k in range(len(counts))] == counts else [f"histogram {got}"]
        errs += [f"tuple {i}: {synth.count_components(t.target)} components, label {t.label}"
                 for i, t in enumerate(tuples) if synth.count_components(t.target) != t.label]
        return errs

    def phases(self) -> list[Phase]:
        return [
            Phase("synth", 0.2, "tuples", sum(self.CHUNK), self._synth_op,
                  lambda i, tuples: self._tuple_checks(tuples, self.CHUNK)),
            Phase("eval", 0.8, "frames", 1, self._score_op, self._score_check, begin=self._load),
        ]

    def _synth_op(self, i):
        # chunk seeds never collide with the corpus seed
        tuples = self._generate(self.CHUNK, self.seed * 1_000_003 + i + 1)
        synth.write_dataset(self.workdir / "chunk", tuples)
        return tuples

    def _load(self) -> None:
        self.loaded = synth.load_dataset(self.manifest)
        # the corpus is ordered by label; score it one label after another
        per = self.CORPUS[0]
        self.order = [j for i in range(per) for j in range(i, len(self.loaded), per)]

    def _score_op(self, i):
        t = self.loaded[self.order[i % len(self.order)]]
        curves = []
        for name in evalmod.BASELINES:
            score = detect.normalize01(evalmod.BASELINES[name](t.frame))
            for k in K_SWEEP:
                mask = detect.adaptive_threshold(score, k)
                dets = detect.connected_components(mask, score)
                evalmod.detection_rates([(dets, t.boxes)], score.size)
            curves.append(evalmod.roc([score], [t.boxes], self.THRESHOLDS))
            for box in t.boxes:
                try:
                    evalmod.scr(t.frame, box)
                    evalmod.scr(score, box)
                    evalmod.scrg(t.frame, score, box)
                    evalmod.bsf(t.frame, score, box)
                except ValueError:
                    pass  # ring falls outside the frame; `irstd eval` skips it too
        return curves

    @staticmethod
    def _score_check(i, curves) -> list[str]:
        errs = []
        for curve in curves:
            _, fa, pd = (np.array(c) for c in zip(*curve.points))
            if np.any(np.diff(fa) > 0) or np.any(np.diff(pd) > 0):
                errs.append("ROC Pd or Fa increases with the threshold")
        return errs

    def final_checks(self) -> list[str]:
        tol = 1.0 / 65535
        errs = []
        for i, (gen, got) in enumerate(zip(self.corpus, self.loaded)):
            if (got.label != gen.label or got.boxes != gen.boxes
                    or np.abs(got.frame - gen.frame).max() > tol
                    or np.abs(got.target - gen.target).max() > tol):
                errs.append(f"tuple {i}: PGM load differs from generation")
        if len(self.loaded) != len(self.corpus):
            errs.append("loaded corpus size differs")
        return errs


WORKLOADS = {w.name: w for w in (TrainDesk, Detect256, DataEval)}
