"""Command-line front end wiring the pipeline together.

Subcommands: budget, synth, train-scm, train-tem, detect, eval. Generative
and training commands demand an explicit --seed: given the same seed and
inputs, datasets, checkpoints, detections and CSVs are byte-identical.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, pgm, synth, tem, train
from . import eval as evalmod
from .detect import detect as run_detect
from .detect import detections_to_jsonl, normalize01

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Reference budget rows at 256x256 in 2^20 units, used by `budget --check`:
# (bc, levels) -> (ops, peak_map, params, total) at the printed precision.
REFERENCE_BUDGETS = {
    (8, 3): (54, 1.750, 0.046, 1.796),
    (8, 4): (72, 1.938, 0.187, 2.124),
    (8, 5): (90, 2.031, 0.749, 2.781),
    (8, 6): (108, 2.078, 2.999, 5.078),
    (16, 3): (216, 3.375, 0.185, 3.560),
    (16, 4): (288, 3.750, 0.747, 4.497),
    (16, 5): (360, 3.938, 2.997, 6.935),
    (16, 6): (432, 4.031, 11.997, 16.029),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _workers_default() -> int:
    env = os.environ.get("TBC_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        # read while the parser is built, before main's error handling
        print(f"irstd: error: TBC_WORKERS must be an integer, got {env!r}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def cmd_budget(args) -> int:
    cfg = tem.NetConfig(args.bc, args.levels, args.height, args.width)
    if args.check:
        ok = 0
        for (bc, lv), expect in REFERENCE_BUDGETS.items():
            got = tem.budget(tem.NetConfig(bc, lv, 256, 256)).as_mega()
            match = (round(got["ops"]) == expect[0]
                     and round(got["peak_map"], 3) == expect[1]
                     and round(got["params"], 3) == expect[2]
                     and round(got["total"], 3) == expect[3])
            ok += match
            print(f"bc={bc:2d} levels={lv}  ops={got['ops']:8.0f}  "
                  f"peak_map={got['peak_map']:7.3f}  params={got['params']:7.3f}  "
                  f"total={got['total']:7.3f}  {'PASS' if match else 'FAIL'}")
        print(f"{ok}/{len(REFERENCE_BUDGETS)} reference rows match")
        return 0 if ok == len(REFERENCE_BUDGETS) else EXIT_DATA
    report = tem.budget(cfg)
    mega = report.as_mega()
    print(f"config: bc={cfg.bc} levels={cfg.levels} input={cfg.height}x{cfg.width}")
    print(f"{'':16s}{'raw':>14s}{'x 2^20':>12s}")
    for name, raw in (("ops", report.ops), ("peak_map", report.peak_map),
                      ("params", report.params), ("total", report.total)):
        print(f"{name:16s}{raw:>14d}{mega[name]:>12.3f}")
    return 0


def _parse_counts(text: str) -> list[int]:
    counts = [int(v) for v in text.split(",")]
    if len(counts) != 4 or any(c < 0 for c in counts):
        raise ValueError("--counts must be four nonnegative integers, e.g. 10,10,10,10")
    return counts


def cmd_synth(args) -> int:
    counts = _parse_counts(args.counts)
    backgrounds = None
    if args.backgrounds:
        files = sorted(Path(args.backgrounds).glob("*.pgm"))
        if not files:
            raise ValueError(f"no .pgm backgrounds in {args.backgrounds}")
        backgrounds = [pgm.read_pgm(f) for f in files]
    elif not args.builtin_backgrounds:
        raise ValueError("pass --backgrounds DIR or --builtin-backgrounds")
    size_range = tuple(int(v) for v in args.size_range.split(","))
    tuples = synth.generate_tuples(
        counts, args.seed, size=(args.size, args.size),
        backgrounds=backgrounds, size_range=size_range, margin=args.margin,
        workers=args.workers)
    manifest = synth.write_dataset(args.out, tuples)
    print(f"wrote {len(tuples)} tuples to {manifest}")
    return 0


def _load_train_cfg(args, defaults: train.TrainConfig) -> train.TrainConfig:
    base = train.train_config_to_dict(defaults)
    if args.config:
        base.update(json.loads(Path(args.config).read_text()))
    for key in ("batch_size", "epochs", "lr", "weight"):
        value = getattr(args, key, None)
        if value is not None:
            base[key] = value
    base["seed"] = args.seed
    if getattr(args, "decay_epochs", None):
        base["decay_epochs"] = [int(v) for v in args.decay_epochs.split(",")]
    return train.train_config_from_dict(base)


def _write_sidecar(out_dir: Path, cfg: train.TrainConfig, log: train.TrainLog,
                   extra: dict | None = None) -> None:
    doc = {"config": train.train_config_to_dict(cfg), "log": log.to_dict()}
    doc.update(extra or {})
    (out_dir / "train_log.json").write_text(json.dumps(doc, indent=1, sort_keys=True))


def cmd_train_scm(args) -> int:
    dataset = synth.load_dataset(args.manifest)
    val = synth.load_dataset(args.val_manifest) if args.val_manifest else None
    cfg = _load_train_cfg(args, train.TrainConfig())
    init = checkpoint.load_weights(args.init) if args.init else None
    net, log = train.train_scm(dataset, cfg, val=val, c_classes=args.classes,
                               init=init)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint.save_weights(out / "scm.tbcw", net)
    _write_sidecar(out, cfg, log)
    last = log.epochs[-1]
    acc = f" val_accuracy={last['val_accuracy']:.3f}" if "val_accuracy" in last else ""
    print(f"classifier saved to {out / 'scm.tbcw'} (final loss {last['loss']:.4f}{acc})")
    return 0


def cmd_train_tem(args) -> int:
    if not args.scm:
        raise ValueError("SCM checkpoint required: train the classifier stage "
                         "first (train-scm) and pass it with --scm")
    scm_net = checkpoint.load_weights(args.scm)
    dataset = synth.load_dataset(args.manifest)
    h, w = dataset[0].frame.shape
    cfg = _load_train_cfg(args, train.TrainConfig())
    net_cfg = tem.NetConfig(args.bc, args.levels, h, w)
    frozen = train.freeze_scm(scm_net)
    init = checkpoint.load_weights(args.init) if args.init else None
    net, log = train.train_tem(dataset, frozen, cfg, net_cfg,
                               loss_mode=args.loss.replace("-", "_"),
                               debug_dir=args.out, init=init)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint.save_weights(out / "tem.tbcw", net)
    _write_sidecar(out, cfg, log, {"loss_mode": args.loss, "bc": args.bc,
                                   "levels": args.levels})
    print(f"extractor saved to {out / 'tem.tbcw'} "
          f"(final total loss {log.epochs[-1]['total']:.4f})")
    return 0


def _frame_paths(args) -> list[Path]:
    if args.manifest:
        base = Path(args.manifest).parent
        return [base / row["f_D"] for row in synth.manifest_rows(args.manifest)]
    files = sorted(Path(args.images).glob("*.pgm"))
    if not files:
        raise ValueError(f"no .pgm frames in {args.images}")
    return files


def cmd_detect(args) -> int:
    net = checkpoint.load_weights(args.model)
    if not isinstance(net, tem.TemNet):
        raise ValueError(f"{args.model} is not an extractor checkpoint")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    per_frame = []
    for i, path in enumerate(_frame_paths(args)):
        frame = pgm.read_pgm(path)
        target_map, mask, detections = run_detect(net, frame, args.k)
        pgm.write_pgm(out / f"score_{i:05d}.pgm", normalize01(target_map))
        pgm.write_pgm(out / f"mask_{i:05d}.pgm", mask.astype(np.float64), maxval=255)
        per_frame.append(detections)
    detections_to_jsonl(out / "detections.jsonl", per_frame)
    total = sum(len(d) for d in per_frame)
    print(f"{total} detections over {len(per_frame)} frames -> {out / 'detections.jsonl'}")
    return 0


def cmd_eval(args) -> int:
    rows = synth.manifest_rows(args.manifest)
    gts = [[tuple(b) for b in row["boxes"]] for row in rows]
    base = Path(args.manifest).parent
    frames = [pgm.read_pgm(base / row["f_D"]) for row in rows]
    if args.scores:
        files = sorted(Path(args.scores).glob("score_*.pgm"))
        if len(files) != len(gts):
            raise ValueError(f"{len(files)} score images vs {len(gts)} manifest rows")
        scores = [pgm.read_pgm(f) for f in files]
    elif args.method:
        scores = [normalize01(evalmod.BASELINES[args.method](f)) for f in frames]
    else:
        raise ValueError("pass --scores DIR (detect output) or --method BASELINE")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    thresholds = np.linspace(0.0, 1.0, args.thresholds)
    curve = evalmod.roc(scores, gts, thresholds, radius=args.radius)
    curve.write_csv(out / "roc.csv")
    print(f"ROC ({args.thresholds} thresholds) -> {out / 'roc.csv'}")
    if args.plot:
        evalmod.render_roc_plot(curve, out / "roc.pgm")
        print(f"ROC plot -> {out / 'roc.pgm'}")
    if args.metrics:
        metric_rows = []
        for i, (frame, score, boxes) in enumerate(zip(frames, scores, gts)):
            for j, box in enumerate(boxes):
                try:
                    metric_rows.append((i, j,
                                        evalmod.scr(frame, box),
                                        evalmod.scr(score, box),
                                        evalmod.scrg(frame, score, box),
                                        evalmod.bsf(frame, score, box)))
                except ValueError:
                    continue  # ring falls outside the frame
        evalmod.write_csv(out / "metrics.csv",
                          ["frame", "box", "scr_in", "scr_out", "scrg", "bsf"],
                          metric_rows)
        print(f"SCR/SCRG/BSF table -> {out / 'metrics.csv'}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="irstd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workers", type=int, default=_workers_default(),
                        help="worker processes (results are identical for any count)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="storage and compute budget for a (bc, levels) config")
    p.add_argument("--bc", type=int, default=8)
    p.add_argument("--levels", "-l", type=int, default=3)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--check", action="store_true",
                   help="verify all 8 reference rows and print PASS/FAIL")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--counts", required=True, help="tuples per label, e.g. 100,100,100,100")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=64, help="square frame extent")
    p.add_argument("--backgrounds", help="directory of background PGMs")
    p.add_argument("--builtin-backgrounds", action="store_true",
                   help="use the built-in background generator")
    p.add_argument("--size-range", default="2,10", help="target extent range, inclusive")
    p.add_argument("--margin", type=int, default=2)
    p.set_defaults(func=cmd_synth)

    for name, fn in (("train-scm", cmd_train_scm), ("train-tem", cmd_train_tem)):
        p = sub.add_parser(name, help=f"{name.split('-')[1]} training stage")
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--config", help="JSON file with TrainConfig fields; flags override")
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--decay-epochs", dest="decay_epochs")
        p.add_argument("--init", help="checkpoint to resume from (optimizer "
                                      "state starts fresh)")
        if name == "train-scm":
            p.add_argument("--classes", type=int, default=4)
            p.add_argument("--val-manifest", dest="val_manifest")
        else:
            p.add_argument("--scm", help="classifier checkpoint from train-scm")
            p.add_argument("--bc", type=int, default=4)
            p.add_argument("--levels", "-l", type=int, default=3)
            p.add_argument("--weight", type=float, help="classification loss weight")
            p.add_argument("--loss", default="joint",
                           choices=["joint", "target", "target-sparsity"])
        p.set_defaults(func=fn)

    p = sub.add_parser("detect", help="run detection with a trained extractor")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", help="dataset manifest (frames column)")
    p.add_argument("--images", help="directory of frame PGMs")
    p.add_argument("--k", type=float, default=25.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score detect output or a baseline filter")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scores", help="detect output directory (score_*.pgm)")
    p.add_argument("--method", choices=sorted(evalmod.BASELINES))
    p.add_argument("--thresholds", type=int, default=64)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--metrics", action="store_true", help="also write SCR/SCRG/BSF")
    p.add_argument("--plot", action="store_true", help="also render the ROC as a PGM")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except train.NumericalFailure as exc:
        print(f"irstd: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"irstd: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
