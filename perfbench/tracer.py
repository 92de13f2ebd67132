"""Outside-in span tracer for the irstd layers.

The tracer replaces a callable at the place its caller looks it up (a module
attribute, a class attribute or a dict entry) with a wrapper that records a
span: name, optional key, start, end and the index of the enclosing span.
Spans stay in memory; self time is a span's duration minus the part covered
by its direct children, so summing self times never counts a second twice.

Nothing under ``src/`` knows about the tracer: :func:`install` patches the
library from the benchmark's side and :meth:`Tracer.restore` undoes it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # while inactive the wrappers call straight through and record nothing
        self.active = True
        # each span: [name, key, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name, key=None, count=None):
        """``key(args)`` tags the span (e.g. with a layer instance);
        ``count(counts, args, result)`` adds exact counts after the call."""
        tracer, spans, stack, counts = self, self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, key(args) if key else None, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, key=None, count=None):
        """Wrap ``owner.attr`` (or ``owner[attr]`` for a dict) in place."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(original, name, key, count)
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name, key, count))
        self._undo.append((owner, attr, original))

    @contextlib.contextmanager
    def paused(self):
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> tuple[dict[str, float], dict[tuple, float]]:
        """Self seconds per span name, and per (name, key) for keyed spans."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[str, float] = defaultdict(float)
        by_key: dict[tuple, float] = defaultdict(float)
        for (name, key, start, end, _), inner in zip(self.spans, child):
            own = end - start - inner
            by_name[name] += own
            if key is not None:
                by_key[name, key] += own
        return dict(by_name), dict(by_key)

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, key, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "key": key, "start": start,
                                    "end": end, "parent": parent}) + "\n")


def _conv_macs(x_shape, layer) -> int:
    n, _, h, w = x_shape
    return 9 * n * h * w * layer.c_in * layer.c_out


def _count_conv_fwd(counts, args, _result):
    counts["nn.conv3x3.calls"] += 1
    counts["nn.conv3x3.fwd_macs"] += _conv_macs(args[1].shape, args[0])


def _count_conv_bwd(counts, args, _result):
    # the weight gradient and the input gradient are one GEMM each
    counts["nn.conv3x3.calls"] += 1
    counts["nn.conv3x3.bwd_macs"] += 2 * _conv_macs(args[1].shape, args[0])


def _count_loss(counts, _args, _result):
    counts["loss.calls"] += 1


def _count_components(counts, args, result):
    counts["detect.components_count"] += len(result)
    counts["detect.mask_pixels"] += int(args[0].sum())


def _count_make_tuple(counts, _args, _result):
    counts["synth.make_tuple_calls"] += 1


def _count_generated(counts, _args, result):
    counts["synth.positive_tuples"] += sum(1 for t in result if t.label > 0)


def _count_file_bytes(prefix):
    def count(counts, args, _result):
        counts[prefix] += os.path.getsize(args[0])
    return count


def install(tracer: Tracer) -> None:
    """Patch every public callable of the irstd layers the workloads reach."""
    from irstd import checkpoint, detect, nn, pgm, scm, synth, tem, train
    from irstd import eval as evalmod

    p = tracer.patch
    for cls, layer in ((nn.Conv3x3, "nn.conv3x3"), (nn.MaxPool2x2, "nn.maxpool2x2"),
                       (nn.UpsampleNearest2x, "nn.upsample2x"), (nn.ReLU, "nn.relu"),
                       (nn.AvgPool, "nn.avgpool"), (nn.Linear, "nn.linear")):
        conv = cls is nn.Conv3x3
        p(cls, "forward", f"{layer}.fwd", key=(lambda a: id(a[0])) if conv else None,
          count=_count_conv_fwd if conv else None)
        p(cls, "backward", f"{layer}.bwd", count=_count_conv_bwd if conv else None)
    # cross_entropy is bound by name in each module that calls it
    for module in (nn, scm, train):
        p(module, "cross_entropy", "nn.cross_entropy")

    p(tem.TemNet, "forward", "tem.forward")
    p(tem.TemNet, "backward", "tem.backward")
    p(tem, "extract", "tem.extract")
    p(tem, "build_tem", "tem.build")
    p(train, "build_tem", "tem.build")
    p(scm.ScmNet, "forward", "scm.forward")
    p(scm.ScmNet, "backward", "scm.backward")

    p(train, "loss_t", "loss.loss_t", count=_count_loss)
    p(train, "loss_b", "loss.loss_b", count=_count_loss)
    p(train.Adam, "step", "train.adam_step")
    p(train, "weight_hash", "train.weight_hash")
    p(train, "train_scm", "train.step")
    p(train, "train_tem", "train.step")

    p(detect, "detect", "detect.detect")
    p(detect, "normalize01", "detect.normalize")
    p(detect, "adaptive_threshold", "detect.threshold")
    p(detect, "connected_components", "detect.components", count=_count_components)
    p(detect, "label_mask", "detect.label_mask")
    p(synth, "label_mask", "detect.label_mask")

    for name, fn in (("tophat", "tophat"), ("max-mean", "max_mean"),
                     ("max-median", "max_median")):
        p(evalmod.BASELINES, name, f"eval.{fn}")
    p(evalmod, "roc", "eval.roc")
    for fn in ("scr", "scrg", "bsf"):
        p(evalmod, fn, "eval.scr")
    p(evalmod, "detection_rates", "eval.detection_rates")

    p(synth, "generate_tuples", "synth.generate", count=_count_generated)
    p(synth, "make_tuple", "synth.make_tuple", count=_count_make_tuple)
    p(synth, "count_components", "synth.count_components")
    p(synth, "write_dataset", "synth.write")
    p(synth, "load_dataset", "synth.load")
    for module in (pgm, synth):
        p(module, "read_pgm", "pgm.read", count=_count_file_bytes("pgm.bytes"))
        p(module, "write_pgm", "pgm.write", count=_count_file_bytes("pgm.bytes"))

    p(checkpoint, "save_weights", "checkpoint.save",
      count=_count_file_bytes("checkpoint.bytes"))
    p(checkpoint, "load_weights", "checkpoint.load",
      count=_count_file_bytes("checkpoint.bytes"))
    p(checkpoint, "fnv1a64", "checkpoint.fnv1a64")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# the train call's own self time is the batching glue left after its children
SELF_METRIC = {"train.step": "train.step_self_s"}


def layer_metrics(tracer: Tracer, wall_traced: float, overhead: float,
                  published: set[str]) -> tuple[dict, dict]:
    """Flat per-layer metrics: ``<span>_s`` self seconds for every span name,
    exact counts, rates derived from both, and the trace self-check:
    coverage is the share of the traced wall time that the ``published``
    self-time metrics account for. Also returns the self seconds of spans
    that no published metric names, so a low coverage can be traced."""
    self_s, _ = tracer.self_times()
    c = tracer.counts
    spans = {SELF_METRIC.get(name, f"{name}_s"): s for name, s in self_s.items()}
    out = dict(spans)
    for name in ("nn.conv3x3.calls", "loss.calls", "detect.components_count",
                 "detect.mask_pixels", "pgm.bytes"):
        out[name] = c.get(name, 0)
    out["nn.conv3x3.fwd_gmacs"] = c.get("nn.conv3x3.fwd_macs", 0) / 1e9
    out["nn.conv3x3.fwd_gmac_per_s"] = _ratio(out["nn.conv3x3.fwd_gmacs"],
                                              self_s.get("nn.conv3x3.fwd", 0.0))
    out["nn.conv3x3.bwd_gmac_per_s"] = _ratio(c.get("nn.conv3x3.bwd_macs", 0) / 1e9,
                                              self_s.get("nn.conv3x3.bwd", 0.0))
    out["synth.accept_ratio"] = _ratio(c.get("synth.positive_tuples", 0),
                                       c.get("synth.make_tuple_calls", 0))
    # checksumming is the only traced child of save and load
    out["checkpoint.mb_per_s"] = _ratio(
        c.get("checkpoint.bytes", 0) / 1e6,
        sum(self_s.get(f"checkpoint.{n}", 0.0) for n in ("save", "load", "fnv1a64")))
    out["trace.coverage"] = _ratio(sum(s for n, s in spans.items() if n in published),
                                   wall_traced)
    out["trace.overhead"] = overhead
    return out, {n: s for n, s in spans.items() if n not in published}
