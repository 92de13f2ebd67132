import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import write_tem_checkpoint
from irstd.checkpoint import save_weights
from irstd.tem import NetConfig, build_tem
from irstd.tensor import Rng

CLI = [sys.executable, "-m", "irstd"]


def run(*args, **kwargs):
    return subprocess.run([*CLI, *map(str, args)], capture_output=True,
                          text=True, **kwargs)


class TestBudget:
    def test_single_config_output(self):
        proc = run("budget", "--bc", 8, "--levels", 3)
        assert proc.returncode == 0
        assert "54" in proc.stdout and "0.046" in proc.stdout

    def test_reference_check_all_pass(self):
        proc = run("budget", "--check")
        assert proc.returncode == 0
        assert "8/8 reference rows match" in proc.stdout
        assert proc.stdout.count("PASS") == 8

    def test_invalid_config_nonzero_exit(self):
        proc = run("budget", "--bc", 8, "--levels", 3, "--height", 100)
        assert proc.returncode == 2
        assert "divisible" in proc.stderr

    def test_usage_error_exit_code(self):
        proc = run("budget", "--bc", "x")
        assert proc.returncode == 1

    def test_malformed_workers_env_is_usage_error(self):
        proc = run("budget", env={**os.environ, "TBC_WORKERS": "abc"})
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines() == [
            "irstd: error: TBC_WORKERS must be an integer, got 'abc'"]


class TestSynth:
    def test_seed_required(self, tmp_path):
        proc = run("synth", "--out", tmp_path / "d", "--counts", "1,1,1,1",
                   "--builtin-backgrounds")
        assert proc.returncode == 1
        assert "--seed" in proc.stderr

    def test_backgrounds_source_required(self, tmp_path):
        proc = run("synth", "--out", tmp_path / "d", "--counts", "1,1,1,1",
                   "--seed", 5)
        assert proc.returncode == 2
        assert "backgrounds" in proc.stderr

    def test_counts_respected_and_deterministic(self, tmp_path):
        for name in ("a", "b"):
            proc = run("synth", "--out", tmp_path / name, "--counts", "2,1,1,0",
                       "--seed", 9, "--builtin-backgrounds", "--size", 64)
            assert proc.returncode == 0, proc.stderr
        rows = [json.loads(line) for line in
                (tmp_path / "a" / "manifest.jsonl").read_text().splitlines()]
        assert [r["y_T"] for r in rows] == [0, 0, 1, 2]
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_bad_counts_rejected(self, tmp_path):
        proc = run("synth", "--out", tmp_path / "d", "--counts", "1,2",
                   "--seed", 1, "--builtin-backgrounds")
        assert proc.returncode == 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the stage tests: synth -> train-scm
    -> train-tem -> detect -> eval."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    proc = run("synth", "--out", data, "--counts", "3,3,3,3", "--seed", 13,
               "--builtin-backgrounds", "--size", 64, "--size-range", "3,3")
    assert proc.returncode == 0, proc.stderr
    scm_dir = root / "scm"
    proc = run("train-scm", "--manifest", data / "manifest.jsonl", "--out", scm_dir,
               "--seed", 2, "--epochs", 2, "--batch-size", 4)
    assert proc.returncode == 0, proc.stderr
    tem_dir = root / "tem"
    proc = run("train-tem", "--manifest", data / "manifest.jsonl", "--out", tem_dir,
               "--scm", scm_dir / "scm.tbcw", "--seed", 3, "--epochs", 2,
               "--batch-size", 4, "--bc", 2, "--levels", 2)
    assert proc.returncode == 0, proc.stderr
    out = root / "det"
    proc = run("detect", "--model", tem_dir / "tem.tbcw", "--manifest",
               data / "manifest.jsonl", "--out", out, "--k", 25)
    assert proc.returncode == 0, proc.stderr
    return root


class TestPipeline:
    def test_train_tem_requires_scm(self, pipeline):
        proc = run("train-tem", "--manifest", pipeline / "data" / "manifest.jsonl",
                   "--out", pipeline / "x", "--seed", 1)
        assert proc.returncode == 2
        assert "SCM checkpoint required" in proc.stderr
        assert "train-scm" in proc.stderr

    def test_checkpoints_and_logs_written(self, pipeline):
        assert (pipeline / "scm" / "scm.tbcw").exists()
        assert (pipeline / "tem" / "tem.tbcw").exists()
        doc = json.loads((pipeline / "tem" / "train_log.json").read_text())
        assert doc["config"]["seed"] == 3
        assert len(doc["log"]["epochs"]) == 2

    def test_detect_outputs(self, pipeline):
        out = pipeline / "det"
        scores = sorted(out.glob("score_*.pgm"))
        masks = sorted(out.glob("mask_*.pgm"))
        assert len(scores) == len(masks) == 12
        assert (out / "detections.jsonl").exists()
        for line in (out / "detections.jsonl").read_text().splitlines():
            row = json.loads(line)
            assert set(row) == {"frame", "centroid", "pixel_count", "peak", "bbox"}

    def test_eval_roc_csv(self, pipeline):
        out = pipeline / "ev"
        proc = run("eval", "--manifest", pipeline / "data" / "manifest.jsonl",
                   "--scores", pipeline / "det", "--out", out, "--thresholds", 16)
        assert proc.returncode == 0, proc.stderr
        lines = (out / "roc.csv").read_text().splitlines()
        assert lines[0] == "threshold,fa,pd"
        assert len(lines) == 17
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(last[1]) == 0.0 and float(last[2]) <= float(first[2])

    def test_eval_baseline_with_metrics_and_plot(self, pipeline):
        out = pipeline / "evb"
        proc = run("eval", "--manifest", pipeline / "data" / "manifest.jsonl",
                   "--method", "tophat", "--out", out, "--thresholds", 8,
                   "--metrics", "--plot")
        assert proc.returncode == 0, proc.stderr
        assert (out / "roc.csv").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "frame,box,scr_in,scr_out,scrg,bsf"
        assert (out / "roc.pgm").read_bytes().startswith(b"P5")

    def test_train_resume_from_checkpoint(self, pipeline, tmp_path):
        out = tmp_path / "resumed"
        proc = run("train-scm", "--manifest", pipeline / "data" / "manifest.jsonl",
                   "--out", out, "--seed", 8, "--epochs", 1, "--batch-size", 4,
                   "--init", pipeline / "scm" / "scm.tbcw")
        assert proc.returncode == 0, proc.stderr
        assert (out / "scm.tbcw").exists()

    def test_detect_rejects_scm_checkpoint(self, pipeline):
        proc = run("detect", "--model", pipeline / "scm" / "scm.tbcw",
                   "--manifest", pipeline / "data" / "manifest.jsonl",
                   "--out", pipeline / "bad")
        assert proc.returncode == 2
        assert "not an extractor" in proc.stderr


class TestHostileCheckpoint:
    def test_detect_oversized_header_one_line(self, tmp_path):
        # a checksummed header claiming 8.2e11 parameters over a 40-byte payload
        model = tmp_path / "big.tbcw"
        write_tem_checkpoint(model, 4096, 6, 10)
        proc = run("detect", "--model", model, "--images", tmp_path, "--out", tmp_path / "det")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "needs 824432467968 float32 values" in lines[0]

    def test_detect_oversized_v2_header_one_line(self, tmp_path):
        model = tmp_path / "big.tbcw"
        write_tem_checkpoint(model, 4096, 6, 10, version=2)
        proc = run("detect", "--model", model, "--images", tmp_path, "--out", tmp_path / "det")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "needs 824432467968 float32 values" in lines[0]


class TestHostilePgm:
    @pytest.mark.parametrize("header", [b"P5 -4 5 255\n", b"P5 -1 -1 255\n"],
                             ids=["negative-width", "negative-extents"])
    def test_detect_signed_extents_one_line(self, tmp_path, header):
        model = tmp_path / "tem.tbcw"
        save_weights(model, build_tem(NetConfig(2, 2, 16, 16), Rng(1)))
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "bad.pgm").write_bytes(header + bytes(40))
        proc = run("detect", "--model", model, "--images", frames, "--out", tmp_path / "det")
        assert "Traceback" not in proc.stderr
        assert_one_line_data_error(proc, "bad.pgm: width")


class TestConfigFile:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 50, "batch_size": 4}))
        data = tmp_path / "data"
        proc = run("synth", "--out", data, "--counts", "1,1,0,0", "--seed", 21,
                   "--builtin-backgrounds", "--size", 64)
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "scm"
        proc = run("train-scm", "--manifest", data / "manifest.jsonl", "--out", out,
                   "--seed", 4, "--config", cfg, "--epochs", 1)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((out / "train_log.json").read_text())
        assert doc["config"]["epochs"] == 1          # flag wins
        assert doc["config"]["batch_size"] == 4      # file value kept


def train_args(pipeline, stage):
    args = ["--manifest", pipeline / "data" / "manifest.jsonl", "--seed", 5,
            "--out", pipeline / f"bad_{stage}"]
    if stage == "train-tem":
        args += ["--scm", pipeline / "scm" / "scm.tbcw"]
    return [stage, *args]


def assert_one_line_data_error(proc, text):
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and text in lines[0], proc.stderr


class TestBadTrainingOptions:
    @pytest.mark.parametrize("stage,flags,text", [
        ("train-tem", ["--weight", "-3"], "weight must be >= 0"),
        ("train-tem", ["--weight", "inf"], "weight must be >= 0"),
        ("train-scm", ["--epochs", "0"], "epochs must be >= 1"),
        ("train-tem", ["--batch-size", "0"], "batch_size must be >= 1"),
        ("train-scm", ["--lr", "nan"], "lr must be positive and finite")],
        ids=["weight-negative", "weight-inf", "epochs-0", "batch-size-0", "lr-nan"])
    def test_flag_rejected_in_one_line(self, pipeline, stage, flags, text):
        proc = run(*train_args(pipeline, stage), *flags)
        assert_one_line_data_error(proc, text)
        assert not (pipeline / f"bad_{stage}").exists()

    @pytest.mark.parametrize("doc,text", [
        ({"epochs": 1, "momentum": 0.9}, "unknown training config key 'momentum'"),
        ({"lr": "x"}, "training config key 'lr' has a value of the wrong type"),
        ([1, 2], "training config must be a JSON object, got list"),
        ({"decay": -1.0}, "decay must be positive and finite"),
        ({"beta1": 1.0}, "beta1 must be in [0, 1)"),
        ({"beta2": 1.5}, "beta2 must be in [0, 1)"),
        ({"eps": 0.0}, "eps must be positive and finite")],
        ids=["unknown-key", "wrong-type", "not-an-object", "decay-negative",
             "beta1-one", "beta2-above-one", "eps-zero"])
    def test_malformed_config_file_rejected_in_one_line(self, pipeline, tmp_path,
                                                        doc, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        proc = run(*train_args(pipeline, "train-scm"), "--config", cfg)
        assert_one_line_data_error(proc, text)
