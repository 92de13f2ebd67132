"""Seeded mutation fuzz of the weight checkpoint reader.

Version 1 and version 2 files of both kinds are mutated (flipped bytes,
truncation, extension, header words overwritten with edge values) and, in
most cases, re-sealed with the checksum their version word asks for, so the
mutation reaches the parser behind the trailer. A file is either rejected
with ``ValueError`` or describes a net exactly: saving the loaded net gives
back the mutated header and weights.
"""

import struct
import subprocess
import sys

import pytest

from conftest import seal
from irstd import checkpoint
from irstd.checkpoint import load_weights, save_weights
from irstd.scm import build_scm
from irstd.tem import NetConfig, budget, build_tem
from irstd.tensor import Rng

EDGE_WORDS = (0, 1, 2**31, 2**32 - 1)
MUTATIONS = ("flip", "truncate", "extend", "word")
# every rejection must come from one of the reader's own checks
MESSAGES = ("not a weight checkpoint", "unsupported version", "checksum mismatch",
            "unknown checkpoint kind", "header cut short", "levels cannot fit",
            "float32 values, payload holds", "bc and levels must be", "classes; a classifier",
            "does not fit any classifier")


def saved_body(net, version, tmp_path) -> bytes:
    """The file ``save_weights`` writes for ``net``, as ``version``, without
    its trailer."""
    path = tmp_path / "base.tbcw"
    save_weights(path, net)
    body = bytearray(path.read_bytes()[:-8])
    body[4:8] = struct.pack("<I", version)
    return bytes(body)


def mutate(body: bytes, kind: int, rng: Rng) -> tuple[str, bytes]:
    how = rng.choice(MUTATIONS)
    out = bytearray(body)
    if how == "flip":
        header = 17 if kind == 0 else 13
        for _ in range(rng.randint(1, 3)):
            # half the flips land in the header
            i = rng.randint(0, header - 1) if rng.randint(0, 1) else rng.randint(0, len(out) - 1)
            out[i] ^= rng.randint(1, 255)
    elif how == "truncate":
        keep = len(out) - rng.randint(1, 12) if rng.randint(0, 1) else rng.randint(0, len(out) - 1)
        del out[max(keep, 0):]
    elif how == "extend":
        out += bytes(rng.randint(0, 255) for _ in range(rng.randint(1, 12)))
    else:
        at = rng.choice((4, 9, 13) if kind == 0 else (4, 9))
        out[at:at + 4] = struct.pack("<I", rng.choice(EDGE_WORDS))
    return how, bytes(out)


def load_guarded(path, monkeypatch):
    """``load_weights``, with nets only built at sizes the file can fill:
    the header alone must never size an allocation."""
    size = path.stat().st_size
    real_tem, real_scm = checkpoint.TemNet, checkpoint.ScmNet

    def tem(cfg, rng):
        assert 4 * budget(cfg).params <= size, "extractor sized by the header"
        return real_tem(cfg, rng)

    def scm(c_classes, fc_in, rng):
        assert 4 * (fc_in + 1) * c_classes <= size, "classifier sized by the header"
        return real_scm(c_classes, fc_in, rng)

    with monkeypatch.context() as m:
        m.setattr(checkpoint, "TemNet", tem)
        m.setattr(checkpoint, "ScmNet", scm)
        return load_weights(path)


# version-1 trailers are a per-byte Python fold, so the 168 KB classifier
# gets fewer v1 cases
@pytest.mark.parametrize("kind,version,cases", [
    (0, 1, 300), (0, 2, 300), (1, 1, 24), (1, 2, 120),
])
def test_mutated_checkpoints(tmp_path, monkeypatch, kind, version, cases):
    net = build_tem(NetConfig(2, 1, 4, 4), Rng(1)) if kind == 0 else build_scm(2, (16, 16), Rng(2))
    body = saved_body(net, version, tmp_path)
    rng = Rng(9000 + 10 * kind + version)
    path, again = tmp_path / "m.tbcw", tmp_path / "again.tbcw"
    stale = seal(body)[-8:]
    rejected = {how: 0 for how in MUTATIONS}
    messages = set()
    for case in range(cases):
        how, mutated = mutate(body, kind, rng)
        resealed = case % 4 != 0
        raw = seal(mutated) if resealed else mutated + stale
        path.write_bytes(raw)
        try:
            loaded = load_guarded(path, monkeypatch)
        except ValueError as exc:
            rejected[how] += 1
            known = [m for m in MESSAGES if m in str(exc)]
            assert known, f"case {case} ({how}): unexpected message {exc}"
            messages.update(known)
            continue
        assert resealed or mutated == body, f"case {case} ({how}) passed a stale trailer"
        save_weights(again, loaded)
        out = again.read_bytes()
        assert out[:4] + out[8:-8] == mutated[:4] + mutated[8:], f"case {case} ({how}) misread"
    # every kind of mutation was caught, and the checks behind the trailer ran
    assert all(rejected.values()), rejected
    assert {"checksum mismatch", "unsupported version"} <= messages, messages
    assert len(messages) >= 4, messages


def test_cut_header_fails_cli_in_one_line(tmp_path):
    # a v2 extractor cut inside its config words and re-sealed
    body = saved_body(build_tem(NetConfig(2, 1, 4, 4), Rng(1)), 2, tmp_path)
    model = tmp_path / "cut.tbcw"
    model.write_bytes(seal(body[:12]))
    proc = subprocess.run([sys.executable, "-m", "irstd", "detect", "--model", str(model),
                           "--images", str(tmp_path), "--out", str(tmp_path / "det")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "header cut short (12 of 17 bytes)" in lines[0]
