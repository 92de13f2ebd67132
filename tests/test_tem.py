import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import seal, write_tem_checkpoint
from irstd import checkpoint
from irstd.checkpoint import fnv1a64, load_weights, save_weights, weight_hash
from irstd.scm import build_scm
from irstd.tem import (BudgetReport, NetConfig, budget, build_tem,
                       count_actual_ops, count_parameters, extract)
from irstd.tensor import Rng

# (bc, levels) -> published reference row at 256x256, in 2^20 units.
REFERENCE_ROWS = {
    (8, 3): (54, 1.750, 0.046, 1.796),
    (8, 4): (72, 1.938, 0.187, 2.124),
    (8, 5): (90, 2.031, 0.749, 2.781),
    (8, 6): (108, 2.078, 2.999, 5.078),
    (16, 3): (216, 3.375, 0.185, 3.560),
    (16, 4): (288, 3.750, 0.747, 4.497),
    (16, 5): (360, 3.938, 2.997, 6.935),
    (16, 6): (432, 4.031, 11.997, 16.029),
}


class TestNetConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            NetConfig(4, 3, 60, 64)

    def test_positive_knobs_enforced(self):
        with pytest.raises(ValueError):
            NetConfig(0, 3)
        with pytest.raises(ValueError):
            NetConfig(4, 0)


class TestBudget:
    @pytest.mark.parametrize("cfg,row", REFERENCE_ROWS.items())
    def test_reference_rows(self, cfg, row):
        mega = budget(NetConfig(*cfg, 256, 256)).as_mega()
        assert round(mega["ops"]) == row[0] and mega["ops"] == row[0]
        assert round(mega["peak_map"], 3) == row[1]
        assert round(mega["params"], 3) == row[2]
        assert round(mega["total"], 3) == row[3]

    def test_minimum_config_params(self):
        assert budget(NetConfig(1, 1, 4, 4)).params == 54

    def test_large_config_params_exact(self):
        assert budget(NetConfig(16, 5, 256, 256)).params == 3_142_944

    def test_total_is_sum(self):
        r = budget(NetConfig(8, 4, 256, 256))
        assert r.total == r.peak_map + r.params
        assert isinstance(r, BudgetReport)


class TestConstruction:
    @pytest.mark.parametrize("bc,levels", [(1, 1), (2, 2), (4, 3), (8, 3), (16, 5)])
    def test_parameter_count_matches_formula(self, bc, levels):
        cfg = NetConfig(bc, levels, 2**levels * 2, 2**levels * 2)
        net = build_tem(cfg, Rng(1))
        assert count_parameters(net) == budget(cfg).params

    @pytest.mark.parametrize("bc,levels", [(1, 1), (2, 2), (4, 3), (8, 3)])
    def test_ops_census_matches_formula(self, bc, levels):
        for h, w in ((256, 256), (64, 128)):
            cfg = NetConfig(bc, levels, h, w)
            net = build_tem(cfg, Rng(1))
            assert count_actual_ops(net, h, w) == budget(cfg).ops

    def test_census_hand_value_minimum_config(self):
        net = build_tem(NetConfig(1, 1, 4, 4), Rng(1))
        assert count_actual_ops(net, 4, 4) == 72  # (9/2) * 1 * 16 * 1

    def test_census_linear_in_pixels(self):
        net = build_tem(NetConfig(2, 2, 8, 8), Rng(1))
        assert count_actual_ops(net, 8, 16) == 2 * count_actual_ops(net, 8, 8)

    def test_no_biases_anywhere(self):
        net = build_tem(NetConfig(4, 2, 16, 16), Rng(1))
        assert all(layer.b is None for layer in net.conv_layers())

    def test_channel_trace(self):
        net = build_tem(NetConfig(4, 3, 32, 32), Rng(1))
        assert [(c.c_in, c.c_out) for c in net.down_convs] == [(4, 8), (8, 16), (16, 32)]
        assert [(c.c_in, c.c_out) for c in net.up_convs] == [(32, 16), (16, 8), (8, 4)]

    def test_same_seed_identical_weights(self):
        cfg = NetConfig(4, 2, 16, 16)
        a = build_tem(cfg, Rng(77))
        b = build_tem(cfg, Rng(77))
        assert weight_hash(a) == weight_hash(b)


class TestExtract:
    def test_untrained_output_shape_and_finite(self):
        net = build_tem(NetConfig(2, 2, 16, 16), Rng(5))
        out = extract(net, Rng(6).uniform_array((16, 16)))
        assert out.shape == (16, 16) and np.isfinite(out).all()

    def test_arbitrary_divisible_resolution_accepted(self):
        net = build_tem(NetConfig(2, 3, 64, 64), Rng(5))
        out = extract(net, Rng(6).uniform_array((128, 192)))
        assert out.shape == (128, 192)

    def test_bad_resolution_message_names_divisibility(self):
        net = build_tem(NetConfig(2, 3, 64, 64), Rng(5))
        with pytest.raises(ValueError, match="divisible by 2\\^3"):
            extract(net, Rng(6).uniform_array((65, 64)))

    def test_deterministic_given_weights(self):
        net = build_tem(NetConfig(2, 2, 16, 16), Rng(5))
        img = Rng(6).uniform_array((16, 16))
        assert np.array_equal(extract(net, img), extract(net, img))

    def test_skip_fusion_shapes_agree(self):
        # testable consequence of same-scale fusion: forward succeeds and
        # output extents equal input extents at every valid size
        net = build_tem(NetConfig(3, 2, 16, 16), Rng(5))
        for h, w in ((8, 8), (16, 24), (32, 16)):
            assert extract(net, Rng(6).uniform_array((h, w))).shape == (h, w)


class TestCheckpoint:
    def test_round_trip_preserves_weights_and_config(self, tmp_path):
        net = build_tem(NetConfig(3, 2, 16, 16), Rng(9))
        path = tmp_path / "tem.tbcw"
        save_weights(path, net)
        loaded = load_weights(path)
        assert loaded.cfg.bc == 3 and loaded.cfg.levels == 2
        assert weight_hash(loaded) == weight_hash(net)
        img = Rng(10).uniform_array((16, 16))
        assert np.array_equal(extract(loaded, img), extract(net, img))

    def test_header_layout(self, tmp_path):
        net = build_tem(NetConfig(2, 1, 4, 4), Rng(9))
        path = tmp_path / "t.tbcw"
        save_weights(path, net)
        raw = path.read_bytes()
        assert raw[:4] == b"TBCW"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert raw[8] == 0  # extractor kind
        assert int.from_bytes(raw[9:13], "little") == 2
        assert int.from_bytes(raw[13:17], "little") == 1
        n_params = count_parameters(net)
        assert len(raw) == 17 + 4 * n_params + 8

    def test_corruption_detected(self, tmp_path):
        net = build_tem(NetConfig(2, 1, 4, 4), Rng(9))
        path = tmp_path / "t.tbcw"
        save_weights(path, net)
        raw = bytearray(path.read_bytes())
        raw[25] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum"):
            load_weights(path)

    def test_oversized_header_rejected_before_building(self, tmp_path, monkeypatch):
        # bc 4096, L 6 would ask for 8.2e11 parameters: the size check must
        # come first, so building any net here fails the test
        def no_build(*args, **kwargs):
            raise AssertionError("extractor built from an unchecked header")

        monkeypatch.setattr(checkpoint, "TemNet", no_build)
        path = tmp_path / "big.tbcw"
        write_tem_checkpoint(path, 4096, 6, 10)
        need = budget(NetConfig(4096, 6, 64, 64)).params
        assert need == 824_432_467_968
        with pytest.raises(ValueError, match=f"bc=4096, levels=6.*needs {need}.*holds 10"):
            load_weights(path)
        write_tem_checkpoint(path, 1, 2**32 - 1, 10)
        with pytest.raises(ValueError, match="4294967295 levels cannot fit a 40-byte"):
            load_weights(path)
        for bc, levels in ((0, 2), (3, 0)):
            write_tem_checkpoint(path, bc, levels, 0)
            with pytest.raises(ValueError):
                load_weights(path)

    def test_payload_one_value_short_rejected(self, tmp_path):
        path = tmp_path / "short.tbcw"
        need = count_parameters(build_tem(NetConfig(2, 1, 4, 4), Rng(9)))
        write_tem_checkpoint(path, 2, 1, need - 1)
        with pytest.raises(ValueError, match=f"needs {need} float32 values, payload holds {need - 1}$"):
            load_weights(path)

    def test_save_and_load_copy_no_payload(self, tmp_path):
        # save streams the weights out and load reads them through a view of
        # the file's bytes: saving allocates no payload-sized buffer, and
        # loading holds the file and the new net, nothing more
        net = build_tem(NetConfig(16, 5, 256, 256), Rng(4))
        payload = 4 * count_parameters(net)
        path = tmp_path / "big.tbcw"
        tracemalloc.start()
        try:
            save_weights(path, net)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loaded = load_weights(path)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert save_peak < payload // 16
        assert load_peak < 2.1 * payload
        body = b"TBCW" + struct.pack("<IBII", 2, 0, 16, 5) + weight_hash(net)
        assert path.read_bytes() == body + struct.pack("<Q", zlib.crc32(body))
        assert weight_hash(loaded) == weight_hash(net)

    def test_classifier_without_classes_rejected(self, tmp_path):
        path = tmp_path / "scm.tbcw"
        body = b"TBCW" + struct.pack("<IBI", 1, 1, 0) + bytes(40)
        path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))
        with pytest.raises(ValueError, match="0 classes"):
            load_weights(path)


def v1_bytes(net) -> bytes:
    """What version 1 wrote for ``net``: its header, the float32 weights and
    a 64-bit FNV-1a trailer."""
    if hasattr(net, "cfg"):
        head = struct.pack("<IBII", 1, checkpoint.KIND_TEM, net.cfg.bc, net.cfg.levels)
    else:
        head = struct.pack("<IBI", 1, checkpoint.KIND_SCM, net.c_classes)
    body = b"TBCW" + head + weight_hash(net)
    return body + struct.pack("<Q", fnv1a64(body))


class TestCheckpointVersions:
    @pytest.mark.parametrize("make", [
        lambda: build_tem(NetConfig(4, 3, 64, 64), Rng(9)),
        lambda: build_scm(3, (32, 32), Rng(12)),
    ], ids=["extractor", "classifier"])
    def test_v1_file_loads_and_resaves_as_v2(self, tmp_path, make):
        net = make()
        old = v1_bytes(net)
        (tmp_path / "v1.tbcw").write_bytes(old)
        loaded = load_weights(tmp_path / "v1.tbcw")
        assert type(loaded) is type(net)
        assert weight_hash(loaded) == weight_hash(net)
        save_weights(tmp_path / "v2.tbcw", loaded)
        new = (tmp_path / "v2.tbcw").read_bytes()
        assert len(new) == len(old)
        # only the version word and the trailer differ
        assert new[:4] == old[:4] and new[8:-8] == old[8:-8]
        assert int.from_bytes(new[4:8], "little") == 2
        assert new[-8:] == struct.pack("<Q", zlib.crc32(new[:-8]))
        assert new[-8:] != old[-8:]

    @pytest.mark.parametrize("where", [25, -8])
    def test_v2_flipped_byte_fails_checksum(self, tmp_path, where):
        # a payload byte, then the trailer's low byte
        path = tmp_path / "t.tbcw"
        save_weights(path, build_tem(NetConfig(2, 1, 4, 4), Rng(9)))
        raw = bytearray(path.read_bytes())
        raw[where] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum"):
            load_weights(path)

    def test_v2_trailer_upper_half_must_be_zero(self, tmp_path):
        path = tmp_path / "t.tbcw"
        save_weights(path, build_tem(NetConfig(2, 1, 4, 4), Rng(9)))
        raw = path.read_bytes()
        crc = zlib.crc32(raw[:-8])
        path.write_bytes(raw[:-8] + struct.pack("<Q", crc | 1 << 32))
        with pytest.raises(ValueError, match="checksum"):
            load_weights(path)

    @pytest.mark.parametrize("version", [0, 3, 2**32 - 1])
    def test_other_versions_unsupported(self, tmp_path, version):
        path = tmp_path / "t.tbcw"
        save_weights(path, build_tem(NetConfig(2, 1, 4, 4), Rng(9)))
        body = bytearray(path.read_bytes()[:-8])
        body[4:8] = struct.pack("<I", version)
        path.write_bytes(seal(bytes(body)))
        with pytest.raises(ValueError, match=f"unsupported version {version}$"):
            load_weights(path)

    def test_v2_oversized_header_rejected_before_building(self, tmp_path, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("extractor built from an unchecked header")

        monkeypatch.setattr(checkpoint, "TemNet", no_build)
        path = tmp_path / "big.tbcw"
        write_tem_checkpoint(path, 4096, 6, 10, version=2)
        with pytest.raises(ValueError, match="bc=4096, levels=6.*needs 824432467968.*holds 10"):
            load_weights(path)
        write_tem_checkpoint(path, 1, 2**32 - 1, 10, version=2)
        with pytest.raises(ValueError, match="4294967295 levels cannot fit a 40-byte"):
            load_weights(path)
        for bc, levels in ((0, 2), (3, 0)):
            write_tem_checkpoint(path, bc, levels, 0, version=2)
            with pytest.raises(ValueError):
                load_weights(path)

    def test_v2_payload_one_value_short_rejected(self, tmp_path):
        path = tmp_path / "short.tbcw"
        need = count_parameters(build_tem(NetConfig(2, 1, 4, 4), Rng(9)))
        write_tem_checkpoint(path, 2, 1, need - 1, version=2)
        with pytest.raises(ValueError, match=f"needs {need} float32 values, payload holds {need - 1}$"):
            load_weights(path)

    def test_v2_classifier_without_classes_rejected(self, tmp_path):
        path = tmp_path / "scm.tbcw"
        path.write_bytes(seal(b"TBCW" + struct.pack("<IBI", 2, 1, 0) + bytes(40)))
        with pytest.raises(ValueError, match="0 classes"):
            load_weights(path)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("kind", [0, 1])
    def test_header_cut_short_rejected(self, tmp_path, version, kind):
        # a sealed file that ends inside the config words
        path = tmp_path / "cut.tbcw"
        path.write_bytes(seal(b"TBCW" + struct.pack("<IB", version, kind) + bytes(3)))
        with pytest.raises(ValueError, match="header cut short"):
            load_weights(path)
