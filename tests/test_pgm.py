import numpy as np
import pytest

from irstd.pgm import read_pgm, write_pgm
from irstd.tensor import Rng


def test_write_read_round_trip_16bit(tmp_path):
    img = Rng(1).uniform_array((13, 17))
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-9


def test_file_round_trip_bit_exact(tmp_path):
    img = Rng(2).uniform_array((9, 11))
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    write_pgm(first, img)
    write_pgm(second, read_pgm(first))
    assert first.read_bytes() == second.read_bytes()


def test_quantized_values_read_back_exactly(tmp_path):
    img = (np.arange(16, dtype=np.float64) / 15).reshape(4, 4)
    q = np.rint(img * 65535) / 65535
    path = tmp_path / "q.pgm"
    write_pgm(path, q)
    assert np.array_equal(read_pgm(path), q.astype(np.float32))


def test_8bit_mode(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 0.25]], np.float32)
    path = tmp_path / "b.pgm"
    write_pgm(path, img, maxval=255)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert len(raw) == len(b"P5\n2 2\n255\n") + 4
    back = read_pgm(path)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-7


def test_16bit_samples_are_big_endian(tmp_path):
    path = tmp_path / "e.pgm"
    write_pgm(path, np.array([[1.0]], np.float32))
    raw = path.read_bytes()
    assert raw[-2:] == b"\xff\xff"
    write_pgm(path, np.array([[32768 / 65535]], np.float32))
    assert path.read_bytes()[-2:] == b"\x80\x00"


def test_header_comments_handled(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x00\xff")
    img = read_pgm(path)
    assert img.shape == (1, 2)
    assert img[0, 0] == 0.0 and img[0, 1] == 1.0


def test_values_clipped_to_unit_range(tmp_path):
    path = tmp_path / "cl.pgm"
    write_pgm(path, np.array([[-0.5, 1.5]], np.float32))
    back = read_pgm(path)
    assert back[0, 0] == 0.0 and back[0, 1] == 1.0


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError, match="binary PGM"):
        read_pgm(path)


def test_truncated_data_rejected(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


def test_non_2d_rejected(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2), np.float32))


@pytest.mark.parametrize("header,field", [
    (b"P5 -4 5 255\n", "width"),
    (b"P5 -1 -1 255\n", "width"),
    (b"P5 4 -5 255\n", "height"),
    (b"P5 +4 5 255\n", "width"),
    (b"P5 4 1_0 255\n", "height"),
    (b"P5 0 5 255\n", "width"),
    (b"P5 4 5 0\n", "maxval"),
    (b"P5 4 5 -255\n", "maxval"),
    (b"P5 " + b"9" * 5000 + b" 5 255\n", "width")])
def test_extents_and_maxval_must_be_positive_decimals(tmp_path, header, field):
    # P5 -4 5 255 over 40 bytes used to read as a 5x8 image
    path = tmp_path / "signed.pgm"
    path.write_bytes(header + bytes(40))
    with pytest.raises(ValueError, match=f"signed.pgm: {field} .* is not a positive decimal"):
        read_pgm(path)


def test_maxval_above_16_bits_rejected(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5 1 1 65536\n" + bytes(4))
    with pytest.raises(ValueError, match="deep.pgm: bad maxval 65536"):
        read_pgm(path)
