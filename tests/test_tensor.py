import math

import numpy as np
import pytest

from irstd.tensor import (Rng, finite_diff_grad, load_tensor, mix64,
                          save_tensor, stats)

# Frozen regression vectors for the generator (canonical SplitMix64 outputs).
RNG_VECTORS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
    42: [13679457532755275413, 2949826092126892291, 5139283748462763858],
}


class TestRng:
    @pytest.mark.parametrize("seed,expected", RNG_VECTORS.items())
    def test_frozen_vectors(self, seed, expected):
        rng = Rng(seed)
        assert [rng.next_u64() for _ in expected] == expected

    def test_block_matches_scalar_path(self):
        a = Rng(123)
        b = Rng(123)
        scalar = [a.next_u64() for _ in range(257)]
        assert list(b._block(257)) == scalar

    def test_same_seed_byte_identical_arrays(self):
        x = Rng(7).uniform_array((33, 17), -2.0, 5.0)
        y = Rng(7).uniform_array((33, 17), -2.0, 5.0)
        assert x.tobytes() == y.tobytes()

    def test_uniform_range_and_dtype(self):
        vals = Rng(1).uniform_array((10000,), 0.25, 0.75)
        assert vals.dtype == np.float32
        assert vals.min() >= 0.25 and vals.max() < 0.75
        assert abs(float(vals.mean()) - 0.5) < 0.01

    def test_randint_inclusive_and_unbiased_ish(self):
        rng = Rng(5)
        draws = [rng.randint(2, 10) for _ in range(9000)]
        assert min(draws) == 2 and max(draws) == 10
        for v in range(2, 11):
            assert abs(draws.count(v) / 9000 - 1 / 9) < 0.02

    def test_shuffle_permutes(self):
        rng = Rng(9)
        seq = list(range(50))
        rng.shuffle(seq)
        assert sorted(seq) == list(range(50)) and seq != list(range(50))

    def test_derive_streams_differ(self):
        a = Rng.derive(100, 0).next_u64()
        b = Rng.derive(100, 1).next_u64()
        c = Rng.derive(101, 0).next_u64()
        assert len({a, b, c}) == 3

    def test_mix64_bijective_sample(self):
        outs = {mix64(v) for v in range(4096)}
        assert len(outs) == 4096


class TestStats:
    def test_constant_input(self):
        mean, std = stats(np.ones(4))
        assert mean == 1.0 and std == 0.0

    def test_two_point(self):
        assert stats(np.array([0.0, 2.0])) == (1.0, 1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stats(np.array([]))

    def test_matches_two_pass_oracle(self):
        x = Rng(11).uniform_array((1000,), -3.0, 7.0)
        mean, std = stats(x)
        # independent two-pass summation oracle
        total = 0.0
        for v in x:
            total += float(v)
        m_ref = total / x.size
        sq = 0.0
        for v in x:
            sq += (float(v) - m_ref) ** 2
        s_ref = math.sqrt(sq / x.size)
        assert abs(mean - m_ref) <= 1e-6 * abs(m_ref)
        assert abs(std - s_ref) <= 1e-6 * abs(s_ref)


class TestFiniteDiff:
    def test_sum_of_squares(self):
        grad = finite_diff_grad(lambda x: float((x.astype(np.float64) ** 2).sum()),
                                np.array([3.0], np.float32))
        assert abs(grad[0] - 6.0) < 1e-3

    def test_l1_away_from_kink(self):
        grad = finite_diff_grad(lambda x: float(np.abs(x).sum()),
                                np.array([2.0, -2.0]))
        assert np.allclose(grad, [1.0, -1.0], atol=1e-6)

    def test_does_not_mutate_input(self):
        x = np.array([1.0, 2.0])
        finite_diff_grad(lambda v: float(v.sum()), x)
        assert np.array_equal(x, [1.0, 2.0])

    def test_nonfinite_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(lambda x: float(np.log(x).sum()), np.array([1e-9]), eps=1e-3)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.zeros(1), eps=0.0)


class TestTensorDump:
    def test_round_trip(self, tmp_path):
        x = Rng(21).uniform_array((3, 4, 5), -1, 1)
        path = tmp_path / "x.tbct"
        save_tensor(path, x)
        y = load_tensor(path)
        assert y.shape == x.shape and np.array_equal(x, y)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.tbct"
        save_tensor(path, np.zeros((2, 3), np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"TBCT"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:16], "little") == 2
        assert int.from_bytes(raw[16:20], "little") == 3
        assert len(raw) == 20 + 6 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tbct"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            load_tensor(path)
