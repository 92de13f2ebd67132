import tracemalloc

import numpy as np
import pytest

from irstd import nn
from irstd.nn import (AvgPool, Conv3x3, Linear, MaxPool2x2, ReLU,
                      UpsampleNearest2x, cross_entropy, softmax)
from irstd.tensor import Rng, finite_diff_grad


def max_rel_err(a, b):
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-12)


def loop_conv_oracle(w, b, x, padding):
    """Direct six-nested-loop convolution, replicate or zero border."""
    c_out, c_in, _, _ = w.shape
    _, h, wd = x.shape
    out = np.zeros((c_out, h, wd))
    for o in range(c_out):
        for i in range(h):
            for j in range(wd):
                acc = 0.0
                for c in range(c_in):
                    for u in range(3):
                        for v in range(3):
                            r, s = i + u - 1, j + v - 1
                            if padding == "replicate":
                                r = min(max(r, 0), h - 1)
                                s = min(max(s, 0), wd - 1)
                                val = x[c, r, s]
                            else:
                                val = x[c, r, s] if 0 <= r < h and 0 <= s < wd else 0.0
                            acc += w[o, c, u, v] * val
                out[o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


class TestConv:
    def test_identity_kernel_replicate(self):
        conv = Conv3x3(1, 1, "replicate")
        conv.w[0, 0, 1, 1] = 1.0
        x = Rng(1).uniform_array((1, 6, 7))
        assert np.array_equal(conv.forward(x[None], train=False)[0], x)

    def test_all_ones_kernel_zero_pad_counts(self):
        conv = Conv3x3(1, 1, "zero")
        conv.w[...] = 1.0
        y = conv.forward(np.ones((1, 1, 3, 3), np.float32), train=False)[0]
        assert y[0, 1, 1] == 9.0
        assert y[0, 0, 0] == 4.0 and y[0, 2, 2] == 4.0
        assert y[0, 0, 1] == 6.0

    @pytest.mark.parametrize("padding", ["zero", "replicate"])
    def test_matches_loop_oracle(self, padding):
        rng = Rng(17)
        conv = Conv3x3(2, 4, padding, bias=True, rng=rng)
        conv.b[...] = rng.uniform_array((4,), -0.5, 0.5)
        x = rng.uniform_array((2, 8, 8), -1, 1)
        got = conv.forward(x[None], train=False)[0]
        want = loop_conv_oracle(conv.w.astype(np.float64), conv.b.astype(np.float64),
                                x.astype(np.float64), padding)
        assert max_rel_err(got, want) < 1e-5

    def test_channel_mismatch_raises(self):
        conv = Conv3x3(2, 4)
        with pytest.raises(ValueError, match="channels"):
            conv.forward(np.zeros((1, 3, 8, 8), np.float32))

    def test_replicate_constant_stays_constant(self):
        # no border artifacts: the operational reason for replicate padding
        conv = Conv3x3(1, 3, "replicate", rng=Rng(3))
        y = conv.forward(np.full((1, 1, 10, 10), 0.7, np.float32), train=False)
        for c in range(3):
            assert float(y[0, c].max() - y[0, c].min()) == 0.0

    def test_zero_pad_constant_has_edge_effect(self):
        conv = Conv3x3(1, 1, "zero", rng=Rng(3))
        y = conv.forward(np.full((1, 1, 10, 10), 0.7, np.float32), train=False)
        assert float(np.abs(y[0, 0, 0, 0] - y[0, 0, 5, 5])) > 1e-6

    @pytest.mark.parametrize("padding", ["zero", "replicate"])
    def test_gradients_vs_finite_difference(self, padding):
        rng = Rng(23)
        conv = Conv3x3(2, 3, padding, bias=True, rng=rng, dtype=np.float64)
        x = rng.uniform_array((2, 2, 6, 5), -1, 1, np.float64)
        dy = rng.uniform_array((2, 3, 6, 5), -1, 1, np.float64)

        def loss_of_input(xv):
            return float((conv.forward(xv, train=False) * dy).sum())

        conv.forward(x)
        dx = conv.backward(dy)
        assert max_rel_err(dx, finite_diff_grad(loss_of_input, x, 1e-5)) < 1e-8

        w0 = conv.w.copy()

        def loss_of_weights(wv):
            conv.w = wv
            out = float((conv.forward(x, train=False) * dy).sum())
            conv.w = w0
            return out

        assert max_rel_err(conv.gw, finite_diff_grad(loss_of_weights, w0, 1e-5)) < 1e-8
        assert np.allclose(conv.gb, dy.sum(axis=(0, 2, 3)))


def patch_matrix_conv_oracle(conv):
    """The whole-batch im2col conv: (forward, backward) closures over one
    Conv3x3's weights. forward builds the full (N, 9C, HW) patch matrix with
    nine reshape copies and runs one batched matmul; backward is the layer's
    own adjoint of that matrix. Returns the patch matrix with the output."""

    def forward(x):
        n, c, h, w = x.shape
        xp = nn._pad1(x, conv.padding)
        cols = np.empty((n, 9 * c, h * w), xp.dtype)
        for i, (u, v) in enumerate(nn._OFFSETS):
            cols[:, i * c:(i + 1) * c] = xp[:, :, u:u + h, v:v + w].reshape(n, c, h * w)
        y = np.matmul(conv._w_flat(), cols).reshape(n, conv.c_out, h, w)
        if conv.b is not None:
            y += conv.b[:, None, None]
        return y, cols

    def backward(cols, dy):
        n, _, h, w = dy.shape
        c = conv.c_in
        dyf = dy.reshape(n, conv.c_out, h * w)
        gw = np.matmul(dyf, cols.transpose(0, 2, 1)).sum(axis=0)
        gw = gw.reshape(conv.c_out, 3, 3, c).transpose(0, 3, 1, 2)
        gb = dy.sum(axis=(0, 2, 3)) if conv.b is not None else None
        dcols = np.matmul(conv._w_flat().T, dyf)
        dxp = np.zeros((n, c, h + 2, w + 2), dy.dtype)
        for i, (u, v) in enumerate(nn._OFFSETS):
            dxp[:, :, u:u + h, v:v + w] += dcols[:, i * c:(i + 1) * c].reshape(n, c, h, w)
        return nn._pad1_adjoint(dxp, conv.padding), gw, gb

    return forward, backward


class TestConvBands:
    # (N, C_in, C_out, H, W): bands of 4 rows with a short last band of 2;
    # the extractor's one-channel output conv in bands of 7, 7 and 6 rows;
    # one band
    @pytest.mark.parametrize("shape", [(2, 32, 16, 22, 256), (1, 16, 1, 20, 256),
                                       (3, 2, 5, 7, 9)])
    @pytest.mark.parametrize("padding", ["zero", "replicate"])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_patch_matrix_oracle(self, shape, padding, bias, dtype):
        n, c_in, c_out, h, w = shape
        rng = Rng(sum(shape))
        conv = Conv3x3(c_in, c_out, padding, bias=bias, rng=rng, dtype=dtype)
        if bias:
            conv.b[...] = rng.uniform_array((c_out,), -0.5, 0.5, dtype)
        x = rng.uniform_array((n, c_in, h, w), -1, 1, dtype)
        dy = rng.uniform_array((n, c_out, h, w), -1, 1, dtype)
        forward_ref, backward_ref = patch_matrix_conv_oracle(conv)
        y_ref, cols_ref = forward_ref(x)
        dx_ref, gw_ref, gb_ref = backward_ref(cols_ref, dy)

        y_infer = conv.forward(x, train=False)
        y = conv.forward(x, train=True)
        dx = conv.backward(dy)
        assert y.dtype == dtype and np.array_equal(y, y_ref)
        assert np.array_equal(y_infer, y_ref)
        assert np.array_equal(dx, dx_ref)
        assert np.array_equal(conv.gw, gw_ref)
        assert np.array_equal(conv.gb, gb_ref) if bias else conv.gb is None

    # One output channel runs as OpenBLAS GEMV, which groups its sums by
    # matrix width at an odd column tail (here in every band) and, when 9C
    # is small, throughout; so these bands round apart from the whole image
    @pytest.mark.parametrize("shape", [(1, 64, 1, 60, 21), (1, 2, 1, 256, 256)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_switch_shapes_within_rounding(self, shape, dtype):
        n, c_in, c_out, h, w = shape
        rng = Rng(8)
        conv = Conv3x3(c_in, c_out, "replicate", rng=rng, dtype=dtype)
        x = rng.uniform_array((n, c_in, h, w), -1, 1, dtype)
        y_ref, _ = patch_matrix_conv_oracle(conv)[0](x)
        eps = np.finfo(dtype).eps
        assert max_rel_err(conv.forward(x, train=False), y_ref) < 64 * eps

    def test_band_rows_at_the_budget_and_the_pixel_floor(self):
        # 9 * 32 * 256 float32 bytes per row: the 1024-pixel floor (4 rows)
        # beats the 3 rows that fit the byte budget
        assert nn._band_rows(32, 256, 4) == 4
        assert nn._band_rows(1, 256, 4) == nn._BAND_BYTES // (9 * 256 * 4)
        assert nn._band_rows(256, 16, 4) == 64
        assert nn._band_rows(1 << 20, 1 << 20, 8) == 1

    def test_inference_holds_one_band_not_the_patch_matrix(self):
        # the level-1 up conv at 256x256: its full patch matrix is 75 MB
        conv = Conv3x3(32, 16, "replicate", rng=Rng(3))
        x = np.ones((1, 32, 256, 256), np.float32)
        padded = 32 * 258 * 258 * 4
        out = 16 * 256 * 256 * 4
        bound = x.nbytes + padded + out + 2 * nn._BAND_BYTES
        tracemalloc.start()
        try:
            y = conv.forward(x, train=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y.shape == (1, 16, 256, 256)
        assert peak < bound < 9 * x.nbytes


def argmax_pool_oracle(x):
    """The transpose/argmax pool: (pooled, backward function). Ties go to
    the first maximum in row-major block order."""
    n, c, h, w = x.shape
    blocks = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    blocks = blocks.reshape(n, c, h // 2, w // 2, 4)
    idx = blocks.argmax(axis=-1)
    y = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def backward(dy):
        g = np.zeros((n, c, h // 2, w // 2, 4), dy.dtype)
        np.put_along_axis(g, idx[..., None], dy[..., None], axis=-1)
        g = g.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return g.reshape(n, c, h, w)

    return y, idx, backward


def tied_relu_batch(seed, shape, dtype):
    """ReLU'd values on a coarse grid, so most blocks hold ties, plus one
    all-zero and one all-equal block per map."""
    x = np.maximum(np.round(Rng(seed).uniform_array(shape, -1, 1, dtype) * 2) / 2, 0)
    x[..., :2, :2] = 0
    x[..., -2:, -2:] = 0.5
    return x


class TestMaxPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 3, 6, 10), (16, 4, 64, 64)])
    def test_matches_argmax_oracle_with_ties(self, shape, dtype):
        x = tied_relu_batch(sum(shape), shape, dtype)
        pool = MaxPool2x2()
        y = pool.forward(x)
        y_ref, idx_ref, backward_ref = argmax_pool_oracle(x)
        assert y.dtype == dtype and np.array_equal(y, y_ref)
        dy = Rng(len(shape)).uniform_array(y.shape, -1, 1, dtype)
        dx = pool.backward(dy)
        assert dx.dtype == dtype and np.array_equal(dx, backward_ref(dy))
        assert np.array_equal(sum(k * m for k, m in enumerate(pool._masks)), idx_ref)

    def test_single_block(self):
        y = MaxPool2x2().forward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32))
        assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == 4.0

    def test_constant_image(self):
        y = MaxPool2x2().forward(np.full((1, 2, 6, 6), 0.3, np.float32))
        assert y.shape == (1, 2, 3, 3) and np.all(y == np.float32(0.3))

    def test_matches_block_scan_oracle(self):
        x = Rng(4).uniform_array((3, 16, 16))
        y = MaxPool2x2().forward(x[None], train=False)[0]
        for c in range(3):
            for i in range(8):
                for j in range(8):
                    assert y[c, i, j] == x[c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError, match="even"):
            MaxPool2x2().forward(np.zeros((1, 1, 5, 6), np.float32))

    def test_backward_routes_to_argmax_only(self):
        pool = MaxPool2x2()
        x = Rng(5).uniform_array((1, 2, 8, 8))
        y = pool.forward(x)
        dy = Rng(6).uniform_array(y.shape)
        dx = pool.backward(dy)
        # gradient mass is preserved and lands only on block maxima
        assert np.isclose(dx.sum(), dy.sum(), rtol=1e-6)
        nonzero = dx != 0
        assert nonzero.sum() == dy.size
        for c in range(2):
            for i in range(4):
                for j in range(4):
                    block = x[0, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    gblock = nonzero[0, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    assert block[gblock][0] == block.max()


class TestUpsample:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, 4, 4), (2, 3, 6, 10), (16, 4, 64, 64)])
    def test_backward_matches_block_sum(self, shape, dtype):
        # numpy's block reduce adds the four terms pairwise whenever the
        # output is at least two pixels wide; one pixel wide it adds them in
        # sequence, so exact equality is only asserted on the wider maps
        n, c, h2, w2 = shape
        dy = Rng(h2 + w2).uniform_array(shape, -1, 1, dtype)
        block_sum = dy.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))
        assert np.array_equal(UpsampleNearest2x().backward(dy), block_sum)

    def test_single_pixel(self):
        y = UpsampleNearest2x().forward(np.array([[[[5.0]]]], np.float32))
        assert np.array_equal(y, np.full((1, 1, 2, 2), 5.0, np.float32))

    def test_upsample_then_pool_round_trip(self):
        x = Rng(8).uniform_array((1, 2, 5, 7))
        y = MaxPool2x2().forward(UpsampleNearest2x().forward(x), train=False)
        assert np.array_equal(y, x)

    def test_gradient_vs_finite_difference(self):
        up = UpsampleNearest2x()
        x = Rng(9).uniform_array((1, 2, 3, 4), -1, 1, np.float64)
        dy = Rng(10).uniform_array((1, 2, 6, 8), -1, 1, np.float64)

        def loss(xv):
            return float((up.forward(xv, train=False) * dy).sum())

        up.forward(x)
        dx = up.backward(dy)
        assert max_rel_err(dx, finite_diff_grad(loss, x, 1e-5)) < 1e-9


class TestAvgPool:
    def test_table_shape(self):
        # 16-channel 16x16 map, 4x4 window, stride 4 -> 16 channels of 4x4
        y = AvgPool(4, 4).forward(Rng(11).uniform_array((1, 16, 16, 16)))
        assert y.shape == (1, 16, 4, 4)

    def test_constant_preserved(self):
        y = AvgPool(4, 4).forward(np.full((1, 1, 8, 8), 0.42, np.float32))
        assert np.allclose(y, 0.42, atol=1e-7)

    def test_matches_loop_oracle(self):
        x = Rng(12).uniform_array((2, 10, 10), -1, 1)
        y = AvgPool(4, 2).forward(x[None], train=False)[0]
        for c in range(2):
            for i in range(4):
                for j in range(4):
                    want = x[c, 2 * i:2 * i + 4, 2 * j:2 * j + 4].astype(np.float64).mean()
                    assert abs(float(y[c, i, j]) - want) < 1e-6

    def test_divisibility_violation_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            AvgPool(4, 2).forward(np.zeros((1, 1, 9, 9), np.float32))

    def test_gradient_vs_finite_difference(self):
        pool = AvgPool(3, 2)
        x = Rng(13).uniform_array((1, 2, 7, 7), -1, 1, np.float64)
        dy = Rng(14).uniform_array((1, 2, 3, 3), -1, 1, np.float64)

        def loss(xv):
            return float((pool.forward(xv, train=False) * dy).sum())

        pool.forward(x)
        assert max_rel_err(pool.backward(dy), finite_diff_grad(loss, x, 1e-5)) < 1e-9


class TestLinear:
    def test_identity(self):
        lin = Linear(4, 4)
        lin.w[...] = np.eye(4)
        x = np.arange(4, dtype=np.float32)[None]
        assert np.array_equal(lin.forward(x, train=False), x)

    def test_accepts_flattened_pool_output(self):
        # 4x4x16 average-pool output flattens to the 256-wide classifier input
        flat = Rng(15).uniform_array((2, 16, 4, 4)).reshape(2, -1)
        y = Linear(256, 4, rng=Rng(16)).forward(flat, train=False)
        assert y.shape == (2, 4)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="expected 8 features"):
            Linear(8, 4).forward(np.zeros((1, 7), np.float32))

    def test_gradients_vs_finite_difference(self):
        rng = Rng(18)
        lin = Linear(6, 3, rng=rng, dtype=np.float64)
        x = rng.uniform_array((4, 6), -1, 1, np.float64)
        dy = rng.uniform_array((4, 3), -1, 1, np.float64)

        def loss_x(xv):
            return float((lin.forward(xv, train=False) * dy).sum())

        lin.forward(x)
        dx = lin.backward(dy)
        assert max_rel_err(dx, finite_diff_grad(loss_x, x, 1e-6)) < 1e-8

        w0 = lin.w.copy()

        def loss_w(wv):
            lin.w = wv
            out = float((lin.forward(x, train=False) * dy).sum())
            lin.w = w0
            return out

        assert max_rel_err(lin.gw, finite_diff_grad(loss_w, w0, 1e-6)) < 1e-8


class TestActivations:
    def test_relu_values(self):
        assert np.array_equal(ReLU().forward(np.array([-1.0, 2.0]), train=False),
                              [0.0, 2.0])

    def test_relu_subgradient_zero_at_zero(self):
        layer = ReLU()
        layer.forward(np.array([[0.0, -1.0, 3.0]]))
        dx = layer.backward(np.ones((1, 3)))
        assert np.array_equal(dx, [[0.0, 0.0, 1.0]])

    def test_softmax_uniform(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25)

    def test_softmax_sums_to_one(self):
        p = softmax(Rng(19).uniform_array((50, 7), -30, 30))
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-6

    def test_softmax_monotone(self):
        p = softmax(np.array([0.1, 0.5, 2.0, -1.0]))
        order = np.argsort([0.1, 0.5, 2.0, -1.0])
        assert np.array_equal(np.argsort(p), order)

    def test_softmax_stable_for_large_logits(self):
        p = softmax(np.array([1000.0, 1000.0, 0.0]))
        assert np.isfinite(p).all() and abs(p[:2].sum() - 1.0) < 1e-9

    def test_softmax_backward_vs_finite_difference(self):
        # the softmax backward the package runs is the one inside the
        # cross-entropy gradient at the logits
        x = Rng(20).uniform_array((3, 5), -2, 2, np.float64)
        labels = np.array([4, 0, 2])

        def loss(xv):
            return float(cross_entropy(xv, labels)[0].sum())

        _, got = cross_entropy(x, labels)
        assert max_rel_err(got, finite_diff_grad(loss, x, 1e-6)) < 1e-8

    def test_cross_entropy_uniform_and_gradient(self):
        logits = np.zeros((2, 4))
        losses, dlogits = cross_entropy(logits, np.array([0, 3]))
        assert np.allclose(losses, np.log(4.0))
        assert np.allclose(dlogits[0], [0.25 - 1, 0.25, 0.25, 0.25])

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(np.zeros((1, 4)), np.array([4]))
