"""Unit tests for Conv2d: numerics, gradients, and the receptive-field/
partial-sum introspection the extraction engine depends on."""

import numpy as np
import pytest

from repro.nn.layers import Conv2d


@pytest.fixture
def conv():
    return Conv2d(2, 3, kernel_size=3, padding=1, rng=np.random.default_rng(1))


def naive_conv(x, w, b, stride, padding):
    n, c_in, h, wdt = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wdt + 2 * padding - k) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for ni in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride : i * stride + k,
                               j * stride : j * stride + k]
                    out[ni, co, i, j] = (patch * w[co]).sum() + b[co]
    return out


class TestForward:
    def test_matches_naive(self, conv, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        out = conv.forward(x)
        ref = naive_conv(x, conv.weight.data, conv.bias.data, 1, 1)
        assert np.allclose(out, ref)

    def test_stride_two(self, rng):
        conv = Conv2d(1, 2, 3, stride=2, padding=1, rng=np.random.default_rng(2))
        x = rng.normal(size=(1, 1, 8, 8))
        out = conv.forward(x)
        assert out.shape == (1, 2, 4, 4)
        ref = naive_conv(x, conv.weight.data, conv.bias.data, 2, 1)
        assert np.allclose(out, ref)

    def test_channel_validation(self, conv):
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 3, 5, 5)))


class TestBackward:
    def test_input_gradient_matches_numerical(self, rng, numgrad):
        conv = Conv2d(1, 2, 3, padding=1, rng=np.random.default_rng(3))
        x = rng.normal(size=(1, 1, 4, 4))
        target = rng.normal(size=(1, 2, 4, 4))

        def loss(xv):
            return float(((conv.forward(xv) - target) ** 2).sum())

        out = conv.forward(x)
        analytic = conv.backward(2.0 * (out - target))
        numeric = numgrad(loss, x.copy())
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_weight_gradient_matches_numerical(self, rng):
        conv = Conv2d(1, 1, 3, padding=0, rng=np.random.default_rng(4))
        x = rng.normal(size=(1, 1, 4, 4))
        out = conv.forward(x)
        conv.zero_grad()
        conv.backward(np.ones_like(out))
        eps = 1e-6
        w = conv.weight.data
        for idx in [(0, 0, 0, 0), (0, 0, 1, 2), (0, 0, 2, 2)]:
            old = w[idx]
            w[idx] = old + eps
            up = conv.forward(x).sum()
            w[idx] = old - eps
            down = conv.forward(x).sum()
            w[idx] = old
            assert conv.weight.grad[idx] == pytest.approx(
                (up - down) / (2 * eps), abs=1e-4
            )


class TestIntrospection:
    def test_partial_sums_reconstruct_output(self, conv, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        out = conv.forward(x)
        flat = out[0].ravel()
        for pos in [0, 7, 24, 50, flat.size - 1]:
            psums = conv.partial_sums(pos)
            c = pos // 25
            assert psums.sum() + conv.bias.data[c] == pytest.approx(flat[pos])

    def test_receptive_field_interior(self, conv, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        conv.forward(x)
        # output (0, 2, 2): interior position, full 2*3*3 receptive field
        pos = 2 * 5 + 2
        rf = conv.receptive_field(pos)
        assert rf.size == 18
        # all positions must be inside the input feature map
        assert rf.min() >= 0 and rf.max() < 2 * 25

    def test_receptive_field_corner_excludes_padding(self, conv, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        conv.forward(x)
        rf = conv.receptive_field(0)  # corner output: 2x2 valid window x2ch
        assert rf.size == 8

    def test_rf_and_psums_aligned(self, conv, rng):
        """psums[k] must be the contribution of input element rf[k]."""
        x = rng.normal(size=(1, 2, 5, 5))
        out = conv.forward(x)
        pos = 1 * 25 + 2 * 5 + 3
        rf = conv.receptive_field(pos)
        psums = conv.partial_sums(pos)
        assert rf.shape == psums.shape
        # zeroing one input element must remove exactly its partial sum
        k = 5
        x2 = x.copy()
        x2.reshape(1, -1)[0, rf[k]] = 0.0
        out2 = conv.forward(x2)
        delta = out[0].ravel()[pos] - out2[0].ravel()[pos]
        assert delta == pytest.approx(psums[k])

    def test_mac_count(self, conv, rng):
        conv.forward(rng.normal(size=(1, 2, 5, 5)))
        assert conv.mac_count() == 3 * 25 * 18
        assert conv.nominal_rf_size() == 18



def test_receptive_field_follows_input_shape(conv, rng):
    """The receptive-field table is rebuilt when the input shape changes:
    each shape gets its own in-bounds window, channel-major, then ky,
    then kx, and its partial sums still rebuild the output."""

    def expected(pos, size):
        oy, ox = divmod(pos % (size * size), size)
        return [
            c * size * size + iy * size + ix
            for c in range(2)
            for iy in range(oy - 1, oy + 2)
            for ix in range(ox - 1, ox + 2)
            if 0 <= iy < size and 0 <= ix < size
        ]

    for size in (8, 16, 8):
        out = conv.forward(rng.normal(size=(1, 2, size, size)))[0].ravel()
        plane = size * size
        for pos in (0, size - 1, size + 1, plane - 1, 2 * plane + 3 * size + 4):
            assert conv.receptive_field(pos).tolist() == expected(pos, size)
            total = conv.partial_sums(pos).sum() + conv.bias.data[pos // plane]
            assert total == pytest.approx(out[pos])
