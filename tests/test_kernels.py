"""Convolution kernels against brute-force oracles and finite differences."""
import numpy as np
import pytest

from mvcrop import kernels


def conv1d_oracle(x, w, b):
    """Quintuple-loop reference: x [B,T,Ci], w [Co,Ci,k], b [Co]."""
    bs, t_len, c_in = x.shape
    c_out, _, k = w.shape
    pad = k // 2
    out = np.zeros((bs, t_len, c_out))
    for n in range(bs):
        for t in range(t_len):
            for o in range(c_out):
                acc = b[o]
                for j in range(k):
                    s = t + j - pad
                    if 0 <= s < t_len:
                        for c in range(c_in):
                            acc += x[n, s, c] * w[o, c, j]
                out[n, t, o] = acc
    return out


# Ids name each kernel with its backend, numpy, the only one.
FORWARDS = [pytest.param(kernels.conv1d_forward, id="conv1d_forward_numpy")]
GRAD_PAIRS = [pytest.param(kernels.conv1d_grad_input, kernels.conv1d_grad_kernel,
                           id="conv1d_grad_input_numpy-conv1d_grad_kernel_numpy")]


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


class TestForward:
    @pytest.mark.parametrize("fwd", FORWARDS)
    def test_matches_oracle_on_random_shapes(self, fwd, rng):
        for bs, t_len, c_in, c_out, k in [(1, 12, 11, 64, 5), (3, 7, 2, 4, 3), (2, 5, 1, 3, 5)]:
            x = rng.standard_normal((bs, t_len, c_in))
            w = rng.standard_normal((c_out, c_in, k))
            b = rng.standard_normal(c_out)
            np.testing.assert_allclose(fwd(x, w, b), conv1d_oracle(x, w, b), atol=1e-12)

    @pytest.mark.parametrize("fwd", FORWARDS)
    def test_hand_example_zero_padding(self, fwd):
        x = np.array([[[1.0], [2.0], [3.0]]])
        w = np.ones((1, 1, 3))
        b = np.zeros(1)
        np.testing.assert_allclose(fwd(x, w, b)[0, :, 0], [3.0, 6.0, 5.0])

    @pytest.mark.parametrize("fwd", FORWARDS)
    def test_identity_kernel(self, fwd, rng):
        x = rng.standard_normal((2, 9, 3))
        w = np.zeros((3, 3, 3))
        for c in range(3):
            w[c, c, 1] = 1.0
        np.testing.assert_allclose(fwd(x, w, np.zeros(3)), x, atol=1e-15)


class TestGradientsAgainstDifferences:
    """Backward kernels equal finite differences of the forward kernel."""

    @pytest.mark.parametrize("gi,gk", GRAD_PAIRS)
    def test_grads_match_numeric(self, gi, gk, rng):
        x = rng.standard_normal((2, 6, 3))
        w = rng.standard_normal((4, 3, 3))
        b = rng.standard_normal(4)
        proj = rng.standard_normal((2, 6, 4))  # random scalarisation
        loss = lambda xx, ww: float((kernels.conv1d_forward(xx, ww, b) * proj).sum())

        gx = gi(proj, w)
        gw = gk(x, proj, 3)
        eps = 1e-6
        for arr, grad in [(x, gx), (w, gw)]:
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(0, flat.size, 7):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss(x, w)
                flat[i] = orig - eps
                lo = loss(x, w)
                flat[i] = orig
                assert abs((hi - lo) / (2 * eps) - gflat[i]) < 1e-5
