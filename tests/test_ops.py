import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelab import ops


class TestConvForward:
    def test_all_ones_3x3(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out = ops.conv2d_forward(x, w, stride=1, pad=0)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_zero_filter_gives_zero_channel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        w[1] = 0.0
        out = ops.conv2d_forward(x, w, stride=1, pad=1)
        assert np.all(out[0, 1] == 0.0)
        assert np.any(out[0, 0] != 0.0)

    def test_output_spatial_size(self):
        x = np.zeros((1, 1, 7, 9))
        w = np.zeros((2, 1, 3, 3))
        out = ops.conv2d_forward(x, w, stride=2, pad=1)
        assert out.shape == (1, 2, 4, 5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        fast = ops.conv2d_forward(x, w, stride=1, pad=1)
        slow = ops.conv2d_reference(x, w, stride=1, pad=1)
        assert np.max(np.abs(fast - slow)) < 1e-12

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (3, 2)])
    def test_matches_oracle_strided(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        fast = ops.conv2d_forward(x, w, stride=stride, pad=pad)
        slow = ops.conv2d_reference(x, w, stride=stride, pad=pad)
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_channel_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"3.*channels.*expect 2|mismatch"):
            ops.conv2d_forward(np.zeros((1, 3, 4, 4)), np.zeros((1, 2, 3, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        a = ops.conv2d_forward(x, w, 2, 1)
        b = ops.conv2d_forward(x, w, 2, 1)
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "call",
    [
        lambda x, w: ops.conv2d_forward(x, w, 1, 1),
        lambda x, w: ops.conv2d_backward(x, w, np.zeros((3, 4, 4)), 1, 1),
        lambda x, w: ops.conv2d_reference(x, w, 1, 1),
    ],
    ids=["forward", "backward", "reference"],
)
def test_single_image_input_rejected(call):
    # the conv ops take batches only; a single image is a batch of one
    with pytest.raises(ValueError, match="4-d input"):
        call(np.zeros((2, 4, 4)), np.zeros((3, 2, 3, 3)))


class TestConvBackward:
    def test_zero_grad_out(self):
        x = np.ones((1, 2, 4, 4))
        w = np.ones((3, 2, 3, 3))
        g = np.zeros((1, 3, 4, 4))
        gx, gw = ops.conv2d_backward(x, w, g, stride=1, pad=1)
        assert np.all(gx == 0) and np.all(gw == 0)

    def test_scalar_chain_rule(self):
        x = np.array([[[[2.0]]]])
        w = np.array([[[[3.0]]]])
        g = np.array([[[[5.0]]]])
        gx, gw = ops.conv2d_backward(x, w, g, stride=1, pad=0)
        assert gw[0, 0, 0, 0] == 5.0 * 2.0
        assert gx[0, 0, 0, 0] == 5.0 * 3.0

    def test_grad_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grad_out"):
            ops.conv2d_backward(
                np.zeros((1, 1, 4, 4)), np.zeros((2, 1, 3, 3)), np.zeros((1, 2, 9, 9)), 1, 1
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        g = rng.normal(size=(1, 3, 4, 4))
        gx, gw = ops.conv2d_backward(x, w, g, stride=1, pad=1)

        def f_x(t):
            return float((ops.conv2d_forward(t, w, 1, 1) * g).sum())

        def f_w(t):
            return float((ops.conv2d_forward(x, t, 1, 1) * g).sum())

        assert ops.max_relative_error(gx, ops.finite_difference_grad(f_x, x.copy())) < 1e-5
        assert ops.max_relative_error(gw, ops.finite_difference_grad(f_w, w.copy())) < 1e-5


class TestPatchMatrixHandoff:
    """A caller-built im2col patch matrix gives bit-identical conv results."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_supplied_cols_bit_equal(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        cols = ops.im2col(x, 3, stride, pad)
        before = cols.copy()
        out = ops.conv2d_forward(x, w, stride, pad)
        assert np.array_equal(ops.conv2d_forward(x, w, stride, pad, cols=cols), out)
        g = rng.normal(size=out.shape)
        gx, gw = ops.conv2d_backward(x, w, g, stride, pad)
        gx_c, gw_c = ops.conv2d_backward(x, w, g, stride, pad, cols=cols)
        assert np.array_equal(gx_c, gx) and np.array_equal(gw_c, gw)
        assert np.array_equal(cols, before)  # read, never written

    def test_skipped_input_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        g = rng.normal(size=(2, 3, 5, 5))
        gx, gw = ops.conv2d_backward(x, w, g, 1, 1, grad_input=False)
        assert gx is None
        assert np.array_equal(gw, ops.conv2d_backward(x, w, g, 1, 1)[1])

    def test_wrong_cols_shape_rejected(self):
        x = np.zeros((1, 2, 5, 5))
        w = np.zeros((3, 2, 3, 3))
        with pytest.raises(ValueError, match="cols shape"):
            ops.conv2d_forward(x, w, 1, 1, cols=ops.im2col(x, 3, 1, 0))

    def test_padding_leaves_input_untouched(self):
        x = np.random.default_rng(2).normal(size=(1, 2, 4, 4))
        before = x.copy()
        cols = ops.im2col(x, 3, 1, 1)
        assert np.array_equal(x, before)
        assert np.all(cols[:, 0, 0, :, 0, :] == 0.0)  # the top pad row


class TestElementwiseLayers:
    def test_relu_values(self):
        assert np.array_equal(ops.relu_forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_avgpool_constant_channel(self):
        x = np.full((1, 2, 3, 3), 7.5)
        assert np.array_equal(ops.global_avgpool_forward(x), [[7.5, 7.5]])

    @pytest.mark.parametrize("seed", range(3))
    def test_backwards_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        # relu: offset away from the kink where the derivative is undefined
        t = rng.normal(size=(4, 4))
        t = np.where(np.abs(t) < 1e-3, 0.1, t)
        g = rng.normal(size=(4, 4))
        an = ops.relu_backward(t, g)
        fd = ops.finite_difference_grad(lambda u: float((ops.relu_forward(u) * g).sum()), t.copy())
        assert ops.max_relative_error(an, fd) < 1e-5

        xp = rng.normal(size=(2, 3, 4, 4))
        gp = rng.normal(size=(2, 3))
        an = ops.global_avgpool_backward(xp, gp)
        fd = ops.finite_difference_grad(
            lambda u: float((ops.global_avgpool_forward(u) * gp).sum()), xp.copy()
        )
        assert ops.max_relative_error(an, fd) < 1e-5

        xl = rng.normal(size=(3, 5))
        wl = rng.normal(size=(4, 5))
        bl = rng.normal(size=(4,))
        gl = rng.normal(size=(3, 4))
        gx, gw, gb = ops.linear_backward(xl, wl, gl)
        for an, arr, f in [
            (gx, xl, lambda u: float((ops.linear_forward(u, wl, bl) * gl).sum())),
            (gw, wl, lambda u: float((ops.linear_forward(xl, u, bl) * gl).sum())),
            (gb, bl, lambda u: float((ops.linear_forward(xl, wl, u) * gl).sum())),
        ]:
            assert ops.max_relative_error(an, ops.finite_difference_grad(f, arr.copy())) < 1e-5


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = ops.softmax_cross_entropy(np.zeros((2, 7)), np.array([0, 3]))
        assert loss == pytest.approx(math.log(7), abs=1e-12)

    def test_saturated_correct_logit(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 60.0
        loss, _ = ops.softmax_cross_entropy(logits, np.array([2]))
        assert loss < 1e-12

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            ops.softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        _, grad = ops.softmax_cross_entropy(logits, labels)
        fd = ops.finite_difference_grad(
            lambda u: ops.softmax_cross_entropy(u, labels)[0], logits.copy(), eps=1e-6
        )
        assert np.max(np.abs(grad - fd)) < 1e-6


class TestSgdStep:
    def test_zero_grad_leaves_params(self):
        p = np.array([1.0, 2.0])
        v = np.zeros(2)
        ops.sgd_step([p], [np.zeros(2)], [v], lr=0.1)
        assert np.array_equal(p, [1.0, 2.0])

    def test_plain_gradient_descent(self):
        p = np.array([1.0])
        ops.sgd_step([p], [np.array([0.5])], [np.zeros(1)], lr=0.2)
        assert p[0] == pytest.approx(0.9)

    def test_momentum_matches_hand_unrolled_recurrence(self):
        lr, mom = 0.1, 0.9
        p = np.array([1.0])
        v = np.zeros(1)
        g1, g2 = np.array([0.3]), np.array([-0.2])
        ops.sgd_step([p], [g1], [v], lr=lr, momentum=mom)
        ops.sgd_step([p], [g2], [v], lr=lr, momentum=mom)
        # hand unroll: v1 = g1; p1 = 1 - lr*v1; v2 = mom*v1 + g2; p2 = p1 - lr*v2
        v1 = 0.3
        p1 = 1.0 - lr * v1
        v2 = mom * v1 + (-0.2)
        p2 = p1 - lr * v2
        assert p[0] == pytest.approx(p2, abs=1e-15)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            ops.sgd_step([np.zeros(1)], [np.zeros(1)], [np.zeros(1)], lr=0.0)
        with pytest.raises(ValueError):
            ops.sgd_step([np.zeros(1)], [np.zeros(1)], [np.zeros(1)], lr=0.1, momentum=1.0)


class TestFiniteDifference:
    def test_sum_gives_ones(self):
        grad = ops.finite_difference_grad(lambda t: float(t.sum()), np.zeros((2, 3)))
        assert np.allclose(grad, 1.0, atol=1e-9)

    def test_square_at_three(self):
        grad = ops.finite_difference_grad(lambda t: float((t * t).sum()), np.array([3.0]))
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            ops.finite_difference_grad(lambda t: 0.0, np.zeros(1), eps=0.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
def test_relu_is_idempotent_and_nonnegative(values):
    x = np.array(values)
    out = ops.relu_forward(x)
    assert np.all(out >= 0)
    assert np.array_equal(ops.relu_forward(out), out)
