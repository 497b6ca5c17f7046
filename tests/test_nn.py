import math
import struct
import sys
import threading
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from fullpose import nn, verify
from fullpose.codec import BoxTargets
from fullpose.head import HeadOutput
from fullpose.nn import (
    _ADAM_BLOCK,
    DenseLayer,
    LabelOutOfRangeError,
    MlpParams,
    ProbabilityOutOfRangeError,
    ShapeMismatchError,
    adam_step,
    composite_box_loss,
    cross_entropy,
    focal_loss,
    grad_check,
    init_adam_state,
    init_mlp,
    layer_views,
    load_mlps,
    loss_rows,
    mlp_backward,
    mlp_forward,
    save_mlps,
    sigmoid,
    smooth_l1,
)

import oracles  # noqa: E402


class TestMlpForward:
    def test_identity_network(self):
        params = MlpParams([DenseLayer(np.eye(3), np.zeros(3), "none")])
        x = np.random.default_rng(0).standard_normal((4, 3))
        y, _ = mlp_forward(params, x)
        assert np.array_equal(y, x)

    def test_single_affine_layer(self):
        params = MlpParams([DenseLayer(np.array([[2.0]]), np.array([1.0]), "none")])
        y, _ = mlp_forward(params, np.array([[3.0]]))
        assert y[0, 0] == 7.0

    def test_matches_naive_chain(self):
        rng = np.random.default_rng(1)
        params = init_mlp((4, 6, 5, 2), rng)
        x = rng.standard_normal((7, 4))
        y, _ = mlp_forward(params, x)
        a = x
        for layer in params.layers:
            z = a @ layer.weights.T + layer.bias
            a = np.maximum(z, 0) if layer.activation == "relu" else z
        assert np.abs(y - a).max() < 1e-12

    def test_shape_mismatch(self):
        params = init_mlp((4, 2), np.random.default_rng(2))
        with pytest.raises(ShapeMismatchError):
            mlp_forward(params, np.zeros((3, 5)))


class TestInitMlp:
    @pytest.mark.parametrize("output_activation", ["none", "relu"])
    def test_hidden_relu_output_as_given(self, output_activation):
        params = init_mlp((4, 6, 5, 2), np.random.default_rng(3),
                          output_activation=output_activation)
        assert [layer.activation for layer in params.layers] == ["relu", "relu", output_activation]
        assert [layer.weights.shape for layer in params.layers] == [(6, 4), (5, 6), (2, 5)]


def _nan_slots(params):
    return [(np.full(layer.weights.shape, np.nan), np.full(layer.bias.shape, np.nan))
            for layer in params.layers]


class TestLayerViews:
    def test_views_tile_the_vector_in_order(self):
        rng = np.random.default_rng(40)
        mlps = [init_mlp((3, 4, 2), rng), init_mlp((2, 1), rng)]
        vec = np.arange(4 * 3 + 4 + 2 * 4 + 2 + 1 * 2 + 1, dtype=np.float64)
        views = layer_views(vec, mlps)
        assert [[(w.shape, b.shape) for w, b in pairs] for pairs in views] == [
            [((4, 3), (4,)), ((2, 4), (2,))], [((1, 2), (1,))]]
        flat = np.concatenate([a.ravel() for pairs in views for pair in pairs for a in pair])
        assert np.array_equal(flat, vec)
        views[1][0][1][0] = -1.0
        assert vec[-1] == -1.0

    @pytest.mark.parametrize("size", [25, 27])
    def test_wrong_length_rejected(self, size):
        with pytest.raises(ShapeMismatchError):
            layer_views(np.zeros(size), [init_mlp((3, 4, 2), np.random.default_rng(42))])


class TestMlpBackward:
    def test_linear_layer_weight_gradient(self):
        rng = np.random.default_rng(3)
        params = MlpParams([DenseLayer(rng.standard_normal((2, 3)), np.zeros(2), "none")])
        x = rng.standard_normal((5, 3))
        dy = rng.standard_normal((5, 2))
        _, cache = mlp_forward(params, x)
        grads = _nan_slots(params)
        mlp_backward(params, cache, grads, dy, input_grad=True)
        assert np.abs(grads[0][0] - dy.T @ x).max() < 1e-12
        assert np.abs(grads[0][1] - dy.sum(0)).max() < 1e-12

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(4)
        params = init_mlp((3, 4, 2), rng)
        x = rng.standard_normal((6, 3))
        _, cache = mlp_forward(params, x)
        grads = _nan_slots(params)
        dx = mlp_backward(params, cache, grads, np.zeros((6, 2)), input_grad=True)
        assert not dx.any()
        assert all(not dw.any() and not db.any() for dw, db in grads)

    def test_dy_shape_mismatch(self):
        rng = np.random.default_rng(6)
        params = init_mlp((3, 4, 2), rng)
        _, cache = mlp_forward(params, rng.standard_normal((6, 3)))
        with pytest.raises(ShapeMismatchError):
            mlp_backward(params, cache, _nan_slots(params), np.zeros((5, 2)), input_grad=True)

    def test_finite_difference(self):
        assert verify.check_mlp(np.random.default_rng(5)) < 1e-6

    @pytest.mark.parametrize("output_activation", ["none", "relu"])
    def test_matches_oracle_and_leaves_dy_unchanged(self, output_activation):
        rng = np.random.default_rng(12)
        params = init_mlp((5, 7, 6, 3), rng, output_activation=output_activation)
        x = rng.standard_normal((9, 5))
        dy = rng.standard_normal((9, 3))
        dy_bytes = dy.tobytes()
        _, cache = mlp_forward(params, x)
        grads = _nan_slots(params)
        dx = mlp_backward(params, cache, grads, dy, input_grad=True)
        assert dy.tobytes() == dy_bytes
        want_dx, want = oracles.mlp_backward_oracle(params, cache, dy)
        assert dx.tobytes() == want_dx.tobytes()
        for (dw, db), (want_dw, want_db) in zip(grads, want):
            assert dw.tobytes() == want_dw.tobytes()
            assert db.tobytes() == want_db.tobytes()

    def test_relu_gradient_keeps_negative_zeros(self, monkeypatch):
        # every sum downstream starts from +0.0, so the sign of a zeroed
        # entry is seen only in the relu gradient itself: catch it where
        # the weight gradient is formed from it
        params = MlpParams([DenseLayer(np.array([[-1.0, 0.0], [0.5, 1.0]]),
                                       np.array([-0.5, 0.25]), "relu")])
        x = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.5]])
        dy = np.array([[-1.0, 2.0], [3.0, -0.5], [-2.0, 1.0]])
        _, cache = mlp_forward(params, x)
        seen = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            seen.append(a.T.copy())
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        mlp_backward(params, cache, _nan_slots(params), dy, input_grad=True)
        monkeypatch.undo()
        z = cache[0][1]
        want = dy * (z > 0.0).astype(np.float64)
        assert np.signbit(want[z <= 0.0]).any() and (want[z <= 0.0] == 0.0).all()
        assert [dz.tobytes() for dz in seen] == [want.tobytes()]

    def test_skipped_input_gradient_keeps_parameter_gradients(self):
        rng = np.random.default_rng(13)
        params = init_mlp((6, 8, 5, 4), rng, output_activation="relu")
        x = rng.standard_normal((10, 6))
        dy = rng.standard_normal((10, 4))
        _, cache = mlp_forward(params, x)
        with_dx, without_dx = _nan_slots(params), _nan_slots(params)
        dx = mlp_backward(params, cache, with_dx, dy, input_grad=True)
        assert mlp_backward(params, cache, without_dx, dy, input_grad=False) is None
        assert dx.shape == x.shape
        for (dw, db), (dw2, db2) in zip(with_dx, without_dx):
            assert dw.tobytes() == dw2.tobytes()
            assert db.tobytes() == db2.tobytes()
            assert not np.isnan(dw).any() and not np.isnan(db).any()


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation_without_overflow(self):
        vals = sigmoid(np.array([800.0, -800.0]))
        assert vals[0] == 1.0 and vals[1] == 0.0

    def test_finite_difference(self):
        assert verify.check_sigmoid(np.random.default_rng(11)) < 1e-6


class TestSmoothL1:
    def test_zero_at_match(self):
        loss, grad = smooth_l1(np.array([2.0]), np.array([2.0]))
        assert loss[0] == 0.0 and grad[0] == 0.0

    def test_quadratic_branch(self):
        loss, grad = smooth_l1(np.array([0.5]), np.array([0.0]))
        assert abs(loss[0] - 0.125) < 1e-15
        assert abs(grad[0] - 0.5) < 1e-15

    def test_linear_branch_with_clamped_gradient(self):
        loss, grad = smooth_l1(np.array([2.0]), np.array([0.0]))
        assert abs(loss[0] - 1.5) < 1e-15
        assert grad[0] == 1.0

    def test_finite_difference(self):
        assert verify.check_smooth_l1(np.random.default_rng(12)) < 1e-6


class TestFocal:
    def test_confident_correct_goes_to_zero(self):
        loss, _ = focal_loss(np.array([0.999999]), np.array([1]))
        assert loss[0] < 1e-10

    def test_hand_value(self):
        loss, _ = focal_loss(np.array([0.9]), np.array([1]))
        want = -0.25 * 0.01 * math.log(0.9)
        assert abs(loss[0] - want) < 1e-12
        assert abs(loss[0] - 2.6341e-4) < 1e-8

    def test_reduces_to_half_bce(self):
        for y in (0, 1):
            for p in (0.2, 0.5, 0.9):
                loss, _ = focal_loss(np.array([p]), np.array([y]), alpha=0.5, gamma_f=0.0)
                bce = -math.log(p if y == 1 else 1.0 - p)
                assert abs(loss[0] - 0.5 * bce) < 1e-12

    def test_probability_range(self):
        with pytest.raises(ProbabilityOutOfRangeError):
            focal_loss(np.array([1.0]), np.array([1]))

    def test_finite_difference(self):
        assert verify.check_focal(np.random.default_rng(13)) < 1e-6


class TestCrossEntropy:
    def test_uniform_logits(self):
        for c in (2, 5, 11):
            loss, _ = cross_entropy(np.zeros((3, c)), [0, 1, c - 1])
            assert np.abs(loss - math.log(c)).max() < 1e-12

    def test_confident_logits(self):
        loss, _ = cross_entropy(np.array([[10.0, 0.0]]), [0])
        assert abs(loss[0] - math.log(1 + math.exp(-10))) < 1e-15
        assert abs(loss[0] - 4.54e-5) < 1e-7

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])
        _, grad = cross_entropy(logits, [1, 2])
        soft = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        soft[[0, 1], [1, 2]] -= 1.0
        assert np.abs(grad - soft).max() < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError):
            cross_entropy(np.zeros((2, 3)), [0, 3])

    @pytest.mark.parametrize("logits, labels", [
        (np.zeros(3), 0), (np.zeros((2, 3)), [0]), (np.zeros((2, 3)), 0),
    ], ids=["1-d-logits", "short-labels", "scalar-label"])
    def test_shape_mismatch(self, logits, labels):
        with pytest.raises(ShapeMismatchError):
            cross_entropy(logits, labels)

    def test_finite_difference(self):
        assert verify.check_cross_entropy(np.random.default_rng(14)) < 1e-6


def _targets_for(n, rng, n_bins=12):
    fg = np.ones(n, dtype=bool)
    fg[0] = False  # one background row
    ground = (rng.random(n) < 0.5).astype(np.intp)
    ground[~fg] = 0
    return BoxTargets(
        class_label=np.where(fg, 1, 0),
        ground_label=ground,
        yaw_bin=rng.integers(0, n_bins, n),
        yaw_residual=rng.uniform(0.5, 1.5, n),
        tilt=rng.uniform(-0.3, 0.3, (n, 2)),
        log_dims=rng.uniform(-0.5, 1.5, (n, 3)),
        center_offset=rng.uniform(-1, 1, (n, 3)),
        foreground=fg,
    )


def _output_for(targets, rng, n_bins=12, exact=False):
    n = len(targets)
    jitter = (lambda shape: 0.0) if exact else (lambda shape: rng.uniform(-0.4, 0.4, shape))
    class_logits = rng.standard_normal((n, 2))
    if exact:
        class_logits = np.where(
            np.eye(2)[targets.class_label].astype(bool), 20.0, -20.0
        )
    return HeadOutput(
        class_logits=class_logits,
        s_g=np.clip(targets.ground_label + jitter((n,)) * 0.5, 0.01, 0.99)
        if not exact
        else np.clip(targets.ground_label.astype(float), 0.01, 0.99),
        yaw_bin_logits=rng.standard_normal((n, n_bins)),
        yaw_residual=targets.yaw_residual + jitter((n,)),
        tilt=targets.tilt + jitter((n, 2)),
        log_dims=targets.log_dims + jitter((n, 3)),
        center_offset=targets.center_offset + jitter((n, 3)),
    )


def _composite_oracle(out, targets):
    """Scalar re-derivation of every loss term, point by point."""
    n = len(targets)
    fg = [i for i in range(n) if targets.foreground[i]]
    slope = [i for i in fg if targets.ground_label[i] > 0]
    n_p, n_s = len(fg), len(slope)
    if n_p == 0:
        return 0.0

    def sl1(p, t):
        d = p - t
        return 0.5 * d * d if abs(d) < 1.0 else abs(d) - 0.5

    def ce(logits, label):
        m = max(logits)
        return m + math.log(sum(math.exp(v - m) for v in logits)) - logits[label]

    def focal(p, y):
        p_t = p if y == 1 else 1.0 - p
        a_t = 0.25 if y == 1 else 0.75
        return -a_t * (1 - p_t) ** 2 * math.log(p_t)

    cls = sum(ce(list(out.class_logits[i]), targets.class_label[i]) for i in fg) / n_p
    dim = sum(sl1(out.log_dims[i][k], targets.log_dims[i][k]) for i in fg for k in range(3)) / n_p
    posi = sum(sl1(out.center_offset[i][k], targets.center_offset[i][k]) for i in fg for k in range(3)) / n_p
    seg = sum(focal(out.s_g[i], targets.ground_label[i]) for i in fg) / n_p
    tilt = (
        sum(sl1(out.tilt[i][k], targets.tilt[i][k]) for i in slope for k in range(2)) / n_s
        if n_s
        else 0.0
    )
    ybin = sum(ce(list(out.yaw_bin_logits[i]), targets.yaw_bin[i]) for i in fg) / n_p
    yres = sum(sl1(out.yaw_residual[i], targets.yaw_residual[i]) for i in fg) / n_p
    return cls + dim + posi + (seg + tilt) + (ybin + yres)


def _rows(targets, out):
    """The loss rows of ``targets``, with zeroed gradient buffers shaped like ``out``."""
    return loss_rows(targets, replace(out, **{f.name: np.zeros_like(getattr(out, f.name))
                                               for f in fields(out)}))


class TestCompositeLoss:
    def test_matching_predictions_zero_regression_terms(self):
        rng = np.random.default_rng(15)
        targets = _targets_for(8, rng)
        out = _output_for(targets, rng, exact=True)
        _, bd = composite_box_loss(out, _rows(targets, out))
        assert bd.terms["dim"] == 0.0
        assert bd.terms["posi"] == 0.0
        assert bd.terms["tilt"] == 0.0
        assert bd.terms["yaw_res"] == 0.0
        assert bd.terms["cls"] < 1e-8

    def test_no_sloped_points_tilt_term_zero(self):
        rng = np.random.default_rng(16)
        targets = _targets_for(6, rng)
        targets.ground_label[:] = 0
        out = _output_for(targets, rng)
        loss, bd = composite_box_loss(out, _rows(targets, out))
        assert bd.terms["tilt"] == 0.0
        assert math.isfinite(loss)

    def test_all_background_batch_zero_loss(self):
        rng = np.random.default_rng(17)
        targets = _targets_for(5, rng)
        targets.foreground[:] = False
        targets.ground_label[:] = 0
        out = _output_for(targets, rng)
        loss, bd = composite_box_loss(out, _rows(targets, out))
        assert loss == 0.0
        assert type(bd.grad) is HeadOutput
        for f in fields(out):
            grad = getattr(bd.grad, f.name)
            assert grad.shape == getattr(out, f.name).shape
            assert not grad.any()

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(18)
        targets = _targets_for(8, rng)
        out = _output_for(targets, rng)
        loss, _ = composite_box_loss(out, _rows(targets, out))
        assert abs(loss - _composite_oracle(out, targets)) < 1e-10

    def test_additivity_of_terms(self):
        rng = np.random.default_rng(19)
        targets = _targets_for(8, rng)
        out = _output_for(targets, rng)
        rows = _rows(targets, out)
        loss, bd = composite_box_loss(out, rows)
        silenced = _output_for(targets, rng)
        silenced.log_dims = targets.log_dims.copy()
        loss2, bd2 = composite_box_loss(silenced, rows)
        assert bd2.terms["dim"] == 0.0
        for key in bd.terms:
            if key != "dim":
                assert abs(bd2.terms[key] - composite_box_loss(silenced, rows)[1].terms[key]) < 1e-15

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            targets = _targets_for(6, rng)
            out = _output_for(targets, rng)
            loss, bd = composite_box_loss(out, _rows(targets, out))
            assert loss >= 0.0
            assert all(v >= 0.0 for v in bd.terms.values())
            t = bd.terms
            assert loss == (t["cls"] + t["dim"] + t["posi"] + (t["seg"] + t["tilt"])
                            + (t["yaw_bin"] + t["yaw_res"]))

    def test_finite_difference(self):
        assert verify.check_composite_loss(np.random.default_rng(21)) < 1e-6


def _frame(rng, n, fg, sloped, n_bins=12, classes=3):
    """Targets on ``n`` rows with foreground rows ``fg`` and ground label 1 on
    ``sloped`` (background rows among them must not count as sloped)."""
    foreground = np.zeros(n, dtype=bool)
    foreground[list(fg)] = True
    ground = np.zeros(n, dtype=np.intp)
    ground[list(sloped)] = 1
    return BoxTargets(
        class_label=np.where(foreground, rng.integers(1, classes, n), 0),
        ground_label=ground,
        yaw_bin=rng.integers(0, n_bins, n),
        yaw_residual=rng.uniform(0.5, 1.5, n),
        tilt=rng.uniform(-0.3, 0.3, (n, 2)),
        log_dims=rng.uniform(-0.5, 1.5, (n, 3)),
        center_offset=rng.uniform(-1, 1, (n, 3)),
        foreground=foreground,
    )


def _outputs(targets, rng, n_bins=12, classes=3, s_g=None):
    # regression outputs 0-2 away from their targets: both smooth-L1 branches
    n = len(targets)

    def near(a):
        return a + rng.uniform(-2.0, 2.0, a.shape)

    return HeadOutput(
        class_logits=rng.standard_normal((n, classes)) * 3.0,
        s_g=rng.uniform(0.01, 0.99, n) if s_g is None else np.asarray(s_g, dtype=np.float64),
        yaw_bin_logits=rng.standard_normal((n, n_bins)) * 3.0,
        yaw_residual=near(targets.yaw_residual),
        tilt=near(targets.tilt),
        log_dims=near(targets.log_dims),
        center_offset=near(targets.center_offset),
    )


def _loss_bits(loss, bd) -> tuple:
    return (
        struct.pack("<d", loss),
        {key: struct.pack("<d", val) for key, val in bd.terms.items()},
        type(bd.grad),
        {f.name: (getattr(bd.grad, f.name).dtype.str, getattr(bd.grad, f.name).shape,
                  getattr(bd.grad, f.name).tobytes()) for f in fields(bd.grad)},
    )


def _assert_repeats_oracle(targets, outs):
    """Every output, run in turn on one frame's loss rows, gives the oracle's bits."""
    rows = _rows(targets, outs[0])
    for out in outs:
        got = _loss_bits(*composite_box_loss(out, rows))
        assert got == _loss_bits(*oracles.composite_box_loss_oracle(out, targets))


S_G_EDGES = [0.0, 1.0, 1e-12, 1.0 - 1e-12, 5e-13, 1.0 - 5e-13, 2e-12, 1.0 - 2e-12,
             math.nextafter(1e-12, 0.0), math.nextafter(1e-12, 1.0),
             math.nextafter(1.0 - 1e-12, 0.0), math.nextafter(1.0 - 1e-12, 1.0)]


class TestLossRowsAgainstOracle:
    """The per-frame loss rows against the per-call loss, bit for bit."""

    @pytest.mark.parametrize("fg, sloped", [
        ((), (1, 4)),
        ((0, 2, 3, 6), ()),
        ((0, 2, 3, 6), (1, 5)),
        (range(8), (0, 3, 7)),
        (range(8), range(8)),
        ((5,), (5,)),
    ], ids=["all-background", "no-sloped", "sloped-only-background", "all-foreground",
            "all-sloped", "one-row"])
    def test_foreground_sets(self, fg, sloped):
        rng = np.random.default_rng(40)
        targets = _frame(rng, 8, fg, sloped)
        _assert_repeats_oracle(targets, [_outputs(targets, rng) for _ in range(3)])

    @pytest.mark.parametrize("n_bins", range(2, 17))
    def test_yaw_bin_counts(self, n_bins):
        rng = np.random.default_rng(41 + n_bins)
        targets = _frame(rng, 9, (0, 1, 4, 5, 8), (1, 2, 8), n_bins=n_bins)
        _assert_repeats_oracle(targets, [_outputs(targets, rng, n_bins=n_bins) for _ in range(3)])

    def test_saturated_and_near_saturated_scores(self):
        rng = np.random.default_rng(42)
        n = len(S_G_EDGES)
        targets = _frame(rng, n, range(n), range(0, n, 2))
        outs = [_outputs(targets, rng, s_g=S_G_EDGES), _outputs(targets, rng),
                _outputs(targets, rng, s_g=S_G_EDGES[::-1])]
        _assert_repeats_oracle(targets, outs)

    def test_background_buffer_rows_stay_zero(self):
        rng = np.random.default_rng(43)
        targets = _frame(rng, 6, (1, 2, 4), (2, 3))
        outs = [_outputs(targets, rng) for _ in range(3)]
        rows = _rows(targets, outs[0])
        for out in outs:
            _, bd = composite_box_loss(out, rows)
            for f in fields(bd.grad):
                assert not getattr(bd.grad, f.name)[[0, 3, 5]].any()
            # tilt is supervised on sloped foreground rows only
            assert not bd.grad.tilt[[1, 4]].any() and bd.grad.tilt[2].all()

    @pytest.mark.parametrize("field_name, value", [("class_label", 3), ("yaw_bin", 12),
                                                   ("class_label", -1)])
    def test_labels_checked_once_with_the_oracle_message(self, field_name, value):
        rng = np.random.default_rng(44)
        targets = _frame(rng, 5, (0, 2, 3), (2,))
        getattr(targets, field_name)[4] = value  # a background row goes unchecked
        out = _outputs(targets, rng)
        assert _loss_bits(*composite_box_loss(out, _rows(targets, out))) == \
            _loss_bits(*oracles.composite_box_loss_oracle(out, targets))
        getattr(targets, field_name)[2] = value
        with pytest.raises(LabelOutOfRangeError) as want:
            oracles.composite_box_loss_oracle(out, targets)
        with pytest.raises(LabelOutOfRangeError) as got:
            _rows(targets, out)
        assert str(got.value) == str(want.value)

    def test_outputs_of_another_shape_rejected(self):
        rng = np.random.default_rng(45)
        targets = _frame(rng, 5, (0, 2), (2,))
        rows = _rows(targets, _outputs(targets, rng))
        for other in (_frame(rng, 6, (0, 2), (2,)), targets):
            out = _outputs(other, rng, n_bins=12 if other is not targets else 11)
            with pytest.raises(ShapeMismatchError):
                composite_box_loss(out, rows)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        param = np.array([1.0, 2.0])
        state = init_adam_state(param)
        adam_step(param, np.zeros(2), state, lr=0.1)
        assert np.array_equal(param, [1.0, 2.0])

    def test_single_scalar_hand_step(self):
        param = np.array([1.0])
        state = init_adam_state(param)
        adam_step(param, np.array([0.5]), state, lr=0.1)
        m_hat = (0.1 * 0.5) / (1 - 0.9)
        v_hat = (0.001 * 0.25) / (1 - 0.999)
        want = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(param[0] - want) < 1e-15

    def test_state_of_another_shape_rejected(self):
        state = init_adam_state(np.zeros(2))
        param = np.ones(3)
        with pytest.raises(ShapeMismatchError):
            adam_step(param, np.full(3, 0.5), state)
        assert state.t == 0
        assert np.array_equal(param, np.ones(3))

    def test_deterministic_across_runs(self):
        def run():
            rng = np.random.default_rng(22)
            param = rng.standard_normal((2, 3))
            state = init_adam_state(param)
            for _ in range(50):
                adam_step(param, rng.standard_normal((2, 3)), state, lr=0.01)
            return param

        assert run().tobytes() == run().tobytes()


def _adam_oracle_run(arrays, grad_seq, lr=0.01):
    params = [a.copy() for a in arrays]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t, grads in enumerate(grad_seq, start=1):
        oracles.adam_step_oracle(params, grads, m, v, t, lr)
    return params, m, v


def _adam_run(start, grad_seq, lr=0.01):
    param = start.copy()
    state = init_adam_state(param)
    for grad in grad_seq:
        adam_step(param, grad, state, lr=lr)
    return param, state.m, state.v


class TestAdamBlocks:
    """The blocked update repeats the whole-array formula bit for bit."""

    STEPS = 6

    @pytest.mark.parametrize("shape", [
        (1,), (_ADAM_BLOCK - 1,), (_ADAM_BLOCK,), (_ADAM_BLOCK + 1,), (512, 256),
    ], ids=["one", "block-1", "block", "block+1", "512x256"])
    def test_matches_oracle(self, shape):
        rng = np.random.default_rng(30)
        start = rng.standard_normal(shape)
        # a spread of magnitudes, exact zeros and signed zeros in the gradients
        grad_seq = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, shape)
                    for _ in range(self.STEPS)]
        grad_seq[1].flat[::7] = 0.0
        grad_seq[2].flat[::5] = -0.0
        got = _adam_run(start, grad_seq)
        want = _adam_oracle_run([start], [[g] for g in grad_seq])
        for got_array, (want_array,) in zip(got, want):
            assert got_array.tobytes() == want_array.tobytes()

    def test_flat_vector_matches_arrays_one_by_one(self):
        rng = np.random.default_rng(31)
        shapes = [(3, 4), (_ADAM_BLOCK + 5,), (1,), (40, 900), (7,)]
        arrays = [rng.standard_normal(s) for s in shapes]
        grad_seq = [[rng.standard_normal(s) for s in shapes] for _ in range(self.STEPS)]
        one_by_one = [_adam_run(a, [grads[i] for grads in grad_seq])[0]
                      for i, a in enumerate(arrays)]
        vector, _, _ = _adam_run(np.concatenate([a.ravel() for a in arrays]),
                                 [np.concatenate([g.ravel() for g in grads]) for grads in grad_seq])
        want, _, _ = _adam_oracle_run(arrays, grad_seq)
        assert vector.tobytes() == np.concatenate([a.ravel() for a in want]).tobytes()
        for got, ref in zip(one_by_one, want):
            assert got.tobytes() == ref.tobytes()

    def test_transposed_gradient_matches_oracle(self):
        rng = np.random.default_rng(32)
        start = rng.standard_normal((30, 20))
        grad_seq = [rng.standard_normal((20, 30)).T for _ in range(self.STEPS)]
        got, _, _ = _adam_run(start, grad_seq)
        want, _, _ = _adam_oracle_run([start], [[g] for g in grad_seq])
        assert got.tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("view", [
        lambda base: base.T, lambda base: base[:, ::2], lambda base: base[::3],
    ], ids=["transposed", "column-strided", "row-strided"])
    def test_non_contiguous_param_rejected_untouched(self, view):
        base = np.random.default_rng(33).standard_normal((6, 8))
        before = base.tobytes()
        param = view(base)
        state = init_adam_state(param)
        with pytest.raises(ShapeMismatchError, match="C-contiguous"):
            adam_step(param, np.ones(param.shape), state, lr=0.1)
        assert base.tobytes() == before
        assert state.t == 0

    def test_gradient_shape_mismatch(self):
        param = np.zeros((2, 3))
        state = init_adam_state(param)
        with pytest.raises(ShapeMismatchError):
            adam_step(param, np.zeros(6), state)
        assert state.t == 0
        assert not param.any()


@pytest.fixture
def helper_on(monkeypatch):
    """The helper thread's gate passes on any host: one CPU is enough."""
    monkeypatch.setattr(nn, "_HELPER_MIN_CPUS", 1)


def _large_backward_case(seed):
    # layer 0's dW product is 130 x 512 x 256 multiply-adds, over the
    # helper's gate; layer 1's (130 x 8 x 512) stays under it
    rng = np.random.default_rng(seed)
    params = init_mlp((256, 512, 8), rng)
    assert 130 * 512 * 256 >= nn._HELPER_MIN_MACS > 130 * 8 * 512
    _, cache = mlp_forward(params, rng.standard_normal((130, 256)))
    return params, cache, rng.standard_normal((130, 8))


class _Boom(Exception):
    pass


def _spy(fn, raise_off_main=False):
    """``fn`` and the list of the threads that called it; with
    ``raise_off_main``, a call off the main thread raises _Boom instead."""
    threads = []

    def spy(*args, **kwargs):
        threads.append(threading.get_ident())
        if raise_off_main and threading.current_thread() is not threading.main_thread():
            raise _Boom("raised on the helper thread")
        return fn(*args, **kwargs)

    return spy, threads


def _helper_idle() -> bool:
    helper = nn._helper_thread
    return not helper._lock.locked() and helper._done.empty() and helper._todo.empty()


class TestHelperThread:
    """A large dW product and half of a large Adam step run on one helper
    thread; every float is the same as when the caller runs them."""

    def test_backward_matches_inline_bit_for_bit(self, helper_on, monkeypatch):
        params, cache, dy = _large_backward_case(50)
        spy, threads = _spy(np.matmul)
        monkeypatch.setattr(np, "matmul", spy)
        grads = _nan_slots(params)
        dx = mlp_backward(params, cache, grads, dy, input_grad=True)
        # the large product ran off the main thread, the small one on it
        assert threads[0] == threading.main_thread().ident != threads[1]
        monkeypatch.setattr(nn, "_helper", lambda: None)
        want = _nan_slots(params)
        want_dx = mlp_backward(params, cache, want, dy, input_grad=True)
        assert dx.tobytes() == want_dx.tobytes()
        for (dw, db), (want_dw, want_db) in zip(grads, want):
            assert dw.tobytes() == want_dw.tobytes()
            assert db.tobytes() == want_db.tobytes()

    def test_adam_matches_oracle_bit_for_bit(self, helper_on, monkeypatch):
        shape = (3 * _ADAM_BLOCK + 5,)
        rng = np.random.default_rng(51)
        start = rng.standard_normal(shape)
        grad_seq = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, shape)
                    for _ in range(4)]
        spy, threads = _spy(nn._adam_blocks)
        monkeypatch.setattr(nn, "_adam_blocks", spy)
        got = _adam_run(start, grad_seq)
        want = _adam_oracle_run([start], [[g] for g in grad_seq])
        for got_array, (want_array,) in zip(got, want):
            assert got_array.tobytes() == want_array.tobytes()
        assert len(set(threads)) == 2

    def test_backward_error_on_helper_keeps_its_type(self, helper_on, monkeypatch):
        params, cache, dy = _large_backward_case(52)
        want = _nan_slots(params)
        want_dx = mlp_backward(params, cache, want, dy, input_grad=True)
        spy, threads = _spy(np.matmul, raise_off_main=True)
        monkeypatch.setattr(np, "matmul", spy)
        with pytest.raises(_Boom, match="helper thread"):
            mlp_backward(params, cache, _nan_slots(params), dy, input_grad=True)
        assert len(set(threads)) == 2
        assert _helper_idle()
        monkeypatch.undo()
        monkeypatch.setattr(nn, "_HELPER_MIN_CPUS", 1)
        grads = _nan_slots(params)
        dx = mlp_backward(params, cache, grads, dy, input_grad=True)
        assert dx.tobytes() == want_dx.tobytes()
        assert all(dw.tobytes() == w.tobytes() for (dw, _), (w, _) in zip(grads, want))

    def test_caller_error_waits_for_the_helper(self, helper_on):
        params, cache, dy = _large_backward_case(53)
        grads = _nan_slots(params)
        # dz @ W fails on the caller while the helper forms layer 0's dW
        params.layers[0].weights = params.layers[0].weights[:-1].copy()
        with pytest.raises(ValueError):
            mlp_backward(params, cache, grads, dy, input_grad=True)
        assert _helper_idle()
        assert not np.isnan(grads[0][0]).any()

    def test_adam_error_on_helper_keeps_its_type(self, helper_on, monkeypatch):
        param = np.zeros(2 * _ADAM_BLOCK)
        state = init_adam_state(param)
        spy, threads = _spy(nn._adam_blocks, raise_off_main=True)
        monkeypatch.setattr(nn, "_adam_blocks", spy)
        with pytest.raises(_Boom, match="helper thread"):
            adam_step(param, np.ones_like(param), state, lr=0.1)
        assert len(set(threads)) == 2
        assert _helper_idle()
        monkeypatch.undo()
        got = _adam_run(param, [np.ones_like(param)] * 2)
        want = _adam_oracle_run([param], [[np.ones_like(param)]] * 2)
        for got_array, (want_array,) in zip(got, want):
            assert got_array.tobytes() == want_array.tobytes()

    def test_concurrent_callers_get_their_own_results(self, helper_on):
        # more callers than cores and a short switch interval: a caller that
        # read another's hand-off, or waited on it, would differ or hang
        params, cache, dy = _large_backward_case(55)
        want = _nan_slots(params)
        want_dx = mlp_backward(params, cache, want, dy, input_grad=True)
        failures = []

        def caller():
            for _ in range(10):
                grads = _nan_slots(params)
                dx = mlp_backward(params, cache, grads, dy, input_grad=True)
                if dx.tobytes() != want_dx.tobytes() or any(
                        dw.tobytes() != w.tobytes() for (dw, _), (w, _) in zip(grads, want)):
                    failures.append(threading.get_ident())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert _helper_idle()

    def test_helper_keeps_no_array_of_a_finished_call(self, helper_on):
        param = np.zeros(2 * _ADAM_BLOCK)
        grad = np.ones_like(param)
        state = init_adam_state(param)
        adam_step(param, grad, state, lr=0.1)
        assert nn._helper_thread is not None
        refs = [weakref.ref(a) for a in (param, grad, state.m, state.v, state.work)]
        del param, grad, state
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_small_calls_start_no_thread(self, helper_on, monkeypatch):
        monkeypatch.setattr(nn, "_helper_thread", None)
        before = threading.active_count()
        rng = np.random.default_rng(54)
        params = init_mlp((64, 128, 8), rng)
        _, cache = mlp_forward(params, rng.standard_normal((100, 64)))
        mlp_backward(params, cache, _nan_slots(params), rng.standard_normal((100, 8)),
                     input_grad=True)
        _adam_run(np.zeros(2 * _ADAM_BLOCK - 1), [np.ones(2 * _ADAM_BLOCK - 1)])
        assert nn._helper_thread is None
        assert threading.active_count() == before

    def test_one_cpu_runs_inline(self, monkeypatch):
        monkeypatch.setattr(nn, "_helper_thread", None)
        monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: {0})
        _adam_run(np.zeros(4 * _ADAM_BLOCK), [np.ones(4 * _ADAM_BLOCK)])
        assert nn._helper_thread is None


class TestGradCheck:
    def test_linear_function_near_exact(self):
        w = np.array([2.0, -3.0, 0.5])

        def f(x):
            return float(w @ x), w

        err = grad_check(f, np.array([1.0, 2.0, 3.0]))
        assert err < 1e-10

    def test_wrong_gradient_detected(self):
        w = np.array([2.0, -3.0, 0.5])

        def f(x):
            return float(w @ x), -w

        # analytic = -numeric on every coordinate: relative error 2
        err = grad_check(f, np.array([1.0, 2.0, 3.0]))
        assert abs(err - 2.0) < 1e-8

    def test_full_suite_spot(self):
        results = verify.gradient_suite(seed=0, points=2)
        assert max(results.values()) < 1e-6


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        mlps = [init_mlp((4, 8, 2), rng), init_mlp((2, 3), rng, output_activation="relu")]
        path = tmp_path / "params.bin"
        save_mlps(mlps, path)
        loaded = load_mlps(path)
        assert len(loaded) == 2
        for a, b in zip(mlps, loaded):
            assert len(a.layers) == len(b.layers)
            for la, lb in zip(a.layers, b.layers):
                assert la.weights.tobytes() == lb.weights.tobytes()
                assert la.bias.tobytes() == lb.bias.tobytes()
                assert la.activation == lb.activation

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_mlps(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(24)
        path = tmp_path / "params.bin"
        save_mlps([init_mlp((3, 2), rng)], path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_mlps(path)

    @pytest.mark.parametrize("code", [2, 3, 7, 255])
    def test_unknown_activation_code(self, tmp_path, code):
        rng = np.random.default_rng(25)
        path = tmp_path / "params.bin"
        save_mlps([init_mlp((3, 2), rng)], path)
        data = bytearray(path.read_bytes())
        data[20] = code  # magic, mlp count, layer count, out_dim, in_dim, code
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=rf"params\.bin: unknown activation code {code}$"):
            load_mlps(path)
