"""Gradient verification suite: every differentiable kernel vs central differences.

Each op is checked at several random points on small instances; the
reported number is the worst relative error seen.  Finite differences
certify a gradient only where the function is smooth and the gradient
clears the float64 noise floor of the difference quotient, so test
points are drawn with bounded-magnitude factors (random sign, magnitude
bounded away from zero) and redrawn until they sit a safe margin from
every kink (relu pre-activations, smooth-L1 switch points) with all
alive coordinates above the noise floor.  The decode-time tilt
gate is a step function with no gradient path and deliberately does not
appear here.
"""

from __future__ import annotations

import numpy as np

from . import codec, head, nn

TOLERANCE = 1e-6
# minimum distance from any activation/loss kink; parameter perturbations
# of 1e-6 move pre-activations by orders of magnitude less than this
_SAFE_MARGIN = 1e-4
# the difference quotient carries ~ulp(|f|)/(2*eps) = O(1e-10) absolute
# noise; alive coordinates below this cannot be certified to 1e-6 relative
_GRAD_FLOOR = 1e-3
_MAX_REDRAWS = 100


def _bounded(rng: np.random.Generator, shape, lo: float = 0.4, hi: float = 1.0,
             scale: float = 1.0) -> np.ndarray:
    """Random-sign values with magnitude in [lo, hi] (times ``scale``)."""
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(lo, hi, shape) * scale


def _weakest_alive_grad(f, x: np.ndarray) -> float:
    _, grad = f(x)
    grad = np.asarray(grad)
    alive = grad != 0.0
    return float(np.abs(grad[alive]).min()) if alive.any() else np.inf


def _random_targets(n: int, cfg: codec.CodecConfig, rng: np.random.Generator,
                    class_count: int = 2) -> codec.BoxTargets:
    """Random target batch with at least one foreground and one sloped row."""
    foreground = rng.random(n) < 0.7
    foreground[0] = True
    ground = (rng.random(n) < 0.5).astype(np.intp)
    ground[0] = 1
    ground[~foreground] = 0
    return codec.BoxTargets(
        class_label=np.where(foreground, rng.integers(1, class_count, n), 0),
        ground_label=ground,
        yaw_bin=rng.integers(0, cfg.n_yaw_bins, n),
        yaw_residual=rng.uniform(0.5, 1.5, n),
        tilt=rng.uniform(-0.3, 0.3, (n, 2)),
        log_dims=rng.uniform(-0.5, 1.5, (n, 3)),
        center_offset=rng.uniform(-1.0, 1.0, (n, 3)),
        foreground=foreground,
    )


def _pack(arrays) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def _unpack(vec: np.ndarray, templates) -> list[np.ndarray]:
    out, at = [], 0
    for t in templates:
        out.append(vec[at:at + t.size].reshape(t.shape))
        at += t.size
    return out


def _draw_layers(views, rng: np.random.Generator) -> None:
    """Fill each ``(weights, bias)`` pair with bounded values scaled to its fan-in."""
    for weights, bias in views:
        weights[...] = _bounded(rng, weights.shape, scale=np.sqrt(1.0 / weights.shape[1]))
        bias[...] = _bounded(rng, bias.shape, scale=0.3)


def _load(mlps, vec: np.ndarray) -> None:
    """Copy ``vec``, laid out by :func:`nn.layer_views`, into the layers of ``mlps``."""
    for mlp, pairs in zip(mlps, nn.layer_views(vec, mlps)):
        for layer, (weights, bias) in zip(mlp.layers, pairs):
            layer.weights[...] = weights
            layer.bias[...] = bias


def _relu_kink_gap(params: nn.MlpParams, cache) -> float:
    """Smallest |pre-activation| over the relu layers (inf if none)."""
    gap = np.inf
    for layer, (_, z, _) in zip(params.layers, cache):
        if layer.activation == "relu" and z.size:
            gap = min(gap, float(np.abs(z).min()))
    return gap


def _smooth_l1_kink_gap(pred, target) -> float:
    d = np.abs(np.asarray(pred) - np.asarray(target))
    return float(np.abs(d - 1.0).min()) if d.size else np.inf


def check_mlp(rng: np.random.Generator) -> float:
    """Gradients of 0.5*||mlp(x)||^2 w.r.t. parameters and input."""
    widths = (4, 5, 3)
    params = nn.MlpParams([nn.DenseLayer(np.empty((dout, din)), np.empty(dout), act)
                           for din, dout, act in zip(widths, widths[1:], ("relu", "none"))])
    n = sum(layer.weights.size + layer.bias.size for layer in params.layers)

    def f(v):
        _load([params], v[:n])
        y, cache = nn.mlp_forward(params, v[n:].reshape(3, 4))
        gvec = np.empty_like(v)
        (slots,) = nn.layer_views(gvec[:n], [params])
        gvec[n:] = nn.mlp_backward(params, cache, slots, y, input_grad=True).ravel()
        return 0.5 * float((y * y).sum()), gvec

    for _ in range(_MAX_REDRAWS):
        x = _bounded(rng, (3, 4), lo=0.5, hi=2.0)
        vec = np.empty(n + x.size)
        vec[n:] = x.ravel()
        (views,) = nn.layer_views(vec[:n], [params])
        _draw_layers(views, rng)
        _load([params], vec[:n])
        _, cache = nn.mlp_forward(params, x)
        if _relu_kink_gap(params, cache) > _SAFE_MARGIN and _weakest_alive_grad(f, vec) > _GRAD_FLOOR:
            break
    return nn.grad_check(f, vec)


def check_sigmoid(rng: np.random.Generator) -> float:
    def f(vec):
        return float(nn.sigmoid(vec).sum()), nn.sigmoid_grad(vec)

    # saturation beyond |x| ~ 4 pushes the true gradient under the
    # difference-quotient noise floor; extreme inputs are value-tested
    return nn.grad_check(f, _bounded(rng, 8, lo=0.1, hi=4.0))


def check_smooth_l1(rng: np.random.Generator) -> float:
    target = rng.standard_normal(12)

    def f(vec):
        loss, grad = nn.smooth_l1(vec, target)
        return float(loss.sum()), grad

    # 0.1 <= |pred - target| <= 0.8: off the kink at 1, gradient alive
    pred = target + _bounded(rng, 12, lo=0.1, hi=0.8)
    return nn.grad_check(f, pred)


def check_focal(rng: np.random.Generator) -> float:
    y = (rng.random(10) < 0.5).astype(int)

    def f(vec):
        loss, grad = nn.focal_loss(vec, y)
        return float(loss.sum()), grad

    return nn.grad_check(f, rng.uniform(0.05, 0.95, 10))


def check_cross_entropy(rng: np.random.Generator) -> float:
    labels = rng.integers(0, 4, 6)

    def f(vec):
        loss, grad = nn.cross_entropy(vec.reshape(6, 4), labels)
        return float(loss.sum()), grad.ravel()

    for _ in range(_MAX_REDRAWS):
        logits = rng.standard_normal(24)
        if _weakest_alive_grad(f, logits) > _GRAD_FLOOR:
            break
    return nn.grad_check(f, logits)


def check_composite_loss(rng: np.random.Generator) -> float:
    """Gradients of the composite box loss w.r.t. every raw output."""
    n, class_count = 6, 2
    cfg = codec.CodecConfig()
    targets = _random_targets(n, cfg, rng, class_count)
    shapes = {
        "class_logits": (n, class_count),
        "s_g": (n,),
        "yaw_bin_logits": (n, cfg.n_yaw_bins),
        "yaw_residual": (n,),
        "tilt": (n, 2),
        "log_dims": (n, 3),
        "center_offset": (n, 3),
    }
    templates = [np.zeros(s) for s in shapes.values()]
    rows = nn.loss_rows(targets, head.HeadOutput(**{name: np.zeros(s) for name, s in shapes.items()}))

    def f(vec):
        fields = dict(zip(shapes, _unpack(vec, templates)))
        fields["s_g"] = nn.sigmoid(fields["s_g"])  # map into (0, 1)
        out = head.HeadOutput(**fields)
        loss, bd = nn.composite_box_loss(out, rows)
        ds_g = bd.grad.s_g * (out.s_g * (1.0 - out.s_g))  # chain through the sigmoid
        return loss, _pack([ds_g if name == "s_g" else getattr(bd.grad, name) for name in shapes])

    # smooth-L1'd fields start 0.1-0.8 away from their targets: alive, off kink
    for _ in range(_MAX_REDRAWS):
        raw = {
            "class_logits": rng.standard_normal((n, class_count)) * 0.5,
            "s_g": _bounded(rng, n, lo=0.1, hi=1.5),
            "yaw_bin_logits": rng.standard_normal((n, cfg.n_yaw_bins)) * 0.5,
            "yaw_residual": targets.yaw_residual + _bounded(rng, n, lo=0.1, hi=0.8),
            "tilt": targets.tilt + _bounded(rng, (n, 2), lo=0.1, hi=0.8),
            "log_dims": targets.log_dims + _bounded(rng, (n, 3), lo=0.1, hi=0.8),
            "center_offset": targets.center_offset + _bounded(rng, (n, 3), lo=0.1, hi=0.8),
        }
        vec = _pack(raw.values())
        if _weakest_alive_grad(f, vec) > _GRAD_FLOOR:
            break
    return nn.grad_check(f, vec)


def check_head_loss(rng: np.random.Generator) -> float:
    """Full-head gradient check over every parameter array."""
    cfg = head.HeadConfig(feature_dim=5, shared_widths=(8, 6), seg_hidden=(4,))
    for _ in range(_MAX_REDRAWS):
        params = head.init_head(cfg, rng)
        mlps = head._mlps(params)
        start = np.empty(sum(a.size for a in head.head_param_list(params)))
        for views in nn.layer_views(start, mlps):
            _draw_layers(views, rng)
        _load(mlps, start)
        features = _bounded(rng, (4, cfg.feature_dim), lo=0.5, hi=2.0)
        targets = _random_targets(4, cfg.codec, rng)
        rows = head.loss_rows(params, targets)
        out, caches = head._forward_cached(params, features)
        gaps = [
            _relu_kink_gap(params.seg, caches["seg"]),
            _relu_kink_gap(params.shared, caches["shared"]),
            _smooth_l1_kink_gap(out.yaw_residual, targets.yaw_residual),
            _smooth_l1_kink_gap(out.tilt, targets.tilt),
            _smooth_l1_kink_gap(out.log_dims, targets.log_dims),
            _smooth_l1_kink_gap(out.center_offset, targets.center_offset),
        ]
        if min(gaps) <= _SAFE_MARGIN:
            continue

        def f(vec):
            _load(mlps, vec)
            grad = np.empty_like(vec)
            loss, _ = head.head_loss(params, features, rows, head.grad_slots(params, grad))
            return loss, grad

        if _weakest_alive_grad(f, start) > _GRAD_FLOOR:
            break
    return nn.grad_check(f, start)


_CHECKS = {
    "mlp_backward": check_mlp,
    "sigmoid": check_sigmoid,
    "smooth_l1": check_smooth_l1,
    "focal_loss": check_focal,
    "cross_entropy": check_cross_entropy,
    "composite_box_loss": check_composite_loss,
    "head_loss": check_head_loss,
}


def gradient_suite(seed: int = 0, points: int = 10) -> dict[str, float]:
    """Worst relative gradient error per op over ``points`` random points."""
    results = {}
    for op_index, (name, fn) in enumerate(_CHECKS.items()):
        worst = 0.0
        for i in range(points):
            rng = np.random.default_rng(np.random.SeedSequence([seed, op_index, i]))
            worst = max(worst, fn(rng))
        results[name] = worst
    return results
