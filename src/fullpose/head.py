"""Toy trainable detection head with a ground-aware orientation branch.

Per-center feature vectors pass through a lightweight terrain
segmentation MLP (sigmoid slope score) and a shared trunk feeding one
single-layer branch per box attribute: class logits, yaw bin logits, yaw
residual, raw tilt pair, log dimensions, and center offset.  Decoding
gates roll/pitch on the slope score, so any center scored flat comes out
with exactly zero tilt regardless of the raw branch values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import codec, nn
from .errors import FullposeError
from .geom import FullPoseBox, boxes_from_arrays


class EmptyDatasetError(FullposeError, ValueError):
    pass


@dataclass(frozen=True)
class HeadConfig:
    """Widths of the head MLPs plus the target codec configuration."""

    feature_dim: int = 256
    shared_widths: tuple[int, ...] = (512, 256)
    seg_hidden: tuple[int, ...] = (128,)
    class_count: int = 2
    codec: codec.CodecConfig = field(default_factory=codec.CodecConfig)

    def __post_init__(self):
        if self.feature_dim < 1 or self.class_count < 2:
            raise ValueError("feature_dim must be >= 1 and class_count >= 2")
        if not self.shared_widths:
            raise ValueError("shared_widths needs at least one trunk width")
        if any(wd < 1 for wd in self.shared_widths + self.seg_hidden):
            raise ValueError("all widths must be positive")


# trunk branch group -> the HeadOutput field it predicts; a one-wide
# branch predicts a 1-D field.  The seg group predicts ``s_g``.
_BRANCHES = {
    "cls": "class_logits",
    "yaw_bin": "yaw_bin_logits",
    "yaw_res": "yaw_residual",
    "tilt": "tilt",
    "dims": "log_dims",
    "offset": "center_offset",
}
# parameter groups in serialization / flattening order
_GROUPS = ("seg", "shared", *_BRANCHES)


@dataclass
class HeadParams:
    seg: nn.MlpParams
    shared: nn.MlpParams
    cls: nn.MlpParams
    yaw_bin: nn.MlpParams
    yaw_res: nn.MlpParams
    tilt: nn.MlpParams
    dims: nn.MlpParams
    offset: nn.MlpParams


@dataclass
class HeadOutput:
    """Raw per-center predictions (one row per coarse center)."""

    class_logits: np.ndarray   # (n, class_count)
    s_g: np.ndarray            # (n,) slope probability
    yaw_bin_logits: np.ndarray  # (n, n_yaw_bins)
    yaw_residual: np.ndarray   # (n,)
    tilt: np.ndarray           # (n, 2) raw normalized (x, y)
    log_dims: np.ndarray       # (n, 3)
    center_offset: np.ndarray  # (n, 3)

    def __len__(self) -> int:
        return self.class_logits.shape[0]


def init_head(cfg: HeadConfig, rng: np.random.Generator) -> HeadParams:
    """Random head parameters; each attribute branch is one dense layer."""
    trunk_out = cfg.shared_widths[-1]
    return HeadParams(
        seg=nn.init_mlp((cfg.feature_dim, *cfg.seg_hidden, 1), rng),
        shared=nn.init_mlp(
            (cfg.feature_dim, *cfg.shared_widths), rng, output_activation="relu"
        ),
        cls=nn.init_mlp((trunk_out, cfg.class_count), rng),
        yaw_bin=nn.init_mlp((trunk_out, cfg.codec.n_yaw_bins), rng),
        yaw_res=nn.init_mlp((trunk_out, 1), rng),
        tilt=nn.init_mlp((trunk_out, 2), rng),
        dims=nn.init_mlp((trunk_out, 3), rng),
        offset=nn.init_mlp((trunk_out, 3), rng),
    )


def _forward_cached(params: HeadParams, features: np.ndarray):
    features = np.asarray(features, dtype=np.float64)
    seg_z, seg_cache = nn.mlp_forward(params.seg, features)
    trunk, shared_cache = nn.mlp_forward(params.shared, features)
    caches = {"seg": seg_cache, "shared": shared_cache}
    fields = {"s_g": nn.sigmoid(seg_z[:, 0])}
    for name, field_name in _BRANCHES.items():
        y, caches[name] = nn.mlp_forward(getattr(params, name), trunk)
        fields[field_name] = y[:, 0] if y.shape[1] == 1 else y
    return HeadOutput(**fields), caches


def head_forward(params: HeadParams, features: np.ndarray) -> HeadOutput:
    """Run the head on (n, feature_dim) features; purely functional."""
    out, _ = _forward_cached(params, features)
    return out


def head_decode(out: HeadOutput, centers, cfg: HeadConfig) -> list[FullPoseBox]:
    """Turn raw outputs into scored full-pose boxes, one per row of (n, 3) ``centers``.

    Every attribute is decoded for all rows at once; the boxes are built
    from the decoded arrays last.
    """
    pts = np.asarray(centers, dtype=np.float64)
    ccfg = cfg.codec
    logits = out.class_logits
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    cls_ids = np.argmax(logits, axis=1)
    rows = np.arange(len(out))
    scores = shifted[rows, cls_ids] / shifted.sum(axis=1)
    yaw = codec.decode_yaw(codec.YawCode(np.argmax(out.yaw_bin_logits, axis=1), out.yaw_residual), ccfg)
    tilt = codec.gate_tilt(
        out.s_g[:, None],
        codec.decode_tilt(out.tilt, np.array([ccfg.t_theta_x, ccfg.t_theta_y])),
    )
    euler = np.empty((len(out), 3))
    euler[:, :2] = tilt
    euler[:, 2] = yaw
    return boxes_from_arrays(
        codec.decode_center_offset(pts, out.center_offset), codec.decode_dims(out.log_dims),
        euler, cls_ids, scores,
    )


def loss_rows(params: HeadParams, targets) -> nn.LossRows:
    """The per-frame part of the loss of ``targets`` (:func:`nn.loss_rows`).

    The gradient buffers are zeroed arrays shaped like the outputs of
    ``params`` on ``len(targets)`` centers.
    """
    n = len(targets)
    buffers = {"s_g": np.zeros(n)}
    for name, field_name in _BRANCHES.items():
        width = getattr(params, name).layers[-1].weights.shape[0]
        buffers[field_name] = np.zeros(n) if width == 1 else np.zeros((n, width))
    return nn.loss_rows(targets, HeadOutput(**buffers))


def grad_slots(params: HeadParams, grad: np.ndarray) -> dict:
    """Per-group layer views of ``grad``, a float64 vector laid out by
    :func:`nn.layer_views` over the groups in :func:`head_param_list` order."""
    return dict(zip(_GROUPS, nn.layer_views(grad, _mlps(params))))


def head_loss(params: HeadParams, features: np.ndarray, rows: nn.LossRows, slots: dict):
    """Composite box loss; writes the gradient of every head parameter into ``slots``.

    ``rows`` is the frame's :func:`loss_rows`; ``slots`` is the
    :func:`grad_slots` of a gradient vector the caller owns, whose every
    element is overwritten.  Returns ``(loss, breakdown)``, where
    ``breakdown.grad`` holds the gradient w.r.t. each raw output: it is
    the gradient buffer of ``rows``, which the next call on the same rows
    overwrites.
    """
    out, caches = _forward_cached(params, features)
    loss, bd = nn.composite_box_loss(out, rows)

    dtrunk = np.zeros_like(caches["shared"][-1][2])
    for name, field_name in _BRANCHES.items():
        dout = getattr(bd.grad, field_name)
        dtrunk += nn.mlp_backward(
            getattr(params, name), caches[name], slots[name],
            dout[:, None] if dout.ndim == 1 else dout, input_grad=True,
        )
    # the input gradients of the trunk and of the seg stack are not needed
    nn.mlp_backward(params.shared, caches["shared"], slots["shared"], dtrunk, input_grad=False)
    dseg_z = (bd.grad.s_g * out.s_g * (1.0 - out.s_g))[:, None]
    nn.mlp_backward(params.seg, caches["seg"], slots["seg"], dseg_z, input_grad=False)
    return loss, bd


def _mlps(params: HeadParams) -> list[nn.MlpParams]:
    return [getattr(params, name) for name in _GROUPS]


def head_param_list(params: HeadParams) -> list[np.ndarray]:
    """Flat references to every weight/bias array, in a fixed order."""
    return [a for mlp in _mlps(params) for layer in mlp.layers
            for a in (layer.weights, layer.bias)]


def save_head(params: HeadParams, path) -> None:
    nn.save_mlps(_mlps(params), path)


def load_head(path) -> HeadParams:
    mlps = nn.load_mlps(path)
    if len(mlps) != len(_GROUPS):
        raise ValueError(f"expected {len(_GROUPS)} parameter groups, got {len(mlps)}")
    return HeadParams(**dict(zip(_GROUPS, mlps)))


def train_toy(dataset, cfg: HeadConfig, epochs: int, seed: int,
              lr: float = 1e-3) -> tuple[HeadParams, list[dict]]:
    """Adam-train the head on (features, targets) pairs; returns a log.

    Deterministic for a fixed seed.  The log has one record per epoch
    with the mean total loss and mean per-term losses over frames.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    dataset = list(dataset)
    if not dataset:
        raise EmptyDatasetError("training dataset is empty")
    rng = np.random.default_rng(seed)
    params = init_head(cfg, rng)
    # every weight and bias becomes a view of one vector, which Adam
    # updates in one pass; the gradient vector has the same layout
    mlps = _mlps(params)
    flat = np.concatenate([a.ravel() for a in head_param_list(params)])
    for mlp, pairs in zip(mlps, nn.layer_views(flat, mlps)):
        for layer, (weights, bias) in zip(mlp.layers, pairs):
            layer.weights, layer.bias = weights, bias
    grad = np.empty_like(flat)
    slots = grad_slots(params, grad)
    state = nn.init_adam_state(flat)
    # targets do not change across epochs: each frame's loss rows and
    # gradient buffers are built once
    frames = [(features, loss_rows(params, targets)) for features, targets in dataset]
    log = []
    for epoch in range(epochs):
        totals = []
        term_sums = {}
        for features, rows in frames:
            loss, bd = head_loss(params, features, rows, slots)
            nn.adam_step(flat, grad, state, lr=lr)
            totals.append(loss)
            for key, val in bd.terms.items():
                term_sums[key] = term_sums.get(key, 0.0) + val
        record = {"epoch": epoch, "total": float(np.mean(totals))}
        record.update({k: v / len(dataset) for k, v in term_sums.items()})
        log.append(record)
    return params, log
