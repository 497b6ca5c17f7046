"""Minimal dense neural kernels with analytic reverse-mode gradients.

Everything runs in float64 numpy on plain arrays; shapes follow the
``(batch, features)`` convention with weights stored ``(out, in)``.  Each
differentiable op has an exact backward, and every backward is verified
against central finite differences in the test suite.

Parameter snapshots serialize to a flat binary container:

    magic b"FPNN" | uint32 mlp count
    per mlp:  uint32 layer count
    per layer: uint32 out_dim | uint32 in_dim | uint8 activation code
               float64-LE weights (row-major, out*in) | float64-LE bias (out)

Activation codes: 0 = none, 1 = relu.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import FullposeError


class ShapeMismatchError(FullposeError, ValueError):
    pass


class ProbabilityOutOfRangeError(FullposeError, ValueError):
    pass


class LabelOutOfRangeError(FullposeError, ValueError):
    pass


_ACTIVATIONS = ("none", "relu")
# guard against exact 0/1 probabilities from saturated sigmoids
_PROB_EPS = 1e-12
# focal_loss defaults, which the box loss's terrain term uses
_FOCAL_ALPHA = 0.25
_FOCAL_GAMMA = 2.0
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
# elements per Adam pass: a block of each operand stays in cache across the
# update's 14 elementwise operations
_ADAM_BLOCK = 1 << 15
# central-difference step of grad_check
_FD_STEP = 1e-6
# the helper thread takes a share of a call only when that share pays for
# the hand-off, about 39 us round trip: a dW product of at least this many
# multiply-adds, an Adam update of at least this many whole blocks, on a
# process allowed at least this many CPUs
_HELPER_MIN_MACS = 1 << 21
_HELPER_MIN_ADAM_BLOCKS = 2
_HELPER_MIN_CPUS = 2


class _Helper:
    """One daemon thread that runs a numpy call while the caller runs another.

    :meth:`start` hands over a call, :meth:`wait` returns once it is done
    and raises what it raised.  One caller holds the thread from ``start``
    to ``wait``; ``start`` returns False while another one does, and that
    caller runs its call itself.
    """

    def __init__(self):
        # imported here: a process that never trains a large head starts no thread
        import queue
        import threading

        self._todo = queue.SimpleQueue()
        self._done = queue.SimpleQueue()
        self._lock = threading.Lock()
        threading.Thread(target=self._serve, name="fullpose-nn-helper", daemon=True).start()

    def _serve(self):
        while True:
            self._done.put(self._run(*self._todo.get()))

    @staticmethod
    def _run(fn, args, kwargs) -> BaseException | None:
        # the call's outcome; returning drops this thread's references to
        # its arrays, which would otherwise stay alive until the next call
        try:
            fn(*args, **kwargs)
        except BaseException as exc:  # re-raised by the caller, in wait
            return exc
        return None

    def start(self, fn, *args, **kwargs) -> bool:
        if not self._lock.acquire(blocking=False):
            return False
        self._todo.put((fn, args, kwargs))
        return True

    def wait(self) -> None:
        # a wait broken by an interrupt keeps the lock, so every later call
        # runs inline instead of reading this call's result as its own
        exc = self._done.get()
        self._lock.release()
        if exc is not None:
            raise exc


_helper_thread: _Helper | None = None


def _helper() -> _Helper | None:
    """The helper thread, started on first use; None on fewer than
    ``_HELPER_MIN_CPUS`` CPUs, where the caller runs both shares."""
    global _helper_thread
    if _helper_thread is None:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        if cpus < _HELPER_MIN_CPUS:
            return None
        _helper_thread = _Helper()
    return _helper_thread


def _offload(fn, *args, **kwargs) -> _Helper | None:
    """Hand ``fn(*args, **kwargs)`` to the helper thread.

    Returns the helper, whose ``wait`` the caller must reach, or None when
    the caller runs ``fn`` itself.
    """
    helper = _helper()
    return helper if helper is not None and helper.start(fn, *args, **kwargs) else None


def _drop_helper() -> None:
    # a forked child has no helper thread, only its parent's handle to one
    global _helper_thread
    _helper_thread = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_grad(x) -> np.ndarray:
    s = sigmoid(x)
    return s * (1.0 - s)


def _apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "none":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class DenseLayer:
    """Affine layer ``y = x @ W.T + b`` followed by an activation."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str = "none"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeMismatchError("weights must be 2-D (out, in)")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeMismatchError("bias must match the output width")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class MlpParams:
    """A stack of dense layers with chained shapes."""

    layers: list[DenseLayer] = field(default_factory=list)

    def __post_init__(self):
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.weights.shape[1] != prev.weights.shape[0]:
                raise ShapeMismatchError(
                    f"layer widths do not chain: {prev.weights.shape} -> {cur.weights.shape}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].weights.shape[1]


def layer_views(vec: np.ndarray, mlps) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Views of ``vec`` shaped like each layer's ``(weights, bias)``, per MLP.

    This is the flat parameter layout: the views tile all of ``vec`` in the
    order of ``mlps``, layer by layer, row-major weights before the bias.
    """
    views, at = [], 0
    for mlp in mlps:
        pairs = []
        for layer in mlp.layers:
            w_end = at + layer.weights.size
            b_end = w_end + layer.bias.size
            pairs.append((vec[at:w_end].reshape(layer.weights.shape), vec[w_end:b_end]))
            at = b_end
        views.append(pairs)
    if at != vec.size:
        raise ShapeMismatchError(f"vector of {vec.size} values for {at} parameters")
    return views


def init_mlp(widths, rng: np.random.Generator, output_activation: str = "none") -> MlpParams:
    """He-style random init for a chain of widths ``(in, ..., out)``.

    Hidden layers are relu.  Biases start at small uniform values (not
    zero) so fully-clipped relu rows cannot park the next layer exactly on
    its activation kink.
    """
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        act = "relu" if i < len(widths) - 2 else output_activation
        scale = np.sqrt(2.0 / fan_in) if act == "relu" else np.sqrt(1.0 / fan_in)
        bound = 1.0 / np.sqrt(fan_in)
        layers.append(
            DenseLayer(
                weights=rng.standard_normal((fan_out, fan_in)) * scale,
                bias=rng.uniform(-bound, bound, fan_out),
                activation=act,
            )
        )
    return MlpParams(layers)


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run the stack; the cache holds per-layer (input, pre-act, act)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeMismatchError("input must be 2-D (batch, features)")
    if a.shape[1] != params.in_dim:
        raise ShapeMismatchError(
            f"input width {a.shape[1]} != layer width {params.in_dim}"
        )
    cache = []
    for layer in params.layers:
        z = a @ layer.weights.T
        z += layer.bias
        out = _apply_activation(z, layer.activation)
        cache.append((a, z, out))
        a = out
    return a, cache


def mlp_backward(params: MlpParams, cache: list, slots, dy: np.ndarray, *,
                 input_grad: bool) -> np.ndarray | None:
    """Exact reverse pass of :func:`mlp_forward`, writing into ``slots``.

    ``slots`` holds one C-contiguous ``(dW, db)`` pair per layer, as
    :func:`layer_views` lays them out; every element of each is
    overwritten.  ``dy`` is never written.  Returns the input gradient, or
    None without computing the first layer's ``dz @ W`` when
    ``input_grad`` is false.
    """
    da = np.asarray(dy, dtype=np.float64)
    if da.shape != cache[-1][2].shape:
        raise ShapeMismatchError(
            f"dy shape {da.shape} != output shape {cache[-1][2].shape}"
        )
    owned = False
    for i in reversed(range(len(params.layers))):
        x_in, z, _ = cache[i]
        layer = params.layers[i]
        dz = da
        if layer.activation == "relu":
            # multiplying by the 0/1 mask keeps the sign of each zeroed entry
            dz = np.multiply(da, z > 0.0, out=da if owned else None)
        dw, db = slots[i]
        last = i == 0 and not input_grad
        # a large dW product runs on the helper thread while this one takes
        # dz @ W; neither call writes an array the other reads
        helper = None
        if not last and dw.size * len(dz) >= _HELPER_MIN_MACS:
            helper = _offload(np.matmul, dz.T, x_in, out=dw)
        if helper is None:
            np.matmul(dz.T, x_in, out=dw)
        try:
            np.add.reduce(dz, axis=0, out=db)
            if last:
                return None
            da, owned = dz @ layer.weights, True
        finally:
            if helper is not None:
                helper.wait()
    return da


def smooth_l1(pred, target) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise smooth-L1 loss and its gradient w.r.t. ``pred``.

    Quadratic inside ``|d| < 1``, linear outside; the gradient is
    clamped to +-1 on the linear branch.
    """
    d = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    size = np.abs(d)
    quad = size < 1.0
    loss = np.where(quad, 0.5 * d * d, size - 0.5)
    grad = np.where(quad, d, np.sign(d))
    return loss, grad


def focal_loss(p, y, alpha: float = _FOCAL_ALPHA, gamma_f: float = _FOCAL_GAMMA
               ) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise binary focal loss and gradient w.r.t. ``p``.

    ``p`` is the predicted probability of the positive class, ``y`` the
    0/1 label.  With ``gamma_f=0, alpha=0.5`` this reduces to half the
    binary cross-entropy.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ProbabilityOutOfRangeError("p must lie strictly inside (0, 1)")
    pos = np.asarray(y) == 1
    return _focal_loss(p, pos, np.where(pos, alpha, 1.0 - alpha), gamma_f)


def _focal_loss(p: np.ndarray, pos: np.ndarray, a_t: np.ndarray, gamma_f: float):
    # focal_loss on checked probabilities, its positive mask and its alphas
    p_t = np.where(pos, p, 1.0 - p)
    neg_a_t = -a_t
    one_minus = 1.0 - p_t
    log_pt = np.log(p_t)
    weight = one_minus**gamma_f
    loss = neg_a_t * weight * log_pt
    # dloss/dp_t = -a_t * [ -gamma (1-p_t)^(gamma-1) log p_t + (1-p_t)^gamma / p_t ]
    modulator = 0.0 if gamma_f == 0.0 else -gamma_f * one_minus ** (gamma_f - 1.0) * log_pt
    dloss_dpt = neg_a_t * (modulator + weight / p_t)
    grad = np.where(pos, dloss_dpt, -dloss_dpt)
    return loss, grad


def cross_entropy(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy of an (n, C) batch with (n,) integer labels.

    Uses a stable log-sum-exp; the gradients are ``softmax - onehot``.
    """
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if z.ndim != 2 or labels.shape != z.shape[:1]:
        raise ShapeMismatchError(
            f"logits {z.shape} and labels {labels.shape} are not (n, C) and (n,)"
        )
    _check_labels(labels, z.shape[1])
    return _cross_entropy(z, _label_picks(labels, z.shape[1]))


def _check_labels(labels: np.ndarray, classes: int) -> None:
    if np.any(labels < 0) or np.any(labels >= classes):
        raise LabelOutOfRangeError(
            f"labels must lie in [0, {classes}) for {classes} classes"
        )


def _label_picks(labels: np.ndarray, classes: int) -> np.ndarray:
    # the flat index of each row's label logit in an (n, classes) array
    return np.arange(labels.size) * classes + labels


def _cross_entropy(z: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # cross_entropy on float64 logits and the _label_picks of checked labels
    m = np.maximum.reduce(z, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.add.reduce(np.exp(z - m), axis=1))
    loss = lse - z.take(picks)
    grad = np.exp(z - lse[:, None])
    grad.put(picks, grad.take(picks) - 1.0)
    return loss, grad


@dataclass
class LossBreakdown:
    """Total box loss, per-term values, and the gradient w.r.t. the raw outputs.

    ``grad`` has the type and fields of the outputs the loss was computed
    on: ``grad.tilt`` is d total / d ``out.tilt``, and so on.  It is the
    gradient buffer of the :class:`LossRows` the loss ran on, so the next
    call on the same rows overwrites it.
    """

    total: float
    terms: dict
    grad: object


_TERM_KEYS = ("cls", "dim", "posi", "seg", "tilt", "yaw_bin", "yaw_res")
# the supervised terms: each is the loss of one output field against one
# target field over its rows, divided by the row count (no rows: no term).
# Softmax cross-entropy over the foreground rows, (term, output, target):
_CE_TERMS = (("cls", "class_logits", "class_label"), ("yaw_bin", "yaw_bin_logits", "yaw_bin"))
# smooth-L1 over the foreground rows, tilt over the sloped ones only;
# (term, field), the target field named as the output field
_L1_TERMS = (("dim", "log_dims"), ("posi", "center_offset"), ("tilt", "tilt"),
             ("yaw_res", "yaw_residual"))


@dataclass
class LossRows:
    """The part of :func:`composite_box_loss` that one frame's targets fix.

    Built once per frame by :func:`loss_rows`.  A term reads its rows of
    one output field and writes the same elements of that field's gradient
    buffer, at their flat indices ``flat``:

    - ``fg``: the foreground row indices;
    - ``ce_terms``: ``(term, field, picks, flat)`` per cross-entropy
      term, ``picks`` locating the checked label of each foreground row
      among that row's logits;
    - ``l1_terms``: ``(term, field, rows, flat, pred, lo, hi)`` per
      smooth-L1 term that has rows; the terms' values lie end to end in
      ``l1_pred`` (the term's view is ``pred``), ``l1_target`` and
      ``l1_count`` (the row count its term divides by), its span ``lo:hi``;
    - ``seg_pos``, ``seg_alpha``: the focal term's positive mask and alphas;
    - ``grad``: the frame's gradient buffers, shaped like the outputs;
    - ``shapes``: ``(field, shape)`` of every output field.
    """

    fg: np.ndarray
    ce_terms: tuple
    l1_terms: tuple
    l1_pred: np.ndarray
    l1_target: np.ndarray
    l1_count: np.ndarray
    seg_pos: np.ndarray
    seg_alpha: np.ndarray
    grad: object
    shapes: tuple


def foreground_labels(targets, widths: dict) -> list[np.ndarray]:
    """The foreground labels of each cross-entropy term, in ``_CE_TERMS`` order.

    ``widths`` maps each term's output field to its class count, and a
    label outside ``[0, count)`` raises as :func:`cross_entropy` does.
    :func:`loss_rows` checks its labels here; a caller may check a
    frame's targets here before any output exists.
    """
    fg = np.asarray(targets.foreground, dtype=bool)
    out = []
    for _, field_name, target_name in _CE_TERMS:
        labels = np.asarray(getattr(targets, target_name), dtype=np.intp)[fg]
        _check_labels(labels, widths[field_name])
        out.append(labels)
    return out


def loss_rows(targets, grad) -> LossRows:
    """The per-frame rows of :func:`composite_box_loss` for ``targets``.

    ``grad`` is a dataclass of zeroed per-center arrays shaped like the
    outputs the loss will see (a ``head.HeadOutput``); it becomes the
    frame's gradient buffers.  Each term writes only the rows it
    supervises and overwrites all of them on every call, so every other
    row stays zero.  The integer labels are checked here, once, by
    :func:`foreground_labels`.
    """
    shapes = tuple((f.name, getattr(grad, f.name).shape) for f in fields(grad))
    if grad.class_logits.shape[0] != len(targets):
        raise ShapeMismatchError("outputs and targets disagree on batch size")
    fg_mask = np.asarray(targets.foreground, dtype=bool)
    fg = np.flatnonzero(fg_mask)
    sloped = np.flatnonzero(fg_mask & (np.asarray(targets.ground_label) > 0))

    def flat(field_name, rows):
        # flat indices of the elements of ``rows`` in the field's buffer
        buffer = getattr(grad, field_name)
        return np.arange(buffer.size).reshape(buffer.shape)[rows].ravel()

    widths = {field_name: getattr(grad, field_name).shape[1] for _, field_name, _ in _CE_TERMS}
    ce_terms = [
        (term, field_name, _label_picks(labels, widths[field_name]), flat(field_name, fg))
        for (term, field_name, _), labels in zip(_CE_TERMS, foreground_labels(targets, widths))
    ]
    # the empty first pieces join nothing for a frame without foreground
    spans, targets_l1, counts, at = [], [np.empty(0)], [np.empty(0)], 0
    for term, field_name in _L1_TERMS:
        rows = sloped if term == "tilt" else fg
        target = np.asarray(getattr(targets, field_name), dtype=np.float64)[rows]
        if target.size:
            spans.append((term, field_name, rows, target.shape, at, at + target.size))
            targets_l1.append(target.ravel())
            counts.append(np.full(target.size, float(rows.size)))
            at += target.size
    l1_pred = np.empty(at)
    seg_pos = np.asarray(targets.ground_label)[fg] == 1
    return LossRows(
        fg=fg,
        ce_terms=tuple(ce_terms),
        l1_terms=tuple((term, field_name, rows, flat(field_name, rows),
                        l1_pred[lo:hi].reshape(shape), lo, hi)
                       for term, field_name, rows, shape, lo, hi in spans),
        l1_pred=l1_pred,
        l1_target=np.concatenate(targets_l1),
        l1_count=np.concatenate(counts),
        seg_pos=seg_pos,
        seg_alpha=np.where(seg_pos, _FOCAL_ALPHA, 1.0 - _FOCAL_ALPHA),
        grad=grad,
        shapes=shapes,
    )


def composite_box_loss(out, rows: LossRows) -> tuple[float, LossBreakdown]:
    """Total training loss over a batch of per-center raw outputs.

    ``out`` is a dataclass of per-center arrays (a ``head.HeadOutput``);
    ``rows`` is its frame's :func:`loss_rows`.
    Classification, dimension, position, and yaw terms sum over foreground
    centers and divide by their count; the terrain focal term does the
    same; the tilt term averages over foreground centers on sloped terrain
    only and is zero when there are none.  An all-background batch has
    zero loss and an all-zero gradient.  The total is the unweighted sum
    ``cls + dim + posi + (seg + tilt) + (yaw_bin + yaw_res)``.
    """
    for name, shape in rows.shapes:
        if getattr(out, name).shape != shape:
            raise ShapeMismatchError(
                f"output {name} has shape {getattr(out, name).shape}, the loss rows {shape}"
            )
    grad = rows.grad
    terms = dict.fromkeys(_TERM_KEYS, 0.0)
    result = LossBreakdown(total=0.0, terms=terms, grad=grad)
    fg = rows.fg
    n_p = fg.size
    if n_p == 0:
        return 0.0, result

    # rows are gathered with take and written back with put, by index;
    # np.add.reduce is the sum that ndarray.sum runs, without its wrapper
    for term, field_name, picks, flat in rows.ce_terms:
        loss, dloss = _cross_entropy(getattr(out, field_name).take(fg, axis=0), picks)
        terms[term] = float(np.add.reduce(loss)) / n_p
        dloss /= n_p
        getattr(grad, field_name).put(flat, dloss)

    # the smooth-L1 terms in one pass over their values, laid end to end;
    # each term sums and writes back its own span
    for _, field_name, idx, _, pred, _, _ in rows.l1_terms:
        # the rows are in range; "clip" takes them into pred unbuffered
        getattr(out, field_name).take(idx, axis=0, out=pred, mode="clip")
    loss, dloss = smooth_l1(rows.l1_pred, rows.l1_target)
    dloss /= rows.l1_count
    for term, field_name, idx, flat, _, lo, hi in rows.l1_terms:
        terms[term] = float(np.add.reduce(loss[lo:hi])) / idx.size
        getattr(grad, field_name).put(flat, dloss[lo:hi])

    p = out.s_g.take(fg)
    inside = (p > _PROB_EPS) & (p < 1.0 - _PROB_EPS)
    saturated = not inside.all()
    if saturated:
        p = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
    seg_loss, seg_grad = _focal_loss(p, rows.seg_pos, rows.seg_alpha, _FOCAL_GAMMA)
    if saturated:
        # a saturated score sits on the clip boundary; its true upstream
        # gradient through the sigmoid is ~0, so drop the clipped one
        seg_grad = np.where(inside, seg_grad, 0.0)
    terms["seg"] = float(np.add.reduce(seg_loss)) / n_p
    seg_grad /= n_p
    grad.s_g.put(fg, seg_grad)

    result.total = float(
        terms["cls"] + terms["dim"] + terms["posi"]
        + (terms["seg"] + terms["tilt"])
        + (terms["yaw_bin"] + terms["yaw_res"])
    )
    return result.total, result


@dataclass
class AdamState:
    """First/second moments shaped like the parameter array, and the step count.

    ``work`` holds two pairs of block-sized buffers that :func:`adam_step`
    computes its temporaries in: ``work[0]`` for the calling thread,
    ``work[1]`` for the helper thread.
    """

    m: np.ndarray
    v: np.ndarray
    work: np.ndarray = field(repr=False)
    t: int = 0


def init_adam_state(param: np.ndarray) -> AdamState:
    return AdamState(
        m=np.zeros_like(param),
        v=np.zeros_like(param),
        work=np.empty((2, 2, min(param.size, _ADAM_BLOCK))),
    )


def adam_step(param: np.ndarray, grad, state: AdamState, lr: float = 1e-3) -> None:
    """One in-place Adam update (betas 0.9/0.999, eps 1e-8) of one array.

    The array is updated in blocks of ``_ADAM_BLOCK`` elements with the
    elementwise operations of Kingma & Ba in a fixed order, so the result
    is the same float for float as one whole-array pass.  The parameter
    and the moments must be C-contiguous: they are updated through flat
    views.
    """
    if not param.shape == np.shape(grad) == state.m.shape == state.v.shape:
        raise ShapeMismatchError(
            f"param {param.shape}, grad {np.shape(grad)} and moments "
            f"{state.m.shape}/{state.v.shape} disagree"
        )
    if not (param.flags.c_contiguous and state.m.flags.c_contiguous
            and state.v.flags.c_contiguous):
        raise ShapeMismatchError("the parameter and moments must be C-contiguous")
    state.t += 1
    b1, b2 = _ADAM_BETAS
    step = (lr, 1.0 - b1**state.t, 1.0 - b2**state.t)
    flat = (param.reshape(-1), np.reshape(grad, -1), state.m.reshape(-1), state.v.reshape(-1))
    size = param.size
    # the helper thread takes the upper half of the blocks in its own buffers;
    # every element's update is the same whichever thread runs it
    split = (size + _ADAM_BLOCK - 1) // _ADAM_BLOCK // 2 * _ADAM_BLOCK
    helper = None
    if size >= _HELPER_MIN_ADAM_BLOCKS * _ADAM_BLOCK:
        helper = _offload(_adam_blocks, *flat, state.work[1], split, size, step)
    try:
        _adam_blocks(*flat, state.work[0], 0, size if helper is None else split, step)
    finally:
        if helper is not None:
            helper.wait()


def _adam_blocks(p, g, m, v, work, lo: int, hi: int, step) -> None:
    # adam_step on elements lo:hi of the flat arrays, one block at a time;
    # step is (lr, bias correction 1, bias correction 2)
    b1, b2 = _ADAM_BETAS
    lr, correct1, correct2 = step
    for start in range(lo, hi, _ADAM_BLOCK):
        end = min(start + _ADAM_BLOCK, hi)
        pb, gb, mb, vb = p[start:end], g[start:end], m[start:end], v[start:end]
        a, b = work[0, :end - start], work[1, :end - start]
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        mb *= b1
        np.multiply(gb, 1.0 - b1, out=a)
        mb += a
        vb *= b2
        np.multiply(gb, 1.0 - b2, out=a)
        a *= gb
        vb += a
        # p -= lr (m / c1) / (sqrt(v / c2) + eps)
        np.divide(mb, correct1, out=a)
        a *= lr
        np.divide(vb, correct2, out=b)
        np.sqrt(b, out=b)
        b += _ADAM_EPS
        a /= b
        pb -= a


def grad_check(f, x: np.ndarray) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a 1-D float64 array to ``(value, gradient)``; each
    coordinate is stepped by ``+-1e-6``.  The relative error denominator
    is ``max(|analytic|, |numeric|, 1e-8)`` per coordinate.
    """
    x = np.asarray(x, dtype=np.float64)
    _, analytic = f(x)
    analytic = np.asarray(analytic, dtype=np.float64)
    worst = 0.0
    for i in range(x.size):
        x_hi = x.copy()
        x_lo = x.copy()
        x_hi.flat[i] += _FD_STEP
        x_lo.flat[i] -= _FD_STEP
        hi, _ = f(x_hi)
        lo, _ = f(x_lo)
        # divide by the realized span: x +- step rounds, the step itself may not
        numeric = (hi - lo) / (x_hi.flat[i] - x_lo.flat[i])
        a = float(analytic.flat[i])
        err = abs(a - float(numeric)) / max(abs(a), abs(float(numeric)), 1e-8)
        worst = max(worst, err)
    return worst


_MAGIC = b"FPNN"


def save_mlps(mlps, path) -> None:
    """Write a sequence of MlpParams to the flat binary container."""
    mlps = list(mlps)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(mlps)))
        for mlp in mlps:
            fh.write(struct.pack("<I", len(mlp.layers)))
            for layer in mlp.layers:
                out_dim, in_dim = layer.weights.shape
                code = _ACTIVATIONS.index(layer.activation)
                fh.write(struct.pack("<IIB", out_dim, in_dim, code))
                fh.write(layer.weights.astype("<f8").tobytes())
                fh.write(layer.bias.astype("<f8").tobytes())


def load_mlps(path) -> list[MlpParams]:
    """Read MLP stacks written by :func:`save_mlps`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a parameter container (bad magic)")
    offset = 4

    def take(fmt):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(data):
            raise ValueError(f"{path}: truncated parameter container")
        vals = struct.unpack_from(fmt, data, offset)
        offset += size
        return vals

    (n_mlps,) = take("<I")
    mlps = []
    for _ in range(n_mlps):
        (n_layers,) = take("<I")
        layers = []
        for _ in range(n_layers):
            out_dim, in_dim, code = take("<IIB")
            if code >= len(_ACTIVATIONS):
                raise ValueError(f"{path}: unknown activation code {code}")
            count = out_dim * in_dim
            need = (count + out_dim) * 8
            if offset + need > len(data):
                raise ValueError(f"{path}: truncated parameter container")
            weights = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
            offset += count * 8
            bias = np.frombuffer(data, dtype="<f8", count=out_dim, offset=offset)
            offset += out_dim * 8
            layers.append(
                DenseLayer(
                    weights=weights.reshape(out_dim, in_dim).copy(),
                    bias=bias.copy(),
                    activation=_ACTIVATIONS[code],
                )
            )
        mlps.append(MlpParams(layers))
    if offset != len(data):
        raise ValueError(f"{path}: trailing bytes in parameter container")
    return mlps
