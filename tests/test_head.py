import hashlib
import math
import os
import select
import signal
import threading
from dataclasses import fields

import numpy as np
import pytest

from fullpose import nn, verify
from fullpose.codec import BoxTargets, CodecConfig, encode_tilt
from fullpose.geom import EulerXYZ, FullPoseBox, box_columns
from fullpose.head import (
    _BRANCHES,
    _GROUPS,
    EmptyDatasetError,
    HeadConfig,
    HeadOutput,
    HeadParams,
    grad_slots,
    head_decode,
    head_forward,
    head_loss,
    head_param_list,
    init_head,
    load_head,
    loss_rows,
    save_head,
    train_toy,
)
from fullpose.nn import _ADAM_BLOCK, ShapeMismatchError

import oracles  # noqa: E402

SMALL = HeadConfig(feature_dim=12, shared_widths=(16, 12), seg_hidden=(8,))
DEG = math.radians(1.0)


class TestForward:
    def test_empty_batch(self):
        params = init_head(SMALL, np.random.default_rng(0))
        out = head_forward(params, np.zeros((0, 12)))
        assert len(out) == 0
        assert out.class_logits.shape == (0, 2)
        assert out.yaw_bin_logits.shape == (0, 12)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        params = init_head(SMALL, rng)
        feats = rng.standard_normal((10, 12))
        a = head_forward(params, feats)
        b = head_forward(params, feats)
        assert a.class_logits.tobytes() == b.class_logits.tobytes()
        assert a.s_g.tobytes() == b.s_g.tobytes()
        assert a.tilt.tobytes() == b.tilt.tobytes()

    def test_slope_score_in_unit_interval(self):
        rng = np.random.default_rng(2)
        params = init_head(SMALL, rng)
        out = head_forward(params, rng.standard_normal((50, 12)) * 5)
        assert ((out.s_g >= 0) & (out.s_g <= 1)).all()

    def test_slope_score_monotone_in_final_preactivation(self):
        rng = np.random.default_rng(3)
        params = init_head(SMALL, rng)
        feats = rng.standard_normal((5, 12))
        lo = head_forward(params, feats).s_g
        params.seg.layers[-1].bias += 2.0
        hi = head_forward(params, feats).s_g
        assert (hi > lo).all()


def _crafted_output(**overrides):
    base = dict(
        class_logits=np.array([[0.0, 4.0]]),
        s_g=np.array([0.9]),
        yaw_bin_logits=np.eye(12)[[1]] * 10.0,
        yaw_residual=np.array([0.5]),
        tilt=np.array([[0.0, 1.0 / 9.0]]),
        log_dims=np.zeros((1, 3)),
        center_offset=np.zeros((1, 3)),
    )
    base.update(overrides)
    return HeadOutput(**base)


class TestDecode:
    def test_crafted_example(self):
        out = _crafted_output()
        boxes = head_decode(out, np.array([[5.0, 0.0, 0.0]]), HeadConfig())
        box = boxes[0]
        assert np.allclose(box.center, [5, 0, 0])
        assert np.allclose(box.dims, [1, 1, 1])
        assert box.euler.theta_x == 0.0
        assert abs(box.euler.theta_y - 20 * DEG) < 1e-12
        assert abs(box.euler.theta_z - math.pi / 6) < 1e-12
        assert box.class_id == 1
        assert box.score > 0.9

    def test_gate_closed_zeroes_tilt_exactly(self):
        out = _crafted_output(s_g=np.array([0.3]), tilt=np.array([[0.5, -0.7]]))
        box = head_decode(out, np.zeros((1, 3)), HeadConfig())[0]
        assert box.euler.theta_x == 0.0
        assert box.euler.theta_y == 0.0

    def test_gate_zero_for_any_params(self):
        rng = np.random.default_rng(4)
        params = init_head(SMALL, rng)
        feats = rng.standard_normal((100, 12)) * 3
        out = head_forward(params, feats)
        boxes = head_decode(out, rng.uniform(-10, 10, (100, 3)), SMALL)
        for sg, box in zip(out.s_g, boxes):
            if sg <= 0.5:
                assert box.euler.theta_x == 0.0 and box.euler.theta_y == 0.0

    def test_negative_tilt_sign_from_raw(self):
        out = _crafted_output(tilt=np.array([[-1.0 / 9.0, 0.05]]))
        box = head_decode(out, np.zeros((1, 3)), HeadConfig())[0]
        assert abs(box.euler.theta_x + 20 * DEG) < 1e-12
        assert box.euler.theta_y > 0

    def test_round_trip_through_targets(self):
        cfg = HeadConfig()
        gt = FullPoseBox(
            np.array([8.0, -2.0, 0.6]),
            np.array([4.2, 1.8, 1.6]),
            EulerXYZ(-15 * DEG, 18 * DEG, 0.8),
            class_id=1,
        )
        center = np.array([[8.2, -2.1, 0.5]])
        from fullpose.codec import make_targets

        t = make_targets(center, box_columns([gt]), cfg.codec)
        assert t.foreground[0] and t.ground_label[0] == 1
        out = HeadOutput(
            class_logits=np.array([[-20.0, 20.0]]),
            s_g=np.array([0.99]),
            yaw_bin_logits=np.eye(cfg.codec.n_yaw_bins)[[t.yaw_bin[0]]] * 10.0,
            yaw_residual=t.yaw_residual[[0]],
            tilt=t.tilt[[0]],
            log_dims=t.log_dims[[0]],
            center_offset=t.center_offset[[0]],
        )
        box = head_decode(out, center, cfg)[0]
        assert np.abs(box.center - gt.center).max() < 1e-9
        assert np.abs(box.dims - gt.dims).max() < 1e-9
        assert abs(box.euler.theta_x - gt.euler.theta_x) < 1e-9
        assert abs(box.euler.theta_y - gt.euler.theta_y) < 1e-9
        assert abs(box.euler.theta_z - gt.euler.theta_z) < 1e-9


class TestLoss:
    def test_finite_difference_full_head(self):
        assert verify.check_head_loss(np.random.default_rng(5)) < 1e-6

    def test_branch_table_names_every_output_once(self):
        predicted = [*_BRANCHES.values(), "s_g"]
        assert len(set(predicted)) == len(predicted)
        assert set(predicted) == {f.name for f in fields(HeadOutput)}
        assert _GROUPS == tuple(f.name for f in fields(HeadParams))

    def test_gradients_cover_every_group(self):
        rng = np.random.default_rng(6)
        params = init_head(SMALL, rng)
        feats = rng.standard_normal((6, 12))
        targets = verify._random_targets(6, SMALL.codec, rng)
        arrays = head_param_list(params)
        grad = np.full(sum(a.size for a in arrays), np.nan)
        loss, _ = head_loss(params, feats, loss_rows(params, targets), grad_slots(params, grad))
        want_loss, want, _ = oracles.head_loss_oracle(params, feats, targets)
        assert loss > 0 and loss == want_loss
        # one slice per array, in parameter order, each the oracle's bytes
        at = 0
        for a, w in zip(arrays, want, strict=True):
            assert w.shape == a.shape
            assert grad[at:at + a.size].tobytes() == w.tobytes()
            at += a.size
        # the shared trunk's slices follow the seg group's
        n_seg = 2 * len(params.seg.layers)
        n_shared = 2 * len(params.shared.layers)
        start = sum(a.size for a in arrays[:n_seg])
        stop = start + sum(a.size for a in arrays[n_seg:n_seg + n_shared])
        assert grad[start:stop].any()

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_gradient_vector_of_another_length_rejected(self, extra):
        rng = np.random.default_rng(6)
        params = init_head(SMALL, rng)
        size = sum(a.size for a in head_param_list(params)) + extra
        with pytest.raises(ShapeMismatchError):
            grad_slots(params, np.zeros(size))


def _toy_dataset(rng, frames=5, centers=30, feature_dim=12):
    """Targets linearly readable from the features themselves."""
    cfg = CodecConfig()
    dataset = []
    for _ in range(frames):
        fg = rng.random(centers) < 0.8
        ground = ((rng.random(centers) < 0.4) & fg).astype(np.intp)
        sign = np.where(rng.random(centers) < 0.5, 1.0, -1.0)
        tilt_deg = np.where(ground, rng.uniform(12, 25, centers), 0.0) * sign
        tilt_t = np.array([
            encode_tilt(v * DEG, cfg.t_theta_x) if ground[i] else 0.0
            for i, v in enumerate(tilt_deg)
        ])
        targets = BoxTargets(
            class_label=np.where(fg, 1, 0),
            ground_label=ground,
            yaw_bin=rng.integers(0, cfg.n_yaw_bins, centers),
            yaw_residual=rng.uniform(0.5, 1.5, centers),
            tilt=np.column_stack([tilt_t, tilt_t * 0.5]),
            log_dims=np.tile(np.log([4.2, 1.8, 1.6]), (centers, 1)),
            center_offset=rng.uniform(-0.5, 0.5, (centers, 3)),
            foreground=fg,
        )
        feats = np.zeros((centers, feature_dim))
        feats[:, 0] = ground * 2.0 - 1.0
        feats[:, 1] = tilt_t
        feats[:, 2] = tilt_t * 0.5
        feats[:, 3] = targets.yaw_residual
        feats[:, 4] = targets.yaw_bin / cfg.n_yaw_bins
        feats[:, 5:8] = targets.center_offset
        feats[:, 8:] = rng.standard_normal((centers, feature_dim - 8)) * 0.1
        dataset.append((feats, targets))
    return dataset


class TestTrainToy:
    def test_zero_learning_rate_keeps_params(self):
        rng = np.random.default_rng(7)
        dataset = _toy_dataset(rng, frames=2, centers=10)
        params, _ = train_toy(dataset, SMALL, epochs=3, seed=11, lr=0.0)
        want = init_head(SMALL, np.random.default_rng(11))
        for a, b in zip(head_param_list(params), head_param_list(want)):
            assert a.tobytes() == b.tobytes()

    def test_loss_converges(self):
        rng = np.random.default_rng(8)
        dataset = _toy_dataset(rng)
        _, log = train_toy(dataset, SMALL, epochs=200, seed=0, lr=1e-2)
        assert log[-1]["total"] < 0.1 * log[0]["total"]

    def test_moving_average_strictly_decreases(self):
        rng = np.random.default_rng(9)
        dataset = _toy_dataset(rng)
        _, log = train_toy(dataset, SMALL, epochs=120, seed=0, lr=1e-2)
        totals = np.array([rec["total"] for rec in log])
        ma = np.convolve(totals, np.ones(10) / 10, mode="valid")
        assert (np.diff(ma) < 0).all()

    def test_deterministic_logs(self):
        rng = np.random.default_rng(10)
        dataset = _toy_dataset(rng, frames=2, centers=12)
        p1, log1 = train_toy(dataset, SMALL, epochs=10, seed=3)
        p2, log2 = train_toy(dataset, SMALL, epochs=10, seed=3)
        assert log1 == log2
        for a, b in zip(head_param_list(p1), head_param_list(p2)):
            assert a.tobytes() == b.tobytes()

    def test_matches_per_array_oracle(self):
        # the trunk's second layer (120 x 300) is larger than one Adam block
        cfg = HeadConfig(feature_dim=12, shared_widths=(300, 120), seg_hidden=(8,))
        assert 120 * 300 > _ADAM_BLOCK
        dataset = _toy_dataset(np.random.default_rng(12), frames=3, centers=10)
        params, _ = train_toy(dataset, cfg, epochs=1, seed=4, lr=1e-2)
        want = oracles.train_toy_oracle(dataset, cfg, epochs=1, seed=4, lr=1e-2)
        for a, b in zip(head_param_list(params), head_param_list(want), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_matches_per_array_oracle_over_epochs(self):
        # frames of different row counts and foreground sets, one of them
        # all background: a gradient buffer row left from another frame or
        # an earlier epoch would change the parameters
        rng = np.random.default_rng(14)
        dataset = [frame for centers in (7, 4, 11)
                   for frame in _toy_dataset(rng, frames=1, centers=centers)]
        dataset.append(_toy_dataset(rng, frames=1, centers=6)[0])
        _, bg = dataset[-1]
        bg.foreground[:] = False
        bg.ground_label[:] = 0
        dataset.insert(1, dataset[-1])
        assert len({len(t) for _, t in dataset}) == 4
        assert [int(t.foreground.sum()) for _, t in dataset][1] == 0
        params, log = train_toy(dataset, SMALL, epochs=4, seed=5, lr=1e-2)
        want = oracles.train_toy_oracle(dataset, SMALL, epochs=4, seed=5, lr=1e-2)
        for a, b in zip(head_param_list(params), head_param_list(want), strict=True):
            assert a.tobytes() == b.tobytes()
        assert len(log) == 4

    def test_probes_see_every_backward_and_adam_step(self, monkeypatch):
        # counting wrappers replace the module attributes, as a tracer
        # installs its probes; each frame has its own row count
        rng = np.random.default_rng(13)
        dataset = [frame for centers in (5, 7, 9)
                   for frame in _toy_dataset(rng, frames=1, centers=centers)]
        backward_rows, adam_calls = [], []
        mlp_backward, adam_step = nn.mlp_backward, nn.adam_step

        def counted_backward(*args, **kwargs):
            assert isinstance(args[-1], np.ndarray)
            backward_rows.append(args[-1].shape[0])
            return mlp_backward(*args, **kwargs)

        def counted_adam(*args, **kwargs):
            adam_calls.append(args[0].size)
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(nn, "mlp_backward", counted_backward)
        monkeypatch.setattr(nn, "adam_step", counted_adam)
        params, _ = train_toy(dataset, SMALL, epochs=1, seed=0)
        groups = len(_GROUPS)
        assert groups == 8
        assert backward_rows == [n for n in (5, 7, 9) for _ in range(groups)]
        assert adam_calls == [sum(a.size for a in head_param_list(params))] * 3

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            train_toy([], SMALL, epochs=1, seed=0)


def _training_digest(params, log) -> str:
    h = hashlib.sha256(repr(log).encode())
    for a in head_param_list(params):
        h.update(a.tobytes())
    return h.hexdigest()


class TestHelperThread:
    """Training gives the same bytes whether or not the helper thread runs."""

    @pytest.fixture
    def paper_frames(self):
        # the paper-default head on 130 rows per frame: every trunk dW
        # product and the Adam step are over the helper's gates
        return _toy_dataset(np.random.default_rng(60), frames=2, centers=130, feature_dim=256)

    def test_paper_default_head_trains_to_the_same_bytes(self, paper_frames, monkeypatch):
        monkeypatch.setattr(nn, "_HELPER_MIN_CPUS", 1)
        offload, handed = nn._offload, []

        def counted(fn, *args, **kwargs):
            helper = offload(fn, *args, **kwargs)
            handed.append(helper is not None)
            return helper

        monkeypatch.setattr(nn, "_offload", counted)
        with_helper = train_toy(paper_frames, HeadConfig(), epochs=2, seed=6)
        assert any(handed)
        monkeypatch.setattr(nn, "_helper", lambda: None)
        inline = train_toy(paper_frames, HeadConfig(), epochs=2, seed=6)
        assert with_helper[1] == inline[1]
        assert _training_digest(*with_helper) == _training_digest(*inline)

    def test_split_products_train_to_the_one_call_bytes(self, paper_frames, monkeypatch):
        monkeypatch.setattr(nn, "_HELPER_MIN_CPUS", 1)
        monkeypatch.setattr(nn, "_helper_thread", None)
        halves, probes = [], []
        run_halves, verdict = nn._halves, nn._verdict

        def counted_halves(*args):
            halves.append(run_halves(*args))
            return halves[-1]

        def counted_verdict(*args):
            probes.append(args[1])
            return verdict(*args)

        monkeypatch.setattr(nn, "_halves", counted_halves)
        monkeypatch.setattr(nn, "_verdict", counted_verdict)
        with_split = train_toy(paper_frames, HeadConfig(), epochs=2, seed=6)
        # one probe per key, each recorded: the trunk's two forward layers and
        # its first-layer dW; the seg stack's products are under the multiply-add gate
        verdicts = nn._helper_thread.verdicts
        assert sorted(verdicts) == sorted(probes) and len(probes) == 3
        # every step splits the keys whose verdict is equal: all three on the
        # measured core
        splits = sum(halves) - len(probes)
        assert splits == sum(verdicts.values()) * 2 * len(paper_frames)
        assert splits == 3 * 2 * len(paper_frames) or not oracles.on_measured_core()
        # a helper that takes no half: each product is its one call
        monkeypatch.setattr(nn, "_halves", lambda *args: False)
        one_call = train_toy(paper_frames, HeadConfig(), epochs=2, seed=6)
        assert with_split[1] == one_call[1], oracles.blas_build()
        assert _training_digest(*with_split) == _training_digest(*one_call), oracles.blas_build()

    def test_small_head_starts_no_thread(self, monkeypatch):
        # the crowded benchmark's head: no call is over a gate
        monkeypatch.setattr(nn, "_HELPER_MIN_CPUS", 1)
        monkeypatch.setattr(nn, "_helper_thread", None)
        before = threading.active_count()
        cfg = HeadConfig(feature_dim=16, shared_widths=(32, 16), seg_hidden=(16,))
        train_toy(_toy_dataset(np.random.default_rng(61), frames=2, centers=130, feature_dim=16),
                  cfg, epochs=2, seed=0)
        assert nn._helper_thread is None
        assert threading.active_count() == before

    def test_forked_child_trains_without_the_parents_helper(self, paper_frames, monkeypatch):
        monkeypatch.setattr(nn, "_HELPER_MIN_CPUS", 1)
        want = _training_digest(*train_toy(paper_frames, HeadConfig(), epochs=1, seed=7))
        assert nn._helper_thread is not None
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child reports its digest and exits without the parent's cleanup
            code = 1
            try:
                os.close(read_end)
                got = _training_digest(*train_toy(paper_frames, HeadConfig(), epochs=1, seed=7))
                os.write(write_end, got.encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        try:
            ready, _, _ = select.select([read_end], [], [], 60.0)
            got = os.read(read_end, 64).decode() if ready else None
        finally:
            os.close(read_end)
            if not ready:  # a child waiting on a helper that fork did not copy
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        assert got == want
        assert os.waitstatus_to_exitcode(status) == 0


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        params = init_head(SMALL, rng)
        path = tmp_path / "head.bin"
        save_head(params, path)
        loaded = load_head(path)
        for a, b in zip(head_param_list(params), head_param_list(loaded)):
            assert a.tobytes() == b.tobytes()
        feats = rng.standard_normal((4, 12))
        out_a = head_forward(params, feats)
        out_b = head_forward(loaded, feats)
        assert out_a.class_logits.tobytes() == out_b.class_logits.tobytes()
