"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (a failed assert means the criterion is red).
"""

import dataclasses
import math
import time
import numpy as np

import oracles
from fullpose import cli, codec, head, synth, verify
from fullpose.codec import CodecConfig, decode_tilt, decode_yaw, encode_tilt, encode_yaw, gate_tilt, wrap_angle
from fullpose.dataio import read_pose6d, read_kitti_calib, read_kitti_labels, write_pose6d, write_velodyne, read_velodyne
from fullpose.evaluation import EvalConfig, evaluate, rods
from fullpose.geom import EulerXYZ, FullPoseBox, PointCloud, box_columns, iou3d, nms, pairwise_bev_iou
from fullpose.slopeaug import LabeledFrame, SlopeAugConfig, SlopeAugParams, apply, sample_params, split_cloud

DEG = math.radians(1.0)


def _report(n, detail):
    print(f"\nACCEPTANCE {n} PASS: {detail}")


# published rotated-detection benchmark rows: (ap_cd, ats, ass, aos, printed rods)
BENCHMARK_ROWS = {
    "SECOND": (49.50, 77.22, 86.49, 76.33, 64.76),
    "PointPillars": (47.37, 76.95, 86.22, 77.94, 63.87),
    "Part-A2": (50.15, 77.37, 86.46, 80.34, 65.77),
    "PV-RCNN": (46.94, 79.80, 86.81, 83.00, 65.07),
    "CenterPoint": (51.06, 78.17, 86.64, 77.73, 65.95),
    "Voxel R-CNN": (50.99, 78.59, 86.85, 78.60, 66.17),
    "PointRCNN": (74.12, 68.47, 83.99, 64.38, 72.20),
    "3DSSD": (69.36, 69.04, 82.43, 70.98, 71.75),
    "3DSSD-SASA": (72.01, 69.23, 83.33, 69.12, 72.94),
    "IA-SSD": (67.83, 70.22, 83.87, 63.19, 70.13),
    "full-pose detector": (86.88, 80.97, 86.89, 84.36, 85.48),
}


def test_criterion_1_composite_score_arithmetic():
    """Composite score recomputed from published component columns, +-0.01."""
    start = time.monotonic()
    worst = 0.0
    for name, (ap_cd, ats, ass, aos, printed) in BENCHMARK_ROWS.items():
        got = rods(ap_cd / 100, ats / 100, ass / 100, aos / 100)
        diff = abs(got - printed / 100)
        worst = max(worst, diff)
        assert diff <= 0.01 + 1e-9, f"{name}: computed {got * 100:.2f} vs printed {printed}"
    assert abs(rods(0.8688, 0.8097, 0.8689, 0.8436) * 100 - 85.48) < 1.0
    assert abs(rods(0.4950, 0.7722, 0.8649, 0.7633) * 100 - 64.76) < 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"{len(BENCHMARK_ROWS)} rows reproduced, worst |diff| {worst:.4f} <= 0.01, {elapsed:.2f}s")


def test_criterion_2_slope_synthesis_suite():
    """Split/rotate invariants over 100 seeded frames plus the worked example."""
    start = time.monotonic()
    cfg = SlopeAugConfig()
    worst_iso = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-40, 40, (200, 3))
        pts[:, 2] = rng.uniform(-0.3, 0.3, 200)
        boxes = [
            FullPoseBox(np.append(rng.uniform(-30, 30, 2), 0.75),
                        np.array([4.2, 1.8, 1.5]), EulerXYZ(0, 0, rng.uniform(0, 2 * math.pi)),
                        class_id=1)
            for _ in range(5)
        ]
        frame = LabeledFrame(PointCloud(pts.copy()), boxes, frame_id=str(seed))
        params = sample_params(cfg, rng)
        near, far = split_cloud(frame.cloud, params.tau)
        out = apply(frame, params)

        # near side is bit-identical
        assert out.cloud.points[near].tobytes() == pts[near].tobytes()
        # far side moved rigidly (pairwise distances preserved to 1e-6 m)
        a, b = pts[far], out.cloud.points[far]
        if len(a) > 1:
            da = np.linalg.norm(a[:, None] - a[None, :], axis=2)
            db = np.linalg.norm(b[:, None] - b[None, :], axis=2)
            worst_iso = max(worst_iso, float(np.abs(da - db).max()))
            assert worst_iso <= 1e-6
        # the split predicate agrees with the assignment, checked pre-rotation
        side = params.tau @ (params.tau[:, None] - pts.T)
        assert (side[far] < 0).all() and (side[near] >= 0).all()
        # yaw is preserved verbatim on every box
        for before, after in zip(boxes, out.boxes):
            assert after.euler.theta_z == before.euler.theta_z

    # zero-angle application is an exact identity
    frame = LabeledFrame(PointCloud(np.random.default_rng(7).uniform(-30, 30, (100, 3))), [])
    params0 = SlopeAugParams(np.array([10.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 0.0)
    assert apply(frame, params0).cloud.points.tobytes() == frame.cloud.points.tobytes()

    # worked axis-angle example: anchor on +x at 10 m, 0.2 rad slope
    frame = LabeledFrame(
        PointCloud(np.array([[0.0, 0.0, 0.0]])),
        [FullPoseBox(np.array([20.0, 0.0, 0.0]), np.array([4.0, 2.0, 1.5]),
                     EulerXYZ(0, 0, 0.5), class_id=1)],
    )
    out = apply(frame, SlopeAugParams(np.array([10.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 0.2))
    want = np.array([10 + 10 * math.cos(0.2), 0.0, -10 * math.sin(0.2)])
    assert np.abs(out.boxes[0].center - want).max() < 1e-9
    assert abs(out.boxes[0].euler.theta_x - 0.0) < 1e-9
    assert abs(out.boxes[0].euler.theta_y - 0.2) < 1e-9
    assert out.boxes[0].euler.theta_z == 0.5
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(2, f"100 frames, worst isometry drift {worst_iso:.2e} m <= 1e-6, {elapsed:.2f}s")


def test_criterion_3_codec_round_trips():
    """Encode/decode identities at 1e-12 and the exact tilt gate."""
    cfg = CodecConfig()
    rng = np.random.default_rng(3)
    worst = 0.0
    for theta in rng.uniform(-20, 20, 1000):
        err = abs(decode_yaw(encode_yaw(theta, cfg), cfg) - wrap_angle(theta))
        worst = max(worst, err)
        assert err < 1e-12
    t = cfg.t_theta_x
    mags = rng.uniform(t, 80 * DEG, 1000)
    signs = np.where(rng.random(1000) < 0.5, 1.0, -1.0)
    for theta in mags * signs:
        err = abs(decode_tilt(encode_tilt(theta, t), t) - theta)
        worst = max(worst, err)
        assert err < 1e-12
    for _ in range(1000):
        dims = rng.uniform(0.1, 10, 3)
        err = float(np.abs(codec.decode_dims(codec.encode_dims(dims)) - dims).max())
        worst = max(worst, err)
        assert err < 1e-12
    for _ in range(1000):
        p, c = rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3)
        err = float(np.abs(codec.decode_center_offset(p, codec.encode_center_offset(p, c)) - c).max())
        worst = max(worst, err)
        assert err < 1e-12
    for s in np.linspace(0.0, 0.5, 200):
        assert gate_tilt(float(s), 0.7) == 0.0
    _report(3, f"4000 round trips, worst error {worst:.2e} < 1e-12; gate exactly zero for s<=0.5")


def test_criterion_4_gradient_verification():
    """Every kernel and the full head loss vs central differences."""
    start = time.monotonic()
    results = verify.gradient_suite(seed=0, points=10)
    worst = max(results.values())
    for name, err in results.items():
        assert err < 1e-6, f"{name}: {err:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(4, f"{len(results)} ops x 10 points, worst rel error {worst:.2e} < 1e-6, {elapsed:.1f}s")


def test_criterion_5_geometry_oracles():
    """Monte-Carlo IoU agreement plus exact suppression equality."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst_mc = 0.0
    for _ in range(200):
        a = FullPoseBox(rng.uniform(-2, 2, 3), rng.uniform(0.8, 4, 3),
                        EulerXYZ(0, 0, rng.uniform(0, 2 * math.pi)))
        b = FullPoseBox(a.center + rng.uniform(-2, 2, 3), rng.uniform(0.8, 4, 3),
                        EulerXYZ(0, 0, rng.uniform(0, 2 * math.pi)))
        approx = oracles.monte_carlo_iou3d(a, b, 1_000_000, rng)
        diff = abs(iou3d(a, b) - approx)
        worst_mc = max(worst_mc, diff)
        assert diff <= 0.01

    for i in range(100):
        r = np.random.default_rng(2000 + i)
        n = int(r.integers(10, 257))
        boxes = [
            FullPoseBox(np.append(r.uniform(-20, 20, 2), 0.0), r.uniform(1, 4, 3),
                        EulerXYZ(0, 0, r.uniform(0, 2 * math.pi)), score=float(r.random()))
            for _ in range(n)
        ]
        columns = box_columns(boxes)
        iou = pairwise_bev_iou(columns, columns)
        assert list(nms(boxes, 0.1)) == oracles.nms_oracle(boxes, 0.1, lambda i, j: iou[i, j])
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(5, f"200 MC pairs (worst diff {worst_mc:.4f} <= 0.01), 100 exact NMS oracle matches, {elapsed:.0f}s")


def _toy_head_dataset():
    terrain = synth.Terrain(extent=(0.0, 48.0, -12.0, 12.0), ramp_start=24.0,
                            grade=math.radians(22))
    # both tilt axes of every sloped box clear the 10 degree threshold with
    # margin, keeping the sign-symmetric tilt code in its invertible region
    spec = synth.SceneSpec(terrain=terrain, box_count=10, density=3.0, noise_sigma=0.0,
                           crease_margin=3.0, ramp_box_fraction=0.5,
                           yaw_range=(math.radians(35), math.radians(55)))
    ccfg = CodecConfig()
    dataset, rows = [], []
    for i in range(32):
        rng = np.random.default_rng(np.random.SeedSequence([100, i]))
        frame = synth.make_scene(spec, rng, frame_id=f"{i:06d}")
        centers, feats, targets = synth.make_features(
            frame, 0.02, rng, codec_cfg=ccfg, feature_dim=16, bg_per_frame=6)
        dataset.append((feats, targets))
        rows.append((centers, feats, targets, frame))
    return dataset, rows, ccfg


def test_criterion_6_toy_ground_aware_head():
    """Trainable head reaches terrain F1 and tilt accuracy targets."""
    dataset, rows, ccfg = _toy_head_dataset()
    n_centers = sum(len(t) for _, t in dataset)
    n_sloped = sum(int(((t.ground_label > 0) & t.foreground).sum()) for _, t in dataset)
    assert n_centers >= 500
    assert 0.25 <= n_sloped / n_centers <= 0.35

    cfg = head.HeadConfig(feature_dim=16, shared_widths=(64, 48), seg_hidden=(32,),
                          codec=ccfg)
    start = time.monotonic()
    params, log = head.train_toy(dataset, cfg, epochs=150, seed=7, lr=3e-3)
    train_time = time.monotonic() - start
    assert train_time < 60.0

    tp = fp = fn = 0
    tilt_errors = []
    for centers, feats, targets, frame in rows:
        out = head.head_forward(params, feats)
        boxes = head.head_decode(out, centers, cfg)
        for i in range(len(targets)):
            if targets.foreground[i]:
                pred = out.s_g[i] > 0.5
                true = targets.ground_label[i] > 0
                tp += pred and true
                fp += pred and not true
                fn += (not pred) and true
            if out.s_g[i] <= 0.5:
                # flat-gated centers decode to exactly zero tilt
                assert boxes[i].euler.theta_x == 0.0
                assert boxes[i].euler.theta_y == 0.0
        for i, gt in enumerate(frame.boxes):
            if targets.foreground[i] and targets.ground_label[i] > 0:
                tilt_errors.append(abs(boxes[i].euler.theta_x - gt.euler.theta_x) / DEG)
                tilt_errors.append(abs(boxes[i].euler.theta_y - gt.euler.theta_y) / DEG)
    f1 = 2 * tp / (2 * tp + fp + fn)
    mae = float(np.mean(tilt_errors))
    assert f1 >= 0.95
    assert mae <= 2.0
    assert log[-1]["total"] < 0.1 * log[0]["total"]

    # deterministic per seed: a rerun reproduces parameters bit for bit
    params2, log2 = head.train_toy(dataset, cfg, epochs=150, seed=7, lr=3e-3)
    assert log2 == log
    for a, b in zip(head.head_param_list(params), head.head_param_list(params2)):
        assert a.tobytes() == b.tobytes()
    _report(6, f"{n_centers} centers ({n_sloped / n_centers:.0%} sloped): "
               f"F1 {f1:.3f} >= 0.95, tilt MAE {mae:.2f} deg <= 2, train {train_time:.1f}s")


def test_criterion_7_end_to_end_pipeline(tmp_path):
    """Scene synthesis -> slope augmentation -> echo eval, then noise sweep."""
    data = tmp_path / "flat"
    sloped = tmp_path / "sloped"
    outcome = cli.run(["synth", "--scenes", "20", "--ramp-deg", "15",
                       "--output", str(data), "--boxes", "8", "--density", "2.0",
                       "--seed", "11"])
    assert outcome.exit_code == 0
    outcome = cli.run(["augment", "--input", str(data), "--output", str(sloped),
                       "--p-s", "0.5", "--seed", "11"])
    assert outcome.exit_code == 0
    assert outcome.summary["augmented"] > 0

    gts, diffs = {}, {}
    for path in sorted((sloped / "labels").glob("*.jsonl")):
        recs = read_pose6d(path)
        gts[path.stem] = [r.box for r in recs]
        diffs[path.stem] = [r.difficulty or "moderate" for r in recs]

    def echo(noise, seed=0):
        rng = np.random.default_rng(seed)
        dets = {}
        for f, boxes in gts.items():
            dets[f] = [
                dataclasses.replace(
                    b,
                    center=b.center + rng.normal(0, noise, 3) if noise else b.center.copy(),
                    dims=b.dims.copy(),
                    score=1.0 if not noise else float(rng.uniform(0.5, 1.0)),
                )
                for b in boxes
            ]
        return dets

    report = evaluate(echo(0.0), gts, EvalConfig(), diffs)
    assert report.ap, "no AP buckets computed"
    assert all(v == 1.0 for v in report.ap.values())
    suite = report.rotated[1]
    assert suite["ap_cd"] == 1.0 and suite["rods"] == 1.0

    ap_curve, ats_curve = [], []
    for noise in (0.0, 0.3, 0.6):
        rep = evaluate(echo(noise), gts, EvalConfig(), diffs)
        ap_curve.append(rep.rotated[1]["ap_cd"])
        ats_curve.append(rep.rotated[1]["ats"])
    assert ap_curve[0] > ap_curve[1] > ap_curve[2]
    assert ats_curve[0] > ats_curve[1] > ats_curve[2]
    _report(7, f"echo eval exact 1.0; ap_cd {['%.3f' % v for v in ap_curve]} and "
               f"ats {['%.3f' % v for v in ats_curve]} strictly decrease")


CALIB_TEXT = """\
P2: 700.0 0.0 600.0 0.0 0.0 700.0 180.0 0.0 0.0 0.0 1.0 0.0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0
"""
LABEL_TEXT = "Car 0.00 0 -1.58 614.24 181.78 727.31 284.77 1.57 1.73 4.15 0.0 0.0 10.0 -1.62\n"


def test_criterion_8_format_fidelity(tmp_path):
    """Bit/value-exact IO round trips and the hand-checked calib ingestion."""
    rng = np.random.default_rng(8)
    pts = rng.uniform(-80, 80, (4096, 3)).astype(np.float32).astype(np.float64)
    intensity = rng.uniform(0, 1, (4096, 1)).astype(np.float32).astype(np.float64)
    cloud = PointCloud(pts, intensity)
    bin_path = tmp_path / "cloud.bin"
    write_velodyne(cloud, bin_path)
    back = read_velodyne(bin_path)
    assert back.points.tobytes() == cloud.points.tobytes()
    assert back.extras.tobytes() == cloud.extras.tobytes()

    from fullpose.dataio import Pose6dRecord

    records = [
        Pose6dRecord("000001", FullPoseBox(
            rng.uniform(-50, 50, 3), rng.uniform(0.5, 5, 3),
            EulerXYZ(*rng.uniform(-math.pi, math.pi, 3).tolist()),
            class_id=1, score=float(rng.random())), "moderate")
        for _ in range(64)
    ]
    jsonl = tmp_path / "labels.jsonl"
    write_pose6d(records, jsonl)
    for a, b in zip(records, read_pose6d(jsonl)):
        assert np.array_equal(a.box.center, b.box.center)
        assert np.array_equal(a.box.dims, b.box.dims)
        assert a.box.euler == b.box.euler
        assert a.box.score == b.box.score

    calib_path = tmp_path / "calib.txt"
    calib_path.write_text(CALIB_TEXT)
    label_path = tmp_path / "label.txt"
    label_path.write_text(LABEL_TEXT)
    calib = read_kitti_calib(calib_path)
    car = read_kitti_labels(label_path, calib)[0].box
    # hand computation: camera (0, 0, 10) -> lidar (10, 0, 0), lifted h/2;
    # camera rotation_y -1.62 -> lidar yaw 1.62 - pi/2
    assert np.abs(car.center - [10.0, 0.0, 0.785]).max() < 1e-6
    assert np.abs(car.dims - [4.15, 1.73, 1.57]).max() < 1e-6
    assert abs(car.euler.theta_z - (1.62 - math.pi / 2)) < 1e-6
    _report(8, "velodyne bit-exact, jsonl value-exact, calib ingestion matches hand result")
