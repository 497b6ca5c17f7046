import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fullpose import dataio
from fullpose.evaluation import (
    EvalConfig,
    FrameMismatchError,
    InputOutOfRangeError,
    MatchCriterion,
    _tp_errors,
    assign_difficulty,
    average_precision,
    evaluate,
    match,
    rods,
    tp_scores,
)
from fullpose.geom import (
    EulerXYZ,
    FullPoseBox,
    MissingScoreError,
    RigidTransform,
    box_columns,
    center_distance,
    euler_to_matrix,
    nms,
    pairwise_center_distance,
    transform_box,
)

import oracles

CD = MatchCriterion("center_distance", 1.0)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def box(center, dims=(4.0, 2.0, 1.5), tx=0.0, ty=0.0, tz=0.0, class_id=1, score=None):
    return FullPoseBox(np.array(center, float), np.array(dims, float),
                       EulerXYZ(tx, ty, tz), class_id=class_id, score=score)


class TestDifficulty:
    def test_easy(self):
        assert assign_difficulty(45.0, 0, 0.0) == "easy"

    def test_moderate(self):
        assert assign_difficulty(30.0, 1, 0.2) == "moderate"

    def test_hard(self):
        assert assign_difficulty(26.0, 2, 0.45) == "hard"

    def test_ignored(self):
        assert assign_difficulty(10.0, 3, 0.9) == "ignored"


def tp_errors(a, b):
    """(translation error, aligned scale IoU, geodesic) of the one pair (a, b)."""
    return tuple(e[0] for e in _tp_errors(box_columns([a]), box_columns([b])))


class TestTpComponents:
    def test_geodesic_identity(self):
        b = box([0, 0, 0])
        assert tp_errors(b, b)[2] == 0.0

    def test_geodesic_quarter_turn(self):
        a = box([0, 0, 0])
        for e in (EulerXYZ(math.pi / 2, 0, 0), EulerXYZ(0, 0, math.pi / 2)):
            b = FullPoseBox(a.center, a.dims, e)
            assert abs(tp_errors(a, b)[2] - math.pi / 2) < 1e-12

    def test_aligned_scale_iou(self):
        a = box([0, 0, 0], dims=(2, 2, 2))
        b = box([5, 5, 5], dims=(1, 1, 1), tz=1.0)
        assert tp_errors(a, a)[1] == 1.0
        assert abs(tp_errors(a, b)[1] - 1.0 / 8.0) < 1e-12

    def test_batched_errors_equal_the_scalar_oracle_bit_for_bit(self):
        # full-pose pairs, a quarter of them with identical rotations
        rng = np.random.default_rng(26)
        n = 4000

        def boxes(euler):
            return [FullPoseBox(c, d, EulerXYZ(*e)) for c, d, e in
                    zip(rng.uniform(-20, 20, (n, 3)), rng.uniform(0.3, 5, (n, 3)), euler.tolist())]

        euler = rng.uniform(-math.pi, math.pi, (n, 3))
        euler[:, 1] /= 2.0
        other = rng.uniform(-math.pi, math.pi, (n, 3))
        other[:, 1] /= 2.0
        order = rng.permutation(n)  # det i is paired with gt order[i]
        other[order[::4]] = euler[::4]
        dets, gts = boxes(euler), boxes(other)
        got = _tp_errors(box_columns(dets), box_columns(gts).take(order))
        want = np.array([oracles.tp_errors_oracle(dets[i], gts[j])
                         for i, j in enumerate(order.tolist())]).T
        build = f"numpy {np.__version__}, {oracles.blas_build()}"
        for name, g, w in zip(("trans", "scale", "orient"), got, want):
            assert g.tobytes() == w.tobytes(), (name, build)
        same = np.flatnonzero((euler == other[order]).all(axis=1))
        assert same.size >= n // 4 and not got[2][same].any()

    def test_match_gives_each_tp_the_scalar_errors(self):
        rng = np.random.default_rng(27)
        gts = [box(rng.uniform(-15, 15, 3), rng.uniform(1, 4, 3), *rng.uniform(-0.5, 0.5, 3))
               for _ in range(15)]
        dets = [box(g.center + rng.uniform(-0.4, 0.4, 3), g.dims * rng.uniform(0.8, 1.2, 3),
                    *(g.euler.as_array() + rng.uniform(-0.2, 0.2, 3)).tolist(),
                    score=float(rng.uniform())) for g in gts + gts[:5]]
        res = match(dets, gts, CD)
        assert res.det_tp.sum() >= 10
        for i in np.flatnonzero(res.det_tp).tolist():
            want = oracles.tp_errors_oracle(dets[i], gts[res.det_gt[i]])
            assert (res.trans_error[i], res.scale_score[i], res.orient_error[i]) == want
        assert np.isnan(res.trans_error[~res.det_tp]).all()


class TestMatch:
    def test_exact_detection(self):
        gt = box([5, 0, 0])
        det = box([5, 0, 0], score=0.9)
        res = match([det], [gt], CD)
        assert res.det_tp[0]
        assert res.trans_error[0] == 0.0
        assert res.scale_score[0] == 1.0
        assert res.orient_error[0] == 0.0

    def test_no_detections(self):
        res = match([], [box([0, 0, 0]), box([10, 0, 0])], CD)
        assert res.n_gt == 2
        assert not res.gt_matched.any()

    def test_greedy_assignment_matches_reference(self):
        gts = [box([0, 0, 0]), box([3, 0, 0])]
        dets = [
            box([0.4, 0, 0], score=0.9),   # nearest gt0
            box([0.2, 0, 0], score=0.8),   # wants gt0, taken -> gt a bit far
            box([3.1, 0, 0], score=0.7),   # gt1 if still free
        ]
        res = match(dets, gts, CD)

        # literal greedy reference
        taken = set()
        want_tp = []
        for i in sorted(range(3), key=lambda k: -dets[k].score):
            best, best_d = -1, None
            for j, gt in enumerate(gts):
                if j in taken:
                    continue
                d = float(np.linalg.norm(dets[i].center - gt.center))
                if d <= 1.0 and (best_d is None or d < best_d):
                    best, best_d = j, d
            if best >= 0:
                taken.add(best)
            want_tp.append((i, best >= 0))
        for i, flag in want_tp:
            assert res.det_tp[i] == flag

    def test_missing_score_raises(self):
        with pytest.raises(ValueError, match="score"):
            match([box([0, 0, 0])], [box([0, 0, 0])], CD)

    def test_iou_criterion(self):
        gt = box([0, 0, 0])
        近 = box([0.2, 0, 0], score=0.9)
        res = match([近], [gt], MatchCriterion("iou3d", 0.7))
        assert res.det_tp[0]
        res = match([box([3.0, 0, 0], score=0.9)], [gt], MatchCriterion("iou3d", 0.7))
        assert not res.det_tp[0]


    @pytest.mark.parametrize("kind", ["iou3d", "bev_iou", "center_distance"])
    def test_matches_scalar_reference_with_ignored_gts(self, kind):
        # crowded full-pose boxes: detections compete for GTs and most
        # detections qualify for several GTs, so the best-value choice matters
        rng = np.random.default_rng(21)
        value_fn = {
            "iou3d": oracles.iou3d_oracle,
            "bev_iou": oracles.bev_iou_oracle,
            "center_distance": lambda a, b: float(np.linalg.norm(a.center - b.center)),
        }[kind]
        threshold = 1.5 if kind == "center_distance" else 0.1
        criterion = MatchCriterion(kind, threshold)
        multi = 0
        for trial in range(20):
            gts = [box(rng.uniform(-1.5, 1.5, 3), rng.uniform(1, 4, 3), *rng.uniform(-0.3, 0.3, 2),
                       tz=rng.uniform(0, 2 * math.pi)) for _ in range(5)]
            dets = []
            for gt in gts:
                for _ in range(3):
                    dets.append(box(gt.center + rng.normal(0, 0.4, 3), gt.dims * rng.uniform(0.8, 1.2, 3),
                                    tz=gt.euler.theta_z + rng.normal(0, 0.3),
                                    score=round(float(rng.random()), 2)))
            ignored = rng.random(len(gts)) < 0.3
            res = match(dets, gts, criterion, gt_ignored=ignored)

            taken = set()
            want_gt, want_ignored = [], []
            for i in sorted(range(len(dets)), key=lambda k: (-dets[k].score, k)):
                best, best_v = -1, None
                for j, gt in enumerate(gts):
                    if ignored[j] or j in taken:
                        continue
                    v = value_fn(dets[i], gt)
                    ok = v <= threshold if kind == "center_distance" else v >= threshold
                    better = best_v is None or (v < best_v if kind == "center_distance" else v > best_v)
                    if ok and better:
                        best, best_v = j, v
                if best >= 0:
                    taken.add(best)
                want_gt.append((i, best))
                want_ignored.append((i, best < 0 and any(
                    ignored[j] and (value_fn(dets[i], gts[j]) <= threshold if kind == "center_distance"
                                    else value_fn(dets[i], gts[j]) >= threshold)
                    for j in range(len(gts)))))
            for i, j in want_gt:
                assert res.det_gt[i] == j, (trial, i)
                assert res.det_tp[i] == (j >= 0)
            for i, flag in want_ignored:
                assert res.det_ignored[i] == flag, (trial, i)
            assert res.n_gt == int((~ignored).sum())
            multi += sum(
                sum(value_fn(d, gt) <= threshold if kind == "center_distance"
                    else value_fn(d, gt) >= threshold for gt in gts) > 1
                for d in dets)
        assert multi > 50  # the choice between qualifying GTs is exercised

    def test_empty_inputs(self):
        res = match([box([0, 0, 0], score=0.5)], [], MatchCriterion("iou3d", 0.7))
        assert not res.det_tp.any() and res.n_gt == 0 and res.gt_matched.shape == (0,)
        res = match([], [], CD)
        assert res.det_tp.shape == (0,) and res.n_gt == 0


class TestScoreRule:
    def test_nms_and_match_rank_tied_scores_alike(self):
        scores = [0.5, 0.9, 0.5, 0.9, 0.7, 0.5]
        want = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        apart = [box([10.0 * i, 0, 0], score=s) for i, s in enumerate(scores)]
        assert nms(apart, 0.1).tolist() == want
        # identical detections on identical GTs: the k-th in rank takes GT k
        stacked = [box([0, 0, 0], score=s) for s in scores]
        res = match(stacked, [box([0, 0, 0]) for _ in scores], CD)
        assert [int(np.flatnonzero(res.det_gt == k)[0]) for k in range(len(scores))] == want

    def test_missing_score_names_the_box(self):
        boxes = [box([0, 0, 0], score=0.5), box([5, 0, 0])]
        with pytest.raises(MissingScoreError, match="^box 1 has no score$"):
            nms(boxes, 0.1)
        with pytest.raises(MissingScoreError, match="^box 1 has no score$"):
            match(boxes, [box([0, 0, 0])], CD)


class TestCriterionLabels:
    def test_labels(self):
        assert MatchCriterion("iou3d", 0.7).label == "iou3d@0.7"
        assert MatchCriterion("bev_iou", 0.7).label == "bev@0.7"
        assert MatchCriterion("center_distance", 1.0).label == "cd@1"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown criterion kind"):
            MatchCriterion("iou2d", 0.7)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_distance_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="distance threshold must be positive"):
            MatchCriterion("center_distance", threshold)

    def test_report_keys(self):
        gts = {"a": [box([0, 0, 0]), box([10, 0, 0], class_id=2)]}
        dets = {"a": [box([0.1, 0, 0], score=0.9)]}
        report = evaluate(dets, gts, gt_difficulty_by_frame={"a": ["easy", "hard"]})
        assert sorted(report.ap) == [
            (1, bucket, crit) for bucket in ("easy", "hard", "moderate")
            for crit in ("bev@0.7", "iou3d@0.7")
        ] + [(2, "hard", "bev@0.7"), (2, "hard", "iou3d@0.7")]
        assert {c: s["criterion"] for c, s in report.rotated.items()} == {1: "cd@1", 2: "cd@1"}


class TestAveragePrecision:
    def _perfect(self):
        gts = [box([i * 10, 0, 0]) for i in range(4)]
        dets = [box([i * 10, 0, 0], score=0.9 - 0.1 * i) for i in range(4)]
        return match(dets, gts, CD)

    def test_perfect_detector(self):
        assert average_precision([self._perfect()], 11) == 1.0
        assert average_precision([self._perfect()], 40) == 1.0

    def test_no_detections(self):
        res = match([], [box([0, 0, 0])], CD)
        assert average_precision([res], 11) == 0.0

    def test_hand_interpolated_case(self):
        # flags in score order: TP FP TP TP FP over 4 GTs
        gts = [box([i * 10, 0, 0]) for i in range(4)]
        dets = [
            box([0, 0, 0], score=0.9),
            box([55, 0, 0], score=0.8),
            box([10, 0, 0], score=0.7),
            box([20, 0, 0], score=0.6),
            box([66, 0, 0], score=0.5),
        ]
        res = match(dets, gts, CD)
        assert list(res.det_tp) == [True, False, True, True, False]
        assert abs(average_precision([res], 11) - 6.75 / 11) < 1e-12
        assert abs(average_precision([res], 40) - 0.625) < 1e-12

    def test_positions_validated(self):
        with pytest.raises(ValueError):
            average_precision([self._perfect()], 20)


class TestTpScores:
    def test_exact_matches(self):
        gts = [box([0, 0, 0]), box([10, 0, 0])]
        dets = [box([0, 0, 0], score=0.9), box([10, 0, 0], score=0.8)]
        s = tp_scores([match(dets, gts, CD)])
        assert (s.ats, s.ass, s.aos) == (1.0, 1.0, 1.0)
        assert s.defined and s.n_tp == 2

    def test_half_meter_offset(self):
        res = match([box([0.5, 0, 0], score=0.9)], [box([0, 0, 0])], CD)
        s = tp_scores([res], d_th=1.0)
        assert abs(s.ats - 0.5) < 1e-12

    def test_quarter_turn_orientation(self):
        det = box([0, 0, 0], tz=math.pi / 2, score=0.9)
        res = match([det], [box([0, 0, 0])], CD)
        s = tp_scores([res])
        assert abs(s.aos - 0.5) < 1e-12

    def test_no_tps_flagged(self):
        res = match([box([50, 0, 0], score=0.9)], [box([0, 0, 0])], CD)
        s = tp_scores([res])
        assert not s.defined
        assert (s.ats, s.ass, s.aos) == (0.0, 0.0, 0.0)

    def test_invariant_under_global_rigid_motion(self):
        rng = np.random.default_rng(0)
        gts = [box(rng.uniform(-10, 10, 3), tz=rng.uniform(0, 6)) for _ in range(5)]
        dets = [
            box(g.center + rng.uniform(-0.3, 0.3, 3), tz=g.euler.theta_z + rng.uniform(-0.2, 0.2),
                score=float(rng.random()))
            for g in gts
        ]
        s0 = tp_scores([match(dets, gts, CD)])
        motion = RigidTransform(
            rotation=euler_to_matrix(EulerXYZ(0, 0, 1.1)), pivot=np.array([7.0, -3.0, 2.0])
        )
        dets_m = [transform_box(b, motion) for b in dets]
        gts_m = [transform_box(b, motion) for b in gts]
        s1 = tp_scores([match(dets_m, gts_m, CD)])
        assert abs(s0.ats - s1.ats) < 1e-9
        assert abs(s0.ass - s1.ass) < 1e-9
        assert abs(s0.aos - s1.aos) < 1e-9


class TestRods:
    def test_all_ones(self):
        assert rods(1.0, 1.0, 1.0, 1.0) == 1.0

    def test_paper_rows(self):
        ours = rods(0.8688, 0.8097, 0.8689, 0.8436)
        assert abs(ours - 0.8548) < 1e-4
        baseline = rods(0.4950, 0.7722, 0.8649, 0.7633)
        assert abs(baseline - 0.6476) < 1e-4

    def test_linear_in_each_argument(self):
        base = rods(0.5, 0.5, 0.5, 0.5)
        assert abs(rods(0.6, 0.5, 0.5, 0.5) - base - 0.3 / 6) < 1e-12
        assert abs(rods(0.5, 0.6, 0.5, 0.5) - base - 0.1 / 6) < 1e-12

    def test_range_validated(self):
        with pytest.raises(InputOutOfRangeError):
            rods(1.2, 0.5, 0.5, 0.5)


def _echo_frames(n_frames=4, rng=None):
    rng = rng or np.random.default_rng(1)
    gts, dets = {}, {}
    for f in range(n_frames):
        frame = f"{f:06d}"
        boxes = [
            box(rng.uniform(-15, 15, 3), tz=rng.uniform(0, 2 * math.pi),
                ty=rng.uniform(-0.2, 0.2))
            for _ in range(4)
        ]
        gts[frame] = boxes
        dets[frame] = [
            FullPoseBox(b.center.copy(), b.dims.copy(), b.euler, class_id=b.class_id, score=1.0)
            for b in boxes
        ]
    return dets, gts


class TestEvaluate:
    def test_gt_echo_is_perfect(self):
        dets, gts = _echo_frames()
        report = evaluate(dets, gts)
        assert report.ap
        assert all(v == 1.0 for v in report.ap.values())
        suite = report.rotated[1]
        assert suite["ap_cd"] == 1.0
        assert suite["rods"] == 1.0

    def test_empty_detections_zero_ap(self):
        _, gts = _echo_frames()
        report = evaluate({}, gts)
        assert all(v == 0.0 for v in report.ap.values())
        assert report.rotated[1]["ap_cd"] == 0.0

    def test_unknown_frames_rejected(self):
        dets, gts = _echo_frames()
        dets["zzz"] = []
        with pytest.raises(FrameMismatchError):
            evaluate(dets, gts)

    def test_difficulty_buckets(self):
        gt_easy = box([0, 0, 0])
        gt_hard = box([20, 0, 0])
        dets = {
            "f": [box([0, 0, 0], score=0.9), box([20, 0, 0], score=0.8)]
        }
        gts = {"f": [gt_easy, gt_hard]}
        report = evaluate(dets, gts, gt_difficulty_by_frame={"f": ["easy", "hard"]})
        assert report.ap[(1, "easy", "iou3d@0.7")] == 1.0
        assert report.ap[(1, "moderate", "iou3d@0.7")] == 1.0
        assert report.ap[(1, "hard", "iou3d@0.7")] == 1.0

    def test_missing_difficulty_frame_is_value_error(self):
        dets, gts = _echo_frames(n_frames=2)
        first = sorted(gts)[0]
        diffs = {first: ["easy"] * len(gts[first])}
        with pytest.raises(ValueError, match="no entry for frame '000001'"):
            evaluate(dets, gts, gt_difficulty_by_frame=diffs)

    def test_unknown_difficulty_is_value_error(self):
        dets, gts = _echo_frames(n_frames=1)
        frame = sorted(gts)[0]
        diffs = {frame: ["easy", "medium", "hard", "hard"]}
        with pytest.raises(ValueError, match="unknown difficulty 'medium'"):
            evaluate(dets, gts, gt_difficulty_by_frame=diffs)

    def test_difficulty_count_mismatch_is_value_error(self):
        dets, gts = _echo_frames(n_frames=1)
        frame = sorted(gts)[0]
        with pytest.raises(ValueError, match="3 difficulties for 4 ground truths"):
            evaluate(dets, gts, gt_difficulty_by_frame={frame: ["easy"] * 3})

    def test_empty_bucket_omitted(self):
        dets, gts = _echo_frames(n_frames=1)
        report = evaluate(dets, gts)  # all moderate by default
        assert not any(d == "easy" for (_, d, _) in report.ap)
        assert any(d == "moderate" for (_, d, _) in report.ap)

    def test_duplicate_lower_score_detection_never_raises_ap(self):
        dets, gts = _echo_frames(n_frames=2)
        report_clean = evaluate(dets, gts)
        frame0 = sorted(dets)[0]
        extra = FullPoseBox(
            dets[frame0][0].center + 0.05, dets[frame0][0].dims,
            dets[frame0][0].euler, class_id=1, score=0.5,
        )
        dets[frame0] = dets[frame0] + [extra]
        report_dup = evaluate(dets, gts)
        assert report_dup.rotated[1]["ap_cd"] <= report_clean.rotated[1]["ap_cd"]

    def test_ap_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        dets, gts = _echo_frames(rng=rng)
        for frame in dets:
            for b in dets[frame]:
                b.center = b.center + rng.normal(0, 0.4, 3)
                b.score = float(rng.random())
        results_loose = evaluate(dets, gts, EvalConfig(cd_threshold=1.5))
        results_tight = evaluate(dets, gts, EvalConfig(cd_threshold=0.5))
        assert results_tight.rotated[1]["ap_cd"] <= results_loose.rotated[1]["ap_cd"]

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(3)
        dets, gts = _echo_frames(n_frames=6, rng=rng)
        for frame in dets:
            keep = []
            for b in dets[frame]:
                b.center = b.center + rng.normal(0, 0.3, 3)
                b.score = float(rng.random())
                if rng.random() < 0.85:
                    keep.append(b)
            extra = box(rng.uniform(-15, 15, 3), score=float(rng.random()))
            dets[frame] = keep + [extra]
        report = evaluate(dets, gts, EvalConfig(recall_positions=40))

        # naive re-derivation of AP_cd and the TP scores
        rows = []  # (score, tp, trans, scale, orient)
        n_gt = 0
        for frame in gts:
            n_gt += len(gts[frame])
            taken = set()
            for det in sorted(dets[frame], key=lambda b: -b.score):
                best, best_d = -1, None
                for j, gt in enumerate(gts[frame]):
                    if j in taken:
                        continue
                    d = float(np.linalg.norm(det.center - gt.center))
                    if d <= 1.0 and (best_d is None or d < best_d):
                        best, best_d = j, d
                if best >= 0:
                    taken.add(best)
                    gt = gts[frame][best]
                    inter = float(np.prod(np.minimum(det.dims, gt.dims)))
                    scale = inter / (det.volume + gt.volume - inter)
                    tr = float(np.trace(det.rotation().T @ gt.rotation()))
                    orient = math.acos(min(1.0, max(-1.0, (tr - 1) / 2)))
                    rows.append((det.score, True, best_d, scale, orient))
                else:
                    rows.append((det.score, False, None, None, None))
        rows.sort(key=lambda r: -r[0])
        tp_cum = np.cumsum([r[1] for r in rows])
        fp_cum = np.cumsum([not r[1] for r in rows])
        recall = tp_cum / n_gt
        precision = tp_cum / (tp_cum + fp_cum)
        want_ap = 0.0
        for r in (np.arange(40) + 1) / 40:
            mask = recall >= r
            want_ap += precision[mask].max() if mask.any() else 0.0
        want_ap /= 40
        tps = [r for r in rows if r[1]]
        want_ats = float(np.mean([1 - min(1, r[2] / 1.0) for r in tps]))
        want_ass = float(np.mean([r[3] for r in tps]))
        want_aos = float(np.mean([1 - r[4] / math.pi for r in tps]))

        suite = report.rotated[1]
        assert abs(suite["ap_cd"] - want_ap) < 1e-9
        assert abs(suite["ats"] - want_ats) < 1e-9
        assert abs(suite["ass"] - want_ass) < 1e-9
        assert abs(suite["aos"] - want_aos) < 1e-9
        assert abs(suite["rods"] - (3 * want_ap + want_ats + want_ass + want_aos) / 6) < 1e-9

    def test_csv_rows_schema(self):
        dets, gts = _echo_frames(n_frames=1)
        report = evaluate(dets, gts)
        rows = report.csv_rows()
        assert rows[0] == "class,difficulty,criterion,metric,value"
        assert all(len(r.split(",")) == 5 for r in rows[1:])


def test_center_distance_is_the_matrix_entry_on_a_crowded_eval(tmp_path, monkeypatch):
    """Every det-GT pair of the benchmark's seed-0 crowded eval: the distance
    a true positive was matched on is its translation error, bit for bit."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    from pipeline import Pipeline
    from workloads import WORKLOADS

    workload = WORKLOADS["crowded"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config))
    result = Pipeline(workload, 0, tmp_path, config, dataio.load_config(config)).run()
    assert result.failed == 0, result.errors
    build = f"numpy {np.__version__}, {oracles.blas_build()}"
    pairs, gt_paths = 0, sorted((tmp_path / "run" / "aug" / "labels").glob("*.jsonl"))
    for gt_path in gt_paths:
        gts = [rec.box for rec in dataio.read_pose6d(gt_path)]
        dets = [rec.box for rec in dataio.read_pose6d(tmp_path / "run" / "pred" / "labels"
                                                      / gt_path.name)]
        matrix = pairwise_center_distance(box_columns(dets), box_columns(gts))
        scalar = [[center_distance(det, gt) for gt in gts] for det in dets]
        assert matrix.tolist() == scalar, (gt_path.name, build)
        pairs += matrix.size
    assert len(gt_paths) == workload.test_scenes and pairs > 5_000
