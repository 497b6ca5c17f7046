"""Detection evaluation: greedy matching, interpolated AP, TP scores.

Matching walks detections in descending score order; each detection
claims the best still-unmatched ground truth satisfying the criterion
(highest IoU, or smallest center distance).  AP interpolates the
precision envelope at 11 or 40 recall positions, KITTI style.  True
positives additionally get bounded quality scores: translation
(1 - d/d_th), scale (IoU of the boxes after aligning center and
orientation), and orientation (1 - geodesic/pi over full 3D rotations);
their averages combine with the center-distance AP into a single
composite score ``(3 * ap_cd + ats + ass + aos) / 6``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import FullposeError
from .geom import (
    BoxColumns,
    box_columns,
    checked_scores,
    lengths,
    pairwise_bev_iou,
    pairwise_center_distance,
    pairwise_iou3d,
    pairwise_ious,
    rotations,
    score_order,
)


class InputOutOfRangeError(FullposeError, ValueError):
    pass


class FrameMismatchError(FullposeError, ValueError):
    pass


DIFFICULTIES = ("easy", "moderate", "hard")
DIFFICULTY_LABELS = DIFFICULTIES + ("ignored",)  # every valid ground-truth label
_RANK = {label: rank for rank, label in enumerate(DIFFICULTY_LABELS)}


class CriterionKind(NamedTuple):
    """How one kind of match criterion compares a detection with a ground truth."""

    prefix: str         # report label prefix: ``f"{prefix}@{threshold:g}"``
    kernel: Callable    # (det columns, gt columns) -> (m, g) matrix of values
    is_distance: bool   # a match lies below the threshold, not above it


CRITERIA = {
    "iou3d": CriterionKind("iou3d", pairwise_iou3d, False),
    "bev_iou": CriterionKind("bev", pairwise_bev_iou, False),
    "center_distance": CriterionKind("cd", pairwise_center_distance, True),
}


@dataclass(frozen=True)
class MatchCriterion:
    """True-positive test: IoU above a threshold or distance below one."""

    kind: str  # a key of CRITERIA
    threshold: float

    def __post_init__(self):
        if self.kind not in CRITERIA:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.uses_distance:
            if not (math.isfinite(self.threshold) and self.threshold > 0.0):
                raise ValueError("distance threshold must be positive")
        elif not 0.0 < self.threshold <= 1.0:
            raise ValueError("IoU threshold must lie in (0, 1]")

    @property
    def uses_distance(self) -> bool:
        return CRITERIA[self.kind].is_distance

    @property
    def label(self) -> str:
        """The report label, e.g. ``iou3d@0.7`` or ``cd@1``."""
        return f"{CRITERIA[self.kind].prefix}@{self.threshold:g}"

    def values(self, dets: BoxColumns, gts: BoxColumns) -> np.ndarray:
        """(m, g) criterion values of every detection against every ground truth."""
        return CRITERIA[self.kind].kernel(dets, gts)


def assign_difficulty(bbox_height: float, occlusion: int, truncation: float) -> str:
    """KITTI difficulty from 2D box height (px), occlusion, truncation."""
    if bbox_height >= 40.0 and occlusion <= 0 and truncation <= 0.15:
        return "easy"
    if bbox_height >= 25.0 and occlusion <= 1 and truncation <= 0.30:
        return "moderate"
    if bbox_height >= 25.0 and occlusion <= 2 and truncation <= 0.50:
        return "hard"
    return "ignored"


def _tp_errors(dets, gts):
    """Center distance, 3D IoU after aligning centers and orientations, and geodesic angle
    in [0, pi] between the rotations of the row pairs of the (centers, dims, euler) ``dets``
    and ``gts``.  The angle takes ``math.acos``: ``np.arccos`` rounds some inputs differently."""
    (center_a, a, euler_a), (center_b, b, euler_b) = dets[:3], gts[:3]
    trans = lengths(center_a - center_b)
    inter = np.prod(np.minimum(a, b), axis=1)
    scale = inter / (np.prod(a, axis=1) + np.prod(b, axis=1) - inter)
    rot_a, rot_b = rotations(euler_a), rotations(euler_b)
    trace = np.trace(np.matmul(rot_a.transpose(0, 2, 1), rot_b), axis1=1, axis2=2)
    orient = np.array(list(map(math.acos, np.clip((trace - 1.0) / 2.0, -1.0, 1.0).tolist())))
    # acos would turn float noise in the product of equal rotations into a ~1e-8 angle
    orient[(rot_a == rot_b).all(axis=(1, 2))] = 0.0
    return trans, scale, orient


def _set_tp_errors(frames, results) -> None:
    """Fill in the errors of the true positives of ``results`` in one batched
    :func:`_tp_errors` pass; ``frames`` holds each result's (dets, gts) columns."""
    tps = [r.det_tp for r in results]
    dets = [np.concatenate([d[f][t] for (d, _), t in zip(frames, tps)]) for f in range(3)]
    gts = [np.concatenate([g[f][r.det_gt[t]] for (_, g), r, t in zip(frames, results, tps)])
           for f in range(3)]
    ends = np.cumsum([np.count_nonzero(t) for t in tps])[:-1]
    for r, t, errors in zip(results, tps, np.split(np.stack(_tp_errors(dets, gts)), ends, axis=1)):
        r.trans_error[t], r.scale_score[t], r.orient_error[t] = errors


@dataclass
class MatchResult:
    """Per-detection outcomes of matching one frame against its GTs."""

    det_scores: np.ndarray    # (m,)
    det_tp: np.ndarray        # (m,) bool
    det_ignored: np.ndarray   # (m,) bool, matched only an ignored GT
    det_gt: np.ndarray        # (m,) matched GT index or -1
    gt_matched: np.ndarray    # (g,) bool over counted GTs
    n_gt: int                 # number of counted GTs
    trans_error: np.ndarray   # (m,) meters, nan unless TP
    scale_score: np.ndarray   # (m,) aligned IoU, nan unless TP
    orient_error: np.ndarray  # (m,) radians, nan unless TP


def match(dets, gts, criterion: MatchCriterion, gt_ignored=None) -> MatchResult:
    """Greedily match scored detections to ground truths.

    ``gt_ignored`` optionally marks ground truths that neither count as
    targets nor turn detections into false positives; a detection whose
    only qualifying match is ignored is dropped from the PR curve.
    """
    dets, gts = box_columns(list(dets)), box_columns(list(gts))
    values = criterion.values(dets, gts)
    result = _greedy_match(checked_scores(dets.scores), _candidates(values, criterion),
                           values.shape[1], gt_ignored)
    _set_tp_errors([(dets, gts)], [result])
    return result


def _candidates(values, criterion: MatchCriterion) -> list[list[int]]:
    """For each detection (row of the (m, g) criterion matrix ``values``), the GTs that
    qualify under ``criterion``, best value first; ties go to the lower GT index."""
    if criterion.uses_distance:
        ok = values <= criterion.threshold
        cost = values
    else:
        ok = values >= criterion.threshold
        cost = -values
    order = np.argsort(np.where(ok, cost, np.inf), axis=1, kind="stable")
    return [row[:count] for row, count in zip(order.tolist(), np.add.reduce(ok, axis=1).tolist())]


def _greedy_match(scores, candidates, g: int, gt_ignored) -> MatchResult:
    """The greedy pass of :func:`match` over each detection's :func:`_candidates` among g GTs.

    Detections go in descending score order (ties: lower index first);
    each takes the qualifying untaken counted GT with the best value, the
    lowest GT index winning ties.  The TPs' errors stay NaN: :func:`_set_tp_errors`
    fills them in for the results that report them.
    """
    m = len(candidates)
    ignored_mask = np.zeros(g, dtype=bool) if gt_ignored is None else np.asarray(gt_ignored, dtype=bool)
    ignored = ignored_mask.tolist()
    taken = [False] * g
    matched_gt = [-1] * m
    ign = [False] * m
    for i in score_order(scores).tolist():
        ignored_qualifies = False
        for j in candidates[i]:
            if ignored[j]:
                ignored_qualifies = True
            elif not taken[j]:
                taken[j] = True
                matched_gt[i] = j
                break
        else:  # no counted GT left: dropped if an ignored one qualifies
            ign[i] = ignored_qualifies

    matched_gt = np.array(matched_gt, dtype=np.intp)
    trans, scale, orient = np.full((3, m), np.nan)
    return MatchResult(
        det_scores=scores,
        det_tp=matched_gt >= 0,
        det_ignored=np.array(ign, dtype=bool),
        det_gt=matched_gt,
        gt_matched=np.array(taken, dtype=bool)[~ignored_mask],
        n_gt=int(g - ignored_mask.sum()),
        trans_error=trans,
        scale_score=scale,
        orient_error=orient,
    )


def _pool(results) -> tuple[np.ndarray, np.ndarray, int]:
    scores = np.concatenate([np.zeros(0)] + [r.det_scores[~r.det_ignored] for r in results])
    tps = np.concatenate([np.zeros(0, dtype=bool)] + [r.det_tp[~r.det_ignored] for r in results])
    return scores, tps, sum(r.n_gt for r in results)


def average_precision(results, positions: int = 40) -> float:
    """Interpolated AP over a list of match results at 11 or 40 recall points."""
    if positions not in (11, 40):
        raise ValueError("positions must be 11 or 40")
    scores, tps, n_gt = _pool(results)
    if n_gt == 0 or scores.size == 0:
        return 0.0
    order = score_order(scores)
    tp_cum = np.cumsum(tps[order])
    fp_cum = np.cumsum(~tps[order])
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    if positions == 11:
        recall_points = np.linspace(0.0, 1.0, 11)
    else:
        recall_points = (np.arange(40) + 1) / 40.0
    # recall never falls, so the ranks that reach a recall point are a suffix: the
    # envelope there is the suffix max of precision, and 0 past the last rank
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    # cumsum adds the points one by one, in order, as a Python loop would
    return float(np.cumsum(envelope[recall.searchsorted(recall_points)])[-1]) / positions


@dataclass(frozen=True)
class TpScores:
    """Mean translation/scale/orientation quality over true positives."""

    ats: float
    ass: float
    aos: float
    n_tp: int
    defined: bool  # False when there were no TPs (scores reported as 0)


def tp_scores(results, d_th: float = 1.0) -> TpScores:
    """Average the bounded per-TP quality scores over a list of match results."""
    trans, scale, orient = (
        np.concatenate([np.zeros(0)] + [getattr(r, name)[r.det_tp] for r in results])
        for name in ("trans_error", "scale_score", "orient_error"))
    if trans.size == 0:
        return TpScores(0.0, 0.0, 0.0, 0, defined=False)
    ats = float(np.mean(1.0 - np.minimum(1.0, trans / d_th)))
    ass = float(np.mean(scale))
    aos = float(np.mean(1.0 - orient / math.pi))
    return TpScores(ats, ass, aos, int(trans.size), defined=True)


def rods(ap_cd: float, ats: float, ass: float, aos: float) -> float:
    """Composite rotated detection score: ``(3*ap_cd + ats + ass + aos) / 6``."""
    for name, val in (("ap_cd", ap_cd), ("ats", ats), ("ass", ass), ("aos", aos)):
        if not 0.0 <= val <= 1.0:
            raise InputOutOfRangeError(f"{name} must lie in [0, 1], got {val}")
    return (3.0 * ap_cd + ats + ass + aos) / 6.0


@dataclass(frozen=True)
class EvalConfig:
    """Thresholds and conventions for the full evaluation pass."""

    iou_threshold: float = 0.7
    cd_threshold: float = 1.0
    recall_positions: int = 40

    def __post_init__(self):
        if self.recall_positions not in (11, 40):
            raise ValueError("recall_positions must be 11 or 40")
        # the thresholds of the criteria evaluate builds, under their rules
        MatchCriterion("iou3d", self.iou_threshold)
        MatchCriterion("center_distance", self.cd_threshold)


@dataclass
class EvalReport:
    """AP per class/difficulty/criterion plus the rotated-3D score suite.

    ``ap`` maps ``(class_id, difficulty, criterion_label)`` to AP;
    difficulty buckets without ground truths are omitted.  ``rotated``
    maps class_id to the center-distance suite (ap_cd, ats, ass, aos,
    rods).
    """

    ap: dict = field(default_factory=dict)
    rotated: dict = field(default_factory=dict)
    recall_positions: int = 40

    CSV_HEADER = "class,difficulty,criterion,metric,value"

    def csv_rows(self) -> list[str]:
        rows = [self.CSV_HEADER]
        for (cls, diff, crit), value in sorted(self.ap.items()):
            rows.append(f"{cls},{diff},{crit},ap,{value:.6f}")
        for cls, suite in sorted(self.rotated.items()):
            crit = suite["criterion"]
            for metric in ("ap_cd", "ats", "ass", "aos", "rods"):
                rows.append(f"{cls},all,{crit},{metric},{suite[metric]:.6f}")
        return rows

    def text_table(self) -> str:
        lines = [f"AP ({self.recall_positions} recall positions)"]
        width = max([len(c) for _, _, c in self.ap] or [8])
        for (cls, diff, crit), value in sorted(self.ap.items()):
            lines.append(f"  class {cls}  {diff:<8}  {crit:<{width}}  {value:7.4f}")
        for cls, suite in sorted(self.rotated.items()):
            lines.append(
                f"  class {cls}  rotated-3d ({suite['criterion']}): "
                f"ap_cd={suite['ap_cd']:.4f} ats={suite['ats']:.4f} "
                f"ass={suite['ass']:.4f} aos={suite['aos']:.4f} "
                f"rods={suite['rods']:.4f}"
            )
        return "\n".join(lines)


def _match_frames(per_frame, criterion: MatchCriterion, bucket: str) -> list[MatchResult]:
    """Every frame of ``per_frame`` matched under ``criterion``; GTs harder than
    ``bucket`` are ignored."""
    rank = _RANK[bucket]
    return [_greedy_match(scores, candidates[criterion], len(diffs),
                          [_RANK[d] > rank for d in diffs])
            for _, _, diffs, scores, candidates in per_frame]


def evaluate(dets_by_frame: dict, gts_by_frame: dict, config: EvalConfig | None = None,
             gt_difficulty_by_frame: dict | None = None) -> EvalReport:
    """Full evaluation pass over aligned per-frame detections and GTs.

    Computes per-difficulty 3D and BEV AP at the IoU threshold and the
    unbucketed center-distance suite in one sweep.  Detection frames must
    be a subset of GT frames (missing frames mean no detections there).
    """
    config = config or EvalConfig()
    extra = set(dets_by_frame) - set(gts_by_frame)
    if extra:
        raise FrameMismatchError(f"detections for unknown frames: {sorted(extra)[:5]}")
    frames = sorted(gts_by_frame)

    def difficulties(frame, gts):
        if gt_difficulty_by_frame is None:
            return ["moderate"] * len(gts)
        if frame not in gt_difficulty_by_frame:
            raise ValueError(f"gt_difficulty_by_frame has no entry for frame {frame!r}")
        diffs = list(gt_difficulty_by_frame[frame])
        if len(diffs) != len(gts):
            raise ValueError(f"frame {frame!r}: {len(diffs)} difficulties for "
                             f"{len(gts)} ground truths")
        unknown = sorted({d for d in diffs if d not in _RANK})
        if unknown:
            raise ValueError(f"frame {frame!r}: unknown difficulty {unknown[0]!r}")
        return diffs

    frame_diffs = {frame: difficulties(frame, gts_by_frame[frame]) for frame in frames}
    # each frame's boxes are gathered once, then split by class
    columns = {frame: (box_columns(dets_by_frame.get(frame, [])), box_columns(gts_by_frame[frame]))
               for frame in frames}
    classes = sorted({k for _, gts in columns.values() for k in gts.class_ids.tolist()})
    report = EvalReport(recall_positions=config.recall_positions)
    iou_criteria = (MatchCriterion("iou3d", config.iou_threshold),
                    MatchCriterion("bev_iou", config.iou_threshold))
    cd_criterion = MatchCriterion("center_distance", config.cd_threshold)

    for cls in classes:
        # each frame's criterion matrices and candidates are built once, for
        # every difficulty bucket
        per_frame = []
        for frame in frames:
            dets, gts = columns[frame]
            det_rows, gt_rows = dets.class_ids == cls, gts.class_ids == cls
            diffs = [d for d, keep in zip(frame_diffs[frame], gt_rows.tolist()) if keep]
            dets = dets if det_rows.all() else dets.take(det_rows)
            gts = gts if gt_rows.all() else gts.take(gt_rows)
            # the two IoU matrices come from one footprint clip
            values = dict(zip(iou_criteria, pairwise_ious(dets, gts)))
            values[cd_criterion] = cd_criterion.values(dets, gts)
            candidates = {c: _candidates(v, c) for c, v in values.items()}
            per_frame.append((dets, gts, diffs, checked_scores(dets.scores), candidates))

        for criterion in iou_criteria:
            for bucket in DIFFICULTIES:
                results = _match_frames(per_frame, criterion, bucket)
                if sum(r.n_gt for r in results) == 0:
                    continue  # no targets at this difficulty; bucket omitted
                report.ap[(cls, bucket, criterion.label)] = average_precision(
                    results, config.recall_positions)

        # the center-distance suite counts every difficulty but "ignored"
        cd_results = _match_frames(per_frame, cd_criterion, DIFFICULTIES[-1])
        _set_tp_errors([f[:2] for f in per_frame], cd_results)  # the only errors reported
        ap_cd = average_precision(cd_results, config.recall_positions)
        scores = tp_scores(cd_results, d_th=config.cd_threshold)
        report.rotated[cls] = {
            "criterion": cd_criterion.label,
            "ap_cd": ap_cd,
            "ats": scores.ats,
            "ass": scores.ass,
            "aos": scores.aos,
            "rods": rods(ap_cd, scores.ats, scores.ass, scores.aos),
            "n_tp": scores.n_tp,
            "tp_scores_defined": scores.defined,
        }
    return report
