"""One full-pose pipeline run, timed stage by stage and checked.

synth (train and test split) -> augment (test split) -> train-head ->
per-frame infer (head_forward -> head_decode -> geom.nms) -> eval.

Stages run in-process through ``cli.run`` with ``--jobs 1``; the per-frame
infer calls the public library functions, because the CLI has no infer
command.  Library functions are always reached through their module
attribute so that the traced run's wrappers see every call.

An operation is one stage call or one per-frame infer.  It fails on an
exception, a nonzero exit, unexpected summary counts, or outputs whose
digest differs from the expected one.  Checks and the benchmark's own
input generation run outside the timed intervals.

Every run also times the machine-speed loop of ``calibrate`` between
operations, so that every operation can be scaled to the reference
speed by the loop's time before and after it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fullpose import cli, dataio, geom, head

import calibrate
import gen

CRITERIA_KINDS = 3  # iou3d, bev_iou and center distance per (det, gt) pair


class CheckFailed(Exception):
    pass


@dataclass
class RunResult:
    op_s: dict = field(default_factory=dict)  # timed operation -> seconds
    op_kernel_s: dict = field(default_factory=dict)  # operation -> speed-loop time around it
    decode_ms: list = field(default_factory=list)
    decode_kernel_s: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # stage or frame -> sha256
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    rods: float = math.nan
    eval_tp: int = 0
    unique_pair_evals: int = 0

    @property
    def pipeline_s(self) -> float:
        return sum(self.op_s.values())

    @property
    def scaled_pipeline_s(self) -> float:
        return sum(calibrate.scale(s, self.op_kernel_s[op]) for op, s in self.op_s.items())

    @property
    def scaled_decode_ms(self) -> list:
        return [calibrate.scale(ms, k) for ms, k in zip(self.decode_ms, self.decode_kernel_s)]


def _sha(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _npz_sha(paths) -> str:
    # npz members carry write timestamps, so hash the arrays, not the file
    h = hashlib.sha256()
    for path in paths:
        with np.load(path) as data:
            for key in sorted(data.files):
                arr = data[key]
                h.update(f"{path.name}/{key}/{arr.dtype.str}/{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _files(directory: Path, pattern: str) -> list[Path]:
    return sorted(directory.glob(pattern))


class Pipeline:
    """Runs one workload at one seed inside ``root``."""

    def __init__(self, workload, seed: int, root: Path, config_path: Path, cfg):
        self.w = workload
        self.seed = seed
        self.root = root
        self.config_path = config_path
        self.cfg = cfg
        self.head_cfg = replace(cfg.head, codec=cfg.codec)
        self.expected: dict | None = None  # digests every repeat must reproduce
        self.log = io.StringIO()  # the CLI's stderr log, kept out of the benchmark's output
        self._kernel = 0.0  # last speed-loop time

    # ------------------------------------------------------------ helpers

    def _timed(self, result, op: str, seconds: float) -> None:
        """Record operation ``op`` and the speed-loop time around it."""
        result.op_s[op] = seconds
        after = calibrate.kernel_s()
        result.op_kernel_s[op] = (self._kernel + after) / 2
        self._kernel = after

    def _cli(self, result, tracer, op, argv, check):
        """Time one cli.run call as operation ``op``, then check it untimed."""
        stage = argv[0].replace("-", "_")
        argv = argv + ["--config", str(self.config_path), "--jobs", "1"]
        result.attempted += 1
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        try:
            start = time.perf_counter()
            with span, contextlib.redirect_stderr(self.log):
                outcome = cli.run(argv)
            self._timed(result, op, time.perf_counter() - start)
            if outcome.exit_code != 0:
                raise CheckFailed(f"exit {outcome.exit_code}: {outcome.summary}")
            check(outcome.summary)
        except Exception as exc:
            result.failed += 1
            result.errors.append(f"{op}: {exc!r}")
            raise
        return outcome.summary

    def _expect(self, result, key: str, digest: str) -> None:
        result.digests[key] = digest
        if self.expected is not None and self.expected.get(key) != digest:
            raise CheckFailed(f"{key} digest {digest[:12]} != expected {str(self.expected.get(key))[:12]}")

    def _check_split(self, result, key, directory: Path, scenes: int):
        def check(summary):
            if summary.get("frames") != scenes or summary.get("boxes_per_frame") != self.w.boxes:
                raise CheckFailed(f"synth summary {summary}")
            labels = _files(directory / "labels", "*.jsonl")
            bins = _files(directory / "velodyne", "*.bin")
            feats = _files(directory / "features", "*.npz")
            if not len(labels) == len(bins) == len(feats) == scenes:
                raise CheckFailed(f"{key}: {len(labels)}/{len(bins)}/{len(feats)} files, want {scenes}")
            for path in labels:
                if len(gen.read_jsonl(path)) != self.w.boxes:
                    raise CheckFailed(f"{path.name}: wrong box count")
            self._expect(result, f"{key}.velodyne", _sha(bins))
            self._expect(result, f"{key}.labels", _sha(labels))
            self._expect(result, f"{key}.features", _npz_sha(feats))
        return check

    # ------------------------------------------------------------ stages

    def run(self, tracer=None) -> RunResult:
        result = RunResult()
        self.log.seek(0)
        self.log.truncate()
        self._kernel = calibrate.kernel_s()
        run_dir = self.root / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        train, test, aug = run_dir / "train", run_dir / "test", run_dir / "aug"
        pred, proposals = run_dir / "pred", run_dir / "gen" / "proposals"
        params_path, csv_path = run_dir / "head.bin", run_dir / "eval.csv"
        w, seed = self.w, str(self.seed)
        synth_args = ["--boxes", str(w.boxes), "--density", str(w.density)]
        try:
            self._cli(result, tracer, "synth_train",
                      ["synth", "--scenes", str(w.train_scenes), "--output", str(train),
                       "--seed", seed, "--bg-centers", str(w.bg_centers), *synth_args],
                      self._check_split(result, "synth_train", train, w.train_scenes))
            self._cli(result, tracer, "synth_test",
                      ["synth", "--scenes", str(w.test_scenes), "--output", str(test),
                       "--seed", str(self.seed + 1_000_003), "--bg-centers", str(w.test_bg_centers),
                       *synth_args],
                      self._check_split(result, "synth_test", test, w.test_scenes))
            if w.difficulty_mix:
                gen.relabel_difficulty(test / "labels", self.seed)

            def check_augment(summary):
                if summary.get("frames") != w.test_scenes or not 0 <= summary.get("augmented", -1) <= w.test_scenes:
                    raise CheckFailed(f"augment summary {summary}")
                self._expect(result, "augment.velodyne", _sha(_files(aug / "velodyne", "*.bin")))
                self._expect(result, "augment.labels", _sha(_files(aug / "labels", "*.jsonl")))
                self._expect(result, "augment.count", str(summary["augmented"]))

            self._cli(result, tracer, "augment",
                      ["augment", "--input", str(test), "--output", str(aug),
                       "--p-s", str(w.p_s), "--seed", seed], check_augment)

            def check_train(summary):
                if summary.get("frames") != w.train_scenes or summary.get("epochs") != w.epochs:
                    raise CheckFailed(f"train-head summary {summary}")
                if not (math.isfinite(summary["initial_loss"]) and math.isfinite(summary["final_loss"])):
                    raise CheckFailed("non-finite training loss")
                log_path = Path(summary["log"])
                if len(log_path.read_text().splitlines()) != w.epochs + 1:
                    raise CheckFailed("training log rows != epochs")
                self._expect(result, "train_head.params", _sha([params_path]))
                self._expect(result, "train_head.log", _sha([log_path]))

            self._cli(result, tracer, "train_head",
                      ["train-head", "--data", str(train), "--epochs", str(w.epochs),
                       "--out", str(params_path), "--seed", seed], check_train)
        except Exception:
            return result

        if w.proposals_per_gt:
            gen.write_proposals(aug / "labels", proposals, w.proposals_per_gt, self.seed)
        self._infer(result, tracer, test, pred, proposals, params_path)

        def check_eval(summary):
            if summary.get("frames") != w.test_scenes or summary.get("classes") != [1]:
                raise CheckFailed(f"eval summary {summary}")
            rods = [suite["rods"] for suite in summary["rotated"].values()]
            if not all(0.0 <= r <= 1.0 for r in rods):
                raise CheckFailed(f"rods out of range: {rods}")
            self._expect(result, "eval.csv", _sha([csv_path]))
            self._expect(result, "eval.summary", hashlib.sha256(
                json.dumps(summary, sort_keys=True).encode()).hexdigest())
            result.rods = sum(rods) / len(rods)
            result.eval_tp = sum(suite["n_tp"] for suite in summary["rotated"].values())

        try:
            self._cli(result, tracer, "eval",
                      ["eval", "--gt", str(aug), "--pred", str(pred), "--csv", str(csv_path)],
                      check_eval)
        except Exception:
            return result
        result.unique_pair_evals = _unique_pair_evals(aug / "labels", pred / "labels")
        return result

    def _infer(self, result, tracer, test: Path, pred: Path, proposals: Path, params_path: Path):
        """Decode every test frame; one operation per frame."""
        (pred / "labels").mkdir(parents=True)
        span = tracer.span("bench.infer") if tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            params = head.load_head(params_path)
            self._timed(result, "load_head", time.perf_counter() - start)
            for feature_path in _files(test / "features", "*.npz"):
                frame_id = feature_path.stem
                result.attempted += 1
                try:
                    self._infer_frame(result, params, frame_id, feature_path, proposals, pred)
                except Exception as exc:
                    result.failed += 1
                    result.errors.append(f"infer {frame_id}: {exc!r}")

    def _infer_frame(self, result, params, frame_id, feature_path, proposals, pred):
        start = time.perf_counter()
        with np.load(feature_path) as data:
            centers, features = data["centers"], data["features"]
        t0 = time.perf_counter()
        out = head.head_forward(params, features)
        decoded = head.head_decode(out, centers, self.head_cfg)
        t1 = time.perf_counter()
        candidates = [box for box in decoded if box.class_id != 0]
        proposal_path = proposals / f"{frame_id}.jsonl"
        if self.w.proposals_per_gt:
            candidates += [rec.to_box() for rec in dataio.read_pose6d(proposal_path)]
        keep = geom.nms(candidates, self.cfg.nms_iou)
        records = [dataio.Pose6dRecord.from_box(candidates[i], frame_id) for i in keep]
        out_path = pred / "labels" / f"{frame_id}.jsonl"
        dataio.write_pose6d(records, out_path)
        self._timed(result, f"infer.{frame_id}", time.perf_counter() - start)
        result.decode_ms.append((t1 - t0) * 1e3)
        result.decode_kernel_s.append(result.op_kernel_s[f"infer.{frame_id}"])
        if len(decoded) != len(centers) or len(set(keep.tolist())) != len(keep):
            raise CheckFailed(f"{len(decoded)} boxes for {len(centers)} centers, keep {keep}")
        self._expect(result, f"infer.{frame_id}", _sha([out_path]))


def _unique_pair_evals(gt_labels: Path, pred_labels: Path) -> int:
    """Distinct (det, gt, criterion) triples of same-class pairs per frame."""
    total = 0
    for gt_path in sorted(gt_labels.glob("*.jsonl")):
        pred_path = pred_labels / gt_path.name
        gts = gen.read_jsonl(gt_path)
        dets = gen.read_jsonl(pred_path) if pred_path.exists() else []
        for cls in {g["class"] for g in gts}:
            total += sum(d["class"] == cls for d in dets) * sum(g["class"] == cls for g in gts)
    return total * CRITERIA_KINDS
