"""Batch command-line pipelines over full-pose datasets.

A dataset directory holds ``velodyne/<frame>.bin`` clouds and
``labels/<frame>.jsonl`` full-pose annotations; ``synth`` additionally
writes ``features/<frame>.npz`` per-center features consumed by
``train-head``.  Every subcommand accepts ``--config``, ``--seed`` and
``--jobs``, prints a machine-readable JSON summary to stdout and a human
log to stderr, and exits 0 only on success (2 for usage errors, 1 for
data errors).  Each frame draws from its own generator, derived from
(seed, frame index) in ``synth`` and from (seed, sha256(frame id)) in
``augment``, so outputs do not depend on worker scheduling.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import shutil
import sys
import zipfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import codec, dataio, evaluation, geom, head, nn, slopeaug, synth, verify
from .errors import FullposeError


@dataclass
class CommandOutcome:
    exit_code: int
    summary: dict


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_frame_records(labels_dir: Path) -> dict[Path, list]:
    """The records of each ``*.jsonl`` file under ``labels_dir``, by path."""
    return {path: dataio.read_pose6d(path) for path in sorted(labels_dir.glob("*.jsonl"))}


@contextlib.contextmanager
def _naming(path):
    """Re-raise a data error raised inside as a ParseError naming ``path``."""
    try:
        yield
    except ValueError as exc:
        raise dataio.ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- augment

def _augment_one(task) -> tuple[str, bool]:
    frame_id, in_dir, out_dir, cfg, seed = task
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    cloud_path = in_dir / "velodyne" / f"{frame_id}.bin"
    cloud = dataio.read_velodyne(cloud_path)
    records = dataio.read_pose6d(in_dir / "labels" / f"{frame_id}.jsonl")
    with _naming(cloud_path):  # an empty cloud makes no frame
        frame = slopeaug.LabeledFrame(cloud=cloud, boxes=[rec.box for rec in records],
                                      frame_id=frame_id)
    rng = slopeaug.frame_rng(seed, frame_id)
    out = slopeaug.augment(frame, cfg, rng)
    applied = out is not frame
    dataio.write_velodyne(out.cloud, out_dir / "velodyne" / f"{frame_id}.bin")
    out_records = [dataio.Pose6dRecord(frame_id, box, rec.difficulty)
                   for box, rec in zip(out.boxes, records)]
    dataio.write_pose6d(out_records, out_dir / "labels" / f"{frame_id}.jsonl")
    return frame_id, applied


def cmd_augment(args, cfg: dataio.ToolkitConfig) -> dict:
    aug_cfg = cfg.slopeaug if args.p_s is None else replace(cfg.slopeaug, p_s=args.p_s)

    in_dir, out_dir = Path(args.input), Path(args.output)
    frame_ids = sorted(p.stem for p in (in_dir / "labels").glob("*.jsonl"))
    if not frame_ids:
        raise ValueError(f"no labels found under {in_dir / 'labels'}")
    (out_dir / "velodyne").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)
    tasks = [(f, str(in_dir), str(out_dir), aug_cfg, args.seed) for f in frame_ids]
    results = _map_tasks(_augment_one, tasks, args.jobs)
    applied = sum(1 for _, a in results if a)
    _log(f"augmented {applied}/{len(frame_ids)} frames -> {out_dir}")
    return {
        "frames": len(frame_ids),
        "augmented": applied,
        "p_s": aug_cfg.p_s,
        "output": str(out_dir),
    }


# ---------------------------------------------------------------- synth

# feature-file keys of the per-center targets, in BoxTargets field order
_TARGET_KEYS = tuple(f.name for f in fields(codec.BoxTargets))
# the targets that are floats, not labels or flags
_FLOAT_TARGET_KEYS = ("yaw_residual", "tilt", "log_dims", "center_offset")
# the targets that are 0/1 flags
_FLAG_TARGET_KEYS = ("foreground", "ground_label")
# x of the line where the synthetic ramp starts, in meters
_RAMP_START = 20.0


def _synth_one(task) -> str:
    frame_index, out_dir, spec, seed, feature_noise, bg_centers, feature_dim, codec_cfg = task
    out_dir = Path(out_dir)
    rng = synth.frame_rng(seed, frame_index)
    frame_id = f"{frame_index:06d}"
    frame = synth.make_scene(spec, rng, frame_id=frame_id)
    dataio.write_velodyne(frame.cloud, out_dir / "velodyne" / f"{frame_id}.bin")
    records = [dataio.Pose6dRecord(frame_id, box, "moderate") for box in frame.boxes]
    dataio.write_pose6d(records, out_dir / "labels" / f"{frame_id}.jsonl")
    centers, features, targets = synth.make_features(
        frame, feature_noise, rng, codec_cfg=codec_cfg,
        feature_dim=feature_dim, bg_per_frame=bg_centers,
    )
    np.savez(
        out_dir / "features" / f"{frame_id}.npz",
        centers=centers,
        features=features,
        **{name: getattr(targets, name) for name in _TARGET_KEYS},
    )
    return frame_id


def cmd_synth(args, cfg: dataio.ToolkitConfig) -> dict:
    if not 0.0 <= args.ramp_deg < 45.0:
        raise ValueError(f"ramp_deg must lie in [0, 45) degrees, got {args.ramp_deg}")
    terrain = synth.Terrain(ramp_start=_RAMP_START, grade=math.radians(args.ramp_deg))
    spec = synth.SceneSpec(
        terrain=terrain,
        box_count=args.boxes,
        density=args.density,
        noise_sigma=args.noise_sigma,
        ramp_box_fraction=args.ramp_fraction,
    )
    # every setting is checked before the first frame is written
    synth.check_feature_settings(args.feature_noise, args.bg_centers)
    if args.scenes < 1:
        raise ValueError(f"scenes must be >= 1, got {args.scenes}")
    out_dir = Path(args.output)
    for sub in ("velodyne", "labels", "features"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    tasks = [(i, str(out_dir), spec, args.seed, args.feature_noise, args.bg_centers,
              cfg.head.feature_dim, cfg.codec) for i in range(args.scenes)]
    frame_ids = _map_tasks(_synth_one, tasks, args.jobs)
    _log(f"wrote {len(frame_ids)} scenes -> {out_dir}")
    return {
        "frames": len(frame_ids),
        "ramp_deg": args.ramp_deg,
        "boxes_per_frame": args.boxes,
        "output": str(out_dir),
    }


# ---------------------------------------------------------------- train-head

def _load_feature_frame(path: Path, label_widths: dict):
    try:
        data = np.load(path)
        targets = codec.BoxTargets(**{name: data[name] for name in _TARGET_KEYS})
        features = data["features"]
        # checked once per file: a NaN would train on silently, every epoch
        floats = {"features": features, **{k: getattr(targets, k) for k in _FLOAT_TARGET_KEYS}}
        non_finite = [name for name, array in floats.items() if not np.isfinite(array).all()]
        # the flags are cast to bool: a 0.5 would make its row foreground
        flags = {name: getattr(targets, name) for name in _FLAG_TARGET_KEYS}
        non_flag = [name for name, a in flags.items() if not ((a == 0) | (a == 1)).all()]
    except (ValueError, KeyError, IndexError, EOFError, TypeError, zipfile.BadZipFile) as exc:
        raise dataio.ParseError(f"{path}: {exc}") from None
    if features.ndim != 2 or len(features) != len(targets):
        raise dataio.ParseError(f"{path}: features {features.shape} for {len(targets)} targets")
    if non_finite:
        raise dataio.ParseError(f"{path}: {non_finite[0]} holds non-finite values")
    if non_flag:
        raise dataio.ParseError(f"{path}: {non_flag[0]} holds values other than 0 and 1")
    with _naming(path):  # the labels the loss checks, checked before epoch 0
        nn.foreground_labels(targets, label_widths)
    return features, targets


def cmd_train_head(args, cfg: dataio.ToolkitConfig) -> dict:
    paths = sorted(Path(args.data).joinpath("features").glob("*.npz"))
    if not paths:
        raise ValueError(f"no feature files under {args.data}/features")
    label_widths = {"class_logits": cfg.head.class_count, "yaw_bin_logits": cfg.codec.n_yaw_bins}
    dataset = [_load_feature_frame(p, label_widths) for p in paths]
    feature_dim = dataset[0][0].shape[1]
    for path, (features, _) in zip(paths, dataset):
        if features.shape[1] != feature_dim:
            raise dataio.ParseError(f"{path}: feature width {features.shape[1]} != {feature_dim}")
    head_cfg = replace(cfg.head, feature_dim=feature_dim, codec=cfg.codec)
    try:
        params, log = head.train_toy(dataset, head_cfg, epochs=args.epochs, seed=args.seed)
    except MemoryError as exc:  # the head's arrays scale with its widths
        raise ValueError(
            f"head widths feature_dim={feature_dim}, shared_widths={list(head_cfg.shared_widths)}, "
            f"seg_hidden={list(head_cfg.seg_hidden)} do not fit in memory: {exc}"
        ) from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    head.save_head(params, out)
    log_path = Path(args.log) if args.log else out.with_suffix(out.suffix + ".log.csv")
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(log[0]))
        writer.writeheader()
        writer.writerows(log)
    first, last = log[0]["total"], log[-1]["total"]
    _log(f"trained {args.epochs} epochs on {len(dataset)} frames: "
         f"loss {first:.4f} -> {last:.4f}")
    return {
        "frames": len(dataset),
        "epochs": args.epochs,
        "initial_loss": first,
        "final_loss": last,
        "params": str(out),
        "log": str(log_path),
    }


# ---------------------------------------------------------------- eval

def cmd_eval(args, cfg: dataio.ToolkitConfig) -> dict:
    gt_frames = _read_frame_records(Path(args.gt) / "labels")
    pred_frames = _read_frame_records(Path(args.pred) / "labels")
    if not gt_frames:
        raise ValueError(f"no ground-truth labels under {args.gt}/labels")
    gts = {path.stem: [rec.box for rec in recs] for path, recs in gt_frames.items()}
    difficulties = {
        path.stem: [rec.difficulty or "moderate" for rec in recs]
        for path, recs in gt_frames.items()
    }
    dets = {}
    for path, recs in pred_frames.items():
        dets[path.stem] = [rec.box for rec in recs]
        with _naming(path):
            geom.box_scores(dets[path.stem])  # evaluate ranks every detection by its score
    report = evaluation.evaluate(dets, gts, cfg.eval, difficulties)

    shown = report
    if args.criterion != "all":
        wanted = f"{args.criterion}@"
        shown = replace(
            report,
            ap={key: ap for key, ap in report.ap.items() if key[2].startswith(wanted)},
            rotated={c: s for c, s in report.rotated.items() if s["criterion"].startswith(wanted)},
        )
    _log(shown.text_table())
    if args.csv:
        Path(args.csv).write_text("\n".join(report.csv_rows()) + "\n", encoding="utf-8")
        _log(f"wrote {args.csv}")
    summary = {
        "frames": len(gt_frames),
        "classes": sorted(report.rotated),
        "ap": {f"{c}/{d}/{k}": v for (c, d, k), v in sorted(report.ap.items())},
        "rotated": {str(c): suite for c, suite in report.rotated.items()},
    }
    return summary


# ---------------------------------------------------------------- stats

_STATS_SERIES = (
    ("theta_x", 36, (-math.pi / 2, math.pi / 2)),
    ("theta_y", 36, (-math.pi / 2, math.pi / 2)),
    ("theta_z", 36, (0.0, 2.0 * math.pi)),
    ("length", 24, None),
    ("width", 24, None),
    ("height", 24, None),
    ("center_x", 24, None),
    ("center_y", 24, None),
    ("center_z", 24, None),
)


def cmd_stats(args, cfg: dataio.ToolkitConfig) -> dict:
    frames = _read_frame_records(Path(args.input) / "labels")
    boxes = [rec.box for recs in frames.values() for rec in recs]
    if not boxes:
        raise ValueError(f"no labels under {args.input}/labels")
    euler = np.array([(b.euler.theta_x, b.euler.theta_y, b.euler.theta_z) for b in boxes])
    euler[:, 2] = codec.wrap_angle(euler[:, 2])
    dims = np.array([b.dims for b in boxes])
    centers = np.array([b.center for b in boxes])
    columns = {
        "theta_x": euler[:, 0], "theta_y": euler[:, 1], "theta_z": euler[:, 2],
        "length": dims[:, 0], "width": dims[:, 1], "height": dims[:, 2],
        "center_x": centers[:, 0], "center_y": centers[:, 1], "center_z": centers[:, 2],
    }
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "bin_left", "bin_right", "count", "log10_count"])
        for name, bins, value_range in _STATS_SERIES:
            values = columns[name]
            counts, edges = np.histogram(values, bins=bins, range=value_range)
            for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
                log10 = math.log10(c) if c > 0 else ""
                writer.writerow([name, f"{lo:.6f}", f"{hi:.6f}", int(c), log10])
    _log(f"wrote pose/dimension/center histograms for {len(boxes)} objects")
    return {"objects": len(boxes), "frames": len(frames), "out": args.out}


# ---------------------------------------------------------------- nms

def cmd_nms(args, cfg: dataio.ToolkitConfig) -> dict:
    # an --iou value goes through the config's range check
    iou = cfg.nms_iou if args.iou is None else replace(cfg, nms_iou=args.iou).nms_iou
    records = dataio.read_pose6d(args.pred)
    by_frame: dict[str, list] = {}
    for rec in records:
        by_frame.setdefault(rec.frame, []).append(rec)
    kept_records = []
    for frame in sorted(by_frame):
        recs = by_frame[frame]
        with _naming(f"{args.pred}: frame {frame}"):
            keep = geom.nms([rec.box for rec in recs], iou)
        kept_records.extend(recs[i] for i in keep)
    if args.out:
        dataio.write_pose6d(kept_records, args.out)
        _log(f"kept {len(kept_records)}/{len(records)} -> {args.out}")
    return {
        "input": len(records),
        "kept": len(kept_records),
        "iou": iou,
        "out": args.out,
    }


# ---------------------------------------------------------------- gradcheck

def cmd_gradcheck(args, cfg: dataio.ToolkitConfig) -> dict:
    results = {name: float(err) for name, err in verify.gradient_suite(seed=args.seed).items()}
    for name, err in results.items():
        status = "ok" if err < verify.TOLERANCE else "FAIL"
        _log(f"{name:<22} max rel error {err:.3e}  {status}")
    worst = max(results.values())
    ok = bool(worst < verify.TOLERANCE)
    return {
        "ops": results,
        "max_rel_error": worst,
        "tolerance": verify.TOLERANCE,
        "pass": ok,
        "_exit": 0 if ok else 1,
    }


# ---------------------------------------------------------------- convert

def cmd_convert(args, cfg: dataio.ToolkitConfig) -> dict:
    in_dir, out_dir = Path(args.input), Path(args.output)
    calib_dir = Path(args.calib) if args.calib else in_dir / "calib"
    label_paths = sorted((in_dir / "label_2").glob("*.txt"))
    if not label_paths:
        raise ValueError(f"no KITTI labels under {in_dir / 'label_2'}")
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)
    copied = 0
    converted = 0
    for label_path in label_paths:
        frame_id = label_path.stem
        calib = dataio.read_kitti_calib(calib_dir / f"{frame_id}.txt")
        records = dataio.read_kitti_labels(label_path, calib)
        dataio.write_pose6d(records, out_dir / "labels" / f"{frame_id}.jsonl")
        converted += len(records)
        cloud_path = in_dir / "velodyne" / f"{frame_id}.bin"
        if cloud_path.exists():
            (out_dir / "velodyne").mkdir(parents=True, exist_ok=True)
            shutil.copyfile(cloud_path, out_dir / "velodyne" / f"{frame_id}.bin")
            copied += 1
    _log(f"converted {converted} objects over {len(label_paths)} frames")
    return {
        "frames": len(label_paths),
        "objects": converted,
        "clouds_copied": copied,
        "output": str(out_dir),
    }


# ---------------------------------------------------------------- plumbing

def _map_tasks(fn, tasks, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here: a single-process run does not pay for the import
    from concurrent.futures import ProcessPoolExecutor

    # a fork-started pool starts every worker at once: no more than there are tasks
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _seed(text: str) -> int:
    """A ``--seed`` value: the non-negative entropy of every generator."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _jobs(text: str) -> int:
    """A ``--jobs`` value: the number of worker processes, at least 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fullpose",
        description="Full-pose 3D box pipelines: slope synthesis, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--jobs", type=_jobs, default=1)

    p = sub.add_parser("augment", help="slope-augment a dataset directory")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--p-s", type=float, default=None, help="application probability")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("synth", help="generate labeled fixture scenes")
    common(p)
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--ramp-deg", type=float, default=15.0)
    p.add_argument("--boxes", type=int, default=5)
    p.add_argument("--density", type=float, default=4.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--ramp-fraction", type=float, default=None)
    p.add_argument("--feature-noise", type=float, default=0.0)
    p.add_argument("--bg-centers", type=int, default=12)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train-head", help="train the toy ground-aware head")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="CSV log path")
    p.set_defaults(fn=cmd_train_head)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    common(p)
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--criterion", default="all",
                   choices=[kind.prefix for kind in evaluation.CRITERIA.values()] + ["all"],
                   help="report rows logged to stderr (the CSV and summary keep all)")
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("stats", help="pose/dimension/center histograms as CSV")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("nms", help="standalone suppression over a prediction file")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--iou", type=float, default=None, help="default: config nms_iou (0.1)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_nms)

    p = sub.add_parser("gradcheck", help="run the gradient verification suite")
    common(p)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("convert", help="convert a KITTI tree to full-pose labels")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--calib", default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_convert)
    return parser


def run(argv) -> CommandOutcome:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = dataio.load_config(args.config)
        summary = args.fn(args, cfg)
    except (FullposeError, ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return CommandOutcome(1, {"error": str(exc)})
    exit_code = summary.pop("_exit", 0)
    return CommandOutcome(exit_code, summary)


def main(argv=None) -> int:
    outcome = run(sys.argv[1:] if argv is None else argv)
    print(json.dumps(outcome.summary, indent=2, sort_keys=True))
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
