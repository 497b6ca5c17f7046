"""Probes on the fullpose modules and the per-layer metrics they yield.

Each probe names one public library function, whether the traced run
records it as a span (``True``) or only counts and times it, and an
optional hook that adds work counts from its arguments and result.
Counts marked "computed" are derived from array shapes, not measured.
"""

from __future__ import annotations

from fullpose import codec, dataio, evaluation, geom, head, nn, slopeaug, synth

LAYERS = ("cli", "synth", "slopeaug", "codec", "nn", "head", "geom", "evaluation", "dataio")
CLI_STAGES = ("synth", "augment", "train_head", "eval")
CODEC_DECODES = ("decode_yaw", "decode_tilt", "decode_dims", "decode_center_offset", "gate_tilt")
VELODYNE_ROW_BYTES = 16  # float32 (x, y, z, intensity)


def _add(key, amount):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, result)
    return hook


def _pair_hook(zero_key=None):
    def hook(tracer, args, kwargs, result):
        if zero_key is not None and result == 0.0:
            tracer.counts[zero_key] += 1
        if tracer.active("evaluation.evaluate"):
            tracer.counts["evaluation.pair_evals"] += 1
    return hook


def _mlp_flops(factor):
    # dense layer: 2*n*in*out flops forward; backward computes dx and dW
    def amount(args, result):
        params, rows = args[0], args[-1]
        return factor * rows.shape[0] * sum(layer.weights.size for layer in params.layers)
    return amount


def _both(*hooks):
    def hook(*a):
        for h in hooks:
            h(*a)
    return hook


PROBES = (
    (geom, "bev_iou", False, _pair_hook("geom.bev_iou.zero")),
    (geom, "iou3d", False, _pair_hook()),
    (geom, "center_distance", False, _pair_hook()),
    (geom, "points_in_box", False, None),
    (geom, "nms", True, _both(
        _add("geom.nms.boxes_in", lambda a, r: len(a[0])),
        _add("geom.nms.kept", lambda a, r: len(r)),
    )),
    (codec, "make_targets", True, _add("codec.make_targets.centers", lambda a, r: len(r))),
    *((codec, name, False, None) for name in CODEC_DECODES),
    (nn, "mlp_forward", True, _add("nn.flops_computed", _mlp_flops(2))),
    (nn, "mlp_backward", True, _add("nn.flops_computed", _mlp_flops(4))),
    (nn, "composite_box_loss", True, None),
    (nn, "adam_step", True, None),
    (head, "train_toy", True, None),
    (head, "head_forward", True, None),
    (head, "head_decode", True, _add("head.centers_decoded", lambda a, r: len(r))),
    (synth, "place_boxes", True, None),
    (synth, "sample_scene", True, _add("synth.sample_scene.points", lambda a, r: len(r.cloud))),
    (synth, "make_features", True, _add("synth.make_features.centers", lambda a, r: len(r[0]))),
    (slopeaug, "augment", True, None),
    (slopeaug, "apply", True, None),
    (slopeaug, "split_cloud", False, _add("slopeaug.points_tilted", lambda a, r: len(r[1]))),
    (evaluation, "evaluate", True, None),
    (evaluation, "match", True, None),
    (dataio, "read_velodyne", True,
     _add("dataio.read_velodyne.bytes", lambda a, r: len(r) * VELODYNE_ROW_BYTES)),
    (dataio, "write_velodyne", True,
     _add("dataio.write_velodyne.bytes", lambda a, r: len(a[0]) * VELODYNE_ROW_BYTES)),
    (dataio, "read_pose6d", True, _add("dataio.read_pose6d.records", lambda a, r: len(r))),
    (dataio, "write_pose6d", True, _add("dataio.write_pose6d.records", lambda a, r: len(a[0]))),
)


def install(tracer) -> None:
    for module, attr, record, hook in PROBES:
        layer = module.__name__.rsplit(".", 1)[-1]
        tracer.install(module, attr, f"{layer}.{attr}", record, hook)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, unique_pair_evals: int, eval_tp: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run."""
    stats, counts = tracer.stats, tracer.counts

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_s(name):
        return stats[name].self_s if name in stats else 0.0

    m = {}
    for stage in CLI_STAGES:
        m[f"cli.{stage}.wall_s"] = stats[f"cli.{stage}"].total_s if f"cli.{stage}" in stats else 0.0
    m["cli.self_s"] = sum(self_s(f"cli.{stage}") for stage in CLI_STAGES)

    for name in ("geom.bev_iou", "geom.iou3d", "geom.points_in_box"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["geom.bev_iou.zero_ratio"] = _ratio(counts["geom.bev_iou.zero"], calls("geom.bev_iou"))
    m["geom.center_distance.calls"] = calls("geom.center_distance")
    m["geom.nms.self_s"] = self_s("geom.nms")
    m["geom.nms.boxes_in"] = counts["geom.nms.boxes_in"]
    m["geom.nms.kept_ratio"] = _ratio(counts["geom.nms.kept"], counts["geom.nms.boxes_in"])

    m["evaluation.evaluate.self_s"] = self_s("evaluation.evaluate")
    m["evaluation.match.calls"] = calls("evaluation.match")
    m["evaluation.match.self_s"] = self_s("evaluation.match")
    m["evaluation.pair_evals"] = counts["evaluation.pair_evals"]
    m["evaluation.pair_evals_per_unique_pair"] = _ratio(
        counts["evaluation.pair_evals"], unique_pair_evals
    )
    m["evaluation.tp"] = eval_tp

    m["nn.mlp_forward.calls"] = calls("nn.mlp_forward")
    for name in ("mlp_forward", "mlp_backward", "composite_box_loss", "adam_step"):
        m[f"nn.{name}.self_s"] = self_s(f"nn.{name}")
    m["nn.flops_computed"] = counts["nn.flops_computed"]

    for name in ("train_toy", "head_forward", "head_decode"):
        m[f"head.{name}.self_s"] = self_s(f"head.{name}")
    m["head.centers_decoded"] = counts["head.centers_decoded"]

    m["codec.decode_calls"] = sum(calls(f"codec.{n}") for n in CODEC_DECODES)
    m["codec.decode_self_s"] = sum(self_s(f"codec.{n}") for n in CODEC_DECODES)
    m["codec.make_targets.self_s"] = self_s("codec.make_targets")
    m["codec.make_targets.centers"] = counts["codec.make_targets.centers"]

    for name in ("place_boxes", "sample_scene", "make_features"):
        m[f"synth.{name}.self_s"] = self_s(f"synth.{name}")
    m["synth.sample_scene.points"] = counts["synth.sample_scene.points"]
    m["synth.make_features.centers"] = counts["synth.make_features.centers"]

    m["slopeaug.augment.calls"] = calls("slopeaug.augment")
    m["slopeaug.applied_ratio"] = _ratio(calls("slopeaug.apply"), calls("slopeaug.augment"))
    m["slopeaug.apply.self_s"] = self_s("slopeaug.apply")
    m["slopeaug.points_tilted"] = counts["slopeaug.points_tilted"]

    for name in ("read_velodyne", "write_velodyne"):
        m[f"dataio.{name}.bytes"] = counts[f"dataio.{name}.bytes"]
        m[f"dataio.{name}.self_s"] = self_s(f"dataio.{name}")
    for name in ("read_pose6d", "write_pose6d"):
        m[f"dataio.{name}.records"] = counts[f"dataio.{name}.records"]
        m[f"dataio.{name}.self_s"] = self_s(f"dataio.{name}")

    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(
            s.self_s for name, s in stats.items() if name.startswith(layer + ".")
        )
    return m


def cli_balance_s(tracer) -> float:
    """Largest |stage wall - stage self - self time of everything under it|.

    Zero up to float rounding while every traced call nests properly; a
    larger value means the self-time bookkeeping is broken.
    """
    names = [f"cli.{s}" for s in CLI_STAGES if f"cli.{s}" in tracer.stats]
    return max((abs(tracer.stats[n].total_s - tracer.stats[n].self_s - tracer.under_root[n])
                for n in names), default=0.0)
