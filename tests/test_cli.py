import concurrent.futures
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fullpose import cli
from fullpose.dataio import read_pose6d, write_pose6d

import oracles  # noqa: E402

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"


def run_ok(argv):
    outcome = cli.run(argv)
    assert outcome.exit_code == 0, outcome.summary
    return outcome.summary


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def synth_digest(root: Path) -> str:
    """One sha256 over the velodyne and label bytes and the feature arrays.

    Feature files are hashed array by array (name, dtype, shape, bytes),
    not as zip bytes, so the digest does not depend on zip metadata.
    """
    h = hashlib.sha256()
    for sub, pattern in (("velodyne", "*.bin"), ("labels", "*.jsonl")):
        for path in sorted((root / sub).glob(pattern)):
            h.update(f"{sub}/{path.name}".encode())
            h.update(path.read_bytes())
    for path in sorted((root / "features").glob("*.npz")):
        with np.load(path) as arrays:
            for key in sorted(arrays.files):
                a = np.ascontiguousarray(arrays[key])
                h.update(f"features/{path.name}:{key}:{a.dtype.str}:{a.shape}".encode())
                h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "synthetic"
    run_ok([
        "synth", "--scenes", "3", "--ramp-deg", "15", "--output", str(root),
        "--boxes", "4", "--density", "2.0", "--seed", "5", "--ramp-fraction", "0.5",
    ])
    return root


class TestHelp:
    @pytest.mark.parametrize("command", [
        "augment", "synth", "train-head", "eval", "stats", "nms", "gradcheck", "convert",
    ])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run([command, "--help"])
        assert exc.value.code == 0
        assert command in capsys.readouterr().out

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["frobnicate"])
        assert exc.value.code == 2


def test_library_errors_share_one_base():
    import inspect

    import fullpose
    from fullpose import codec, dataio, evaluation, geom, head, nn, slopeaug, synth

    found = [
        obj for module in (codec, dataio, evaluation, geom, head, nn, slopeaug, synth)
        for obj in vars(module).values()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == module.__name__
    ]
    assert len(found) >= 15
    assert all(issubclass(cls, fullpose.FullposeError) for cls in found)


# runs each argv list of argv[1] through cli.run in one interpreter
_RUN_IN_ONE_PROCESS = """
import json, sys
from fullpose import cli
outcomes = [cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([[o.exit_code, o.summary] for o in outcomes], sort_keys=True))
"""


def test_subcommands_back_to_back_match_each_run_alone(dataset, tmp_path):
    # the parser is built once per process and shared by every run in it
    assert cli.build_parser() is cli.build_parser()
    scored = tmp_path / "scored.jsonl"
    labels = sorted((dataset / "labels").glob("*.jsonl"))
    write_pose6d([replace(rec, box=replace(rec.box, score=0.5))
                  for path in labels for rec in read_pose6d(path)], scored)
    commands = [
        ["stats", "--input", str(dataset), "--out", str(tmp_path / "stats.csv")],
        ["eval", "--gt", str(tmp_path / "nope"), "--pred", str(tmp_path)],
        ["nms", "--pred", str(scored), "--iou", "0.5"],
        ["nms", "--pred", str(labels[0])],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")]))

    def in_one_process(argvs):
        proc = subprocess.run([sys.executable, "-c", _RUN_IN_ONE_PROCESS, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        return json.loads(proc.stdout)

    alone = [outcome for argv in commands for outcome in in_one_process([argv])]
    assert [code for code, _ in alone] == [0, 1, 0, 1]
    assert in_one_process(commands) == alone
    in_this_process = [cli.run(argv) for argv in commands]
    assert [[o.exit_code, o.summary] for o in in_this_process] == alone


class TestSynth:
    def test_placement_failure_is_clean_data_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--scenes", "1", "--boxes", "200",
                         "--output", str(tmp_path / "full")])
        captured = capsys.readouterr()
        assert code == 1
        summary = json.loads(captured.out)
        assert "placed" in summary["error"] and "200 boxes" in summary["error"]
        assert "Traceback" not in captured.err

    def test_layout_and_summary(self, dataset):
        assert sorted(p.name for p in (dataset / "velodyne").iterdir()) == [
            "000000.bin", "000001.bin", "000002.bin"]
        assert len(list((dataset / "labels").glob("*.jsonl"))) == 3
        assert len(list((dataset / "features").glob("*.npz"))) == 3

    def test_idempotent(self, dataset, tmp_path):
        again = tmp_path / "again"
        run_ok([
            "synth", "--scenes", "3", "--ramp-deg", "15", "--output", str(again),
            "--boxes", "4", "--density", "2.0", "--seed", "5", "--ramp-fraction", "0.5",
        ])
        assert tree_digest(again) == tree_digest(dataset)

    # reference digests of the synth outputs: any change to a velodyne, label
    # or feature byte fails here; re-record only for an intended output change
    @pytest.mark.parametrize("args, digest", [
        (["--scenes", "3", "--boxes", "12", "--density", "1.0", "--seed", "11",
          "--ramp-deg", "0", "--bg-centers", "20"],
         "ae80a7db6b0152db4c2fa2e1f69f33b8483791624405b967d9a39cd541e00736"),
        (["--scenes", "3", "--boxes", "8", "--density", "2.0", "--seed", "4",
          "--ramp-fraction", "0.5", "--noise-sigma", "0.02", "--feature-noise", "0.1"],
         "46c18850bb4735f64f9792e068eb75f7bfeda4e69a062dab4c46e886545f3255"),
        # sparse ground: plane fits double their radius
        (["--scenes", "3", "--boxes", "8", "--density", "0.3", "--seed", "7",
          "--ramp-fraction", "0.5", "--bg-centers", "40"],
         "fd25b6f30625705d815914feeb81a4185fc98d3124b6505a621ca814859da4ce"),
    ], ids=["flat", "ramp", "sparse"])
    def test_golden_digest(self, args, digest, tmp_path):
        run_ok(["synth", *args, "--output", str(tmp_path / "out")])
        assert synth_digest(tmp_path / "out") == digest

    @pytest.mark.parametrize("flag, value, error", [
        ("--ramp-fraction", "1.5", "ramp_box_fraction must lie in [0, 1], got 1.5"),
        ("--ramp-fraction", "-0.5", "ramp_box_fraction must lie in [0, 1], got -0.5"),
        ("--ramp-fraction", "nan", "ramp_box_fraction must lie in [0, 1], got nan"),
        ("--feature-noise", "-1", "feature noise_sigma must be finite and >= 0, got -1.0"),
        ("--feature-noise", "inf", "feature noise_sigma must be finite and >= 0, got inf"),
        ("--noise-sigma", "nan", "noise_sigma must be finite and >= 0, got nan"),
        ("--noise-sigma", "inf", "noise_sigma must be finite and >= 0, got inf"),
        ("--density", "nan", "density must be finite and > 0, got nan"),
        ("--density", "inf", "density must be finite and > 0, got inf"),
        ("--boxes", "-1", "box_count must be >= 0, got -1"),
        ("--bg-centers", "-1", "bg_per_frame must be >= 0, got -1"),
        ("--scenes", "-1", "scenes must be >= 1, got -1"),
        ("--scenes", "0", "scenes must be >= 1, got 0"),
        ("--ramp-deg", "50", "ramp_deg must lie in [0, 45) degrees, got 50.0"),
        ("--ramp-deg", "-5", "ramp_deg must lie in [0, 45) degrees, got -5.0"),
        ("--ramp-deg", "nan", "ramp_deg must lie in [0, 45) degrees, got nan"),
    ], ids=["ramp-above-1", "ramp-negative", "ramp-nan", "noise-negative", "noise-inf",
            "sensor-noise-nan", "sensor-noise-inf", "density-nan", "density-inf",
            "boxes-negative", "bg-centers-negative", "scenes-negative", "scenes-zero",
            "ramp-deg-50", "ramp-deg-negative", "ramp-deg-nan"])
    def test_out_of_range_setting_is_data_error(self, flag, value, error, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["synth", "--scenes", "1", flag, value, "--output", str(out)]
        assert _fail(argv, capsys) == error
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "pool"])
    @pytest.mark.parametrize("flag, value, sizes", [
        ("--density", "1e15", "density=1000000000000000.0, boxes=5, bg_centers=12"),
        ("--bg-centers", "1000000000000000", "density=4.0, boxes=5, bg_centers=1000000000000000"),
    ], ids=["density", "bg-centers"])
    def test_sizes_no_host_can_hold_are_data_error(self, flag, value, sizes, jobs, tmp_path,
                                                   capsys):
        # 5.55 EiB of cloud points or 14.2 PiB of background draws: numpy refuses at once
        argv = ["synth", "--scenes", "2", "--jobs", jobs, flag, value,
                "--output", str(tmp_path / "out")]
        error = _fail(argv, capsys)
        assert error.startswith(f"synth sizes {sizes} do not fit in memory: Unable to allocate")

    def test_rejected_setting_writes_no_frame(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["synth", "--scenes", "2", "--feature-noise", "-1", "--output", str(out)]
        assert _fail(argv, capsys) == "feature noise_sigma must be finite and >= 0, got -1.0"
        assert [p for p in out.rglob("*") if p.is_file()] == []


class TestAugment:
    def test_probability_zero_preserves_dataset(self, dataset, tmp_path):
        out = tmp_path / "same"
        summary = run_ok([
            "augment", "--input", str(dataset), "--output", str(out),
            "--p-s", "0", "--seed", "1",
        ])
        assert summary["augmented"] == 0
        got = tree_digest(out)
        want = {k: v for k, v in tree_digest(dataset).items() if not k.startswith("features")}
        assert got == want

    def test_deterministic_and_parallel_equivalent(self, dataset, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        base = ["augment", "--input", str(dataset), "--p-s", "1", "--seed", "9"]
        run_ok(base + ["--output", str(a)])
        run_ok(base + ["--output", str(b)])
        run_ok(base + ["--output", str(c), "--jobs", "2"])
        assert tree_digest(a) == tree_digest(b) == tree_digest(c)

    def test_range_overrides(self, dataset, tmp_path):
        out = tmp_path / "aug"
        config = tmp_path / "ranges.json"
        lo, hi = math.radians(10), math.radians(12)
        config.write_text(json.dumps({"slopeaug": {"gamma_range": [lo, hi], "r_range": [10, 20]}}))
        summary = run_ok([
            "augment", "--input", str(dataset), "--output", str(out),
            "--p-s", "1", "--seed", "3", "--config", str(config),
        ])
        assert summary["augmented"] == 3
        tilts = [
            math.acos(math.cos(rec.box.euler.theta_x) * math.cos(rec.box.euler.theta_y))
            for path in sorted((out / "labels").glob("*.jsonl")) for rec in read_pose6d(path)
        ]
        tilted = [t for t in tilts if t != 0.0]
        assert tilted
        assert all(lo - 1e-9 <= t <= hi + 1e-9 for t in tilted)

    def test_empty_cloud_names_file(self, dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        cloud = sorted((data / "velodyne").glob("*.bin"))[1]
        cloud.write_bytes(b"")
        argv = ["augment", "--input", str(data), "--output", str(tmp_path / "out"), "--p-s", "1"]
        assert _fail(argv, capsys) == f"{cloud}: frame cloud must be nonempty"

    def test_cloud_without_label_file_names_it(self, dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        clouds = sorted((data / "velodyne").glob("*.bin"))
        for cloud in clouds[1:]:
            (data / "labels" / f"{cloud.stem}.jsonl").unlink()
        out = tmp_path / "out"
        argv = ["augment", "--input", str(data), "--output", str(out), "--p-s", "1"]
        want = f"{clouds[1]}: no label file {data / 'labels' / clouds[1].stem}.jsonl"
        assert _fail(argv, capsys) == want
        assert not out.exists()


def _make_predictions(dataset: Path, out_dir: Path, jitter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)
    for path in sorted((dataset / "labels").glob("*.jsonl")):
        records = read_pose6d(path)
        for rec in records:
            rec.box.score = 1.0 if jitter == 0 else float(rng.uniform(0.5, 1.0))
            rec.box.center = rec.box.center + rng.normal(0, jitter, 3)
        write_pose6d(records, out_dir / "labels" / path.name)


class TestEval:
    def test_gt_echo_perfect(self, dataset, tmp_path):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        csv_path = tmp_path / "report.csv"
        summary = run_ok([
            "eval", "--gt", str(dataset), "--pred", str(pred), "--csv", str(csv_path),
        ])
        assert all(v == 1.0 for v in summary["ap"].values())
        assert summary["rotated"]["1"]["rods"] == 1.0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "class,difficulty,criterion,metric,value"

    def test_criterion_filter_and_recall_positions(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred, jitter=0.2, seed=1)
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"eval": {"recall_positions": 11}}))
        summary = run_ok([
            "eval", "--gt", str(dataset), "--pred", str(pred),
            "--criterion", "cd", "--config", str(config),
        ])
        assert 0.0 <= summary["rotated"]["1"]["ap_cd"] <= 1.0
        assert capsys.readouterr().err.startswith("AP (11 recall positions)")

    @pytest.mark.parametrize("criterion", ["iou3d", "bev", "cd"])
    def test_criterion_logs_only_its_rows(self, dataset, tmp_path, capsys, criterion):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred, jitter=0.2, seed=1)
        argv = ["eval", "--gt", str(dataset), "--pred", str(pred)]
        capsys.readouterr()
        full = run_ok(argv)
        every_row = capsys.readouterr().err.splitlines()[1:]
        assert run_ok(argv + ["--criterion", criterion]) == full
        header, *rows = capsys.readouterr().err.splitlines()
        assert header.startswith("AP (")
        assert rows and all(f"{criterion}@" in row for row in rows)
        assert len(rows) == sum(f"{criterion}@" in row for row in every_row)

    def test_missing_gt_dir_is_data_error(self, tmp_path):
        outcome = cli.run(["eval", "--gt", str(tmp_path / "nope"), "--pred", str(tmp_path)])
        assert outcome.exit_code == 1
        assert "error" in outcome.summary

    def test_missing_prediction_dir_is_data_error(self, dataset, tmp_path, capsys):
        typo = tmp_path / "typo"
        error = _fail(["eval", "--gt", str(dataset), "--pred", str(typo)], capsys)
        assert error == f"no prediction directory {typo / 'labels'}"

    def test_empty_prediction_dir_means_no_detections(self, dataset, tmp_path):
        (tmp_path / "pred" / "labels").mkdir(parents=True)
        summary = run_ok(["eval", "--gt", str(dataset), "--pred", str(tmp_path / "pred")])
        assert summary["frames"] == 3
        assert summary["ap"] and all(v == 0.0 for v in summary["ap"].values())


def _with_array(npz: bytes, name: str, edit) -> bytes:
    """The archive ``npz`` with ``edit`` applied to its array ``name``."""
    arrays = dict(np.load(io.BytesIO(npz)))
    arrays[name] = edit(arrays[name])
    out = io.BytesIO()
    np.savez(out, **arrays)
    return out.getvalue()


def _fail(argv, capsys) -> str:
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    return json.loads(captured.out)["error"]


def _edit_first_record(path: Path, **changes) -> None:
    """Apply ``changes`` to the first record of ``path``; a None value drops the key."""
    lines = path.read_text().splitlines()
    obj = json.loads(lines[0])
    obj.update(changes)
    lines[0] = json.dumps({k: v for k, v in obj.items() if v is not None})
    path.write_text("\n".join(lines) + "\n")


class TestBadRecordsNameTheirFile:
    def test_eval_score_out_of_range(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        bad = pred / "labels" / "000001.jsonl"
        _edit_first_record(bad, score=1.5)
        error = _fail(["eval", "--gt", str(dataset), "--pred", str(pred)], capsys)
        assert error == f"{bad}:1: score must lie in [0, 1], got 1.5"

    def test_eval_unknown_class(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        bad = pred / "labels" / "000001.jsonl"
        _edit_first_record(bad, **{"class": "Foo"})
        error = _fail(["eval", "--gt", str(dataset), "--pred", str(pred)], capsys)
        assert error == f"{bad}:1: unknown class name 'Foo'"

    def test_nms_unknown_class(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        bad = pred / "labels" / "000001.jsonl"
        _edit_first_record(bad, **{"class": "Foo"})
        error = _fail(["nms", "--pred", str(bad)], capsys)
        assert error == f"{bad}:1: unknown class name 'Foo'"

    def test_nms_integer_past_the_digit_limit(self, tmp_path, capsys):
        bad = tmp_path / "long.jsonl"
        bad.write_text('{"frame": "0", "class": "Car", "center": [' + "7" * 5000 + ', 0, 0], '
                       '"dims": [1, 1, 1], "euler": [0, 0, 0], "score": 0.5}\n')
        error = _fail(["nms", "--pred", str(bad)], capsys)
        assert error.startswith(f"{bad}:1: invalid JSON (Exceeds the limit (4300 digits)")

    def test_eval_missing_score(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        bad = pred / "labels" / "000001.jsonl"
        _edit_first_record(bad, score=None)
        error = _fail(["eval", "--gt", str(dataset), "--pred", str(pred)], capsys)
        assert error == f"{bad}: box 0 has no score"

    def test_nms_missing_score(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        bad = pred / "labels" / "000001.jsonl"
        _edit_first_record(bad, score=None)
        error = _fail(["nms", "--pred", str(bad)], capsys)
        assert error == f"{bad}: frame 000001: box 0 has no score"

    @pytest.mark.parametrize("frame", ["null", "7"])
    def test_nms_frame_not_a_string(self, dataset, tmp_path, capsys, frame):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        bad = pred / "labels" / "000001.jsonl"
        text = bad.read_text()
        assert text.count('"frame": "000001"') > 1
        bad.write_text(text.replace('"frame": "000001"', f'"frame": {frame}', 1))
        error = _fail(["nms", "--pred", str(bad)], capsys)
        assert error == f"{bad}:1: frame must be a JSON string"

    def test_nms_threshold_out_of_range(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        path = pred / "labels" / "000001.jsonl"
        error = _fail(["nms", "--pred", str(path), "--iou", "-0.5"], capsys)
        assert error == "nms_iou must lie in [0, 1], got -0.5"

    @pytest.mark.parametrize("corrupt", [
        lambda good: b"not an npz archive\n" * 8,
        lambda good: good[: len(good) // 2],
        lambda good: _with_array(good, "features", lambda f: f[:-1]),
        lambda good: _with_array(good, "features", lambda f: f[:, :-2]),
    ], ids=["junk", "truncated", "row_short", "narrower"])
    def test_train_head_corrupt_features(self, dataset, tmp_path, capsys, corrupt):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        bad = data / "features" / "000001.npz"
        bad.write_bytes(corrupt(bad.read_bytes()))
        error = _fail(["train-head", "--data", str(data), "--epochs", "1",
                       "--out", str(tmp_path / "head.bin")], capsys)
        assert error.startswith(f"{bad}: ")

    @pytest.mark.parametrize("cast, message", [
        (lambda f: f + 5j, "features must be real-valued, got dtype complex128"),
        (lambda f: f.astype(str), "features must be real-valued, got dtype <U"),
        (lambda f: f.astype(object), "Object arrays cannot be loaded when allow_pickle=False"),
    ], ids=["complex", "string", "object"])
    def test_train_head_features_not_real(self, dataset, tmp_path, capsys, cast, message):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        bad = data / "features" / "000001.npz"
        bad.write_bytes(_with_array(bad.read_bytes(), "features", cast))
        error = _fail(["train-head", "--data", str(data), "--epochs", "1",
                       "--out", str(tmp_path / "head.bin")], capsys)
        assert error.startswith(f"{bad}: {message}")

    @pytest.mark.parametrize("name, row, value", [
        ("features", (0, 0), np.nan),
        ("features", (-1, -1), -np.inf),
        ("yaw_residual", 0, np.nan),
        ("tilt", (0, 1), np.inf),
        ("log_dims", (1, 2), np.nan),
        ("center_offset", (0, 0), -np.inf),
    ])
    def test_train_head_non_finite_values(self, dataset, tmp_path, capsys, name, row, value):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        bad = data / "features" / "000001.npz"

        def spoil(array):
            array = array.copy()
            array[row] = value
            return array

        bad.write_bytes(_with_array(bad.read_bytes(), name, spoil))
        params = tmp_path / "head.bin"
        error = _fail(["train-head", "--data", str(data), "--epochs", "1", "--out", str(params)],
                      capsys)
        assert error == f"{bad}: {name} holds non-finite values"
        assert not params.exists()

    @pytest.mark.parametrize("name, value, classes", [
        ("class_label", 2, 2), ("class_label", -1, 2), ("yaw_bin", 12, 12), ("yaw_bin", -3, 12),
    ])
    def test_train_head_label_out_of_range(self, dataset, tmp_path, capsys, name, value, classes):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        bad = data / "features" / "000001.npz"
        (row, *_) = np.flatnonzero(np.load(bad)["foreground"])

        def spoil(array):
            array = array.copy()
            array[row] = value
            return array

        bad.write_bytes(_with_array(bad.read_bytes(), name, spoil))
        params = tmp_path / "head.bin"
        error = _fail(["train-head", "--data", str(data), "--epochs", "1", "--out", str(params)],
                      capsys)
        assert error == f"{bad}: labels must lie in [0, {classes}) for {classes} classes"
        assert not params.exists()

    @pytest.mark.parametrize("name, value", [
        ("foreground", 0.5), ("foreground", 2.0), ("ground_label", 2), ("ground_label", -1),
    ])
    def test_train_head_flag_other_than_0_or_1(self, dataset, tmp_path, capsys, name, value):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        bad = data / "features" / "000001.npz"

        def spoil(array):
            array = array.astype(type(value))
            array[0] = value
            return array

        bad.write_bytes(_with_array(bad.read_bytes(), name, spoil))
        params = tmp_path / "head.bin"
        error = _fail(["train-head", "--data", str(data), "--epochs", "1", "--out", str(params)],
                      capsys)
        assert error == f"{bad}: {name} holds values other than 0 and 1"
        assert not params.exists()

    @pytest.mark.parametrize("name, value", [
        ("class_label", 1.5), ("yaw_bin", 2.7), ("class_label", np.nan), ("yaw_bin", np.inf),
    ])
    def test_train_head_non_integer_label(self, dataset, tmp_path, capsys, name, value):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        bad = data / "features" / "000001.npz"
        (row, *_) = np.flatnonzero(np.load(bad)["foreground"])

        def spoil(array):
            array = array.astype(np.float64)
            array[row] = value
            return array

        bad.write_bytes(_with_array(bad.read_bytes(), name, spoil))
        params = tmp_path / "head.bin"
        error = _fail(["train-head", "--data", str(data), "--epochs", "1", "--out", str(params)],
                      capsys)
        assert error == f"{bad}: {name} holds non-integer values"
        assert not params.exists()

    def test_train_head_integral_float_labels_accepted(self, dataset, tmp_path):
        # a float array holding whole numbers trains as its integer labels
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        path = data / "features" / "000001.npz"
        for name in ("class_label", "yaw_bin"):
            path.write_bytes(_with_array(path.read_bytes(), name, lambda a: a.astype(np.float64)))
        run_ok(["train-head", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "h.bin")])

    def test_augment_non_finite_cloud(self, dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        bad = data / "velodyne" / "000001.bin"
        cloud = np.fromfile(bad, dtype="<f4").reshape(-1, 4)
        cloud[5, 2] = np.inf
        cloud.tofile(bad)
        error = _fail(["augment", "--input", str(data), "--output", str(tmp_path / "aug"),
                       "--p-s", "1.0"], capsys)
        assert error == f"{bad}: point 5 has a non-finite x/y/z"

    def test_train_head_background_label_is_not_checked(self, dataset, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        path = data / "features" / "000001.npz"
        (row, *_) = np.flatnonzero(~np.load(path)["foreground"])

        def spoil(array):
            array = array.copy()
            array[row] = 99
            return array

        path.write_bytes(_with_array(path.read_bytes(), "yaw_bin", spoil))
        run_ok(["train-head", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "h.bin")])


class TestConfigErrors:
    def test_integer_past_the_digit_limit_names_config(self, dataset, tmp_path, capsys):
        config = tmp_path / "big.json"
        config.write_text('{"nms_iou": ' + "7" * 5000 + "}")
        error = _fail(["stats", "--input", str(dataset), "--out", str(tmp_path / "s.csv"),
                       "--config", str(config)], capsys)
        assert error.startswith(f"{config}: invalid JSON (Exceeds the limit (4300 digits)")

    def test_nan_distance_threshold_stops_eval(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        config = tmp_path / "eval.json"
        config.write_text('{"eval": {"cd_threshold": NaN}}')
        error = _fail(["eval", "--gt", str(dataset), "--pred", str(pred),
                       "--config", str(config)], capsys)
        assert error == f"{config}: invalid config value in section eval: distance threshold must be positive"


class TestStats:
    def test_histograms_written(self, dataset, tmp_path):
        out = tmp_path / "stats.csv"
        summary = run_ok(["stats", "--input", str(dataset), "--out", str(out)])
        assert summary["objects"] == 12
        lines = out.read_text().splitlines()
        assert lines[0] == "series,bin_left,bin_right,count,log10_count"
        series = {line.split(",")[0] for line in lines[1:]}
        assert {"theta_x", "theta_y", "theta_z", "length", "width", "height"} <= series


def test_class_ids_past_int64_run_through_the_commands(dataset, tmp_path):
    data, pred = tmp_path / "data", tmp_path / "pred"
    shutil.copytree(dataset, data)
    for path in sorted((data / "labels").glob("*.jsonl")):
        _edit_first_record(path, **{"class": f"class_{2**70}"})
    _make_predictions(data, pred)
    assert run_ok(["stats", "--input", str(data), "--out", str(tmp_path / "s.csv")])["objects"] == 12
    run_ok(["augment", "--input", str(data), "--output", str(tmp_path / "aug"), "--p-s", "1"])
    labels = sorted((tmp_path / "aug" / "labels").glob("*.jsonl"))
    assert [read_pose6d(path)[0].box.class_id for path in labels] == [2**70] * 3
    summary = run_ok(["eval", "--gt", str(data), "--pred", str(pred)])
    assert summary["rotated"][str(2**70)]["rods"] == 1.0
    kept = tmp_path / "kept.jsonl"
    run_ok(["nms", "--pred", str(sorted((pred / "labels").glob("*.jsonl"))[0]), "--out", str(kept)])
    assert read_pose6d(kept)[0].box.class_id == 2**70


class TestNms:
    def test_suppresses_duplicates(self, dataset, tmp_path):
        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        merged = tmp_path / "merged.jsonl"
        records = []
        for path in sorted((pred / "labels").glob("*.jsonl")):
            records.extend(read_pose6d(path))
        dupes = []
        for rec in records:
            import dataclasses
            twin = dataclasses.replace(rec, box=dataclasses.replace(rec.box, score=0.4))
            dupes.append(twin)
        write_pose6d(records + dupes, merged)
        out = tmp_path / "kept.jsonl"
        summary = run_ok(["nms", "--pred", str(merged), "--iou", "0.1", "--out", str(out)])
        assert summary["input"] == 2 * len(records)
        assert summary["kept"] == len(records)
        assert all(rec.box.score == 1.0 for rec in read_pose6d(out))

    def test_writes_canonical_class_names(self, tmp_path):
        row = {"frame": "0", "class": "class_1", "center": [0, 0, 0], "dims": [4, 2, 1.5],
               "euler": [0, 0, 0], "score": 0.9}
        far = dict(row, center=[20, 0, 0], score=0.5, **{"class": "class_77"})
        pred, out = tmp_path / "pred.jsonl", tmp_path / "kept.jsonl"
        pred.write_text(json.dumps(row) + "\n" + json.dumps(far) + "\n", encoding="utf-8")
        assert run_ok(["nms", "--pred", str(pred), "--out", str(out)])["kept"] == 2
        kept = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [obj["class"] for obj in kept] == ["Car", "class_77"]

    def test_default_iou_is_config_nms_iou(self, dataset, tmp_path):
        import dataclasses

        pred = tmp_path / "pred"
        _make_predictions(dataset, pred)
        records = []
        for path in sorted((pred / "labels").glob("*.jsonl")):
            records.extend(read_pose6d(path))
        # twins shifted 0.6 m along x partly overlap their originals
        shifted = [
            dataclasses.replace(rec, box=dataclasses.replace(rec.box, score=0.4,
                                                             center=rec.box.center + [0.6, 0.0, 0.0]))
            for rec in records
        ]
        merged = tmp_path / "merged.jsonl"
        write_pose6d(records + shifted, merged)
        explicit, default = tmp_path / "explicit.jsonl", tmp_path / "default.jsonl"
        a = run_ok(["nms", "--pred", str(merged), "--iou", "0.1", "--out", str(explicit)])
        b = run_ok(["nms", "--pred", str(merged), "--out", str(default)])
        assert default.read_bytes() == explicit.read_bytes()
        assert b == {**a, "out": str(default)}
        assert b["iou"] == 0.1


class TestGradcheck:
    def test_passes_and_exits_zero(self):
        summary = run_ok(["gradcheck"])
        assert summary["pass"] is True
        assert summary["max_rel_error"] < 1e-6
        assert set(summary["ops"]) == {
            "mlp_backward", "sigmoid", "smooth_l1", "focal_loss", "cross_entropy",
            "composite_box_loss", "head_loss",
        }


# runs train-head with argv in a child whose CPUs are the JSON list argv[1]
# (all of them when it is null); prints whether the helper thread started
_TRAIN_ON_CPUS = """\
import json, os, sys
cpus = json.loads(sys.argv[1])
if cpus is not None:
    os.sched_setaffinity(0, cpus)
from fullpose import cli, nn
code = cli.main(sys.argv[2:])
print(json.dumps(nn._helper_thread is not None))
sys.exit(code)
"""


class TestTrainHead:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two allowed CPUs")
    def test_paper_default_head_same_bytes_on_one_cpu(self, tmp_path):
        # 130 rows per frame: every product whose verdict is equal splits; the
        # affinity is set in each child, which owns it, before numpy loads
        data = tmp_path / "data"
        run_ok(["synth", "--scenes", "2", "--boxes", "10", "--density", "1.0",
                "--bg-centers", "120", "--seed", "5", "--output", str(data)])
        for path in (data / "features").glob("*.npz"):
            assert np.load(path)["features"].shape == (130, 256)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")]))
        runs = {}
        for name, cpus in (("one", [min(os.sched_getaffinity(0))]), ("all", None)):
            params, log = tmp_path / f"{name}.bin", tmp_path / f"{name}.csv"
            proc = subprocess.run(
                [sys.executable, "-c", _TRAIN_ON_CPUS, json.dumps(cpus), "train-head",
                 "--data", str(data), "--epochs", "3", "--out", str(params), "--log", str(log)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            runs[name] = (json.loads(proc.stdout.splitlines()[-1]),
                          params.read_bytes(), log.read_bytes())
        assert runs["one"][0] is False and runs["all"][0] is True
        assert runs["one"][1:] == runs["all"][1:], oracles.blas_build()

    def test_short_training_run(self, dataset, tmp_path):
        params = tmp_path / "head.bin"
        summary = run_ok([
            "train-head", "--data", str(dataset), "--epochs", "5",
            "--out", str(params), "--seed", "2",
        ])
        assert params.exists()
        log = Path(summary["log"]).read_text().splitlines()
        assert log[0] == "epoch,total,cls,dim,posi,seg,tilt,yaw_bin,yaw_res"
        assert len(log) == 6
        from fullpose.head import load_head

        loaded = load_head(params)
        assert loaded.shared.in_dim == 256

    # reference digests of the head file and the log CSV, trained on the
    # synth "ramp" golden set: any change to a trained weight or a logged
    # loss bit fails here; re-record only for an intended output change
    def test_golden_digest(self, tmp_path):
        data, config = tmp_path / "data", tmp_path / "head.json"
        run_ok(["synth", "--scenes", "3", "--boxes", "8", "--density", "2.0", "--seed", "4",
                "--ramp-fraction", "0.5", "--noise-sigma", "0.02", "--feature-noise", "0.1",
                "--output", str(data)])
        config.write_text(json.dumps({"head": {"shared_widths": [16, 8], "seg_hidden": [4]}}))
        params, log = tmp_path / "head.bin", tmp_path / "head.csv"
        run_ok(["train-head", "--data", str(data), "--epochs", "4", "--out", str(params),
                "--log", str(log), "--config", str(config), "--seed", "1"])
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (params, log)] == [
            "145626861680b7c03d0585487ce6b28a499b0e61089f7d6f93b51baac2faa52f",
            "9b29aeaf6d0efbe9cd53315caa0f83c517e7442a04e40b6afc18e6a9732878c5",
        ]

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_no_epochs_is_data_error(self, dataset, tmp_path, capsys, epochs):
        error = _fail(["train-head", "--data", str(dataset), "--epochs", epochs,
                       "--out", str(tmp_path / "head.bin")], capsys)
        assert error == f"epochs must be >= 1, got {epochs}"
        assert not (tmp_path / "head.bin").exists()

    def test_head_no_host_can_hold_is_data_error(self, dataset, tmp_path, capsys):
        # 1.82 PiB for the trunk's first weight matrix: numpy refuses it at once
        config = tmp_path / "head.json"
        config.write_text(json.dumps({"head": {"shared_widths": [10**12]}}))
        params = tmp_path / "head.bin"
        error = _fail(["train-head", "--data", str(dataset), "--epochs", "1",
                       "--out", str(params), "--config", str(config)], capsys)
        assert error.startswith("head widths feature_dim=256, shared_widths=[1000000000000], "
                                "seg_hidden=[128] do not fit in memory: ")
        assert not params.exists()

    def test_empty_trunk_is_config_error(self, dataset, tmp_path, capsys):
        config = tmp_path / "head.json"
        config.write_text(json.dumps({"head": {"shared_widths": []}}))
        error = _fail(["train-head", "--data", str(dataset), "--epochs", "1",
                       "--out", str(tmp_path / "head.bin"), "--config", str(config)], capsys)
        assert error == (f"{config}: invalid config value in section head: "
                         "shared_widths needs at least one trunk width")


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_negative_seed_is_usage_error(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["gradcheck", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err


@pytest.mark.parametrize("command", [
    ["augment", "--input", "in", "--output", "out"],
    ["synth", "--scenes", "1", "--output", "out"],
    ["train-head", "--data", "data", "--out", "head.bin"],
    ["eval", "--gt", "gt", "--pred", "pred"],
    ["stats", "--input", "in", "--out", "stats.csv"],
    ["nms", "--pred", "pred.jsonl"],
    ["gradcheck"],
    ["convert", "--input", "in", "--output", "out"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("jobs", ["0", "-1", "x"])
def test_jobs_below_one_is_usage_error(command, jobs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.run([*command, "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --jobs: must be a positive integer, got '{jobs}'" in err
    assert list(tmp_path.iterdir()) == []


def test_pool_has_no_more_workers_than_tasks(tmp_path, monkeypatch):
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # the pool class is looked up in concurrent.futures when a pool starts
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    run_ok(["synth", "--scenes", "2", "--jobs", "64", "--output", str(tmp_path / "out")])
    assert asked == [2]


def test_single_process_run_imports_no_process_pool(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")]))
    argv = ["synth", "--scenes", "1", "--output", str(tmp_path / "out")]
    script = ("import json, sys\nfrom fullpose import cli\n"
              "imported = ['concurrent.futures.process' in sys.modules]\n"
              f"cli.run({argv!r})\n"
              "imported.append('concurrent.futures.process' in sys.modules)\n"
              "print(json.dumps(imported))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False]


KITTI_CALIB = """\
P2: 700.0 0.0 600.0 0.0 0.0 700.0 180.0 0.0 0.0 0.0 1.0 0.0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0
"""
KITTI_LABEL = """\
Car 0.00 0 -1.58 614.24 181.78 727.31 284.77 1.57 1.73 4.15 0.0 0.0 10.0 -1.62
DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10
"""

# small rectification and sensor-mount rotations, so the inverses carry rounding
ROTATED_KITTI_CALIB = """\
P2: 7.215377e+02 0.000000e+00 6.095593e+02 4.485728e+01 0.000000e+00 7.215377e+02 1.728540e+02 2.163791e-01 0.000000e+00 0.000000e+00 1.000000e+00 2.745884e-03
R0_rect: 9.999239e-01 9.837760e-03 -7.445048e-03 -9.869795e-03 9.999421e-01 -4.278459e-03 7.402527e-03 4.351614e-03 9.999631e-01
Tr_velo_to_cam: 7.533745e-03 -9.999714e-01 -6.166020e-04 -4.069766e-03 1.480249e-02 7.280733e-04 -9.998902e-01 -7.631618e-02 9.998621e-01 7.523790e-03 1.480755e-02 -2.717806e-01
"""
ROTATED_KITTI_LABELS = {
    "000000": """\
Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59
Car 0.00 0 1.85 387.63 181.54 423.81 203.12 1.67 1.87 3.69 -16.53 2.39 58.49 1.57
DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10
Pedestrian 0.00 0 -0.20 712.40 143.00 810.73 307.92 1.89 0.48 1.20 1.84 1.47 8.41 0.01
Cyclist 0.30 1 -2.91 100.00 150.00 160.00 230.00 1.72 0.55 1.76 -8.20 1.60 14.10 -3.40
""",
    "000001": """\
Car 0.88 3 -0.69 0.00 192.37 402.31 374.00 1.60 1.57 3.23 -2.70 1.74 3.68 -1.29
Van 0.00 1 2.51 280.02 176.49 330.43 213.95 2.12 1.86 4.74 -14.85 2.10 34.99 2.11
""",
}


class TestConvert:
    @staticmethod
    def _convert(tmp_path, name, label_text):
        """argv converting a one-frame KITTI tree under ``tmp_path / name``, and its label path."""
        src = tmp_path / name
        (src / "label_2").mkdir(parents=True)
        (src / "calib").mkdir()
        (src / "label_2" / "000000.txt").write_text(label_text)
        (src / "calib" / "000000.txt").write_text(KITTI_CALIB)
        argv = ["convert", "--input", str(src), "--output", str(tmp_path / f"{name}_native")]
        return argv, src / "label_2" / "000000.txt"

    def test_kitti_to_pose6d(self, tmp_path):
        argv, _ = self._convert(tmp_path, "kitti", KITTI_LABEL)
        cloud = tmp_path / "kitti" / "velodyne" / "000000.bin"
        cloud.parent.mkdir()
        cloud.write_bytes(np.arange(8, dtype="<f4").tobytes())
        summary = run_ok(argv)
        assert summary["objects"] == 1 and summary["clouds_copied"] == 1
        assert (tmp_path / "kitti_native" / "velodyne" / "000000.bin").read_bytes() == cloud.read_bytes()
        records = read_pose6d(tmp_path / "kitti_native" / "labels" / "000000.jsonl")
        assert records[0].box.class_id == 1
        assert abs(records[0].box.center[0] - 10.0) < 1e-9
        assert records[0].difficulty == "easy"

    # reference digests of the converted labels: any change to a record byte
    # fails here; re-record only for an intended output change
    def test_golden_digest(self, tmp_path):
        src = tmp_path / "kitti"
        (src / "label_2").mkdir(parents=True)
        (src / "calib").mkdir()
        for frame_id, text in ROTATED_KITTI_LABELS.items():
            (src / "label_2" / f"{frame_id}.txt").write_text(text)
            (src / "calib" / f"{frame_id}.txt").write_text(ROTATED_KITTI_CALIB)
        summary = run_ok(["convert", "--input", str(src), "--output", str(tmp_path / "native")])
        assert summary["objects"] == 6
        assert tree_digest(tmp_path / "native") == {
            "labels/000000.jsonl": "ac7c12b47b6d46656d72bdf55128520787e6c0f1fea2e1a592ba46ae2d872472",
            "labels/000001.jsonl": "d13385fa9ab18531a62922971c3ec74b000c30cafed6d57f58785c263a278a1d",
        }

    def test_kitti_results_convert_then_eval(self, tmp_path):
        # a KITTI results row carries the detection score as a 16th column
        gt_argv, _ = self._convert(tmp_path, "gt", KITTI_LABEL)
        pred_argv, _ = self._convert(tmp_path, "pred", KITTI_LABEL.replace(" -1.62\n", " -1.62 0.75\n"))
        run_ok(gt_argv)
        run_ok(pred_argv)
        assert read_pose6d(tmp_path / "pred_native" / "labels" / "000000.jsonl")[0].box.score == 0.75
        summary = run_ok(["eval", "--gt", str(tmp_path / "gt_native"),
                          "--pred", str(tmp_path / "pred_native")])
        assert summary["ap"] and set(summary["ap"].values()) == {1.0}

    def test_calib_block_of_wrong_size_names_file(self, tmp_path, capsys):
        argv, _ = self._convert(tmp_path, "kitti", KITTI_LABEL)
        calib = tmp_path / "kitti" / "calib" / "000000.txt"
        lines = calib.read_text().splitlines()
        (at,) = [i for i, line in enumerate(lines) if line.startswith("P2:")]
        lines[at] = lines[at].rsplit(" ", 1)[0]
        calib.write_text("\n".join(lines) + "\n")
        error = _fail(argv, capsys)
        assert error == f"{calib}: calibration block 'P2' has 11 values, expected 12"

    def test_kitti_score_above_one_names_file_and_line(self, tmp_path, capsys):
        argv, label = self._convert(tmp_path, "pred", KITTI_LABEL.replace(" -1.62\n", " -1.62 1.5\n"))
        error = _fail(argv, capsys)
        assert error == f"{label}:1: score must lie in [0, 1], got 1.5"
        assert not (tmp_path / "pred_native" / "labels" / "000000.jsonl").exists()
