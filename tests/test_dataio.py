import builtins
import errno
import json
import math
import re
import warnings

import numpy as np
import pytest

from fullpose.dataio import (
    ConfigError,
    ParseError,
    Pose6dRecord,
    ToolkitConfig,
    TruncatedFileError,
    class_id_for,
    class_name_for,
    load_config,
    read_kitti_calib,
    read_kitti_labels,
    read_pose6d,
    read_velodyne,
    write_ply,
    write_pose6d,
    write_velodyne,
)
from fullpose import dataio
from fullpose.geom import EulerXYZ, FullPoseBox, PointCloud


class TestVelodyne:
    def test_two_point_file(self, tmp_path):
        path = tmp_path / "a.bin"
        data = np.array([[1, 2, 3, 0.5], [4, 5, 6, 0.9]], dtype="<f4")
        path.write_bytes(data.tobytes())
        cloud = read_velodyne(path)
        assert len(cloud) == 2
        assert np.allclose(cloud.points, [[1, 2, 3], [4, 5, 6]])
        assert np.allclose(cloud.extras[:, 0], [0.5, 0.9])

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(TruncatedFileError):
            read_velodyne(path)

    @pytest.mark.parametrize("row, column, value", [
        (1, 0, np.nan), (0, 2, np.inf), (2, 1, -np.inf),
    ])
    def test_non_finite_coordinate_names_file(self, tmp_path, row, column, value):
        data = np.arange(12, dtype="<f4").reshape(3, 4)
        data[row, column] = value
        data[2, 3] = np.nan  # intensity is not a coordinate
        path = tmp_path / "bad.bin"
        path.write_bytes(data.tobytes())
        message = f"{path}: point {row} has a non-finite x/y/z"
        with pytest.raises(ParseError, match=re.escape(message)):
            read_velodyne(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_intensity_names_file(self, tmp_path, value):
        data = np.arange(12, dtype="<f4").reshape(3, 4)
        data[1, 3] = value
        data[2, 0] = np.nan  # a later point's coordinate is not reported
        path = tmp_path / "bad.bin"
        path.write_bytes(data.tobytes())
        message = f"{path}: point 1 has a non-finite intensity"
        with pytest.raises(ParseError, match=re.escape(message) + "$"):
            read_velodyne(path)

    def test_write_read_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-50, 50, (100, 3)).astype(np.float32).astype(np.float64)
        intensity = rng.uniform(0, 1, (100, 1)).astype(np.float32).astype(np.float64)
        cloud = PointCloud(pts, intensity)
        path = tmp_path / "rt.bin"
        write_velodyne(cloud, path)
        back = read_velodyne(path)
        assert back.points.tobytes() == cloud.points.tobytes()
        assert back.extras.tobytes() == cloud.extras.tobytes()
        write_velodyne(back, tmp_path / "rt2.bin")
        assert (tmp_path / "rt2.bin").read_bytes() == path.read_bytes()


class _HalfThenFull:
    """File wrapper whose write stores half the data, then fails as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _fill_disk(monkeypatch):
    """Make every file dataio opens for writing fail halfway through a write."""
    def failing_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return _HalfThenFull(fh) if "w" in mode else fh
    monkeypatch.setattr(dataio, "open", failing_open, raising=False)


class TestAtomicWrites:
    def test_failed_velodyne_write_leaves_no_file(self, tmp_path, monkeypatch):
        _fill_disk(monkeypatch)
        cloud = PointCloud(np.arange(30.0).reshape(10, 3))
        with pytest.raises(OSError):
            write_velodyne(cloud, tmp_path / "000000.bin")
        assert list(tmp_path.iterdir()) == []

    def test_failed_pose6d_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "000000.jsonl"
        record = Pose6dRecord("000000", FullPoseBox(np.zeros(3), np.ones(3), class_id=1))
        write_pose6d([record], path)
        before = path.read_bytes()
        _fill_disk(monkeypatch)
        with pytest.raises(OSError):
            write_pose6d([record, record], path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


CALIB_TEXT = """\
P2: 700.0 0.0 600.0 0.0 0.0 700.0 180.0 0.0 0.0 0.0 1.0 0.0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0
"""

# a KITTI calibration with small rectification and sensor-mount rotations
ROTATED_CALIB_TEXT = """\
P2: 7.215377e+02 0.000000e+00 6.095593e+02 4.485728e+01 0.000000e+00 7.215377e+02 1.728540e+02 2.163791e-01 0.000000e+00 0.000000e+00 1.000000e+00 2.745884e-03
R0_rect: 9.999239e-01 9.837760e-03 -7.445048e-03 -9.869795e-03 9.999421e-01 -4.278459e-03 7.402527e-03 4.351614e-03 9.999631e-01
Tr_velo_to_cam: 7.533745e-03 -9.999714e-01 -6.166020e-04 -4.069766e-03 1.480249e-02 7.280733e-04 -9.998902e-01 -7.631618e-02 9.998621e-01 7.523790e-03 1.480755e-02 -2.717806e-01
"""


class TestKittiCalib:
    def test_parse_blocks(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("\n" + CALIB_TEXT.replace("\n", "\n  \n"))  # blank lines are skipped
        calib = read_kitti_calib(path)
        assert calib.p2.shape == (3, 4)
        assert calib.r0_rect.shape == (4, 4)
        assert calib.tr_velo_to_cam[0, 1] == -1.0

    def test_transform_round_trip_identity(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(CALIB_TEXT)
        calib = read_kitti_calib(path)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-20, 20, (50, 3))
        # LiDAR -> rectified camera: Tr_velo_to_cam, then R0_rect
        hom = np.hstack([pts, np.ones((len(pts), 1))])
        cam = (hom @ calib.tr_velo_to_cam.T @ calib.r0_rect.T)[:, :3]
        back = calib.cam_to_lidar(cam)
        assert np.abs(back - pts).max() < 1e-9

    def test_nominal_axis_map(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(CALIB_TEXT)
        calib = read_kitti_calib(path)
        # camera (x right, y down, z forward) -> lidar (x forward, y left, z up)
        assert np.allclose(calib.cam_to_lidar(np.array([[0.0, 0.0, 10.0]]))[0], [10, 0, 0])

    def test_cam_to_lidar_equals_per_call_inverses(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(ROTATED_CALIB_TEXT)
        calib = read_kitti_calib(path)
        rng = np.random.default_rng(2)
        for pts in (rng.uniform(-40, 40, (50, 3)), rng.uniform(-40, 40, 3), np.zeros((0, 3))):
            hom = np.hstack([np.atleast_2d(pts), np.ones((np.atleast_2d(pts).shape[0], 1))])
            want = hom @ np.linalg.inv(calib.r0_rect).T @ np.linalg.inv(calib.tr_velo_to_cam).T
            assert calib.cam_to_lidar(pts).tobytes() == want[:, :3].tobytes()

    @pytest.mark.parametrize("line, message", [
        ("P3 1 2 3", "expected 'KEY: values'"),
        ("P3: 1 2 x", "could not convert string to float: 'x'"),
    ], ids=["no-colon", "non-numeric"])
    def test_malformed_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "calib.txt"
        path.write_text(CALIB_TEXT + line + "\n")
        lineno = len(CALIB_TEXT.splitlines()) + 1
        with pytest.raises(ParseError) as exc:
            read_kitti_calib(path)
        assert str(exc.value) == f"{path}:{lineno}: {message}"

    def test_missing_block(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P2: " + " ".join(["0"] * 12) + "\n")
        with pytest.raises(ParseError, match="R0_rect"):
            read_kitti_calib(path)

    @pytest.mark.parametrize("key, count, want", [("P2", 11, 12), ("R0_rect", 10, 9),
                                                  ("Tr_velo_to_cam", 13, 12)])
    def test_block_of_wrong_size_names_file_and_block(self, tmp_path, key, count, want):
        path = tmp_path / "calib.txt"
        lines = [line if not line.startswith(f"{key}:") else f"{key}: " + " ".join(["1"] * count)
                 for line in CALIB_TEXT.splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_kitti_calib(path)
        assert str(exc.value) == f"{path}: calibration block {key!r} has {count} values, expected {want}"


LABEL_TEXT = """\
Car 0.00 0 -1.58 614.24 181.78 727.31 284.77 1.57 1.73 4.15 0.0 0.0 10.0 -1.62
DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10
Pedestrian 0.10 1 0.5 100.0 120.0 140.0 200.0 1.80 0.60 0.90 -3.0 1.2 15.0 0.40
"""


class TestKittiLabels:
    @pytest.fixture()
    def calib(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(CALIB_TEXT)
        return read_kitti_calib(path)

    def test_hand_computed_car(self, tmp_path, calib):
        path = tmp_path / "label.txt"
        path.write_text("\n" + LABEL_TEXT.replace("\n", "\n \n"))  # blank lines are skipped
        records = read_kitti_labels(path, calib)
        assert len(records) == 2  # DontCare skipped
        car = records[0]
        assert car.box.class_id == 1 and car.frame == "label"
        # bottom center (0, 0, 10) in camera -> (10, 0, 0) lidar, lifted h/2
        assert np.abs(car.box.center - [10.0, 0.0, 1.57 / 2]).max() < 1e-9
        assert np.allclose(car.box.dims, [4.15, 1.73, 1.57])
        want_yaw = (1.62 - math.pi / 2) % (2 * math.pi)
        assert abs(car.box.euler.theta_z - want_yaw) < 1e-12
        assert car.box.euler.theta_x == 0.0 and car.box.euler.theta_y == 0.0
        # 2D box height 284.77 - 181.78 >= 40 px, unoccluded, untruncated
        assert car.difficulty == "easy"

    def test_round_trip_through_pose6d(self, tmp_path, calib):
        label_path = tmp_path / "label.txt"
        label_path.write_text(LABEL_TEXT)
        records = read_kitti_labels(label_path, calib)
        out = tmp_path / "out.jsonl"
        write_pose6d(records, out)
        back = read_pose6d(out)
        for orig, rec in zip(records, back):
            assert np.abs(rec.box.center - orig.box.center).max() < 1e-6
            assert np.abs(rec.box.dims - orig.box.dims).max() < 1e-6
            assert abs(rec.box.euler.theta_z - orig.box.euler.theta_z) < 1e-6
            assert (rec.frame, rec.difficulty) == (orig.frame, orig.difficulty)

    def test_malformed_row(self, tmp_path, calib):
        path = tmp_path / "label.txt"
        path.write_text("Car 1 2 3\n")
        with pytest.raises(ParseError, match="label.txt:1"):
            read_kitti_labels(path, calib)

    @pytest.mark.parametrize("column, value", [(14, "inf"), (14, "nan"), (9, "inf"), (12, "-inf")])
    def test_non_finite_value_names_line(self, tmp_path, calib, column, value):
        parts = LABEL_TEXT.splitlines()[0].split()
        parts[column] = value
        path = tmp_path / "label.txt"
        path.write_text(" ".join(parts) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            with pytest.raises(ParseError, match="label.txt:1"):
                read_kitti_labels(path, calib)

    @pytest.mark.parametrize("column, value, message", [
        (15, "1.5", "score must lie in [0, 1], got 1.5"),
        (15, "-3.25", "score must lie in [0, 1], got -3.25"),
        (10, "0", "dims must be positive"),
        (0, "Foo", "unknown class name 'Foo'"),
    ])
    def test_value_no_box_holds_names_line(self, tmp_path, calib, column, value, message):
        parts = LABEL_TEXT.splitlines()[0].split() + ["0.5"]  # a results row: 16th column is the score
        parts[column] = value
        path = tmp_path / "label.txt"
        path.write_text(" ".join(parts) + "\n")
        with pytest.raises(ParseError) as info:
            read_kitti_labels(path, calib)
        assert str(info.value).startswith(f"{path}:1: {message}")


class TestPose6d:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_pose6d(path) == []

    def test_round_trip_value_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [
            Pose6dRecord(
                "000042",
                FullPoseBox(rng.uniform(-50, 50, 3), rng.uniform(0.5, 5, 3),
                            EulerXYZ(*rng.uniform(-math.pi, math.pi, 3).tolist()),
                            class_id=1, score=0.731),
                "moderate",
            )
            for _ in range(10)
        ]
        path = tmp_path / "rt.jsonl"
        write_pose6d(records, path)
        back = read_pose6d(path)
        for a, b in zip(records, back):
            assert b.frame == a.frame and b.box.class_id == a.box.class_id
            assert np.array_equal(a.box.center, b.box.center)
            assert np.array_equal(a.box.dims, b.box.dims)
            assert b.box.euler == a.box.euler
            assert b.box.score == a.box.score
            assert b.difficulty == a.difficulty

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"frame": "0", "class": "Car", "center": [0, 0, 0],
                           "dims": [1, 1, 1], "euler": [0, 0, 0]})
        path.write_text(good + "\n{oops\n")
        with pytest.raises(ParseError, match="bad.jsonl:2"):
            read_pose6d(path)

    @pytest.mark.parametrize("name", ["Foo", "Fahrzeug_ä", "class_x", 5])
    def test_unknown_class_names_line(self, tmp_path, name):
        path = tmp_path / "bad.jsonl"
        good = {"frame": "0", "class": "Car", "center": [0, 0, 0], "dims": [1, 1, 1],
                "euler": [0, 0, 0]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{"class": name})) + "\n")
        with pytest.raises(ParseError) as exc:
            read_pose6d(path)
        assert str(exc.value) == f"{path}:2: unknown class name {str(name)!r}"

    def test_integer_past_the_digit_limit_names_line(self, tmp_path):
        path = tmp_path / "long.jsonl"
        digits = "7" * 5000
        path.write_text('{"frame": "0", "class": "Car", "center": [' + digits + ', 0, 0], '
                        '"dims": [1, 1, 1], "euler": [0, 0, 0]}\n')
        with pytest.raises(ParseError) as exc:
            read_pose6d(path)
        assert str(exc.value).startswith(f"{path}:1: invalid JSON (Exceeds the limit (4300 digits)")

    def test_unknown_keys_ignored_on_read_dropped_on_write(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        obj = {"frame": "0", "class": "Car", "center": [0, 0, 0], "dims": [1, 1, 1],
               "euler": [0, 0, 0], "velocity": [5, 0, 0]}
        path.write_text(json.dumps(obj) + "\n")
        rec = read_pose6d(path)[0]
        assert not hasattr(rec, "extra")
        out = tmp_path / "rewritten.jsonl"
        write_pose6d([rec], out)
        assert "velocity" not in out.read_text()

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps({"frame": "0", "class": "Car"}) + "\n")
        with pytest.raises(ParseError, match="missing"):
            read_pose6d(path)

    def test_nonpositive_dims(self, tmp_path):
        path = tmp_path / "dims.jsonl"
        path.write_text(json.dumps({"frame": "0", "class": "Car", "center": [0, 0, 0],
                                    "dims": [1, 0, 1], "euler": [0, 0, 0]}) + "\n")
        with pytest.raises(ParseError, match="positive"):
            read_pose6d(path)

    @pytest.mark.parametrize("difficulty", ["medium", "Easy", 2])
    def test_unknown_difficulty_names_file_and_line(self, tmp_path, difficulty):
        path = tmp_path / "diff.jsonl"
        good = {"frame": "0", "class": "Car", "center": [0, 0, 0], "dims": [1, 1, 1],
                "euler": [0, 0, 0], "difficulty": "hard"}
        bad = dict(good, difficulty=difficulty)
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError, match="diff.jsonl:2: unknown difficulty"):
            read_pose6d(path)
        with pytest.raises(ValueError, match=f"unknown difficulty {difficulty!r}, expected one of"):
            Pose6dRecord("0", FullPoseBox(np.zeros(3), np.ones(3)), difficulty)

    @pytest.mark.parametrize("frame", [None, 7])
    def test_frame_must_be_a_json_string(self, tmp_path, frame):
        path = tmp_path / "frame.jsonl"
        good = {"frame": "0", "class": "Car", "center": [0, 0, 0], "dims": [1, 1, 1],
                "euler": [0, 0, 0]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, frame=frame)) + "\n")
        with pytest.raises(ParseError) as exc:
            read_pose6d(path)
        assert str(exc.value) == f"{path}:2: frame must be a JSON string"

    @pytest.mark.parametrize("score, message", [
        (1.5, "score must lie in [0, 1], got 1.5"),
        (-0.25, "score must lie in [0, 1], got -0.25"),
        (float("nan"), "score must lie in [0, 1], got nan"),
        ("high", "score must be a number"),
        ([0.5], "score must be a number"),
        ("0.5", "score must be a number"),
        (True, "score must be a number"),
        (False, "score must be a number"),
        (10 ** 400, "score must lie in [0, 1], got inf"),
        (-10 ** 400, "score must lie in [0, 1], got -inf"),
    ])
    def test_bad_score_names_file_and_line(self, tmp_path, score, message):
        path = tmp_path / "score.jsonl"
        good = {"frame": "0", "class": "Car", "center": [0, 0, 0], "dims": [1, 1, 1],
                "euler": [0, 0, 0], "score": 0.5}
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, score=score)) + "\n")
        with pytest.raises(ParseError) as exc:
            read_pose6d(path)
        assert str(exc.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("key, value, message", [
        ("center", "123", "center/dims/euler must be numeric triples"),
        ("dims", {"4": 0, "2": 0, "1": 0}, "center/dims/euler must be numeric triples"),
        ("center", ["1.5", "2", True], "center/dims/euler must be numeric triples"),
        ("euler", [0, 0, True], "center/dims/euler must be numeric triples"),
        ("dims", [1, None, 1], "center/dims/euler must be numeric triples"),
        ("euler", None, "center/dims/euler must be numeric triples"),
        ("center", 5, "center/dims/euler must be numeric triples"),
        ("center", [0, 0], "center/dims/euler must have 3 entries"),
        ("center", [0, 0, 10 ** 400], "non-finite numbers"),
    ])
    def test_triples_of_json_numbers_only(self, tmp_path, key, value, message):
        path = tmp_path / "triples.jsonl"
        good = {"frame": "0", "class": "Car", "center": [0, 0, 0], "dims": [1, 1, 1],
                "euler": [0, 0, 0]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{key: value})) + "\n")
        with pytest.raises(ParseError) as exc:
            read_pose6d(path)
        assert str(exc.value) == f"{path}:2: {message}"

    def test_integers_and_floats_read_as_floats(self, tmp_path):
        path = tmp_path / "numbers.jsonl"
        path.write_text(json.dumps({"frame": "0", "class": "Car", "center": [1, -2.5, 3],
                                    "dims": [4, 2, 1.5], "euler": [0, 0.25, -1],
                                    "score": 1}) + "\n")
        (rec,) = read_pose6d(path)
        box = rec.box
        assert box.center.tolist() == [1.0, -2.5, 3.0] and box.dims.tolist() == [4.0, 2.0, 1.5]
        assert box.euler.as_array().tolist() == [0.0, 0.25, -1.0]
        assert type(box.score) is float and box.score == 1.0

    def test_known_difficulties_and_null_accepted(self, tmp_path):
        path = tmp_path / "diff.jsonl"
        lines = [
            json.dumps({"frame": "0", "class": "Car", "center": [0, 0, 0], "dims": [1, 1, 1],
                        "euler": [0, 0, 0], "difficulty": d})
            for d in ("easy", "moderate", "hard", "ignored", None)
        ]
        path.write_text("\n".join(lines) + "\n")
        got = [rec.difficulty for rec in read_pose6d(path)]
        assert got == ["easy", "moderate", "hard", "ignored", None]

    def test_class_registry(self):
        assert class_id_for("Car") == 1
        assert class_id_for("class_77") == 77
        assert class_name_for(1) == "Car"
        assert class_name_for(77) == "class_77"
        with pytest.raises(ParseError):
            class_id_for("Spaceship")


def _parse_ply(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    n = int(next(l for l in lines if l.startswith("element vertex")).split()[-1])
    start = lines.index("end_header") + 1
    rows = [tuple(float(v) for v in l.split()) for l in lines[start:start + n]]
    return n, rows


class TestPly:
    def test_three_point_header(self, tmp_path):
        cloud = PointCloud(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float))
        path = tmp_path / "c.ply"
        write_ply(cloud, path)
        n, rows = _parse_ply(path)
        assert n == 3
        assert rows[1][:3] == (1.0, 0.0, 0.0)

    def test_empty_cloud_valid(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(PointCloud(np.zeros((0, 3))), path)
        n, rows = _parse_ply(path)
        assert n == 0 and rows == []

    def test_colors(self, tmp_path):
        cloud = PointCloud(np.array([[1, 2, 3]], float))
        path = tmp_path / "col.ply"
        write_ply(cloud, path, colors=np.array([[255, 0, 10]]))
        text = path.read_text()
        assert "property uchar red" in text
        assert text.strip().endswith("255 0 10")


class TestConfig:
    def test_defaults_match_published_values(self):
        cfg = load_config(None)
        assert cfg.nms_iou == 0.1
        assert cfg.codec.n_yaw_bins == 12
        assert abs(cfg.codec.t_theta_x - math.radians(10)) < 1e-15
        assert abs(cfg.codec.t_theta_y - math.radians(10)) < 1e-15
        assert cfg.slopeaug.p_s == 0.1
        assert cfg.eval.iou_threshold == 0.7
        assert cfg.eval.cd_threshold == 1.0

    def test_empty_object_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert load_config(path) == ToolkitConfig()

    def test_override_honored(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"slopeaug": {"p_s": 0.5}}))
        assert load_config(path).slopeaug.p_s == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"frobnicate": 1}))
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(path)

    def test_nested_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"codec": {"n_yaw_bins": 8, "wat": 1}}))
        with pytest.raises(ConfigError, match="codec.wat"):
            load_config(path)

    @pytest.mark.parametrize("data, key", [
        ({"points_per_cloud": 16384}, "points_per_cloud"),
        ({"slopeaug": {"seed": 3}}, "slopeaug.seed"),
        ({"eval": {"center_distance_bev": False}}, "eval.center_distance_bev"),
        ({"codec": {"strict_eq3": True}}, "codec.strict_eq3"),
        ({"slopeaug": {"gamma_sign": "up"}}, "slopeaug.gamma_sign"),
        ({"slopeaug": {"alpha_range": [-0.5, 0.5]}}, "slopeaug.alpha_range"),
    ])
    def test_removed_keys_rejected(self, tmp_path, data, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("key, value, message", [
        ("cd_threshold", "NaN", "distance threshold must be positive"),
        ("cd_threshold", "Infinity", "distance threshold must be positive"),
        ("cd_threshold", "0", "distance threshold must be positive"),
        ("cd_threshold", "-1", "distance threshold must be positive"),
        ("iou_threshold", "NaN", "IoU threshold must lie in (0, 1]"),
        ("iou_threshold", "0", "IoU threshold must lie in (0, 1]"),
        ("iou_threshold", "1.5", "IoU threshold must lie in (0, 1]"),
    ])
    def test_eval_threshold_rejected_on_load(self, tmp_path, key, value, message):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"eval": {{"{key}": {value}}}}}')
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("gamma_range", [0.1, 0.2, 0.3]), ("r_range", [8.0]), ("r_range", []),
    ])
    def test_slope_range_must_be_a_pair(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"slopeaug": {key: value}}))
        message = f"{key} must be a (min, max) pair, got {len(value)} values"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    def test_top_level_value_cast(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nms_iou": 1, "head": {"shared_widths": [8, 4]}}))
        cfg = load_config(path)
        assert cfg.nms_iou == 1.0 and isinstance(cfg.nms_iou, float)
        assert cfg.head.shared_widths == (8, 4)

    @pytest.mark.parametrize("data, message", [
        ({"codec": {"n_yaw_bins": 12.5}}, "codec.n_yaw_bins must be an integer, got 12.5"),
        ({"head": {"class_count": 2.5}}, "head.class_count must be an integer, got 2.5"),
        ({"head": {"feature_dim": 16.0}}, "head.feature_dim must be an integer, got 16.0"),
        ({"head": {"shared_widths": [32.0, 16]}}, "head.shared_widths must be an integer, got 32.0"),
        ({"eval": {"recall_positions": True}}, "eval.recall_positions must be an integer, got True"),
        ({"nms_iou": "0.5"}, "nms_iou must be a number, got '0.5'"),
        ({"nms_iou": True}, "nms_iou must be a number, got True"),
        ({"slopeaug": {"p_s": None}}, "slopeaug.p_s must be a number, got None"),
        ({"slopeaug": {"r_range": "ab"}}, "slopeaug.r_range must be an array, got 'ab'"),
        ({"slopeaug": {"gamma_range": [0.1, False]}}, "slopeaug.gamma_range must be a number, got False"),
    ])
    def test_value_of_wrong_json_type_rejected(self, tmp_path, data, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    def test_empty_trunk_rejected_empty_seg_hidden_kept(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"head": {"shared_widths": []}}))
        with pytest.raises(ConfigError, match="shared_widths needs at least one trunk width"):
            load_config(path)
        path.write_text(json.dumps({"head": {"seg_hidden": []}}))
        assert load_config(path).head.seg_hidden == ()

    def test_section_numbers_become_floats(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"slopeaug": {"p_s": 1, "r_range": [8, 32]}}))
        cfg = load_config(path).slopeaug
        assert (cfg.p_s, cfg.r_range) == (1.0, (8.0, 32.0))
        assert all(isinstance(v, float) for v in (cfg.p_s, *cfg.r_range))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_integer_past_the_digit_limit_names_file(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"nms_iou": ' + "7" * 5000 + "}")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value).startswith(f"{path}: invalid JSON (Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("data, message", [
        ({"eval": {"iou_threshold": 2}},
         "invalid config value in section eval: IoU threshold must lie in (0, 1]"),
        ({"head": {"shared_widths": [0]}},
         "invalid config value in section head: all widths must be positive"),
        ({"codec": {"n_yaw_bins": 1}},
         "invalid config value in section codec: n_yaw_bins must be >= 2"),
        ({"slopeaug": {"p_s": 2}},
         "invalid config value in section slopeaug: p_s must lie in [0, 1], got 2.0"),
        ({"nms_iou": -3}, "invalid config value: nms_iou must lie in [0, 1], got -3.0"),
        ([1, 2], "config root must be a JSON object"),
        ({"frobnicate": 1}, "unknown config key: frobnicate"),
        ({"codec": {"wat": 1}}, "unknown config key: codec.wat"),
        ({"codec": [12]}, "config section 'codec' must be an object"),
        ({"eval": None}, "config section 'eval' must be an object"),
    ])
    def test_error_names_file_and_section(self, tmp_path, data, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_integer_beyond_float_range(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"slopeaug": {"p_s": 1' + "0" * 400 + "}}")
        with pytest.raises(ConfigError, match="too large to convert to float"):
            load_config(path)

    def test_nms_iou_outside_unit_interval(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nms_iou": -3}))
        with pytest.raises(ConfigError, match=r"nms_iou must lie in \[0, 1\], got -3\.0"):
            load_config(path)
