"""Box checks and JSONL label IO against their per-value numpy oracles.

``FullPoseBox``, ``geom._as_vec3`` and ``EulerXYZ`` check Python floats,
and ``read_pose6d``/``write_pose6d`` check and format a whole file at
once.  They must reject exactly what the numpy checks of
``tests/oracles.py`` reject, with the same messages, and read and write
the same values and bytes.  A record holds a checked box, so what the
writer writes the reader reads back bit for bit.
"""

import importlib.util
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from fullpose import cli  # noqa: E402
from fullpose.dataio import (  # noqa: E402
    DEFAULT_CLASS_IDS, ParseError, Pose6dRecord, class_name_for, read_pose6d, write_pose6d,
)
from fullpose.evaluation import DIFFICULTY_LABELS  # noqa: E402
from fullpose.geom import EulerXYZ, FullPoseBox, _as_vec3  # noqa: E402

import oracles  # noqa: E402

GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
NAN, INF = float("nan"), float("inf")
SUBNORMAL = 5e-324


def outcome(fn, *args):
    """What ``fn(*args)`` does: the ValueError it raises, or None."""
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


# ------------------------------------------------------------- box checks

def _with(values, i, value):
    out = list(values)
    out[i] = value
    return out


VEC_CASES = (
    [[1.5, -2.0, 0.25], [0.0, -0.0, SUBNORMAL], [1e16, -1e300, 3.0]]
    + [_with([1.0, 2.0, 3.0], i, v) for i in range(3) for v in (NAN, INF, -INF)]
    + [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0], [2.0], [3.0]], [[1.0, 2.0, 3.0]],
       [[NAN], [2.0], [3.0]], [], 7.0]
)
DIMS_CASES = VEC_CASES + [_with([1.0, 2.0, 3.0], i, v) for i in range(3) for v in (0.0, -0.0, -1.5)]
SCORES = [None, 0.0, -0.0, 0.5, 1.0, NAN, -1e-300, math.nextafter(1.0, 2.0), 1.5]


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestBoxChecks:
    @pytest.mark.parametrize("value", VEC_CASES + [np.array(v) for v in VEC_CASES[:6]])
    def test_as_vec3_rejects_what_numpy_rejects(self, value):
        assert outcome(_as_vec3, value, "pivot") == outcome(oracles.as_vec3_oracle, value, "pivot")
        if outcome(_as_vec3, value) is None:
            assert bits(_as_vec3(value)) == bits(oracles.as_vec3_oracle(value))

    @pytest.mark.parametrize("center", VEC_CASES)
    def test_center(self, center):
        got = outcome(lambda: FullPoseBox(center, [1.0, 1.0, 1.0]))
        assert got == outcome(oracles.box_checks_oracle, center, [1.0, 1.0, 1.0], None)

    @pytest.mark.parametrize("dims", DIMS_CASES)
    def test_dims(self, dims):
        got = outcome(lambda: FullPoseBox(np.zeros(3), dims))
        assert got == outcome(oracles.box_checks_oracle, np.zeros(3), dims, None)

    @pytest.mark.parametrize("score", SCORES)
    def test_score(self, score):
        got = outcome(lambda: FullPoseBox(np.zeros(3), np.ones(3), score=score))
        assert got == outcome(oracles.box_checks_oracle, np.zeros(3), np.ones(3), score)

    def test_center_is_checked_before_dims(self):
        got = outcome(lambda: FullPoseBox([NAN, 0.0, 0.0], [0.0, 1.0, 1.0], score=2.0))
        assert got == outcome(oracles.box_checks_oracle, [NAN, 0.0, 0.0], [0.0, 1.0, 1.0], 2.0)
        assert got[1].startswith("center has non-finite components")

    @pytest.mark.parametrize("class_id", [1.5, 1.0, np.float64(2.0), "1", None, np.array([1])])
    def test_class_id_must_be_an_integer(self, class_id):
        with pytest.raises(ValueError, match="class_id must be an integer"):
            FullPoseBox(np.zeros(3), np.ones(3), class_id=class_id)

    @pytest.mark.parametrize("class_id", [1, -3, 2**70, np.int64(2), np.uint8(3), np.array(4), True])
    def test_integer_class_id_is_held_as_int(self, class_id):
        box = FullPoseBox(np.zeros(3), np.ones(3), class_id=class_id)
        assert type(box.class_id) is int and box.class_id == class_id

    @pytest.mark.parametrize("i", range(3))
    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_euler_rejects_each_non_finite_component(self, i, value, kind):
        angles = [kind(v) for v in _with([0.1, -0.2, 3.0], i, value)]
        name = ("theta_x", "theta_y", "theta_z")[i]
        assert outcome(EulerXYZ, *angles) == (ValueError, f"{name} must be finite")

    def test_read_boxes_hold_python_float_angles(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(json.dumps(dict(GOOD, euler=[0.1, -0.2, 3.0])) + "\n"
                        + json.dumps(dict(GOOD, euler=[0, 1, 2])) + "\n", encoding="utf-8")
        floated, listed = (rec.box.euler for rec in read_pose6d(path))
        assert [type(v) for v in (floated.theta_x, floated.theta_y, floated.theta_z)] == [float] * 3
        assert bits([floated.theta_x, floated.theta_y, floated.theta_z]) == bits([0.1, -0.2, 3.0])
        assert [listed.theta_x, listed.theta_y, listed.theta_z] == [0.0, 1.0, 2.0]
        assert {type(v) for v in (listed.theta_x, listed.theta_y, listed.theta_z)} == {float}


# ------------------------------------------------------------ label reader

finite = st.one_of(
    st.sampled_from([0.0, -0.0, SUBNORMAL, -SUBNORMAL, 1e16, -1e-300, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
positive = st.one_of(st.sampled_from([SUBNORMAL, 1e16, 0.5]),
                     st.floats(min_value=1e-3, max_value=50.0))
names = st.one_of(st.sampled_from(["000001", "Fahrzeug_ä", "車", ""]), st.text(max_size=6))
triple = st.lists(finite, min_size=3, max_size=3)


@st.composite
def valid_rows(draw) -> str:
    obj = {
        "frame": draw(st.one_of(names, st.integers(0, 999))),
        "class": draw(st.sampled_from(["Car", "Pedestrian", "class_77", "Misc"])),
        "center": draw(triple),
        "dims": draw(st.lists(positive, min_size=3, max_size=3)),
        "euler": draw(triple),
    }
    if draw(st.booleans()):
        obj["score"] = draw(st.one_of(st.none(), st.sampled_from([0, 1, 0.0, -0.0, 1.0]),
                                      st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        obj["difficulty"] = draw(st.sampled_from((None,) + DIFFICULTY_LABELS))
    if draw(st.booleans()):
        obj["velocity"] = [5, 0, 0]
    keys = list(obj)
    order = draw(st.permutations(keys))
    return json.dumps({k: obj[k] for k in order}, ensure_ascii=draw(st.booleans()))


GOOD = {"frame": "0", "class": "Car", "center": [0.5, -1.0, 2.0], "dims": [1.0, 2.0, 3.0],
        "euler": [0.0, 0.1, -0.2]}


_DROP = object()  # a key that _bad leaves out


def _bad(**changes) -> str:
    obj = dict(GOOD, **changes)
    return json.dumps({k: v for k, v in obj.items() if v is not _DROP})


BAD_ROWS = (
    ["{oops", "[1, 2", '{"frame": "0",}', "nul"]                          # invalid JSON
    + ["[1, 2, 3]", "5", '"text"', "null"]                                # not an object
    + [_bad(**{key: _DROP}) for key in ("frame", "class", "center", "dims", "euler")]
    + [_bad(frame=f) for f in (None, 7, 0.5, ["0"], {"id": "0"}, True)]
    + [_bad(center="abc"), _bad(dims="123"), _bad(euler=[True, False, True]),
       _bad(dims=[True, False, True]), _bad(center=[[1.0], [2.0], [3.0]]), _bad(euler=[]),
       _bad(center=None), _bad(dims=5), _bad(euler={"a": 1}), _bad(center=["1", "2", "x"])]
    + [_bad(center=[1.0, 2.0]), _bad(dims=[1.0, 2.0, 3.0, 4.0]), _bad(euler=[0.0, 0.0])]
    + [_bad(dims=_with([1.0, 2.0, 3.0], i, v)) for i in range(3) for v in (0.0, -0.0, -1.5, NAN)]
    + [_bad(dims=[0.0, NAN, 1.0]), _bad(dims=[NAN, -1.0, 1.0])]
    + [_bad(**{key: _with([1.0, 2.0, 3.0], i, v)})
       for key in ("center", "dims", "euler") for i in (0, 2) for v in (INF, -INF)]
    + [_bad(center=[NAN, 0.0, 0.0]), _bad(euler=[0.0, 0.0, NAN])]
    + [_bad(difficulty=d) for d in ("medium", "Easy", 2, [1])]
    + [_bad(score=s) for s in (NAN, -0.25, 1.5, [0.5], "high", {"v": 1}, INF, True, "0.5")]
    + [_bad(center="123"), _bad(dims={"4": 0, "2": 0, "1": 0}), _bad(center=["1.5", "2", True])]
    + [_bad(center=[0.0, 1.0, 10 ** 400]), _bad(dims=[1.0, -(10 ** 400), 1.0]),
       _bad(score=10 ** 400), _bad(score=2 ** 1024 - 2 ** 970)]
    + [_bad(**{"class": c}) for c in ("Fahrzeug_ä", "Foo", "class_x", "", 5, None)]
    + [json.dumps(GOOD).replace("0.5", "7" * 5000, 1)]   # past the int-string limit
    + [_bad(euler=[0, 0, 1]), _bad(dims=[2 ** 1024 - 2 ** 970 - 1, 1, 1]), "   ", ""]  # accepted by both
)


def float_bits(value) -> tuple:
    return type(value), struct.pack("<d", value)


def record_bits(rec) -> tuple:
    box = rec.box
    arrays = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (box.center, box.dims))
    angles = tuple(map(float_bits, (box.euler.theta_x, box.euler.theta_y, box.euler.theta_z)))
    score = None if box.score is None else float_bits(box.score)
    return rec.frame, (type(box.class_id), box.class_id), arrays, angles, score, rec.difficulty


def read_outcome(reader, path):
    try:
        return [record_bits(rec) for rec in reader(path)]
    except ParseError as exc:
        return str(exc)


class TestReadPose6d:
    @given(st.lists(valid_rows(), max_size=8), st.one_of(st.none(), st.sampled_from(BAD_ROWS)),
           st.integers(0, 8))
    def test_equals_per_record_oracle(self, tmp_path_factory, rows, bad, at):
        if bad is not None:
            rows.insert(min(at, len(rows)), bad)
        path = tmp_path_factory.mktemp("read") / "labels.jsonl"
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        assert read_outcome(read_pose6d, path) == read_outcome(oracles.read_pose6d_oracle, path)

    @pytest.mark.parametrize("bad", BAD_ROWS)
    def test_each_bad_row_after_good_ones(self, tmp_path, bad):
        path = tmp_path / "labels.jsonl"
        path.write_text(f"{json.dumps(GOOD)}\n{json.dumps(GOOD)}\n{bad}\n", encoding="utf-8")
        got = read_outcome(read_pose6d, path)
        assert got == read_outcome(oracles.read_pose6d_oracle, path)
        if isinstance(got, str):
            assert got.startswith(f"{path}:3: ")

    def test_records_are_rows_of_one_block(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(f"{json.dumps(GOOD)}\n\n{json.dumps(GOOD)}\n", encoding="utf-8")
        a, b = read_pose6d(path)
        assert a.box.center.base is b.box.dims.base is not None
        assert a.box.center.shape == a.box.dims.shape == (3,)


# ------------------------------------------------------------ label writer

SPECIAL = [-0.0, SUBNORMAL, -SUBNORMAL, 2.2250738585072014e-308 / 3, 1e16, -1e16, 0.1, 1.0 / 3.0]


def write_bytes(writer, records, path) -> bytes:
    writer(records, path)
    return path.read_bytes()


scores = st.one_of(st.none(), st.sampled_from([-0.0, 0.0, SUBNORMAL, SPECIAL[3], 1.0]),
                   st.floats(0.0, 1.0))
class_ids = st.one_of(st.sampled_from(sorted(DEFAULT_CLASS_IDS.values())), st.integers(-3, 100))


@st.composite
def records(draw) -> Pose6dRecord:
    box = FullPoseBox(np.array(draw(triple)), np.array(draw(st.lists(positive, min_size=3, max_size=3))),
                      EulerXYZ(*draw(triple)), class_id=draw(class_ids), score=draw(scores))
    return Pose6dRecord(draw(names), box, draw(st.sampled_from((None,) + DIFFICULTY_LABELS)))


class TestWritePose6d:
    @given(st.lists(records(), max_size=6))
    def test_equals_per_record_oracle(self, tmp_path_factory, recs):
        tmp = tmp_path_factory.mktemp("write")
        assert write_bytes(write_pose6d, recs, tmp / "a.jsonl") == \
            write_bytes(oracles.write_pose6d_oracle, recs, tmp / "b.jsonl")

    @given(st.lists(records(), max_size=8))
    def test_read_back_keeps_every_bit(self, tmp_path_factory, recs):
        path = tmp_path_factory.mktemp("round") / "labels.jsonl"
        write_pose6d(recs, path)
        written = [json.loads(line)["class"] for line in path.read_text(encoding="utf-8").splitlines()]
        assert written == [class_name_for(rec.box.class_id) for rec in recs]
        assert [record_bits(rec) for rec in read_pose6d(path)] == [record_bits(rec) for rec in recs]

    @given(st.lists(st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
                              st.integers(0, 255).map(np.uint8), st.booleans()), max_size=6))
    @example(ids=[-1, 2**63])  # numpy reads this list as float64
    @example(ids=[2**63, 1])   # and this one as uint64
    def test_reader_accepts_every_class_name_written(self, tmp_path_factory, ids):
        # a box holds only integer class ids, so each written name reads back
        recs = [Pose6dRecord("f", FullPoseBox(np.zeros(3), np.ones(3), class_id=k)) for k in ids]
        path = tmp_path_factory.mktemp("classes") / "labels.jsonl"
        write_pose6d(recs, path)
        assert [rec.box.class_id for rec in read_pose6d(path)] == [int(k) for k in ids]

    def test_special_values_and_names(self, tmp_path):
        recs = [
            Pose6dRecord("Bild_ü", FullPoseBox(np.array(SPECIAL[:3]), np.array(SPECIAL[1:2] + SPECIAL[3:5]),
                                               EulerXYZ(*SPECIAL[5:]), class_id=77, score=-0.0), "hard"),
            Pose6dRecord("000001", FullPoseBox(np.array([1e16, -0.0, SUBNORMAL]), np.ones(3),
                                               class_id=1, score=0.25)),
            Pose6dRecord("int_arrays", FullPoseBox(np.array([0, 1, 2]), [1, 2, 3],
                                                   EulerXYZ(*np.zeros(3, dtype=np.float32)),
                                                   class_id=np.int64(2), score=1), "easy"),
            Pose6dRecord("unscored", FullPoseBox(np.zeros(3), np.ones(3), class_id=1)),
        ]
        got = write_bytes(write_pose6d, recs, tmp_path / "a.jsonl")
        assert got == write_bytes(oracles.write_pose6d_oracle, recs, tmp_path / "b.jsonl")
        assert b"-0.0" in got and b"5e-324" in got and b"1e+16" in got and b"\\u00fc" in got
        lines = [json.loads(line) for line in got.decode().splitlines()]
        assert [obj["class"] for obj in lines] == ["class_77", "Car", "Pedestrian", "Car"]
        assert ["score" in obj for obj in lines] == [True, True, True, False]
        assert [record_bits(rec) for rec in read_pose6d(tmp_path / "a.jsonl")][:2] == \
            [record_bits(rec) for rec in recs[:2]]


# ------------------------------------------------------- infer-path round trip

def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def round_trip(path: Path, out: Path) -> bytes:
    """The benchmark's infer calls: read, to_box, from_box, write."""
    write_pose6d([Pose6dRecord.from_box(r.to_box(), r.frame, r.difficulty) for r in read_pose6d(path)],
                 out)
    return out.read_bytes()


def test_infer_path_round_trip_keeps_bytes(tmp_path):
    root = tmp_path / "synth"
    outcome_ = cli.run(["synth", "--scenes", "3", "--ramp-deg", "15", "--ramp-fraction", "1.0",
                        "--output", str(root), "--boxes", "6", "--seed", "11"])
    assert outcome_.exit_code == 0, outcome_.summary
    gen = _load_gen()
    gen.relabel_difficulty(root / "labels", 11)
    gen.write_proposals(root / "labels", tmp_path / "proposals", 8, 11)
    paths = sorted((root / "labels").glob("*.jsonl")) + sorted((tmp_path / "proposals").glob("*.jsonl"))
    assert len(paths) == 6
    tilted = 0
    for path in paths:
        assert round_trip(path, tmp_path / "out.jsonl") == path.read_bytes(), path
        tilted += sum(r.box.euler.theta_x != 0.0 or r.box.euler.theta_y != 0.0 for r in read_pose6d(path))
    assert tilted > 0
