"""Box fields are gathered into arrays in one place: ``geom.box_columns``.

An ``ast`` scan of the library finds every ``np.array``/``np.asarray`` call
given a comprehension that reads ``.center``, ``.dims``, ``.euler``,
``.class_id`` or ``.score`` of its loop variable.  Call counts then check
that evaluation and feature synthesis gather each frame's boxes once and
hand the columns to every kernel.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import fullpose
from fullpose import codec, evaluation, geom, synth

SOURCES = sorted(Path(fullpose.__file__).parent.glob("*.py"))
BOX_FIELDS = {"center", "dims", "euler", "class_id", "score"}


def _gathers(tree: ast.AST) -> list[ast.Call]:
    """The ``np.array``/``np.asarray`` calls in ``tree`` that gather box fields."""
    found = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("array", "asarray")
                and isinstance(call.func.value, ast.Name) and call.func.value.id == "np"):
            continue
        for comp in call.args[:1]:
            if not isinstance(comp, (ast.ListComp, ast.GeneratorExp)):
                continue
            loop_vars = {n.id for gen in comp.generators for n in ast.walk(gen.target)
                         if isinstance(n, ast.Name)}
            if any(isinstance(n, ast.Attribute) and n.attr in BOX_FIELDS
                   and isinstance(n.value, ast.Name) and n.value.id in loop_vars
                   for n in ast.walk(comp)):
                found.append(call)
    return found


def _box_columns_nodes(tree: ast.AST) -> set[int]:
    return {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "box_columns"
            for node in ast.walk(fn)}


def test_only_box_columns_gathers_box_fields():
    outside, inside = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _box_columns_nodes(tree) if path.name == "geom.py" else set()
        for call in _gathers(tree):
            if id(call) in own:
                inside += 1
            else:
                outside.append(f"{path.name}:{call.lineno}")
    assert outside == []
    assert inside == 3  # centers, dims and euler: the scan sees its targets


def test_scan_finds_the_gathers_it_forbids():
    gathers = [
        "np.array([b.center for b in boxes])",
        "np.asarray([(b.euler.theta_x, b.euler.theta_y) for b in gts], dtype=float)",
        "np.array([b.center + b.rotation() @ (off * b.dims) for b, off in zip(boxes, offsets)])",
        "np.array(list(box.score for box in boxes))",
    ]
    assert [len(_gathers(ast.parse(src))) for src in gathers] == [1, 1, 1, 0]
    assert _gathers(ast.parse("np.array([s.center for s in boxes if s])"))
    assert not _gathers(ast.parse("np.array([box.center for b in boxes])"))


def _counted_gathers(monkeypatch) -> list[int]:
    """Count every ``box_columns`` call made through any ``fullpose`` module."""
    calls = []
    gather = geom.box_columns

    def counted(boxes):
        calls.append(len(boxes))
        return gather(boxes)

    for module in (fullpose, geom, codec, evaluation, synth):
        for name, value in list(vars(module).items()):
            if value is gather:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n_classes", [1, 2, 3])
@pytest.mark.parametrize("iou_threshold", [0.5, 0.7])
def test_evaluate_gathers_each_frame_once_per_side(monkeypatch, n_classes, iou_threshold):
    rng = np.random.default_rng(n_classes)

    def boxes(n, scored):
        return [geom.FullPoseBox(rng.uniform(-10, 10, 3), rng.uniform(1, 4, 3),
                                 geom.EulerXYZ(*rng.uniform(-0.3, 0.3, 3)),
                                 class_id=int(rng.integers(n_classes)),
                                 score=float(rng.uniform()) if scored else None)
                for _ in range(n)]

    gts = {f"{i:06d}": boxes(8, False) for i in range(4)}
    dets = {frame: boxes(10, True) for frame in list(gts)[:3]}  # the last frame has none
    calls = _counted_gathers(monkeypatch)
    report = evaluation.evaluate(dets, gts, evaluation.EvalConfig(iou_threshold=iou_threshold))
    assert len(report.rotated) == n_classes
    assert sorted(calls) == [0] + [8] * 4 + [10] * 3  # one det and one GT gather per frame


def test_make_features_gathers_its_frame_once(monkeypatch):
    spec = synth.SceneSpec(box_count=6, density=0.5)
    frame = synth.make_scene(spec, synth.frame_rng(5, 0))
    calls = _counted_gathers(monkeypatch)
    centers, _, targets = synth.make_features(frame, 0.0, synth.frame_rng(5, 1), bg_per_frame=12)
    assert targets.foreground.sum() >= 1 and len(centers) > 6
    assert calls == [6]
