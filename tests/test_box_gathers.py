"""Box fields are gathered into arrays in one place: ``geom.box_columns``.

An ``ast`` scan of the library finds every ``np.array``/``np.asarray`` call
given a comprehension that reads ``.center``, ``.dims``, ``.euler``,
``.class_id`` or ``.score`` of its loop variable.
"""

import ast
from pathlib import Path

import fullpose

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
