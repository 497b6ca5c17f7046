"""The benchmark's command lines use flags the CLI accepts, and its calls resolve.

``perfbench/pipeline.py`` drives the pipeline through ``cli.run`` and
calls library functions for the per-frame infer; a deleted or renamed
flag, function or method would break the benchmark without failing any
library test.  The module is parsed with ``ast`` and never run.
"""

import argparse
import ast
import inspect
import typing
from pathlib import Path

import fullpose
from fullpose import cli

PIPELINE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "pipeline.py"


def subcommand_parsers() -> dict:
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def flags(elements, lists: dict) -> list[str]:
    """The ``--flag`` constants of a list literal, with ``*name`` lists expanded."""
    out = []
    for node in elements:
        if isinstance(node, ast.Starred) and isinstance(node.value, ast.Name):
            out += flags(lists[node.value.id], lists)
        elif isinstance(node, ast.Constant) and str(node.value).startswith("--"):
            out.append(node.value)
    return out


def pipeline_argvs() -> tuple[dict, list[str]]:
    """Flags per subcommand of every argv literal, and the flags ``_cli`` appends."""
    tree = ast.parse(PIPELINE_PATH.read_text(encoding="utf-8"))
    lists = {
        target.id: node.value.elts
        for node in ast.walk(tree) if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
        for target in node.targets if isinstance(target, ast.Name)
    }
    commands = subcommand_parsers()
    argvs: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in commands):
            argvs.setdefault(node.elts[0].value, []).extend(flags(node.elts[1:], lists))
    (run_cli,) = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_cli"]
    appended = [flag for node in ast.walk(run_cli) if isinstance(node, ast.List)
                for flag in flags(node.elts, lists)]
    return argvs, appended


def test_pipeline_flags_are_accepted():
    argvs, appended = pipeline_argvs()
    assert set(argvs) == {"synth", "augment", "train-head", "eval"}
    assert {"--boxes", "--density"} <= set(argvs["synth"])  # from ``*synth_args``
    assert appended == ["--config", "--jobs"]
    commands = subcommand_parsers()
    unknown = [f"{command} {flag}" for command, used in argvs.items()
               for flag in used + appended if flag not in commands[command]._option_string_actions]
    assert unknown == []



def dotted(node) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for anything but names and attributes."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute) and (head := dotted(node.value)) is not None:
        return head + [node.attr]
    return None


def resolve(root, path: list[str]):
    for name in path:
        root = getattr(root, name)
    return root


def reached_calls() -> list[tuple]:
    """Each call of a ``fullpose`` name in the pipeline: (dotted name, target, args, keywords).

    A name is rooted at a module imported from ``fullpose``, or at the
    loop variable of a comprehension over such a call, whose elements
    are the type its return annotation lists; the latter is named by
    that type, with the element passed first as ``self``.
    """
    tree = ast.parse(PIPELINE_PATH.read_text(encoding="utf-8"))
    roots = {alias.asname or alias.name: (alias.name, getattr(fullpose, alias.name))
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "fullpose"
             for alias in node.names}
    elements = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.comprehension) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Call) and (path := dotted(node.iter.func))
                and path[0] in roots):
            returns = typing.get_type_hints(resolve(roots[path[0]][1], path[1:]))["return"]
            (kind,) = typing.get_args(returns)
            elements[node.target.id] = (kind.__name__, kind)
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (path := dotted(node.func)) and len(path) > 1:
            if path[0] in roots:
                name, root = roots[path[0]]
                try:
                    target = resolve(root, path[1:])
                except AttributeError:
                    target = None
                args = node.args
            elif path[0] in elements:
                name, kind = elements[path[0]]
                target = getattr(kind, path[1], None) if len(path) == 2 else None
                args = [path[0]] + node.args
            else:
                continue
            calls.append((".".join([name] + path[1:]), target, args, [k.arg for k in node.keywords]))
    return calls


def test_pipeline_calls_resolve_and_bind():
    calls = reached_calls()
    assert {"dataio.read_pose6d", "dataio.Pose6dRecord.from_box", "Pose6dRecord.to_box",
            "dataio.write_pose6d", "head.load_head", "head.head_forward", "head.head_decode",
            "geom.nms", "cli.run"} <= {name for name, *_ in calls}
    unresolved = [name for name, target, _, _ in calls if not callable(target)]
    assert unresolved == []
    for _, target, args, keywords in calls:
        if not any(isinstance(a, ast.Starred) for a in args) and None not in keywords:
            inspect.signature(target).bind(*args, **dict.fromkeys(keywords))
