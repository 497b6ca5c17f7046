"""The benchmark's command lines use flags the CLI accepts.

``perfbench/pipeline.py`` drives the pipeline through ``cli.run``; a
deleted or renamed flag would break the benchmark without failing any
library test.  The module is parsed with ``ast`` and never run.
"""

import argparse
import ast
from pathlib import Path

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

