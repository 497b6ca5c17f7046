"""Every config field is read somewhere in the library: no knob that nothing reads."""

import ast
import dataclasses
from pathlib import Path

import pytest

import fullpose
from fullpose.codec import CodecConfig
from fullpose.dataio import ToolkitConfig
from fullpose.evaluation import EvalConfig
from fullpose.head import HeadConfig
from fullpose.slopeaug import SlopeAugConfig

SOURCES = sorted(Path(fullpose.__file__).parent.glob("*.py"))


def _attributes_read_outside(class_name: str) -> set[str]:
    """Names read as ``x.name`` anywhere in the library but the body of ``class_name``."""
    reads = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {
            id(node)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == class_name
            for node in ast.walk(cls)
        }
        reads |= {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in own
        }
    return reads


@pytest.mark.parametrize("config", [ToolkitConfig, CodecConfig, SlopeAugConfig, EvalConfig,
                                    HeadConfig], ids=lambda cls: cls.__name__)
def test_every_config_field_is_read(config):
    reads = _attributes_read_outside(config.__name__)
    assert [f.name for f in dataclasses.fields(config) if f.name not in reads] == []
