"""README guard: every module constant the README names as
`module.NAME` is defined there, so a constant that moves takes its
README row with it."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

CONSTANT = re.compile(r"`([a-z_]+)\.([A-Z][A-Z0-9_]*)`")


def unresolved_constants(text: str) -> list[str]:
    """The `module.NAME` mentions of text with no NAME in suspkit.module."""
    missing = []
    for module_name, name in CONSTANT.findall(text):
        try:
            module = importlib.import_module(f"suspkit.{module_name}")
        except ModuleNotFoundError:
            module = None
        if not hasattr(module, name):
            missing.append(f"{module_name}.{name}")
    return missing


def test_every_readme_constant_resolves():
    text = README.read_text(encoding="utf-8")
    assert CONSTANT.search(text)
    assert unresolved_constants(text) == []


def test_guard_catches_a_moved_constant():
    text = "| `cli.CLUSTER_SAMPLE_N`, `pipeline.CLUSTER_SAMPLE_N` | `nowhere.KEYWORDS` |"
    assert unresolved_constants(text) == ["pipeline.CLUSTER_SAMPLE_N", "nowhere.KEYWORDS"]
