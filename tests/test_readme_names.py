"""README.md names library code in backticks as ``layer.name`` or
``moelab.layer.name``, e.g. `model._exp` or `metrics.score(spec, ...)`.  A
renamed or deleted name would leave the README describing code that is
gone; this test fails instead, as tests/test_benchmark_names.py does for the
benchmark."""

import importlib
import pkgutil
import re
from pathlib import Path

import moelab

README = Path(__file__).resolve().parents[1] / "README.md"
LAYERS = sorted(module.name for module in pkgutil.iter_modules(moelab.__path__))
NAME = re.compile(r"`(?:moelab\.)?(%s)\.(\w+)[^`]*`" % "|".join(LAYERS))


def readme_names() -> set:
    """(layer, name) of every backticked span that starts with one."""
    return set(NAME.findall(README.read_text(encoding="utf-8")))


def test_readme_names_exist_in_their_layers():
    names = readme_names()
    assert {("model", "_exp"), ("em", "fit"), ("metrics", "score"), ("partition", "MASS_N_MC")} <= names
    missing = [f"{layer}.{name}" for layer, name in sorted(names)
               if not hasattr(importlib.import_module(f"moelab.{layer}"), name)]
    assert missing == []
