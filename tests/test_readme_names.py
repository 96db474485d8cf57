"""README.md names library code in backticks as ``layer.name`` or
``moelab.layer.name``, e.g. `model._exp` or `metrics.score(spec, ...)`, and
shows `moelab ...` commands in its sh blocks.  A renamed or deleted name or
flag would leave the README describing code that is gone; these tests fail
instead, as tests/test_benchmark_names.py does for the benchmark."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import moelab
from moelab.cli import build_parser

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


def readme_commands() -> list:
    """The arguments of every `moelab ...` command in README's sh blocks,
    continuation lines joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("moelab ")]


def test_readme_commands_cover_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == {
        "gen", "fit", "loss", "hellinger", "partition-check", "polysys", "sweep", "plot"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"moelab {shlex.join(argv)} does not parse (exit {exc.code})")
