"""The test dependencies that CI installs are the `test` extra of
pyproject.toml, pin for pin, and the console script that CI runs is the
CLI's entry point. Both files are read as text: CI's oldest Python,
3.10, has no tomllib, and the suite needs no YAML reader."""

import importlib
import re
from pathlib import Path

from multishare import cli

ROOT = Path(__file__).resolve().parent.parent


def ci_pins() -> list:
    """The requirements of the workflow's `pip install` step."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    installs = re.findall(r"^\s*run: pip install (.+)$", text, re.MULTILINE)
    assert len(installs) == 1, installs
    return sorted(installs[0].split())


def extra_pins() -> list:
    """The requirements of pyproject.toml's `test` extra."""
    text = (ROOT / "pyproject.toml").read_text()
    extras = re.findall(r"^test = \[(.*)\]$", text, re.MULTILINE)
    assert len(extras) == 1, extras
    return sorted(re.findall(r'"([^"]+)"', extras[0]))


def test_ci_installs_the_test_extra():
    assert ci_pins() == extra_pins()
    assert all(re.fullmatch(r"[a-z]+==[0-9.]+", pin) for pin in ci_pins())


def test_console_script_is_the_cli():
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", text,
                        re.MULTILINE)
    assert section, "no [project.scripts]"
    scripts = dict(re.findall(r'^(\S+) = "([^"]+)"$', section.group(1),
                              re.MULTILINE))
    assert list(scripts) == ["multishare"]
    module, _, name = scripts["multishare"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main
