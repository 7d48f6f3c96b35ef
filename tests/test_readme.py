"""README.md runs as written: each Python example prints the output block shown
after it, each ``dispersive-readout`` line exits 0, and every test table, test,
file and ``module.name`` of the package that the page names exists."""

import ast
import importlib
import pkgutil
import re
import shlex
import shutil
from pathlib import Path

import pytest

import dispersive_readout
from dispersive_readout.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```(\w*)[^\n]*\n(.*?)^```$", re.M | re.S)
BLOCKS = [(match.group(1), match.group(2)) for match in FENCED.finditer(README)]
# a JSON block that the line before it names, as in "`init.json`: ...:"
INPUT_FILES = dict(re.findall(r"^`([\w.-]+\.json)`:[^\n]*\n\n```json\n(.*?)^```$",
                              README, re.M | re.S))


EXAMPLES = [(code, BLOCKS[i + 1]) for i, (lang, code) in enumerate(BLOCKS)
            if lang == "python"]
# argv of each ``dispersive-readout`` line of the shell blocks, in order
COMMANDS = [argv[1:] for lang, body in BLOCKS if lang == "sh"
            for argv in (shlex.split(line, comments=True)
                         for line in body.replace("\\\n", " ").splitlines())
            if argv[:1] == ["dispersive-readout"]]


@pytest.mark.parametrize("code, shown", EXAMPLES,
                         ids=[f"example-{i}" for i in range(len(EXAMPLES))])
def test_example_prints_the_output_shown_after_it(capsys, code, shown):
    lang, output = shown
    assert lang == "text", "a Python example is followed by its output block"
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == output


def test_every_command_line_exits_0(tmp_path, monkeypatch, capsys):
    assert COMMANDS and INPUT_FILES
    (tmp_path / "configs").mkdir()
    shutil.copy(ROOT / "configs" / "default.json", tmp_path / "configs")
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        assert main(argv) == 0, f"dispersive-readout {shlex.join(argv)}: " + (
            capsys.readouterr().err)


def _suite_names():
    """The module-level names, classes and functions of every tests/*.py."""
    names = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= {node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        names |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)}
    return names


MODULES = {info.name for info in pkgutil.iter_modules(dispersive_readout.__path__)}
# inline code outside the fenced blocks, whitespace as markdown reads it
POINTERS = {" ".join(code.split()) for code in
            re.findall(r"`([^`]+)`", FENCED.sub("", README))}
TEST_NAME = re.compile(r"[A-Z][A-Z0-9_]{2,}|Test\w+|test_\w+")
PATH = re.compile(r"[\w.-]+(/[\w.-]+)+")
MODULE_NAME = re.compile(r"(\w+)\.(\w+)")


def test_every_pointer_resolves():
    suite = _suite_names()
    tests = {name for name in POINTERS if TEST_NAME.fullmatch(name)}
    paths = {name for name in POINTERS if PATH.fullmatch(name)}
    attributes = {match.groups() for name in POINTERS
                  if (match := MODULE_NAME.fullmatch(name)) and match.group(1) in MODULES}
    assert min(len(tests), len(paths), len(attributes)) >= 5
    missing = sorted(name for name in tests if name not in suite)
    missing += sorted(name for name in paths if not (ROOT / name).exists())
    missing += sorted(f"{module}.{name}" for module, name in attributes if not hasattr(
        importlib.import_module(f"dispersive_readout.{module}"), name))
    assert not missing, f"README names what does not exist: {missing}"
