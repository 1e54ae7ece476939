import dataclasses
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import imbkit
from imbkit.cli import build_parser
from imbkit.config import RunConfig
from imbkit.harness import ExperimentReport, FoldResult

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
PROSE = FENCED.sub("", README)
CODE_SPANS = re.findall(r"`([^`]+)`", PROSE)
SUBMODULES = {info.name: importlib.import_module(f"imbkit.{info.name}")
              for info in pkgutil.iter_modules(imbkit.__path__)}
# the head of a dotted name that must resolve: the package, a submodule, or a class defined in one
HEADS = {"imbkit": imbkit, **SUBMODULES,
         **{name: obj for module in SUBMODULES.values() for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__}}
FETCH_FLAGS = {"--github-base"}  # scripts/fetch_datasets.py, not imbkit


def fenced(language: str) -> list:
    return [body for lang, body in FENCED.findall(README) if lang == language]


def section(title: str) -> str:
    assert f"\n## {title}\n" in README, f"README has no {title} section"
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("name", imbkit.__all__)
def test_public_name_documented_in_readme(name):
    # code-quoted, so a name that is also an English word ("partition") is not found in prose
    assert f"`{name}" in README


def resolves(dotted: str) -> bool:
    head, *rest = dotted.split(".")
    obj = HEADS[head]
    for part in rest:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            return part == rest[-1]  # a field with no class attribute, e.g. FoldResult.timings
        else:
            return False
    return True


def test_code_quoted_dotted_names_resolve():
    names = {m.group(0) for span in CODE_SPANS
             for m in re.finditer(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)}
    checked = {n for n in names if n.split(".")[0] in HEADS
               and not n.endswith((".py", ".json", ".csv"))}  # file names
    assert sorted(n for n in checked if not resolves(n)) == []
    assert "FoldResult.timings" in checked  # the pattern finds names in prose


def test_readme_flags_are_the_cli_options():
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices.values()
    options = {opt for command in commands for action in command._actions
               for opt in action.option_strings if opt.startswith("--")} - {"--help"}
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README)) - FETCH_FLAGS
    assert sorted(documented - options) == [], "README names flags the CLI does not have"
    assert sorted(options - documented) == [], "the CLI has flags README does not name"


def test_report_section_names_every_report_key():
    fold = FoldResult(repeat=0, fold=0, status="ok", metrics={"f1": 1.0}, mask=[1])
    doc = ExperimentReport(config=RunConfig(), folds=[fold], aggregate={"f1": {"mean": 1.0, "std": 0.0}},
                           overlap_ratios={}, warnings=[], partial=False).to_document()
    report = section("Report")
    missing = [key for key in [*doc, *doc["folds"][0]] if f"`{key}`" not in report]
    assert missing == []


def test_cli_examples_parse():
    (block,) = [body for body in fenced("bash") if "\nimbkit " in f"\n{body}"]
    lines = [line for line in block.splitlines() if line.startswith("imbkit ")]
    assert lines
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_python_example_runs(monkeypatch, capsys):
    (example,) = fenced("python")
    monkeypatch.chdir(ROOT)  # the example reads data/new-thyroid.csv
    exec(compile(example, "README.md", "exec"), {})
    assert "'mean'" in capsys.readouterr().out
