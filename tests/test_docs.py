from pathlib import Path

import pytest

import imbkit

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", imbkit.__all__)
def test_public_name_documented_in_readme(name):
    # code-quoted, so a name that is also an English word ("partition") is not found in prose
    assert f"`{name}" in README
