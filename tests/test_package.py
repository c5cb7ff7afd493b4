"""The package root exports every name the README's Library section names."""
import re
from pathlib import Path

import schaake

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_names_are_exported():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    names = set(re.findall(r"`(\w+)`", library))
    for block in re.findall(r"from schaake import \(([^)]*)\)", library):
        names |= set(re.findall(r"\w+", block))
    assert len(names) > 10
    assert sorted(names - set(schaake.__all__)) == []
