"""The package root exports exactly the names the README's Library section names."""
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
    assert sorted(names - set(schaake.__all__)) == []   # documented, not exported
    assert sorted(set(schaake.__all__) - names) == []   # exported, not documented
    assert all(hasattr(schaake, name) for name in schaake.__all__)


def test_only_panel_knows_the_csv_dialect():
    # one row walker and one writer: a second could read or write another dialect
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(schaake.__file__).parent.glob("*.py")}
    importers = sorted(name for name, text in sources.items()
                       if re.search(r"^\s*(import csv|from csv import)\b", text, re.M))
    assert importers == ["panel.py"]
    for call in ("csv.reader(", "csv.writer("):
        assert sum(text.count(call) for text in sources.values()) == 1


def test_no_module_imports_scipy_optimize():
    # one minimizer: every fitted filter searches through filters._search
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(schaake.__file__).parent.glob("*.py")}
    importers = sorted(name for name, text in sources.items() if re.search(
        r"\bscipy\.optimize\b|^\s*from\s+scipy\s+import\s+\(?[\w\s,]*\boptimize\b", text, re.M))
    assert len(sources) > 5 and importers == []


def test_the_scalar_reference_imports_nothing_from_schaake():
    # the oracle of tests/test_reference.py must not call the code it checks
    source = (Path(__file__).resolve().parent / "_reference.py").read_text(encoding="utf-8")
    imports = re.findall(r"^\s*(?:import|from)\s+([\w.]+)", source, re.M)
    assert imports and not [name for name in imports if name.split(".")[0] == "schaake"]
    assert "schaake" not in re.sub(r"#.*|\"\"\"[\s\S]*?\"\"\"", "", source)
