"""The public surface: exported names resolve and are used, and no
module keeps an import it never uses, and the README's method table is
the registry."""

import ast
import itertools
import re
from pathlib import Path

import pytest

import qronos

SRC = Path(qronos.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def test_every_exported_name_resolves():
    assert len(qronos.__all__) == len(set(qronos.__all__))
    for name in qronos.__all__:
        assert hasattr(qronos, name), name


def test_every_exported_name_is_used_by_the_cli_tests_or_readme():
    texts = [SRC / "cli.py", TESTS.parent / "README.md", *TESTS.rglob("*.py")]
    corpus = "\n".join(p.read_text() for p in texts)
    unused = [n for n in qronos.__all__ if not re.search(rf"\b{re.escape(n)}\b", corpus)]
    assert unused == []


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # a package re-exports what it lists in __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(SRC / module) == []


def test_readme_method_table_rows_are_the_methods_in_registry_order():
    text = (TESTS.parent / "README.md").read_text()
    lines = text.split("## Methods\n", 1)[1].lstrip("\n").splitlines()
    table = list(itertools.takewhile(lambda line: line.startswith("|"), lines))
    tokens = [re.match(r"\| `([^`]+)` \|", row).group(1) for row in table[2:]]
    assert tokens == [m.replace("_", "-") for m in qronos.METHODS]
