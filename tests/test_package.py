"""Package-wide properties of src/gridmcts."""
import ast
import sys
from pathlib import Path

import gridmcts

PACKAGE = Path(gridmcts.__file__).parent


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_imports_only_itself_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = set()
    for path in modules:
        for name in _absolute_imports(path):
            top = name.split(".")[0]
            assert top == "gridmcts" or top in sys.stdlib_module_names, (path.name, name)
            found.add(top)
    assert found - {"gridmcts"}
