"""Every module of the package and of its tests uses the names it imports.

No linter is part of the project, so this is the check: each module is
parsed with ``ast`` and every name bound by an import must be read
somewhere in it.  ``pcurves/__init__.py`` is exempt, because it imports
names to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "pcurves").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source):
    """(line, name) of each name an import binds in ``source`` that no
    expression reads."""
    tree = ast.parse(source)
    imported = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\n\nprint(np.pi, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
