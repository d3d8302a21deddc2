"""Every module of the package and of its tests uses the names it imports,
and every function of the package reads its parameters.

No linter is part of the project, so this is the check: each module is
parsed with ``ast`` and every name bound by an import must be read
somewhere in it.  ``pcurves/__init__.py`` is exempt, because it imports
names to re-export them.  A parameter of a package function or lambda
must be read in its body, except ``self``, ``cls`` and ``scenario``: query
handlers, ``Kind.parse`` and the scenario parsers all take the scenario,
whether they read it or not.
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
PACKAGE = sorted((ROOT / "src" / "pcurves").glob("*.py"))
#: parameters that may go unread
UNREAD_OK = {"self", "cls", "scenario"}


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


def unused_parameters(source):
    """(line, function, parameter) of each parameter of a function or lambda
    in ``source`` that its body never reads."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = UNREAD_OK | {
            name.id
            for statement in body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        unused += [
            (node.lineno, getattr(node, "name", "<lambda>"), param.arg)
            for param in params
            if param is not None and param.arg not in read
        ]
    return unused


def test_the_check_sees_an_unused_parameter():
    source = (
        "def f(self, a, b=1, *rest, c, **kw):\n"
        "    b = a\n"
        "    return kw\n"
        "\n"
        "g = lambda scenario, value, unused: value\n"
    )
    assert unused_parameters(source) == [
        (1, "f", "b"), (1, "f", "rest"), (1, "f", "c"), (5, "<lambda>", "unused"),
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []
