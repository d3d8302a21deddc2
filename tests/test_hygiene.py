"""Every module of the package and of its tests uses the names it imports,
every function of the package reads its parameters, and nothing of the
package is kept that no caller uses.

No linter is part of the project, so this is the check: each module is
parsed with ``ast`` and every name bound by an import must be read
somewhere in it.  ``pcurves/__init__.py`` is exempt, because it imports
names to re-export them.  A parameter of a package function or lambda
must be read in its body, except ``self``, ``cls`` and ``scenario``: query
handlers, ``Kind.parse`` and the scenario parsers all take the scenario,
whether they read it or not.

The uses of the package are read from the package, its tests and the
benchmark.  A defaulted parameter of a module-level package function must
be passed by some call of that name, by keyword, by position or through
``*``/``**`` (methods are left out: a constructor is called by its class's
name), and not by every one of them, or its default is never read.  Every
function and method of the package must be named somewhere, except
dunders and the query handlers, which the registry calls.  A query handler
that only passes its parameters, in order, to one function is the
function itself: the kind names it in ``register``.

Floating point enters the package in ``spectral.py`` and ``flow.py`` only;
the rest is exact arithmetic on what they hand back.  No other package
module imports ``numpy`` or ``cmath``, imports from ``math`` anything but
``gcd``, calls ``float()`` or holds a float literal.  The one exception is
``queries._jsonable``, which rounds the floats of a report for output.

No package module imports ``dataclasses`` or ``inspect``, or calls
``exec``, ``eval`` or ``compile``: ``records.py`` builds the record types
without generating code, which ``dataclasses`` did at every import.

No package module names ``as_strided``: a view with hand-set strides can
read outside its buffer with no error, while ``sliding_window_view``
builds the same views with their bounds checked.

No package module holds an ``assert`` statement: ``python -O`` drops them,
so an invariant raises ``ConsistencyError`` instead.
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


#: the trees whose calls and names count as uses of the package
READERS = sorted(
    p for tree in ("src/pcurves", "tests", "perfbench") for p in (ROOT / tree).glob("*.py")
)


def _calls(sources):
    """Each call in ``sources``, under the name it calls (``f`` of ``f()``
    and ``m.f()``)."""
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    yield name, node


def _passes(call, position, param):
    """Does ``call`` pass the parameter at ``position`` (None: keyword-only)?"""
    if any(kw.arg in (param, None) for kw in call.keywords):  # by keyword or **
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _defaulted_parameters(package, readers):
    """(function, parameter, the calls that pass it, all calls of the
    function) of each defaulted parameter of a module-level function of
    ``package``, over the calls in ``readers``."""
    calls = {}
    for name, call in _calls(readers):
        calls.setdefault(name, []).append(call)
    for source in package:
        for node in ast.parse(source).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            defaulted = [
                (len(positional) - len(args.defaults) + i, param)
                for i, param in enumerate(positional[len(positional) - len(args.defaults):])
            ] + [(None, p) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            every = calls.get(node.name, [])
            for position, param in defaulted:
                passing = [c for c in every if _passes(c, position, param.arg)]
                yield node.name, param.arg, passing, every


def never_passed_options(package, readers):
    """(function, parameter) of each defaulted parameter of a module-level
    function of ``package`` that no call in ``readers`` passes."""
    return [
        (name, param)
        for name, param, passing, _ in _defaulted_parameters(package, readers)
        if not passing
    ]


def always_passed_options(package, readers):
    """(function, parameter) of each defaulted parameter of a module-level
    function of ``package`` that every call in ``readers`` passes: its
    default is never read, so the parameter is a required one."""
    return [
        (name, param)
        for name, param, passing, every in _defaulted_parameters(package, readers)
        if every and len(passing) == len(every)
    ]


def test_the_check_sees_a_never_passed_option():
    package = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a, b, c, d, e\n"
        "\n"
        "def g(a, b=1):\n"
        "    return a, b\n"
        "\n"
        "def h(x=0):\n"
        "    return x\n"
        "\n"
        "class K:\n"
        "    def m(self, y=0):\n"
        "        return y\n"
    )
    readers = [package, "f(0, 1, e=5)\nm.g(*args)\nh(**options)\n"]
    assert never_passed_options([package], readers) == [("f", "c"), ("f", "d")]


def test_no_never_passed_options():
    readers = [p.read_text() for p in READERS]
    assert never_passed_options([p.read_text() for p in PACKAGE], readers) == []


def test_the_check_sees_an_always_passed_option():
    package = (
        "def f(a, b=1, c=2, *, d=3):\n"
        "    return a, b, c, d\n"
        "\n"
        "def g(a, b=1):\n"
        "    return a, b\n"
        "\n"
        "def h(x=0):\n"
        "    return x\n"
    )
    readers = [package, "f(0, 1, d=5)\nf(0, b=2, c=3, d=4)\nm.g(*args)\n"]
    assert always_passed_options([package], readers) == [("f", "b"), ("f", "d"), ("g", "b")]


def test_no_always_passed_options():
    readers = [p.read_text() for p in READERS]
    assert always_passed_options([p.read_text() for p in PACKAGE], readers) == []


def _is_query_handler(node):
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "register"
        for d in node.decorator_list
    )


def never_named_functions(package, readers):
    """(line, name) of each function or method of ``package`` whose name no
    expression of ``readers`` reads, dunders and query handlers aside."""
    read = {
        getattr(node, "id", None) or node.attr
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return [
        (node.lineno, node.name)
        for source in package
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and node.name not in read
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not _is_query_handler(node)
    ]


def test_the_check_sees_a_never_named_function():
    package = (
        "@REGISTRY.register('kind', 'formula')\n"
        "def _q_kind(scenario):\n"
        "    return helper()\n"
        "\n"
        "def helper():\n"
        "    return 0\n"
        "\n"
        "def orphan():\n"
        "    return 1\n"
        "\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.used = 0\n"
        "\n"
        "    def method(self):\n"
        "        return self.used\n"
        "\n"
        "    def lonely(self):\n"
        "        return 2\n"
    )
    readers = [package, "C().method()\n"]
    assert never_named_functions([package], readers) == [(8, "orphan"), (18, "lonely")]


def test_no_never_named_functions():
    readers = [p.read_text() for p in READERS]
    assert never_named_functions([p.read_text() for p in PACKAGE], readers) == []


def forwarding_handlers(source):
    """(line, name) of each query handler in ``source`` whose body is one
    ``return f(p1, ..., pn)`` over its own parameters but ``scenario``, in
    order: its kind should name ``f`` instead."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef) or not _is_query_handler(node):
            continue
        params = [a.arg for a in node.args.args if a.arg != "scenario"]
        body = node.body
        if len(body) == 1 and isinstance(body[0], ast.Return):
            call = body[0].value
            if (
                isinstance(call, ast.Call)
                and not call.keywords
                and [getattr(a, "id", None) for a in call.args] == params
            ):
                found.append((node.lineno, node.name))
    return found


def test_the_check_sees_a_forwarding_handler():
    source = (
        "@REGISTRY.register('a', 'formula', x=INT, y=INT)\n"
        "def _q_a(scenario, x, y):\n"
        "    return lib.f(x, y)\n"
        "\n"
        "@REGISTRY.register('b', 'formula', x=INT, y=INT)\n"
        "def _q_b(scenario, x, y):\n"
        "    return lib.f(y, x)\n"
        "\n"
        "@REGISTRY.register('c', 'formula', x=INT)\n"
        "def _q_c(scenario, x):\n"
        "    return f(x, scenario.j_mode)\n"
        "\n"
        "@REGISTRY.register('d', 'formula', x=INT)\n"
        "def _q_d(scenario, x):\n"
        "    return f(x.cover)\n"
        "\n"
        "@REGISTRY.register('e', 'formula', x=INT)\n"
        "def _q_e(scenario, x):\n"
        "    return f(x, limit=x)\n"
        "\n"
        "def helper(x):\n"
        "    return f(x)\n"
        "\n"
        "@REGISTRY.register('g', 'formula', x=INT)\n"
        "def _q_g(scenario, x):\n"
        "    y = f(x)\n"
        "    return y\n"
        "\n"
        "@REGISTRY.register('h', 'formula')\n"
        "def _q_h(scenario):\n"
        "    return lib.constant()\n"
    )
    assert forwarding_handlers(source) == [(2, "_q_a"), (30, "_q_h")]


def test_no_forwarding_handlers():
    assert [(p.name, *f) for p in PACKAGE for f in forwarding_handlers(p.read_text())] == []


#: the package modules where floating point enters
FLOATING = {"spectral.py", "flow.py"}
#: per package module, the functions that may call float()
FLOAT_CALLS_OK = {"queries.py": ("_jsonable",)}


def fence_breaches(source, exempt):
    """(line, what) of each way floating point enters ``source``: an import
    of numpy or cmath, or of anything from math but gcd; a float() call
    outside the functions named in ``exempt``; a float or complex literal."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in exempt
        for node in ast.walk(func)
    }
    breaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            breaches += [
                (node.lineno, f"import {alias.name}")
                for alias in node.names
                if alias.name.split(".")[0] in ("numpy", "cmath", "math")
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root, names = node.module.split(".")[0], [alias.name for alias in node.names]
            if root in ("numpy", "cmath") or (root == "math" and names != ["gcd"]):
                breaches.append((node.lineno, f"from {node.module} import {', '.join(names)}"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            if id(node) not in allowed:
                breaches.append((node.lineno, "float()"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            breaches.append((node.lineno, repr(node.value)))
    return sorted(breaches)


def test_the_check_sees_floating_point():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from cmath import phase\n"
        "from math import gcd\n"
        "from math import floor, gcd\n"
        "from .spectral import SIDE_MINUS\n"
        "x = float(1) + 10 ** 9\n"
        "y = 1e-8 + 2j\n"
        "\n"
        "def fmt(v):\n"
        "    return float(v)\n"
    )
    assert fence_breaches(source, ("fmt",)) == [
        (1, "import math"), (2, "import numpy"), (3, "from cmath import phase"),
        (5, "from math import floor, gcd"), (7, "float()"), (8, "1e-08"), (8, "2j"),
    ]
    assert (11, "float()") in fence_breaches(source, ())


EXACT = [p for p in PACKAGE if p.name not in FLOATING]


@pytest.mark.parametrize("path", EXACT, ids=[str(p.relative_to(ROOT)) for p in EXACT])
def test_floating_point_stays_in_the_oracle_modules(path):
    assert fence_breaches(path.read_text(), FLOAT_CALLS_OK.get(path.name, ())) == []


#: modules that generate code, with the standard modules they load: the
#: package builds its records without them, so they cost it no import time
CODE_GENERATORS = ("dataclasses", "inspect")
#: builtins that compile source at run time
COMPILERS = ("exec", "eval", "compile")


def generated_code(source):
    """(line, what) of each import of ``dataclasses`` or ``inspect`` in
    ``source``, and each call of ``exec``, ``eval`` or ``compile``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                (node.lineno, f"import {alias.name}")
                for alias in node.names
                if alias.name.split(".")[0] in CODE_GENERATORS
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in CODE_GENERATORS:
                found.append((node.lineno, f"from {node.module}"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in COMPILERS:
            found.append((node.lineno, f"{node.func.id}()"))
    return sorted(found)


def test_the_check_sees_generated_code():
    source = (
        "import dataclasses\n"
        "import os, inspect as ins\n"
        "from .records import record, replace\n"
        "import re\n"
        "\n"
        "def f(src):\n"
        "    from dataclasses import replace\n"
        "    pattern = re.compile(src)\n"
        "    return exec(src), eval(src), compile(src, '', 'exec'), pattern\n"
    )
    assert generated_code(source) == [
        (1, "import dataclasses"), (2, "import inspect"), (7, "from dataclasses"),
        (9, "compile()"), (9, "eval()"), (9, "exec()"),
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_the_package_generates_no_code(path):
    assert generated_code(path.read_text()) == []


def hand_strided_views(source):
    """(line, what) of each import, name or attribute ``as_strided`` in
    ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [
                (node.lineno, f"import {alias.name}")
                for alias in node.names
                if alias.name.split(".")[-1] == "as_strided"
            ]
        elif isinstance(node, ast.Name) and node.id == "as_strided":
            found.append((node.lineno, "as_strided"))
        elif isinstance(node, ast.Attribute) and node.attr == "as_strided":
            found.append((node.lineno, ".as_strided"))
    return sorted(found)


def test_the_check_sees_hand_strided_views():
    source = (
        "import numpy as np\n"
        "from numpy.lib.stride_tricks import as_strided, sliding_window_view\n"
        "from numpy.lib import stride_tricks as st\n"
        "\n"
        "def f(x):\n"
        "    view = sliding_window_view(x, 3)\n"
        "    return as_strided(x, (2,), (8,)), st.as_strided(x), view\n"
        "\n"
        "g = np.lib.stride_tricks.as_strided\n"
    )
    assert hand_strided_views(source) == [
        (2, "import as_strided"), (7, ".as_strided"), (7, "as_strided"), (9, ".as_strided"),
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_the_package_builds_no_hand_strided_views(path):
    assert hand_strided_views(path.read_text()) == []


def assert_statements(source):
    """The line of each ``assert`` statement in ``source``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)
    )


def test_the_check_sees_assert_statements():
    source = (
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    if x:\n"
        "        assert_ok = x\n"
        "        assert x\n"
        "    return self.assertEqual(x, 1)\n"
    )
    assert assert_statements(source) == [2, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_the_package_holds_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []
