"""Test-impact map: which test modules import each ``src/repro`` module.

A static map, built with the standard library's ``ast`` alone: every
``import`` statement of ``src/repro`` and ``tests`` is read (those inside
functions too, since a lazy import runs when its function does), and a
test module is mapped to every ``repro`` module it reaches through any
chain of imports, test helpers (``tests/helpers.py``, ``tests/oracles.py``,
...) included.  A test module that takes a fixture ``tests/conftest.py``
defines also reaches what ``conftest.py`` imports.

Python runs every enclosing package ``__init__`` on a submodule import,
so each one is mapped to every test that reaches a module inside it;
its own imports are followed only where an import names the package
(``from repro.live import settle``).  ``repro/__init__.py`` re-exports
the protocol registry, so following them on every submodule import
would map nearly every module to every test.  Imports by string
(``importlib``, a fresh ``python -m repro`` interpreter) are not
followed.

Run from the repository root::

    python benchmarks/test_impact.py                 # every module, its test count
    python benchmarks/test_impact.py src/repro/simul/engine.py repro.protocols.idrp

With arguments (source paths or dotted module names), it prints the test
modules that reach any of them, one path a line, ready for ``pytest``.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Dict, Iterable, List, Optional, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _modules_under(base: str, package: str) -> Dict[str, str]:
    """Dotted module name -> file path, for every ``.py`` under ``base``."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(os.path.join(base, package)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            parts = os.path.relpath(path, base)[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            found[".".join(parts)] = path
    return found


def source_modules() -> Dict[str, str]:
    """Every module of the program, ``repro`` and its packages included."""
    return _modules_under(SRC, "repro")


def suite_modules() -> Dict[str, str]:
    """Every module of the test suite (helpers and ``conftest`` too)."""
    return _modules_under(ROOT, "tests")


def _is_package(path: str) -> bool:
    return os.path.basename(path) == "__init__.py"


def _enclosing_packages(name: str) -> List[str]:
    """``a.b.c`` -> ``a``, ``a.b``."""
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts))]


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def direct_imports(name: str, path: str, tree: ast.Module, known: Set[str]) -> Set[str]:
    """The known modules one module's import statements name."""
    package = name if _is_package(path) else name.rpartition(".")[0]
    named: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                if node.module:
                    base.append(node.module)
                target = ".".join(base)
            else:
                target = node.module or ""
            named.add(target)
            # ``from package import name``: the name may be a submodule.
            named.update(f"{target}.{alias.name}" for alias in node.names)
    return {module for module in named if module in known and module != name}


def _conftest_fixtures(tree: ast.Module) -> Set[str]:
    fixtures = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(
            "fixture" in ast.unparse(decorator) for decorator in node.decorator_list
        ):
            fixtures.add(node.name)
    return fixtures


def _takes_any(tree: ast.Module, fixtures: Set[str]) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if names & fixtures:
                return True
    return False


def _is_test_file(path: str) -> bool:
    filename = os.path.basename(path)
    return filename.startswith("test_") and filename.endswith(".py")


def impact_map() -> Dict[str, List[str]]:
    """``repro`` module -> sorted repo-relative paths of the test modules
    that reach it; every module of ``src/repro`` is a key."""
    sources = source_modules()
    tests = suite_modules()
    modules = {**sources, **tests}
    known = set(modules)
    trees = {name: _parse(path) for name, path in modules.items()}
    edges = {
        name: direct_imports(name, path, trees[name], known)
        for name, path in modules.items()
    }
    conftest = "tests.conftest"
    fixtures = _conftest_fixtures(trees[conftest]) if conftest in tests else set()
    for name, path in tests.items():
        if _is_test_file(path) and fixtures and _takes_any(trees[name], fixtures):
            edges[name].add(conftest)

    reached: Dict[str, List[str]] = {name: [] for name in sorted(sources)}
    for name, path in sorted(tests.items()):
        if not _is_test_file(path):
            continue
        seen: Set[str] = set()
        stack = [name]
        while stack:
            for nxt in edges[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        # The enclosing packages ran too (their imports not followed).
        seen.update(
            package
            for module in list(seen)
            for package in _enclosing_packages(module)
        )
        relative = os.path.relpath(path, ROOT)
        for module in seen:
            if module in reached:
                reached[module].append(relative)
    return reached


def _module_name(arg: str, sources: Dict[str, str]) -> Optional[str]:
    if arg in sources:
        return arg
    wanted = os.path.abspath(arg)
    for name, path in sources.items():
        if os.path.abspath(path) == wanted:
            return name
    return None


def main(argv: Iterable[str]) -> int:
    sources = source_modules()
    wanted = []
    for arg in argv:
        module = _module_name(arg, sources)
        if module is None:
            print(f"test_impact: {arg} is no module of src/repro", file=sys.stderr)
            return 2
        wanted.append(module)
    mapping = impact_map()
    if not wanted:
        for module, tests in mapping.items():
            print(f"{module}: {len(tests)} test modules")
        return 0
    selected: Set[str] = set()
    for module in wanted:
        selected.update(mapping[module])
    for test in sorted(selected):
        print(test)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
