"""No module-level name in `src/mscsim` may be dead.

A def, class or assignment at the top of a module is dead when nothing
reads it: no load of the name in its own module, and nowhere in the
source, the tests or the benchmark an attribute or an import of that
name, or a string constant that names it. Strings count because the
benchmark's hooks and the tests' monkeypatches name their targets as
strings ("KMService.bootstrap", "mscsim.ncc.SlotRecord"); a string names
each part of a dotted identifier, and prose names nothing. Dunder names
(`__version__`) are the language's, not the program's, and are left out.
"""

import ast
import re
from pathlib import Path

import mscsim

SRC = Path(mscsim.__file__).parent
REPO = SRC.parent.parent
READERS = (SRC, REPO / "tests", REPO / "perfbench")

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _targets(node: ast.expr):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _targets(element)


def _defined(tree: ast.Module):
    """(name, line) of each def, class and assignment in the module body."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield stmt.name, stmt.lineno
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for name in _targets(target):
                    yield name, stmt.lineno
        elif isinstance(stmt, ast.AnnAssign):
            for name in _targets(stmt.target):
                yield name, stmt.lineno


def _named(tree: ast.Module) -> set[str]:
    """Every name read as an attribute, imported, or named by a string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def _loaded(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def dead_names(root: Path = SRC, readers=READERS) -> list[str]:
    """`module.name:line` of each dead module-level name under `root`,
    read by the modules under `readers`."""
    named = set()
    for reader in readers:
        for path in sorted(reader.rglob("*.py")):
            named |= _named(_parse(path))
    dead = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        tree = _parse(path)
        loaded = _loaded(tree)
        for name, line in _defined(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in loaded and name not in named:
                dead.append(f"{module}.{name}:{line}")
    return dead


def test_no_module_level_name_is_dead():
    assert dead_names() == []


def test_the_scan_sees_each_way_of_reading_a_name(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "A = 1\n"               # loaded in its own module
        "B: int = A\n"          # dead
        "def f():\n"            # imported elsewhere
        "    pass\n"
        "class C:\n"            # an attribute elsewhere
        "    pass\n"
        "D, E = 1, 2\n"         # D named by a hook string, E only by prose
        "__all__ = []\n")       # the language's
    (tmp_path / "user.py").write_text(
        "from pkg.m import f\n"
        "import pkg.m as m\n"
        "m.C\n"
        "HOOK = 'm.D'\n"
        "NOTE = 'E is mentioned here, in prose'\n")
    assert dead_names(pkg, (tmp_path,)) == ["m.B:2", "m.E:7"]
