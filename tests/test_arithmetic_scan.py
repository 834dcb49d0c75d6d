"""No output may rest on a float function that IEEE 754 does not require
to be correctly rounded, unless it is listed here with its reason.

IEEE 754 requires correct rounding for +, -, *, / and sqrt, but only
recommends it for `log10`, `hypot` and the like, so libm and numpy may
differ there between platforms and releases. The scan walks the syntax
tree of every module under `src/mscsim` and finds each reference to a
watched function, a call or a bound name alike, through any import
alias. The allow-list may only shrink: an entry that matches nothing
fails too.
"""

import ast
from pathlib import Path

import mscsim

SRC = Path(mscsim.__file__).parent

WATCHED = {
    "math.log10", "math.log", "math.log2", "math.log1p", "math.exp",
    "math.pow", "math.hypot",
    "numpy.hypot", "numpy.log10", "numpy.log", "numpy.exp", "numpy.mean",
}

# (module, enclosing function, watched name) -> why it may stay
ALLOWED = {
    ("topology", "Node.distance_to", "math.hypot"):
        "election and cell membership; a sqrt form moves the digests",
    ("topology", "max_step_walk", "math.hypot"):
        "the mobility walk bound; a sqrt form moves the digests",
    ("topology", "step_mobility", "math.hypot"):
        "device positions; a sqrt form moves the digests",
    ("handover", "decide", "math.hypot"):
        "the head-to-station distance; positions already rest on hypot",
    ("runner", "_session_phase", "numpy.mean"):
        "the run summary's means; fsum moves the digests with schema 3",
}


def _aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted name, from the module's absolute imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:           # `import a.b` binds `a`
                    top = alias.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
    return names


def _dotted(node: ast.expr, aliases: dict[str, str]):
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return None if base is None else f"{base}.{node.attr}"
    return None


class _Scan(ast.NodeVisitor):
    def __init__(self, module: str, aliases: dict[str, str]):
        self.module, self.aliases = module, aliases
        self.scope: list[str] = []
        self.found: list[tuple[tuple[str, str, str], int]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _reference(self, node):
        name = _dotted(node, self.aliases)
        if name in WATCHED:
            key = (self.module, ".".join(self.scope), name)
            self.found.append((key, node.lineno))
        else:
            self.generic_visit(node)

    visit_Name = visit_Attribute = _reference


def scan(root: Path = SRC) -> list[tuple[tuple[str, str, str], int]]:
    """Every watched reference under `root`: ((module, function, name),
    line)."""
    found = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visitor = _Scan(module, _aliases(tree))
        visitor.visit(tree)
        found.extend(visitor.found)
    return found


def test_every_watched_call_is_allowed_with_a_reason():
    unlisted = [f"{key[0]}.py:{line} {key[2]} in {key[1] or '<module>'}"
                for key, line in scan() if key not in ALLOWED]
    assert unlisted == []


def test_every_allowed_entry_still_matches_a_reference():
    assert set(ALLOWED) - {key for key, _ in scan()} == set()


def test_the_scan_sees_through_aliases_and_bound_names(tmp_path):
    (tmp_path / "m.py").write_text(
        "import math\n"
        "import numpy as np\n"
        "from math import log10 as lg\n"
        "def f(x):\n"
        "    h = math.hypot\n"
        "    return lg(x) + h(x, x) + np.mean(x) + np.sqrt(x)\n"
        "class C:\n"
        "    def g(self):\n"
        "        return math.log(2.0)\n")
    assert sorted((key, line) for key, line in scan(tmp_path)) == [
        (("m", "C.g", "math.log"), 9),
        (("m", "f", "math.hypot"), 5),
        (("m", "f", "math.log10"), 6),
        (("m", "f", "numpy.mean"), 6),
    ]
