"""Every name the benchmark's tracer wraps still exists.

`perfbench/tracing.py` replaces public names (a module global such as
`mscsim.ncc.encode`, or a class attribute such as
`Simulator.transmit`) by name, and `python3 perfbench/run.py` stops with
exit 3 when one of them is gone. Resolving each entry of its `HOOKS`
here turns a rename in the program into a failing test instead. Only
reads `perfbench/`.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    """Import `perfbench/tracing.py` without leaving `perfbench/` on
    sys.path or its modules (`stats`, `run`, ...) in sys.modules, where
    they would shadow same-named modules for the rest of the session."""
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))
        for name in set(sys.modules) - before:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if Path(origin).resolve().parent == BENCH:
                del sys.modules[name]


_tracing = _load_tracing()


@pytest.mark.parametrize("layer, module, path, observe", _tracing.HOOKS,
                         ids=[f"{module}.{path}" for _, module, path, _ in _tracing.HOOKS])
def test_hook_target_resolves(layer, module, path, observe):
    _, _, raw = _tracing.resolve(module, path)
    assert callable(raw) or isinstance(raw, (classmethod, staticmethod))


def test_loading_the_hooks_leaves_no_benchmark_module_importable():
    assert str(BENCH) not in sys.path
    assert "tracing" not in sys.modules and "stats" not in sys.modules
