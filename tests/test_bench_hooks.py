"""Every name the benchmark's tracer wraps still exists, and is called.

`perfbench/tracing.py` replaces public names (a module global such as
`mscsim.ncc.encode`, or a class attribute such as
`Simulator.transmit`) by name, and `python3 perfbench/run.py` stops with
exit 3 when one of them is gone. Resolving each entry of its `HOOKS`
here turns a rename in the program into a failing test instead. A
refactor can also keep a hooked name but stop calling it, which zeroes
that layer's metrics without any error; tiny traced runs catch that.
Only reads `perfbench/`.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from mscsim import runner
from mscsim.config import default_scenario, parse_config

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


# layers every coded session must reach, at least once per run
CODED_LAYERS = ("ncc.session", "ncc.cellular_phase", "ncc.cooperative_phase",
                "ncc.draw_coeffs", "rlnc.generation_random", "rlnc.encode",
                "rlnc.ingest", "rlnc.recode", "engine.transmit")


def _traced_spans(**overrides) -> tuple[Counter, list]:
    """`_traced_run` of a tiny scenario."""
    return _traced_run(default_scenario(
        5, sessions=2, ue_count=4, generation_size=8, payload_bytes=4,
        shortrange_loss=0.2, ho_epochs=0, km_group="toy", km_shareholders=3,
        km_threshold=2, km_requesters=1, **overrides))


def _traced_run(scenario) -> tuple[Counter, list]:
    """Span count per layer of one traced `runner.run`, and its records."""
    tracer = _tracing.Tracer()
    hooks = _tracing.Hooks(tracer)
    hooks.install()
    try:
        result = runner.run(scenario)
        assert result.exit_code == 0
    finally:
        hooks.remove()
    return Counter(tracer.layers[i] for i in tracer.layer), result.records


@pytest.mark.parametrize("phase_mode", ["sequential", "parallel"])
def test_coded_sessions_call_every_session_layer(phase_mode):
    spans, _ = _traced_spans(protocol="ncc", phase_mode=phase_mode)
    assert {layer: spans[layer] for layer in CODED_LAYERS if not spans[layer]} == {}
    assert spans["ncc.session"] == 2
    assert spans["ncc.cellular_phase"] == spans["ncc.cooperative_phase"] == 2


def test_unicast_sessions_run_no_decoder():
    # unicast draws its attempts in blocks, with no transmit call; that
    # each lossy attempt is one channel draw is checked in tests/test_ncc.py
    spans, records = _traced_spans(protocol="unicast", cellular_loss=0.3)
    slots = [r["completion_slots"] for r in records if r["type"] == "session"]
    assert spans["ncc.session"] == len(slots) == 2
    assert spans["engine.transmit"] == 0
    assert spans["rlnc.ingest"] == 0
    assert spans["rlnc.generation_random"] == 0   # no coding stream to move


HANDOVER_LAYERS = ("topology.step_mobility", "handover.ul_rs_handover",
                   "handover.baseline_handover")


@pytest.mark.parametrize("cellular_range", [1000.0, 1.0])
def test_every_handover_run_calls_the_hooked_names(cellular_range):
    # the phase calls each hooked pass once per run; a pass bound at
    # import time would run untraced. The 1 m range makes every epoch a
    # radio link failure, which must be traced too.
    spans, records = _traced_run(parse_config(
        "[scenario]\npreset = ho-comparison\nseed = 4\n"
        f"[links]\ncellular_range = {cellular_range}\n"
        "[handover]\nepochs = 7\n"))
    assert {layer: spans[layer] for layer in HANDOVER_LAYERS} == dict.fromkeys(
        HANDOVER_LAYERS, 1)
    summary = next(r for r in records if r["type"] == "handover-summary")
    assert summary["link_failures"] == (14 if cellular_range == 1.0 else 0)


def test_a_run_without_handover_epochs_calls_none_of_them():
    spans, _ = _traced_spans()
    assert {layer: spans[layer] for layer in HANDOVER_LAYERS} == dict.fromkeys(
        HANDOVER_LAYERS, 0)
