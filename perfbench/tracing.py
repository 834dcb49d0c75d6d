"""Span tracing from outside the program, and the per-layer metrics.

Hooks replace public names at the point where their caller looks them
up (a module global such as `mscsim.ncc.encode`, or a class attribute
such as `DecoderState.ingest`), so the program itself is untouched. Each
call records one span: layer, start, end and parent. Spans stay in flat
arrays in memory; self time is computed once the run is over as the
span's duration minus the part of it that its child spans cover.

`gf256` has no public function on the hot path: `rlnc` indexes
`MUL_TABLE` directly, so GF(2^8) arithmetic shows up in `rlnc.*` self
time.
"""

from __future__ import annotations

import importlib
import inspect
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from stats import median

GF256_NOTE = ("gf256 has no public function on the hot path; rlnc indexes "
              "MUL_TABLE directly, so GF(2^8) cost is inside rlnc.* self time")

# The benchmark's own span around one workload run.
ROOT = "bench.run"
# Entry layers whose self time is the runner's own, not a deeper layer's.
RUNNER_LAYERS = frozenset({"runner.run", "runner.sweep"})


class HookTargetMissing(Exception):
    """A public name the benchmark wraps no longer exists."""


class Tracer:
    """Spans of one single-threaded process, in start order."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counts: dict[str, float] = defaultdict(float)

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def open(self, layer_id: int) -> tuple[int, int]:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self.current)
        self.start.append(0.0)
        self.end.append(0.0)
        parent, self.current = self.current, index
        return index, parent

    def close(self, index: int, parent: int, t0: float, t1: float) -> None:
        self.start[index] = t0
        self.end[index] = t1
        self.current = parent

    def wrap(self, layer: str, fn: Callable, observe=None) -> Callable:
        """`fn` with a span around each call; `observe(counts, args,
        result, exc)` runs after the span closes."""
        layer_id = self.layer_id(layer)
        counts = self.counts

        def traced(*args, **kwargs):
            index, parent = self.open(layer_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(index, parent, t0, perf_counter())
                if observe is not None:
                    observe(counts, args, None, exc)
                raise
            self.close(index, parent, t0, perf_counter())
            if observe is not None:
                observe(counts, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Call `fn` inside a span of the benchmark's own."""
        return self.wrap(layer, fn)(*args, **kwargs)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    run_start = run_end = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children are clipped to the parent's interval; grandchildren are
    already inside their own parent, so they are not subtracted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, p in enumerate(parent):
        if p >= 0:
            children[p].append(index)
    out = []
    for index in range(len(start)):
        lo, hi = start[index], end[index]
        kids = children.get(index)
        busy = 0.0
        if kids:
            busy = covered([(max(start[k], lo), min(end[k], hi)) for k in kids])
        out.append(hi - lo - busy)
    return out


# --- hooks ---------------------------------------------------------------

def _innovative(counts, args, result, exc):
    counts["ingest.innovative"] += bool(result)


def _delivered(counts, args, result, exc):
    counts["transmit.receivers"] += len(result)
    counts["transmit.delivered"] += sum(
        1 for d in result if d.status.name == "DELIVERED")


def _coop_slots(counts, result):
    for record in result.records:
        if record.phase == "cooperative":
            counts["coop.slots"] += 1
            counts["coop.skipped"] += record.skipped


def _ncc_session(counts, args, result, exc):
    counts["plan.packets"] += args[1].total_coded
    _coop_slots(counts, result)


def _unicast_session(counts, args, result, exc):
    _coop_slots(counts, result)


def _link_failure(counts, args, result, exc):
    counts["handover.calls"] += 1
    if exc is not None and type(exc).__name__ == "RadioLinkFailure":
        counts["handover.link_failures"] += 1


def _verified(counts, args, result, exc):
    counts["verify.ok"] += bool(result[0])


def _written(counts, args, result, exc):
    counts["write.bytes"] += os.path.getsize(args[1])


# (layer, module where the caller looks the name up, attribute path, observer)
HOOKS = (
    ("config.parse_config", "mscsim.config", "parse_config", None),
    ("config.apply_overrides", "mscsim.runner", "apply_overrides", None),
    ("runner.run", "mscsim.runner", "run", None),
    ("runner.sweep", "mscsim.runner", "sweep", None),
    ("runner.write_records", "mscsim.runner", "write_records", _written),
    ("topology.form_msc", "mscsim.runner", "form_msc", None),
    ("topology.step_mobility", "mscsim.runner", "step_mobility", None),
    ("handover.ul_rs_handover", "mscsim.runner", "ul_rs_handover", _link_failure),
    ("handover.baseline_handover", "mscsim.runner", "baseline_handover",
     _link_failure),
    ("keymgmt.group_2048", "mscsim.runner", "group_2048", None),
    ("keymgmt.bootstrap", "mscsim.runner", "KMService.bootstrap", None),
    ("keymgmt.request_credential", "mscsim.runner",
     "KMService.request_credential", None),
    ("keymgmt.self_generate_certificate", "mscsim.runner",
     "self_generate_certificate", None),
    ("keymgmt.verify_certificate", "mscsim.runner", "verify_certificate",
     _verified),
    ("ncc.session", "mscsim.runner", "run_session", _ncc_session),
    ("ncc.session", "mscsim.runner", "baseline_unicast_session",
     _unicast_session),
    ("ncc.cellular_phase", "mscsim.ncc", "cellular_phase", None),
    ("ncc.cooperative_phase", "mscsim.ncc", "cooperative_phase", None),
    ("ncc.draw_coeffs", "mscsim.ncc", "draw_coeffs", None),
    ("rlnc.generation_random", "mscsim.runner", "Generation.random", None),
    ("rlnc.encode", "mscsim.ncc", "encode", None),
    ("rlnc.ingest", "mscsim.ncc", "DecoderState.ingest", _innovative),
    ("rlnc.recode", "mscsim.ncc", "DecoderState.recode", None),
    ("engine.transmit", "mscsim.ncc", "Simulator.transmit", _delivered),
)


@dataclass
class _Patch:
    owner: object
    name: str
    original: object
    replacement: object


def resolve(module: str, path: str):
    """(owner, attribute name, raw attribute) for `module` + `path`,
    raising HookTargetMissing when any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise HookTargetMissing(f"{module}: {exc}") from None
    *outer, name = path.split(".")
    for part in outer:
        try:
            owner = inspect.getattr_static(owner, part)
        except AttributeError:
            raise HookTargetMissing(f"{module}.{path}: no {part!r}") from None
    try:
        raw = inspect.getattr_static(owner, name)
    except AttributeError:
        raise HookTargetMissing(f"{module}.{path}: no {name!r}") from None
    return owner, name, raw


class Hooks:
    """All HOOKS, resolved up front; install and remove as a pair."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.patches: list[_Patch] = []
        missing = []
        for layer, module, path, observe in hooks:
            try:
                owner, name, raw = resolve(module, path)
            except HookTargetMissing as exc:
                missing.append(str(exc))
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(tracer.wrap(layer, raw.__func__, observe))
            else:
                replacement = tracer.wrap(layer, raw, observe)
            self.patches.append(_Patch(owner, name, raw, replacement))
        if missing:
            raise HookTargetMissing("; ".join(missing))

    def install(self) -> None:
        for patch in self.patches:
            setattr(patch.owner, patch.name, patch.replacement)

    def remove(self) -> None:
        for patch in reversed(self.patches):
            setattr(patch.owner, patch.name, patch.original)


# --- per-layer metrics ----------------------------------------------------

# name -> unit; `.calls` and `.self_s` are per workload run, `_p50` and
# plain `.self_ms` are medians per call, ratios are useful / attempted.
LAYER_METRICS = {
    "rlnc.ingest.calls": "count",
    "rlnc.ingest.self_s": "s",
    "rlnc.ingest.self_us_p50": "us",
    "rlnc.ingest.innovative_ratio": "ratio",
    "rlnc.encode.calls": "count",
    "rlnc.encode.self_us_p50": "us",
    "rlnc.recode.calls": "count",
    "rlnc.recode.self_us_p50": "us",
    "rlnc.generation_random.self_us_p50": "us",
    "engine.transmit.calls": "count",
    "engine.transmit.self_us_p50": "us",
    "engine.transmit.self_s": "s",
    "engine.delivered_ratio": "ratio",
    "ncc.session.self_ms_p50": "ms",
    "ncc.cellular_phase.ms_p50": "ms",
    "ncc.cooperative_phase.ms_p50": "ms",
    "ncc.coop_skip_ratio": "ratio",
    "ncc.plan_redraw_ratio": "ratio",
    "keymgmt.bootstrap.self_ms": "ms",
    "keymgmt.request_credential.calls": "count",
    "keymgmt.request_credential.self_ms_p50": "ms",
    "keymgmt.self_generate_certificate.self_ms_p50": "ms",
    "keymgmt.verify_certificate.self_ms_p50": "ms",
    "keymgmt.verify_ratio": "ratio",
    "keymgmt.group_2048.first_s": "s",
    "handover.ul_rs_handover.self_us_p50": "us",
    "handover.baseline_handover.self_us_p50": "us",
    "handover.link_failure_ratio": "ratio",
    "topology.step_mobility.calls": "count",
    "topology.step_mobility.self_us_p50": "us",
    "topology.form_msc.self_ms": "ms",
    "config.parse_config.self_ms": "ms",
    "config.apply_overrides.calls": "count",
    "runner.run.self_ms": "ms",
    "runner.write_records.ms": "ms",
    "runner.write_records.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.layer_share": "ratio",
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, runs: int) -> dict[str, float]:
    """Every LAYER_METRICS entry except `trace.overhead_s`, which needs
    the untraced runs; `runs` is the number of traced workload runs."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    by_layer: dict[str, list[int]] = defaultdict(list)
    for index, layer_id in enumerate(tracer.layer):
        by_layer[tracer.layers[layer_id]].append(index)

    def calls(layer):
        return len(by_layer.get(layer, ())) / runs

    def self_of(layer):
        return [selfs[i] for i in by_layer.get(layer, ())]

    def durations(layer):
        return [tracer.end[i] - tracer.start[i] for i in by_layer.get(layer, ())]

    def first(layer):
        spans = by_layer.get(layer)
        return tracer.end[spans[0]] - tracer.start[spans[0]] if spans else 0.0

    counts = tracer.counts
    out = {}
    for name, unit in LAYER_METRICS.items():
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls(layer)
        elif stat == "self_s":
            out[name] = sum(self_of(layer)) / runs
        elif stat in ("self_us_p50", "self_ms_p50", "self_ms"):
            out[name] = median(self_of(layer)) * _SCALE[unit]
        elif stat in ("ms_p50", "ms"):
            out[name] = median(durations(layer)) * _SCALE[unit]
        elif stat == "first_s":
            out[name] = first(layer)
    out["rlnc.ingest.innovative_ratio"] = _ratio(
        counts["ingest.innovative"], len(by_layer.get("rlnc.ingest", ())))
    out["engine.delivered_ratio"] = _ratio(
        counts["transmit.delivered"], counts["transmit.receivers"])
    out["ncc.coop_skip_ratio"] = _ratio(counts["coop.skipped"],
                                        counts["coop.slots"])
    out["ncc.plan_redraw_ratio"] = _ratio(
        len(by_layer.get("ncc.draw_coeffs", ())), counts["plan.packets"])
    out["keymgmt.verify_ratio"] = _ratio(
        counts["verify.ok"], len(by_layer.get("keymgmt.verify_certificate", ())))
    out["handover.link_failure_ratio"] = _ratio(
        counts["handover.link_failures"], counts["handover.calls"])
    out["runner.write_records.bytes"] = _ratio(
        counts["write.bytes"], len(by_layer.get("runner.write_records", ())))
    out["trace.layer_share"] = layer_share(tracer, selfs)
    return out


def layer_share(tracer: Tracer, selfs: list[float]) -> float:
    """Share of the traced workload runs (ROOT spans) whose self time falls
    in a layer below the runner's entry points."""
    runner_ids = {i for i, name in enumerate(tracer.layers)
                  if name in RUNNER_LAYERS}
    root_id = tracer.layers.index(ROOT) if ROOT in tracer.layers else -1
    under_root = []
    total = attributed = 0.0
    for index, p in enumerate(tracer.parent):
        inside = under_root[p] if p >= 0 else tracer.layer[index] == root_id
        under_root.append(inside)
        if not inside:
            continue
        if tracer.layer[index] == root_id:
            total += tracer.end[index] - tracer.start[index]
        elif tracer.layer[index] not in runner_ids:
            attributed += selfs[index]
    return _ratio(attributed, total)
