"""Tests of the benchmark itself: inputs, span arithmetic, hooks, metric names.

Run with `python3 -m pytest perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run  # noqa: E402
from probe import (  # noqa: E402
    MAX_PASSES,
    REFERENCE_S,
    big_kernel,
    passes_after,
    probe,
    run_at_reference,
)
from stats import percentile  # noqa: E402
from tracing import (  # noqa: E402
    HOOKS,
    LAYER_METRICS,
    ROOT,
    Hooks,
    HookTargetMissing,
    Tracer,
    covered,
    layer_metrics,
    self_times,
)
from workloads import WORKLOADS, generate  # noqa: E402

from mscsim.config import parse_config  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    first, again = generate(name, 5), generate(name, 5)
    assert (first.text, first.grid) == (again.text, again.grid)
    other = generate(name, 6)
    assert other.scenario_seed != first.scenario_seed
    assert parse_config(first.text).seed == first.scenario_seed


def test_workloads_do_not_share_scenario_seeds():
    seeds = {generate(name, 5).scenario_seed for name in WORKLOADS}
    assert len(seeds) == len(WORKLOADS)


def test_union_of_intervals():
    assert covered([]) == 0.0
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0
    assert covered([(2.0, 2.0), (5.0, 4.0)]) == 0.0


def test_self_time_of_nested_spans():
    #   0: root         [0, 10]
    #   1:   child      [1, 4]
    #   2:     grand    [2, 3]
    #   3:   child      [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_and_merges_children():
    # overlapping children count once; a child past the parent's end is
    # clipped to the parent
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 4.0, 6.0, 12.0]
    assert self_times(parent, start, end)[0] == 10.0 - 5.0 - 2.0


def test_traced_self_times_add_up_to_the_root():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(2000)))

    def middle():
        leaf()
        return leaf()

    middle = tracer.wrap("middle", middle)
    tracer.span(ROOT, lambda: [middle() for _ in range(3)])
    assert list(tracer.parent) == [-1, 0, 1, 1, 0, 4, 4, 0, 7, 7]
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    assert all(s >= 0 for s in selfs)
    root = tracer.end[0] - tracer.start[0]
    assert sum(selfs) == pytest.approx(root, rel=1e-9)


def test_traced_exception_closes_the_span_and_is_observed():
    tracer = Tracer()
    seen = []

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom,
                          lambda counts, args, result, exc: seen.append(exc))
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.current == -1 and tracer.end[0] >= tracer.start[0]
    assert isinstance(seen[0], KeyError)


def test_missing_hook_target_is_a_failure():
    bad = (("rlnc.ingest", "mscsim.ncc", "DecoderState.ingest_all", None),
           ("rlnc.encode", "mscsim.ncc", "encode_fast", None),
           ("x", "mscsim.no_such_module", "f", None))
    with pytest.raises(HookTargetMissing) as info:
        Hooks(Tracer(), bad)
    message = str(info.value)
    assert "ingest_all" in message and "encode_fast" in message
    assert "no_such_module" in message


def test_every_hook_resolves_and_remove_restores():
    import mscsim.ncc as ncc
    import mscsim.runner as runner

    before = (ncc.encode, ncc.DecoderState.__dict__["ingest"],
              runner.Generation.__dict__["random"], runner.run)
    hooks = Hooks(Tracer())
    assert len(hooks.patches) == len(HOOKS)
    hooks.install()
    try:
        assert ncc.encode is not before[0]
        assert isinstance(runner.Generation.__dict__["random"], classmethod)
    finally:
        hooks.remove()
    after = (ncc.encode, ncc.DecoderState.__dict__["ingest"],
             runner.Generation.__dict__["random"], runner.run)
    assert after == before


def test_layer_metrics_cover_every_layer_metric():
    tracer = Tracer()
    tracer.span(ROOT, lambda: None)
    metrics = layer_metrics(tracer, runs=1)
    assert set(metrics) == set(LAYER_METRICS) - {"trace.overhead_s"}


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_percentile_interpolates():
    assert percentile([], 50) == 0.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.0, 10.0], 95) == pytest.approx(9.5)


def test_run_at_reference_scales_each_segment_by_its_probes():
    # probes: before the run, after session 0, after session 1
    probes = [REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    sessions, wall = run_at_reference([1.0, 2.0], [1.5, 2.5, 0.5], probes)
    # both sessions sit between probes averaging 1.5x the reference
    assert sessions == pytest.approx([1.0 / 1.5, 2.0 / 1.5])
    # the tail after the last session is scaled by the last probe alone
    assert wall == pytest.approx(1.5 / 1.5 + 2.5 / 1.5 + 0.5)


def test_run_at_reference_needs_a_probe_around_every_segment():
    with pytest.raises(ValueError):
        run_at_reference([1.0, 2.0], [1.0, 2.0], [REFERENCE_S] * 3)


def test_session_medians_pair_sessions_by_position():
    runs = [[1.0, 10.0], [3.0, 30.0], [2.0, 20.0], [9.0]]
    # the short run is not the same workload run, so it is left out
    assert run.session_medians(runs) == [2.0, 20.0]
    assert run.session_medians([]) == []


def test_probe_passes_stay_small():
    assert passes_after(0.0) == 1
    assert passes_after(3600.0) == MAX_PASSES
    assert probe(2) > 0.0 and probe(2, big_kernel) > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coded-cell",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
