"""Run orchestration: record streams, determinism, sweeps, failure
handling. Small scenarios throughout; the full-scale checks live in
test_acceptance.py.
"""

import errno
import json
import os
import re
import stat
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import mscsim
from mscsim import runner
from mscsim.config import (
    ConfigError,
    apply_overrides,
    default_scenario,
    parse_config,
)
from mscsim.ncc import SessionMetrics, SlotRecord
from mscsim.runner import RunResult, derive_subseed, expand_grid, run, sweep

ID_FIELDS = {"schema", "run_id", "scenario_hash", "seed"}
SESSION_KEYS = ID_FIELDS | {"type", "index", "protocol"} | {
    f.name for f in fields(SessionMetrics) if f.name != "records"}


def small_scenario(seed=3, **overrides):
    defaults = dict(sessions=2, ue_count=4, generation_size=8,
                    payload_bytes=8, km_group="toy", km_shareholders=5,
                    km_threshold=2, km_requesters=1, ho_epochs=25,
                    base_stations=2, arena_width=300.0, arena_height=300.0)
    defaults.update(overrides)
    return default_scenario(seed, **defaults)


class TestRecordStream:
    def test_stream_shape_and_base_fields(self):
        result = run(small_scenario())
        assert result.exit_code == 0
        types = [r["type"] for r in result.records]
        assert types[:3] == ["header", "topology", "km-summary"]
        assert types.count("session") == 2
        assert types[-2] == "handover-summary"
        assert types[-1] == "run-summary"
        header = result.records[0]
        assert set(header) == {*ID_FIELDS, "type", "config"}
        assert header["schema"] == runner.SCHEMA_VERSION == 2
        assert header["config"]["nodes.ue_count"] == 4
        for record in result.records:
            assert {k: record[k] for k in ID_FIELDS} == \
                {k: header[k] for k in ID_FIELDS}
            assert record["seed"] == 3
        assert [r["type"] for r in result.records
                if "config" in r] == ["header"]
        # the handover totals are in handover-summary alone
        assert "handover" not in result.records[-1]

    def test_the_header_config_reproduces_the_run(self):
        result = run(small_scenario())
        config = result.records[0]["config"]
        again = apply_overrides(default_scenario(config["scenario.seed"]),
                                config)
        assert run(again).records == result.records

    def test_numpy_values_give_the_same_run_and_its_file(self, tmp_path):
        # a scenario holds each value as the Python number it stands for,
        # so its records are JSON like any other's
        plain = small_scenario()
        as_numpy = {int: np.int64, float: np.float64, str: np.str_}
        scenario = default_scenario(**{
            name: as_numpy[type(value)](value)
            for name, value in asdict(plain).items()})
        assert scenario == plain
        out = tmp_path / "numpy.jsonl"
        result = run(scenario, out_path=str(out))
        assert result.records == run(plain).records
        assert [json.loads(line) for line in
                out.read_text().splitlines()] == result.records

    def test_topology_record_is_consistent(self):
        result = run(small_scenario())
        topo = result.records[1]
        assert topo["head"] in topo["cell_members"]
        assert len(topo["cell_members"]) == 4
        assert topo["gateway"] in (1, 2)
        kinds = {row["kind"] for row in topo["snapshot"]}
        assert kinds == {"bs", "ue"}

    def test_session_records_feed_the_summary(self):
        result = run(small_scenario())
        sessions = [r for r in result.records if r["type"] == "session"]
        summary = result.records[-1]
        assert summary["sessions"] == len(sessions) == 2
        mean_util = sum(s["cellular_utilization"] for s in sessions) / 2
        assert summary["mean_cellular_utilization"] == pytest.approx(mean_util)
        assert summary["session_energy"] == pytest.approx(
            sum(s["energy"] for s in sessions))

    def test_single_member_cell_has_no_cooperation(self):
        result = run(small_scenario(ue_count=1, redundancy=1.0, ho_epochs=0))
        session = next(r for r in result.records if r["type"] == "session")
        assert session["cellular_utilization"] == 1.0
        assert session["short_range_tx"] == 0
        assert session["decoding_ratio"] == 1.0

    def test_unicast_protocol_runs_and_costs_more(self):
        ncc = run(small_scenario())
        uni = run(small_scenario(protocol="unicast"))
        assert uni.records[-1]["decoding_ratio"] == 1.0
        sessions = [r for r in uni.records if r["type"] == "session"]
        assert all(s["short_range_tx"] == 0 for s in sessions)
        assert uni.records[-1]["session_energy"] > \
            ncc.records[-1]["session_energy"]

    @pytest.mark.parametrize("protocol", ["ncc", "unicast"])
    def test_session_record_is_session_metrics(self, protocol):
        # every count goes out under its SessionMetrics field's own name
        result = run(small_scenario(protocol=protocol))
        sessions = [r for r in result.records if r["type"] == "session"]
        assert [r["index"] for r in sessions] == [0, 1]
        assert {r["protocol"] for r in sessions} == {protocol}
        for record in sessions:
            assert set(record) == SESSION_KEYS

    def test_readme_lists_the_session_record_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bullet = readme.split("\n* `session` - ", 1)[1].split("\n* `", 1)[0]
        first_sentence = re.split(r"\.\s", bullet, maxsplit=1)[0]
        assert set(re.findall(r"`([^`]+)`", first_sentence)) == \
            SESSION_KEYS - ID_FIELDS - {"type"}

    @pytest.mark.parametrize("protocol", ["ncc", "unicast"])
    def test_sessions_get_zero_width_views_of_full_draws(self, monkeypatch,
                                                         protocol):
        # a coded session first draws each generation at (g, payload_bytes),
        # which sets the coding stream's position; unicast reads no coding
        # stream and draws none. No session sees a payload column.
        draws, shapes = [], []
        draw = runner.Generation.random

        def spy_draw(gen_id, size, payload_len, rng):
            draws.append((size, payload_len))
            return draw(gen_id, size, payload_len, rng)

        session = {"ncc": "run_session",
                   "unicast": "baseline_unicast_session"}[protocol]
        real = getattr(runner, session)

        def spy_session(cloud, config, **kwargs):
            shapes.append([gen.payload.shape for gen in config.content])
            return real(cloud, config, **kwargs)

        monkeypatch.setattr(runner.Generation, "random", staticmethod(spy_draw))
        monkeypatch.setattr(runner, session, spy_session)
        result = run(small_scenario(sessions=3, generations=2,
                                    generation_size=5, payload_bytes=7,
                                    protocol=protocol))
        assert result.exit_code == 0, result.records[-1]
        assert draws == ([(5, 7)] * 6 if protocol == "ncc" else [])
        assert shapes == [[(5, 0), (5, 0)]] * 3

    @pytest.mark.parametrize("protocol", ["ncc", "unicast"])
    def test_one_session_config_serves_the_whole_run(self, monkeypatch,
                                                     protocol):
        built, passed = [], []
        real_config = runner.SessionConfig

        def spy_config(*args, **kwargs):
            built.append(real_config(*args, **kwargs))
            return built[-1]

        session = {"ncc": "run_session",
                   "unicast": "baseline_unicast_session"}[protocol]
        real = getattr(runner, session)

        def spy_session(cloud, config, **kwargs):
            passed.append(config)
            return real(cloud, config, **kwargs)

        monkeypatch.setattr(runner, "SessionConfig", spy_config)
        monkeypatch.setattr(runner, session, spy_session)
        scenario = small_scenario(sessions=3, protocol=protocol,
                                  cellular_energy=0.7, shortrange_energy=0.05)
        result = run(scenario)
        assert result.exit_code == 0, result.records[-1]
        assert len(built) == 1 and len(passed) == 3
        assert all(config is built[0] for config in passed)
        assert (built[0].cellular_energy, built[0].short_range_energy) == (
            0.7, 0.05)


class TestHandoverPhase:
    def test_side_by_side_procedures(self):
        result = run(small_scenario(ho_epochs=200))
        ho = next(r for r in result.records if r["type"] == "handover-summary")
        assert ho["epochs"] == 200
        assert ho["decisions_match"] is True
        assert ho["ul_rs"]["executed"] == ho["baseline"]["executed"]
        # one uplink broadcast per epoch; baseline adds one per execution
        assert ho["ul_rs"]["ue_tx"] == 200
        assert ho["baseline"]["ue_tx"] == 200 + ho["baseline"]["executed"]
        assert ho["ul_rs"]["energy"] < ho["baseline"]["energy"]

    def test_zero_epochs_yield_an_empty_summary(self):
        result = run(small_scenario(ho_epochs=0))
        ho = next(r for r in result.records if r["type"] == "handover-summary")
        assert ho["ul_rs"]["ue_tx"] == 0 and ho["baseline"]["ue_tx"] == 0

    @pytest.mark.parametrize("preset, loads", [("ambulance", False),
                                               ("ho-comparison", True)])
    def test_only_a_run_with_epochs_loads_decimal(self, preset, loads):
        # hypothesis imports decimal into this process: ask a fresh one
        code = ("import sys\n"
                "from mscsim.config import parse_config\n"
                "from mscsim.runner import run\n"
                f"text = '[scenario]\\npreset = {preset}\\nseed = 1\\n'\n"
                "assert run(parse_config(text)).exit_code == 0\n"
                "print('decimal' in sys.modules)\n")
        src = str(Path(mscsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == [str(loads)]


class TestDeterminism:
    def test_same_seed_byte_identical_files(self, tmp_path):
        scenario = small_scenario()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(scenario, out_path=str(a))
        run(scenario, out_path=str(b))
        assert a.read_bytes() == b.read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    def test_different_seed_changes_outcomes(self):
        a = run(small_scenario(seed=3)).records
        b = run(small_scenario(seed=4)).records
        assert [r["type"] for r in a] == [r["type"] for r in b]
        assert a != b

    def test_crypto_stream_does_not_touch_ncc_or_handover(self):
        scenario = small_scenario(km_requesters=3)
        keep = ("session", "handover-summary")
        a = [r for r in run(scenario).records if r["type"] in keep]
        b = [r for r in run(scenario, crypto_stream=9).records
             if r["type"] in keep]
        assert a == b

    def test_output_lines_are_sorted_json(self, tmp_path):
        out = tmp_path / "r.jsonl"
        run(small_scenario(), out_path=str(out))
        for line in out.read_text().splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)


class TestFailureHandling:
    def test_error_record_and_nonzero_exit(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("quorum fell apart")

        monkeypatch.setattr(runner, "_km_phase", boom)
        out = tmp_path / "fail.jsonl"
        result = run(small_scenario(), out_path=str(out))
        assert result.exit_code == 1
        last = result.records[-1]
        assert last["type"] == "error"
        assert last["error"] == "RuntimeError"
        assert "quorum" in last["message"]
        # the file is still complete and machine-readable
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[-1]["status"] == "error"
        assert not list(tmp_path.glob("*.tmp"))
        # and it still starts with the header that reproduces the run
        assert [r["type"] for r in lines] == ["header", "topology", "error"]
        assert lines[0]["config"]["scenario.seed"] == 3


class TestWriteRecords:
    def test_overlapping_writes_leave_one_complete_file(self, tmp_path):
        out = tmp_path / "out.jsonl"

        def first():
            # a second writer runs to completion while the first is
            # still writing its temp file
            yield {"writer": 1, "n": 0}
            runner.write_records([{"writer": 2, "n": 0}], str(out))
            yield {"writer": 1, "n": 1}

        runner.write_records(first(), str(out))
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines == [{"n": 0, "writer": 1}, {"n": 1, "writer": 1}]
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        out = tmp_path / "out.jsonl"
        runner.write_records([{"ok": True}], str(out))
        before = out.read_bytes()
        with pytest.raises(TypeError):
            runner.write_records([{"ok": True}, {"bad": object()}], str(out))
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_a_failed_step_after_the_open_names_the_output(
            self, tmp_path, monkeypatch, step):
        out = tmp_path / "out.jsonl"
        runner.write_records([{"ok": True}], str(out))
        before = out.read_bytes()

        def failing(*args):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, step, failing)
        with pytest.raises(OSError) as err:
            runner.write_records([{"ok": False}], str(out))
        assert (err.value.errno, err.value.filename) == (errno.EIO, str(out))
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_output_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "out.jsonl"
        old = os.umask(0o022)
        try:
            runner.write_records([{"ok": True}], str(out))
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_temp_file_is_fsynced_whole_before_the_rename(self, tmp_path,
                                                         monkeypatch):
        out = tmp_path / "out.jsonl"
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            if stat.S_ISDIR(st.st_mode):
                calls.append(("fsync-dir", st.st_ino))
            else:
                calls.append(("fsync", st.st_ino, st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            st = os.stat(src)
            calls.append(("replace", st.st_ino, st.st_size))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        runner.write_records([{"ok": True}, {"n": 2}], str(out))
        size = out.stat().st_size
        # the directory entry the rename wrote is made durable last
        assert calls == [("fsync", out.stat().st_ino, size),
                         ("replace", out.stat().st_ino, size),
                         ("fsync-dir", tmp_path.stat().st_ino)]


class TestSweep:
    def test_grid_points_annotate_records(self):
        scenario = small_scenario(ho_epochs=0, sessions=1,
                                  shortrange_loss=0.0, redundancy=1.0)
        result = sweep(scenario, {"nodes.ue_count": ["2", "4"]})
        assert result.exit_code == 0
        utils = {r["grid_point"]["nodes.ue_count"]: r["cellular_utilization"]
                 for r in result.records if r["type"] == "session"}
        assert utils == {2: 0.5, 4: 0.25}

    def test_each_point_starts_with_its_one_header(self):
        result = sweep(small_scenario(ho_epochs=0, sessions=1),
                       {"nodes.ue_count": ["2", "4"],
                        "ncc.redundancy": ["1.0", "1.5"]})
        assert result.exit_code == 0
        assert result.records[0]["type"] == "header"
        runs = []
        for record in result.records:
            if record["type"] == "header":
                runs.append([])
            runs[-1].append(record)
        # four points, each one run: its header, then its other records
        assert len({records[0]["run_id"] for records in runs}) == len(runs) == 4
        for header, *rest in runs:
            assert {r["run_id"] for r in rest} == {header["run_id"]}
            assert header["config"]["scenario.seed"] == header["seed"]
            assert all("config" not in r for r in rest)

    def test_each_point_gets_its_own_derived_seed(self):
        scenario = small_scenario(seed=5)
        points = expand_grid(scenario, {"ncc.redundancy": ["1.0", "1.5"]})
        seeds = [derived.seed for _, derived in points]
        assert len(set(seeds)) == 2
        assert seeds == [derive_subseed(5, {"ncc.redundancy": 1.0}),
                         derive_subseed(5, {"ncc.redundancy": 1.5})]
        # derivation is pure: same inputs, same sub-seed
        assert derive_subseed(5, {"ncc.redundancy": 1.0}) == \
            derive_subseed(5, {"ncc.redundancy": 1.0})

    def test_record_set_ignores_execution_order(self):
        scenario = small_scenario(ho_epochs=0, sessions=1)
        fwd = sweep(scenario, {"ncc.redundancy": ["1.0", "1.5"]})
        rev = sweep(scenario, {"ncc.redundancy": ["1.5", "1.0"]})
        canon = lambda recs: sorted(json.dumps(r, sort_keys=True)
                                    for r in recs)
        assert canon(fwd.records) == canon(rev.records)

    def test_two_axis_cartesian_product(self):
        scenario = small_scenario(ho_epochs=0, sessions=1)
        result = sweep(scenario, {"nodes.ue_count": ["2", "4"],
                                  "ncc.redundancy": ["1.0", "1.5"]})
        points = {(r["grid_point"]["nodes.ue_count"],
                   r["grid_point"]["ncc.redundancy"])
                  for r in result.records}
        assert points == {(2, 1.0), (2, 1.5), (4, 1.0), (4, 1.5)}

    def test_empty_grid_is_a_successful_noop(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        result = sweep(small_scenario(), {}, out_path=str(out))
        assert result.exit_code == 0
        assert result.records == []
        assert out.read_text() == ""

    def test_invalid_axis_fails_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "run",
                            lambda *a, **k: calls.append(1) or
                            RunResult([], 0))
        with pytest.raises(ConfigError, match="unknown key"):
            sweep(small_scenario(), {"ncc.redundancy": ["1.0"],
                                     "ncc.bogus": ["1"]})
        with pytest.raises(ConfigError, match="out of range"):
            sweep(small_scenario(), {"links.cellular_loss": ["0.5", "1.0"]})
        # every key is checked, even beside an axis with no values
        with pytest.raises(ConfigError, match="unknown key 'zzz.bad'"):
            sweep(small_scenario(), {"ncc.redundancy": [], "zzz.bad": ["1"]})
        with pytest.raises(ConfigError, match="unknown key 'no.such_key'"):
            sweep(small_scenario(), {"no.such_key": []})
        with pytest.raises(ConfigError, match="'ncc.redundancy' has no values"):
            sweep(small_scenario(), {"ncc.redundancy": [],
                                     "nodes.ue_count": ["2"]})
        # a point's seed is derived, so a seed axis would name seeds
        # that no point runs
        with pytest.raises(ConfigError, match="scenario.seed cannot be a "
                                              "grid axis.*--seed"):
            sweep(small_scenario(), {"ncc.redundancy": ["1.0"],
                                     "scenario.seed": ["1", "2"]})
        assert calls == []


SMALL_PRESET = """\
[scenario]
preset = {preset}
seed = 2
sessions = 2
[ncc]
generation_size = 8
phase_mode = {mode}
[links]
cellular_loss = 0.2
shortrange_loss = 0.2
"""


class TestSlotTrace:
    @pytest.mark.parametrize("preset, mode", [("ambulance", "sequential"),
                                              ("ambulance", "parallel"),
                                              ("baseline-unicast", "sequential")])
    def test_no_run_builds_a_slot_object(self, no_slot_records, tmp_path,
                                         preset, mode):
        scenario = parse_config(SMALL_PRESET.format(preset=preset, mode=mode))
        result = run(scenario)
        assert result.exit_code == 0, result.records[-1]
        assert [r["type"] for r in result.records].count("session") == 2
        # the stand-in does bite: asked for a trace, the run fails
        traced = run(scenario, trace_path=str(tmp_path / "trace.jsonl"))
        assert traced.exit_code == 1
        assert traced.records[-1]["error"] in ("AssertionError", "TypeError")

    @pytest.mark.parametrize("preset, mode", [("ambulance", "sequential"),
                                              ("ambulance", "parallel"),
                                              ("baseline-unicast", "sequential")])
    def test_trace_senders_are_the_gateway_and_the_cell(self, tmp_path,
                                                        preset, mode):
        # three stations, so the gateway is one station among several
        scenario = replace(
            parse_config(SMALL_PRESET.format(preset=preset, mode=mode)),
            base_stations=3)
        trace = tmp_path / "t.jsonl"
        result = run(scenario, trace_path=str(trace))
        assert result.exit_code == 0, result.records[-1]
        topology = next(r for r in result.records if r["type"] == "topology")
        gateway, members = topology["gateway"], set(topology["cell_members"])
        assert gateway in {n["node"] for n in topology["snapshot"]
                           if n["kind"] == "bs"}
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        phases = {line["phase"] for line in lines}
        assert phases == ({"cellular"} if preset == "baseline-unicast"
                          else {"cellular", "cooperative"})
        for line in lines:
            if line["phase"] == "cellular":
                assert line["sender"] == gateway
                assert set(line["receivers"]) <= members
            else:
                assert {line["sender"], *line["receivers"]} <= members

    def test_trace_lines_carry_the_run_ids_and_the_slot_fields(self, tmp_path):
        scenario = small_scenario(shortrange_loss=0.3)
        out, trace, plain = (tmp_path / n for n in ("r.jsonl", "t.jsonl",
                                                    "plain.jsonl"))
        result = run(scenario, out_path=str(out), trace_path=str(trace))
        run(scenario, out_path=str(plain))
        assert out.read_bytes() == plain.read_bytes()
        ids = {k: result.records[0][k]
               for k in ("schema", "run_id", "scenario_hash", "seed")}
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines
        for line in lines:
            assert set(line) == {*ids, "session", *SlotRecord._fields}
            assert {k: line[k] for k in ids} == ids


class TestPresetRuns:
    def test_km_bootstrap_preset_serves_three_requesters(self):
        scenario = parse_config("[scenario]\npreset = km-bootstrap\nseed = 5\n")
        result = run(scenario)
        assert result.exit_code == 0
        km = next(r for r in result.records if r["type"] == "km-summary")
        assert km["roster"] == 13
        assert km["threshold"] == 3
        assert km["certificates_verified"] == 3
        assert km["never_served"] <= 13


PLAIN_JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def _value_types(value):
    """The exact type of `value` and of everything nested in it."""
    yield type(value)
    if isinstance(value, dict):
        for item in value.values():
            yield from _value_types(item)
    elif isinstance(value, list):
        for item in value:
            yield from _value_types(item)


PRESETS = ("ambulance", "baseline-unicast", "ho-comparison", "km-bootstrap")


@pytest.mark.parametrize("case", [*PRESETS, "two-axis-sweep"])
def test_records_are_built_as_plain_json(case):
    # records go to `json.dumps` as built; np.float64 subclasses float
    # and survives the round trip, so only the exact types catch it
    if case in PRESETS:
        result = run(parse_config(f"[scenario]\npreset = {case}\nseed = 1\n"))
    else:
        result = sweep(small_scenario(), {"nodes.ue_count": ["2", "4"],
                                          "ncc.redundancy": ["1.0", "1.5"]})
    assert result.exit_code == 0 and result.records
    for record in result.records:
        assert set(_value_types(record)) <= set(PLAIN_JSON_TYPES), record
        assert json.loads(json.dumps(record)) == record
