"""Run orchestration: record streams, determinism, sweeps, failure
handling. Small scenarios throughout; the full-scale checks live in
test_acceptance.py.
"""

import json
import os
import stat

import pytest

from mscsim import runner
from mscsim.config import ConfigError, default_scenario, parse_config
from mscsim.runner import RunResult, derive_subseed, expand_grid, run, sweep

BASE_FIELDS = {"schema", "run_id", "scenario_hash", "seed", "config", "type"}


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
        assert types[0] == "topology"
        assert types[1] == "km-summary"
        assert types.count("session") == 2
        assert types[-2] == "handover-summary"
        assert types[-1] == "run-summary"
        for record in result.records:
            assert BASE_FIELDS <= set(record)
            assert record["config"]["nodes.ue_count"] == 4
            assert record["seed"] == 3

    def test_topology_record_is_consistent(self):
        result = run(small_scenario())
        topo = result.records[0]
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
        assert calls == []


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
