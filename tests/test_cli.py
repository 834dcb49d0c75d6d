"""Command-line verbs, exit codes, and output placement."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mscsim
from mscsim import runner
from mscsim.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from mscsim.config import (
    PRESETS,
    apply_overrides,
    default_scenario,
    parse_config,
    preset_settings,
)

AMBULANCE = "[scenario]\npreset = ambulance\nseed = 7\n"
SMALL = """\
[scenario]
seed = 3
sessions = 1
[nodes]
ue_count = 2
base_stations = 1
[ncc]
generation_size = 4
payload_bytes = 4
[km]
group = toy
shareholders = 3
threshold = 2
requesters = 0
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MSCSIM_OUT_DIR", raising=False)
    return tmp_path


def write(workdir, name, text):
    path = workdir / name
    path.write_text(text)
    return str(path)


class TestRunVerb:
    def test_run_writes_default_named_output(self, workdir, capsys):
        cfg = write(workdir, "small.cfg", SMALL)
        assert main(["run", cfg]) == EXIT_OK
        out = workdir / "small-metrics.jsonl"
        assert out.exists()
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert records[-1]["type"] == "run-summary"
        stdout = capsys.readouterr().out
        assert "sessions=1" in stdout and "records" in stdout

    def test_seed_flag_supplies_the_seed(self, workdir):
        cfg = write(workdir, "ns.cfg", "[scenario]\nsessions = 0\n")
        assert main(["run", cfg]) == EXIT_BAD_CONFIG
        assert main(["run", cfg, "--seed", "4"]) == EXIT_OK
        records = [json.loads(l)
                   for l in (workdir / "ns-metrics.jsonl").read_text().splitlines()]
        assert all(r["seed"] == 4 for r in records)

    def test_a_seed_flag_is_checked_like_the_file_seed(self, workdir,
                                                      capsys):
        cfg = write(workdir, "ns.cfg", "[scenario]\nsessions = 0\n")
        for verb in ("run", "sweep"):
            for seed, message in (("x", "scenario.seed: cannot parse 'x'"),
                                  ("-1", "scenario.seed = -1 out of range")):
                assert main([verb, cfg, "--seed", seed]) == EXIT_BAD_CONFIG
                assert f"config error: {message}" in capsys.readouterr().err
        assert not list(workdir.glob("*.jsonl"))

    def test_explicit_out_path(self, workdir):
        cfg = write(workdir, "s.cfg", SMALL)
        assert main(["run", cfg, "--out", "custom.jsonl"]) == EXIT_OK
        assert (workdir / "custom.jsonl").exists()

    def test_env_var_redirects_default_output_dir(self, workdir, monkeypatch):
        box = workdir / "box"
        box.mkdir()
        monkeypatch.setenv("MSCSIM_OUT_DIR", str(box))
        cfg = write(workdir, "s.cfg", SMALL)
        assert main(["run", cfg]) == EXIT_OK
        assert (box / "s-metrics.jsonl").exists()
        assert not (workdir / "s-metrics.jsonl").exists()

    def test_output_directory_is_created_when_missing(self, workdir,
                                                      monkeypatch):
        monkeypatch.setenv("MSCSIM_OUT_DIR", str(workdir / "not" / "yet"))
        cfg = write(workdir, "s.cfg", SMALL)
        assert main(["run", cfg]) == EXIT_OK
        assert (workdir / "not" / "yet" / "s-metrics.jsonl").exists()
        assert main(["run", cfg, "--out",
                     str(workdir / "deep" / "run.jsonl")]) == EXIT_OK
        assert (workdir / "deep" / "run.jsonl").exists()

    def test_bad_config_reports_location(self, workdir, capsys):
        cfg = write(workdir, "bad.cfg",
                    "[scenario]\nseed = 1\n[links]\ncellular_loss = 1.0\n")
        assert main(["run", cfg]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "line 4" in err

    def test_missing_file(self, workdir, capsys):
        assert main(["run", "nowhere.cfg"]) == EXIT_BAD_CONFIG
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "run", "sweep"])
    def test_a_file_that_is_not_utf8_names_the_line(self, workdir, capsys,
                                                    verb):
        # a Latin-1 e-acute in a comment on line 4
        path = workdir / "latin1.cfg"
        path.write_bytes(SMALL.replace("[nodes]", "# caf\xe9\n[nodes]")
                         .encode("latin-1"))
        assert main([verb, str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "line 4" in err and "UTF-8" in err
        assert "Traceback" not in err

    def test_a_byte_order_mark_is_not_part_of_the_scenario(self, workdir,
                                                           capsys):
        # some Windows editors start a UTF-8 file with U+FEFF
        plain = write(workdir, "plain.cfg", AMBULANCE)
        marked = workdir / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + AMBULANCE.encode())
        assert main(["validate", plain]) == EXIT_OK
        want = capsys.readouterr().out.split()[1]
        assert main(["validate", str(marked)]) == EXIT_OK
        assert capsys.readouterr().out.split()[1] == want
        assert main(["run", str(marked)]) == EXIT_OK
        records = [json.loads(l) for l in
                   (workdir / "marked-metrics.jsonl").read_text().splitlines()]
        assert records[0]["scenario_hash"] == want
        assert records[-1]["type"] == "run-summary"
        # a decode error after the mark still names its line
        latin1 = workdir / "latin1.cfg"
        latin1.write_bytes(b"\xef\xbb\xbf" + SMALL.replace(
            "[nodes]", "# caf\xe9\n[nodes]").encode("latin-1"))
        assert main(["validate", str(latin1)]) == EXIT_BAD_CONFIG
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--out", "afile/out.jsonl"],
        ["run", "--trace", "afile/trace.jsonl"],
        ["sweep", "--grid", "nodes.ue_count=2", "--out", "afile/sw.jsonl"],
    ], ids=["run-out", "run-trace", "sweep-out"])
    def test_an_unwritable_output_path_is_reported(self, workdir, capsys,
                                                   argv):
        # a regular file where a directory would have to be
        (workdir / "afile").write_text("")
        cfg = write(workdir, "s.cfg", SMALL)
        assert main([argv[0], cfg, *argv[1:]]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {argv[-1]}: ")
        assert "Traceback" not in err


    @pytest.mark.parametrize("argv", [
        ["run", "--trace", "afile/trace.jsonl"],
        ["run", "--out", "afile/out.jsonl", "--trace", "t.jsonl"],
        ["run", "--out", "adir"],
        ["sweep", "--grid", "nodes.ue_count=2,3", "--out", "afile/sw.jsonl"],
    ], ids=["run-trace", "run-out-before-trace", "run-out-is-a-directory",
            "sweep-out"])
    def test_an_unwritable_output_path_fails_before_any_session(
            self, workdir, monkeypatch, capsys, argv):
        # a regular file where a directory would have to be, and a
        # directory where the records file would have to be
        (workdir / "afile").write_text("")
        (workdir / "adir").mkdir()
        cfg = write(workdir, "s.cfg", SMALL)
        built = []
        build = runner._build_topology
        monkeypatch.setattr(runner, "_build_topology",
                            lambda *a: built.append(a) or build(*a))
        assert main([argv[0], cfg, *argv[1:]]) == EXIT_BAD_CONFIG
        bad = next(a for a in argv if a.startswith(("afile", "adir")))
        assert capsys.readouterr().err.startswith(f"cannot write {bad}: ")
        assert built == []
        assert sorted(p.name for p in workdir.iterdir()) == [
            "adir", "afile", "s.cfg"]
        assert list((workdir / "adir").iterdir()) == []


class TestTraceFlag:
    @pytest.mark.parametrize("preset", ["ambulance", "baseline-unicast"])
    def test_trace_counts_give_back_the_session_records(self, workdir, preset):
        cfg = write(workdir, "p.cfg", f"[scenario]\npreset = {preset}\n")
        assert main(["run", cfg, "--seed", "3", "--out", "plain.jsonl"]) == EXIT_OK
        assert main(["run", cfg, "--seed", "3", "--out", "main.jsonl",
                     "--trace", "slots.jsonl"]) == EXIT_OK
        main_bytes = (workdir / "main.jsonl").read_bytes()
        assert main_bytes == (workdir / "plain.jsonl").read_bytes()

        sessions = [r for r in map(json.loads, main_bytes.decode().splitlines())
                    if r["type"] == "session"]
        slots = [json.loads(l)
                 for l in (workdir / "slots.jsonl").read_text().splitlines()]
        assert len(slots) == sum(s["completion_slots"] for s in sessions)
        assert {s["run_id"] for s in slots} == {sessions[0]["run_id"]}
        keys = ("cellular_tx", "short_range_tx", "completion_slots")
        counted = {s["index"]: dict.fromkeys(keys, 0) for s in sessions}
        for slot in slots:
            counts = counted[slot["session"]]
            counts["completion_slots"] += 1
            if slot["phase"] == "cellular":
                counts["cellular_tx"] += 1
            elif not slot["skipped"]:
                counts["short_range_tx"] += 1
        assert counted == {s["index"]: {key: s[key] for key in keys}
                           for s in sessions}

    def test_trace_path_follows_the_output_directory(self, workdir,
                                                     monkeypatch):
        box = workdir / "box"
        monkeypatch.setenv("MSCSIM_OUT_DIR", str(box))
        cfg = write(workdir, "s.cfg", SMALL)
        assert main(["run", cfg, "--trace", "t.jsonl"]) == EXIT_OK
        assert (box / "s-metrics.jsonl").exists() and (box / "t.jsonl").exists()

    def test_trace_and_records_in_one_file_are_rejected(self, workdir,
                                                        monkeypatch, capsys):
        # the trace would replace the records; nothing is run or written
        cfg = write(workdir, "s.cfg", SMALL)
        (workdir / "sub").mkdir()
        for out, trace in (("same.jsonl", "same.jsonl"),
                           ("same.jsonl", "sub/../same.jsonl"),
                           (str(workdir / "same.jsonl"), "same.jsonl")):
            assert main(["run", cfg, "--out", out, "--trace", trace]) == \
                EXIT_BAD_CONFIG
            assert "same.jsonl" in capsys.readouterr().err
            assert not (workdir / "same.jsonl").exists()
        # MSCSIM_OUT_DIR places the default records name beside the trace
        box = workdir / "box"
        monkeypatch.setenv("MSCSIM_OUT_DIR", str(box))
        assert main(["run", cfg, "--trace", "s-metrics.jsonl"]) == \
            EXIT_BAD_CONFIG
        assert main(["run", cfg, "--trace", str(box / "s-metrics.jsonl")]) == \
            EXIT_BAD_CONFIG
        assert not box.exists()
        assert main(["run", cfg, "--trace", "t.jsonl"]) == EXIT_OK


class TestSweepVerb:
    def test_grid_axis_runs_every_point(self, workdir):
        cfg = write(workdir, "s.cfg", SMALL)
        assert main(["sweep", cfg, "--grid", "nodes.ue_count=2,4",
                     "--out", "sw.jsonl"]) == EXIT_OK
        records = [json.loads(l)
                   for l in (workdir / "sw.jsonl").read_text().splitlines()]
        assert {r["grid_point"]["nodes.ue_count"] for r in records} == {2, 4}

    def test_no_grid_writes_empty_output(self, workdir):
        cfg = write(workdir, "s.cfg", SMALL)
        assert main(["sweep", cfg, "--out", "sw.jsonl"]) == EXIT_OK
        assert (workdir / "sw.jsonl").read_text() == ""

    def test_bad_axis_key_and_format(self, workdir, capsys):
        cfg = write(workdir, "s.cfg", SMALL)
        assert main(["sweep", cfg, "--grid", "ncc.bogus=1"]) == EXIT_BAD_CONFIG
        assert main(["sweep", cfg, "--grid", "justwords"]) == EXIT_BAD_CONFIG
        assert main(["sweep", cfg, "--grid", "nodes.ue_count=2",
                     "--grid", "nodes.ue_count=4"]) == EXIT_BAD_CONFIG

    def test_each_point_is_checked_as_a_whole(self, workdir):
        # threshold 6 or 8 alone exceeds the template's 5 shareholders,
        # but each point of the grid has 8
        cfg = write(workdir, "ho.ini", "[scenario]\npreset = ho-comparison\n"
                                       "seed = 3\n")
        assert main(["sweep", cfg, "--grid", "km.threshold=6,8",
                     "--grid", "km.shareholders=8", "--out", "sw.jsonl"]) \
            == EXIT_OK
        records = [json.loads(l)
                   for l in (workdir / "sw.jsonl").read_text().splitlines()]
        assert {(r["grid_point"]["km.threshold"],
                 r["grid_point"]["km.shareholders"])
                for r in records} == {(6, 8), (8, 8)}
        assert {r["status"] for r in records
                if r["type"] == "run-summary"} == {"ok"}

    def test_a_preset_axis_runs_each_preset(self, workdir):
        # each point takes its preset's values, then the other axes' own
        cfg = write(workdir, "ho.ini", "[scenario]\npreset = ho-comparison\n"
                                       "seed = 3\n")
        assert main(["sweep", cfg, "--grid",
                     "scenario.preset=ambulance,km-bootstrap",
                     "--grid", "scenario.sessions=2", "--out", "sw.jsonl"]) \
            == EXIT_OK
        records = [json.loads(l)
                   for l in (workdir / "sw.jsonl").read_text().splitlines()]
        headers = {r["grid_point"]["scenario.preset"]: r["config"]
                   for r in records if r["type"] == "header"}
        for name, config in headers.items():
            settings = preset_settings(name)
            settings["scenario.sessions"] = 2
            assert {k: config[k] for k in settings} == settings, name
        summaries = {r["grid_point"]["scenario.preset"]: r
                     for r in records if r["type"] == "run-summary"}
        assert summaries["ambulance"]["sessions"] == 2
        assert summaries["km-bootstrap"]["km_certificates_verified"] == 3

    def test_an_empty_axis_is_rejected(self, workdir, capsys):
        cfg = write(workdir, "s.cfg", SMALL)
        for axes in (["no.such_key="], ["ncc.redundancy=", "zzz.bad=1"],
                     ["ncc.redundancy=,"]):
            argv = ["sweep", cfg, "--out", "sw.jsonl"]
            for axis in axes:
                argv += ["--grid", axis]
            assert main(argv) == EXIT_BAD_CONFIG, axes
            err = capsys.readouterr().err
            assert "unknown key" in err or "no values" in err
        assert not (workdir / "sw.jsonl").exists()


class TestOtherVerbs:
    def test_presets_lists_all_four(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("ambulance", "baseline-unicast", "ho-comparison",
                     "km-bootstrap"):
            assert f"[{name}]" in out

    def test_presets_prints_settings_the_parser_accepts(self, capsys):
        # every printed `section.key = value` line, applied as overrides,
        # rebuilds the scenario the preset itself gives
        assert main(["presets"]) == EXIT_OK
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("["):
                settings = printed[line.strip("[]")] = {}
            else:
                dotted, _, value = line.partition(" = ")
                settings[dotted.strip()] = value
        assert set(printed) == set(PRESETS)
        for name, settings in printed.items():
            expected = parse_config(f"[scenario]\npreset = {name}\nseed = 1\n")
            applied = apply_overrides(default_scenario(1), settings)
            assert replace(applied, preset=name) == expected, name

    def test_validate_prints_hash_and_canonical_form(self, workdir, capsys):
        cfg = write(workdir, "a.cfg", AMBULANCE)
        assert main(["validate", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("ok ")
        assert "preset = ambulance" in out

    def test_validate_rejects_bad_files(self, workdir, capsys):
        cfg = write(workdir, "bad.cfg", "[scenario]\nwibble = 1\n")
        assert main(["validate", cfg]) == EXIT_BAD_CONFIG
        assert "unknown key" in capsys.readouterr().err
        cfg = write(workdir, "hang.cfg", "[scenario]\nseed = 1\n[ncc]\n"
                    "generation_size = 1\nredundancy = 300\n")
        assert main(["validate", cfg]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "at most 255" in err
        assert "line 5" in err
        assert main(["run", cfg]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "at most 255" in err
        assert "line 5" in err

    def test_node_ids_that_would_overlap_are_rejected(self, workdir, capsys):
        # station 101 would be device 101's id: rejected, not run
        cfg = write(workdir, "ids.cfg", "[scenario]\npreset = ambulance\n"
                    "seed = 1\n[nodes]\nbase_stations = 101\n")
        for verb in ("validate", "run"):
            assert main([verb, cfg]) == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert "nodes.base_stations" in err and "in [1, 99]" in err
            assert "line 5" in err
        cfg = write(workdir, "s.cfg", SMALL)
        assert main(["sweep", cfg, "--grid", "nodes.ue_count=2,900"]) == \
            EXIT_BAD_CONFIG
        assert "nodes.ue_count" in capsys.readouterr().err

    def test_validate_rejects_an_unbounded_epoch_walk(self, workdir, capsys):
        # at 1e300 m/s an epoch's walk never ends; rejected, not run
        cfg = write(workdir, "walk.cfg", "[scenario]\npreset = ho-comparison\n"
                    "seed = 1\n[mobility]\nspeed_max = 1e300\n"
                    "[handover]\nepochs = 3\n")
        for verb in ("validate", "run"):
            assert main([verb, cfg]) == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert "arena diagonals" in err
            assert "line 5" in err

    def test_a_zero_minimum_speed_with_epochs_is_rejected(self, workdir,
                                                           capsys):
        # with speeds down to 0 the walkers slow down for ever, so the
        # handover counts would rest on the run's length
        cfg = write(workdir, "still.cfg", "[scenario]\npreset = ho-comparison\n"
                    "seed = 1\n[mobility]\nspeed_min = 0\n"
                    "[handover]\nepochs = 3\n")
        for verb in ("validate", "run"):
            assert main([verb, cfg]) == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert "mobility.speed_min = 0" in err
            assert "line 7" in err
        assert not (workdir / "still-metrics.jsonl").exists()
        # without epochs nothing walks, and a positive minimum settles
        for fix in ("epochs = 0", "epochs = 3\n[mobility]\nspeed_min = 0.5"):
            cfg = write(workdir, "ok.cfg", "[scenario]\npreset = ho-comparison\n"
                        f"seed = 1\n[handover]\n{fix}\n")
            assert main(["validate", cfg]) == EXIT_OK

    def test_a_repeated_section_header_names_its_line(self, workdir, capsys):
        # the second [scenario] would otherwise merge into the first
        cfg = write(workdir, "twice.cfg", "[scenario]\nseed = 1\n[ncc]\n"
                    "generation_size = 8\n[scenario]\nsessions = 2\n")
        for verb in ("validate", "run"):
            assert main([verb, cfg]) == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert "repeated section [scenario]" in err
            assert "line 5" in err and "first at line 1" in err
        assert not (workdir / "twice-metrics.jsonl").exists()

    @pytest.mark.parametrize("key", ["cellular_rate", "shortrange_rate"])
    def test_a_rate_key_is_unknown(self, workdir, capsys, key):
        # no run read the link rates, so they are no longer keys
        cfg = write(workdir, "rate.cfg", "[scenario]\nseed = 1\n[links]\n"
                    f"cellular_loss = 0.1\n{key} = 2.0\n")
        assert main(["validate", cfg]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"unknown key '{key}'" in err and "line 5" in err

    def test_module_entry_point(self):
        # the child does not inherit pytest's `pythonpath`, so it is given
        # the src directory this package was imported from
        src = str(Path(mscsim.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "mscsim.cli", "presets"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "[ambulance]" in proc.stdout
