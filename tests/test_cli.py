"""Command-line verbs, exit codes, and output placement."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mscsim
from mscsim.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from mscsim.config import PRESETS, apply_overrides, default_scenario, parse_config

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
