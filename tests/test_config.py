"""Scenario file parsing, presets, canonical form, and hashing."""

import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscsim.cli import EXIT_BAD_CONFIG, main
from mscsim.config import (
    _KEYS,
    ConfigError,
    PRESETS,
    Scenario,
    apply_overrides,
    default_scenario,
    field_value,
    parse_config,
    scenario_hash,
    scenario_to_dict,
    serialize_scenario,
)
from mscsim.topology import max_step_walk

MINIMAL = "[scenario]\nseed = 7\n"


class TestParsing:
    def test_minimal_file_fills_defaults(self):
        s = parse_config(MINIMAL)
        assert s.seed == 7
        assert s.ue_count == 8 and s.redundancy == 1.0
        assert s.preset == ""

    def test_preset_plus_seed_is_a_full_scenario(self):
        s = parse_config("[scenario]\npreset = ambulance\nseed = 7\n")
        assert s.sessions == 50
        assert s.ue_count == 8
        assert s.redundancy == 1.05
        assert s.shortrange_loss == 0.1
        assert s.cellular_loss == 0.0

    def test_explicit_keys_beat_the_preset(self):
        s = parse_config("[scenario]\npreset = ambulance\nseed = 7\n"
                         "[nodes]\nue_count = 4\n")
        assert s.ue_count == 4
        assert s.generation_size == 64    # untouched preset value survives

    def test_preset_position_in_file_does_not_matter(self):
        first = parse_config("[scenario]\npreset = ambulance\nseed = 7\n"
                             "[ncc]\nredundancy = 1.2\n")
        last = parse_config("[ncc]\nredundancy = 1.2\n"
                            "[scenario]\nseed = 7\npreset = ambulance\n")
        assert first == last and first.redundancy == 1.2

    def test_comments_and_blank_lines_ignored(self):
        s = parse_config("# top\n\n[scenario]\nseed = 3  # trailing\n")
        assert s.seed == 3

    def test_seed_argument_supplies_or_overrides(self):
        assert parse_config("[scenario]\nsessions = 1\n", seed=9).seed == 9
        assert parse_config(MINIMAL, seed=9).seed == 9

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed is required"):
            parse_config("[scenario]\nsessions = 1\n")

    @pytest.mark.parametrize("text,fragment", [
        ("[bogus]\nx = 1\n", "line 1: unknown section"),
        ("[scenario]\nwibble = 3\n", "line 2: unknown key"),
        ("[scenario]\nseed = 1\nseed = 2\n", "line 3: duplicate"),
        ("seed = 1\n", "line 1: key outside"),
        ("[scenario]\njust words\n", "line 2: expected"),
        ("[scenario]\nseed = x\n", "line 2"),
        ("[scenario]\nseed = 1\n[links]\ncellular_loss = 1.0\n",
         "line 4: links.cellular_loss"),
        ("[scenario]\nseed = 1\n[links]\nshortrange_loss = -0.1\n", "line 4"),
        ("[scenario]\nseed = 1\n[ncc]\nredundancy = 0.9\n", "line 4"),
        ("[scenario]\nseed = 1\npreset = nope\n",
         "line 3: scenario.preset = 'nope' out of range"),
        ("[scenario]\nseed = 1\n[ncc]\nprotocol = tcp\n", "one of"),
    ])
    def test_diagnostics_carry_key_and_line(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    @pytest.mark.parametrize("key, largest", [("base_stations", 99),
                                              ("ue_count", 899)])
    def test_node_counts_keep_the_id_blocks_apart(self, key, largest):
        # stations get ids 1..B, devices 101..100+U, shareholders 1001 on,
        # and the caps keep the three blocks apart
        text = "[scenario]\nseed = 1\n[nodes]\n{} = {}\n"
        assert getattr(parse_config(text.format(key, largest)), key) == largest
        for value in (largest + 1, largest + 2, 100000000):
            with pytest.raises(ConfigError, match=f"line 4: nodes.{key}") as err:
                parse_config(text.format(key, value))
            assert err.value.line == 4
        with pytest.raises(ConfigError, match=f"nodes.{key}"):
            apply_overrides(default_scenario(1), {f"nodes.{key}": str(largest + 1)})

    def test_shareholders_stay_within_the_quorum_draw(self, tmp_path, capsys):
        # a quorum is a Stream.choice sample of the roster, which serves
        # populations up to 10000
        text = "[scenario]\nseed = 1\n[km]\nshareholders = {}\n"
        assert parse_config(text.format(10000)).km_shareholders == 10000
        for value in (10001, 100000000):
            with pytest.raises(ConfigError,
                               match="line 4: km.shareholders") as err:
                parse_config(text.format(value))
            assert err.value.line == 4
        cfg = tmp_path / "roster.cfg"
        cfg.write_text(text.format(100000000))
        assert main(["validate", str(cfg)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "line 4: km.shareholders = 100000000 out of range" in err

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError, match="threshold exceeds") as err:
            parse_config("[scenario]\nseed = 1\n[km]\nshareholders = 2\n"
                         "threshold = 3\n")
        assert err.value.line == 5
        with pytest.raises(ConfigError, match="toy group") as err:
            parse_config("[scenario]\nseed = 1\n[km]\nshareholders = 11\n"
                         "group = toy\n")
        assert err.value.line == 5
        with pytest.raises(ConfigError, match="speed_min") as err:
            parse_config("[scenario]\nseed = 1\n[mobility]\nspeed_min = 6.0\n"
                         "speed_max = 2.0\n")
        assert err.value.line == 5
        # g = 1 has only 255 distinct nonzero coefficient vectors
        with pytest.raises(ConfigError, match="at most 255") as err:
            parse_config("[scenario]\nseed = 1\n[ncc]\ngeneration_size = 1\n"
                         "redundancy = 300\n")
        assert err.value.line == 5
        assert str(err.value).startswith("line 5: ")
        with pytest.raises(ConfigError, match="at most 255") as err:
            apply_overrides(default_scenario(1, generation_size=1),
                            {"ncc.redundancy": "255.5"})
        assert err.value.line is None
        # redundancy * g overflows to inf: still a config error, not a crash
        with pytest.raises(ConfigError, match="needs inf distinct") as err:
            parse_config("[scenario]\nseed = 1\n[ncc]\nredundancy = 1e308\n")
        assert err.value.line == 4
        assert parse_config("[scenario]\nseed = 1\n[ncc]\ngeneration_size = 1\n"
                            "redundancy = 255\n").redundancy == 255.0
        assert parse_config("[scenario]\nseed = 1\n[ncc]\ngeneration_size = 2\n"
                            "redundancy = 300\n").redundancy == 300.0

    def test_walk_per_epoch_is_bounded(self):
        # an epoch's walk hops waypoint to waypoint until spent, so a walk
        # of many arena diagonals is unbounded work per epoch
        with pytest.raises(ConfigError, match="arena diagonals") as err:
            parse_config("[scenario]\npreset = ho-comparison\nseed = 1\n"
                         "[mobility]\nspeed_max = 1e300\n[handover]\n"
                         "epochs = 3\n")
        assert err.value.line == 5
        # a tiny arena at walking speed is the same case
        with pytest.raises(ConfigError, match="arena diagonals") as err:
            parse_config("[scenario]\nseed = 1\n[arena]\nwidth = 0.01\n"
                         "height = 0.02\n")
        assert err.value.line == 5
        # speed x duration overflowing to inf is rejected, not a crash
        with pytest.raises(ConfigError, match="arena diagonals") as err:
            parse_config("[scenario]\nseed = 1\n[mobility]\nspeed_max = 1e300\n"
                         "epoch_duration = 1e300\n")
        assert err.value.line == 5
        with pytest.raises(ConfigError, match="arena diagonals") as err:
            apply_overrides(default_scenario(1), {"mobility.epoch_duration": "2e3"})
        assert err.value.line is None
        # the limit itself is allowed: 10 diagonals of 30 x 40 is 500 m
        ok = "[scenario]\nseed = 1\n[arena]\nwidth = 30\nheight = 40\n" \
             "[mobility]\nspeed_max = {}\n"
        assert parse_config(ok.format(500.0)).speed_max == 500.0
        with pytest.raises(ConfigError, match="arena diagonals"):
            parse_config(ok.format(500.001))
        for name in PRESETS:
            assert parse_config(f"[scenario]\npreset = {name}\nseed = 1\n")

    def test_cross_field_error_names_the_later_line(self):
        # the earlier key of the pair is the one written second
        with pytest.raises(ConfigError, match="speed_min") as err:
            parse_config("[mobility]\nspeed_max = 2.0\n\nspeed_min = 6.0\n"
                         "[scenario]\nseed = 1\n")
        assert err.value.line == 4
        # a value from a preset is charged to the `preset =` line
        with pytest.raises(ConfigError, match="threshold exceeds") as err:
            parse_config("[km]\nthreshold = 6\n[scenario]\nseed = 1\n"
                         "preset = ho-comparison\n")
        assert err.value.line == 5
        # a default has no line, so the explicit key is named
        with pytest.raises(ConfigError, match="threshold exceeds") as err:
            parse_config("[km]\nthreshold = 6\n[scenario]\nseed = 1\n")
        assert err.value.line == 2


# every range the key registry accepts, by the text it describes it with
RANGES = {
    "an integer in [0, 2^63)": st.integers(0, 2 ** 63 - 1),
    "a nonnegative integer": st.integers(min_value=0),
    "at least 1": st.integers(min_value=1),
    "in [1, 1024]": st.integers(1, 1024),
    "in [1, 99]": st.integers(1, 99),
    "in [1, 899]": st.integers(1, 899),
    "in [1, 10000]": st.integers(1, 10000),
    "positive": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "nonnegative": st.floats(min_value=0.0, allow_infinity=False),
    "at least 1.0": st.floats(min_value=1.0, allow_infinity=False),
    "in [0, 1)": st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
}


def key_values(key):
    if key.field == "preset":
        return st.sampled_from(["", *sorted(PRESETS)])
    if key.expect.startswith("one of: "):
        return st.sampled_from(key.expect.removeprefix("one of: ").split(", "))
    return RANGES[key.expect]


class TestCanonicalForm:
    def test_serialize_round_trip(self):
        s = parse_config("[scenario]\npreset = ambulance\nseed = 7\n"
                         "[ncc]\nredundancy = 1.3\n[links]\n"
                         "shortrange_loss = 0.25\n")
        assert parse_config(serialize_scenario(s)) == s

    def test_default_scenario_round_trip(self):
        s = default_scenario(3, ue_count=2, redundancy=1.5)
        assert parse_config(serialize_scenario(s)) == s

    @settings(max_examples=100)
    @given(st.data())
    def test_any_valid_scenario_round_trips(self, data):
        values = {key.field: data.draw(key_values(key), label=key.field)
                  for key in _KEYS}
        # meet _cross_validate's pairwise rules by construction
        values["speed_min"], values["speed_max"] = sorted(
            (values["speed_min"], values["speed_max"]))
        values["km_threshold"] = min(values["km_threshold"],
                                     values["km_shareholders"])
        if values["km_group"] == "toy":
            values["km_shareholders"] = min(values["km_shareholders"], 10)
            values["km_threshold"] = min(values["km_threshold"], 10)
        if values["speed_min"] == 0 and values["ho_epochs"] > 0:
            # a walk whose speeds reach 0 never settles: no such scenario
            # can be made; keep the epochs and draw a positive minimum
            with pytest.raises(ConfigError, match="speed_min = 0"):
                Scenario(**values)
            values["speed_min"] = data.draw(
                st.floats(0.0, values["speed_max"], exclude_min=True),
                label="speed_min")
        for key in _KEYS:
            assert key.check(values[key.field]), key.field
        if values["speed_max"] * values["epoch_duration"] > max_step_walk(
                values["arena_width"], values["arena_height"]):
            # an epoch walks too many arena diagonals: no such scenario
            # can be made; redraw the mobility keys from ranges that
            # always meet the bound
            with pytest.raises(ConfigError, match="arena diagonals"):
                Scenario(**values)
            for name in ("arena_width", "arena_height"):
                values[name] = data.draw(st.floats(100.0, 1e4), label=name)
            values["speed_min"], values["speed_max"] = sorted(
                data.draw(st.floats(0.0, 100.0, exclude_min=True), label=name)
                for name in ("speed_min", "speed_max"))
            values["epoch_duration"] = data.draw(
                st.floats(0.0, 10.0, exclude_min=True), label="epoch_duration")
        try:
            s = default_scenario(**values)
        except ConfigError:
            # more coded packets than nonzero coefficient vectors: no such
            # scenario can be made; retry with a redundancy any g allows
            with pytest.raises(ConfigError, match="distinct coded packets"):
                Scenario(**values)
            values["redundancy"] = data.draw(st.floats(1.0, 255.0),
                                             label="redundancy")
            s = default_scenario(**values)
        assert parse_config(serialize_scenario(s)) == s

    def test_hash_ignores_key_order(self):
        a = parse_config("[scenario]\nseed = 1\n[links]\ncellular_loss = 0.2\n"
                         "[nodes]\nue_count = 4\n")
        b = parse_config("[nodes]\nue_count = 4\n[links]\n"
                         "cellular_loss = 0.2\n[scenario]\nseed = 1\n")
        assert a == b
        assert scenario_hash(a) == scenario_hash(b)

    def test_hash_tracks_content(self):
        a = default_scenario(1)
        assert scenario_hash(a) != scenario_hash(default_scenario(2))
        assert scenario_hash(a) != scenario_hash(default_scenario(1, ue_count=2))

    def test_dict_echo_covers_every_key(self):
        echo = scenario_to_dict(default_scenario(5))
        assert echo["scenario.seed"] == 5
        assert echo["links.shortrange_energy"] == 0.2
        assert echo["km.group"] == "demo"
        assert len(echo) == 28


class TestOverrides:
    def test_apply_and_read_back(self):
        s = default_scenario(1)
        out = apply_overrides(s, {"nodes.ue_count": "2",
                                  "ncc.redundancy": "1.5"})
        assert out.ue_count == 2 and out.redundancy == 1.5
        assert field_value(out, "nodes.ue_count") == 2

    def test_override_validation(self):
        s = default_scenario(1)
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(s, {"nodes.bogus": "2"})
        with pytest.raises(ConfigError, match="out of range"):
            apply_overrides(s, {"links.cellular_loss": "1.0"})
        with pytest.raises(ConfigError, match="threshold exceeds"):
            apply_overrides(s, {"km.shareholders": "1"})

    def test_a_preset_override_applies_the_preset(self):
        # as in a file: the preset's values first, every other key over
        # them, whichever comes first among the overrides
        text = "[scenario]\nseed = 1\npreset = {}\n[nodes]\nue_count = 4\n"
        for name in PRESETS:
            out = apply_overrides(default_scenario(1),
                                  {"nodes.ue_count": 4,
                                   "scenario.preset": f" {name} "})
            assert out == parse_config(text.format(name))
        # over a template, a key the preset leaves alone keeps its value
        template = parse_config("[scenario]\nseed = 3\n"
                                "preset = ho-comparison\n")
        out = apply_overrides(template, {"scenario.preset": "km-bootstrap"})
        assert out == replace(template, preset="km-bootstrap",
                              **PRESETS["km-bootstrap"])
        assert out.arena_width == 300.0 and out.km_shareholders == 13
        # no preset leaves every value as it was
        assert apply_overrides(template, {"scenario.preset": ""}) == \
            replace(template, preset="")


class TestEveryConstructionIsChecked:
    @pytest.mark.parametrize("field, value, dotted", [
        # no devices: the run would fail to form a cell
        ("ue_count", 0, "nodes.ue_count"),
        # devices 101..1050 would overlap the shareholder ids from 1001
        ("ue_count", 950, "nodes.ue_count"),
        # an empty generation: the run would fail in the coding layer
        ("generation_size", 0, "ncc.generation_size"),
    ])
    def test_key_ranges_hold_however_a_scenario_is_made(self, field, value,
                                                        dotted):
        match = f"{dotted} = {value} out of range"
        with pytest.raises(ConfigError, match=match) as err:
            default_scenario(1, **{field: value})
        assert err.value.line is None
        with pytest.raises(ConfigError, match=match):
            Scenario(seed=1, **{field: value})
        with pytest.raises(ConfigError, match=match):
            replace(default_scenario(1), **{field: value})
        with pytest.raises(ConfigError, match=match):
            apply_overrides(default_scenario(1), {dotted: str(value)})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", [k for k in _KEYS if k.parse is float],
                             ids=lambda k: f"{k.section}.{k.name}")
    def test_float_keys_are_finite_however_a_scenario_is_made(self, key,
                                                              value):
        dotted = f"{key.section}.{key.name}"
        match = re.escape(f"{dotted} = {value!r} is not a finite number")
        makers = (
            lambda: default_scenario(1, **{key.field: value}),
            lambda: Scenario(seed=1, **{key.field: value}),
            lambda: replace(default_scenario(1), **{key.field: value}),
            lambda: apply_overrides(default_scenario(1), {dotted: value}),
        )
        for make in makers:
            with pytest.raises(ConfigError, match=match) as err:
                make()
            assert err.value.involved == (key.field,)
            assert err.value.line is None
        with pytest.raises(ConfigError, match="line 4: " + match):
            parse_config(f"[scenario]\nseed = 1\n[{key.section}]\n"
                         f"{key.name} = {value}\n")

    def test_a_number_past_every_float_is_refused(self):
        match = re.escape("arena.width = inf is not a finite number")
        with pytest.raises(ConfigError, match=match):
            default_scenario(1, arena_width=10 ** 400)
        with pytest.raises(ConfigError, match=match):
            apply_overrides(default_scenario(1), {"arena.width": 10 ** 400})
        # an int past str()'s 4300 digits has no text at all
        with pytest.raises(ConfigError, match="arena.width: cannot parse"):
            default_scenario(1, arena_width=10 ** 5000)

    def test_a_preset_is_empty_or_a_preset_name(self):
        for name in ("", *PRESETS):
            assert default_scenario(1, preset=name).preset == name
        for name in ("bogus", "Ambulance", 0, None):
            with pytest.raises(ConfigError, match="scenario.preset = ") as err:
                default_scenario(1, preset=name)
            assert err.value.involved == ("preset",)
            with pytest.raises(ConfigError, match="scenario.preset = "):
                apply_overrides(default_scenario(1),
                                {"scenario.preset": name})

    def test_cross_checks_hold_for_direct_construction(self):
        with pytest.raises(ConfigError, match="threshold exceeds"):
            Scenario(seed=1, km_threshold=6)
        with pytest.raises(ConfigError, match="arena diagonals"):
            default_scenario(1, speed_max=1e300)

    def test_seed_stays_required(self):
        with pytest.raises(TypeError):
            Scenario()
        with pytest.raises(ConfigError, match="scenario.seed = -1 out of range"):
            default_scenario(-1)

    def test_a_value_out_of_range_names_the_line_that_set_it(self,
                                                             monkeypatch):
        # a preset's values are checked like any other, at the preset line
        monkeypatch.setitem(PRESETS, "ambulance",
                            dict(PRESETS["ambulance"], ue_count=0))
        with pytest.raises(ConfigError, match="line 3: nodes.ue_count = 0"):
            parse_config("[scenario]\nseed = 1\npreset = ambulance\n")
        # a seed argument replaces the file's, and has no line
        with pytest.raises(ConfigError, match="scenario.seed = -1") as err:
            parse_config(MINIMAL, seed=-1)
        assert err.value.line is None


class TestPresets:
    def test_expected_presets_exist(self):
        assert set(PRESETS) == {"ambulance", "baseline-unicast",
                                "ho-comparison", "km-bootstrap"}

    def test_every_preset_yields_a_valid_scenario(self):
        for name in PRESETS:
            s = parse_config(f"[scenario]\npreset = {name}\nseed = 1\n")
            assert isinstance(s, Scenario) and s.preset == name

    def test_baseline_mirrors_ambulance_channel(self):
        amb = parse_config("[scenario]\npreset = ambulance\nseed = 1\n")
        base = parse_config("[scenario]\npreset = baseline-unicast\nseed = 1\n")
        assert base.protocol == "unicast" and amb.protocol == "ncc"
        assert (base.ue_count, base.cellular_loss, base.generation_size) == \
            (amb.ue_count, amb.cellular_loss, amb.generation_size)


def forms(x):
    """``x`` in each type that code may hand a key."""
    if isinstance(x, str):
        return [x, f" {x} ", np.str_(x)]
    out = [x, str(x), f" {x} "]
    if isinstance(x, int) or math.isfinite(x) and x.is_integer():
        out.append(int(x))
        if -2 ** 63 <= x < 2 ** 63:
            out.append(np.int64(int(x)))
    if not abs(x) >= 1e308:         # nan included
        out += [float(x), np.float64(x)]
    if not abs(x) >= 3e38:          # np.float32 would overflow
        out.append(np.float32(x))
    return out


MIXED = st.one_of(
    st.integers(-3, 10 ** 4), st.integers(),
    st.sampled_from([2 ** 63 - 1, 2 ** 63, 10 ** 400, -10 ** 400]),
    st.floats(), st.floats(-1.0, 2000.0),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e400]),
    st.booleans(), st.text(max_size=6),
    st.sampled_from(["1_000", "0x10", "1e3", "nan", "-0.0", "ncc ", "Toy"]))


def mixed_values(key):
    """Values in and out of the key's range, of every type."""
    return st.one_of(key_values(key), MIXED).flatmap(
        lambda x: st.sampled_from(forms(x)))


TYPES = {f.name: f.type for f in fields(Scenario)}
# the default roster of 5 leaves the threshold little room
ROOM = {"km_threshold": {"km_shareholders": 10000}}


@pytest.mark.parametrize("key", _KEYS, ids=lambda k: f"{k.section}.{k.name}")
@settings(max_examples=60)
@given(data=st.data())
def test_a_value_of_any_type_is_held_as_its_canonical_text_parses(key, data):
    """However code types a value, the scenario either is refused with a
    ConfigError or holds the value its canonical text parses back to."""
    value = data.draw(mixed_values(key), label=key.field)
    base = {"seed": 1, **ROOM.get(key.field, {})}
    try:
        s = default_scenario(**{**base, key.field: value})
    except ConfigError as err:
        assert err.involved and key.field in err.involved
        return
    assert type(getattr(s, key.field)) is TYPES[key.field]
    again = parse_config(serialize_scenario(s))
    assert again == s
    assert scenario_hash(again) == scenario_hash(s)
    json.dumps(scenario_to_dict(s))
    if key.field != "preset":   # an overridden preset sets its values
        dotted = f"{key.section}.{key.name}"
        assert apply_overrides(default_scenario(**base), {dotted: value}) == s
