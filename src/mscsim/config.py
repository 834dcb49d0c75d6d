"""Scenario configuration.

Flat `key = value` text grouped under `[section]` headers. Each key is
declared once, as a `Scenario` field: its default, and in the field's
metadata its section, its name in the file, its allowed range and the
text that describes that range; the field's type gives its parser.
`Scenario` is the one door for values: however a scenario is made
(parsed from a file, by `apply_overrides` or `default_scenario`, or
directly), each value is held as its key's parse of `str(value)`, -0.0
as 0.0, and passes the same per-key and cross-key checks (a float key
must also be finite), so a bad file fails with the offending key and
line number. A scenario serializes to one canonical form, in field
order, which parses back to it; its hash is therefore independent of
how the input file happened to order keys.
"""

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional

from .engine import CHOICE_MAX, DEFAULT_CELLULAR, DEFAULT_SHORT_RANGE
from .topology import MAX_STEP_DIAGONALS, max_step_walk

__all__ = [
    "ConfigError",
    "Scenario",
    "PRESETS",
    "preset_settings",
    "parse_config",
    "serialize_scenario",
    "scenario_hash",
    "scenario_to_dict",
    "apply_overrides",
    "default_scenario",
]


class ConfigError(Exception):
    """A rejected scenario. ``involved`` names the `Scenario` fields a
    check found at fault, so that the file parser can name their line."""

    def __init__(self, message: str, line: Optional[int] = None,
                 involved: tuple = ()):
        self.line = line
        self.involved = involved
        super().__init__(f"line {line}: {message}" if line else message)


# Id blocks of stations, devices and shareholders, each from its base + 1
BS_BASE, UE_BASE, KM_BASE = 0, 100, 1000
_MAX_STATIONS, _MAX_UES = UE_BASE - BS_BASE - 1, KM_BASE - UE_BASE - 1


_AMBULANCE = {
    "sessions": 50,
    "base_stations": 1,
    "ue_count": 8,
    "generation_size": 64,
    "generations": 1,
    "redundancy": 1.05,
    "payload_bytes": 32,
    "cellular_loss": 0.0,
    "shortrange_loss": 0.1,
    "protocol": "ncc",
    "phase_mode": "sequential",
    "ho_epochs": 0,
    "km_shareholders": 8,
    "km_threshold": 3,
    "km_group": "demo",
    "km_requesters": 1,
}

PRESETS = {
    # one parked vehicle-hosted cell: a single base station feeds eight
    # devices over a lossless downlink; the short-range mesh drops 10%
    "ambulance": dict(_AMBULANCE),
    # identical channel, but every packet unicast per device, no coding
    "baseline-unicast": dict(_AMBULANCE, protocol="unicast"),
    # mobility trace across three base stations, both signaling procedures
    "ho-comparison": {
        "sessions": 0,
        "base_stations": 3,
        "ue_count": 4,
        "arena_width": 300.0,
        "arena_height": 300.0,
        "epoch_duration": 1.0,
        "ho_epochs": 1000,
        "km_shareholders": 5,
        "km_threshold": 3,
        "km_group": "toy",
        "km_requesters": 0,
    },
    # distributed authority at full roster: 13 shareholders, threshold 3
    "km-bootstrap": {
        "sessions": 0,
        "ho_epochs": 0,
        "ue_count": 13,
        "km_shareholders": 13,
        "km_threshold": 3,
        "km_group": "demo",
        "km_requesters": 3,
    },
}


def _key(section: str, default=MISSING, check=lambda v: True, expect="",
         name=""):
    """A `Scenario` field that is the key ``section.name`` (``name``
    defaults to the field's own), valid where ``check`` holds."""
    return field(default=default, metadata={
        "section": section, "name": name, "check": check, "expect": expect})


def _one_of(*options):
    """The check and expect text of a key that takes one of ``options``."""
    return (lambda v: v in options), "one of: " + ", ".join(options)


@dataclass(frozen=True)
class Scenario:
    """A resolved scenario, one field per config key. The field order is
    the canonical key order, so reordering fields changes every hash."""

    seed: int = _key("scenario", MISSING, lambda v: 0 <= v < 2 ** 63,
                     "an integer in [0, 2^63)")
    preset: str = _key("scenario", "", lambda v: v == "" or v in PRESETS,
                       "empty or one of: " + ", ".join(PRESETS))
    sessions: int = _key("scenario", 1, lambda v: v >= 0,
                         "a nonnegative integer")

    arena_width: float = _key("arena", 500.0, lambda v: v > 0, "positive",
                              "width")
    arena_height: float = _key("arena", 500.0, lambda v: v > 0, "positive",
                               "height")
    base_stations: int = _key("nodes", 1, lambda v: 1 <= v <= _MAX_STATIONS,
                              f"in [1, {_MAX_STATIONS}]")
    ue_count: int = _key("nodes", 8, lambda v: 1 <= v <= _MAX_UES,
                         f"in [1, {_MAX_UES}]")

    speed_min: float = _key("mobility", 1.0, lambda v: v >= 0, "nonnegative")
    speed_max: float = _key("mobility", 5.0, lambda v: v > 0, "positive")
    epoch_duration: float = _key("mobility", 1.0, lambda v: v > 0, "positive")

    protocol: str = _key("ncc", "ncc", *_one_of("ncc", "unicast"))
    phase_mode: str = _key("ncc", "sequential",
                           *_one_of("sequential", "parallel"))
    generation_size: int = _key("ncc", 64, lambda v: 1 <= v <= 1024,
                                "in [1, 1024]")
    generations: int = _key("ncc", 1, lambda v: v >= 1, "at least 1")
    redundancy: float = _key("ncc", 1.0, lambda v: v >= 1.0, "at least 1.0")
    payload_bytes: int = _key("ncc", 32, lambda v: v >= 1, "at least 1")

    cellular_loss: float = _key("links", 0.0, lambda v: 0.0 <= v < 1.0,
                                "in [0, 1)")
    cellular_energy: float = _key("links", DEFAULT_CELLULAR.tx_energy,
                                  lambda v: v >= 0, "nonnegative")
    cellular_range: float = _key("links", DEFAULT_CELLULAR.range_m,
                                 lambda v: v > 0, "positive")
    shortrange_loss: float = _key("links", 0.0, lambda v: 0.0 <= v < 1.0,
                                  "in [0, 1)")
    shortrange_energy: float = _key("links", DEFAULT_SHORT_RANGE.tx_energy,
                                    lambda v: v >= 0, "nonnegative")
    shortrange_range: float = _key("links", DEFAULT_SHORT_RANGE.range_m,
                                   lambda v: v > 0, "positive")

    ho_epochs: int = _key("handover", 0, lambda v: v >= 0,
                          "a nonnegative integer", "epochs")
    hysteresis_db: float = _key("handover", 3.0, lambda v: v >= 0,
                                "nonnegative")

    # a quorum is a `Stream.choice` sample of the roster
    km_shareholders: int = _key("km", 5, lambda v: 1 <= v <= CHOICE_MAX,
                                f"in [1, {CHOICE_MAX}]", "shareholders")
    km_threshold: int = _key("km", 3, lambda v: v >= 1, "at least 1",
                             "threshold")
    km_group: str = _key("km", "demo", *_one_of("toy", "demo", "2048"),
                         "group")
    km_requesters: int = _key("km", 0, lambda v: v >= 0,
                              "a nonnegative integer", "requesters")

    def __post_init__(self):
        for key in _KEYS:
            value = getattr(self, key.field)
            text = "an int too long for str()"  # which raises ValueError
            try:
                # the value the canonical text `str(value)` parses back to
                text = str(value)
                value = key.parse(text)
            except ValueError:
                raise ConfigError(
                    f"{key.section}.{key.name}: cannot parse {text!r}",
                    involved=(key.field,)) from None
            if key.parse is float:
                value += 0.0    # -0.0 as 0.0, which prints differently
                # a one-sided range holds inf, which no run can use
                if not math.isfinite(value):
                    raise ConfigError(
                        f"{key.section}.{key.name} = {value!r} is not a "
                        f"finite number", involved=(key.field,))
            if not key.check(value):
                raise ConfigError(
                    f"{key.section}.{key.name} = {value!r} out of range, "
                    f"expected {key.expect}", involved=(key.field,))
            object.__setattr__(self, key.field, value)
        _cross_validate(self)


class _Key(NamedTuple):
    section: str
    name: str
    field: str
    parse: Callable[[str], object]
    check: Callable[[object], bool]
    expect: str


_KEYS = [_Key(f.metadata["section"], f.metadata["name"] or f.name, f.name,
              {int: int, float: float, str: str.strip}[f.type],
              f.metadata["check"], f.metadata["expect"])
         for f in fields(Scenario)]
_BY_SECTION_KEY = {(k.section, k.name): k for k in _KEYS}
_BY_DOTTED = {f"{k.section}.{k.name}": k for k in _KEYS}
_SECTIONS = list(dict.fromkeys(k.section for k in _KEYS))


def _scan(text: str):
    """Yield (line_no, key_spec, raw_value); reject anything unknown or
    repeated, a key or a section header."""
    section = None
    headers = {}
    seen = set()
    pairs = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", line_no)
            if section in headers:
                raise ConfigError(f"repeated section [{section}], first at "
                                  f"line {headers[section]}", line_no)
            headers[section] = line_no
            continue
        if "=" not in line:
            raise ConfigError(f"expected `key = value`, got {line!r}", line_no)
        if section is None:
            raise ConfigError("key outside any [section]", line_no)
        key, _, raw = line.partition("=")
        key = key.strip()
        spec = _BY_SECTION_KEY.get((section, key))
        if spec is None:
            raise ConfigError(f"unknown key {key!r} in section [{section}]",
                              line_no)
        if (section, key) in seen:
            raise ConfigError(f"duplicate key {section}.{key}", line_no)
        seen.add((section, key))
        pairs.append((line_no, spec, raw.strip()))
    return pairs


def _cross_validate(s: Scenario) -> None:
    """Reject combinations of individually valid values."""
    def fail(message: str, *involved: str):
        raise ConfigError(message, involved=involved)

    if s.km_threshold > s.km_shareholders:
        fail("km.threshold exceeds km.shareholders",
             "km_threshold", "km_shareholders")
    if s.km_group == "toy" and s.km_shareholders > 10:
        fail("the toy group supports at most 10 shareholders",
             "km_group", "km_shareholders")
    if s.speed_min > s.speed_max:
        fail("mobility.speed_min exceeds mobility.speed_max",
             "speed_min", "speed_max")
    if s.speed_min == 0 and s.ho_epochs > 0:
        # random waypoint whose speeds reach 0 has no stationary regime
        # (Yoon, Liu & Noble, INFOCOM 2003): the walkers slow down for
        # ever, so the handover counts would rest on the run's length
        fail("mobility.speed_min = 0 with handover.epochs > 0: the walk "
             "never settles; use a positive speed_min",
             "speed_min", "ho_epochs")
    walk = s.speed_max * s.epoch_duration
    if walk > max_step_walk(s.arena_width, s.arena_height):
        # each epoch's walk hops waypoint to waypoint until spent, so an
        # unbounded walk per arena would mean unbounded work per epoch
        fail(f"mobility.speed_max x mobility.epoch_duration = {walk!r} m "
             f"exceeds {MAX_STEP_DIAGONALS:g} arena diagonals "
             f"({s.arena_width!r} x {s.arena_height!r})",
             "speed_max", "epoch_duration", "arena_width", "arena_height")
    product = s.redundancy * s.generation_size
    # a product that overflows to inf is too many packets for any g
    coded = math.ceil(product) if math.isfinite(product) else product
    if coded > 256 ** s.generation_size - 1:
        # each coded packet of a generation carries a distinct nonzero
        # coefficient vector, and only 256^g - 1 of those exist
        fail(f"ncc.redundancy = {s.redundancy!r} needs {coded} distinct "
             f"coded packets per generation, but generation_size = "
             f"{s.generation_size} allows at most "
             f"{256 ** s.generation_size - 1}",
             "redundancy", "generation_size")


def parse_config(text: str, seed=None) -> Scenario:
    """Text to a fully validated Scenario.

    The text gives each key its raw value, which `Scenario` parses and
    checks. ``seed`` (e.g. from a command-line flag) overrides or
    supplies the mandatory scenario.seed. Preset values apply first;
    explicit keys in the file win over the preset.

    A rejected value or combination names the last line that set one of
    the fields involved: the field's own key, or the ``preset =`` line
    for a value taken from a preset (or for an unknown preset name).
    Defaults and the ``seed`` argument have no line; an error that
    involves only those has none either.
    """
    changes, lines = {}, {}
    for line_no, spec, raw in _scan(text):
        changes[spec.field] = raw
        lines[spec.field] = line_no
    if seed is not None:
        changes["seed"] = seed
        lines.pop("seed", None)
    if "seed" not in changes:
        raise ConfigError("scenario.seed is required (no implicit seeding)")
    preset = PRESETS.get(changes.get("preset"), {})
    lines = {**dict.fromkeys(preset, lines.get("preset")), **lines}
    try:
        return Scenario(**{**preset, **changes})
    except ConfigError as err:
        found = [lines[f] for f in err.involved if f in lines]
        raise ConfigError(str(err), max(found, default=None)) from None


def _key_at(dotted: str) -> _Key:
    """The key behind a dotted `section.key` name."""
    spec = _BY_DOTTED.get(dotted)
    if spec is None:
        raise ConfigError(f"unknown key {dotted!r}")
    return spec


def apply_overrides(scenario: Scenario, overrides: dict) -> Scenario:
    """Replace dotted-key values (`section.key`) on an existing scenario.
    `Scenario` parses and checks the raw values, as it does a file's; a
    `scenario.preset` override sets that preset's values first and the
    other overrides over them, as a file's ``preset =`` line does."""
    changes = {_key_at(dotted).field: raw for dotted, raw in overrides.items()}
    if "preset" in changes:
        # the name as parsed and checked, whatever its raw form
        name = replace(scenario, preset=changes["preset"]).preset
        changes = {**PRESETS.get(name, {}), **changes}
    return replace(scenario, **changes)


def default_scenario(seed: int, **overrides) -> Scenario:
    return Scenario(seed=seed, **overrides)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form; parsing it reproduces the scenario exactly."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for key in _KEYS:
            if key.section != section:
                continue
            if key.field == "preset" and not scenario.preset:
                continue
            # str of a float is its shortest round-trip repr
            lines.append(f"{key.name} = {getattr(scenario, key.field)}")
        lines.append("")
    return "\n".join(lines)


def preset_settings(name: str) -> dict:
    """A preset's values by dotted `section.key` name, in canonical order."""
    preset = PRESETS[name]
    return {f"{k.section}.{k.name}": preset[k.field]
            for k in _KEYS if k.field in preset}


def field_value(scenario: Scenario, dotted: str):
    """Value behind a dotted `section.key` name."""
    return getattr(scenario, _key_at(dotted).field)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Dotted-key echo of every resolved value, for output records."""
    return {f"{k.section}.{k.name}": getattr(scenario, k.field)
            for k in _KEYS}


def scenario_hash(scenario: Scenario) -> str:
    """Content address of the resolved scenario; key order in the source
    file cannot affect it because serialization is canonical."""
    return hashlib.sha256(serialize_scenario(scenario).encode()).hexdigest()
