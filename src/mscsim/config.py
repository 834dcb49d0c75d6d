"""Scenario configuration.

Flat `key = value` text grouped under `[section]` headers. Every key is
declared in a registry with its type and allowed range, so a bad file
fails with the offending key and line number. A scenario serializes to
one canonical form; its hash is therefore independent of how the input
file happened to order keys.
"""

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

from .topology import MAX_STEP_DIAGONALS, max_step_walk

__all__ = [
    "ConfigError",
    "Scenario",
    "PRESETS",
    "parse_config",
    "serialize_scenario",
    "scenario_hash",
    "scenario_to_dict",
    "apply_overrides",
    "default_scenario",
]


class ConfigError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


_MISSING = object()


@dataclass(frozen=True)
class Scenario:
    seed: int
    preset: str = ""
    sessions: int = 1

    arena_width: float = 500.0
    arena_height: float = 500.0
    base_stations: int = 1
    ue_count: int = 8

    speed_min: float = 1.0
    speed_max: float = 5.0
    epoch_duration: float = 1.0

    protocol: str = "ncc"              # ncc | unicast
    phase_mode: str = "sequential"     # sequential | parallel
    generation_size: int = 64
    generations: int = 1
    redundancy: float = 1.0
    payload_bytes: int = 32

    cellular_rate: float = 1.0
    cellular_loss: float = 0.0
    cellular_energy: float = 1.0
    cellular_range: float = 1000.0
    shortrange_rate: float = 4.0
    shortrange_loss: float = 0.0
    shortrange_energy: float = 0.2
    shortrange_range: float = 50.0

    ho_epochs: int = 0
    hysteresis_db: float = 3.0

    km_shareholders: int = 5
    km_threshold: int = 3
    km_group: str = "demo"             # toy | demo | 2048
    km_requesters: int = 0


def _int(raw: str) -> int:
    return int(raw.strip())


def _float(raw: str) -> float:
    value = float(raw.strip())
    if math.isnan(value) or math.isinf(value):
        raise ValueError("not a finite number")
    return value


def _word(raw: str) -> str:
    return raw.strip()


@dataclass(frozen=True)
class _Key:
    section: str
    name: str
    field: str
    parse: Callable[[str], object]
    check: Callable[[object], bool]
    expect: str


def _choice(*options):
    return lambda v: v in options


_KEYS = [
    _Key("scenario", "seed", "seed", _int, lambda v: 0 <= v < 2 ** 63,
         "an integer in [0, 2^63)"),
    _Key("scenario", "preset", "preset", _word, lambda v: True, ""),
    _Key("scenario", "sessions", "sessions", _int, lambda v: v >= 0,
         "a nonnegative integer"),
    _Key("arena", "width", "arena_width", _float, lambda v: v > 0, "positive"),
    _Key("arena", "height", "arena_height", _float, lambda v: v > 0, "positive"),
    # the runner numbers stations 1..99, devices 101..999 and authority
    # shareholders from 1001, so these caps keep the id blocks apart
    _Key("nodes", "base_stations", "base_stations", _int,
         lambda v: 1 <= v <= 99, "in [1, 99]"),
    _Key("nodes", "ue_count", "ue_count", _int, lambda v: 1 <= v <= 899,
         "in [1, 899]"),
    _Key("mobility", "speed_min", "speed_min", _float, lambda v: v >= 0,
         "nonnegative"),
    _Key("mobility", "speed_max", "speed_max", _float, lambda v: v > 0,
         "positive"),
    _Key("mobility", "epoch_duration", "epoch_duration", _float,
         lambda v: v > 0, "positive"),
    _Key("ncc", "protocol", "protocol", _word, _choice("ncc", "unicast"),
         "one of: ncc, unicast"),
    _Key("ncc", "phase_mode", "phase_mode", _word,
         _choice("sequential", "parallel"), "one of: sequential, parallel"),
    _Key("ncc", "generation_size", "generation_size", _int,
         lambda v: 1 <= v <= 1024, "in [1, 1024]"),
    _Key("ncc", "generations", "generations", _int, lambda v: v >= 1,
         "at least 1"),
    _Key("ncc", "redundancy", "redundancy", _float, lambda v: v >= 1.0,
         "at least 1.0"),
    _Key("ncc", "payload_bytes", "payload_bytes", _int, lambda v: v >= 1,
         "at least 1"),
    _Key("links", "cellular_rate", "cellular_rate", _float, lambda v: v > 0,
         "positive"),
    _Key("links", "cellular_loss", "cellular_loss", _float,
         lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    _Key("links", "cellular_energy", "cellular_energy", _float,
         lambda v: v >= 0, "nonnegative"),
    _Key("links", "cellular_range", "cellular_range", _float, lambda v: v > 0,
         "positive"),
    _Key("links", "shortrange_rate", "shortrange_rate", _float,
         lambda v: v > 0, "positive"),
    _Key("links", "shortrange_loss", "shortrange_loss", _float,
         lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    _Key("links", "shortrange_energy", "shortrange_energy", _float,
         lambda v: v >= 0, "nonnegative"),
    _Key("links", "shortrange_range", "shortrange_range", _float,
         lambda v: v > 0, "positive"),
    _Key("handover", "epochs", "ho_epochs", _int, lambda v: v >= 0,
         "a nonnegative integer"),
    _Key("handover", "hysteresis_db", "hysteresis_db", _float,
         lambda v: v >= 0, "nonnegative"),
    _Key("km", "shareholders", "km_shareholders", _int, lambda v: v >= 1,
         "at least 1"),
    _Key("km", "threshold", "km_threshold", _int, lambda v: v >= 1,
         "at least 1"),
    _Key("km", "group", "km_group", _word, _choice("toy", "demo", "2048"),
         "one of: toy, demo, 2048"),
    _Key("km", "requesters", "km_requesters", _int, lambda v: v >= 0,
         "a nonnegative integer"),
]

_BY_SECTION_KEY = {(k.section, k.name): k for k in _KEYS}
_BY_DOTTED = {f"{k.section}.{k.name}": k for k in _KEYS}
_SECTIONS = []
for _k in _KEYS:
    if _k.section not in _SECTIONS:
        _SECTIONS.append(_k.section)


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


def _scan(text: str):
    """Yield (line_no, key_spec, raw_value); reject anything unknown."""
    section = None
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


def _convert(spec: _Key, raw, line_no=None):
    try:
        value = spec.parse(raw) if isinstance(raw, str) else raw
    except ValueError:
        raise ConfigError(
            f"{spec.section}.{spec.name}: cannot parse {raw!r}", line_no
        ) from None
    if not spec.check(value):
        raise ConfigError(
            f"{spec.section}.{spec.name} = {value!r} out of range, "
            f"expected {spec.expect}", line_no)
    return value


def _cross_validate(values: dict, lines: Optional[dict] = None) -> None:
    """Reject combinations of individually valid values.

    ``lines`` maps a field to the line that set it: its own key, or the
    ``preset =`` line for a value taken from a preset. An error names the
    last such line among the fields it involves, i.e. the line at which
    the file became inconsistent; values with no line (defaults and
    overrides) leave the error without one.
    """
    def fail(message: str, *involved: str):
        found = [lines[f] for f in involved if lines and f in lines]
        raise ConfigError(message, max(found) if found else None)

    if values["km_threshold"] > values["km_shareholders"]:
        fail("km.threshold exceeds km.shareholders",
             "km_threshold", "km_shareholders")
    if values["km_group"] == "toy" and values["km_shareholders"] > 10:
        fail("the toy group supports at most 10 shareholders",
             "km_group", "km_shareholders")
    if values["speed_min"] > values["speed_max"]:
        fail("mobility.speed_min exceeds mobility.speed_max",
             "speed_min", "speed_max")
    walk = values["speed_max"] * values["epoch_duration"]
    if walk > max_step_walk(values["arena_width"], values["arena_height"]):
        # each epoch's walk hops waypoint to waypoint until spent, so an
        # unbounded walk per arena would mean unbounded work per epoch
        fail(f"mobility.speed_max x mobility.epoch_duration = {walk!r} m "
             f"exceeds {MAX_STEP_DIAGONALS:g} arena diagonals "
             f"({values['arena_width']!r} x {values['arena_height']!r})",
             "speed_max", "epoch_duration", "arena_width", "arena_height")
    product = values["redundancy"] * values["generation_size"]
    # a product that overflows to inf is too many packets for any g
    coded = math.ceil(product) if math.isfinite(product) else product
    if coded > 256 ** values["generation_size"] - 1:
        # each coded packet of a generation carries a distinct nonzero
        # coefficient vector, and only 256^g - 1 of those exist
        fail(f"ncc.redundancy = {values['redundancy']!r} needs {coded} distinct "
             f"coded packets per generation, but generation_size = "
             f"{values['generation_size']} allows at most "
             f"{256 ** values['generation_size'] - 1}",
             "redundancy", "generation_size")


def parse_config(text: str, seed: Optional[int] = None) -> Scenario:
    """Text to a fully validated Scenario.

    ``seed`` (e.g. from a command-line flag) overrides or supplies the
    mandatory scenario.seed. Preset values apply first; explicit keys in
    the file win over the preset.
    """
    pairs = _scan(text)
    values = {f.name: f.default for f in fields(Scenario) if f.name != "seed"}
    values["seed"] = _MISSING
    lines = {}

    for line_no, spec, raw in pairs:
        if spec.field == "preset":
            name = raw
            if name not in PRESETS:
                known = ", ".join(sorted(PRESETS))
                raise ConfigError(f"unknown preset {name!r}; known: {known}",
                                  line_no)
            values.update(PRESETS[name])
            values["preset"] = name
            lines.update(dict.fromkeys(PRESETS[name], line_no))
            break

    for line_no, spec, raw in pairs:
        if spec.field == "preset":
            continue
        values[spec.field] = _convert(spec, raw, line_no)
        lines[spec.field] = line_no

    if seed is not None:
        values["seed"] = _convert(_BY_DOTTED["scenario.seed"], str(seed))
    if values["seed"] is _MISSING:
        raise ConfigError("scenario.seed is required (no implicit seeding)")

    _cross_validate(values, lines)
    return Scenario(**values)


def apply_overrides(scenario: Scenario, overrides: dict) -> Scenario:
    """Replace dotted-key values (`section.key`) on an existing scenario,
    with the same validation as the file parser."""
    changes = {}
    for dotted, raw in overrides.items():
        spec = _BY_DOTTED.get(dotted)
        if spec is None:
            raise ConfigError(f"unknown key {dotted!r}")
        changes[spec.field] = _convert(spec, raw)
    updated = replace(scenario, **changes)
    _cross_validate({f.name: getattr(updated, f.name)
                     for f in fields(Scenario)})
    return updated


def default_scenario(seed: int, **overrides) -> Scenario:
    scenario = Scenario(seed=seed, **overrides)
    _cross_validate({f.name: getattr(scenario, f.name)
                     for f in fields(Scenario)})
    return scenario


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
            lines.append(f"{key.name} = "
                         f"{_format_value(getattr(scenario, key.field))}")
        lines.append("")
    return "\n".join(lines)


def field_value(scenario: Scenario, dotted: str):
    """Value behind a dotted `section.key` name."""
    spec = _BY_DOTTED.get(dotted)
    if spec is None:
        raise ConfigError(f"unknown key {dotted!r}")
    return getattr(scenario, spec.field)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Dotted-key echo of every resolved value, for output records."""
    return {f"{k.section}.{k.name}": getattr(scenario, k.field)
            for k in _KEYS}


def scenario_hash(scenario: Scenario) -> str:
    """Content address of the resolved scenario; key order in the source
    file cannot affect it because serialization is canonical."""
    return hashlib.sha256(serialize_scenario(scenario).encode()).hexdigest()
