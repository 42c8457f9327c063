"""Study configuration: JSON files with Table-I-style units.

Cable parameters are accepted in the units data sheets print them in
(ohm/km, mH/km, uF/km, S/km, kV, A, Hz) and converted to SI on load.
A built-in profile carries the 220 kV 1000 mm2 reference cable; explicit
keys override profile values.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .annual_energy import FixedVoltage, VoltageRange, VoltageStrategy, tap_range
from .cable_model import CableSpec, PulParameters
from .errors import ConfigError
from .optimizer import Constraints

#: Reference export-cable profiles, data-sheet units.
#: Note on the reference profile: the cable is the 220 kV class 1000 mm2
#: submarine cable, but the per-unit voltage base (1.0 p.u. operating
#: voltage) is its maximum operating voltage of 240 kV, which is the base
#: that reproduces the published loss/capability figures for this system.
BUILTIN_CABLES: dict[str, dict] = {
    "brakelmann-220kV-1000mm2": {
        "r_ohm_per_km": 0.048,
        "l_mh_per_km": 0.37,
        "c_uf_per_km": 0.18,
        "g_s_per_km": 0.0,
        "length_km": 200.0,
        "nominal_voltage_kv": 240.0,
        "rated_current_a": 1055.0,
        "frequency_hz": 50.0,
    },
}

DEFAULT_CABLE_PROFILE = "brakelmann-220kV-1000mm2"

#: kind of every key of every block of the study file: "number", "number or
#: null", "numbers" (a list), "pair" (two numbers), "bool", "int", "text"
#: (a string) or "texts" (strings)
_KINDS = {
    "cable": {"profile": "text", **dict.fromkeys(BUILTIN_CABLES[DEFAULT_CABLE_PROFILE], "number")},
    "constraints": {"v2_min": "number", "v2_max": "number", "alpha_min": "number",
                    "alpha_max": "number", "i_rated_a": "number or null",
                    "check_internal_current": "bool", "check_internal_voltage_max": "number or null",
                    "n_profile_segments": "int"},
    "sweep": {"p_min_mw": "number", "p_max_mw": "number", "p_step_mw": "number",
              "voltages": "numbers", "optimal_range": "pair"},
    "annual": {"rated_mw": "number", "curve": "text", "strategies": "texts"},
    "envelope": {"lengths_km": "numbers", "voltages": "numbers"},
}


@dataclass(frozen=True)
class StudyConfig:
    """Resolved configuration: cable + constraints + the validated study blocks."""

    cable: CableSpec
    constraints: Constraints
    sweep: dict = field(default_factory=dict)
    annual: dict = field(default_factory=dict)
    envelope: dict = field(default_factory=dict)


def _number(where: str, value) -> float:
    # a JSON integer is a Python int of any size, which float() may overflow;
    # the bound also rules out inf and NaN
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _value(where: str, kind: str, value):
    """value checked against its kind, numbers as floats."""
    if kind == "number" or (kind == "number or null" and value is not None):
        return _number(where, value)
    if kind in ("numbers", "pair"):
        if not isinstance(value, list) or (kind == "pair" and len(value) != 2):
            raise ConfigError(f"{where}: expected a list of "
                              f"{'two ' if kind == 'pair' else ''}numbers, got {value!r}")
        return [_number(where, v) for v in value]
    if kind == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true/false")
    if kind == "int" and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{where}: expected an integer")
    if kind == "text" and not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    if kind == "texts" and not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{where}: expected a list of strings, got {value!r}")
    return value


def _block(name: str, d) -> dict:
    """Block name of the study file: an object of known keys, each value checked by its kind."""
    kinds = _KINDS[name]
    if not isinstance(d, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(d) - set(kinds)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}; accepted: {sorted(kinds)}")
    return {key: _value(f"{name}.{key}", kinds[key], value) for key, value in d.items()}


def cable_from_dict(d: dict) -> CableSpec:
    """The CableSpec of a validated cable block: its profile, overridden by its keys, in SI."""
    profile = d.get("profile", DEFAULT_CABLE_PROFILE)
    if profile not in BUILTIN_CABLES:
        raise ConfigError(f"cable.profile: unknown profile {profile!r}; "
                          f"available: {sorted(BUILTIN_CABLES)}")
    vals = {**BUILTIN_CABLES[profile], **d}
    try:
        pul = PulParameters(
            r=vals["r_ohm_per_km"],
            l=vals["l_mh_per_km"] * 1e-3,
            c=vals["c_uf_per_km"] * 1e-6,
            g=vals["g_s_per_km"],
        )
        return CableSpec(
            pul=pul,
            length_km=vals["length_km"],
            nominal_voltage=vals["nominal_voltage_kv"] * 1e3,
            rated_current=vals["rated_current_a"],
            frequency=vals["frequency_hz"],
        )
    except ValueError as exc:
        raise ConfigError(f"cable: {exc}") from exc


def constraints_from_dict(d: dict) -> Constraints:
    """The Constraints of a validated constraints block; a null i_rated_a is the cable's rating."""
    kwargs = {("i_rated" if k == "i_rated_a" else k): v for k, v in d.items() if v is not None}
    try:
        return Constraints(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"constraints: {exc}") from exc


def config_from_dict(d: dict) -> StudyConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"config root must be an object, got {type(d).__name__}")
    unknown = set(d) - set(_KINDS)
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}; accepted: {sorted(_KINDS)}")
    blocks = {name: _block(name, d.get(name, {})) for name in _KINDS}
    return StudyConfig(cable=cable_from_dict(blocks.pop("cable")),
                       constraints=constraints_from_dict(blocks.pop("constraints")), **blocks)


def load_config(path: str | Path | None) -> StudyConfig:
    if path is None:
        return config_from_dict({})
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def normalized_si(cfg: StudyConfig) -> dict:
    """Resolved configuration in SI units, for audit echoes and hashing."""
    cab, cons = cfg.cable, cfg.constraints
    return {
        "cable": {
            "r_ohm_per_km": cab.pul.r,
            "l_h_per_km": cab.pul.l,
            "c_f_per_km": cab.pul.c,
            "g_s_per_km": cab.pul.g,
            "length_km": cab.length_km,
            "nominal_voltage_v": cab.nominal_voltage,
            "rated_current_a": cab.rated_current,
            "frequency_hz": cab.frequency,
        },
        "constraints": {
            "v2_min": cons.v2_min,
            "v2_max": cons.v2_max,
            "alpha_min": cons.alpha_min,
            "alpha_max": cons.alpha_max,
            "i_rated_a": cons.rated_current(cab),
            "check_internal_current": cons.check_internal_current,
            "check_internal_voltage_max": cons.check_internal_voltage_max,
            "n_profile_segments": cons.n_profile_segments,
        },
    }


def parse_strategy(text: str) -> VoltageStrategy:
    """Strategy mini-language: fixed:V | range:LO:HI | tap:NOMINAL:FRACTION."""
    parts = text.strip().split(":")
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            return FixedVoltage(float(parts[1]))
        if parts[0] == "range" and len(parts) == 3:
            return VoltageRange(float(parts[1]), float(parts[2]))
        if parts[0] == "tap" and len(parts) == 3:
            return tap_range(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"bad strategy {text!r}: {exc}") from exc
    raise ConfigError(
        f"bad strategy {text!r}; use fixed:V, range:LO:HI or tap:NOMINAL:FRACTION"
    )
