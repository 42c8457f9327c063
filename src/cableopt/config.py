"""Study configuration: JSON files with Table-I-style units.

Cable parameters are accepted in the units data sheets print them in
(ohm/km, mH/km, uF/km, S/km, kV, A, Hz) and converted to SI on load.
A built-in profile carries the 220 kV 1000 mm2 reference cable; explicit
keys override profile values.
"""

from __future__ import annotations

import json
import math
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

_CABLE_KEYS = {
    "profile", "r_ohm_per_km", "l_mh_per_km", "c_uf_per_km", "g_s_per_km",
    "length_km", "nominal_voltage_kv", "rated_current_a", "frequency_hz",
}
_CONSTRAINT_KEYS = {
    "v2_min", "v2_max", "alpha_min", "alpha_max", "i_rated_a",
    "check_internal_current", "check_internal_voltage_max", "n_profile_segments",
}
_TOP_KEYS = {"cable", "constraints", "sweep", "annual", "envelope"}
#: kind of each study-block value the subcommands read: "number", "numbers"
#: (a list), "pair" (two numbers), "text" (a string) or "texts" (strings)
_STUDY_KINDS = {
    "sweep": {"p_min_mw": "number", "p_max_mw": "number", "p_step_mw": "number",
              "voltages": "numbers", "optimal_range": "pair"},
    "annual": {"rated_mw": "number", "curve": "text", "strategies": "texts"},
    "envelope": {"lengths_km": "numbers", "voltages": "numbers"},
}


@dataclass(frozen=True)
class StudyConfig:
    """Resolved configuration: cable + constraints + raw study blocks."""

    cable: CableSpec
    constraints: Constraints
    sweep: dict = field(default_factory=dict)
    annual: dict = field(default_factory=dict)
    envelope: dict = field(default_factory=dict)


def _require_number(block: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{block}.{key}: expected a finite number, got {value!r}")
    return float(value)


def _study_block(name: str, d) -> dict:
    """A copy of the sweep, annual or envelope block with its values type-checked."""
    if not isinstance(d, dict):
        raise ConfigError(f"{name}: expected an object")
    out = dict(d)
    for key, kind in _STUDY_KINDS[name].items():
        if key not in d:
            continue
        value = d[key]
        if kind == "number":
            out[key] = _require_number(name, key, value)
        elif kind in ("numbers", "pair"):
            if not isinstance(value, list) or (kind == "pair" and len(value) != 2):
                raise ConfigError(f"{name}.{key}: expected a list of "
                                  f"{'two ' if kind == 'pair' else ''}numbers, got {value!r}")
            out[key] = [_require_number(name, key, v) for v in value]
        elif kind == "text" and not isinstance(value, str):
            raise ConfigError(f"{name}.{key}: expected a string, got {value!r}")
        elif kind == "texts" and not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise ConfigError(f"{name}.{key}: expected a list of strings, got {value!r}")
    return out


def cable_from_dict(d: dict) -> CableSpec:
    unknown = set(d) - _CABLE_KEYS
    if unknown:
        raise ConfigError(f"cable: unknown keys {sorted(unknown)}; accepted: {sorted(_CABLE_KEYS)}")
    profile = d.get("profile", DEFAULT_CABLE_PROFILE)
    if profile not in BUILTIN_CABLES:
        raise ConfigError(f"cable.profile: unknown profile {profile!r}; "
                          f"available: {sorted(BUILTIN_CABLES)}")
    merged = dict(BUILTIN_CABLES[profile])
    merged.update({k: v for k, v in d.items() if k != "profile"})
    vals = {k: _require_number("cable", k, merged[k]) for k in merged}
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
    unknown = set(d) - _CONSTRAINT_KEYS
    if unknown:
        raise ConfigError(f"constraints: unknown keys {sorted(unknown)}; "
                          f"accepted: {sorted(_CONSTRAINT_KEYS)}")
    kwargs = {}
    for key in ("v2_min", "v2_max", "alpha_min", "alpha_max"):
        if key in d:
            kwargs[key] = _require_number("constraints", key, d[key])
    if d.get("i_rated_a") is not None:
        kwargs["i_rated"] = _require_number("constraints", "i_rated_a", d["i_rated_a"])
    if "check_internal_current" in d:
        if not isinstance(d["check_internal_current"], bool):
            raise ConfigError("constraints.check_internal_current: expected true/false")
        kwargs["check_internal_current"] = d["check_internal_current"]
    if d.get("check_internal_voltage_max") is not None:
        kwargs["check_internal_voltage_max"] = _require_number(
            "constraints", "check_internal_voltage_max", d["check_internal_voltage_max"])
    if "n_profile_segments" in d:
        n = d["n_profile_segments"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigError("constraints.n_profile_segments: expected an integer")
        kwargs["n_profile_segments"] = n
    try:
        return Constraints(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"constraints: {exc}") from exc


def config_from_dict(d: dict) -> StudyConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"config root must be an object, got {type(d).__name__}")
    unknown = set(d) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}; accepted: {sorted(_TOP_KEYS)}")
    return StudyConfig(
        cable=cable_from_dict(d.get("cable", {})),
        constraints=constraints_from_dict(d.get("constraints", {})),
        **{name: _study_block(name, d.get(name, {})) for name in _STUDY_KINDS},
    )


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
