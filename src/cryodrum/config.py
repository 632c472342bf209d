"""Configuration file loading.

Plain INI files (configparser syntax) with section headers

    [system]            cavity/mechanics constants (omega_c, kappa, kappa_ex,
                        kappa_0, omega_m, gamma_m, g0)
    [baths]             n_c_th, n_m_th  (or temperature, from which n_m_th is
                        derived through the exact Bose occupation)
    [drives.<role>]     one section per tone; role in {cooling_pump,
                        red_probe, blue_probe}; keys: delta plus one of
                        gamma_opt / cooperativity
    [geometry]          drum geometry for the device figures (radius,
                        bottom_radius, thickness, gap, density, stress,
                        youngs_modulus, xi_par, q0; dilution_a/b optional)

Numbers are SI values with an optional k/M/G suffix (2.5k == 2500.0);
scientific notation is accepted as well.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from pathlib import Path

from .core import (
    BathOccupations,
    DriveSet,
    SystemParams,
    bath_occupations,
    bose_occupation,
    drive_tone,
    validate_params,
)
from .errors import ConfigError

_SUFFIXES = {"k": 1e3, "M": 1e6, "G": 1e9}


def parse_number(text: str) -> float:
    """Parse a number with an optional k/M/G suffix; ConfigError unless it
    parses to a finite value (nan, inf and 1e308G do not)."""
    s = text.strip()
    if not s:
        raise ConfigError("empty numeric value")
    if s[-1] in _SUFFIXES:
        scale = _SUFFIXES[s[-1]]
        s = s[:-1]
    else:
        scale = 1.0
    try:
        value = float(s) * scale
    except ValueError as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"number {text!r} is not finite")
    return value


def _section_numbers(cp: configparser.ConfigParser, name: str) -> dict:
    if not cp.has_section(name):
        raise ConfigError(f"missing [{name}] section")
    return {key: parse_number(val) for key, val in cp.items(name)}


def read_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp.read(path)
    return cp


def load_system(cp: configparser.ConfigParser) -> SystemParams:
    """Build validated SystemParams from the [system] section."""
    values = _section_numbers(cp, "system")
    if "kappa" not in values and {"kappa_ex", "kappa_0"} <= values.keys():
        values["kappa"] = values["kappa_ex"] + values["kappa_0"]
    try:
        return validate_params(values)
    except KeyError as exc:
        raise ConfigError(f"[system] missing key {exc}") from exc


def load_baths(cp: configparser.ConfigParser,
               params: SystemParams) -> BathOccupations:
    """Build BathOccupations from the [baths] section.

    n_m_th may be given directly (the measured effective bath occupancy) or
    derived from a fridge temperature; a direct value wins when both appear.
    """
    if not cp.has_section("baths"):
        return bath_occupations(params, n_c_th=0.0, n_m_th=0.0)
    values = _section_numbers(cp, "baths")
    n_c_th = values.get("n_c_th", 0.0)
    if "n_m_th" in values:
        n_m_th = values["n_m_th"]
    elif "temperature" in values:
        n_m_th = bose_occupation(params.omega_m, values["temperature"])
    else:
        n_m_th = 0.0
    return bath_occupations(params, n_c_th=n_c_th, n_m_th=n_m_th)


def load_drives(cp: configparser.ConfigParser,
                params: SystemParams) -> DriveSet:
    """Build a DriveSet from the [drives.<role>] sections."""
    tones = []
    for section in cp.sections():
        if not section.startswith("drives."):
            continue
        role = section.split(".", 1)[1]
        values = _section_numbers(cp, section)
        tones.append(drive_tone(
            role,
            gamma_m=params.gamma_m,
            delta=values.get("delta", 0.0),
            gamma_opt=values.get("gamma_opt"),
            cooperativity=values.get("cooperativity"),
        ))
    return DriveSet(tones=tuple(tones), gamma_m=params.gamma_m)


def load_geometry(cp: configparser.ConfigParser):
    """Build a DrumGeometry from the [geometry] section's keys that are
    DrumGeometry fields; DrumGeometry alone holds the defaults of the
    optional ones, and other keys are ignored."""
    from .device import DrumGeometry

    values = _section_numbers(cp, "geometry")
    known = {}
    for field in dataclasses.fields(DrumGeometry):
        if field.name in values:
            known[field.name] = values[field.name]
        elif field.default is dataclasses.MISSING:
            raise ConfigError(f"[geometry] missing key {field.name!r}")
    return DrumGeometry(**known)
