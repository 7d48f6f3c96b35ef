"""Run configuration: one JSON file holding the ensemble, cavity, chopper,
phase-noise and lock-in sections plus run-level settings.

Validation is strict: unknown keys are rejected, and every module-level
invariant is checked at load time. Error messages carry the line number of
the offending key in the source file where it can be located.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, InvalidParameterError
from .params import (
    CavityParams,
    ChopperCycle,
    LockinConfig,
    OptimizedDeviceParams,
    PhaseNoisePSD,
    SpinEnsembleParams,
    is_finite_number,
)

_ENSEMBLE_KEYS = {
    "n_spins": "n_spins",
    "g_hz": "g",
    "t2_star_s": "t2_star",
    "t1_dark_s": "t1_dark",
    "t1_light_s": "t1_light",
    "zfs_hz": "zfs",
    "gamma_hz_per_gauss": "gamma",
    "projection_factor": "projection_factor",
}
_CAVITY_KEYS = {
    "omega_c_hz": "omega_c",
    "q": "q",
    "beta": "beta",
    "k": "k",
    "phi0": "phi0",
}
_CYCLE_KEYS = {
    "period_s": "period",
    "duty": "duty",
    "n_periods": "n_periods",
    "dt_s": "dt",
}
_LOCKIN_KEYS = {
    "f_mod_hz": "f_mod",
    "fs_hz": "fs",
    "duration_s": "duration",
}
_OPTIMIZED_KEYS = {
    "g_hz": "g",
    "omega_0_hz": "omega_0",
    "q": "q",
    "delta_hz": "delta",
    "t2_s": "t2",
    "n_spins": "n_spins",
}
_TOP_KEYS = {
    "ensemble", "cavity", "cycle", "psd", "lockin", "optimized",
    "b_fields_gauss", "p_sat", "seed", "output_dir",
}


@dataclass(frozen=True)
class RunConfig:
    ensemble: SpinEnsembleParams
    cavity: CavityParams
    cycle: ChopperCycle
    psd: PhaseNoisePSD
    lockin: LockinConfig
    optimized: OptimizedDeviceParams
    b_fields: tuple
    p_sat: float
    seed: int
    output_dir: str


_MEMBER = re.compile(r'\s*("(?:[^"\\]|\\.)*")\s*:\s*')
_COMMA = re.compile(r"\s*,")


def _members(source: str):
    """(name, key position, value start, value end) of each top-level member
    of the JSON object in ``source``, in file order."""
    decoder = json.JSONDecoder()
    pos = source.index("{") + 1
    while (member := _MEMBER.match(source, pos)) is not None:
        _, end = decoder.raw_decode(source, member.end())
        yield json.loads(member.group(1)), member.start(1), member.end(), end
        comma = _COMMA.match(source, end)
        if comma is None:
            return
        pos = comma.end()


def _line_of(source: str, key: str, section: Optional[str] = None) -> Optional[int]:
    """Line of the top-level ``"key"`` in ``source``; with ``section``, of the
    first ``"key"`` inside the value of that top-level section."""
    for name, key_pos, start, end in _members(source):
        if section is None and name == key:
            pos = key_pos
        elif section is not None and name == section:
            pos = source.find(f'"{key}"', start, end)
        else:
            continue
        return None if pos < 0 else source.count("\n", 0, pos) + 1
    return None


def _build(section_name, mapping, data, cls, source):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section_name}' must be an object",
                          _line_of(source, section_name))
    unknown = set(data) - set(mapping)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(
            f"unknown key '{key}' in section '{section_name}'",
            _line_of(source, key, section_name),
        )
    kwargs = {mapping[k]: v for k, v in data.items()}
    try:
        return cls(**kwargs)
    except (InvalidParameterError, TypeError) as exc:
        raise ConfigError(
            f"invalid '{section_name}' section: {exc}", _line_of(source, section_name)
        ) from exc


def _b_fields(value, source) -> tuple:
    """Non-empty list of finite fields (gauss), else a located ConfigError."""
    if not (isinstance(value, list) and value
            and all(is_finite_number(b) for b in value)):
        raise ConfigError(
            "b_fields_gauss must be a non-empty list of finite numbers, "
            f"got {value!r}", _line_of(source, "b_fields_gauss"))
    return tuple(float(b) for b in value)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    if not isinstance(data, dict):
        raise ConfigError("the configuration must be a JSON object")

    unknown = set(data) - _TOP_KEYS
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown top-level key '{key}'", _line_of(source, key))
    for required in ("ensemble", "cavity", "cycle", "psd", "lockin"):
        if required not in data:
            raise ConfigError(f"missing required section '{required}'")

    ensemble = _build("ensemble", _ENSEMBLE_KEYS, data["ensemble"],
                      SpinEnsembleParams, source)
    cavity = _build("cavity", _CAVITY_KEYS, data["cavity"], CavityParams, source)
    cycle = _build("cycle", _CYCLE_KEYS, data["cycle"], ChopperCycle, source)
    try:
        psd = PhaseNoisePSD.from_dict(data["psd"])
    except (InvalidParameterError, TypeError) as exc:
        raise ConfigError(f"invalid 'psd' section: {exc}",
                          _line_of(source, "psd")) from exc
    lockin = _build("lockin", _LOCKIN_KEYS, data["lockin"], LockinConfig, source)
    optimized = _build("optimized", _OPTIMIZED_KEYS, data.get("optimized", {}),
                       OptimizedDeviceParams, source)

    b_fields = _b_fields(data.get("b_fields_gauss", [32.0]), source)
    p_sat = data.get("p_sat", 1.0)
    if not (is_finite_number(p_sat) and 0 < p_sat <= 1):
        raise ConfigError(f"p_sat must be a number in (0, 1], got {p_sat!r}",
                          _line_of(source, "p_sat"))
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}",
                          _line_of(source, "seed"))
    output_dir = data.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}",
                          _line_of(source, "output_dir"))
    return RunConfig(ensemble, cavity, cycle, psd, lockin, optimized,
                     b_fields, float(p_sat), seed, output_dir)
