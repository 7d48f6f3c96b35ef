"""Run configuration: one JSON file holding the ensemble, cavity, chopper,
phase-noise and lock-in sections plus run-level settings.

Only this module knows the JSON format: one builder makes every section and
PSD segment from a map of its JSON keys to its parameter class's fields. An
unknown key is reported at its own line. A missing key (by its JSON name)
and a bad value are reported at the line of their top-level section. The
fields of ``b_fields_gauss`` meet the one field rule, the one
``physics.transition_frequency`` applies for the config's ensemble.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, fields

from .errors import ConfigError, InvalidParameterError
from .io import JSON_SPACE, json_members, read_json
from .params import (
    CavityParams,
    ChopperCycle,
    LockinConfig,
    OptimizedDeviceParams,
    PhaseNoisePSD,
    PSDSegment,
    SpinEnsembleParams,
    check_fraction,
    check_seed,
)
from .physics import check_real, transition_frequency

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
_SEGMENT_KEYS = {
    "f_break_hz": "f_break",
    "exponent": "exponent",
    "level_rad2_per_hz": "level",
}
_PSD_KEYS = {
    "f_min_hz": "f_min",
    "f_max_hz": "f_max",
    "segments": ("segments", PSDSegment, _SEGMENT_KEYS),
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


def _line_of(source: str, *path) -> int | None:
    """Line of the member at ``path``, the keys and list indices that lead to
    it from the top of the JSON object in ``source``; None if it is absent."""
    key_pos = pos = JSON_SPACE.match(source).end()
    for step in path:
        key_pos, pos = next(((at, start) for key, at, start in json_members(source, pos)
                             if key == step), (None, None))
        if key_pos is None:
            return None
    return source.count("\n", 0, key_pos) + 1


def _build(source, path, data, cls, keys):
    """``cls`` from the JSON object ``data`` at ``path`` in ``source``.

    ``keys`` maps each allowed JSON key to a field of ``cls``; a list of
    objects maps to (field, item class, item keys), each item built alike.
    Keys whose field has no default are required. An unknown key is located
    at its own line, any other defect at its top-level section's line.
    """
    name = ".".join(map(str, path))
    if not isinstance(data, dict):
        raise ConfigError(f"section '{name}' must be an object",
                          _line_of(source, path[0]))
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in section '{name}'",
                          _line_of(source, *path, unknown[0]))
    kwargs = {}
    try:
        for key, spec in keys.items():
            field = spec if isinstance(spec, str) else spec[0]
            if key not in data:
                if field in {f.name for f in fields(cls) if f.default is MISSING}:
                    raise InvalidParameterError(f"missing key '{key}'")
                continue
            value = data[key]
            if not isinstance(spec, str):
                if not isinstance(value, list):
                    raise InvalidParameterError(f"'{key}' must be a list of objects")
                value = tuple(_build(source, path + (key, i), item, *spec[1:])
                              for i, item in enumerate(value))
            kwargs[field] = value
        return cls(**kwargs)
    except (InvalidParameterError, ArithmeticError) as exc:
        reason = exc if isinstance(exc, InvalidParameterError) else (
            f"values outside the floating-point range ({type(exc).__name__}: {exc})")
        raise ConfigError(f"invalid '{name}' section: {reason}",
                          _line_of(source, path[0])) from exc


def _fields(b_fields, ensemble):
    """``b_fields_gauss`` as floats: a non-empty list of JSON numbers, each a
    field that ``physics.transition_frequency`` takes for the ``ensemble``,
    none listed twice. A field it refuses is reported as ``b_fields_gauss =
    [...]: reason``."""
    if not (isinstance(b_fields, list) and b_fields
            and all(type(b) in (int, float) for b in b_fields)):
        raise InvalidParameterError("b_fields_gauss must be a non-empty list "
                                    f"of numbers, got {b_fields!r}")
    b = check_real(b_fields, "b_field")
    try:
        transition_frequency(b, ensemble)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"b_fields_gauss = {b_fields!r}: {exc}") from exc
    fields = b.tolist()
    if len(set(fields)) < len(fields):  # 32 and 32.0, or 0.0 and -0.0, are one field
        repeat = next(b_fields[i] for i, v in enumerate(fields) if v in fields[:i])
        raise InvalidParameterError(
            f"b_fields_gauss = {b_fields!r}: field {repeat!r} is listed more than once")
    return tuple(fields)


def _output_dir(output_dir):
    if not isinstance(output_dir, str) or not output_dir:
        raise InvalidParameterError("output_dir must be a non-empty string, got "
                                    f"{output_dir!r}")
    return output_dir


def _top_level(source, data, key, default, check):
    """``check`` of the top-level ``key`` of ``data`` (``default`` when it is
    absent). A rule it breaks is reported at the key's line."""
    value = data.get(key, default)
    try:
        return check(value)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), _line_of(source, key)) from exc


def load_config(path) -> RunConfig:
    source, data = read_json(path)  # names the file in its own errors
    try:
        if not isinstance(data, dict):
            raise ConfigError("the configuration must be a JSON object")

        unknown = set(data) - _TOP_KEYS
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"unknown top-level key '{key}'", _line_of(source, key))
        for required in ("ensemble", "cavity", "cycle", "psd", "lockin"):
            if required not in data:
                raise ConfigError(f"missing required section '{required}'")

        ensemble = _build(source, ("ensemble",), data["ensemble"],
                          SpinEnsembleParams, _ENSEMBLE_KEYS)
        cavity = _build(source, ("cavity",), data["cavity"], CavityParams, _CAVITY_KEYS)
        cycle = _build(source, ("cycle",), data["cycle"], ChopperCycle, _CYCLE_KEYS)
        psd = _build(source, ("psd",), data["psd"], PhaseNoisePSD, _PSD_KEYS)
        lockin = _build(source, ("lockin",), data["lockin"], LockinConfig, _LOCKIN_KEYS)
        optimized = _build(source, ("optimized",), data.get("optimized", {}),
                           OptimizedDeviceParams, _OPTIMIZED_KEYS)

        top = functools.partial(_top_level, source, data)
        return RunConfig(ensemble, cavity, cycle, psd, lockin, optimized,
                         top("b_fields_gauss", [32.0],
                             lambda b: _fields(b, ensemble)),
                         top("p_sat", 1.0, lambda p: check_fraction(p, "p_sat")),
                         top("seed", 0, lambda seed: check_seed(seed, "seed")),
                         top("output_dir", ".", _output_dir))
    except ConfigError as exc:
        raise ConfigError(exc.reason, exc.line, path) from exc
