"""INI configuration loading and resolution into model objects.

A run is described by up to five sections. [gas_cell], [optics], and
[magnetics] hold physical inputs; [system] holds the directly-measured rates
(gamma_a, gamma_b are required there — nothing derives them) plus optional
overrides that win over any derived value; [scenario] selects and tunes a
protocol. Each section's keys are the fields of the class it resolves
into (GasCell, OpticalParams, MagneticConfig, SystemParams, ScenarioConfig),
plus [optics] wavelength and [system] exchange; that class's constructor
names any required key left out. Unknown sections or keys are hard errors:
a typo that silently reverts a parameter to its default would poison a scan.

The resolved, typed mapping travels into every output's provenance block and
can be fed back through :func:`config_from_mapping` to reproduce a run.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields as dc_fields
from importlib import resources

from scipy import constants as _const

from .model import (ConfigError, GasCell, MagneticConfig, OpticalParams,
                    SystemParams, build_system, derive_optics)

#: default bias-field grid for sweeps, mG (log-spaced, includes both
#: calibration anchor fields)
DEFAULT_FIELD_GRID = (4.0, 5.0, 6.1, 7.3, 8.8, 10.7, 12.9, 15.6, 18.8,
                      22.7, 27.4, 33.1, 40.0)

SCENARIO_NAMES = ("spectrum", "excite", "sweep_field", "transient",
                  "calibrate")


def _parse_float(text):
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text):
    try:
        return int(str(text))
    except (TypeError, ValueError):
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float_list(value):
    parts = (value if isinstance(value, (list, tuple))
             else str(value).replace(",", " ").split())
    if not parts:
        raise ConfigError("expected a list of numbers, got nothing")
    return tuple(_parse_float(p) for p in parts)


@dataclass(frozen=True)
class ScenarioConfig:
    """Protocol selection and tuning knobs with safe defaults."""

    name: str = "spectrum"
    seed: int = 0
    noise_sigma: float = 0.0
    points: int = 41
    span_halfwidths: float = 5.0
    baseline_halfwidths: tuple = (10.0, 20.0, 30.0, 40.0)
    fields: tuple = DEFAULT_FIELD_GRID
    pulse_efolds: float = 3.0
    ramp_efolds: float = 0.0
    dead_efolds: float = 6.0
    observe_efolds: float = 2.0
    samples_per_cycle: float = 32.0
    demod_periods: float = 8.0
    tilt_amplitude: float = 1.0
    signal_amplitude: float = 1.0
    method: str = "closed_form"
    trials: int = 200
    out_prefix: str = ""

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario name {self.name!r}; "
                              f"expected one of {SCENARIO_NAMES}")
        if self.method not in ("closed_form", "demodulated"):
            raise ConfigError(f"unknown scenario method {self.method!r}")
        if self.points < 5:
            raise ConfigError("scenario needs at least 5 grid points")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if len(set(self.fields)) != len(self.fields) or len(self.fields) < 3:
            raise ConfigError("fields must hold at least 3 distinct values")
        for knob in ("pulse_efolds", "observe_efolds", "samples_per_cycle",
                     "demod_periods"):
            if not getattr(self, knob) > 0:
                raise ConfigError(f"{knob} must be positive")
        if not 0 <= self.ramp_efolds < 0.5 * self.pulse_efolds:
            raise ConfigError("ramp_efolds must be non-negative and below "
                              "half of pulse_efolds")
        if not self.dead_efolds >= 0:
            raise ConfigError("dead_efolds must be non-negative")
        for knob in ("signal_amplitude", "tilt_amplitude"):
            if not abs(getattr(self, knob)) > 0:
                raise ConfigError(f"{knob} must be nonzero")


def _float_keys(cls, *inputs) -> dict:
    """Parsers for a physical section: every field of cls and each extra
    input resolved into a field (see config_from_mapping) is a float."""
    return dict.fromkeys([f.name for f in dc_fields(cls)] + list(inputs),
                         _parse_float)


_PARSE_BY_TYPE = {str: str, int: _parse_int, float: _parse_float,
                  tuple: _parse_float_list}

# section -> key -> parser, built from the classes each section resolves into
_SCHEMAS = {
    "gas_cell": _float_keys(GasCell),
    "optics": _float_keys(OpticalParams, "wavelength"),
    "magnetics": _float_keys(MagneticConfig),
    "system": _float_keys(SystemParams, "exchange"),
    "scenario": {f.name: _PARSE_BY_TYPE[type(f.default)]
                 for f in dc_fields(ScenarioConfig)},
}


@dataclass(frozen=True)
class Bundle:
    """Everything a run needs, resolved and validated."""

    system: SystemParams
    scenario: ScenarioConfig
    cell: GasCell | None = None
    optics: OpticalParams | None = None
    magnetics: MagneticConfig | None = None
    mapping: dict = field(default_factory=dict, compare=False)


def _typed_mapping(raw: dict) -> dict:
    typed = {}
    for section, entries in raw.items():
        if section not in _SCHEMAS:
            raise ConfigError(f"unknown section [{section}]; "
                              f"expected one of {sorted(_SCHEMAS)}")
        schema = _SCHEMAS[section]
        out = {}
        for key, value in entries.items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                out[key] = schema[key](value)
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
        typed[section] = out
    return typed


def _resolve_photon_energy(optics_map: dict) -> dict:
    out = dict(optics_map)
    wavelength = out.pop("wavelength", None)
    if (wavelength is None) == (out.get("photon_energy") is None):
        raise ConfigError("[optics] needs exactly one of wavelength (nm) "
                          "or photon_energy (J)")
    if wavelength is not None:
        if wavelength <= 0:
            raise ConfigError("[optics] wavelength must be positive")
        out["photon_energy"] = _const.h * _const.c / (wavelength * 1e-9)
    return out


def config_from_mapping(raw: dict) -> Bundle:
    """Resolve a {section: {key: value}} mapping into a Bundle.

    Values may be strings (as parsed from INI) or already-typed numbers
    (as stored in a provenance block); both resolve identically.
    """
    typed = _typed_mapping(raw)
    if "system" not in typed:
        raise ConfigError("a [system] section with gamma_a and gamma_b "
                          "is required")

    try:
        cell = GasCell(**typed["gas_cell"]) if "gas_cell" in typed else None
        magnetics = (MagneticConfig(**typed["magnetics"])
                     if "magnetics" in typed else None)
        optics = None
        if "optics" in typed:
            optics = OpticalParams(**_resolve_photon_energy(typed["optics"]))
            if optics.tilt_coeff is None or optics.faraday_coeff is None \
                    or optics.scattering_rate is None:
                if cell is None:
                    raise ConfigError("[optics] coupling derivation needs a "
                                      "[gas_cell] section (or give tilt_coeff,"
                                      " faraday_coeff, scattering_rate)")
                optics = derive_optics(optics, cell)
        system = build_system(magnetics=magnetics, cell=cell, optics=optics,
                              overrides=typed["system"])
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(str(exc)) from None

    scenario = ScenarioConfig(**typed.get("scenario", {}))
    return Bundle(system=system, scenario=scenario, cell=cell, optics=optics,
                  magnetics=magnetics, mapping=typed)


def load_config(path) -> Bundle:
    """Parse an INI file and resolve it (see config_from_mapping)."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found or unreadable: {path}")
    raw = {section: dict(parser.items(section))
           for section in parser.sections()}
    if not raw:
        raise ConfigError(f"config file has no sections: {path}")
    return config_from_mapping(raw)


def provenance_mapping(bundle: Bundle) -> dict:
    """JSON-safe resolved mapping, reloadable via config_from_mapping."""
    out = {}
    for section, entries in bundle.mapping.items():
        out[section] = {k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in entries.items()}
    return out


def scenario_with(scenario: ScenarioConfig, **updates) -> ScenarioConfig:
    """Copy a scenario with some fields replaced (validating the result)."""
    values = {f.name: getattr(scenario, f.name)
              for f in dc_fields(ScenarioConfig)}
    values.update(updates)
    return ScenarioConfig(**values)


def preset_path(name: str = "k3he_reference"):
    """Filesystem path of a packaged preset configuration."""
    ref = resources.files("nobleline").joinpath("presets", f"{name}.ini")
    if not ref.is_file():
        raise ConfigError(f"no packaged preset named {name!r}")
    return ref
