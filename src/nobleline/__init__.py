"""Optical spectroscopy of alkali-hybridized noble-gas spin resonances.

The package models two coupled spin ensembles — an optically accessible
alkali vapor and a noble gas with an hours-long coherence time — whose weak
spin-exchange coupling lets light drive and read out the noble-gas
resonance. It provides the closed-form steady-state response, exact
time-domain evolution, the lock-in/estimation layer, and five
end-to-end measurement protocols behind a CLI.

All rates and frequencies follow a single convention described in
:mod:`nobleline.model`.

The numpy modules (signals, dynamics, experiments) load on first use, so
importing the package or loading a config costs no numpy import.
"""

__version__ = "0.1.0"

import sys as _sys
from importlib import util as _util

from .config import (Bundle, ScenarioConfig, config_from_mapping, load_config,
                     preset_path, scenario_with)
from .model import (ConfigError, Detunings, FitConvergenceError, GasCell,
                    MagneticConfig, NoblelineError, OpticalParams,
                    SystemParams, TWO_PI, ValidityError, build_system,
                    compute_detunings, derive_exchange_rates, derive_larmor,
                    derive_optics, ideal_gas_density)
from .spectrum import (LineShape, S2Response, alkali_coherence,
                       evaluate_spectrum, hybrid_linewidth, line_center,
                       line_shape, noble_coherence, phase_shift,
                       s2_response, transmitted_ratio)


def _defer(name: str):
    """nobleline.<name>, registered in sys.modules as a module whose code
    runs on its first attribute access."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


signals = _defer("signals")
dynamics = _defer("dynamics")
experiments = _defer("experiments")

# exported name -> the deferred module that defines it
_HOMES = {name: module for module, names in (
    (signals, ("LineFit", "LinearFit", "SinusoidFit",
               "fit_decaying_sinusoid", "fit_inverted_lorentzian",
               "fit_linear", "heterodyne_extract")),
    (dynamics, ("Segment", "SidebandResponse", "SpinTrajectory",
                "TransientResult", "evolve_exact", "exact_linear_response",
                "excite_and_readout", "magnetic_pulse_transient",
                "slow_mode", "tilt_state")),
    (experiments, ("ScanResult", "run_scenario"))) for name in names}


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(home, name)


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_HOMES))
