"""Optical spectroscopy of alkali-hybridized noble-gas spin resonances.

The package models two coupled spin ensembles — an optically accessible
alkali vapor and a noble gas with an hours-long coherence time — whose weak
spin-exchange coupling lets light drive and read out the noble-gas
resonance. It provides the closed-form steady-state response, exact
time-domain evolution, the lock-in/estimation layer, and five
end-to-end measurement protocols behind a CLI.

All rates and frequencies follow a single convention described in
:mod:`nobleline.model`.
"""

# before the imports: experiments reads it while the package initializes
__version__ = "0.1.0"

from .config import (Bundle, ScenarioConfig, config_from_mapping, load_config,
                     preset_path, scenario_with)
from .dynamics import (Segment, SidebandResponse, SpinTrajectory,
                       TransientResult, evolve_exact, exact_linear_response,
                       excite_and_readout, magnetic_pulse_transient,
                       slow_mode, tilt_state)
from .experiments import ScanResult, run_scenario
from .model import (ConfigError, Detunings, FitConvergenceError, GasCell,
                    MagneticConfig, NoblelineError, OpticalParams,
                    SystemParams, TWO_PI, ValidityError, build_system,
                    compute_detunings, derive_exchange_rates, derive_larmor,
                    derive_optics, ideal_gas_density)
from .signals import (LineFit, LinearFit, SinusoidFit, fit_decaying_sinusoid,
                      fit_inverted_lorentzian, fit_linear, heterodyne_extract)
from .spectrum import (LineShape, S2Response, alkali_coherence,
                       evaluate_spectrum, hybrid_linewidth, line_center,
                       line_shape, noble_coherence, phase_shift,
                       s2_response, transmitted_ratio)

__all__ = [name for name in dir() if not name.startswith("_")]
