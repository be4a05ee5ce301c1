"""Config parsing, the packaged preset, and the load-time guards."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nobleline.config import (_SCHEMAS, MAX_SCAN_ROWS, Bundle,
                              ScenarioConfig, config_from_mapping,
                              load_config, preset_path, scenario_with)
from nobleline.model import _MAX_RATE, ConfigError, ValidityError

# a system that loads, for mappings to perturb
LOADABLE = {"system": {"gamma_a": "1.0", "gamma_b": "0.05", "omega_a": "500",
                       "omega_b": "25", "exchange": "2"}}

_NUMBERS = st.one_of(st.floats(), st.integers(-10, 10**6))
_VALUES = st.one_of(
    _NUMBERS, _NUMBERS.map(str),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "", "a", "5 6 7", "1,2"]),
    st.lists(st.one_of(_NUMBERS, _NUMBERS.map(str), st.just("a")),
             max_size=5))


def preset_mapping() -> dict:
    """The preset's typed sections, as fresh dicts to edit."""
    return {section: dict(entries)
            for section, entries in load_config(preset_path()).mapping.items()}


def test_preset_loads_reference_system():
    bundle = load_config(preset_path())
    sys = bundle.system
    assert sys.omega_a == pytest.approx(2200.0, rel=1e-12)
    assert sys.omega_b == pytest.approx(19.88, rel=1e-12)
    assert sys.gamma_a == 51.0
    assert sys.gamma_b == 2.4e-3
    assert sys.exchange == pytest.approx(14.0, rel=1e-12)
    assert sys.tilt_coeff == pytest.approx(1.429378233003323e-14, rel=1e-9)
    assert bundle.scenario.name == "spectrum"
    assert bundle.scenario.seed == 20260819
    assert bundle.optics is not None
    assert bundle.optics.optical_depth == 27.0


def test_preset_path_unknown_name():
    with pytest.raises(ConfigError):
        preset_path("does_not_exist")


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[gas_cel]\nalkali_density = 1e13\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[system]\ngamma_a = 51\ngamma_b = 2.4e-3\n"
                 "omega_a = 2200\nomega_b = 19.88\nmystery = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_missing_required_key_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    # optics without beam_area
    p.write_text("[system]\ngamma_a = 51\ngamma_b = 2.4e-3\n"
                 "omega_a = 2200\nomega_b = 19.88\n"
                 "[optics]\noptical_halfwidth = 12.5e9\n"
                 "optical_detuning = 5e11\ncontrol_power = 0.025\n"
                 "wavelength = 770\noptical_depth = 27\n")
    with pytest.raises(ConfigError, match="beam_area"):
        load_config(p)
    # in every section, the error names the key left out
    preset = preset_mapping()
    for section, key in (("gas_cell", "cell_diameter"),
                         ("optics", "optical_depth"),
                         ("magnetics", "alkali_gyromagnetic"),
                         ("system", "gamma_b")):
        raw = {name: dict(entries) for name, entries in preset.items()}
        del raw[section][key]
        with pytest.raises(ConfigError, match=key):
            config_from_mapping(raw)


def test_minimal_system_only_config(tmp_path):
    p = tmp_path / "min.ini"
    p.write_text("[system]\ngamma_a = 1.0\ngamma_b = 0.1\n"
                 "omega_a = 1000\nomega_b = 30\nexchange = 5\n")
    bundle = load_config(p)
    assert bundle.optics is None
    assert bundle.system.exchange == 5.0
    assert bundle.scenario.name == "spectrum"  # defaults apply


def test_wavelength_and_photon_energy_exclusive():
    base = {
        "system": {"gamma_a": 51.0, "gamma_b": 2.4e-3},
        "gas_cell": {"alkali_density": 8.5e13, "noble_pressure": 1500.0,
                     "temperature": 460.0, "alkali_polarization": 0.7,
                     "noble_polarization": 5.56e-3, "slowing_factor": 4.7,
                     "exchange_coefficient": 4e-15, "cell_diameter": 1.4},
        "magnetics": {"field": 6.1, "alkali_gyromagnetic": 592.0,
                      "noble_gyromagnetic": 3.259016393442623,
                      "noble_emf": 2.3837837837837834},
    }
    optics = {"beam_area": 0.1666, "optical_halfwidth": 12.5e9,
              "optical_detuning": 5e11, "control_power": 0.025,
              "optical_depth": 27.0}
    with pytest.raises(ConfigError):
        config_from_mapping({**base, "optics": dict(optics)})  # neither
    with pytest.raises(ConfigError):
        config_from_mapping({**base, "optics": {
            **optics, "wavelength": 770.0, "photon_energy": 2.58e-19}})
    ok = config_from_mapping({**base, "optics": {**optics,
                                                 "wavelength": 770.0}})
    assert ok.optics.photon_energy == pytest.approx(2.5798e-19, rel=1e-3)


def test_optics_couplings_are_all_given_or_all_derived():
    raw = preset_mapping()
    derived = config_from_mapping(raw).optics
    given = {"tilt_coeff": 1.0, "faraday_coeff": 2.0, "scattering_rate": 3.0}
    ok = config_from_mapping({**raw, "optics": {**raw["optics"], **given}})
    assert (ok.optics.tilt_coeff, ok.optics.faraday_coeff,
            ok.optics.scattering_rate) == (1.0, 2.0, 3.0)
    assert derived.tilt_coeff != 1.0
    for key in given:
        partial = {**raw["optics"], key: given[key]}
        with pytest.raises(ConfigError) as err:
            config_from_mapping({**raw, "optics": partial})
        assert str(err.value).startswith("[optics] ")
        for other in set(given) - {key}:
            assert other in str(err.value)


def test_values_that_overflow_the_derivation_rejected():
    # finite inputs whose derived values leave the float range
    raw = preset_mapping()
    raw["optics"]["wavelength"] = 5e-324
    with pytest.raises(ConfigError, match=r"^\[optics\] "):
        config_from_mapping(raw)
    raw = {"system": {**LOADABLE["system"], "exchange": "1e200",
                      "exchange_ab": "1", "exchange_ba": "1"}}
    with pytest.raises(ConfigError, match=r"^\[system\] "):
        config_from_mapping(raw)


@pytest.mark.parametrize("key", ["omega_a", "omega_b", "gamma_a", "gamma_b"])
def test_rates_past_max_rate_rejected(key):
    raw = {"system": {**LOADABLE["system"], key: _MAX_RATE}}
    assert getattr(config_from_mapping(raw).system, key) == _MAX_RATE
    raw["system"][key] = math.nextafter(_MAX_RATE, math.inf)
    with pytest.raises(ConfigError, match=rf"^\[system\] {key} = "):
        config_from_mapping(raw)


def test_scenario_defaults_and_validation():
    s = ScenarioConfig()
    assert s.points == 41 and s.method == "closed_form"
    with pytest.raises(ConfigError):
        ScenarioConfig(name="nope")
    with pytest.raises(ConfigError):
        ScenarioConfig(points=1)
    with pytest.raises(ConfigError):
        ScenarioConfig(method="magic")
    with pytest.raises(ConfigError):
        ScenarioConfig(noise_sigma=-0.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(trials=0)


@pytest.mark.parametrize("knob", ["points", "trials"])
def test_points_and_trials_are_capped_at_load(knob):
    # 10**15 points used to reach the CLI as numpy's _ArrayMemoryError
    assert getattr(ScenarioConfig(**{knob: MAX_SCAN_ROWS}), knob) \
        == MAX_SCAN_ROWS
    for value in (MAX_SCAN_ROWS + 1, 10**15):
        with pytest.raises(ConfigError, match=knob):
            ScenarioConfig(**{knob: value})
        raw = preset_mapping()
        raw["scenario"][knob] = str(value)
        with pytest.raises(ConfigError, match=knob):
            config_from_mapping(raw)


def test_scenario_with_replaces_fields():
    s = ScenarioConfig()
    s2 = scenario_with(s, name="transient", seed=42)
    assert s2.name == "transient" and s2.seed == 42
    assert s.name == "spectrum"  # original untouched
    with pytest.raises(ConfigError):
        scenario_with(s, name="nope")


def test_bundle_compare_excludes_mapping():
    a = load_config(preset_path())
    b = Bundle(system=a.system, scenario=a.scenario, cell=a.cell,
               optics=a.optics, magnetics=a.magnetics, mapping={})
    assert a == b


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_mapping_loads_or_raises_config_error(data):
    # edits on an empty, a system-only or the preset mapping, so that both
    # the rejections and the loads are reached
    base = data.draw(st.sampled_from(
        [{}, LOADABLE, preset_mapping()]))
    raw = {name: dict(entries) for name, entries in base.items()}
    for section in data.draw(st.lists(
            st.sampled_from([*_SCHEMAS, "mystery"]), max_size=3)):
        key = data.draw(st.sampled_from([*_SCHEMAS.get(section, ()),
                                         "mystery"]))
        raw.setdefault(section, {})[key] = data.draw(_VALUES)
    try:
        bundle = config_from_mapping(raw)
    except ValidityError:  # a physics-regime rejection, exit 3 in the CLI
        return
    except ConfigError:
        return
    for entries in bundle.mapping.values():
        for value in entries.values():
            if isinstance(value, (int, float)):
                assert math.isfinite(value)
            elif isinstance(value, tuple):
                assert all(math.isfinite(v) for v in value)
