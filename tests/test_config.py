"""Configuration tests: defaults, round trip, key checks, type and range checks."""

import dataclasses
import math

import pytest

from burstrx import config
from burstrx.equalizer import FdeState
from burstrx.errors import ConfigError
from burstrx.timing import FdtrLoop


class TestLoading:
    def test_defaults_validate(self):
        assert config.from_dict({}) == config.SimConfig()

    def test_round_trip(self):
        # a config's dataclasses.asdict loads back to an equal config
        cfg = config.from_dict(
            {"frame": {"payload_len": 960}, "channel": {"snr_db": 14.0}, "seed": 3}
        )
        assert config.from_dict(dataclasses.asdict(cfg)) == cfg

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {
                "frame": {"preamble_a_len": 256, "preamble_c_len": 960, "payload_len": 960},
                "channel": {
                    "snr_db": 14.0, "timing_offset_ui": 0.3, "clock_ppm": 50.0,
                    "f3db_ghz": 6.0, "gap_samples": 500, "gain": 2.0,
                },
                "equalizer": {"mmse_init": False, "ddlms": False},
                "tx": {"rrc_rolloff": 0.05},
                "seed": 9,
            },
        ],
        ids=["defaults", "every_section_set"],
    )
    def test_asdict_round_trip(self, data):
        # a config's dataclasses.asdict is the mapping from_dict reads back:
        # one section per subsystem, then the seed, every value set
        cfg = config.from_dict(data)
        d = dataclasses.asdict(cfg)
        assert list(d) == ["frame", "channel", "equalizer", "tx", "seed"]
        assert config.from_dict(d) == cfg
        for name, section in data.items():
            if isinstance(section, dict):
                assert section.items() <= d[name].items()

    def test_settable_values(self):
        # every value a user can set; receiver constants are not among them
        flat = set()
        for name, value in dataclasses.asdict(config.SimConfig()).items():
            flat |= {f"{name}.{key}" for key in value} if isinstance(value, dict) else {name}
        assert flat == {
            "frame.preamble_a_len", "frame.preamble_c_len",
            "frame.payload_len",
            "channel.snr_db", "channel.timing_offset_ui", "channel.clock_ppm",
            "channel.f3db_ghz", "channel.gap_samples", "channel.gain",
            "equalizer.mmse_init", "equalizer.ddlms",
            "tx.rrc_rolloff", "seed",
        }

    def test_burst_state_holds_no_setting(self):
        # the per-burst state objects hold burst state alone; the timing
        # windows, the DD-LMS step and delay are module constants, so none
        # can be set per instance
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert names(FdtrLoop) == {"alpha", "tau_ref"}
        assert names(FdeState) == {"w"}

    @pytest.mark.parametrize(
        "data",
        [
            {"equalizer": {"bogus": 1}},
            {"bogus": 1},
            {"timing": {"nco_mode": "paper"}},
            {"equalizer": {"lms_literal": True}},
            {"timing": {"deadzone": 0.0}},
            {"timing": {"spo_init": True}},
            {"rx": {"rrc_at_rx": True}},
            {"rx": {"detect_bin_tolerance": 0}},
            {"tx": {"rrc_delay_symbols": 16.0}},
            {"frame": {"payload_seed": 0x5EED_0003}},
            {"channel": {"rop_dbm": -25.0}},
            {"rop_calibration": {}},
            {"rx": {"acquire_beats": 5}},
            {"timing": {"kp": -1e-2}},
            {"timing": {"kp": "x"}},
            {"timing": {"kp": math.nan}},
            {"rx": {"detect_threshold": "x"}},
            {"rx": {"acquire_beats": 26.5}},
            {"frame": {"preamble_b_len": 96}},
            {"frame": {"pn_seed": 0x5EED_0001}},
            {"frame": {"preamble_c_seed": 0x5EED_0002}},
            {"equalizer": {"mu": 1e-4}},
            {"channel": {"dispersion_ps_nm_km": 2.0}},
            {"channel": {"lambda_nm": 1328.0}},
            {"channel": {"fiber_km": 20.0}},
        ],
        ids=[
            "section_key", "top_level_key", "nco_mode", "lms_literal",
            "deadzone", "spo_init", "rrc_at_rx", "detect_bin_tolerance",
            "rrc_delay_symbols", "payload_seed", "rop_dbm", "rop_calibration",
            "acquire_beats", "kp", "kp_type", "kp_nan", "detect_threshold_type",
            "acquire_beats_float", "preamble_b_len", "pn_seed", "preamble_c_seed",
            "mu", "dispersion_ps_nm_km", "lambda_nm", "fiber_km",
        ],
    )
    def test_unknown_keys_rejected(self, data):
        with pytest.raises(ConfigError):
            config.from_dict(data)

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ConfigError):
            config.from_dict({"tx": 3})

    @pytest.mark.parametrize(
        "data",
        [
            {"channel": {"snr_db": 14}},
            {"channel": {"f3db_ghz": None}},
            {"channel": {"gain": 2}},
            {"tx": {"rrc_rolloff": 1 / 64}},
            {"channel": {"gain": 1e100}},
            {"channel": {"gain": 1e-100}},
        ],
        ids=["int_snr_db", "f3db_off", "int_gain", "rrc_rolloff_min", "gain_1e100", "gain_1e-100"],
    )
    def test_valid_values_load(self, data):
        config.from_dict(data)


class TestValidate:
    @pytest.mark.parametrize(
        "data",
        [
            {"frame": {"preamble_c_len": 100}},
            {"frame": {"preamble_a_len": 126}},
            {"tx": {"rrc_rolloff": 0.2}},
            {"tx": {"rrc_rolloff": 0.015}},
            {"frame": {"payload_len": "x"}},
            {"equalizer": {"ddlms": "no"}},
            {"frame": {"payload_len": True}},
            {"channel": {"gap_samples": "x"}},
            {"channel": {"gap_samples": -1}},
            {"channel": {"snr_db": math.inf}},
            {"channel": {"f3db_ghz": 0}},
            {"channel": {"f3db_ghz": -4}},
            {"channel": {"gain": 0.0, "snr_db": 14.0}},
            {"seed": "x"},
            {"seed": -1},
            {"seed": 2.7},
            # unchecked, a large negative roll-off overflows or allocates
            # without bound in the timing band, an SNR past float range
            # fails inside run_channel, a huge gain overflows the detector's
            # powers, and a tiny one underflows the frame's power to 0
            {"tx": {"rrc_rolloff": -1e308}},
            {"tx": {"rrc_rolloff": -1e306}},
            {"channel": {"snr_db": 4000.0}},
            {"channel": {"snr_db": -4000.0}},
            {"channel": {"gain": 1e160}},
            {"channel": {"gain": 1e-300}},
        ],
        ids=[
            "layout", "preamble_a_short", "rrc_rolloff", "rrc_rolloff_empty_band",
            "payload_len_type", "ddlms_type", "payload_len_bool",
            "gap_samples_type", "gap_samples_negative", "snr_db_inf",
            "f3db_zero", "f3db_negative", "gain_zero", "seed_type", "seed_negative",
            "seed_float", "rrc_rolloff_-1e308", "rrc_rolloff_-1e306", "snr_db_4000",
            "snr_db_-4000", "gain_1e160", "gain_1e-300",
        ],
    )
    def test_out_of_range_rejected(self, data):
        with pytest.raises(ConfigError):
            config.from_dict(data)
