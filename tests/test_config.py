"""Configuration tests: defaults, round trip, key checks, range checks."""

import pytest

from burstrx import config
from burstrx.errors import ConfigError


class TestLoading:
    def test_defaults_validate(self):
        config.SimConfig().validate()
        assert config.from_dict({}) == config.SimConfig()

    def test_round_trip(self):
        cfg = config.from_dict(
            {"frame": {"payload_len": 960}, "channel": {"snr_db": 14.0}, "seed": 3}
        )
        assert config.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "data",
        [
            {"timing": {"bogus": 1}},
            {"bogus": 1},
            {"timing": {"nco_mode": "paper"}},
            {"equalizer": {"lms_literal": True}},
            {"timing": {"deadzone": 0.0}},
            {"timing": {"spo_init": True}},
            {"rx": {"rrc_at_rx": True}},
            {"rx": {"detect_bin_tolerance": 0}},
            {"tx": {"rrc_delay_symbols": 16.0}},
            {"frame": {"payload_seed": 0x5EED_0003}},
        ],
        ids=[
            "section_key", "top_level_key", "nco_mode", "lms_literal",
            "deadzone", "spo_init", "rrc_at_rx", "detect_bin_tolerance",
            "rrc_delay_symbols", "payload_seed",
        ],
    )
    def test_unknown_keys_rejected(self, data):
        with pytest.raises(ConfigError):
            config.from_dict(data)

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ConfigError):
            config.from_dict({"timing": 3})


class TestValidate:
    @pytest.mark.parametrize(
        "data",
        [
            {"frame": {"pn_seed": 4}},
            {"frame": {"preamble_c_len": 100}},
            {"tx": {"rrc_rolloff": 0.2}},
            {"rx": {"acquire_beats": 5}},
            {"equalizer": {"mu": -1e-3}},
            {"timing": {"kp": -1e-2}},
            {"frame": {"payload_len": "x"}},
        ],
        ids=[
            "pn_seed", "layout", "rrc_rolloff", "acquire_beats", "mu", "kp",
            "payload_len_type",
        ],
    )
    def test_out_of_range_rejected(self, data):
        with pytest.raises(ConfigError):
            config.from_dict(data)
