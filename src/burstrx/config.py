"""Simulator configuration: dataclasses, loading from a mapping, validation.

A configuration is a mapping with one section per subsystem; unknown keys
are rejected so typos fail loudly.  Defaults reproduce the paper-mode
frame (1056-symbol preamble, 1.3e5 payload) over a clean channel.

Only values that some part of the chain reads are settable.  The receiver's
structure is fixed: matched RRC filters with the default 16-symbol delay at
both ends, the Preamble-A tone phase seeding a plain PI timing loop, and an
exact tone-bin detection test.  The ``frame`` section is
:class:`burstrx.framing.FrameLayout` itself, so its checks run when the
section is built.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from . import framing
from .channel import ChannelConfig, rop_to_snr
from .errors import ConfigError, LayoutError


@dataclass
class TimingSection:
    kp: float = 1e-2
    ki: float = 1e-4


@dataclass
class EqualizerSection:
    mu: float = 1e-3
    mmse_init: bool = True
    ddlms: bool = True


@dataclass
class RxSection:
    detect_threshold: float = 4.0
    sync_ratio_min: float = 1.5
    acquire_beats: int = 24


@dataclass
class TxSection:
    rrc_rolloff: float = 0.1


@dataclass
class ChannelSection:
    snr_db: Optional[float] = None
    rop_dbm: Optional[float] = None
    timing_offset_ui: float = 0.0
    clock_ppm: float = 0.0
    f3db_ghz: Optional[float] = None
    fiber_km: float = 0.0
    dispersion_ps_nm_km: float = 2.0
    lambda_nm: float = 1328.0
    gap_samples: int = 1080
    gain: float = 1.0


@dataclass
class RopCalibration:
    rop1_dbm: float = -30.0
    snr1_db: float = 6.0
    rop2_dbm: float = -20.0
    snr2_db: float = 16.0


@dataclass
class SimConfig:
    frame: framing.FrameLayout = field(default_factory=framing.FrameLayout)
    channel: ChannelSection = field(default_factory=ChannelSection)
    timing: TimingSection = field(default_factory=TimingSection)
    equalizer: EqualizerSection = field(default_factory=EqualizerSection)
    rx: RxSection = field(default_factory=RxSection)
    tx: TxSection = field(default_factory=TxSection)
    rop_calibration: RopCalibration = field(default_factory=RopCalibration)
    seed: int = 1

    def resolved_snr_db(self) -> Optional[float]:
        """snr_db wins; otherwise rop_dbm is mapped through the calibration."""
        if self.channel.snr_db is not None:
            return self.channel.snr_db
        if self.channel.rop_dbm is not None:
            return rop_to_snr(self.channel.rop_dbm, dataclasses.asdict(self.rop_calibration))
        return None

    def channel_config(self, seed_offset: int = 0) -> ChannelConfig:
        c = self.channel
        return ChannelConfig(
            snr_db=self.resolved_snr_db(),
            timing_offset_ui=c.timing_offset_ui,
            clock_ppm=c.clock_ppm,
            f3db_ghz=c.f3db_ghz,
            fiber_km=c.fiber_km,
            dispersion_ps_nm_km=c.dispersion_ps_nm_km,
            lambda_nm=c.lambda_nm,
            gap_samples=c.gap_samples,
            gain=c.gain,
            rng_seed=self.seed + seed_offset,
        )

    def validate(self) -> None:
        if not 0.0 < self.tx.rrc_rolloff <= 0.125:
            raise ConfigError("tx.rrc_rolloff must be in (0, 0.125]")
        if self.timing.kp < 0 or self.timing.ki < 0:
            raise ConfigError("timing gains must be >= 0")
        if self.channel.gap_samples < 0:
            raise ConfigError("channel.gap_samples must be >= 0")
        if self.rx.acquire_beats < 6:
            raise ConfigError("rx.acquire_beats too small to cover the preamble")
        if self.equalizer.mu < 0:
            raise ConfigError("equalizer.mu must be >= 0")
        # reject Pn seeds whose sync peak is not unique enough
        try:
            framing.validate_pn_seed(self.frame.pn_seed, min_ratio=2.0)
        except LayoutError as exc:
            raise ConfigError(f"frame.pn_seed: {exc}") from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_SECTIONS = {
    "frame": framing.FrameLayout,
    "channel": ChannelSection,
    "timing": TimingSection,
    "equalizer": EqualizerSection,
    "rx": RxSection,
    "tx": TxSection,
    "rop_calibration": RopCalibration,
}


def _build_section(cls, data: dict, name: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    try:
        return cls(**data)
    except (LayoutError, TypeError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def from_dict(data: dict) -> SimConfig:
    data = dict(data or {})
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = data.pop(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        kwargs[name] = _build_section(cls, section, name)
    seed = data.pop("seed", 1)
    if data:
        raise ConfigError(f"unknown top-level keys: {sorted(data)}")
    cfg = SimConfig(seed=int(seed), **kwargs)
    cfg.validate()
    return cfg
