"""Simulator configuration: dataclasses, loading from a mapping, validation.

A configuration is a mapping with one section per subsystem; unknown keys
are rejected so typos fail loudly.  Defaults reproduce the paper-mode
frame over a clean channel.

Only values that some part of the chain reads are settable.  The receiver's
structure is fixed: matched RRC filters with the same delay at both ends,
the Preamble-A tone phase setting stage 1's timing, one line per burst
fitted to the timing detector's sums setting stage 2's, and a threshold on
the tone bin's power as the detection test.  Its constants, and the fixed
parts of the frame and the channel, are not settable either, per call or
per instance; each is one module-level definition, in the code that reads
it:

* the detection threshold, :data:`burstrx.rxfront.DETECT_POWER_FACTOR`,
  the tone bin's power over the mean power off DC and the tone pair;
* the moving sum of the stage-2 timing estimate, :data:`burstrx.timing.W1`
  beats;
* the sync peak ratio, :data:`burstrx.framesync.SYNC_RATIO_MIN`;
* the acquisition window, derived from the frame layout by
  :class:`burstrx.receiver.BurstReceiver`: the detected beat, the beats
  that reach past Preamble B, and
  :data:`burstrx.receiver.ACQUIRE_MARGIN_BEATS` more.  A detection on the
  frame's own tone needs one beat of that margin; the others keep
  Preamble B in the window after a false alarm in the leading gap;
* the equalizer's tap span, :data:`burstrx.equalizer.LAGS`, the lags that
  ``equalizer.mmse_init`` fits and DD-LMS adapts;
* the DD-LMS step, :data:`burstrx.equalizer.DDLMS_MU`, divided in each bin
  by that bin's power, inside the delayed-LMS stability bound at the loop
  delay :data:`burstrx.equalizer.DDLMS_DELAY`, the latency of its error
  path in :data:`burstrx.pipeline.STAGES`;
* the RRC delay, :data:`burstrx.txchain.DEFAULT_DELAY_SYMBOLS` per filter,
  and the zero beats that flush it out of a frame,
  :data:`burstrx.txchain.TX_FLUSH_BEATS`;
* the seeds of the fixed Pn and Preamble C, ``pn_seed`` and
  ``preamble_c_seed`` of :class:`burstrx.framing.FrameLayout`.

The default of ``tx.rrc_rolloff`` is :data:`burstrx.txchain.DEFAULT_ROLLOFF`,
which every roll-off default in the chain reads.

Each value is checked once, when its section is built.  :func:`from_dict`
checks every given value against its field's annotation; the range checks
live in each section's ``__post_init__``.  The ``frame`` section is
:class:`burstrx.framing.FrameLayout` and the ``channel`` section is
:class:`burstrx.channel.Impairments`, so those checks sit with the code that
reads the values; ``seed`` is checked by :class:`SimConfig` itself.  Every
rejection from :func:`from_dict` is a :class:`ConfigError`.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

from . import framing
from .channel import ChannelConfig, Impairments
from .errors import ChannelError, ConfigError, LayoutError
from .timing import godard_band
from .txchain import DEFAULT_ROLLOFF


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_float(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


# For each field annotation: what the values it takes are, and the test.
_ACCEPTS = {
    bool: ("a bool", lambda v: isinstance(v, bool)),
    int: ("an integer", _is_int),
    float: ("a finite number", _is_float),
    Optional[float]: ("a finite number or None", lambda v: v is None or _is_float(v)),
}


@dataclass
class EqualizerSection:
    # Fit the taps at every lag of equalizer.LAGS on Preamble C; when off,
    # fit lag 0 alone (a gain).
    mmse_init: bool = True
    ddlms: bool = True


@dataclass
class TxSection:
    rrc_rolloff: float = DEFAULT_ROLLOFF

    def __post_init__(self):
        # below 1/64 the timing detector's excess band holds no bin; a value
        # <= 0 is rejected before the band is built, which a large negative
        # one would make overflow or allocate without bound
        if not 0 < self.rrc_rolloff <= 0.125 or godard_band(self.rrc_rolloff).size == 0:
            raise ConfigError("rrc_rolloff must be in [1/64, 0.125]")


@dataclass
class SimConfig:
    frame: framing.FrameLayout = field(default_factory=framing.FrameLayout)
    channel: Impairments = field(default_factory=Impairments)
    equalizer: EqualizerSection = field(default_factory=EqualizerSection)
    tx: TxSection = field(default_factory=TxSection)
    seed: int = 1

    def __post_init__(self):
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    def channel_config(self, seed_offset: int = 0) -> ChannelConfig:
        return ChannelConfig(
            **dataclasses.asdict(self.channel), rng_seed=self.seed + seed_offset
        )


def _build_section(cls, data: dict, name: str):
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    for key, value in data.items():
        expected, accepts = _ACCEPTS[fields[key]]
        if not accepts(value):
            raise ConfigError(f"{name}.{key} must be {expected}, got {value!r}")
    try:
        return cls(**data)
    except (ConfigError, LayoutError, ChannelError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def from_dict(data: dict) -> SimConfig:
    data = dict(data or {})
    kwargs = {}
    for f in dataclasses.fields(SimConfig):
        if not dataclasses.is_dataclass(f.type):
            continue
        section = data.pop(f.name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {f.name!r} must be a mapping")
        kwargs[f.name] = _build_section(f.type, section, f.name)
    seed = data.pop("seed", 1)
    if data:
        raise ConfigError(f"unknown top-level keys: {sorted(data)}")
    return SimConfig(seed=seed, **kwargs)
