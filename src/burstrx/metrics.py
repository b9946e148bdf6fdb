"""Run metrics: BER counting, error-position statistics, MSE, run reports."""

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import chdtrc

from .errors import AlignmentError

REPORT_SCHEMA_VERSION = 1


@dataclass
class BerCount:
    errors: int
    total: int
    positions: np.ndarray

    @property
    def ber(self) -> float:
        return self.errors / self.total if self.total else 0.0


def count_ber(decided_bits: np.ndarray, reference_bits: np.ndarray) -> BerCount:
    """Exact Hamming distance plus the error position list."""
    decided = np.asarray(decided_bits).astype(np.uint8)
    reference = np.asarray(reference_bits).astype(np.uint8)
    if decided.shape != reference.shape:
        raise AlignmentError(
            f"length mismatch: {decided.shape} vs {reference.shape}"
        )
    diff = decided != reference
    positions = np.flatnonzero(diff)
    return BerCount(errors=int(diff.sum()), total=int(decided.size), positions=positions)


@dataclass
class ErrorHistogram:
    counts: np.ndarray
    chi2_stat: Optional[float]
    p_value: Optional[float]


def error_distribution(
    positions: np.ndarray, frame_len: int, bins: int = 10
) -> ErrorHistogram:
    """Decile counts of error positions and a Pearson test against uniform.

    With zero errors the test is skipped (stat and p-value are None).
    """
    positions = np.asarray(positions)
    edges = np.linspace(0, frame_len, bins + 1)
    counts, _ = np.histogram(positions, bins=edges)
    total = counts.sum()
    if total == 0:
        return ErrorHistogram(counts=counts, chi2_stat=None, p_value=None)
    expected = total / bins
    stat = float(np.sum((counts - expected) ** 2 / expected))
    p = float(chdtrc(bins - 1, stat))
    return ErrorHistogram(counts=counts, chi2_stat=stat, p_value=p)


def mse_point(z: np.ndarray, decisions: np.ndarray) -> float:
    """Squared decision error of one beat, summed over its 128 time samples.

    By Parseval's theorem this equals the mean squared spectral error over the
    128 bins, ``mean |FFT(z) - FFT(d)|^2``, without either transform.
    """
    return float(np.sum(np.abs(np.asarray(z) - np.asarray(decisions)) ** 2))


@dataclass
class RunReport:
    """Everything one simulated burst produces, serializable to JSON."""

    status: str = "ok"                      # ok | detection_failed | sync_failed
    ber: float = 0.0
    bit_errors: int = 0
    bits_total: int = 0
    detect_beat: Optional[int] = None
    tau0: Optional[float] = None
    sync_p1: Optional[int] = None
    sync_p: Optional[int] = None
    sync_frac: Optional[float] = None
    sync_peak: Optional[float] = None
    sync_second_peak: Optional[float] = None
    mse_trace: list = field(default_factory=list)
    spo_trace: list = field(default_factory=list)       # [stage, beat, tau_ui]
    error_histogram: list = field(default_factory=list)
    chi2_stat: Optional[float] = None
    chi2_p: Optional[float] = None
    seed: int = 0
    config: dict = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["mse_trace"] = [float(x) for x in self.mse_trace]
        d["spo_trace"] = [[int(s), int(b), float(t)] for s, b, t in self.spo_trace]
        d["error_histogram"] = [int(x) for x in self.error_histogram]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))


def wilson_interval(errors: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """95% confidence interval for a BER estimate."""
    if total == 0:
        return 0.0, 1.0
    p = errors / total
    denom = 1 + z**2 / total
    center = (p + z**2 / (2 * total)) / denom
    half = z * np.sqrt(p * (1 - p) / total + z**2 / (4 * total**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)
