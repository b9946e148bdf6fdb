"""Run metrics: BER counting, error-position statistics, MSE, run reports."""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AlignmentError

REPORT_SCHEMA_VERSION = 4
ERROR_BINS = 10  # equal slices of the payload in the error histogram


@dataclass
class BerCount:
    errors: int
    total: int
    positions: np.ndarray

    @property
    def ber(self) -> float:
        return self.errors / self.total if self.total else 0.0


def count_ber(decided_bits: np.ndarray, reference_bits: np.ndarray) -> BerCount:
    """Exact Hamming distance plus the error position list.

    Bits compare by value, so 0/1 arrays of any dtype count alike.
    """
    decided = np.asarray(decided_bits)
    reference = np.asarray(reference_bits)
    if decided.shape != reference.shape:
        raise AlignmentError(
            f"length mismatch: {decided.shape} vs {reference.shape}"
        )
    positions = np.flatnonzero(decided != reference)
    return BerCount(errors=positions.size, total=decided.size, positions=positions)


def chi2_upper_tail(k: int, x: float) -> float:
    """P(X > x) for X chi-square with ``k`` degrees of freedom, a positive integer.

    Closed form for integer ``k``, with ``h = x/2``:

        Q = erfc(sqrt(h)) [k odd] + e^(-h) sum_p h^p / Gamma(p + 1),

    over p = 0, 1, ..., k/2 - 1 for even ``k`` and p = 1/2, 3/2, ..., k/2 - 1
    for odd ``k``.  Each term is evaluated as one exponential of its
    logarithm, so neither ``h^p`` nor ``e^(-h)`` overflows or underflows
    on its own.
    """
    if k < 1:
        raise ValueError(f"chi-square degrees of freedom must be >= 1, got {k}")
    if x <= 0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    head = math.erfc(math.sqrt(h)) if k % 2 else 0.0
    powers = (k % 2 / 2 + i for i in range(k // 2))
    return head + math.fsum(math.exp(p * log_h - h - math.lgamma(p + 1)) for p in powers)


@dataclass
class ErrorHistogram:
    counts: np.ndarray
    chi2_stat: Optional[float]
    p_value: Optional[float]


def error_distribution(positions: np.ndarray, frame_len: int) -> ErrorHistogram:
    """Decile counts of error positions and a Pearson test against uniform.

    ``positions`` lie in ``[0, frame_len)``; decile ``i`` counts those in
    ``[e_i, e_(i+1))`` of the edges ``e = linspace(0, frame_len, 11)``, as
    ``np.histogram`` does on those edges.  With zero errors the test is
    skipped (stat and p-value are None).
    """
    positions = np.asarray(positions)
    if not positions.size:
        counts = np.zeros(ERROR_BINS, dtype=np.intp)
        return ErrorHistogram(counts=counts, chi2_stat=None, p_value=None)
    edges = np.linspace(0, frame_len, ERROR_BINS + 1)
    deciles = np.searchsorted(edges, positions, "right") - 1
    counts = np.bincount(deciles, minlength=ERROR_BINS)
    total = positions.size
    expected = total / ERROR_BINS
    stat = float(np.sum((counts - expected) ** 2 / expected))
    p = chi2_upper_tail(ERROR_BINS - 1, stat)
    return ErrorHistogram(counts=counts, chi2_stat=stat, p_value=p)


def mse_point(z: np.ndarray, decisions: np.ndarray) -> np.ndarray:
    """Squared decision error per beat, summed over its decided samples.

    The receiver passes each payload beat's 96 decided samples, the valid
    positions 32..127, with the bits decided from them.  Reduces the last
    axis, so a stack of beats gives one point per row.  Summed over a whole
    128-sample block this equals, by Parseval's theorem, the mean squared
    spectral error ``mean |FFT(z) - FFT(d)|^2`` without either transform.
    The error is formed in C order, so each row is summed the same way
    whatever the layout of ``z``.
    """
    return np.sum(np.subtract(z, decisions, order="C") ** 2, axis=-1)


@dataclass
class RunReport:
    """What one burst produced, each value already a JSON value.

    The receiver stores lists of Python numbers, so a report serializes as
    ``json.dumps(dataclasses.asdict(report))`` with nothing converted.  The
    configuration and seeds that made the burst are the caller's to record;
    a report holds no copy of them.
    """

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
    spo_trace: list = field(default_factory=list)       # tau in UI per stage-2 beat
    error_histogram: list = field(default_factory=list)
    chi2_stat: Optional[float] = None
    chi2_p: Optional[float] = None
    schema_version: int = REPORT_SCHEMA_VERSION


def wilson_interval(errors: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """95% confidence interval for a BER estimate."""
    if total == 0:
        return 0.0, 1.0
    p = errors / total
    denom = 1 + z**2 / total
    center = (p + z**2 / (2 * total)) / denom
    half = z * np.sqrt(p * (1 - p) / total + z**2 / (4 * total**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)
