"""Fixed-size real FFTs: numpy's rfft/irfft on the hot path, the butterflies as reference.

The receive/transmit flow only ever needs two transform sizes: 128 points
and 144 points, and every signal it transforms is real.  :func:`fft_pow2`
and :func:`fft_144` are the chain's one real-signal pair: forward, real
samples to a half spectrum (``np.fft.rfft``); inverse, a half spectrum back
to real samples (``np.fft.irfft``).  They check their sizes and refuse
complex samples; they are what the chain runs.

The hardware decomposition is kept as the tested reference,
:func:`butterfly_fft`: 128 points as seven radix-2 butterfly layers, 144
points as four radix-2 layers that reuse the 128-point layer code followed by
two radix-3 layers (a 16 x 9 decomposition).  The radix-2 path accepts any
power of two.  It and the direct O(N^2) DFT, :func:`dft_oracle`, the
independent oracle the butterflies are tested against, transform full
complex spectra.

Conventions
-----------
Forward transform is unscaled, ``X(k) = sum_n x(n) exp(-2j pi n k / N)``; the
inverse carries the ``1/N`` factor.  Bin ``k`` corresponds to discrete
frequency ``k/N`` cycles per sample, with bins above ``N/2`` representing
negative frequencies.  Real input yields Hermitian output,
``X(N-k) = conj(X(k))``, so bins ``0..N/2`` hold the whole spectrum: a half
spectrum of ``N/2 + 1`` bins, 65 for 128 points and 73 for 144.  The inverse
reads the imaginary parts of its DC and Nyquist bins as 0, the values they
have for real samples.

All functions operate on the last axis, so stacked inputs of shape
``(..., N)`` transform as a batch.
"""

from functools import lru_cache

import numpy as np

from .errors import FftInputError, FftSizeError

# Radix-3 path constants: one three-point DFT costs two real-coefficient
# multiplies in this form.
RADIX3_COS_COEFF = np.cos(2 * np.pi / 3) - 1.0  # -1.5
RADIX3_SIN_COEFF = 1j * np.sin(2 * np.pi / 3)


def dft_oracle(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Direct O(N^2) DFT used as the correctness oracle.

    Independent of the fast kernels below by construction: it evaluates the
    defining sum through a precomputed exponential matrix.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n < 1:
        raise FftSizeError("dft_oracle requires length >= 1")
    mat = _dft_matrix(n, inverse)
    y = x @ mat
    if inverse:
        y /= n
    return y


@lru_cache(maxsize=None)
def _dft_matrix(n: int, inverse: bool) -> np.ndarray:
    sign = 1.0 if inverse else -1.0
    k = np.arange(n)
    return np.exp(sign * 2j * np.pi * np.outer(k, k) / n)


def radix3_butterfly(a, b, c, tw1, tw2, inverse: bool = False):
    """Three-point DFT of ``(a, b*tw1, c*tw2)`` in the two-multiplier form.

    The shared term ``t = b*tw1 + c*tw2`` feeds one multiplier with
    ``cos(2pi/3) - 1`` and the difference path feeds the other with
    ``j*sin(2pi/3)``, matching the three computational paths of the hardware
    radix-3 block.
    """
    q = np.asarray(b) * tw1
    r = np.asarray(c) * tw2
    t = q + r
    x0 = np.asarray(a) + t
    u = x0 + RADIX3_COS_COEFF * t
    v = RADIX3_SIN_COEFF * (q - r)
    if inverse:
        return x0, u + v, u - v
    return x0, u - v, u + v


@lru_cache(maxsize=None)
def _stage_twiddles(n: int, half: int, inverse: bool) -> np.ndarray:
    sign = 1.0 if inverse else -1.0
    return np.exp(sign * 2j * np.pi * np.arange(half) / n)


def _fft_stages(x: np.ndarray, factors: tuple, inverse: bool) -> np.ndarray:
    """Decimation-in-time recursion over the factor list, batched.

    Splitting into ``r`` interleaved subsequences is done with one reshape so
    the whole stack recurses in a single call per layer.
    """
    n = x.shape[-1]
    if not factors:
        return x
    r = factors[0]
    m = n // r
    # x[..., j::r] becomes subs[..., j, :] after the reshape/swap.
    subs = np.swapaxes(x.reshape(x.shape[:-1] + (m, r)), -1, -2)
    subs = _fft_stages(subs, factors[1:], inverse)
    w = _stage_twiddles(n, m, inverse)
    if r == 2:
        e = subs[..., 0, :]
        o = subs[..., 1, :] * w
        return np.concatenate([e + o, e - o], axis=-1)
    x0, x1, x2 = radix3_butterfly(
        subs[..., 0, :], subs[..., 1, :], subs[..., 2, :], w, w * w, inverse
    )
    return np.concatenate([x0, x1, x2], axis=-1)


def butterfly_fft(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Reference FFT through the hardware butterfly layers.

    Power-of-two lengths run all radix-2 layers; 144 points run four radix-2
    layers then two radix-3 layers.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n == 144:
        factors = (2, 2, 2, 2, 3, 3)
    elif n >= 2 and (n & (n - 1)) == 0:
        factors = (2,) * (n.bit_length() - 1)
    else:
        raise FftSizeError(f"butterfly_fft supports 144 or a power of two, got {n}")
    y = _fft_stages(x, factors, inverse)
    if inverse:
        y = y / n
    return y


def _length(x: np.ndarray, inverse: bool, name: str) -> tuple[np.ndarray, int]:
    """``x`` and its transform length: its samples forward, ``2 (bins - 1)`` inverse."""
    x = np.asarray(x)
    if inverse:
        return x, 2 * (x.shape[-1] - 1)
    if np.iscomplexobj(x):
        raise FftInputError(f"{name} transforms real samples, got {x.dtype}")
    return x, x.shape[-1]


def fft_pow2(x: np.ndarray, inverse: bool = False, out=None) -> np.ndarray:
    """Real FFT for power-of-two lengths (128 points in this chain).

    Forward, ``N`` real samples give ``N/2 + 1`` bins; inverse, ``N/2 + 1``
    bins give ``N`` real samples.  ``out``, when given, receives the result
    and is returned, as in numpy's ``rfft`` and ``irfft``; the input is
    checked before anything is written to it.
    """
    x, n = _length(x, inverse, "fft_pow2")
    if n < 2 or (n & (n - 1)) != 0:
        raise FftSizeError(f"fft_pow2 requires a power-of-two length, got {n}")
    return np.fft.irfft(x, n, out=out) if inverse else np.fft.rfft(x, out=out)


def fft_144(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """144-point real FFT, the size of one received beat: 144 samples, 73 bins."""
    x, n = _length(x, inverse, "fft_144")
    if n != 144:
        raise FftSizeError(f"fft_144 requires length 144, got {n}")
    return np.fft.irfft(x, n) if inverse else np.fft.rfft(x)
