"""The tests' exact delay: one transform over a whole block, any tau.

``burstrx.channel.run_channel`` delays a frame window by window; these
helpers delay a whole block at once, so the tests use them as its reference
and to build delayed waveforms.  Not a test module: the tests import it.
"""

import numpy as np


def delay_factor(n: int, tau_samples) -> np.ndarray:
    """``rfft``-domain delay factor of an ``n``-sample block; a column of taus gives rows."""
    f = np.fft.rfftfreq(n, d=1.0)
    h = np.exp(-2j * np.pi * f * np.asarray(tau_samples, dtype=np.float64))
    if n % 2 == 0:
        # A real signal cannot carry a complex factor at the shared +-Nyquist
        # bin.  Integer delays give +-1 there and stay exact; fractional ones
        # leave that single (empty, beyond the RRC stopband) bin untouched.
        nyq = h[..., -1]
        h[..., -1] = np.where(np.abs(nyq.imag) < 1e-12, nyq.real, 1.0)
    return h


def apply_fractional_delay(x: np.ndarray, tau_samples) -> np.ndarray:
    """Delay a block by a (fractional) number of samples, exactly and circularly.

    All-pass ``exp(-2j pi f tau)`` applied over the whole block in one
    transform: a positive tau moves the block's last tau samples to its
    head, a negative one its first ``|tau|`` to its tail.  On a block
    zero-padded past tau at both ends this is the exact delay.  On a stack
    of blocks, one per row, a column of taus delays each row by its own.
    """
    n = x.shape[-1]
    return np.fft.irfft(np.fft.rfft(x) * delay_factor(n, tau_samples), n)
