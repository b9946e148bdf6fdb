"""Burst-mode DSP chain for 25 Gbit/s OOK upstream reception.

Provides a framed transmitter, an impairment channel, and a burst receiver
(frame detection, frequency-domain timing recovery, frame synchronization,
frequency-domain equalization), together with the fixed-size FFT kernels the
hardware flow is built on and the published stage latencies.
"""

import ctypes
import sys

__version__ = "0.1.0"

# Bursts allocate and free frame-sized arrays; by default glibc returns the
# freed heap top to the system and page-faults it back in on the next burst.
if sys.platform == "linux":
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's ceiling on 64-bit
