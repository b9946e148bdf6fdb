"""In-memory span tracing of burstrx layers, installed from outside the package.

Each traced layer function is replaced, for the duration of a ``Tracer``
context, at every name a caller looks it up by: the module attribute, every
``from .x import f`` copy in another burstrx module, or the class attribute of
a method.  A wrapped call records a span ``[name, start, end, parent, burst,
units]``; self time is the span's duration minus that of its direct children.
The originals are put back when the context exits.
"""

import sys
import time
from collections import defaultdict

PACKAGE = "burstrx"
NAME, START, END, PARENT, BURST, UNITS = range(6)


def _rows(args, kwargs):
    return len(args[0])


# (module, attribute, span name, units counted per call).  A dotted attribute
# names a method on a class of that module.
LAYER_FUNCTIONS = [
    ("fourier", "fft_pow2", "fourier.fft_pow2", None),
    ("fourier", "fft_144", "fourier.fft_144", None),
    ("equalizer", "ddlms_update", "equalizer.ddlms_update", None),
    ("equalizer", "apply_fde", "equalizer.apply_fde", None),
    ("equalizer", "decide_demap", "equalizer.decide_demap", None),
    ("equalizer", "strip_rolloff", "equalizer.strip_rolloff", None),
    ("equalizer", "FdeState.initialize", "equalizer.initialize", None),
    ("timing", "FdtrLoop.process_beat", "timing.process_beat", None),
    ("metrics", "mse_point", "metrics.mse_point", None),
    ("metrics", "count_ber", "metrics.count_ber", None),
    ("metrics", "error_distribution", "metrics.error_distribution", None),
    ("rxfront", "rx_slice_beats", "rxfront.rx_slice_beats", None),
    ("rxfront", "beat_spectra", "rxfront.beat_spectra", _rows),
    ("rxfront", "detect_frame", "rxfront.detect_frame", None),
    ("framesync", "find_sync", "framesync.find_sync", None),
    ("receiver", "BurstReceiver.__init__", "receiver.init", None),
    ("receiver", "BurstReceiver.receive", "receiver.receive", None),
    ("receiver", "BurstReceiver.acquire", "receiver.acquire", None),
    ("receiver", "BurstReceiver.demodulate", "receiver.demodulate", None),
    ("txchain", "tx_frame", "txchain.tx_frame", None),
    ("framing", "build_frame", "framing.build_frame", None),
    ("prng", "bits", "prng.bits", None),
    ("channel", "run_channel", "channel.run_channel", None),
    ("config", "from_dict", "config.from_dict", None),
]

RECEIVER_SPANS = ("receiver.receive", "receiver.acquire", "receiver.demodulate")


class Tracer:
    """Context manager that traces LAYER_FUNCTIONS of an imported burstrx."""

    def __init__(self):
        self.spans = []
        self.burst = None
        self._stack = []
        self._patches = []
        self._wrappers = {}   # id -> wrapper, kept alive so ids stay unique
        self.missing = []     # span names whose function was not found

    def __enter__(self):
        self.missing = []
        for module_name, attr, name, units in LAYER_FUNCTIONS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            # A layer function the program no longer has reads as zero, not a crash.
            if owner is None or meth not in vars(owner):
                self.missing.append(name)
                continue
            if owner_name:
                self._patch(owner, meth, vars(owner)[meth], name, units)
                continue
            original = getattr(module, attr)
            for owner in self._modules():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, original, name, units)
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @staticmethod
    def _modules():
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def _patch(self, owner, key, original, name, units):
        spans, stack = self.spans, self._stack   # take() empties them in place
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.burst,
                    units(args, kwargs) if units else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        setattr(owner, key, traced)
        self._patches.append((owner, key, original))
        self._wrappers[id(traced)] = traced

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def restored(self):
        """True when no wrapper of this tracer is left on any burstrx name."""
        for module in self._modules():
            for value in vars(module).values():
                names = vars(value).values() if isinstance(value, type) else [value]
                if any(id(v) in self._wrappers for v in names):
                    return False
        return True

    def take(self):
        """Aggregate and drop the recorded spans.

        Returns ``{name: {"self": s, "total": s, "calls": n, "units": n}}``
        where ``total`` is inclusive time; a name nested inside itself counts
        its inclusive time once per span.
        """
        spans = list(self.spans)
        self.spans.clear()
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0, "units": 0})
        for i, span in enumerate(spans):
            dur = span[END] - span[START]
            agg = out[span[NAME]]
            agg["self"] += dur - child[i]
            agg["total"] += dur
            agg["calls"] += 1
            agg["units"] += span[UNITS]
        return dict(out)

