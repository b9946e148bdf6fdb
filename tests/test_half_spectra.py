"""Half-spectrum layers against the full-complex formulas they replaced.

Every signal in the chain is real, so each layer carries bins 0..N/2 of its
spectrum.  These tests write the full 144- and 128-bin formulas out with
``np.fft.fft`` and check each layer against their first N/2 + 1 bins, or
against their real outputs, to rounding: ``max |half - full| <= 1e-12 *
max |full|``.  The inputs are random real beats, a pure tone at the
detection bin 64, and random beats shaped by the receive RRC at roll-off
0.125, the widest accepted, whose Nyquist bin 72 is 0.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from burstrx import rxfront, txchain
from burstrx.equalizer import LAGS, _LAG_IDFT, _gradients, equalize, strip_rolloff, tap_spectrum
from burstrx.fourier import fft_144
from burstrx.timing import fd_interpolate, godard_band, godard_error

RTOL = 1e-12
K144 = np.arange(144)
F144 = np.where(K144 <= 72, K144, K144 - 144) / 128   # cycles per symbol


def close(half, full, scale=None):
    """``max |half - full| <= RTOL * scale``, ``scale`` defaulting to ``max |full|``."""
    scale = np.max(np.abs(full)) if scale is None else scale
    assert np.max(np.abs(np.asarray(half) - np.asarray(full))) <= RTOL * scale


def full_rrc(rolloff):
    """The 144-bin RRC response with the default 16-symbol delay."""
    mag = np.sqrt(txchain.rc_magnitude(F144, rolloff))
    return mag * np.exp(-2j * np.pi * F144 * txchain.DEFAULT_DELAY_SYMBOLS)


def full_fold(X):
    """144 bins to 128: bins j and j + 16 summed for j in 56..71."""
    return np.concatenate([X[..., :56], X[..., 56:72] + X[..., 72:88], X[..., 88:]], axis=-1)


def make_case(name):
    """``(beats, rolloff)``: 40 real beats, and the RRC roll-off shaping them or None."""
    rng = np.random.default_rng(16)
    if name == "random":
        return rng.normal(size=(40, 144)), None
    if name == "tone":
        n = np.arange(144)
        amp, phase = rng.uniform(0.5, 2.0, (40, 1)), rng.uniform(-np.pi, np.pi, (40, 1))
        return amp * np.cos(2 * np.pi * 64 * n / 144 + phase), 0.1
    return rng.normal(size=(40, 144)), 0.125


CASES = ["random", "tone", "rolloff_0.125"]


@pytest.fixture(params=CASES)
def case(request):
    """Half and full spectra of one case's beats and its roll-off, 0.1 if unshaped."""
    beats, rolloff = make_case(request.param)
    if rolloff is None:
        return SimpleNamespace(
            half=fft_144(beats), full=np.fft.fft(beats), alpha=0.1, shaped=False
        )
    return SimpleNamespace(
        half=rxfront.beat_spectra(beats, txchain.rrc_response(rolloff)),
        full=np.fft.fft(beats) * full_rrc(rolloff),
        alpha=rolloff,
        shaped=True,
    )


def test_beat_spectra(case):
    assert case.half.shape == (40, 73)
    close(case.half, case.full[:, :73])


def full_floor(full):
    """Mean power of the 144-bin spectra off DC and the tone pair 64 and 80."""
    power = np.abs(full) ** 2
    return np.mean(power[:, np.setdiff1d(np.arange(1, 144), [64, 80])], axis=-1)


def test_detect_frame(case):
    half, full = case.half, case.full
    tone, floor = np.abs(full[:, 64]) ** 2, full_floor(full)
    detected = (tone > 0) & (tone >= rxfront.DETECT_POWER_FACTOR * floor)
    assert np.array_equal(rxfront.detect_frame(half), detected)
    # each beat's tone set a hair above and below DETECT_POWER_FACTOR times
    # the full floor passes and fails; a pure tone's floor is rounding
    # alone, so its beats are left out
    real = floor > 1e-9 * np.max(np.abs(full) ** 2, axis=-1)
    for margin, passes in ((1 + 1e-9, True), (1 - 1e-9, False)):
        edge = half[real].copy()
        edge[:, 64] = np.sqrt(margin * rxfront.DETECT_POWER_FACTOR * floor[real])
        assert np.array_equal(rxfront.detect_frame(edge), np.full(len(edge), passes))


def test_detect_frame_ratio_on_noise():
    # the tone's ratio to the half spectrum's weighted floor is its ratio to
    # the full spectrum's mean floor
    beats, _ = make_case("random")
    full = np.fft.fft(beats)
    power = np.abs(fft_144(beats)) ** 2
    ratio = power[:, 64] / (power @ rxfront._FLOOR_WEIGHTS)
    np.testing.assert_allclose(ratio, np.abs(full[:, 64]) ** 2 / full_floor(full), rtol=RTOL)


def test_estimate_initial_spo(case):
    half, full = case.half, case.full
    for rows in (slice(0, 1), slice(0, 40)):
        prod = np.sum(full[rows, 64] * np.conj(full[rows, 80]))
        want = txchain.SPS / (2 * np.pi) * np.angle(prod)
        assert abs(rxfront.estimate_initial_spo(half[rows]) - want) <= RTOL


def test_godard_error(case):
    k = godard_band(case.alpha)
    pair = case.full[:, k] * np.conj(case.full[:, k + 16])
    sums = godard_error(case.half, case.alpha)
    close(sums, pair.sum(axis=-1), scale=np.max(np.abs(pair).sum(axis=-1)))


def corrected(case):
    """Half and full spectra turned by one tau per beat."""
    tau = np.random.default_rng(17).uniform(-0.6, 0.6, size=(40, 1))
    full = case.full * np.exp(-2j * np.pi * F144 / txchain.SPS * tau)
    return fd_interpolate(case.half, tau), full


def test_fd_interpolate(case):
    half, full = corrected(case)
    close(half, full[:, :73])


def folded(case):
    """Folded half and full spectra of the corrected beats, with bin 72 at 0.

    The receive RRC nulls the Nyquist bin 72 at every accepted roll-off, so
    the chain never folds a live one; the unshaped random beats get it
    nulled here too.  A live bin 72 is where the two folds part: the full
    fold put its image on block bin 56 alone, and taking the real part of the
    inverse then split it between bins 56 and 72.
    """
    half, full = corrected(case)
    if not case.shaped:
        half[:, 72] = full[:, 72] = 0.0
    return strip_rolloff(half), full_fold(full)


def test_strip_rolloff(case):
    half, full = folded(case)
    assert half.shape == (40, 65)
    close(half, full[:, :65])


def taps_at_lags(w):
    full = np.zeros(w.shape[:-1] + (128,))
    full[..., LAGS] = w
    return full


def test_tap_spectrum():
    w = np.random.default_rng(18).normal(size=(40, LAGS.size))
    close(tap_spectrum(w), np.fft.fft(taps_at_lags(w))[:, :65])


@pytest.mark.parametrize("per_beat", [False, True], ids=["one_tap_set", "taps_per_beat"])
def test_equalize(case, per_beat):
    Y, Y_full = folded(case)
    rng = np.random.default_rng(19)
    w = rng.normal(size=(40, LAGS.size) if per_beat else LAGS.size) * 0.1 + (LAGS == 0)
    want = np.fft.ifft(Y_full * np.fft.fft(taps_at_lags(w)))[:, 32:].real
    close(equalize(Y, w), want)


def test_gradients(case):
    # one step per bin, the same on the two mirror bins of the full spectrum
    Y, Y_full = folded(case)
    z = equalize(Y, (LAGS == 0).astype(float))
    bits = (z > 0.5).astype(np.uint8)
    steps = np.random.default_rng(21).uniform(0.5e-3, 2e-3, 65)
    e = np.zeros((40, 128))
    e[:, 32:] = bits - z
    steps_full = np.concatenate([steps, steps[63:0:-1]])
    corr = np.fft.ifft(np.fft.fft(e) * np.conj(Y_full) * steps_full).real[:, LAGS]
    close(_gradients(Y, z, bits, np.repeat(steps, 2)[:, None] * _LAG_IDFT), corr)


@pytest.mark.parametrize("name", CASES)
def test_tx_frame(name):
    rng = np.random.default_rng(20)
    if name == "tone":
        symbols, rolloff = np.tile([0.0, 1.0], 48 * 6), 0.1
    else:
        symbols = rng.integers(0, 2, 96 * 6).astype(float)
        rolloff = 0.125 if name == "rolloff_0.125" else 0.1
    stream = np.concatenate([symbols, np.zeros(txchain.TX_FLUSH_BEATS * 96)]).reshape(-1, 96)
    blocks = np.zeros((len(stream), 128))
    blocks[:, 32:] = stream
    blocks[1:, :32] = stream[:-1, -32:]
    X = np.fft.fft(blocks)
    Y = np.concatenate([X[:, :72], X[:, 56:128]], axis=-1) * full_rrc(rolloff)
    want = np.fft.ifft(Y)[:, 36:].real.reshape(-1)
    close(txchain.tx_frame(symbols, rolloff), want)
