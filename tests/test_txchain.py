"""Transmitter chain tests: resampling, shaping, streaming."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from burstrx import framing, txchain
from burstrx.errors import FftSizeError
from burstrx.fourier import fft_144, fft_pow2


def widen(X):
    """``X``'s 65-bin half spectra widened to 73 bins by ``resample_up_fd``."""
    Y = np.empty(X.shape[:-1] + (73,), dtype=complex)
    Y[..., :65] = X
    return txchain.resample_up_fd(Y)


class TxState:
    """Streaming transmitter state: overlap buffer of the previous beat."""

    def __init__(self, rolloff=txchain.DEFAULT_ROLLOFF):
        self.overlap = np.zeros(txchain.OVERLAP_IN)
        self.response = txchain.rrc_response(rolloff)


def tx_process_beat(state, symbols):
    """Beat-by-beat oracle for tx_frame: 96 symbols in, 108 samples out."""
    symbols = np.asarray(symbols, dtype=np.float64)
    assert symbols.shape == (txchain.SYMBOLS_PER_BEAT,)
    block = np.concatenate([state.overlap, symbols])
    state.overlap = block[-txchain.OVERLAP_IN :].copy()
    Y = widen(fft_pow2(block)) * state.response
    return fft_144(Y, inverse=True)[txchain.OVERLAP_OUT :]


class TestResampleUp:
    def test_band_mapping(self):
        # half-spectrum bin k of the 144 grid is symbol-rate bin k: X(k) up
        # to 64, conj(X(128 - k)) for 65..71, and X(56) at the Nyquist bin 72
        X = np.arange(65) + 1j * np.arange(65, 130)
        Y = widen(X)
        assert Y.shape == (73,)
        assert Y[72] == X[56]
        assert np.array_equal(Y[:65], X)
        assert np.array_equal(Y[65:72], np.conj(X[63:56:-1]))

    def test_zeros(self):
        assert not widen(np.zeros(65, complex)).any()

    @pytest.mark.parametrize("shape", [(65,), (7, 65), (2, 3, 65)])
    def test_widens_stacks_in_place(self, shape):
        # tx_frame fills the excess band of its own 73-bin stack in place
        rng = np.random.default_rng(len(shape))
        X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stack = np.full(shape[:-1] + (73,), np.nan, dtype=complex)
        stack[..., :65] = X
        assert txchain.resample_up_fd(stack) is stack
        ref = np.concatenate([X, np.conj(X[..., 63:56:-1]), X[..., 56:57]], axis=-1)
        assert np.array_equal(stack, ref)

    def test_size_checked(self):
        with pytest.raises(FftSizeError):
            txchain.resample_up_fd(np.zeros(65, complex))

    def test_tone_keeps_absolute_frequency(self):
        # A bin-8 tone at 1 sps must come out as a bin-8 tone of the 144 grid,
        # i.e. the same absolute frequency at the higher sample rate.
        n = np.arange(128)
        x = np.cos(2 * np.pi * 8 * n / 128)
        h0 = np.sqrt(txchain.rc_magnitude(txchain.FREQ_SYMBOL_144))  # zero-phase RRC
        Y = widen(fft_pow2(x)) * h0
        y = fft_144(Y, inverse=True)
        # amplitude carries the 128/144 convention factor; frequency must not move
        ref = (128 / 144) * np.cos(2 * np.pi * 8 * np.arange(144) / 144)
        assert np.max(np.abs(y - ref)) < 1e-9


class TestRrcResponse:
    def test_flat_band(self):
        mag = txchain.rc_magnitude(np.array([0.0, 0.2, 0.45]))
        assert np.allclose(np.sqrt(mag), [1, 1, 1], atol=1e-12)

    def test_half_power_at_nyquist(self):
        assert abs(np.sqrt(txchain.rc_magnitude(0.5)) - np.sqrt(0.5)) < 1e-12

    def test_stop_band(self):
        assert np.sqrt(txchain.rc_magnitude(0.55)) == 0.0
        assert np.sqrt(txchain.rc_magnitude(0.6)) == 0.0

    def test_delay_is_pure_phase(self):
        h0 = np.sqrt(txchain.rc_magnitude(txchain.FREQ_SYMBOL_144))
        h = txchain.rrc_response()
        assert np.allclose(np.abs(h), h0, atol=1e-12)


class TestBeatStreaming:
    def test_beat_shape_and_rate(self):
        state = TxState()
        out = tx_process_beat(state, np.ones(96))
        assert out.shape == (108,)
        assert 108 / 96 == txchain.SPS

    def test_all_zero_symbols(self):
        state = TxState()
        out = tx_process_beat(state, np.zeros(96))
        assert np.max(np.abs(out)) < 1e-15

    def test_batch_matches_streaming(self):
        rng = np.random.default_rng(11)
        symbols = rng.integers(0, 2, 96 * 7).astype(float)
        batch = txchain.tx_frame(symbols)
        state = TxState()
        flush = np.zeros(txchain.TX_FLUSH_BEATS * 96)
        blocks = np.concatenate([symbols, flush]).reshape(-1, 96)
        stream = np.concatenate([tx_process_beat(state, blk) for blk in blocks])
        assert np.max(np.abs(batch - stream)) < 1e-12

    @pytest.mark.parametrize("n_beats", [
        txchain.TX_BLOCK_BEATS - 1, txchain.TX_BLOCK_BEATS, txchain.TX_BLOCK_BEATS + 1,
        2 * txchain.TX_BLOCK_BEATS + 1,
    ])
    def test_blocks_equal_one_block_and_beat_loop(self, monkeypatch, n_beats):
        # frames whose beats, flush included, end just before, on and just
        # past a block edge: every beat sees the same transforms whatever
        # block it falls in, and the same as the beat loop's
        rng = np.random.default_rng(n_beats)
        symbols = rng.integers(0, 2, 96 * (n_beats - txchain.TX_FLUSH_BEATS)).astype(float)
        blocked = txchain.tx_frame(symbols)
        state = TxState()
        beats = np.concatenate([symbols, np.zeros(txchain.TX_FLUSH_BEATS * 96)]).reshape(-1, 96)
        assert np.array_equal(blocked, np.concatenate([tx_process_beat(state, b) for b in beats]))
        monkeypatch.setattr(txchain, "TX_BLOCK_BEATS", n_beats)
        assert np.array_equal(blocked, txchain.tx_frame(symbols))

    def test_tone_continuity_across_beats(self):
        # A periodic symbol pattern is block-circularly exact, so the shaped
        # waveform must continue seamlessly across every beat boundary.
        n_beats = 8
        symbols = np.tile([0.0, 1.0], 48 * n_beats)  # preamble-A style tone
        wave = txchain.tx_frame(symbols)[: n_beats * 108]
        # interior: compare against a pure sampled tone fitted on one beat
        seg = wave[2 * 108 : 6 * 108]
        t = np.arange(len(seg))
        # tone at half the symbol rate = (64/144) cycles/sample
        ref_freq = 0.5 / txchain.SPS
        basis = np.stack([np.cos(2 * np.pi * ref_freq * t), np.sin(2 * np.pi * ref_freq * t), np.ones_like(t)])
        coef, *_ = np.linalg.lstsq(basis.T, seg, rcond=None)
        resid = seg - basis.T @ coef
        assert np.max(np.abs(resid)) <= 1e-6

    def test_rate_conservation(self):
        symbols = np.zeros(96 * 5)
        wave = txchain.tx_frame(symbols)
        assert len(wave) == int((len(symbols) + txchain.TX_FLUSH_BEATS * 96) * txchain.SPS)

    def test_spectral_confinement(self):
        # Out-of-band leakage comes only from block-seam residue, i.e. the RRC
        # tails the 32-symbol overlap cannot contain.  -55 dBc is the floor
        # this geometry supports with the exact sqrt(RC) bin response.
        rng = np.random.default_rng(5)
        symbols = rng.integers(0, 2, 96 * 64).astype(float)
        wave = txchain.tx_frame(symbols)
        # beats 4..61 of the 64 beats of symbols
        seg = wave[4 * 108 : -(2 + txchain.TX_FLUSH_BEATS) * 108]
        seg = seg - seg.mean()
        W = np.fft.rfft(seg * np.hanning(len(seg)))
        f = np.fft.rfftfreq(len(seg), d=1.0) * txchain.SPS  # cycles/symbol
        inband = f <= 0.55
        p_in = np.sum(np.abs(W[inband]) ** 2)
        p_out = np.sum(np.abs(W[~inband]) ** 2)
        assert p_out <= 10 ** (-55 / 10) * p_in


def padded_rows(x, first, rows, hop, width):
    """Reference for ``window_rows``: slices of ``x`` zero-padded past every row."""
    pad = abs(first) + hop * rows + width
    ref = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    return np.array([ref[pad + first + hop * j : pad + first + hop * j + width]
                     for j in range(rows)])


class TestWindowRows:
    # (first, rows, hop, width) on 2 000 samples: the transmitter's blocks,
    # the receiver's beats before and from sample 36, and the channel's
    # filter windows; inside is whether every row lies inside the samples
    @pytest.mark.parametrize("first, rows, hop, width, inside", [
        (-32, 21, 96, 128, False),
        (96 * 3 - 32, 17, 96, 128, True),
        (96 * 3 - 32, 20, 96, 128, False),
        (-36, 18, 108, 144, False),
        (0, 18, 108, 144, True),
        (2000 - 144 - 108 * 5, 6, 108, 144, True),
        (500 - 36, 13, 108, 144, True),
        (500 - 36, 15, 108, 144, False),
        (-384, 2000 + 384 + 1, 1, 384, False),
        (0, 2000 - 384 + 1, 1, 384, True),
        (1, 2000 - 384 + 1, 1, 384, False),
    ])
    def test_rows_are_zero_padded_slices(self, first, rows, hop, width, inside):
        x = np.random.default_rng(first & 0xFF).normal(size=2000)
        got = txchain.window_rows(x, first, rows, hop, width)
        assert got.shape == (rows, width)
        assert np.array_equal(got, padded_rows(x, first, rows, hop, width))
        # a view of x only when no row runs past either end: the channel
        # filters into x while its rows, which run past both ends, read a copy
        assert np.shares_memory(got, x) == inside
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 1.0

    @pytest.mark.parametrize("first", [-1000, -360, 2000, 2500])
    def test_span_wholly_outside_reads_zeros(self, first):
        # the three rows span first .. first + 360
        got = txchain.window_rows(np.ones(2000), first, 3, 108, 144)
        assert got.shape == (3, 144) and not got.any()

    def test_only_reader_imports_stride_tricks(self):
        # every window of the chain is cut by window_rows
        importers = []
        for path in sorted(Path(txchain.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([f"{node.module}.{a.name}" for a in node.names]
                         if isinstance(node, ast.ImportFrom)
                         else [a.name for a in node.names] if isinstance(node, ast.Import)
                         else [])
                if any(n.startswith("numpy.lib.stride_tricks") for n in names):
                    importers.append(path.name)
        assert importers == ["txchain.py"]


# sha256 of tx_frame(build_frame(layout, gen_payload_bits(layout, 1000))), pinned
# from the beat-by-beat transmitter this batch form was checked against
TX_DIGESTS = {
    (130_000, 0.1): "385fa66409f72305eedf876a83258f5d9bcced765248b9a9e90cbe8d52b9d049",
    (1, 0.1): "65d5700d971ddf7d4c81a8e4f7c4362e0f5544dbc580b01149f5bc05cfef7947",
    (95, 0.1): "9adbb8a3bc35fd752200d9b846280c83eb48c8f07d8bf6f8a1c5dbe863b21a18",
    (130_000, 0.03): "5608607f159fd83c8a4b10afd6337c982a01eab2a53de38f7735a9c87186faf9",
}


@pytest.mark.parametrize("payload_len, rolloff", sorted(TX_DIGESTS))
def test_waveform_pinned(payload_len, rolloff):
    layout = framing.FrameLayout(payload_len=payload_len)
    frame = framing.build_frame(layout, framing.gen_payload_bits(layout, 1000))
    wave = txchain.tx_frame(frame, rolloff)
    assert wave.dtype == np.float64 and wave.flags.c_contiguous
    digest = hashlib.sha256(wave.tobytes()).hexdigest()
    assert digest == TX_DIGESTS[payload_len, rolloff]
