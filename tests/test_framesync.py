"""Frame-synchronization tests: correlation, metric, placement recovery."""

import numpy as np
import pytest

from burstrx import framesync, framing
from burstrx.errors import SyncError

LAYOUT = framing.FrameLayout(payload_len=0)
PN = framing.pn_sequence(LAYOUT.pn_seed)


class TestXcorr:
    """The Pn correlation inside ``metric_stream``, one block at a time."""

    def test_clean_blocks(self):
        z = np.zeros(32)
        for blocks, expected in [
            ((PN, z, z), 32), ((z, PN, z), 32), ((z, z, PN), -32),
        ]:
            m = framesync.metric_stream(np.concatenate(blocks), PN)
            assert len(m) == 1
            assert m[0] == expected

    def test_zero_window(self):
        m = framesync.metric_stream(np.zeros(1000), PN)
        assert len(m) == 1000 - 95
        assert not m.any()

    def test_linearity_in_gain(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=192)
        m1 = framesync.metric_stream(s, PN)
        m2 = framesync.metric_stream(3.5 * s, PN)
        assert np.allclose(m2, 3.5 * m1)


class TestSyncMetric:
    def test_clean_peak_96(self):
        s = np.concatenate([PN, PN, -PN, np.zeros(96)])
        m = framesync.metric_stream(s, PN)
        assert len(m) == 97
        assert m[0] == 96

    def test_zero(self):
        assert not framesync.metric_stream(np.zeros(192), PN).any()

    def test_linear(self):
        rng = np.random.default_rng(2)
        s1, s2 = rng.normal(size=(2, 192))
        lhs = framesync.metric_stream(2 * s1 - 3 * s2, PN)
        rhs = 2 * framesync.metric_stream(s1, PN) - 3 * framesync.metric_stream(s2, PN)
        assert np.allclose(lhs, rhs)

    def test_stream_too_short(self):
        framesync.metric_stream(np.zeros(96), PN)
        with pytest.raises(SyncError):
            framesync.metric_stream(np.zeros(95), PN)


class TestFindSync:
    def place_b(self, q, total=1500, rng_seed=3):
        """Clean {0,1} stream with preamble B at offset q, random elsewhere."""
        rng = np.random.default_rng(rng_seed)
        s = rng.integers(0, 2, total).astype(float)
        b = framing.gen_preamble_b(LAYOUT)
        s[q : q + 96] = b
        return s

    @pytest.mark.parametrize("q", [0, 17, 96, 353, 1000])
    def test_placement_exact(self, q):
        s = self.place_b(q)
        res = framesync.find_sync(s, PN, ratio_min=1.2)
        assert res.p1 == q

    def test_position_arithmetic(self):
        assert framesync.make_sync_result(8, 1.0, 0.1).p == 9
        assert framesync.make_sync_result(8, 1.0, 0.1).frac == 0.0
        r = framesync.make_sync_result(3, 1.0, 0.1)
        assert r.p == 3
        assert r.frac == pytest.approx(0.375)

    def test_offset_reporting(self):
        s = self.place_b(353)
        res = framesync.find_sync(s, PN, ratio_min=1.2, offset=1000)
        assert res.p1 == 1353

    def test_gain_invariance(self):
        s = self.place_b(353)
        r1 = framesync.find_sync(s, PN, ratio_min=1.2)
        r2 = framesync.find_sync(s * 12.5, PN, ratio_min=1.2)
        assert r1.p1 == r2.p1

    def test_single_dominant_peak_in_frame(self):
        # full preamble frame: exactly one metric value above half the peak
        frame = framing.build_frame(LAYOUT, np.array([], dtype=np.uint8))
        m = framesync.metric_stream(framesync.bipolarize(frame), PN)
        peak = m.max()
        assert np.sum(m > 0.5 * peak) == 1

    def test_failure_on_noise_only(self):
        rng = np.random.default_rng(4)
        with pytest.raises(SyncError):
            framesync.find_sync(rng.normal(size=2000), PN, ratio_min=1.5)

    def test_frac_in_range(self):
        for q in range(0, 32):
            r = framesync.make_sync_result(q, 1.0, 0.0)
            assert 0.0 <= r.frac < 1.0
            assert r.peak_value >= r.second_peak_value or r.second_peak_value == 0.0
