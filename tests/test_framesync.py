"""Frame-synchronization tests: correlation, metric, placement recovery."""

import numpy as np
import pytest

from burstrx import framesync, framing
from burstrx.errors import SyncError

LAYOUT = framing.FrameLayout(payload_len=0)
PN = 2 * framing.gen_preamble_b(LAYOUT)[: framing.PN_LEN] - 1


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
        res = framesync.find_sync(s, PN)
        assert res.p1 == q

    def test_position_arithmetic(self):
        assert framesync.SyncResult(8, 1.0, 0.1).p == 9
        assert framesync.SyncResult(8, 1.0, 0.1).frac == 0.0
        r = framesync.SyncResult(3, 1.0, 0.1)
        assert r.p == 3
        assert r.frac == pytest.approx(0.375)

    def test_offset_reporting(self):
        s = self.place_b(353)
        res = framesync.find_sync(s, PN, offset=1000)
        assert res.p1 == 1353

    def test_gain_invariance(self):
        s = self.place_b(353)
        r1 = framesync.find_sync(s, PN)
        r2 = framesync.find_sync(s * 12.5, PN)
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
            framesync.find_sync(rng.normal(size=2000), PN)

    @pytest.mark.parametrize("case", ["placed", "noise", "tie", "one_placement"])
    def test_second_peak_is_largest_other_placement(self, case, monkeypatch):
        # the second peak is the largest |M| over every placement but the
        # peak's, 0 when there is none; the ratio test is switched off to
        # read it on every stream
        monkeypatch.setattr(framesync, "SYNC_RATIO_MIN", 0.0)
        s = {
            "placed": self.place_b(353),
            "noise": np.random.default_rng(4).normal(size=2000),
            "tie": np.concatenate([self.place_b(100, total=600), self.place_b(100, total=600)]),
            "one_placement": framing.gen_preamble_b(LAYOUT),
        }[case]
        m = framesync.metric_stream(framesync.bipolarize(s), PN)
        p = int(np.argmax(m))
        rest = np.abs(np.delete(m, p))
        want = float(rest.max()) if len(rest) else 0.0
        assert framesync.find_sync(s, PN).second_peak_value == want
        if case == "tie":
            assert want == m[p]

    def test_frac_in_range(self):
        for q in range(0, 32):
            r = framesync.SyncResult(q, 1.0, 0.0)
            assert 0.0 <= r.frac < 1.0
            assert r.peak_value >= r.second_peak_value or r.second_peak_value == 0.0
