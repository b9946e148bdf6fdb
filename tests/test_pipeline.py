"""Published stage latencies and the path totals read from them."""

import pytest

from burstrx import pipeline
from burstrx.errors import StageLookupError

PUBLISHED_CYCLES = {
    "fft128": 46,
    "fft144": 53,
    "radix2_path": 7,
    "radix3_path": 14,
    "detect_tree_search": 29,
    "detect_align": 13,
    "godard_sum": 7,
    "nco_division": 39,
    "sync_xcorr": 18,
    "sync_metric_combine": 6,
    "sync_tree_max": 61,
    "mmse_division": 59,
    "ddlms_error_align": 70,
    "ddlms_update_align": 80,
}


class TestDataset:
    def test_all_published_values(self):
        for name, cycles in PUBLISHED_CYCLES.items():
            assert pipeline.STAGES[name] == cycles


class TestLatencyReport:
    def test_fft_stages(self):
        assert pipeline.latency_report(["fft128"]) == 46
        assert pipeline.latency_report(["fft144"]) == 53

    def test_frame_sync_path(self):
        total = pipeline.latency_report(
            ["sync_xcorr", "sync_metric_combine", "sync_tree_max"]
        )
        assert total == 85

    def test_unknown_stage(self):
        with pytest.raises(StageLookupError):
            pipeline.latency_report(["not_a_stage"])
