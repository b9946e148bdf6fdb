"""Published stage latencies."""

from burstrx import pipeline

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
