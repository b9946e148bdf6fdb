"""The published clock-cycle latency of each hardware pipeline stage.

The hardware handles one beat per clock, so the cycles along a path are its
loop delay in beats.
"""

STAGES = {
    "fft128": 46,  # seven radix-2 layers of 64 butterflies
    "fft144": 53,  # four radix-2 layers then two radix-3 layers
    "radix2_path": 7,  # two timing-aligned paths per butterfly
    "radix3_path": 14,  # three paths, 3-cycle multiplier alignment each
    "detect_tree_search": 29,  # 7-layer power-peak comparison with margin
    "detect_align": 13,  # aligns detection with the initial phase estimate
    "godard_sum": 7,  # binary-tree summation of the band products
    "nco_division": 39,  # pipelined divider for the fractional interval
    "sync_xcorr": 18,  # 161 add/subtract sliding correlations
    "sync_metric_combine": 6,  # three sign-weighted matrices summed
    "sync_tree_max": 61,  # binary-tree maximum search
    "mmse_division": 59,  # complex divide for the tap estimate
    "ddlms_error_align": 70,  # aligns selected bins with the decision path
    "ddlms_update_align": 80,  # aligns consecutive tap iterations
}
